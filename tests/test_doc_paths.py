"""Keep the prose honest: a repository path the docs name must exist.

README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the source files'
docstrings point readers at tests, examples, benchmark files and modules;
a file that moves or is deleted must take its mentions with it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a path is a word starting at one of the four trees; ``::test_name``,
# ``:line`` and trailing punctuation are not part of it
_PATH = re.compile(r"(?<![\w/.<>-])(?:benchmarks|tests|examples|src)/[\w./*-]*")


def _documents():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        yield ROOT / name
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src" / "repro").rglob("*.py"))


def test_every_path_the_docs_name_exists():
    missing = []
    for doc in _documents():
        for mention in sorted(set(_PATH.findall(doc.read_text()))):
            path = mention.rstrip(".")
            found = any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()
            if not found:
                missing.append(f"{doc.relative_to(ROOT)}: {mention}")
    assert not missing, "\n".join(missing)
