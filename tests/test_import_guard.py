"""No module of the package imports the ``repro.core.evaluator_*`` shims.

Every problem kind is an :class:`~repro.core.mld.MLDCircuit` builder; the
four ``evaluator_*`` modules only keep ``benchmarks/ledger/layers.py``
running until the ledger is re-anchored (ROADMAP item 1), so nothing in
``src/repro`` may come to depend on them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
SHIM = "repro.core.evaluator_"


def _imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_package_module_imports_an_evaluator_shim():
    offenders = sorted(
        f"{path.relative_to(PACKAGE.parent)}: {name}"
        for path in PACKAGE.rglob("*.py")
        for name in _imports(path) if name.startswith(SHIM))
    assert not offenders, offenders


def test_the_guard_sees_an_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from repro.core import evaluator_path\n"
                     "import repro.core.evaluator_tree\n")
    assert sorted(n for n in _imports(probe) if n.startswith(SHIM)) == [
        "repro.core.evaluator_path", "repro.core.evaluator_tree"]
