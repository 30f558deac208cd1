"""No module of the package imports the ``repro.core.evaluator_*`` shims,
and the level DP stays written once.

Every problem kind is an :class:`~repro.core.mld.MLDCircuit` builder; the
four ``evaluator_*`` modules only keep ``benchmarks/ledger/layers.py``
running until the ledger is re-anchored (ROADMAP item 1), so nothing in
``src/repro`` may come to depend on them.  Nor may a module outside
:mod:`repro.core.leveldp` sum neighbours itself (``xor_segment_reduce``)
or draw its own fingerprints (``Fingerprint.draw``): a second level DP
would need both.  Nor may the simulator grow an op its one rank program,
:func:`~repro.core.leveldp.phase_program`, never yields.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.mld import MLDCircuit
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.runtime import comm
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream

PACKAGE = Path(repro.__file__).parent
SHIM = "repro.core.evaluator_"
#: name -> the package modules that may use it
OWNERS = {
    "xor_segment_reduce": {"graph/csr.py", "graph/__init__.py", "core/leveldp.py"},
    "Fingerprint.draw": {"core/problems.py", "runtime/costmodel.py"},
}


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


def _uses(path: Path):
    """The :data:`OWNERS` names ``path`` references: ``xor_segment_reduce``
    by any name, import or attribute, ``Fingerprint.draw`` by a call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "xor_segment_reduce":
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr == "xor_segment_reduce":
            yield node.attr
        elif isinstance(node, ast.alias) and node.name == "xor_segment_reduce":
            yield node.name
        elif (isinstance(node, ast.Call)
              and ast.unparse(node.func).split(".")[-2:] == ["Fingerprint", "draw"]):
            yield "Fingerprint.draw"


def test_the_level_dp_is_written_once():
    offenders = sorted(
        f"{rel}: {name}"
        for path in PACKAGE.rglob("*.py")
        for rel in [path.relative_to(PACKAGE).as_posix()]
        for name in set(_uses(path)) if rel not in OWNERS[name])
    assert not offenders, offenders


def _spoken_ops(overlapped: bool):
    """The op classes :func:`phase_program` yields on four simulated ranks."""
    g = erdos_renyi(40, m=100, rng=RngStream(10))
    fp = Fingerprint.draw(g.n, 4, RngStream(11))
    views = build_halo_views(g, random_partition(g, 4, rng=RngStream(12)))
    program = phase_program(views, MLDCircuit.k_path(4).recurrence(), fp, 0, 8,
                            overlapped=overlapped)
    spoken = set()

    def recording(ctx):
        gen, value = program(ctx), None
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            spoken.add(type(op))
            value = yield op

    Simulator(4, trace=False).run(recording)
    return spoken


def test_the_simulator_speaks_only_the_rank_programs_ops():
    """Every op class is one the rank program yields, blocking or
    overlapped, or :class:`~repro.runtime.comm.Charge`, its modeled
    compute charge."""
    ops = {cls for cls in vars(comm).values()
           if isinstance(cls, type) and issubclass(cls, comm.Op) and cls is not comm.Op}
    assert ops == _spoken_ops(False) | _spoken_ops(True) | {comm.Charge}


def test_the_guard_sees_a_level_dp(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from repro.graph.csr import xor_segment_reduce\n"
                     "import repro.graph.csr as csr\n"
                     "from repro.ff import fingerprint\n"
                     "s = csr.xor_segment_reduce(a, b)\n"
                     "fp = Fingerprint.draw(n, k, rng)\n"
                     "fp = fingerprint.Fingerprint.draw(n, k, rng)\n")
    assert sorted(_uses(probe)) == ["Fingerprint.draw", "Fingerprint.draw",
                                    "xor_segment_reduce", "xor_segment_reduce"]
