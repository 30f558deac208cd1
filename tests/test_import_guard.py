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

And an import pays only for what a run executes: the packages export
their names lazily (:mod:`repro._lazy`), and the optional layers — the
HTTP exporter and client, the sanitizer, fault injection, checkpoints,
the simulator, the analytic model and the obs views — are imported where
a run builds their feature, never by importing an entry point.
"""

from __future__ import annotations

import ast
import importlib
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

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


#: the modules an entry-point import must not load (a trailing dot: the
#: package's modules)
OPTIONAL_LAYERS = (
    "http.server", "urllib.request", "repro.sanitize", "repro.sanitize.",
    "repro.runtime.faults", "repro.runtime.durable", "repro.runtime.scheduler",
    "repro.core.model", "repro.obs.http", "repro.obs.live", "repro.obs.analyze",
    "repro.obs.report", "repro.obs.store", "repro.obs.chrome_trace",
)

_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import {module}
took = time.perf_counter() - t0
print(took)
print(" ".join(sorted(sys.modules)))
"""


def _import_in_fresh_process(module: str):
    """``(seconds, loaded module names)`` of importing ``module`` in a new
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(module=module)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    took, loaded = proc.stdout.splitlines()
    return float(took), loaded.split()


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.core.midas",
                                    "repro.service.broker"])
def test_an_entry_point_loads_no_optional_layer(module):
    _, loaded = _import_in_fresh_process(module)
    offenders = [m for m in loaded
                 if any(m == layer or (layer.endswith(".") and m.startswith(layer))
                        for layer in OPTIONAL_LAYERS)]
    assert not offenders, offenders
    if module == "repro":
        assert [m for m in loaded if m.startswith("repro")] == ["repro", "repro._lazy"]


def test_a_local_detect_path_loads_neither_the_sanitizer_nor_the_scan_layer():
    """A plain ``repro detect-path`` runs no sanitizer and no scan: its
    ``--sanitize`` choices are the engine's, and the broker imports the
    scan detector in the scan branch alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys\n"
            "from repro.cli import main\n"
            "rc = main(['detect-path', '--er', '200', '-k', '4', '--seed', '3'])\n"
            "print(rc)\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, rc, loaded = proc.stdout.splitlines()
    assert rc == "0"  # the ER graph has 4-paths: the run did run
    loaded = set(loaded.split())
    assert "repro.core.midas" in loaded
    assert not loaded & {"repro.sanitize.comm", "repro.scanstat.detect"}


def test_the_cli_imports_within_its_budget():
    """``import repro.cli``, the start-up every CLI command pays before
    its own imports, takes at most 0.20 s: the median of five fresh
    interpreters."""
    took = statistics.median(_import_in_fresh_process("repro.cli")[0] for _ in range(5))
    assert took <= 0.20, f"import repro.cli took {took:.3f} s"


#: the audit hook a probe installs: every module a forked child of the
#: probe imports is appended to the file ``sys.argv[1]``
_AUDIT = """
import os, sys
parent, log = os.getpid(), sys.argv[1]

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        with open(log, "a") as fh:
            fh.write(f"{args[0]}\\n")
"""

#: a round on a forked ProcessPhasePool, and served queries of every kind
#: on a forked service worker
_WORKER_PROBES = {
    "phase_pool": """
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.process_backend import ProcessPhasePool
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

sys.addaudithook(hook)
g = erdos_renyi(200, 800, rng=RngStream(1))
spec = compile(MLDCircuit.k_path(6))
pool = ProcessPhasePool(g, 2, "fork")
try:
    for _ in pool.round(pool.wire_spec(spec), spec.draw_fingerprint(g.n, RngStream(2)),
                        16, list(range(0, 64, 16))):
        pass
finally:
    pool.close()
""",
    "service": """
from repro.graph.generators import erdos_renyi
from repro.service import DetectionService, LocalClient, QuerySpec
from repro.util.rng import RngStream

sys.addaudithook(hook)
g = erdos_renyi(200, 800, rng=RngStream(1))
with DetectionService(workers=1, runtime_config={"process_start": "fork"}) as svc:
    svc.registry.register(g, name="g")
    client = LocalClient(svc)
    for kind, extra in (("detect-path", {}), ("detect-tree", {"template": "star"}),
                        ("scan", {"weights": [1] * g.n})):
        client.query(QuerySpec(kind=kind, graph="g", k=4, seed={"seed": 1}, **extra))
""",
}


@pytest.mark.parametrize("probe", sorted(_WORKER_PROBES))
def test_a_forked_worker_imports_no_module_of_the_package(probe, tmp_path):
    """What a fleet worker runs is imported before it forks — the level-DP
    hot path by the fleet module, a served query's modules by the broker —
    so no worker compiles one inside a window or a query (where it would
    count against that window's or query's wall)."""
    log = tmp_path / "imports.txt"
    log.touch()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = _AUDIT + _WORKER_PROBES[probe]
    proc = subprocess.run([sys.executable, "-c", code, str(log)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in log.read_text().split() if m.startswith("repro")] == []


#: every package with a lazy export table
PACKAGES = ["repro", *(f"repro.{name}" for name in (
    "core", "obs", "runtime", "sanitize", "graph", "scanstat", "ff", "util", "apps",
    "baselines", "service"))]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    """Each ``__all__`` name resolves by attribute, by ``import *`` and is
    in ``dir``; an unknown name is an :class:`AttributeError`."""
    pkg = importlib.import_module(package)
    listed = set(dir(pkg))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in pkg.__all__:
        assert name in listed, name
        assert namespace[name] is getattr(pkg, name), name
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(pkg, "no_such_export")


def test_the_quick_taste_imports_unchanged():
    from repro import RngStream, detect_path, erdos_renyi

    g = erdos_renyi(40, m=80, rng=RngStream(1))
    assert detect_path(g, k=3, eps=0.2, rng=RngStream(2)).found
