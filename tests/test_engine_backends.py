"""Cross-backend equivalence of the unified detection engine.

Every driver routes through :class:`repro.core.engine.DetectionEngine`,
and randomness is round-scoped, so the *answer* — every per-round
accumulator value, not just the boolean — must be bit-identical across
``sequential``, ``simulated``, ``threaded`` (and ``modeled``) backends,
on any graph and any seed.  These tests pin that contract, plus the
regression that :func:`detect_scan_cell` actually honors
``runtime.mode`` (it used to silently run sequentially).
"""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import BACKENDS, DetectionEngine
from repro.core.midas import (
    MidasRuntime,
    detect_path,
    detect_scan_cell,
    detect_tree,
    max_weight_path,
    scan_grid,
)
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.errors import ConfigurationError, WorkerCrashedError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan, crash, drop
from repro.runtime.tracing import TraceRecorder
from repro.util.rng import RngStream

COMMON = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)


def small_graph(seed: int, n_max: int = 14, density: float = 1.5) -> CSRGraph:
    rng = RngStream(seed, name="eng")
    n = 5 + seed % (n_max - 5)
    m = int(n * density)
    return erdos_renyi(n, m=min(m, n * (n - 1) // 2), rng=rng)


def backends():
    """One runtime per backend, identically answering configurations."""
    return [
        MidasRuntime(),
        MidasRuntime(n_processors=4, n1=2, n2=4, mode="simulated"),
        MidasRuntime(n_processors=4, n1=2, n2=4, mode="simulated", overlap=True),
        MidasRuntime(mode="threaded", workers=3, n2=8),
        MidasRuntime(n_processors=8, n1=4, mode="modeled"),
        MidasRuntime(mode="process", workers=2, n2=8),
    ]


def _round_values(res):
    return [r.value for r in res.rounds]


class TestEquivalenceMatrix:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=6))
    @settings(**COMMON)
    def test_path_bit_identical(self, seed, k):
        g = small_graph(seed)
        outs = [
            detect_path(g, k, eps=0.3, rng=RngStream(seed ^ 0x51), runtime=rt,
                        early_exit=False)
            for rt in backends()
        ]
        ref = _round_values(outs[0])
        for out in outs[1:]:
            assert _round_values(out) == ref
            assert out.found == outs[0].found

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_tree_bit_identical(self, seed):
        g = small_graph(seed)
        tmpl = TreeTemplate.star(4) if seed % 2 else TreeTemplate.binary(5)
        outs = [
            detect_tree(g, tmpl, eps=0.3, rng=RngStream(seed ^ 0x52), runtime=rt,
                        early_exit=False)
            for rt in backends()
        ]
        ref = _round_values(outs[0])
        for out in outs[1:]:
            assert _round_values(out) == ref

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_max_weight_path_identical(self, seed):
        g = small_graph(seed)
        w = RngStream(seed, name="w").integers(0, 3, size=g.n)
        outs = [
            max_weight_path(g, 3, w, eps=0.3, rng=RngStream(seed ^ 0x53), runtime=rt)
            for rt in backends()
        ]
        assert all(o == outs[0] for o in outs[1:])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_scan_grid_identical(self, seed):
        g = small_graph(seed, n_max=12)
        w = RngStream(seed, name="gw").integers(0, 2, size=g.n)
        outs = [
            scan_grid(g, w, k=3, eps=0.3, rng=RngStream(seed ^ 0x54), runtime=rt)
            for rt in backends()
        ]
        for out in outs[1:]:
            assert np.array_equal(out.detected, outs[0].detected)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(**COMMON)
    def test_scan_cell_identical(self, seed):
        g = small_graph(seed, n_max=12)
        w = RngStream(seed, name="cw").integers(0, 2, size=g.n)
        z = int(w.max()) + 1
        outs = [
            detect_scan_cell(g, w, 2, z, eps=0.3, rng=RngStream(seed ^ 0x55), runtime=rt)
            for rt in backends()
        ]
        assert all(o == outs[0] for o in outs[1:])


class TestWindowWidthIdentity:
    """Williams' evaluation does not care how the ``2^k`` points are
    grouped: every round accumulator of every kind is the same at one lane
    per window, one word, the engine's default and the whole round — in
    this process and on the worker fleet."""

    KINDS = {
        # kind -> (k, call): k = 11 is the size at which the default
        # (1024 lanes) is none of the explicit widths
        "detect_path": (11, lambda g, w, rt: detect_path(
            g, 11, eps=0.5, rng=RngStream(71), runtime=rt, early_exit=False)),
        "detect_tree": (7, lambda g, w, rt: detect_tree(
            g, TreeTemplate.binary(7), eps=0.5, rng=RngStream(72), runtime=rt,
            early_exit=False)),
        "max_weight_path": (7, lambda g, w, rt: max_weight_path(
            g, 7, w, eps=0.5, rng=RngStream(73), runtime=rt)),
        "scan_grid": (4, lambda g, w, rt: scan_grid(
            g, w, k=4, eps=0.5, rng=RngStream(74), runtime=rt)),
    }

    @pytest.mark.parametrize("mode", ["sequential", "process"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_round_values_do_not_depend_on_n2(self, kind, mode):
        from repro.sanitize import DigestLog

        k, call = self.KINDS[kind]
        g = erdos_renyi(36, m=90, rng=RngStream(70, name="g"))
        w = RngStream(70, name="w").integers(0, 3, size=g.n)
        rounds = {}
        for n2 in (1, 64, None, 1 << k):
            rt = MidasRuntime(mode=mode, n2=n2, digest_log=DigestLog(),
                              workers=2 if mode == "process" else None)
            call(g, w, rt)
            assert rt.digest_log.rounds, (kind, n2)
            rounds[n2] = rt.digest_log.rounds
        assert all(r == rounds[1] for r in rounds.values())


class TestScanCellHonorsMode:
    """Regression: detect_scan_cell used to ignore runtime.mode entirely
    and always evaluate sequentially — a simulated runtime produced no
    simulator activity at all."""

    def test_simulated_mode_runs_rank_programs(self):
        g = erdos_renyi(20, 50, rng=RngStream(9, name="g"))
        w = RngStream(10, name="w").integers(0, 2, size=g.n)
        rec = TraceRecorder()
        reg = MetricsRegistry()
        rt = MidasRuntime(n_processors=4, n1=2, n2=4, mode="simulated",
                          recorder=rec, metrics=reg)
        detect_scan_cell(g, w, 3, 1, eps=0.4, rng=RngStream(11), runtime=rt)
        kinds = {ev.kind for ev in rec.events}
        # collectives (the per-round XOR reduce) only exist on the SPMD
        # path; the old sequential-only code never produced them
        assert "collective" in kinds
        assert any(ev.rank > 0 for ev in rec.events), "only one rank ran"
        rounds = reg.get("midas_rounds_total")
        assert any(labels.get("mode") == "simulated" and child.value > 0
                   for labels, child in rounds.children())

    def test_simulated_cell_agrees_with_sequential_on_planted_hit(self):
        g = erdos_renyi(20, 50, rng=RngStream(21, name="g"))
        g, _ = plant_path(g, 3, rng=RngStream(22, name="p"))
        w = np.ones(g.n, dtype=np.int64)
        # a 3-vertex connected subgraph of total weight 3 certainly exists
        seq = detect_scan_cell(g, w, 3, 3, eps=0.1, rng=RngStream(23))
        sim = detect_scan_cell(
            g, w, 3, 3, eps=0.1, rng=RngStream(23),
            runtime=MidasRuntime(n_processors=2, n1=2, n2=4, mode="simulated"),
        )
        assert seq is True and sim is True


class TestFaultEquivalence:
    def test_max_weight_path_recovers_bit_identical(self):
        g = erdos_renyi(30, 90, rng=RngStream(31, name="g"))
        g, _ = plant_path(g, 4, rng=RngStream(32, name="p"))
        w = RngStream(33, name="w").integers(0, 4, size=g.n)
        kw = dict(eps=0.3, rng=RngStream(34))

        def rt(**extra):
            return MidasRuntime(n_processors=4, n1=2, n2=8, mode="simulated",
                                **extra)

        clean = max_weight_path(g, 4, w, runtime=rt(),
                                **{**kw, "rng": RngStream(34)})
        plan = FaultPlan([crash(rank=1, after_ops=3), drop(src=0, dst=1)],
                         seed=77)
        faulty = max_weight_path(g, 4, w, runtime=rt(fault_plan=plan),
                                 **{**kw, "rng": RngStream(34)})
        assert faulty == clean


_CLOSE_EARLY_SCRIPT = """
import os
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.process_backend import ProcessPhasePool
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

def main():
    g = erdos_renyi(60, m=150, rng=RngStream(1))
    spec = compile(MLDCircuit.k_path(5))
    fp = spec.draw_fingerprint(g.n, RngStream(2))
    for _ in range(3):
        pool = ProcessPhasePool(g, 4, start_method="spawn")
        names = [seg.name.lstrip("/") for seg in pool._segments]
        wired = pool.wire_spec(spec)
        futures = [pool.submit(wired, fp, q, 4) for q in range(0, 32, 4)]
        futures[0].result(timeout=60)
        pool.close()
        print(f"leaked={sum(os.path.exists('/dev/shm/' + n) for n in names)}")

if __name__ == "__main__":
    main()
"""


_CONCURRENT_POOLS_SCRIPT = """
import sys
import threading
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

def main():
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-registration
    g = erdos_renyi(300, m=1200, rng=RngStream(1))
    values = {}

    def queries(i):  # what one service worker thread does, back to back
        for j in range(4):
            rt = MidasRuntime(mode="process", workers=2)
            res = detect_path(g, 5, eps=0.4, rng=RngStream(7), runtime=rt,
                              early_exit=False)
            values[i, j] = [r.value for r in res.rounds]

    threads = [threading.Thread(target=queries, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(values) == 16 and len({str(v) for v in values.values()}) == 1
    print("done")

if __name__ == "__main__":
    main()
"""


class TestProcessConfig:
    def test_concurrent_pools_never_fork_into_a_held_lock(self, tmp_path):
        """Engines in sibling threads (one per in-flight service query) each
        own a pool.  One forking its workers while another registers a
        shared-memory segment used to leave the child deadlocked on the
        resource tracker's lock at its first attach — a third of 4-client
        service runs on two cores.  More threads than cores, own process
        group so a regression is a timeout here, not a hung suite."""
        import os
        import signal
        import subprocess
        import sys

        script = tmp_path / "concurrent_pools.py"
        script.write_text(_CONCURRENT_POOLS_SCRIPT)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                text=True, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked worker deadlocked (no answer in 120 s)")
        assert proc.returncode == 0 and out.split() == ["done"], err

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            MidasRuntime(mode="process", workers=0)

    def test_start_method_validated(self):
        with pytest.raises(ConfigurationError, match="start"):
            MidasRuntime(mode="process", process_start="bogus")

    def test_fault_plan_rejected_in_process_mode(self):
        with pytest.raises(ConfigurationError, match="simulated"):
            MidasRuntime(mode="process", fault_plan=FaultPlan([drop()]))

    def test_close_right_after_first_result_is_clean(self, tmp_path):
        """close() while some spawned workers are still in their
        initializer: the segments must outlive every worker's attach —
        no BrokenProcessPool, no traceback, nothing left in /dev/shm."""
        import os
        import subprocess
        import sys

        script = tmp_path / "close_early.py"
        script.write_text(_CLOSE_EARLY_SCRIPT)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, str(script)], env=env, text=True,
                             capture_output=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr and "BrokenProcessPool" not in out.stderr
        assert out.stdout.split() == ["leaked=0"] * 3

    def test_pool_released_and_reusable(self):
        g = erdos_renyi(16, 36, rng=RngStream(41, name="g"))
        rt = MidasRuntime(mode="process", workers=2)
        a = detect_path(g, 4, eps=0.3, rng=RngStream(42), runtime=rt)
        b = detect_path(g, 4, eps=0.3, rng=RngStream(42), runtime=rt)
        assert _round_values(a) == _round_values(b)

    def test_worker_crash_surfaces_as_typed_error(self, monkeypatch):
        """A dying worker must raise WorkerCrashedError promptly — not
        hang the parent on a never-completing future, and not leak the
        raw BrokenProcessPool."""
        monkeypatch.setenv("REPRO_TEST_CRASH_WORKER", "1")
        g = erdos_renyi(16, 36, rng=RngStream(71, name="g"))
        rt = MidasRuntime(mode="process", workers=2, n2=8)
        with pytest.raises(WorkerCrashedError, match="worker process died"):
            detect_path(g, 4, eps=0.3, rng=RngStream(72), runtime=rt)


class TestThreadedConfig:
    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            MidasRuntime(mode="threaded", workers=0)

    def test_fault_plan_rejected_in_threaded_mode(self):
        with pytest.raises(ConfigurationError, match="simulated"):
            MidasRuntime(mode="threaded", fault_plan=FaultPlan([drop()]))

    def test_get_workers_defaults_to_cpu_count(self):
        rt = MidasRuntime(mode="threaded")
        assert rt.get_workers() >= 1
        assert MidasRuntime(mode="threaded", workers=5).get_workers() == 5

    def test_threaded_pool_released_and_reusable(self):
        g = erdos_renyi(16, 36, rng=RngStream(41, name="g"))
        rt = MidasRuntime(mode="threaded", workers=2)
        a = detect_path(g, 4, eps=0.3, rng=RngStream(42), runtime=rt)
        b = detect_path(g, 4, eps=0.3, rng=RngStream(42), runtime=rt)
        assert _round_values(a) == _round_values(b)


class TestModeRules:
    """A mode is its backend: the registry is the one list of modes and
    each backend's class attributes are its mode's rules."""

    def test_each_mode_declares_its_rules(self):
        def having(rule):
            return {mode for mode, b in BACKENDS.items() if getattr(b, rule)}

        assert {mode: b.name for mode, b in BACKENDS.items()} == {
            mode: mode for mode in BACKENDS}
        assert having("pooled") == {"threaded", "process"}
        assert having("virtual") == {"modeled", "simulated"}
        assert having("ranks") == {"simulated"}
        for mode in BACKENDS:
            assert MidasRuntime(mode=mode).backend is BACKENDS[mode]

    #: a mode compared with a string literal or a tuple of them, either
    #: way round, or a config's ``.get("mode")`` compared with anything
    _MODE_LITERAL = re.compile(
        r"""mode\s*(?:==|!=)\s*[rbuf]?["']"""
        r"""|["']\s*(?:==|!=)\s*[\w.]*mode\b"""
        r"""|mode\s+(?:not\s+)?in\s*[(\[{]\s*[rbuf]?["']"""
        r"""|\.get\(\s*["']mode["']\s*\)\s*(?:==|!=|(?:not\s+)?in\b)""")

    def test_no_module_compares_a_mode_with_a_literal(self):
        """Whatever depends on the mode reads its backend's rules (or the
        sanitize levels' one tuple); no module spells a mode out in a
        comparison, so adding or deleting a mode edits one class."""
        src = Path(repro.__file__).parent
        hits = [f"{p.relative_to(src)}:{i}: {line.strip()}"
                for p in sorted(src.rglob("*.py"))
                for i, line in enumerate(p.read_text().splitlines(), 1)
                if self._MODE_LITERAL.search(line)]
        assert hits == []
        # the pattern does catch what it is for
        for line in ('if rt.mode == "simulated":', "if 'modeled' != mode:",
                     'if mode not in ("warn", "strict"):',
                     'if config.get("mode") in POOLED:'):
            assert self._MODE_LITERAL.search(line), line


@pytest.mark.parametrize("mode", ["sequential", "simulated"])
def test_a_closed_engine_is_freed_without_the_cycle_collector(mode, monkeypatch):
    """A finished driver call leaves no reference cycle through its engine
    (the engine and its backend point at each other until it closes), so
    the engine, its session, halo views and tables go when the call
    returns — not at a full garbage collection, which numpy memory never
    counts towards: a simulated ledger op's resident set grew about 60 KB
    an op with the cycle standing."""
    engines = []
    real_init = DetectionEngine.__init__

    def spy(self, *args, **kw):
        real_init(self, *args, **kw)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(DetectionEngine, "__init__", spy)
    g = erdos_renyi(60, 150, rng=RngStream(3, name="g"))
    shape = dict(n_processors=8, n1=4) if mode == "simulated" else {}
    gc.disable()
    try:
        detect_path(g, 5, eps=0.5, rng=RngStream(4), early_exit=False,
                    runtime=MidasRuntime(mode=mode, metrics=MetricsRegistry(), **shape))
        assert len(engines) == 1 and engines[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["sequential", "simulated"])
def test_an_engine_runs_one_stage(mode):
    """``run_stage`` is an engine's one stage: a second call on the same
    engine is refused before it runs a round or touches the first one's
    schedule."""
    g = erdos_renyi(40, 100, rng=RngStream(5, name="g"))
    shape = dict(n_processors=4, n1=2) if mode == "simulated" else {}
    rt = MidasRuntime(mode=mode, metrics=MetricsRegistry(), **shape)
    spec = compile(MLDCircuit.k_path(4))
    with DetectionEngine(g, rt, spec.name) as engine:
        first = engine.run_stage(spec, 2, RngStream(6))
        sched = engine.sched
        with pytest.raises(ConfigurationError, match="one stage"):
            engine.run_stage(spec, 2, RngStream(6))
        assert engine.sched is sched and engine.rounds == first.rounds_run == 2
