"""The process backend's worker fleet: one request per worker per round batch.

``ProcessPhasePool.batch`` sends each worker one request — the spec key,
the batch's fingerprints by reference, its share of the windows — and the
workers stream one record per finished window back (``round`` is the
one-round form).  What the protocol
has to guarantee is pinned here: the same bits as the sequential fold for
every problem kind, worker count and start method; the same per-window
telemetry as before the fleet; ``min(workers, n_phases)`` requests a
round; stale records dropped by id, never folded; a cancel that stops a
worker within one window; a worker's exception raised where the round was
asked for; and nothing left behind — not even by a parent that was
SIGKILLed.  (What a *dead* worker costs is in
``tests/smoke/test_process_smoke.py``.)
"""

import collections
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.midas import (
    MidasRuntime,
    detect_path,
    detect_tree,
    max_weight_path,
    scan_grid,
)
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.process_backend import ProcessPhasePool, close_fleet
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream

G = erdos_renyi(40, m=110, rng=RngStream(81, name="g"))
W = RngStream(82, name="w").integers(0, 3, size=G.n)


def _specs():
    return {
        "k-path": compile(MLDCircuit.k_path(5)),
        "k-tree": compile(MLDCircuit.k_tree(TreeTemplate.binary(5))),
        "weighted-path": compile(MLDCircuit.weighted_path(W, 4, 8)),
        "scanstat": compile(MLDCircuit.scan_row(W, 3, 6)),
    }


def _q_starts(spec, n2):
    return list(range(0, 1 << spec.k, n2))


def _sequential_round(spec, fp, n2):
    value = spec.acc_init()
    for q in _q_starts(spec, n2):
        value = spec.combine(value, spec.phase_value(G, fp, q, n2))
    return value


def _fleet_round(pool, spec, fp, n2):
    """Fold one round off the pool; returns (value, the records by t)."""
    value, records = spec.acc_init(), {}
    for t, (raw, stamps, _mdelta) in pool.round(pool.wire_spec(spec), fp, n2,
                                                _q_starts(spec, n2)):
        assert t not in records, "a window was reported twice"
        records[t] = stamps
        value = spec.combine(value, spec.rank_value(raw))
    return value, records


def _same(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _census():
    close_fleet()  # the warm fleet outlives a call; the census is without it
    return (sorted(glob.glob("/dev/shm/psm_*")), threading.active_count(),
            len(multiprocessing.active_children()))


# ------------------------------------------------------------ (a) same bits
@pytest.mark.parametrize("start", ["fork", "spawn"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_kind_folds_to_the_sequential_round(workers, start):
    """Four problem kinds on one fleet; 8 / 4 / 2 / 1 windows a round, so
    shares that do not divide evenly and rounds with idle workers."""
    before = _census()
    pool = ProcessPhasePool(G, workers, start_method=start)
    try:
        for kind, spec in _specs().items():
            for n2 in (4, 8, 1 << spec.k):
                fp = spec.draw_fingerprint(G.n, RngStream(83, name=kind))
                sent = pool.requests_sent
                value, records = _fleet_round(pool, spec, fp, n2)
                n_phases = (1 << spec.k) // n2
                assert _same(value, _sequential_round(spec, fp, n2)), (kind, n2)
                assert sorted(records) == list(range(n_phases))
                # idle workers hear nothing
                assert pool.requests_sent - sent == min(workers, n_phases)
                assert len({s[0] for s in records.values()}) <= min(workers, n_phases)
    finally:
        pool.close()
    assert pool.records_discarded == 0
    assert _census() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_driver_answers_like_sequential(workers):
    g = erdos_renyi(30, m=80, rng=RngStream(84, name="g"))
    w = RngStream(85, name="w").integers(0, 3, size=g.n)

    def answers(rt):
        path = detect_path(g, 5, eps=0.3, rng=RngStream(1), runtime=rt,
                           early_exit=False)
        tree = detect_tree(g, TreeTemplate.star(4), eps=0.3, rng=RngStream(2),
                           runtime=rt, early_exit=False)
        return ([r.value for r in path.rounds], [r.value for r in tree.rounds],
                max_weight_path(g, 3, w, eps=0.3, rng=RngStream(3), runtime=rt),
                scan_grid(g, w, k=3, eps=0.3, rng=RngStream(4),
                          runtime=rt).detected.tolist())

    # n2=4: 8 / 4 / 2 windows a round — never a multiple of 3, and the
    # scan grid's first sizes have fewer windows than workers
    assert (answers(MidasRuntime(mode="process", workers=workers, n2=4))
            == answers(MidasRuntime(n2=4)))


# ------------------------------------------------------- (b) same telemetry
def test_per_window_telemetry_is_what_it_was_before_the_fleet():
    """Counts recorded when each window was one executor task, for this
    exact run: 8 windows a round, over the 5 rounds a k = 6 path runs at
    eps = 0.3 (6 under the kind-free 1/5 rule, which the counts were
    first taken at: 48)."""
    g = erdos_renyi(60, m=150, rng=RngStream(1, name="g"))
    rt = MidasRuntime(mode="process", workers=2, n2=8,
                      metrics=MetricsRegistry(), digest_log=DigestLog())
    res = detect_path(g, 6, eps=0.3, rng=RngStream(2), runtime=rt,
                      early_exit=False)
    kernels = [s for s in rt.profiler.spans if s.name == "worker.kernel"]
    assert res.rounds_run == 5
    assert len(kernels) == 40
    assert len({s.lane for s in kernels}) == 2
    assert sum(c.value for _l, c in
               rt.metrics.get("midas_worker_phases_total").children()) == 40
    assert sum(h.count for _l, h in
               rt.metrics.get("midas_phase_seconds").children()) == 40
    assert len(rt.digest_log.phases) == 40 and len(rt.digest_log.rounds) == 5
    # each worker builds the spec once, and says so once
    builds = [s for s in rt.profiler.spans if s.name == "worker.spec_build"]
    assert len(builds) == 2


# ----------------------------------------------------------- (c) requests
@pytest.mark.parametrize("workers,n2,requests", [(2, 4, 2), (3, 16, 2), (3, 32, 1)])
def test_a_round_is_one_request_per_worker_and_one_fingerprint(workers, n2,
                                                               requests):
    spec = compile(MLDCircuit.k_path(5))  # 32 iterations: 8, 2, 1 windows
    pool = ProcessPhasePool(G, workers)
    try:
        for ell in range(3):
            fp = spec.draw_fingerprint(G.n, RngStream(86 + ell))
            value, _ = _fleet_round(pool, spec, fp, n2)
            assert _same(value, _sequential_round(spec, fp, n2))
            # (the executor path sent n_phases tasks, each with the fingerprint)
            assert pool.requests_sent == requests * (ell + 1)
            assert pool.fingerprints_sent == ell + 1
    finally:
        pool.close()


@pytest.mark.parametrize("early_exit, batches", [(False, [6]), (True, [1, 2, 2, 1])])
def test_a_small_k_run_sends_every_worker_a_window(monkeypatch, early_exit, batches):
    """k = 6 on the default schedule: one 64-lane window covers a round,
    so a batch of rounds goes out as one request per worker, each window
    carrying its share of the rounds side by side — not one worker taking
    every window while the other idles."""
    islands = _islands(6, 4)  # witness-free for k = 6: every round runs
    sent = []
    real = ProcessPhasePool._send

    def counting(self, worker, *body):
        sent.append(worker.process.pid)
        return real(self, worker, *body)

    monkeypatch.setattr(ProcessPhasePool, "_send", counting)
    rt = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    res = detect_path(islands, 6, eps=0.2, rng=RngStream(8), runtime=rt,
                      early_exit=early_exit)
    reference = detect_path(islands, 6, eps=0.2, rng=RngStream(8),
                            early_exit=early_exit)
    assert [r.value for r in res.rounds] == [r.value for r in reference.rounds]
    assert res.rounds_run == 6
    assert [s.tags["rounds"] for s in rt.profiler.spans
            if s.name == "engine.round"] == batches
    assert len(sent) == sum(min(2, b) for b in batches)
    kernels = [s for s in rt.profiler.spans if s.name == "worker.kernel"]
    assert len({s.pid for s in kernels}) == 2
    assert sum(s.tags["rounds"] for s in kernels) == 6
    # a fused round is one phase: one digest each, as with one round a window
    assert sorted(rt.digest_log.phases) == [(ell, 0, 0) for ell in range(6)]


def _islands(n_cliques: int, size: int):
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_edges(n_cliques * size, [
        (size * c + i, size * c + j) for c in range(n_cliques)
        for i in range(size) for j in range(i + 1, size)])


def test_submit_is_a_one_window_request():
    """The surface the frozen ledger calls: submit(...).result(timeout=)."""
    spec = compile(MLDCircuit.k_path(5))
    fp = spec.draw_fingerprint(G.n, RngStream(87))
    pool = ProcessPhasePool(G, 2)
    try:
        wired = pool.wire_spec(spec)
        replies = [pool.submit(wired, fp, q, 4) for q in range(0, 32, 4)]
        value, pids = 0, set()
        for reply in reversed(replies):  # any order
            raw, (pid, t0, t1, *_build), _mdelta = reply.result(timeout=60)
            value ^= spec.rank_value(raw)
            pids.add(pid)
            assert t0 <= t1
        assert value == _sequential_round(spec, fp, 4)
        assert len(pids) == 2 and pool.requests_sent == 8
    finally:
        pool.close()


# ------------------------------------------------- (d), (e) cancel and stale
def _slow_inputs():
    g = erdos_renyi(1500, 9000, rng=RngStream(1, name="g"))
    spec = compile(MLDCircuit.k_path(10))
    fp = spec.draw_fingerprint(g.n, RngStream(5))
    spec.phase_value(g, fp, 0, 16)  # warm caches
    t0 = time.perf_counter()
    spec.phase_value(g, fp, 0, 16)
    return g, spec, fp, time.perf_counter() - t0


def test_a_cancelled_rounds_records_are_dropped_and_its_workers_stop():
    """Cancel a 64-window round once every worker has reported a record of
    it and start the next at once: the next round's value is the
    sequential one (nothing stale was folded), the stale records were
    counted, and no worker went on with the cancelled share for more than
    the window it was in."""
    g, spec, fp, window = _slow_inputs()
    q_starts = list(range(0, 1 << spec.k, 16))
    pool = ProcessPhasePool(g, 2)
    try:
        wired = pool.wire_spec(spec)
        cancelled = pool.round(wired, fp, 16, q_starts)
        # every worker is past its first window, so each is inside a window
        # of the cancelled share when the cancel goes out
        reported, read = set(), 0
        while len(reported) < 2:
            _t, (_raw, (pid, *_), _m) = next(cancelled)
            reported.add(pid)
            read += 1
        cancelled.close()
        t_cancel = time.perf_counter()

        fp2 = spec.draw_fingerprint(g.n, RngStream(6))
        value, first_start = 0, {}
        for t, (raw, (pid, t0, _t1, *_), _m) in pool.round(wired, fp2, 16,
                                                           q_starts[:8]):
            value ^= spec.rank_value(raw)
            first_start[pid] = min(t0, first_start.get(pid, t0))
        expect = 0
        for q in q_starts[:8]:
            expect ^= spec.phase_value(g, fp2, q, 16)
        assert value == expect
        # each worker was inside a window when the cancel went out, and
        # reported it: stale by id
        assert 1 <= pool.records_discarded <= 32 - read
        # ... and then turned to the new request — not after the ~30
        # windows its cancelled share still held
        for pid, t0 in first_start.items():
            assert t0 - t_cancel < 3 * window + 0.25, (pid, t0 - t_cancel, window)
    finally:
        t0 = time.perf_counter()
        pool.close()
    assert time.perf_counter() - t0 < 3 * window + 0.5


def test_after_a_cancel_no_worker_stamps_more_than_one_further_window():
    """What ``phase_done`` relies on for "a trip surfaces between two
    windows": read what a cancelled round still sends, by hand."""
    g, spec, fp, window = _slow_inputs()
    pool = ProcessPhasePool(g, 2)
    try:
        running = pool.round(pool.wire_spec(spec), fp, 16,
                             list(range(0, 1 << spec.k, 16)))
        next(running)
        running.close()
        t_cancel = time.perf_counter()
        after = collections.Counter()
        with pytest.raises(TimeoutError):
            while True:
                for _rid, _t, _raw, (pid, _t0, t1, *_), _m in pool._receive(
                        timeout=5 * window + 0.5):
                    after[pid] += t1 > t_cancel
        assert all(n <= 1 for n in after.values()), after
    finally:
        pool.close()


def test_close_does_not_wait_for_a_share():
    g, spec, fp, window = _slow_inputs()
    pool = ProcessPhasePool(g, 2)
    running = pool.round(pool.wire_spec(spec), fp, 16,
                         list(range(0, 1 << spec.k, 16)))
    next(running)
    t0 = time.perf_counter()
    pool.close()  # without cancelling first: None on the channel is enough
    assert time.perf_counter() - t0 < 3 * window + 0.5
    assert not multiprocessing.active_children()
    assert not glob.glob("/dev/shm/psm_*")


# ------------------------------------------------------ a worker's exception
def test_an_exception_in_a_worker_is_raised_where_the_round_was_asked(monkeypatch):
    """Not a crash: no retry, the error keeps its type, the fleet lives."""
    def refuse(*_args, **_kwargs):
        raise ConfigurationError("not in this worker")

    # forked workers inherit the patched module
    monkeypatch.setattr("repro.core.process_backend.compile", refuse)
    before = _census()
    rt = MidasRuntime(mode="process", workers=2, n2=8, process_start="fork")
    with pytest.raises(ConfigurationError, match="not in this worker"):
        detect_path(G, 4, eps=0.3, rng=RngStream(72), runtime=rt)
    assert _census() == before


def test_a_forked_worker_never_waits_on_a_metrics_lock_held_at_the_fork():
    """Sibling query threads record into the default registry all the
    time; a lock one of them holds when another forks its fleet stays
    locked in the child.  The worker's first snapshot of the inherited
    registry used to hang there (seen as a rare deadlock of concurrent
    process-mode queries); it counts into a registry of its own."""
    spec = compile(MLDCircuit.k_path(5))
    fp = spec.draw_fingerprint(G.n, RngStream(88))
    with get_default_registry()._lock:
        pool = ProcessPhasePool(G, 1, start_method="fork")
    try:
        raw, _stamps, mdelta = pool.submit(pool.wire_spec(spec), fp, 0,
                                           32).result(timeout=30)
        assert spec.rank_value(raw) == _sequential_round(spec, fp, 32)
        # all of the worker's own registry comes back, nothing of the parent's
        assert "midas_worker_phases_total" in {m["name"] for m in mdelta}
    finally:
        for worker in pool._fleet:  # a hung one would hang close() too
            worker.process.kill()
        pool.close()


# ------------------------------------------------------------------ deadline
def test_after_a_deadline_trip_nothing_is_left_running():
    """``test_deadline_cancels_windows_that_have_not_started[process]``
    bounds the time; this is the census after the same trip."""
    g, _spec, _fp, window = _slow_inputs()
    before = _census()
    rt = MidasRuntime(mode="process", workers=2, n2=16,
                      deadline=max(0.05, 2 * window), metrics=MetricsRegistry())
    res = detect_path(g, 12, eps=0.2, rng=RngStream(2), runtime=rt,
                      early_exit=False)
    rt.close_live()
    assert res.details["degraded"]["reason"] == "deadline"
    assert _census() == before


# ------------------------------------------------------------------ affinity
def test_default_workers_are_the_cpus_this_process_may_use():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    assert (MidasRuntime(mode="process").get_workers()
            == len(os.sched_getaffinity(0)))
    script = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.core.midas import MidasRuntime\n"
        "print(MidasRuntime(mode='threaded').get_workers(),\n"
        "      MidasRuntime(mode='process').get_workers(),\n"
        "      MidasRuntime(mode='process', workers=3).get_workers())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                         capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1", "3"]


# ------------------------------------------------------------- killed parent
_VICTIM_SCRIPT = """
import multiprocessing, sys
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.obs.live import LiveRun
from repro.util.rng import RngStream

def main():
    g = erdos_renyi(1500, 9000, rng=RngStream(1, name="g"))
    live = LiveRun()
    said = []

    def announce(evt):  # mid-round: the first window of round 0 is in
        if evt["event"] == "phase" and not said:
            said.append(1)
            pids = [p.pid for p in multiprocessing.active_children()]
            print("workers", *pids, flush=True)

    live.subscribe(announce)
    rt = MidasRuntime(mode="process", workers=2, n2=16, live=live)
    detect_path(g, 12, eps=0.2, rng=RngStream(2), runtime=rt, early_exit=False)

if __name__ == "__main__":
    main()
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.slow
def test_a_sigkilled_parent_leaves_no_worker_and_no_segment(tmp_path):
    """Workers leave at EOF on their request channel — between two
    windows, not after their share — and once the last of them is gone
    the resource tracker unlinks what the parent could not."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    before = sorted(glob.glob("/dev/shm/psm_*"))
    script = tmp_path / "victim.py"
    script.write_text(_VICTIM_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        words = proc.stdout.readline().split()
        assert words[:1] == ["workers"] and len(words) == 3, proc.stderr.read()
        workers = [int(w) for w in words[1:]]
        assert all(_alive(pid) for pid in workers)
        assert sorted(glob.glob("/dev/shm/psm_*")) != before
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if (not any(_alive(pid) for pid in workers)
                    and sorted(glob.glob("/dev/shm/psm_*")) == before):
                break
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
        assert sorted(glob.glob("/dev/shm/psm_*")) == before
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()
        proc.stderr.close()


_IDLE_VICTIM_SCRIPT = """
import multiprocessing, time
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

def main():
    g = erdos_renyi(300, 1200, rng=RngStream(1, name="g"))
    detect_path(g, 8, eps=0.3, rng=RngStream(2), early_exit=False,
                runtime=MidasRuntime(mode="process", workers=2))
    # between calls: the warm fleet is idle, waiting for the next request
    pids = [p.pid for p in multiprocessing.active_children()]
    print("workers", *pids, flush=True)
    time.sleep(600)

if __name__ == "__main__":
    main()
"""


@pytest.mark.slow
def test_a_parent_sigkilled_between_calls_leaves_no_idle_worker_and_no_segment(
        tmp_path):
    """The warm fleet outlives a call.  Its workers, idle on their request
    channels, read EOF when the parent dies, and the resource tracker
    unlinks the fleet's fingerprint segment after them."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    before = sorted(glob.glob("/dev/shm/psm_*"))
    script = tmp_path / "idle_victim.py"
    script.write_text(_IDLE_VICTIM_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        words = proc.stdout.readline().split()
        assert words[:1] == ["workers"] and len(words) == 3, proc.stderr.read()
        workers = [int(w) for w in words[1:]]
        assert all(_alive(pid) for pid in workers)
        assert sorted(glob.glob("/dev/shm/psm_*")) != before
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if (not any(_alive(pid) for pid in workers)
                    and sorted(glob.glob("/dev/shm/psm_*")) == before):
                break
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
        assert sorted(glob.glob("/dev/shm/psm_*")) == before
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()
        proc.stderr.close()


_EXIT_SCRIPT = """
import multiprocessing
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

g = erdos_renyi(300, 1200, rng=RngStream(1, name="g"))
detect_path(g, 8, eps=0.3, rng=RngStream(2), early_exit=False,
            runtime=MidasRuntime(mode="process", workers=2))
print("workers", *[p.pid for p in multiprocessing.active_children()])
# no close_fleet(): the interpreter's exit closes the warm fleet
"""


def test_an_interpreter_leaving_with_a_warm_process_fleet_leaves_nothing(tmp_path):
    before = sorted(glob.glob("/dev/shm/psm_*"))
    script = tmp_path / "leave.py"
    script.write_text(_EXIT_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, str(script)], env=env, text=True,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    words = out.stdout.split()
    assert words[0] == "workers" and len(words) == 3
    # the resource tracker warns about any segment still registered at exit
    assert "leaked" not in out.stderr and "Traceback" not in out.stderr, out.stderr
    assert not [pid for pid in map(int, words[1:]) if _alive(pid)]
    assert sorted(glob.glob("/dev/shm/psm_*")) == before

