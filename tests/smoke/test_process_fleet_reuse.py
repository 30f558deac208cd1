"""The warm process fleet: one per interpreter, reused call after call.

``mode="process"`` borrows the interpreter's fleet
(``repro.core.process_backend.fleet``) instead of forking one per call.
Pinned here: a second call — another graph, another problem kind — is
served by the same worker pids, bit-identical to sequential; a new worker
count or start method rebuilds the fleet; a forked child starts a fleet
of its own; a warm worker's shared-memory mappings stay bounded however
many calls it serves; and a default-schedule stage of several windows a
round is one request per worker, not one per worker per round.  CI's
``process-smoke`` job selects this file with ``-k process``.
"""

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.midas import MidasRuntime, detect_path, max_weight_path
from repro.core.process_backend import ProcessPhasePool, close_fleet
from repro.graph.generators import erdos_renyi
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke

G1 = erdos_renyi(120, 360, rng=RngStream(1, name="g1"))
G2 = erdos_renyi(90, 300, rng=RngStream(2, name="g2"))
W2 = RngStream(3, name="w").integers(0, 4, size=G2.n)


def _kpath(rt):
    res = detect_path(G1, 7, eps=0.3, rng=RngStream(4), runtime=rt,
                      early_exit=False)
    return [r.value for r in res.rounds], rt.digest_log.rounds


def _wpath(rt, seed=5):
    best = max_weight_path(G2, 4, W2, eps=0.3, rng=RngStream(seed), runtime=rt)
    return best, rt.digest_log.rounds


def _worker_pids(rt) -> set:
    return {s.pid for s in rt.profiler.spans if s.name == "worker.kernel"}


def _children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def _psm_mappings(pid: int) -> int:
    with open(f"/proc/{pid}/maps") as fh:
        return sum("/psm_" in line for line in fh)


def test_a_second_call_on_another_graph_and_kind_reuses_the_process_fleet():
    a = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    b = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    assert _kpath(a) == _kpath(MidasRuntime(digest_log=DigestLog()))
    warm = _children()
    assert _wpath(b) == _wpath(MidasRuntime(digest_log=DigestLog()))
    assert _worker_pids(a) == _worker_pids(b) == warm
    assert len(warm) == 2 and _children() == warm  # nothing forked for b
    # between calls the fleet keeps its fingerprint segment, nothing else
    assert len(glob.glob("/dev/shm/psm_*")) == 1
    close_fleet()
    assert not _children() and not glob.glob("/dev/shm/psm_*")


@pytest.mark.parametrize("change", [dict(workers=1),
                                    dict(workers=2, process_start="spawn")])
def test_another_process_worker_count_or_start_method_rebuilds_the_fleet(change):
    first = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    _kpath(first)
    old = _worker_pids(first)
    rt = MidasRuntime(mode="process", digest_log=DigestLog(), **change)
    assert _kpath(rt) == _kpath(MidasRuntime(digest_log=DigestLog()))
    assert len(_worker_pids(rt)) == change["workers"]
    assert not _worker_pids(rt) & old
    assert _children() == _worker_pids(rt)  # the old fleet is gone


def _child_runs_process_mode(conn) -> None:
    rt = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    values = _kpath(rt)
    conn.send((values, sorted(_worker_pids(rt)), os.getpid(),
               {p.pid for p in multiprocessing.active_children()}))
    conn.close()


def test_a_forked_child_in_process_mode_starts_its_own_fleet():
    _kpath(MidasRuntime(mode="process", workers=2, digest_log=DigestLog()))
    parents = _children()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_runs_process_mode, args=(send,))
    child.start()
    send.close()
    values, pids, child_pid, its_children = recv.recv()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert values == _kpath(MidasRuntime(digest_log=DigestLog()))
    assert len(pids) == 2 and not set(pids) & parents
    assert set(pids) == its_children and child_pid not in pids
    assert _children() == parents  # the parent's fleet is untouched
    # the child closed its fleet on the way out
    close_fleet()
    assert not glob.glob("/dev/shm/psm_*")


def test_warm_process_workers_keep_their_mappings_bounded():
    """A weighted kind publishes its weights on every call: without the
    worker closing what the current request does not name, each of them
    would stay mapped."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    reference = _wpath(MidasRuntime(digest_log=DigestLog()))
    for _ in range(50):
        rt = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
        assert _wpath(rt) == reference
    workers = _children()
    assert len(workers) == 2
    # the graph's two arrays, the weights, the fingerprints
    assert all(_psm_mappings(pid) <= 4 for pid in workers), \
        {pid: _psm_mappings(pid) for pid in workers}
    assert len(glob.glob("/dev/shm/psm_*")) == 1


def test_a_process_stage_of_several_windows_a_round_is_one_request_per_worker(
        monkeypatch):
    """k = 11 on the default schedule is two windows a round (two workers):
    every round of the stage goes out in one batch, one request each."""
    g = erdos_renyi(400, 1600, rng=RngStream(6, name="g"))
    sent = []
    real = ProcessPhasePool._send

    def counting(self, worker, *body):
        sent.append(worker.process.pid)
        return real(self, worker, *body)

    monkeypatch.setattr(ProcessPhasePool, "_send", counting)
    rt = MidasRuntime(mode="process", workers=2, digest_log=DigestLog())
    res = detect_path(g, 11, eps=0.2, rng=RngStream(7), runtime=rt,
                      early_exit=False)
    seq = MidasRuntime(digest_log=DigestLog())
    ref = detect_path(g, 11, eps=0.2, rng=RngStream(7), runtime=seq,
                      early_exit=False)
    assert [r.value for r in res.rounds] == [r.value for r in ref.rounds]
    assert rt.digest_log.phases == seq.digest_log.phases
    assert rt.digest_log.rounds == seq.digest_log.rounds
    assert rt.schedule_for(11, g.n).n_phases == 2 and res.rounds_run > 1
    assert len(sent) == 2 and len(set(sent)) == 2
    assert [s.tags["rounds"] for s in rt.profiler.spans
            if s.name == "engine.round"] == [res.rounds_run]
    kernels = [s for s in rt.profiler.spans if s.name == "worker.kernel"]
    assert len(kernels) == 2 * res.rounds_run
    assert np.all([s.tags["rounds"] == 1 for s in kernels])
