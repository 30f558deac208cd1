"""Process-backend smoke: what a dead worker costs.

CI's ``backend-smoke`` job selects this file together with the process
rows of ``test_backend_equivalence.py`` (``pytest -m smoke -k "threaded
or process"``).
One dead worker costs one re-run of the round on a rebuilt fleet — same
fingerprint, same bits; a second death in the same stage is the typed
error, not a hang and not a raw pipe error.  Either way nothing is left
behind.
"""

import glob
import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.midas import MidasRuntime, detect_path
from repro.core.process_backend import close_fleet
from repro.errors import WorkerCrashedError
from repro.graph.generators import erdos_renyi
from repro.obs.live import LiveRun
from repro.obs.metrics import MetricsRegistry
from repro.obs.qtrace import get_flight_recorder, reset_flight_recorder
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke


def _census():
    close_fleet()  # the warm fleet outlives a call; the census is without it
    return (sorted(glob.glob("/dev/shm/psm_*")), threading.active_count(),
            len(multiprocessing.active_children()))


def _crashes():
    return [e for e in get_flight_recorder().events()
            if e["kind"] == "worker_crash"]


def test_a_killed_worker_costs_one_retry_not_the_query():
    g = erdos_renyi(600, 3000, rng=RngStream(91, name="g"))
    ref = detect_path(g, 9, eps=0.4, rng=RngStream(92), early_exit=False,
                      runtime=MidasRuntime(n2=16))
    before = _census()
    reset_flight_recorder()
    live, killed = LiveRun(), []

    def strike(evt):  # mid-round: the first window of round 0 is in
        if evt["event"] == "phase" and not killed:
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)

    live.subscribe(strike)
    rt = MidasRuntime(mode="process", workers=2, n2=16, live=live,
                      digest_log=DigestLog(), metrics=MetricsRegistry())
    res = detect_path(g, 9, eps=0.4, rng=RngStream(92), runtime=rt,
                      early_exit=False)
    rt.close_live()
    assert len(killed) == 1
    assert [r.value for r in res.rounds] == [r.value for r in ref.rounds]
    assert [c["round"] for c in _crashes()] == [0]
    # the re-run round's windows are each in the digest log once
    assert len(rt.digest_log.phases) == res.rounds_run * 32
    assert _census() == before


def test_a_second_death_in_the_stage_is_the_typed_error(monkeypatch):
    """Every worker of the first fleet dies, and of the rebuilt one."""
    monkeypatch.setenv("REPRO_TEST_CRASH_WORKER", "1")
    g = erdos_renyi(100, 400, rng=RngStream(5, name="g"))
    before = _census()
    reset_flight_recorder()
    rt = MidasRuntime(mode="process", workers=2)
    with pytest.raises(WorkerCrashedError, match="worker process died") as info:
        detect_path(g, 4, eps=0.3, rng=RngStream(6), runtime=rt)
    assert "exit code 23" in str(info.value.__cause__)
    assert len(_crashes()) == 2
    assert _census() == before
