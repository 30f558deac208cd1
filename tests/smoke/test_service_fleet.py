"""Service fleet smoke: a SIGKILLed service leaves nothing behind.

The detection service answers on ``workers`` long-lived worker processes
(``core.process_backend.QueryFleet``).  When the service process itself
is SIGKILLed mid-query, each worker reads EOF on its request pipe at its
next window and leaves, and once the last of them is gone the resource
tracker unlinks the ``psm_*`` segments the service could not (each
graph reaches the workers through them).  CI's
``service-smoke`` job runs this file (``pytest -m smoke``) under ``fork``
and ``forkserver``; the tier-1 suite runs the ``fork`` case only.
"""

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.smoke

_VICTIM_SCRIPT = """
import multiprocessing, sys, threading, time
from repro.graph.csr import CSRGraph
from repro.obs.metrics import MetricsRegistry
from repro.service import DetectionService, QuerySpec

def main(start):
    # disjoint 4-cliques: a 10-path query runs all of its 62 rounds
    g = CSRGraph.from_edges(4000, [(4 * c + i, 4 * c + j) for c in range(1000)
                                   for i in range(4) for j in range(i + 1, 4)])
    svc = DetectionService(workers=2, metrics=MetricsRegistry(),
                           runtime_config={"process_start": start})
    svc.register_graph(g, name="g")
    for seed in (1, 2):
        spec = QuerySpec(kind="detect-path", graph="g", k=10, eps=1e-6,
                         seed={"seed": seed})
        threading.Thread(target=svc.query, args=(spec,), daemon=True).start()
    while len(multiprocessing.active_children()) < 2:
        time.sleep(0.01)
    time.sleep(0.5)  # both workers inside their rounds
    print("workers", *[p.pid for p in multiprocessing.active_children()],
          flush=True)
    time.sleep(600)

if __name__ == "__main__":
    main(sys.argv[1])
"""


@pytest.fixture(params=["fork", "forkserver"])
def start_method(request):
    if (request.param != "fork"
            and "smoke" not in (request.config.getoption("markexpr") or "")):
        pytest.skip("tier-1 runs the fork case; `pytest -m smoke` runs both")
    return request.param


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_a_sigkilled_service_leaves_no_worker_and_no_segment(tmp_path,
                                                             start_method):
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    before = sorted(glob.glob("/dev/shm/psm_*"))
    script = tmp_path / "victim.py"
    script.write_text(_VICTIM_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, str(script), start_method],
                            env=env, text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
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
