"""Live telemetry smoke: a threaded detection is scraped while it runs.

What a step of CI's ``telemetry`` job runs:
``PYTHONPATH=src python -m pytest -m smoke tests/smoke/test_live_smoke.py``.
The run binds ``--live-port 0``; the test reads the port from the
``live telemetry:`` line it prints, scrapes ``/metrics`` and ``/status``
as soon as the endpoint is up and again after at least one more round
has completed, and checks both scrapes.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.ff.gf2m import field_degree_for_k, round_success_bound
from serving import repro_process

pytestmark = pytest.mark.smoke

K = 10


def _cliques(path, count=1000):
    """Disjoint 4-cliques: the longest path has 4 vertices, so no 10-path
    exists, every planned amplification round runs (no early exit) and
    the scraper is guaranteed a long mid-run window."""
    with open(path, "w") as fh:
        for c in range(count):
            base = 4 * c
            for i in range(4):
                for j in range(i + 1, 4):
                    fh.write(f"{base + i} {base + j}\n")


@pytest.fixture(scope="module")
def scraped(tmp_path_factory):
    """Two mid-run scrapes of a threaded ``repro detect-path``:
    ``(status1, status2, metrics1, metrics2, exit code, log)``."""
    tmp = tmp_path_factory.mktemp("live")
    _cliques(tmp / "cliques.txt")
    argv = ["detect-path", "--edge-list", "cliques.txt", "-k", str(K),
            "--mode", "threaded", "--workers", "2", "--eps", "0.1",
            "--seed", "7", "--live-port", "0",
            "--progress-out", "progress.jsonl",
            "--profile-out", "profile.speedscope.json",
            "--report-out", "live-report.json"]
    with repro_process(argv, r"live telemetry: (http://\S+)", cwd=tmp) as (proc, url):
        log = []
        drain = threading.Thread(target=lambda: log.extend(proc.stdout), daemon=True)
        drain.start()

        def fetch(path, out):
            with urllib.request.urlopen(url + path, timeout=5) as resp:
                body = resp.read()
            (tmp / out).write_bytes(body)
            return body

        deadline = time.monotonic() + 60
        while True:
            try:
                fetch("/healthz", "health.txt")
                break
            except OSError:
                assert time.monotonic() < deadline, "endpoint never came up"
                time.sleep(0.2)
        metrics1 = fetch("/metrics", "metrics1.prom").decode()
        s1 = json.loads(fetch("/status", "status1.json"))
        deadline = time.monotonic() + 120
        while True:
            s2 = json.loads(fetch("/status", "status2.json"))
            if s2["rounds_completed"] > max(s1["rounds_completed"], 0):
                break
            assert s2["state"] in ("idle", "running"), \
                f"run ended before a mid-run scrape landed: {s2}"
            assert time.monotonic() < deadline, "no round progress in 120s"
            time.sleep(0.3)
        metrics2 = fetch("/metrics", "metrics2.prom").decode()
        rc = proc.wait(timeout=600)
        drain.join(timeout=10)
        yield s1, s2, metrics1, metrics2, rc, "".join(log)
