"""Degraded-run smoke: a watchdog trip exits 4 with a flushed partial result.

CI's ``chaos`` job runs ``pytest -m smoke
tests/smoke/test_degraded_smoke.py``.  A CLI detection whose deadline
trips at once must say ``DEGRADED (deadline)`` with its miss-probability
bound, leave a valid, resumable checkpoint, and end its progress stream
in the degraded terminal state.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.ff.gf2m import field_degree_for_k, round_success_bound
from repro.runtime.durable import read_envelope

pytestmark = pytest.mark.smoke


def test_watchdog_degraded_run_exits_4_with_a_flushed_partial_result(tmp_path):
    edges = tmp_path / "cliques.txt"
    edges.write_text("".join(f"{4 * c + i} {4 * c + j}\n" for c in range(200)
                             for i in range(4) for j in range(i + 1, 4)))
    ckpt, progress = tmp_path / "degraded-ckpt", tmp_path / "degraded-progress.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "detect-path", "--edge-list", str(edges),
         "-k", "6", "--eps", "0.2", "--seed", "7", "--checkpoint-dir", str(ckpt),
         "--progress-out", str(progress), "--deadline", "1e-9"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 4, (proc.returncode, proc.stderr)
    assert "DEGRADED (deadline)" in proc.stderr, proc.stderr
    assert "miss probability" in proc.stderr, proc.stderr
    # the trip still flushed a valid, resumable checkpoint...
    assert read_envelope(str(ckpt / "checkpoint.ckpt"))["engines"]
    # ...and the progress stream ends in the degraded terminal state
    final = [json.loads(line) for line in open(progress)][-1]
    assert final["event"] == "run_end", final
    assert final["status"]["state"] == "degraded", final["status"]
    # the 6-path stage's own miss bound after the rounds it completed
    p = round_success_bound(6, field_degree_for_k(6), 6)
    status = final["status"]
    assert status["p_failure_bound"] == float((1 - p) ** status["rounds_completed"])
