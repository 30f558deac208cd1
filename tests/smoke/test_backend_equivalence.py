"""Backend smoke: every whole-graph mode answers like sequential, on every
driver, and honours a deadline.

CI's ``backend-smoke`` job runs this file with ``-k "threaded or
process"``; locally
``PYTHONPATH=src python -m pytest -m smoke tests/smoke`` covers every
whole-graph mode × {default N2, 32}, and small-k drivers whose default
windows carry several rounds.  Larger inputs than the tier-1 equivalence
matrix (400 vertices, 4 workers), still seconds.
"""

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
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke

MODES = ("sequential", "threaded", "process")
# whole-graph windows are bit-planes at either width: 64 lanes or more at
# the default N2, one partial word at 32; process workers rebuild the
# field from the wired circuit's (m, modulus)
N2S = {"auto": None, "n2=32": 32}


def _inputs():
    g = erdos_renyi(400, 2400, rng=RngStream(7, name="g"))
    g, _ = plant_path(g, 6, rng=RngStream(8, name="p"))
    return g, RngStream(9, name="w").integers(0, 3, size=g.n)


def _answers(rt: MidasRuntime) -> dict:
    g, w = _inputs()
    path = detect_path(g, 6, eps=0.2, rng=RngStream(1), runtime=rt,
                       early_exit=False)
    return {
        "path_round_values": [r.value for r in path.rounds],
        "tree_found": detect_tree(g, TreeTemplate.binary(5), eps=0.3,
                                  rng=RngStream(2), runtime=rt).found,
        "max_weight": max_weight_path(g, 4, w, eps=0.3, rng=RngStream(3),
                                      runtime=rt),
        "grid": scan_grid(g, w, k=4, eps=0.3, rng=RngStream(4),
                          runtime=rt).detected.tolist(),
    }


@pytest.fixture(scope="module")
def sequential_answers():
    return _answers(MidasRuntime())


@pytest.mark.parametrize("n2", N2S)
@pytest.mark.parametrize("mode", MODES)
def test_bit_identical_to_sequential(mode, n2, sequential_answers):
    rt = MidasRuntime(mode=mode, workers=4, n2=N2S[n2])
    assert _answers(rt) == sequential_answers


def _small_k_answers(rt: MidasRuntime) -> dict:
    """k <= 5 drivers, early exit on and off: on the default schedule a
    window carries several rounds, and on a pool each worker gets a share
    of them — stacked fingerprints cross the process boundary."""
    g, w = _inputs()
    return {
        (k, early_exit): [r.value for r in detect_path(
            g, k, eps=0.2, rng=RngStream(10 + k), runtime=rt,
            early_exit=early_exit).rounds]
        for k in (4, 5) for early_exit in (True, False)
    } | {
        "tree": [r.value for r in detect_tree(
            g, TreeTemplate.binary(5), eps=0.2, rng=RngStream(2), runtime=rt,
            early_exit=False).rounds],
        "grid": scan_grid(g, w, k=3, eps=0.2, rng=RngStream(4),
                          runtime=rt).detected.tolist(),
    }


@pytest.mark.parametrize("mode", MODES)
def test_fused_small_k_rounds_bit_identical(mode):
    # two workers: the 6-7 rounds a stage runs fuse 3 to a window (on
    # four workers each would take a one-round window)
    rt = MidasRuntime(mode=mode, workers=2)
    fused = _small_k_answers(rt)
    # N2 = 8 < 2^k: one round a window, one round at a time
    assert fused == _small_k_answers(MidasRuntime(n2=8))
    assert any(s.tags.get("rounds", 1) > 1 for s in rt.profiler.spans
               if s.name.endswith(".kernel"))


@pytest.mark.parametrize("mode", MODES)
def test_deadline_is_not_overrun(mode):
    """256 windows per round and a deadline well inside the first round:
    the run degrades and returns promptly instead of draining the queue
    (which takes several seconds here)."""
    g = erdos_renyi(2000, 12000, rng=RngStream(5, name="g"))
    rt = MidasRuntime(mode=mode, workers=4, n2=16, deadline=0.2)
    t0 = time.perf_counter()
    res = detect_path(g, 12, eps=0.2, rng=RngStream(6), runtime=rt,
                      early_exit=False)
    elapsed = time.perf_counter() - t0
    rt.close_live()
    assert res.details["degraded"]["reason"] == "deadline"
    assert elapsed < 1.5, elapsed
