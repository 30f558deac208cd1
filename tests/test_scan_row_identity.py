"""Row ``j`` of the one scan-grid run is the dimension-``j`` run.

The scan grid is one run of ``MLDCircuit.scan_row(w, k, z_max)``; row
``j`` is its size-``j`` output over the first ``2^j`` iterations, which
read only the low ``j`` bits of each vertex vector.  So every row's round
value must be bit-identical to a dimension-``j`` ``scan_row`` run with the
same ``y``s, in row ``k``'s field, on the vectors ``v & (2^j - 1)``.
Checked for every row of a k = 5 grid with weights evaluated at points:

* sequentially with the default schedule (one 32-lane window, three
  rounds fused side by side: every lower row is narrower than it) and
  with 8-lane windows (rows 1 and 2 inside one window, rows 4 and 5
  across several);
* on two worker processes and on 4 simulated ranks in groups of 2, with
  8-lane windows.
"""

import numpy as np
import pytest

from repro.core.engine import DetectionEngine, MidasRuntime
from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.ff.fingerprint import Fingerprint
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import RngStream

G = erdos_renyi(40, m=70, rng=RngStream(71, name="g"))
W = RngStream(72, name="w").integers(0, 3, size=G.n).astype(np.int64)
K, Z_MAX, ROUNDS = 5, 7, 3
TOP = MLDCircuit.scan_row(W, K, Z_MAX)

MODES = {
    "sequential": {},
    "sequential-n2=8": {"n2": 8},
    "process": {"mode": "process", "workers": 2, "n2": 8},
    "simulated": {"mode": "simulated", "n_processors": 4, "n1": 2, "n2": 8},
}


def _own_runs(fp, field) -> np.ndarray:
    """``(k, z_max + 1)``: each row's round value from its own run."""
    rows = []
    for j in range(1, K + 1):
        spec = compile(MLDCircuit.scan_row(W, j, Z_MAX), field)
        cut = Fingerprint(k=j, field=field, v=fp.v & np.uint64((1 << j) - 1),
                          y=fp.y[:, :j + 1])
        rows.append(spec.phase_value(G, cut, 0, 1 << j).reshape(j, Z_MAX + 1)[-1])
    return np.stack(rows)


def test_the_cases_cover_what_they_claim():
    spec = compile(TOP)
    assert spec.points.count > 1 and spec.outputs == K
    fused = MidasRuntime().schedule_for(K, G.n, spec.field.m, spec.schedule_payload,
                                        rounds=ROUNDS, live_states=spec.live_states)
    assert (fused.n2, fused.rounds_per_window) == (1 << K, ROUNDS)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_row_is_its_own_dimension_run(mode):
    spec = compile(TOP)
    rt = MidasRuntime(metrics=MetricsRegistry(), **MODES[mode])
    with DetectionEngine(G, rt, spec.name) as engine:
        out = engine.run_stage(spec, ROUNDS, RngStream(73))
    rng = RngStream(73)
    fps = [spec.draw_fingerprint(G.n, rng.child(f"round{r}")) for r in range(ROUNDS)]
    assert len(out.values) == ROUNDS
    for fp, value in zip(fps, out.values):
        own = _own_runs(fp, spec.field)
        assert own[:, 1:].any(axis=1).all()  # every row holds something to compare
        assert np.array_equal(value.reshape(K, Z_MAX + 1), own), mode
