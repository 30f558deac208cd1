"""Fig 13's road-network pipeline at the paper's k = 12, live.

``examples/roadnet_congestion.py`` end to end — normal-model p-values,
binary weights, the scan grid at k = 12 and the cluster extraction —
sequentially, under a wall bound of 50 s.  Scan rows evaluate their
weight variable at points (docs/THEORY.md, "The weight axis as
evaluation points"); with the weight axis convolved instead the same
pipeline took 51.9 s on a 2-vCPU host and fails the bound, and it took
17.7-20.4 s with points on the same kind of host while each grid row
was its own stage.  With the grid one run (docs/THEORY.md §5) it takes
14.1-15.9 s there.  CI's ``perf-gate`` job runs this file
(``pytest -m smoke tests/smoke/test_scan_k12.py -s``).
"""

import time

import pytest

from repro import RngStream
from repro.apps.roadnet import CongestionStudy, build_highway_network

pytestmark = pytest.mark.smoke

BOUND_S = 50.0


def test_the_roadnet_pipeline_runs_at_k12_within_the_bound():
    import scipy.stats  # noqa: F401  (the p-values' import is not the pipeline)

    rng = RngStream(20140509, name="roadnet")
    net = build_highway_network(n_corridors=8, sensors_per_corridor=32,
                                rng=rng.child("map"))
    study = CongestionStudy(net, n_history=48, rush_hour_dip=14.0, incident_dip=24.0)
    current, mu, sigma, incident = study.synthesize(incident_len=8, rng=rng.child("data"))
    t0 = time.perf_counter()
    result = study.detect(current, mu, sigma, k=12, alpha=0.05, eps=0.2,
                          rng=rng.child("detect"), extract=True)
    wall = time.perf_counter() - t0
    print(f"roadnet k = 12, {net.graph.n} sensors: {wall:.1f} s; {result.summary()}")
    assert result.cluster is not None
    scores = CongestionStudy.score_recovery(result.cluster, incident)
    assert scores["precision"] == 1.0 and scores["recall"] == 1.0
    assert wall <= BOUND_S
