"""A non-integral weight is refused, never truncated.

``np.asarray(w, dtype=np.int64)`` turns 0.9 into 0, so a weighted query
over real weights would silently answer for all-zero ones (a max-weight
3-path of weight 0 where 1.0 weights give 3).  Every entry point — the
library drivers, the circuit builders, the anomaly detector and cluster
extraction, the service's admission through ``LocalClient`` and over
HTTP — raises a typed :class:`~repro.errors.ConfigurationError` naming
the rounding helper instead; integral floats and bools still pass.
"""

import numpy as np
import pytest

from repro.core.midas import detect_scan_cell, max_weight_path, scan_grid
from repro.core.mld import MLDCircuit
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.scanstat.detect import AnomalyDetector, extract_cluster
from repro.scanstat.statistics import BerkJones
from repro.service import DetectionService, HttpClient, LocalClient
from repro.util.rng import RngStream

G = erdos_renyi(40, rng=RngStream(1))
BAD = {"fractional": 0.9, "nan": float("nan"), "inf": float("inf"),
       "minus-inf": float("-inf")}


def _weights(value):
    w = np.ones(G.n)
    w[7] = value
    return w


@pytest.mark.parametrize("bad", sorted(BAD))
def test_the_library_refuses_a_non_integral_weight(bad):
    w = _weights(BAD[bad])
    calls = [lambda: max_weight_path(G, 3, w, rng=RngStream(2)),
             lambda: scan_grid(G, w, 3, rng=RngStream(3)),
             lambda: detect_scan_cell(G, w, 2, 2, rng=RngStream(4)),
             lambda: MLDCircuit.weighted_path(w, 3, 3),
             lambda: MLDCircuit.scan_row(w, 3, 3),
             lambda: AnomalyDetector(G, BerkJones(), 3).detect(w, rng=RngStream(6)),
             lambda: extract_cluster(G, w, 2, 2, rng=RngStream(7))]
    for call in calls:
        with pytest.raises(ConfigurationError, match="round_weights"):
            call()


def test_integral_floats_and_bools_are_the_integers():
    ints = np.ones(G.n, dtype=np.int64)
    want = max_weight_path(G, 3, ints, rng=RngStream(5))
    assert want == 3
    assert max_weight_path(G, 3, ints.astype(float), rng=RngStream(5)) == want
    assert max_weight_path(G, 3, ints.astype(bool), rng=RngStream(5)) == want
    # the reported case: 0.9 everywhere used to answer 0
    with pytest.raises(ConfigurationError):
        max_weight_path(G, 3, np.full(G.n, 0.9), rng=RngStream(5))


def _scan_query(weights):
    return {"kind": "scan", "graph": "er", "k": 3, "weights": weights, "seed": 1}


def test_local_client_refuses_at_admission():
    with DetectionService(metrics=MetricsRegistry()) as svc:
        client = LocalClient(svc)
        client.register_graph(G, name="er")
        for value in BAD.values():
            with pytest.raises(ConfigurationError, match="weights must be integers"):
                client.query(_scan_query(list(_weights(value))))
        ok = client.query(_scan_query([1.0] * (G.n - 1) + [True]))
        assert ok.payload["ok"]
        assert svc.broker.stats["errors"] == 0


def test_http_refuses_with_a_400():
    with DetectionService(metrics=MetricsRegistry()) as svc:
        http = HttpClient(f"http://127.0.0.1:{svc.serve(0)}")
        http.register_graph(G, name="er")
        with pytest.raises(ConfigurationError, match="weights must be integers"):
            http.query(_scan_query([0.9] * G.n))
        assert svc.broker.stats["errors"] == 0
        assert svc.broker._fleet.pids() == set()
