"""Tests for the road-network congestion case study (Fig 13)."""

import numpy as np
import pytest

from repro.apps.roadnet import CongestionStudy, HighwayNetwork, build_highway_network
from repro.errors import ConfigurationError
from repro.scanstat.statistics import HigherCriticism
from repro.util.rng import RngStream


@pytest.fixture(scope="module")
def network():
    return build_highway_network(6, 24, rng=RngStream(50))


class TestHighwayNetwork:
    def test_structure(self, network):
        g = network.graph
        assert g.n == 6 * 24
        assert network.corridor_of.shape == (g.n,)
        # one connected component (interchanges join corridors)
        assert len(set(g.connected_components().tolist())) == 1
        # corridor interiors are chains: degree mostly 2
        deg = g.degrees()
        assert (deg == 2).mean() > 0.5

    def test_baselines_plausible(self, network):
        assert np.all(network.base_speed > 50)
        assert np.all(network.base_sigma > 0)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            build_highway_network(1, 24)
        with pytest.raises(ConfigurationError):
            build_highway_network(4, 2)


class TestCongestionStudy:
    def test_synthesize_shapes(self, network):
        study = CongestionStudy(network, n_history=30)
        cur, mu, sig, incident = study.synthesize(incident_len=6, rng=RngStream(1))
        n = network.n_sensors
        assert cur.shape == mu.shape == sig.shape == (n,)
        assert len(incident) == 6
        assert np.all(sig > 0)
        # incident sensors read far below their fitted history
        z = (cur - mu) / sig
        assert z[incident].mean() < -3.0

    def test_incident_is_contiguous_on_one_corridor(self, network):
        study = CongestionStudy(network)
        _, _, _, incident = study.synthesize(incident_len=5, rng=RngStream(2))
        corridors = set(network.corridor_of[incident].tolist())
        assert len(corridors) == 1
        assert np.all(np.diff(np.sort(incident)) == 1)

    def test_detection_finds_incident_cell(self, network):
        study = CongestionStudy(network, n_history=40)
        cur, mu, sig, incident = study.synthesize(incident_len=6, rng=RngStream(3))
        res = study.detect(cur, mu, sig, k=6, eps=0.05, rng=RngStream(4),
                           extract=True)
        assert res.best_score > 0
        # at alpha=0.05 the 6 incident sensors are essentially all flagged;
        # the best cell should be a mostly-significant connected run
        assert res.best_size >= 4
        assert res.best_weight >= 4
        # ... and the extracted cluster is the injected incident (Fig 13)
        recovery = CongestionStudy.score_recovery(res.cluster, incident)
        assert recovery["precision"] >= 0.7
        assert recovery["true_positives"] >= 3

    def test_routine_rush_hour_not_flagged(self, network):
        """The paper's point: downtown congestion that matches history must
        not be anomalous.  With no incident, few sensors pass alpha and the
        best score stays near the noise floor."""
        study = CongestionStudy(network, n_history=40, incident_dip=0.0)
        cur, mu, sig, _ = study.synthesize(incident_len=4, rng=RngStream(5))
        res_null = study.detect(cur, mu, sig, k=6, eps=0.05, rng=RngStream(6))
        study2 = CongestionStudy(network, n_history=40, incident_dip=25.0)
        cur2, mu2, sig2, _ = study2.synthesize(incident_len=6, rng=RngStream(5))
        res_alt = study2.detect(cur2, mu2, sig2, k=6, eps=0.05, rng=RngStream(6))
        assert res_alt.best_score > 2.0 * max(res_null.best_score, 0.5)

    def test_custom_statistic(self, network):
        study = CongestionStudy(network, n_history=30)
        cur, mu, sig, _ = study.synthesize(incident_len=5, rng=RngStream(7))
        res = study.detect(
            cur, mu, sig, k=5, statistic=HigherCriticism(alpha=0.05), rng=RngStream(8)
        )
        assert res.details["statistic"] == "higher-criticism"

    def test_recovery_scoring(self):
        inc = np.array([1, 2, 3, 4])
        got = np.array([2, 3, 4, 9])
        scores = CongestionStudy.score_recovery(got, inc)
        assert scores["precision"] == pytest.approx(0.75)
        assert scores["recall"] == pytest.approx(0.75)
        assert scores["true_positives"] == 3

    def test_incident_longer_than_corridor_rejected(self, network):
        study = CongestionStudy(network)
        with pytest.raises(ConfigurationError):
            study.synthesize(incident_len=100, rng=RngStream(9))
