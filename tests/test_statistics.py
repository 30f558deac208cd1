"""Tests for the scan statistic functions (parametric + non-parametric)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scanstat.statistics import (
    BerkJones,
    ElevatedMean,
    ExpectationBasedPoisson,
    HigherCriticism,
    Kulldorff,
    _kl_bernoulli,
)


class TestKLBernoulli:
    def test_zero_at_equality(self):
        assert _kl_bernoulli(0.3, 0.3) == pytest.approx(0.0)

    def test_positive_elsewhere(self):
        assert _kl_bernoulli(0.5, 0.1) > 0
        assert _kl_bernoulli(0.0, 0.5) > 0

    def test_boundary_values_safe(self):
        assert math.isfinite(_kl_bernoulli(0.0, 0.2))
        assert math.isfinite(_kl_bernoulli(1.0, 0.2))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            _kl_bernoulli(1.5, 0.2)
        with pytest.raises(ConfigurationError):
            _kl_bernoulli(0.5, 0.0)


class TestBerkJones:
    def test_zero_below_alpha_fraction(self):
        bj = BerkJones(alpha=0.1)
        assert bj.score(0, 20) == 0.0
        assert bj.score(2, 20) == 0.0  # exactly alpha

    def test_monotone_in_weight(self):
        bj = BerkJones(alpha=0.05)
        scores = [bj.score(z, 20) for z in range(1, 21)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_all_significant_scales_with_size(self):
        bj = BerkJones(alpha=0.05)
        assert bj.score(10, 10) == pytest.approx(10 * _kl_bernoulli(1.0, 0.05))

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            BerkJones(alpha=0.0)

    def test_zero_size(self):
        assert BerkJones().score(0, 0) == 0.0

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=25)
    def test_weight_capped_at_size(self, j):
        bj = BerkJones(alpha=0.05)
        assert math.isfinite(bj.score(j + 100, j))


class TestHigherCriticism:
    def test_zero_at_expectation(self):
        hc = HigherCriticism(alpha=0.1)
        assert hc.score(1, 10) == 0.0

    def test_standardized_form(self):
        hc = HigherCriticism(alpha=0.04)
        j, z = 25, 9
        expected = (9 - 1.0) / math.sqrt(25 * 0.04 * 0.96)
        assert hc.score(z, j) == pytest.approx(expected)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            HigherCriticism(alpha=1.0)


class TestKulldorff:
    def test_zero_when_inside_rate_not_elevated(self):
        ku = Kulldorff(total_weight=100, total_baseline=100, baseline_per_node=1.0)
        assert ku.score(5, 5) == 0.0  # rate 1 inside == rate outside
        assert ku.score(3, 5) == 0.0  # deficit

    def test_positive_for_hotspot(self):
        ku = Kulldorff(total_weight=100, total_baseline=100, baseline_per_node=1.0)
        assert ku.score(20, 5) > 0

    def test_llr_increases_with_concentration(self):
        ku = Kulldorff(total_weight=100, total_baseline=100)
        assert ku.score(30, 5) > ku.score(20, 5)

    def test_boundary_cells_zero(self):
        ku = Kulldorff(total_weight=10, total_baseline=10)
        assert ku.score(0, 2) == 0.0
        assert ku.score(10, 2) == 0.0  # W == Wt edge


class TestKulldorffTwoAxis:
    def _stat(self):
        from repro.scanstat.statistics import KulldorffTwoAxis

        return KulldorffTwoAxis(total_weight=100.0, total_baseline=100.0)

    def test_reduces_to_one_axis_kulldorff(self):
        """With baseline == size, the two-axis form equals the classic one."""
        ku1 = Kulldorff(total_weight=100, total_baseline=100, baseline_per_node=1.0)
        ku2 = self._stat()
        for w, j in [(20, 5), (30, 5), (50, 10)]:
            assert ku2.score(w, j, j) == pytest.approx(ku1.score(w, j))

    def test_low_baseline_scores_higher(self):
        ku2 = self._stat()
        assert ku2.score(10, 2, 2) > ku2.score(10, 8, 2)

    def test_zero_on_deficit_and_boundaries(self):
        ku2 = self._stat()
        assert ku2.score(5, 10, 10) == 0.0  # rate below outside
        assert ku2.score(0, 5, 5) == 0.0
        assert ku2.score(100, 5, 5) == 0.0  # W == Wt edge


class TestEBPAndElevatedMean:
    def test_ebp_zero_at_or_below_baseline(self):
        ebp = ExpectationBasedPoisson(baseline_per_node=2.0)
        assert ebp.score(4, 2) == 0.0
        assert ebp.score(3, 2) == 0.0

    def test_ebp_positive_and_monotone(self):
        ebp = ExpectationBasedPoisson(baseline_per_node=1.0)
        s = [ebp.score(z, 5) for z in (6, 8, 12, 20)]
        assert s[0] > 0
        assert all(b > a for a, b in zip(s, s[1:]))

    def test_elevated_mean_form(self):
        em = ElevatedMean(baseline_per_node=1.0)
        assert em.score(9, 4) == pytest.approx((9 - 4) / 2.0)
        assert em.score(3, 4) == 0.0

    @pytest.mark.parametrize("baseline", [0.0, -1.0, float("nan")])
    def test_elevated_mean_refuses_a_baseline_it_would_score_zero(self, baseline):
        with pytest.raises(ConfigurationError, match="baseline_per_node"):
            ElevatedMean(baseline_per_node=baseline)

    def test_names(self):
        assert BerkJones().name == "berk-jones"
        assert ElevatedMean().name == "elevated-mean"
        assert callable(BerkJones())
