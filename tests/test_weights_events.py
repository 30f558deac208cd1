"""Tests for weight calibration and synthetic event generation."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scanstat.events import (
    inject_poisson_counts,
    null_poisson_counts,
    pvalues_from_counts,
)
from repro.scanstat.weights import (
    binary_weights_from_pvalues,
    normal_lower_pvalues,
    round_weights,
)
from repro.util.rng import RngStream


class TestNormalPvalues:
    def test_at_mean_is_half(self):
        p = normal_lower_pvalues(np.array([5.0]), np.array([5.0]), np.array([2.0]))
        assert p[0] == pytest.approx(0.5)

    def test_low_reading_small_pvalue(self):
        p = normal_lower_pvalues(np.array([0.0]), np.array([60.0]), np.array([5.0]))
        assert p[0] < 1e-10

    def test_sigma_positive_required(self):
        with pytest.raises(ConfigurationError):
            normal_lower_pvalues(np.ones(2), np.ones(2), np.array([1.0, 0.0]))


class TestBinaryWeights:
    def test_thresholding(self):
        p = np.array([0.001, 0.04, 0.05, 0.9])
        w = binary_weights_from_pvalues(p, alpha=0.05)
        assert w.tolist() == [1, 1, 0, 0]
        assert w.dtype == np.int64

    def test_invalid_pvalues(self):
        with pytest.raises(ConfigurationError):
            binary_weights_from_pvalues(np.array([-0.1]))
        with pytest.raises(ConfigurationError):
            binary_weights_from_pvalues(np.array([0.5]), alpha=1.0)


class TestRoundWeights:
    def test_levels_bound(self):
        w = np.array([0.0, 1.7, 3.3, 10.0])
        wi, scale = round_weights(w, levels=10)
        assert wi.max() == 10
        assert wi.min() == 0
        assert scale == pytest.approx(1.0)

    def test_error_bound(self):
        rng = RngStream(0)
        w = rng.random(200) * 37.0
        levels = 16
        wi, scale = round_weights(w, levels=levels)
        # per-node: real - int*scale in [0, scale)
        err = w - wi * scale
        assert np.all(err >= -1e-12)
        assert np.all(err < scale + 1e-12)

    def test_all_zero(self):
        wi, scale = round_weights(np.zeros(5))
        assert not wi.any() and scale == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            round_weights(np.array([-1.0]))
        with pytest.raises(ConfigurationError):
            round_weights(np.array([1.0]), levels=0)


class TestEventGeneration:
    def test_null_counts_match_rate(self):
        b = np.full(4000, 10.0)
        c = null_poisson_counts(b, rate=2.0, rng=RngStream(1))
        assert c.mean() == pytest.approx(20.0, rel=0.05)
        assert np.all(c >= 0)

    def test_injection_elevates_cluster_only(self):
        b = np.full(2000, 5.0)
        cluster = np.arange(100)
        c = inject_poisson_counts(b, cluster, elevation=4.0, rng=RngStream(2))
        assert c[cluster].mean() > 3.0 * c[200:].mean()

    def test_invalid_elevation(self):
        with pytest.raises(ConfigurationError):
            inject_poisson_counts(np.ones(4), np.array([0]), elevation=0.5)

    def test_negative_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            null_poisson_counts(np.array([-1.0]))

    def test_pvalues_from_counts_calibrated(self):
        """Under the null, Poisson upper-tail p-values are super-uniform:
        P[p <= alpha] <= ~alpha (discreteness makes them conservative)."""
        b = np.full(5000, 20.0)
        c = null_poisson_counts(b, rng=RngStream(3))
        p = pvalues_from_counts(c, b)
        assert (p < 0.05).mean() < 0.08
        # an outrageous count gets a tiny p-value
        assert pvalues_from_counts(np.array([60]), np.array([10.0]))[0] < 1e-10


class TestPvaluesFromScipySpecial:
    """The p-values come from ``scipy.special`` kernels; ``scipy.stats``
    gives the same floats but costs a second more to import."""

    def test_normal_matches_scipy_stats_at_extreme_z(self):
        from scipy.stats import norm

        z = np.concatenate([np.linspace(-40.0, 40.0, 20001),
                            [-1e300, -0.0, 0.0, 1e300]])
        p = normal_lower_pvalues(z, np.zeros_like(z), np.ones_like(z))
        assert np.array_equal(p, norm.cdf(z))

    def test_poisson_matches_scipy_stats_including_zero_counts(self):
        from scipy.stats import poisson

        lam = np.repeat([1e-12, 0.5, 3.0, 20.0, 400.0], 60)
        c = np.tile(np.arange(60) * 7, 5)  # c = 0 in every rate's block
        p = pvalues_from_counts(c, lam)
        assert np.array_equal(p, poisson.sf(c - 1, np.maximum(lam, 1e-12)))
        assert np.all(p[c == 0] == 1.0)

    def test_scoring_pvalues_imports_no_scipy_stats(self):
        probe = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.scanstat.events import pvalues_from_counts\n"
            "from repro.scanstat.weights import normal_lower_pvalues\n"
            "pvalues_from_counts(np.array([0, 3]), np.array([1.0, 2.0]))\n"
            "normal_lower_pvalues(np.zeros(2), np.ones(2), np.ones(2))\n"
            "print(json.dumps('scipy.stats' in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) is False
