"""Scan statistic functions ``F(W(S), B(S), theta)``.

The paper emphasizes that MIDAS handles "a broad class of scan statistics
functions (both parametric and non-parametric) with the same approach":
the combinatorial work (which (size, weight) cells are realizable by a
connected subgraph) is done once by the MIDAS grid; each statistic is then
just a function evaluated on cells.  This module provides the standard
members of both families:

Parametric (count/baseline models)
    :class:`Kulldorff` (the classic spatial-scan Poisson LLR),
    :class:`ExpectationBasedPoisson`, :class:`ElevatedMean`.

Non-parametric (p-value based, Chen–Neill style)
    :class:`BerkJones`, :class:`HigherCriticism` — these consume *binary*
    weights (1 iff a node's p-value is below the significance threshold
    ``alpha``), so a cell's weight ``z`` is ``N_alpha(S)`` and its size
    ``j`` is ``|S|``.

All statistics implement ``score(weight, size) -> float`` with the
convention "bigger is more anomalous"; cells indicating *less* signal than
expected score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _kl_bernoulli(a: float, b: float) -> float:
    """KL divergence KL(a || b) between Bernoulli rates, safe at {0, 1}."""
    if not (0.0 <= a <= 1.0) or not (0.0 < b < 1.0):
        raise ConfigurationError(f"KL arguments out of range: a={a}, b={b}")
    term1 = 0.0 if a == 0.0 else a * math.log(a / b)
    term2 = 0.0 if a == 1.0 else (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return term1 + term2


class ScanStatistic:
    """Base interface: ``score(weight, size)``, bigger = more anomalous."""

    name = "abstract"

    def score(self, weight: float, size: int) -> float:
        raise NotImplementedError

    def __call__(self, weight: float, size: int) -> float:
        return self.score(weight, size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass
class Kulldorff(ScanStatistic):
    """Kulldorff's Poisson likelihood-ratio scan statistic.

    ``F(S) = W log(W/B) + (Wt - W) log((Wt - W)/(Bt - B))`` when the inside
    rate exceeds the outside rate, else 0.  ``B(S)`` is taken proportional
    to the subgraph size: ``B = size * baseline_per_node`` (pass rounded
    baselines as the weight axis instead for heterogeneous baselines).
    """

    total_weight: float
    total_baseline: float
    baseline_per_node: float = 1.0
    name = "kulldorff"

    def score(self, weight: float, size: int) -> float:
        w = float(weight)
        b = size * self.baseline_per_node
        wt, bt = self.total_weight, self.total_baseline
        if w <= 0 or b <= 0 or w >= wt or b >= bt:
            return 0.0
        inside = w / b
        outside = (wt - w) / (bt - b)
        if inside <= outside:
            return 0.0
        return w * math.log(inside) + (wt - w) * math.log(outside) - wt * math.log(wt / bt)


@dataclass
class ExpectationBasedPoisson(ScanStatistic):
    """Expectation-based Poisson (EBP): ``W log(W/B) - (W - B)`` for W > B."""

    baseline_per_node: float = 1.0
    name = "ebp"

    def score(self, weight: float, size: int) -> float:
        w = float(weight)
        b = size * self.baseline_per_node
        if w <= b or b <= 0:
            return 0.0
        return w * math.log(w / b) - (w - b)


@dataclass
class ElevatedMean(ScanStatistic):
    """Elevated-mean scan: ``(W - B) / sqrt(B)`` for W > B (Gaussian-ish)."""

    baseline_per_node: float = 1.0
    name = "elevated-mean"

    def __post_init__(self) -> None:
        if not self.baseline_per_node > 0:
            raise ConfigurationError(
                f"baseline_per_node must be > 0, got {self.baseline_per_node}")

    def score(self, weight: float, size: int) -> float:
        w = float(weight)
        b = size * self.baseline_per_node
        if b <= 0 or w <= b:
            return 0.0
        return (w - b) / math.sqrt(b)


@dataclass
class BerkJones(ScanStatistic):
    """Non-parametric Berk–Jones statistic on binary p-value weights.

    With ``z`` = number of nodes whose p-value is below ``alpha`` and
    ``j`` = subgraph size: ``F = j * KL(z/j, alpha)`` when the observed
    fraction exceeds ``alpha``, else 0.
    """

    alpha: float = 0.05
    name = "berk-jones"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")

    def score(self, weight: float, size: int) -> float:
        if size <= 0:
            return 0.0
        frac = min(1.0, float(weight) / size)
        if frac <= self.alpha:
            return 0.0
        return size * _kl_bernoulli(frac, self.alpha)


@dataclass
class KulldorffTwoAxis:
    """Kulldorff's LLR over explicit (weight, baseline) totals.

    The statistic for the two-axis grid of
    :mod:`repro.scanstat.baseline_grid`, where each feasible cell carries
    its true baseline sum instead of a per-node constant:
    ``score(weight, baseline, size)``.
    """

    total_weight: float
    total_baseline: float
    name = "kulldorff-2axis"

    def score(self, weight: float, baseline: float, size: int) -> float:
        w, b = float(weight), float(baseline)
        wt, bt = self.total_weight, self.total_baseline
        if w <= 0 or b <= 0 or w >= wt or b >= bt:
            return 0.0
        inside = w / b
        outside = (wt - w) / (bt - b)
        if inside <= outside:
            return 0.0
        return w * math.log(inside) + (wt - w) * math.log(outside) - wt * math.log(wt / bt)

    def __call__(self, weight: float, baseline: float, size: int) -> float:
        return self.score(weight, baseline, size)


@dataclass
class HigherCriticism(ScanStatistic):
    """Higher-criticism statistic: ``(z - j a) / sqrt(j a (1 - a))``."""

    alpha: float = 0.05
    name = "higher-criticism"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")

    def score(self, weight: float, size: int) -> float:
        if size <= 0:
            return 0.0
        expected = size * self.alpha
        z = float(weight)
        if z <= expected:
            return 0.0
        return (z - expected) / math.sqrt(size * self.alpha * (1.0 - self.alpha))
