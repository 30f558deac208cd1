"""The MIDAS iteration schedule (paper Fig 1 and Table I).

The ``2^k`` independent iterations of the matrix representation are
organized as:

* **phase** — ``N_2`` consecutive iterations whose communication is batched
  into single messages (the message-coalescing idea of Section IV);
* **batch** — ``N / N_1`` phases executed simultaneously, each on its own
  group of ``N_1`` processors;
* **round** — all ``2^k`` iterations once; repeated until a witness is
  missed with probability at most ``eps``: the fewest ``r`` with
  ``(1 - p)^r <= eps`` for the kind's exact per-round success bound
  ``p`` (:func:`rounds_for_bound`), never more than the kind-free
  ``ceil(log(1/eps) / log(5/4))`` of a round that succeeds with 1/5
  (:func:`rounds_for_epsilon`).

The rounds are independent — each draws its own fingerprint — so when
one phase covers a whole round (``N2 = 2^k``) a window may carry the
iterations of ``R = rounds_per_window`` consecutive rounds side by side,
round-major: round ``r`` of the window owns lanes ``[r 2^k, (r+1) 2^k)``.

:class:`PhaseSchedule` validates a ``(k, N, N1, N2)`` combination eagerly
and exposes every derived quantity the driver, the performance model, and
the benchmarks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.util.validation import check_positive_int, check_probability


#: the largest ``k`` a schedule (and so any query) accepts: ``2^k`` iterations
MAX_K = 30


def pow2_floor(n: int) -> int:
    """The largest power of two ``<= n`` (``n >= 1``).

    Because the divisors of ``2^k`` are exactly the powers of two, this is
    also the largest divisor of any ``2^k >= n`` that is ``<= n`` — the
    O(1) replacement for the drivers' old decrement-until-divides search.
    """
    if n < 1:
        raise ConfigurationError(f"pow2_floor needs n >= 1, got {n}")
    return 1 << (int(n).bit_length() - 1)


def rounds_for_epsilon(eps: float) -> int:
    """The kind-free round count: ``ceil(log(1/eps) / log(5/4))``.

    Every kind's round succeeds with probability above 1/5 in its field
    (:func:`repro.ff.gf2m.field_degree_for_k`), so this bounds every
    kind's own count, :func:`rounds_for_bound`, from above.
    """
    eps = check_probability(eps, "eps")
    return max(1, math.ceil(math.log(1.0 / eps) / math.log(5.0 / 4.0)))


def rounds_for_bound(eps: float, p: Fraction) -> int:
    """The fewest amplification rounds ``r`` with ``(1 - p)^r <= eps``,
    for a round that succeeds with probability at least ``p``
    (:func:`repro.ff.gf2m.round_success_bound`).

    A float ``ceil(log)`` guesses ``r``; exact rationals settle it, so a
    run of ``r`` rounds misses with probability at most ``eps``.
    """
    eps = check_probability(eps, "eps")
    miss, target = 1 - Fraction(p), Fraction(eps)
    if not 0 <= miss < 1:
        raise ConfigurationError(f"a round's success bound must be in (0, 1], got {p}")
    if miss == 0:
        return 1
    r = max(1, math.ceil(math.log(eps) / math.log(miss)))
    while miss ** r > target:
        r += 1
    while r > 1 and miss ** (r - 1) <= target:
        r -= 1
    return r


@dataclass(frozen=True)
class PhaseSchedule:
    """A validated ``(k, N, N1, N2)`` decomposition of the iteration space.

    Parameters (paper Table I)
    --------------------------
    k:
        Subgraph size; the iteration space is ``2^k``.
    n_processors:
        ``N`` — total processors.
    n1:
        ``N_1`` — parts in the graph partition (processors per phase).
    n2:
        ``N_2`` — iterations per phase (communication batching factor).
    rounds_per_window:
        ``R`` — amplification rounds one window carries (default 1).
        ``R > 1`` needs ``N2 = 2^k``: a fused round is one phase.
    """

    k: int
    n_processors: int
    n1: int
    n2: int
    rounds_per_window: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.k, "k")
        check_positive_int(self.n_processors, "n_processors")
        check_positive_int(self.n1, "n1")
        check_positive_int(self.n2, "n2")
        if self.k > MAX_K:
            raise ConfigurationError(
                f"k={self.k} implies 2^{self.k} iterations; k <= {MAX_K} supported"
            )
        if self.n1 > self.n_processors:
            raise ConfigurationError(
                f"N1 (={self.n1}) cannot exceed N (={self.n_processors})"
            )
        if self.n_processors % self.n1:
            raise ConfigurationError(
                f"N1 (={self.n1}) must divide N (={self.n_processors}) so batches are integral"
            )
        if self.n2 > self.total_iterations:
            raise ConfigurationError(
                f"N2 (={self.n2}) cannot exceed the 2^k={self.total_iterations} iterations"
            )
        if self.total_iterations % self.n2:
            raise ConfigurationError(
                f"N2 (={self.n2}) must divide 2^k={self.total_iterations}"
            )
        check_positive_int(self.rounds_per_window, "rounds_per_window")
        if self.rounds_per_window > 1 and self.n2 != self.total_iterations:
            raise ConfigurationError(
                f"{self.rounds_per_window} rounds per window need N2 = "
                f"2^k={self.total_iterations}, got N2={self.n2}"
            )

    # ------------------------------------------------------------- derived
    @property
    def total_iterations(self) -> int:
        """``2^k`` — one per diagonal element of the matrix representation."""
        return 1 << self.k

    @property
    def n_phases(self) -> int:
        """``2^k / N2`` phases per round."""
        return self.total_iterations // self.n2

    @property
    def lanes(self) -> int:
        """Iterations one window evaluates: ``R * N2``."""
        return self.rounds_per_window * self.n2

    @property
    def concurrency(self) -> int:
        """``N / N1`` phases running simultaneously (the batch width)."""
        return self.n_processors // self.n1

    @property
    def n_batches(self) -> int:
        """Batches per round: ``ceil(n_phases / concurrency)``."""
        return -(-self.n_phases // self.concurrency)

    def phase_window(self, t: int) -> Tuple[int, int]:
        """Iteration window ``[q_start, q_end)`` of phase ``t``."""
        if not (0 <= t < self.n_phases):
            raise ConfigurationError(f"phase {t} out of range [0, {self.n_phases})")
        return t * self.n2, (t + 1) * self.n2

    def batches(self) -> Iterator[List[int]]:
        """Yield the phase ids of each batch, in execution order."""
        for b in range(self.n_batches):
            lo = b * self.concurrency
            hi = min((b + 1) * self.concurrency, self.n_phases)
            yield list(range(lo, hi))

    @staticmethod
    def bs_max(k: int, n_processors: int, n1: int) -> int:
        """The figures' "BSMax": ``N2 = 2^k N1 / N`` — one batch per round.

        This is the largest batching factor that still uses all processors;
        clamped to at least 1 and to divide 2^k.
        """
        total = 1 << k
        n2 = max(1, total * n1 // n_processors) if n_processors <= total * n1 else 1
        # round down to a power of two: exactly the divisors of 2^k
        return pow2_floor(min(n2, total))

    def describe(self) -> str:
        fused = (f", {self.rounds_per_window} rounds/window"
                 if self.rounds_per_window > 1 else "")
        return (
            f"PhaseSchedule(k={self.k}: 2^k={self.total_iterations} iterations; "
            f"N={self.n_processors}, N1={self.n1}, N2={self.n2} -> "
            f"{self.n_phases} phases, {self.concurrency} concurrent, "
            f"{self.n_batches} batches/round{fused})"
        )
