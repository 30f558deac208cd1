"""Tests for the rounds/batches/phases schedule (paper Fig 1, Table I)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from repro.core.schedule import (
    PhaseSchedule,
    pow2_floor,
    rounds_for_bound,
    rounds_for_epsilon,
)
from repro.errors import ConfigurationError
from repro.ff.gf2m import field_degree_for_k, round_success_bound


class TestRounds:
    def test_known_values(self):
        # (4/5)^L <= eps
        assert rounds_for_epsilon(0.2) == 8
        assert rounds_for_epsilon(0.5) == 4
        assert rounds_for_epsilon(0.01) == 21

    def test_amplification_inequality(self):
        for eps in (0.3, 0.1, 0.05, 0.001):
            L = rounds_for_epsilon(eps)
            assert (4 / 5) ** L <= eps
            assert (4 / 5) ** (L - 1) > eps or L == 1

    def test_invalid_eps(self):
        with pytest.raises(ConfigurationError):
            rounds_for_epsilon(0.0)
        with pytest.raises(ConfigurationError):
            rounds_for_epsilon(1.5)


class TestRoundsForBound:
    def test_the_fewest_rounds_that_meet_eps_exactly(self):
        """``r`` is the smallest count with ``(1 - p)^r <= eps``, checked in
        exact rationals, and never more than the kind-free 1/5 count."""
        for k in range(1, 31):
            for d in (k, 2 * k - 1):  # a k-path; a scan row's join coefficients
                p = round_success_bound(k, field_degree_for_k(d), d)
                for eps in (0.5, 0.2, 0.01, 1e-6):
                    r = rounds_for_bound(eps, p)
                    miss = 1 - p
                    assert miss ** r <= Fraction(eps) < miss ** (r - 1), (k, d, eps)
                    assert r <= rounds_for_epsilon(eps), (k, d, eps)

    def test_ledger_stages(self):
        """The counts of the benchmark's stages at eps = 0.2: a 10- and an
        11-path at l = 6, a 6-path, a 5-tree and an 8-path or -tree at
        l = 5, scan rows 1-5."""
        def rounds(k, d=None):
            d = k if d is None else d
            return rounds_for_bound(0.2, round_success_bound(k, field_degree_for_k(d), d))

        assert [rounds(10), rounds(11), rounds(6), rounds(5), rounds(8)] == [6, 6, 6, 6, 7]
        assert [rounds(j, max(3, 2 * j - 1)) for j in range(1, 6)] == [4, 5, 6, 6, 7]

    def test_edge_cases(self):
        assert rounds_for_bound(0.2, 1) == 1  # a round that cannot miss
        assert rounds_for_bound(0.5, Fraction(1, 2)) == 1  # (1/2)^1 <= 1/2 exactly
        assert rounds_for_bound(0.25, Fraction(1, 2)) == 2
        assert rounds_for_bound(0.2, Fraction(1, 5)) == 8 == rounds_for_epsilon(0.2)
        for p in (0, -1, Fraction(3, 2)):
            with pytest.raises(ConfigurationError):
                rounds_for_bound(0.2, p)
        with pytest.raises(ConfigurationError):
            rounds_for_bound(0.0, Fraction(1, 4))


class TestScheduleValidation:
    def test_paper_example(self):
        # Section VI-B worked example: k=6, N=128, N1=32, N2=8
        s = PhaseSchedule(6, 128, 32, 8)
        assert s.total_iterations == 64
        assert s.concurrency == 4  # 128/32 parallel phases
        assert s.n_phases == 8  # 64/8
        assert s.n_batches == 2  # "completed in just 16/8 = 2 batches"

    def test_n1_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(6, 10, 3, 4)

    def test_n2_must_divide_iterations(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(4, 4, 2, 3)

    def test_n1_le_n(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(4, 2, 4, 1)

    def test_n2_le_iterations(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(2, 1, 1, 8)

    def test_huge_k_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(40, 1, 1, 1)


class TestScheduleStructure:
    @given(
        st.integers(min_value=1, max_value=10),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60)
    def test_batches_cover_all_phases_once(self, k, n, n1, n2):
        if n1 > n or n % n1 or n2 > (1 << k) or (1 << k) % n2:
            return  # invalid combo, covered by validation tests
        s = PhaseSchedule(k, n, n1, n2)
        seen = [t for batch in s.batches() for t in batch]
        assert seen == list(range(s.n_phases))
        for batch in s.batches():
            assert len(batch) <= s.concurrency

    def test_phase_windows_tile_iteration_space(self):
        s = PhaseSchedule(5, 4, 2, 4)
        covered = []
        for t in range(s.n_phases):
            lo, hi = s.phase_window(t)
            covered.extend(range(lo, hi))
        assert covered == list(range(32))

    def test_phase_window_out_of_range(self):
        s = PhaseSchedule(3, 1, 1, 2)
        with pytest.raises(ConfigurationError):
            s.phase_window(99)

    def test_describe(self):
        assert "batches" in PhaseSchedule(4, 4, 2, 2).describe()


class TestBsMax:
    def test_paper_formula(self):
        # BSMax = 2^k N1 / N
        assert PhaseSchedule.bs_max(6, 128, 32) == 16
        assert PhaseSchedule.bs_max(6, 64, 64) == 64

    def test_single_batch_property(self):
        # with N2 = BSMax, a round is exactly one batch
        k, n, n1 = 8, 64, 16
        n2 = PhaseSchedule.bs_max(k, n, n1)
        s = PhaseSchedule(k, n, n1, n2)
        assert s.n_batches == 1

    def test_clamped_to_valid(self):
        n2 = PhaseSchedule.bs_max(3, 512, 1)
        assert n2 >= 1
        PhaseSchedule(3, 512, 1, n2)  # must validate


class TestPow2Floor:
    def test_exact_powers(self):
        for e in range(20):
            assert pow2_floor(1 << e) == 1 << e

    def test_rounds_down(self):
        assert pow2_floor(3) == 2
        assert pow2_floor(63) == 32
        assert pow2_floor(65) == 64
        assert pow2_floor((1 << 30) - 1) == 1 << 29

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            pow2_floor(0)
        with pytest.raises(ConfigurationError):
            pow2_floor(-4)

    @given(st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, n):
        # the old drivers decremented until the candidate divided 2^k;
        # for any 2^k >= n the result is the largest power of two <= n
        p = pow2_floor(n)
        assert p <= n < 2 * p
        assert (1 << 40) % p == 0


def _bs_max_reference(k: int, n_processors: int, n1: int) -> int:
    """The pre-refactor implementation: decrement until it divides 2^k."""
    total = 1 << k
    if n_processors <= total * n1:
        n2 = max(1, total * n1 // n_processors)
    else:
        n2 = 1
    n2 = min(n2, total)
    while total % n2:
        n2 -= 1
    return n2


class TestBsMaxGrid:
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 8, 10])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 48, 128, 1000])
    @pytest.mark.parametrize("n1", [1, 2, 4, 16])
    def test_matches_old_search_on_grid(self, k, n, n1):
        if n1 > n:
            pytest.skip("N1 <= N required")
        assert PhaseSchedule.bs_max(k, n, n1) == _bs_max_reference(k, n, n1)

    def test_large_k_fast(self):
        # the old linear decrement was O(2^k) when N didn't divide 2^k N1;
        # the closed form must be instant even at the k=30 ceiling
        assert PhaseSchedule.bs_max(30, 3, 1) == pow2_floor((1 << 30) // 3)


def whole_graph_n2_reference(k: int, workers: int = 1, n: int = 0) -> int:
    """The default-``N2`` rule of the whole-graph modes, restated: the
    widest power of two that is at most 1024 lanes (and ``2^k``), leaves
    every worker a window, and keeps an ``n``-vertex plane state under
    the engine's byte budget — but never narrower than one 64-lane word
    (or the whole round, when that is narrower still)."""
    from repro.core.engine import _STATE_BYTES
    from repro.ff.gf2m import field_degree_for_k

    total = 1 << k
    fits = [
        n2 for n2 in (1 << e for e in range(k + 1))
        if n2 <= 1024 and total // n2 >= workers
        and 8 * field_degree_for_k(k) * n * n2 // 64 <= _STATE_BYTES
    ]
    return max(fits + [min(total, 64)])


class TestRuntimeScheduleFor:
    def test_default_n2_clamped_to_pow2(self):
        from repro.core.midas import MidasRuntime

        # explicit non-power-of-two N2 is rounded down to a divisor of 2^k
        s = MidasRuntime(n2=48).schedule_for(8)
        assert s.n2 == 32
        # ... even at the largest supported k, instantly
        s = MidasRuntime(n2=(1 << 30) - 1).schedule_for(30)
        assert s.n2 == 1 << 29

    def test_grid_against_reference(self):
        from repro.core.midas import MidasRuntime

        for k in (3, 5, 8, 12):
            for n, n1 in ((1, 1), (4, 2), (16, 4), (64, 16)):
                for mode in ("sequential", "simulated"):
                    s = MidasRuntime(n_processors=n, n1=n1, mode=mode).schedule_for(k)
                    total = 1 << k
                    assert total % s.n2 == 0
                    if mode == "sequential":
                        assert s.n2 == whole_graph_n2_reference(k)
                    else:
                        assert s.n2 == _bs_max_reference(k, n, n1)

    @pytest.mark.parametrize("mode", ["threaded", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 16, 64])
    def test_every_worker_gets_a_window(self, mode, workers):
        from repro.core.midas import MidasRuntime

        rt = MidasRuntime(mode=mode, workers=workers)
        for k in range(1, 16):
            s = rt.schedule_for(k)
            assert s.n2 == whole_graph_n2_reference(k, workers)
            if (1 << k) >= 64 * workers:
                assert s.n_phases >= workers, (k, workers, s.describe())
        # the split is the mode's, not the field's: sequential ignores it
        assert MidasRuntime(workers=workers).schedule_for(12).n2 == 1024

    @pytest.mark.parametrize("n", [0, 400, 800, 1500, 5000, 40_000, 10**6])
    def test_state_budget_narrows_wide_windows_on_large_graphs(self, n):
        from repro.core.engine import _STATE_BYTES
        from repro.core.midas import MidasRuntime
        from repro.ff.gf2m import field_degree_for_k

        for k in (6, 10, 14):
            s = MidasRuntime().schedule_for(k, n)
            assert s.n2 == whole_graph_n2_reference(k, n=n)
            state = 8 * field_degree_for_k(k) * n * s.n2 // 64
            assert s.n2 == min(1 << k, 64) or state <= _STATE_BYTES
            # an explicit n2 is never second-guessed
            assert MidasRuntime(n2=1 << k).schedule_for(k, n).n2 == 1 << k

    def test_state_budget_counts_the_weight_axis_and_the_kinds_field(self):
        """A weighted state is ``payload`` plane states; the budget counts
        them, in the field the kind really uses."""
        from repro.core.midas import MidasRuntime
        from repro.ff.gf2m import field_degree_for_k

        rt = MidasRuntime()
        # max_weight_path k = 9, z_max = 27 on 400 vertices: 28 states of
        # 8 * 5 * 400 B per word; one word of them is already 438 KiB
        assert rt.schedule_for(9, 400).n2 == 512
        assert rt.schedule_for(9, 400, field_degree_for_k(9), payload=28).n2 == 64
        # the kind's own field degree: a wider field narrows the window
        assert rt.schedule_for(10, 1500).n2 == 1024 // 2
        assert rt.schedule_for(10, 1500, field_degree=14).n2 == 1024 // 4

    def test_fused_rounds_are_the_largest_count_that_fits(self):
        """``R`` is the largest count up to the cap (rounds left, ``1024 /
        2^k`` lanes) whose ``live_states`` states of ``words(R)`` lane
        words fit ``3 * _STATE_BYTES`` — not the cap halved until they do."""
        from repro.core.engine import _STATE_BYTES
        from repro.core.midas import MidasRuntime

        rt = MidasRuntime()
        # scan row 5 of the ledger's grid (n = 600, l = 5, Z+1 = 6, 9 live
        # states), 7 rounds left: 2 rounds fill one word and fit, 3 do not
        s = rt.schedule_for(5, 600, 5, payload=6, rounds=7, live_states=9)
        assert (s.n2, s.rounds_per_window) == (32, 2)
        for k in (2, 4, 5, 6):
            for n, ell, payload, live in ((100, 4, 1, 1), (600, 5, 6, 9),
                                          (600, 5, 7, 4), (1500, 6, 1, 5)):
                for rounds in range(1, 10):
                    s = rt.schedule_for(k, n, ell, payload, rounds=rounds,
                                        live_states=live)
                    if s.n2 < 1 << k:
                        assert s.rounds_per_window == 1
                        continue
                    word_bytes = 8 * ell * n * payload
                    fits = [r for r in range(1, min(rounds, 1024 >> k) + 1)
                            if live * word_bytes * -(-r * (1 << k) // 64)
                            <= 3 * _STATE_BYTES]
                    assert s.rounds_per_window == max(fits, default=1), (
                        k, n, ell, payload, live, rounds)

    def test_weighted_path_runs_in_the_narrow_window_with_equal_digests(self):
        from repro.core.midas import MidasRuntime, max_weight_path
        from repro.graph.generators import erdos_renyi, plant_path
        from repro.sanitize import DigestLog
        from repro.util.rng import RngStream

        g = erdos_renyi(400, 3200, rng=RngStream(1, name="g"))
        g, _ = plant_path(g, 9, rng=RngStream(2, name="p"))
        w = RngStream(3, name="w").integers(0, 4, size=g.n)

        def run(n2):
            log = DigestLog()
            best = max_weight_path(g, 9, w, eps=0.8, rng=RngStream(4), z_max=27,
                                   runtime=MidasRuntime(n2=n2, digest_log=log))
            return best, log

        best, log = run(None)
        assert len(log.phases) == 512 // 64  # one round of 64-lane windows
        best64, log64 = run(64)
        assert best == best64 and log.rounds == log64.rounds
        assert log.phases == log64.phases

    def test_ledger_sizes_schedule_alike_with_and_without_n(self):
        """benchmarks/ledger replays ``schedule_for(k)``; the engine asks
        ``schedule_for(k, graph.n)`` — on the ledger's inputs they agree."""
        from repro.core.midas import MidasRuntime

        for mode, workers, k, n in (("sequential", None, 10, 800),
                                    ("process", 2, 11, 400),
                                    ("process", 4, 11, 400),
                                    ("sequential", None, 8, 600),
                                    ("sequential", None, 6, 1500)):
            rt = MidasRuntime(mode=mode, workers=workers)
            assert rt.schedule_for(k, n) == rt.schedule_for(k)
