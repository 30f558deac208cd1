"""Tests for posted exchanges (MPI's Irecv/Wait pattern as Exchange and
Collect) and the communication-overlap evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _leveldp_drivers import circuit_value, phase_value
from repro.core.evaluator_path import path_phase_value
from repro.core.halo import build_halo_views
from repro.core.leveldp import phase_program
from repro.core.mld import MLDCircuit
from repro.errors import DeadlockError
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import xor_segment_reduce
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.runtime.comm import Charge, Collect, Exchange
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream


class TestIrecvWait:
    """A posted :class:`Exchange` is an ``Irecv``; its :class:`Collect`
    the ``Wait``."""

    def test_basic_roundtrip(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: 42})
                return None
            posted = yield Exchange(recv_from=(0,))
            assert posted is None  # posting returns nothing; Collect does
            (val,) = yield Collect()
            return val

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == 42

    def test_compute_between_post_and_wait(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: "payload"})
                return None
            yield Exchange(recv_from=(0,))
            yield Charge(0.5)  # overlap window
            return (yield Collect())

        res = Simulator(2, measure_compute=False, trace=False).run(prog)
        assert res.results[1] == ["payload"]

    def test_overlap_hides_latency(self):
        """charge-then-collect must beat collect-then-charge for a slow
        message."""
        slow = np.zeros(1)  # one row charged 10^9 bytes

        def overlapped(ctx):
            if ctx.rank == 0:
                yield Exchange({1: slow}, row_bytes=10**9)
                return None
            yield Exchange(recv_from=(0,))
            yield Charge(0.05)
            yield Collect()
            return None

        def synchronous(ctx):
            if ctx.rank == 0:
                yield Exchange({1: slow}, row_bytes=10**9)
                return None
            yield Exchange(recv_from=(0,))
            yield Collect()
            yield Charge(0.05)
            return None

        t_over = Simulator(2, measure_compute=False, trace=False).run(overlapped).makespan
        t_sync = Simulator(2, measure_compute=False, trace=False).run(synchronous).makespan
        assert t_over < t_sync
        # the saving is (up to) the full overlap window
        assert t_sync - t_over == pytest.approx(0.05, rel=0.05)

    def test_superstep_saving_matches_closed_form(self):
        """Both ranks exchange at each of four levels over Juliet's link:
        a synchronous level costs flight + compute, an overlapped one
        max(send overhead + compute, flight)."""
        from repro.runtime.cluster import juliet

        nbytes, compute_s, levels = 50_000_000, 0.004, 4  # ~7 ms in flight
        row = np.zeros(1)

        def sync(ctx):
            for _ in range(levels):
                yield Exchange({1 - ctx.rank: row}, (1 - ctx.rank,), nbytes)
                yield Collect()
                yield Charge(compute_s)

        def overlapped(ctx):
            for _ in range(levels):
                yield Exchange({1 - ctx.rank: row}, (1 - ctx.rank,), nbytes)
                yield Charge(compute_s)  # the local half, while it flies
                yield Collect()

        cm = juliet().cost_model(2)
        t_sync, t_over = (
            Simulator(2, cost_model=cm, measure_compute=False,
                      trace=False).run(prog).makespan
            for prog in (sync, overlapped)
        )
        flight = cm.send_cost(0, 1, nbytes)[0]
        expected = levels * (flight + compute_s - max(
            cm.send_cost(0, 1, nbytes)[1] + compute_s, flight))
        assert t_over < t_sync
        assert t_sync - t_over == pytest.approx(expected, rel=0.05)

    def test_multiple_outstanding_requests(self):
        """Four exchanges posted before the first Collect complete in
        post order."""
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(4):
                    yield Exchange({1: i * 7})
                return None
            for _ in range(4):
                yield Exchange(recv_from=(0,))
            yield Charge(0.01)
            vals = []
            for _ in range(4):
                vals += yield Collect()
            return vals

        res = Simulator(2, measure_compute=False, trace=False).run(prog)
        assert res.results[1] == [0, 7, 14, 21]

    def test_irecv_then_plain_recv_same_tag_fifo(self):
        """A posted exchange and a blocking one from the same peer take
        its two messages in order — two messages, two consumers."""

        def prog(ctx):
            if ctx.rank == 0:
                yield Exchange({1: "first"})
                yield Exchange({1: "second"})
                return None
            yield Exchange(recv_from=(0,))
            yield Charge(0.01)
            (a,) = yield Collect()
            yield Exchange(recv_from=(0,))
            (b,) = yield Collect()
            return (a, b)

        res = Simulator(2, trace=False).run(prog)
        assert res.results[1] == ("first", "second")

    def test_unmatched_wait_deadlocks(self):
        def prog(ctx):
            yield Exchange(recv_from=((ctx.rank + 1) % ctx.nranks,))
            yield Collect()

        with pytest.raises(DeadlockError):
            Simulator(2, trace=False).run(prog)


class TestSplitAdjacency:
    @pytest.mark.parametrize("n_parts", [2, 4, 7])
    def test_halves_compose_to_full_reduce(self, n_parts):
        g = erdos_renyi(60, m=150, rng=RngStream(0))
        p = random_partition(g, n_parts, rng=RngStream(1))
        views = build_halo_views(g, p)
        state = np.arange(g.n, dtype=np.int64).astype(np.uint8)
        for v in views:
            iptr_own, idx_own, iptr_gh, idx_gh = v.split_adjacency()
            own_vals = state[v.own]
            ghost_vals = state[v.ghost] if v.n_ghost else np.zeros(0, np.uint8)
            own_vals2 = own_vals[:, None]
            acc = xor_segment_reduce(own_vals2[idx_own], iptr_own)
            if len(idx_gh):
                acc ^= xor_segment_reduce(ghost_vals[:, None][idx_gh], iptr_gh)
            combined = np.concatenate([own_vals, ghost_vals])
            full = xor_segment_reduce(combined[:, None][v.indices], v.indptr)
            assert np.array_equal(acc, full)

    def test_cached(self):
        g = erdos_renyi(20, m=40, rng=RngStream(2))
        p = random_partition(g, 3, rng=RngStream(3))
        v = build_halo_views(g, p)[0]
        assert v.split_adjacency() is v.split_adjacency()


class TestOverlappedEvaluator:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 4, 8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_to_sequential(self, seed, n_parts, n2):
        g = erdos_renyi(24, m=55, rng=RngStream(seed))
        k = 4
        fp = Fingerprint.draw(g.n, k, RngStream(seed + 1))
        p = random_partition(g, n_parts, rng=RngStream(seed + 2))
        got = phase_value(g, MLDCircuit.k_path(k).recurrence(), fp, 0, n2,
                          "spmd-overlapped", p)
        assert got == path_phase_value(g, fp, 0, n2)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_tree_overlapped_bit_identical(self, seed, n_parts):
        from repro.graph.templates import TreeTemplate

        g = erdos_renyi(20, m=45, rng=RngStream(seed))
        tmpl = TreeTemplate.binary(5)
        fp = Fingerprint.draw(g.n, 5, RngStream(seed + 1))
        p = random_partition(g, n_parts, rng=RngStream(seed + 2))
        circuit = MLDCircuit.k_tree(tmpl)
        got = phase_value(g, circuit.recurrence(), fp, 0, 8, "spmd-overlapped", p)
        assert got == circuit_value(g, circuit, fp, 0, 8)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_scanstat_overlapped_bit_identical(self, seed, n_parts):
        g = erdos_renyi(15, m=30, rng=RngStream(seed))
        w = RngStream(seed + 5).integers(0, 3, size=g.n)
        dim, z_max = 3, 6
        fp = Fingerprint.draw(g.n, dim, RngStream(seed + 1), levels=dim + 1)
        p = random_partition(g, n_parts, rng=RngStream(seed + 2))
        circuit = MLDCircuit.scan_row(w, dim, z_max)
        got = phase_value(g, circuit.recurrence(), fp, 0, 4, "spmd-overlapped", p,
                          circuit.points(fp.field))
        assert np.array_equal(got, circuit_value(g, circuit, fp, 0, 4))

    def test_scan_grid_overlap_flag(self):
        from repro.core.midas import MidasRuntime, scan_grid
        from repro.graph.generators import grid2d

        g = grid2d(3, 3)
        w = np.array([1, 0, 1, 0, 2, 0, 1, 0, 1], dtype=np.int64)
        a = scan_grid(g, w, k=3, eps=0.1, rng=RngStream(40))
        b = scan_grid(
            g, w, k=3, eps=0.1, rng=RngStream(40),
            runtime=MidasRuntime(n_processors=2, n1=2, n2=2, mode="simulated",
                                 overlap=True),
        )
        assert np.array_equal(a.detected, b.detected)

    def test_tree_runtime_overlap_flag(self):
        from repro.core.midas import MidasRuntime, detect_tree
        from repro.graph.templates import TreeTemplate

        g = erdos_renyi(25, m=55, rng=RngStream(30))
        tmpl = TreeTemplate.caterpillar(5)
        seq = detect_tree(g, tmpl, eps=0.3, rng=RngStream(31), early_exit=False)
        over = detect_tree(
            g, tmpl, eps=0.3, rng=RngStream(31), early_exit=False,
            runtime=MidasRuntime(n_processors=3, n1=3, n2=8, mode="simulated",
                                 overlap=True),
        )
        assert [r.value for r in seq.rounds] == [r.value for r in over.rounds]

    def test_runtime_overlap_flag(self):
        """MidasRuntime(overlap=True) must not change detection answers."""
        from repro.core.midas import MidasRuntime, detect_path

        g = erdos_renyi(30, m=70, rng=RngStream(20))
        seq = detect_path(g, 5, eps=0.3, rng=RngStream(21), early_exit=False)
        over = detect_path(
            g, 5, eps=0.3, rng=RngStream(21), early_exit=False,
            runtime=MidasRuntime(n_processors=4, n1=4, n2=8, mode="simulated",
                                 overlap=True),
        )
        assert [r.value for r in seq.rounds] == [r.value for r in over.rounds]

    def test_matches_synchronous_program(self):
        g = erdos_renyi(40, m=100, rng=RngStream(10))
        fp = Fingerprint.draw(g.n, 5, RngStream(11))
        p = random_partition(g, 4, rng=RngStream(12))
        views = build_halo_views(g, p)
        rec = MLDCircuit.k_path(5).recurrence()
        a = Simulator(4, trace=False).run(phase_program(views, rec, fp, 0, 8))
        b = Simulator(4, trace=False).run(
            phase_program(views, rec, fp, 0, 8, overlapped=True)
        )
        assert a.results == b.results
