"""EngineSession: reusable prepared state shared across engines.

The session is the service's unit of reuse — partition, halo views, and
field tables built once per (graph, decomposition) and shared by any
number of concurrent engines.  These tests pin the two contracts the
service depends on:

* **determinism** — a run with a session is bit-identical to a run
  without one, for every backend;
* **isolation** — concurrent engines sharing one session must not share
  any mutable stage state (the race-regression scenario: two threaded
  runs over the same graph, interleaved, each bit-identical to its solo
  execution).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import DetectionEngine, EngineSession, MidasRuntime
from repro.core.midas import detect_path, detect_tree, scan_grid
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi, plant_path
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import RngStream

import numpy as np


def _graph(n=150, m=450, k=5, seed=1):
    g, _ = plant_path(erdos_renyi(n, m, rng=RngStream(seed)), k,
                      rng=RngStream(seed + 100))
    return g


def _values(res):
    return [r.value for r in res.rounds]


class TestSessionDeterminism:
    @pytest.mark.parametrize("mode,kwargs", [
        ("sequential", {}),
        ("threaded", {"workers": 2}),
        ("simulated", {"n_processors": 4, "n1": 2}),
    ])
    def test_session_runs_bit_identical_to_sessionless(self, mode, kwargs):
        g = _graph()
        sess = EngineSession(g, n1=kwargs.get("n1", 1))
        for seed in (3, 11, 29):
            plain = detect_path(
                g, 5, eps=0.1, rng=seed, early_exit=False,
                runtime=MidasRuntime(mode=mode, metrics=MetricsRegistry(),
                                     **kwargs))
            with_sess = detect_path(
                g, 5, eps=0.1, rng=seed, early_exit=False,
                runtime=MidasRuntime(mode=mode, session=sess,
                                     metrics=MetricsRegistry(), **kwargs))
            assert _values(with_sess) == _values(plain)
            assert with_sess.found == plain.found

    def test_session_reuse_across_problems_and_k(self):
        """One session serves k-path, k-tree, and the scan grid — the
        field cache is shared wherever the degree coincides."""
        g = _graph()
        sess = EngineSession(g)

        def rt():
            return MidasRuntime(session=sess, metrics=MetricsRegistry())

        p = detect_path(g, 5, eps=0.2, rng=7, runtime=rt())
        t = detect_tree(g, TreeTemplate.star(4), eps=0.2, rng=7, runtime=rt())
        grid = scan_grid(g, np.ones(g.n, dtype=np.int64), 4, eps=0.2, rng=7,
                         runtime=rt())
        assert p.found  # the planted 5-path is a certificate
        assert t.found  # a star-4 embeds wherever some degree >= 3
        assert grid.detected[4].any()
        ref = detect_path(g, 5, eps=0.2, rng=7,
                          runtime=MidasRuntime(metrics=MetricsRegistry()))
        assert _values(p) == _values(ref)
        assert sess.uses >= 3
        assert sess.describe()["fields_cached"]  # tables were reused

    def test_mismatched_decomposition_rejected(self):
        g = _graph()
        sess = EngineSession(g, n1=2)
        rt = MidasRuntime(n1=4, session=sess, metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError, match="session"):
            DetectionEngine(g, rt, "k-path")

    def test_wrong_graph_rejected(self):
        sess = EngineSession(_graph(seed=1))
        other = _graph(seed=2)
        rt = MidasRuntime(session=sess, metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError, match="different graph"):
            DetectionEngine(other, rt, "k-path")


class TestSessionKernelCompat:
    """GF2m equality includes the kernel strategy, so a session caches one
    field per (degree, strategy) — handing a bitsliced-plane evaluator a
    table field (or vice versa) would silently change which code path
    produced results."""

    def test_field_identity_includes_kernel_strategy(self):
        from repro.ff.gf2m import GF2m

        table = GF2m(7, kernel_strategy="table")
        bits = GF2m(7, kernel_strategy="bitsliced")
        same = GF2m(7, kernel_strategy="table")
        assert table == same and hash(table) == hash(same)
        assert table != bits
        assert hash(table) != hash(bits)

    def test_session_caches_fields_per_strategy(self):
        g = _graph()
        sess = EngineSession(g)
        f_auto = sess.field_for_k(5)
        f_table = sess.field_for_k(5, strategy="table")
        f_bits = sess.field_for_k(5, strategy="bitsliced")
        assert f_table is sess.field_for_k(5, strategy="table")
        assert f_bits is sess.field_for_k(5, strategy="bitsliced")
        assert f_bits != f_table
        assert f_bits.kernel_strategy == "bitsliced"
        # "auto" resolves to table here (m <= 8), so the auto and table
        # entries hold equal fields — but the cache keys by the strategy
        # *requested*, so all three keys appear
        assert f_auto == f_table
        cached = sess.describe()["fields_cached"]
        deg = f_auto.m
        assert {f"{deg}/auto", f"{deg}/table", f"{deg}/bitsliced"} <= set(cached)


class TestConcurrentSessionSharing:
    def test_concurrent_threaded_runs_share_session_without_races(self):
        """Race regression: N threaded detections over the same graph run
        concurrently through ONE session; every one must reproduce its
        solo execution bit-for-bit (shared mutable stage state would
        corrupt round values nondeterministically)."""
        g = _graph(n=200, m=600)
        seeds = [5, 6, 7, 8, 9, 10]
        solo = {
            s: _values(detect_path(
                g, 5, eps=0.05, rng=s, early_exit=False,
                runtime=MidasRuntime(mode="threaded", workers=2,
                                     metrics=MetricsRegistry())))
            for s in seeds
        }

        sess = EngineSession(g)
        results: dict = {}
        errors: list = []
        start = threading.Barrier(len(seeds))

        def run(seed):
            try:
                start.wait(timeout=10)
                rt = MidasRuntime(mode="threaded", workers=2, session=sess,
                                  metrics=MetricsRegistry())
                results[seed] = _values(detect_path(
                    g, 5, eps=0.05, rng=seed, early_exit=False, runtime=rt))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results == solo
        assert sess.uses == len(seeds)
        d = sess.describe()
        assert d["partition_built"] or d["fields_cached"]

    def test_concurrent_mixed_problems_one_session(self):
        """Path and tree queries interleave on one session; both match
        their solo runs."""
        g = _graph(n=150, m=500)
        tmpl = TreeTemplate.binary(4)
        ref_p = _values(detect_path(
            g, 5, eps=0.1, rng=21, early_exit=False,
            runtime=MidasRuntime(mode="threaded", workers=2,
                                 metrics=MetricsRegistry())))
        ref_t = _values(detect_tree(
            g, tmpl, eps=0.1, rng=22, early_exit=False,
            runtime=MidasRuntime(mode="threaded", workers=2,
                                 metrics=MetricsRegistry())))

        sess = EngineSession(g)
        out: dict = {}

        def run_path():
            out["p"] = _values(detect_path(
                g, 5, eps=0.1, rng=21, early_exit=False,
                runtime=MidasRuntime(mode="threaded", workers=2, session=sess,
                                     metrics=MetricsRegistry())))

        def run_tree():
            out["t"] = _values(detect_tree(
                g, tmpl, eps=0.1, rng=22, early_exit=False,
                runtime=MidasRuntime(mode="threaded", workers=2, session=sess,
                                     metrics=MetricsRegistry())))

        threads = [threading.Thread(target=run_path),
                   threading.Thread(target=run_tree)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert out["p"] == ref_p
        assert out["t"] == ref_t
