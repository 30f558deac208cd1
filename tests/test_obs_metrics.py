"""Tests for the metrics registry and the observability overhead budget."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    get_default_registry,
    log_buckets,
)
from repro.runtime.tracing import TraceRecorder


class TestLogBuckets:
    def test_strictly_increasing_and_covering(self):
        b = log_buckets(1e-9, 1e3, per_decade=3)
        assert all(b2 > b1 for b1, b2 in zip(b, b[1:]))
        assert b[0] == pytest.approx(1e-9)
        assert b[-1] == pytest.approx(1e3)
        assert DEFAULT_TIME_BUCKETS == b

    def test_per_decade_density(self):
        assert len(log_buckets(1.0, 100.0, per_decade=1)) == 3  # 1, 10, 100
        assert len(log_buckets(1.0, 10.0, per_decade=4)) == 5

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            log_buckets(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            log_buckets(1.0, 10.0, per_decade=0)


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_up_down(self):
        g = Gauge()
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == pytest.approx(13.0)

    def test_histogram_bucketing(self):
        h = Histogram(buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 100.0, 1000.0):
            h.observe(v)
        # <=1, <=10, <=100 (upper bound inclusive), above-last -> overflow
        assert h.bucket_counts == [2, 1, 1]
        assert h.overflow == 1
        assert h.count == 5
        assert h.mean == pytest.approx(h.sum / 5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=[1.0, 1.0, 2.0])
        with pytest.raises(ConfigurationError):
            Histogram(buckets=[])


class TestFamiliesAndRegistry:
    def test_family_doubles_as_unlabeled_child(self):
        reg = MetricsRegistry()
        reg.counter("midas_rounds_total").inc()
        reg.counter("midas_rounds_total").inc()
        assert reg.get("midas_rounds_total").value == 2.0

    def test_labels_get_or_create(self):
        reg = MetricsRegistry()
        fam = reg.counter("runs_total")
        a = fam.labels(problem="k-path", k=4)
        b = fam.labels(k=4, problem="k-path")  # order-insensitive
        assert a is b
        a.inc()
        assert fam.labels(problem="k-path", k="4").value == 1.0  # str-keyed
        assert len(list(fam.children())) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total")

    def test_invalid_name_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("9bad name")

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.histogram("h_seconds") is reg.histogram("h_seconds")

    def test_reset_keeps_families_and_labels(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total")
        fam.labels(x=1).inc(5)
        reg.reset()
        assert fam.labels(x=1).value == 0.0
        assert reg.snapshot().get("c_total", x=1) == 0.0

    def test_default_registry_is_a_singleton(self):
        assert get_default_registry() is get_default_registry()
        assert isinstance(get_default_registry(), MetricsRegistry)


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "runs").labels(problem="k-path").inc(3)
        reg.gauge("ghosts", "ghost nodes").labels(n1=4).set(17)
        h = reg.histogram("phase_seconds", "phase time", buckets=[1e-3, 1e-2])
        h.observe(5e-3)
        h.observe(2.0)
        return reg

    def test_get_semantics(self):
        snap = self._populated().snapshot()
        assert snap.get("runs_total", problem="k-path") == 3.0
        assert snap.get("ghosts", n1=4) == 17.0
        sample = snap.get("phase_seconds")
        assert sample["count"] == 2 and sample["overflow"] == 1
        assert sample["buckets"] == [[1e-3, 0], [1e-2, 1]]
        assert snap.get("runs_total", problem="nope") is None
        assert snap.get("absent") is None

    def test_snapshot_is_a_copy(self):
        reg = self._populated()
        snap = reg.snapshot()
        reg.counter("runs_total").labels(problem="k-path").inc(100)
        assert snap.get("runs_total", problem="k-path") == 3.0

    def test_names_sorted(self):
        snap = self._populated().snapshot()
        assert snap.names() == sorted(snap.names())

    def test_serialization_roundtrip(self, tmp_path):
        from repro.serialization import dump_result, load_result

        snap = self._populated().snapshot()
        p = tmp_path / "metrics.json"
        dump_result(snap, p)
        back = load_result(p)
        assert isinstance(back, MetricsSnapshot)
        assert back.metrics == snap.metrics

    def test_from_dict_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_dict({"type": "RunReport"})


class TestPrometheusExposition:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "runs").labels(problem="k-path").inc(3)
        reg.gauge("ghosts", "ghost nodes").labels(n1=4).set(17)
        h = reg.histogram("phase_seconds", "phase time", buckets=[1e-3, 1e-2])
        h.observe(5e-3)
        h.observe(2.0)
        return reg

    def test_counter_and_gauge_lines(self):
        text = self._populated().snapshot().to_prometheus()
        assert "# TYPE runs_total counter" in text
        assert '# HELP runs_total runs' in text
        assert 'runs_total{problem="k-path"} 3' in text
        assert "# TYPE ghosts gauge" in text
        assert 'ghosts{n1="4"} 17' in text
        assert text.endswith("\n")

    def test_histogram_is_cumulative_with_inf(self):
        text = self._populated().snapshot().to_prometheus()
        assert 'phase_seconds_bucket{le="0.001"} 0' in text
        assert 'phase_seconds_bucket{le="0.01"} 1' in text
        assert 'phase_seconds_bucket{le="+Inf"} 2' in text  # overflow included
        assert "phase_seconds_count 2" in text
        assert "phase_seconds_sum 2.005" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").labels(path='a"b\\c\nd').inc()
        text = reg.snapshot().to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert "\nd" not in text.split('c{')[1].split("}")[0]

    def test_empty_snapshot(self):
        assert MetricsSnapshot().to_prometheus() == ""

    def test_every_sample_line_parses(self):
        import re

        line_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$|^# .*$')
        for line in self._populated().snapshot().to_prometheus().splitlines():
            assert line_re.match(line), line


class TestDisabledOverhead:
    """The acceptance budget: observability off must cost < 5% of a phase."""

    def test_disabled_recorder_records_nothing(self):
        rec = TraceRecorder(enabled=False)
        rec.record(0, "compute", 0.0, 1.0)
        rec.extend([], t_shift=1.0)
        assert rec.events == [] and not rec.enabled

    @staticmethod
    def _disabled_touches(monkeypatch):
        """Count, from here on, calls into a disabled recorder and enacted
        simulated windows; returns ``run(**runtime)``, which makes a
        sim_scaling-shaped detection (k = 8, 64 ranks in groups of 16) and
        gives its ``(touches, windows)``."""
        from repro.core.engine import MidasRuntime
        from repro.core.midas import detect_path
        from repro.graph.generators import erdos_renyi
        from repro.runtime.scheduler import Simulator
        from repro.util.rng import RngStream

        seen = {"touches": 0, "windows": 0}
        for name in ("record", "record_edge", "extend", "set_rank_label"):
            def counted(self, *args, _real=getattr(TraceRecorder, name), **kw):
                seen["touches"] += not self.enabled
                return _real(self, *args, **kw)

            monkeypatch.setattr(TraceRecorder, name, counted)
        real_run = Simulator.run

        def counted_run(self, program):
            seen["windows"] += 1
            return real_run(self, program)

        monkeypatch.setattr(Simulator, "run", counted_run)
        g = erdos_renyi(800, 3200, rng=RngStream(2))

        def run(**runtime):
            seen.update(touches=0, windows=0)
            detect_path(g, 8, eps=0.5, rng=RngStream(3), early_exit=False,
                        runtime=MidasRuntime(mode="simulated", n_processors=64, n1=16,
                                             **runtime))
            return seen["touches"], seen["windows"]

        return run

    def test_disabled_instrumentation_under_five_percent(self, monkeypatch):
        """A disabled recorder costs nothing because nothing calls it.

        A default simulated run never calls it (the engine holds none, the
        scheduler guards its calls), and neither does one under measured
        compute: each rank's measured compute and each ``Charge`` moves the
        rank's clock and records only where the recorder is enabled.
        """
        run = self._disabled_touches(monkeypatch)  # counted from here on
        for runtime in ({}, {"measure_compute": True}):
            touches, windows = run(**runtime)
            assert windows > 0
            assert touches == 0, f"{touches} disabled-recorder calls under {runtime}"
