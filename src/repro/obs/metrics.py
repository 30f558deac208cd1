"""Process-wide metrics: counters, gauges, and log-bucket histograms.

The registry follows the Prometheus data model scaled down to what this
repository needs: a metric *family* has a name, a kind, and help text;
``family.labels(dataset="miami", k="10")`` returns (creating on first
use) the child carrying those label values.  The family itself doubles
as its own unlabeled child, so ``registry.counter("midas_rounds_total")
.inc()`` works without ceremony.

Snapshots are plain data (:class:`MetricsSnapshot`) serialized through
the same versioned JSON envelope as every other result type::

    from repro.serialization import dump_result, load_result
    dump_result(registry.snapshot(), "metrics.json")
    snap = load_result("metrics.json")
    snap.get("midas_rounds_total", problem="k-path")

Histograms use *fixed log-scale buckets* (:func:`log_buckets`): the
bucket bounds are decided at construction, never rebalanced, so
snapshots from different runs are directly comparable — the property a
perf trajectory needs.

A process-wide default registry (:func:`get_default_registry`) is where
the driver, the kernel calibration, and the GF field constructors record
by default, so simulated runs and measured-kernel runs land in one
place.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def log_buckets(lo: float = 1e-9, hi: float = 1e3, per_decade: int = 3) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per factor of 10, rounded to 3 significant
    digits so bounds are stable across platforms (e.g. 1e-9, 2.15e-9,
    4.64e-9, 1e-8, ...).
    """
    if not (0 < lo < hi):
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    n = int(round(per_decade * math.log10(hi / lo)))
    bounds = []
    for i in range(n + 1):
        b = lo * 10.0 ** (i / per_decade)
        bounds.append(float(f"{b:.3g}"))
    return tuple(dict.fromkeys(bounds))  # dedupe, order-preserving


DEFAULT_TIME_BUCKETS = log_buckets(1e-9, 1e3, per_decade=3)


class Counter:
    """Monotonically increasing value.

    Mutation is lock-protected: metric children are shared across the
    threaded backend's workers and the detection service's concurrent
    query executions, and ``+=`` on a float is a read-modify-write that
    can drop increments under the GIL.
    """

    kind = "counter"

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        return {"value": self._value}

    def _merge(self, sample: Mapping[str, Any]) -> None:
        self.inc(float(sample.get("value", 0.0)))

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """Value that can go up and down (mutation lock-protected, like
    :class:`Counter`)."""

    kind = "gauge"

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        return {"value": self._value}

    def _merge(self, sample: Mapping[str, Any]) -> None:
        # Gauges are point-in-time: a shipped delta carries the source's
        # latest reading, which simply wins.
        self.set(float(sample.get("value", 0.0)))

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Distribution over fixed log-scale buckets.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` (and above
    ``bounds[i-1]``); observations above the last bound land in
    ``overflow``.  Non-cumulative counts keep snapshots mergeable by
    simple addition.
    """

    kind = "histogram"

    __slots__ = ("bounds", "bucket_counts", "overflow", "count", "sum",
                 "_exemplars", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if len(bounds) < 1 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        # bucket index (len(bounds) = overflow) -> {"labels": {...}, "value": v}
        self._exemplars: Dict[int, dict] = {}
        self._lock = threading.Lock()

    def observe(self, value: float,
                exemplar: Optional[Mapping[str, Any]] = None) -> None:
        """Record ``value``; optionally attach an exemplar — a small label
        set (e.g. ``{"trace_id": ...}``) remembered per bucket, last
        observation wins — rendered OpenMetrics-style in exposition."""
        v = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= v
            mid = (lo + hi) // 2
            if self.bounds[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        with self._lock:
            self.count += 1
            self.sum += v
            if lo == len(self.bounds):
                self.overflow += 1
            else:
                self.bucket_counts[lo] += 1
            if exemplar:
                self._exemplars[lo] = {
                    "labels": {str(k): str(val) for k, val in exemplar.items()},
                    "value": v,
                }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _sample(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.sum,
            "buckets": [[b, c] for b, c in zip(self.bounds, self.bucket_counts)],
            "overflow": self.overflow,
        }
        with self._lock:
            if self._exemplars:
                out["exemplars"] = {
                    str(i): dict(e) for i, e in sorted(self._exemplars.items())
                }
        return out

    def _merge(self, sample: Mapping[str, Any]) -> None:
        """Fold a serialized sample (e.g. a worker-side delta) into this
        histogram.  Buckets merge positionally; mismatched bounds raise."""
        buckets = sample.get("buckets", [])
        bounds = tuple(float(b) for b, _c in buckets)
        if bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge histogram samples with different bucket bounds"
            )
        with self._lock:
            self.count += int(sample.get("count", 0))
            self.sum += float(sample.get("sum", 0.0))
            self.overflow += int(sample.get("overflow", 0))
            for i, (_b, c) in enumerate(buckets):
                self.bucket_counts[i] += int(c)
            for key, ex in (sample.get("exemplars") or {}).items():
                self._exemplars[int(key)] = dict(ex)

    def _reset(self) -> None:
        self.bucket_counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self._exemplars = {}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric with labeled children (see module docs)."""

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"invalid metric name {name!r}; use [a-zA-Z_:][a-zA-Z0-9_:]*"
            )
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[LabelKey, Any] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets if self._buckets is not None
                             else DEFAULT_TIME_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labelvalues):
        """The child carrying these label values (created on first use).

        Creation is lock-protected so two threads first touching the same
        label set never race to install distinct children (one of which
        would silently swallow the loser's increments).
        """
        key = _label_key(labelvalues)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    # ------------------------------------------- unlabeled-child shorthand
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float,
                exemplar: Optional[Mapping[str, Any]] = None) -> None:
        self.labels().observe(value, exemplar=exemplar)

    @property
    def value(self) -> float:
        return self.labels().value

    def _items(self):
        # shallow copy under the lock: a mid-scrape child creation on
        # another thread must not blow up the snapshot's iteration
        with self._lock:
            return sorted(self._children.items())

    def children(self):
        """Iterate ``(labels_dict, child)`` pairs."""
        for key, child in self._items():
            yield dict(key), child

    def _collect(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), **child._sample()}
                for key, child in self._items()
            ],
        }

    def _reset(self) -> None:
        for _, child in self._items():
            child._reset()


class MetricsRegistry:
    """Process-wide home for metric families; snapshot/reset semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: str, help: str,
                       buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {fam.kind}, not {kind}"
                )
            return fam
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = MetricFamily(name, kind, help, buckets)
            return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._get_or_create(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._get_or_create(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._get_or_create(name, "histogram", help, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable plain-data copy of every family's current state."""
        return MetricsSnapshot(metrics=[f._collect() for f in self.families()])

    def reset(self) -> None:
        """Zero every metric (families and label sets survive)."""
        for fam in self._families.values():
            fam._reset()


@dataclass
class MetricsSnapshot:
    """Plain-data snapshot of a registry; see module docs for the shape."""

    metrics: List[dict] = field(default_factory=list)

    def names(self) -> List[str]:
        return [m["name"] for m in self.metrics]

    def family(self, name: str) -> Optional[dict]:
        for m in self.metrics:
            if m["name"] == name:
                return m
        return None

    def get(self, name: str, **labels):
        """The sample dict (or counter/gauge value) for ``name{labels}``.

        Returns ``None`` when the metric or label set is absent.  For
        counters/gauges the bare float is returned; histograms return
        their full sample dict.
        """
        fam = self.family(name)
        if fam is None:
            return None
        want = {str(k): str(v) for k, v in labels.items()}
        for s in fam["samples"]:
            if s["labels"] == want:
                if fam["kind"] in ("counter", "gauge"):
                    return s["value"]
                return {k: v for k, v in s.items() if k != "labels"}
        return None

    # ----------------------------------------------------------- exposition
    def to_prometheus(self) -> str:
        """Render as Prometheus text exposition format (version 0.0.4).

        Histograms convert the internal non-cumulative buckets to the
        cumulative ``_bucket{le=...}`` series Prometheus expects, ending
        with ``le="+Inf"`` plus ``_sum`` and ``_count``.  Label values
        are escaped per the spec (backslash, double-quote, newline).
        Buckets carrying an exemplar render it OpenMetrics-style as a
        ``# {trace_id="..."} <value>`` suffix on the ``_bucket`` line.
        """
        def esc(v: str) -> str:
            return (str(v).replace("\\", "\\\\").replace('"', '\\"')
                    .replace("\n", "\\n"))

        def fmt_labels(labels: Mapping[str, str], extra: str = "") -> str:
            parts = [f'{k}="{esc(v)}"' for k, v in sorted(labels.items())]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def num(v: float) -> str:
            if v == math.inf:
                return "+Inf"
            if v == -math.inf:
                return "-Inf"
            f = float(v)
            return repr(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)

        lines: List[str] = []
        for fam in self.metrics:
            name, kind = fam["name"], fam["kind"]
            if fam.get("help"):
                lines.append(f"# HELP {name} {esc(fam['help'])}")
            lines.append(f"# TYPE {name} {kind}")
            for s in fam["samples"]:
                labels = s.get("labels", {})
                if kind in ("counter", "gauge"):
                    lines.append(f"{name}{fmt_labels(labels)} {num(s['value'])}")
                    continue
                exemplars = s.get("exemplars") or {}

                def ex_suffix(idx: int) -> str:
                    ex = exemplars.get(str(idx)) or exemplars.get(idx)
                    if not ex:
                        return ""
                    exl = ",".join(
                        f'{k}="{esc(v)}"'
                        for k, v in sorted(ex.get("labels", {}).items())
                    )
                    return " # {%s} %s" % (exl, num(ex.get("value", 0.0)))

                cum = 0
                nb = len(s.get("buckets", []))
                for i, (bound, cnt) in enumerate(s.get("buckets", [])):
                    cum += cnt
                    le = 'le="%s"' % num(bound)
                    lines.append(
                        f"{name}_bucket{fmt_labels(labels, le)} {cum}"
                        f"{ex_suffix(i)}"
                    )
                cum += s.get("overflow", 0)
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{fmt_labels(labels, inf)} {cum}"
                    f"{ex_suffix(nb)}"
                )
                lines.append(f"{name}_sum{fmt_labels(labels)} {num(s['sum'])}")
                lines.append(f"{name}_count{fmt_labels(labels)} {s['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        from repro.serialization import SCHEMA_VERSION  # local: avoid cycle

        return {
            "type": "MetricsSnapshot",
            "schema_version": SCHEMA_VERSION,
            "metrics": self.metrics,
        }

    @staticmethod
    def from_dict(data: dict) -> "MetricsSnapshot":
        if data.get("type") != "MetricsSnapshot":
            raise ConfigurationError("not a serialized MetricsSnapshot")
        return MetricsSnapshot(metrics=list(data.get("metrics", [])))


def snapshot_delta(new: MetricsSnapshot,
                   old: Optional[MetricsSnapshot]) -> List[dict]:
    """The per-family difference ``new - old``, for shipping increments
    across a process boundary.

    Counters and histograms subtract (non-cumulative histogram buckets
    make this positional subtraction); gauges carry their latest value.
    Families and samples absent from ``old`` ship whole.  Samples whose
    delta is all-zero are dropped; the result is ``[]`` when nothing
    changed — the cheap common case the process backend tests for before
    putting anything on the wire.
    """
    old_fams = {m["name"]: m for m in old.metrics} if old is not None else {}
    out: List[dict] = []
    for fam in new.metrics:
        ofam = old_fams.get(fam["name"])
        osamples = {}
        if ofam is not None and ofam["kind"] == fam["kind"]:
            osamples = {_label_key(s["labels"]): s for s in ofam["samples"]}
        kept: List[dict] = []
        for s in fam["samples"]:
            prev = osamples.get(_label_key(s["labels"]))
            d = _sample_delta(fam["kind"], s, prev)
            if d is not None:
                kept.append(d)
        if kept:
            out.append({"name": fam["name"], "kind": fam["kind"],
                        "help": fam.get("help", ""), "samples": kept})
    return out


def _sample_delta(kind: str, new: dict, old: Optional[dict]) -> Optional[dict]:
    if kind in ("counter", "gauge"):
        value = new["value"] - (old["value"] if old is not None else 0.0)
        if kind == "gauge":
            # Point-in-time: ship the reading itself when it moved.
            if old is not None and new["value"] == old["value"]:
                return None
            return {"labels": dict(new["labels"]), "value": new["value"]}
        if value == 0.0:
            return None
        return {"labels": dict(new["labels"]), "value": value}
    # histogram
    count = new["count"] - (old["count"] if old is not None else 0)
    if count == 0:
        return None
    oldb = {float(b): c for b, c in (old or {}).get("buckets", [])}
    return {
        "labels": dict(new["labels"]),
        "count": count,
        "sum": new["sum"] - (old["sum"] if old is not None else 0.0),
        "overflow": new["overflow"] - (old or {}).get("overflow", 0),
        "buckets": [[b, c - oldb.get(float(b), 0)] for b, c in new["buckets"]],
        "exemplars": dict(new.get("exemplars") or {}),
    }


def merge_into(registry: MetricsRegistry, delta: Sequence[dict]) -> int:
    """Fold a :func:`snapshot_delta` payload into ``registry``; returns
    the number of samples merged.  Families are created on demand with
    the shipped help text; histogram bucket bounds come from the shipped
    sample so parent and worker stay structurally identical."""
    merged = 0
    for fam in delta:
        kind = fam.get("kind")
        name = fam.get("name")
        if kind not in _KINDS or not name:
            continue
        for s in fam.get("samples", []):
            if kind == "histogram":
                mf = registry.histogram(
                    name, fam.get("help", ""),
                    buckets=[b for b, _c in s.get("buckets", [])] or None,
                )
            elif kind == "counter":
                mf = registry.counter(name, fam.get("help", ""))
            else:
                mf = registry.gauge(name, fam.get("help", ""))
            mf.labels(**dict(s.get("labels", {})))._merge(s)
            merged += 1
    return merged


_DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _DEFAULT_REGISTRY


def reset_default_registry() -> MetricsRegistry:
    """Replace the process-wide registry with an empty one; returns it.

    For a forked child: a lock of the inherited registry that some other
    thread of the parent held at the moment of the fork is never released
    in the child, and the first ``snapshot()`` or ``inc()`` there hangs.
    """
    global _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY
