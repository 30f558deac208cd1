"""Run-history store: a regression-tracking trajectory of runs.

A perf regression that ships silently is the failure mode this module
closes: every instrumented run distills into a compact, flat
:class:`RunRecord` keyed by ``(scenario, git_sha, config_hash)`` and is
appended to a :class:`RunStore` — one JSON object per line, append-only,
so records written by old code stay readable forever.

``RunRecord.values`` is a flat ``{metric_name: float}`` map where, by
convention, **higher is worse** (virtual seconds, bytes, imbalance
ratios).  :func:`compare_runs` diffs two records (or a record against a
rolling baseline of its predecessors) and flags any metric beyond a
configurable tolerance; the result renders as JSON and as markdown for
CI logs and PR comments.

JSONL schema (one record per line)::

    {"type": "RunRecord", "version": 1,
     "scenario": "perf-smoke", "git_sha": "a3c12cf",
     "config_hash": "9f2c01d44a1b", "timestamp": "2026-08-06T12:00:00Z",
     "problem": "k-path", "mode": "simulated", "nranks": 8,
     "values": {"makespan": 3.7e-05, "compute": ..., "comm": ...,
                "span:r0p1": ..., "critical_path_length": ...},
     "meta": {"n1": "4", "k": "5"}}

CLI: ``repro history runs.jsonl`` lists the trajectory; ``repro compare
runs.jsonl --scenario S --tolerance 0.25`` exits non-zero on a
regression (the CI perf gate).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.util.log import get_logger

try:  # POSIX-only; appends degrade to unlocked writes elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

_LOG = get_logger(__name__)

PathLike = Union[str, Path]

RUN_RECORD_VERSION = 1

#: meta flags marking a record as non-comparable provenance-wise: resumed
#: runs, watchdog-degraded partials, and interrupted/truncated flushes
#: must never silently enter a rolling baseline.
PROVENANCE_FLAGS = ("resumed_from", "degraded", "truncated")

_GIT_SHA_CACHE: Optional[str] = None


def current_git_sha(default: str = "unknown") -> str:
    """The current commit's short SHA: ``$GIT_SHA``/``$GITHUB_SHA`` if
    set (CI), else ``git rev-parse``, else ``default``.  Cached."""
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is not None:
        return _GIT_SHA_CACHE
    sha = os.environ.get("GIT_SHA") or os.environ.get("GITHUB_SHA")
    if not sha:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=5, check=False,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    _GIT_SHA_CACHE = (sha or default)[:12]
    return _GIT_SHA_CACHE


def config_fingerprint(config: Mapping) -> str:
    """A stable 12-hex-char hash of a configuration mapping.

    Keys are sorted and values stringified, so logically identical
    configurations hash identically across runs and python versions.
    """
    canon = json.dumps(
        {str(k): str(v) for k, v in config.items()}, sort_keys=True
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class RunRecord:
    """One run's compact perf fingerprint (see module docs).

    ``values`` holds flat numeric metrics where higher means worse;
    ``meta`` holds small string context (k, n1, dataset, ...).  Runs
    executed under the detection service also carry the originating
    query's ``meta["trace_id"]`` so a regression flagged by
    ``repro compare`` can be joined back to its end-to-end timeline
    via ``repro trace <trace_id>``.
    """

    scenario: str
    git_sha: str = "unknown"
    config_hash: str = ""
    timestamp: str = field(default_factory=_utc_stamp)
    problem: str = ""
    mode: str = ""
    nranks: int = 1
    values: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------- builders
    @staticmethod
    def from_report(
        report,
        scenario: str,
        git_sha: Optional[str] = None,
        config: Optional[Mapping] = None,
        config_hash: Optional[str] = None,
    ) -> "RunRecord":
        """Distill a :class:`~repro.obs.report.RunReport` into a record.

        Captures the makespan, the compute/comm/idle totals, wire bytes,
        each scoped phase's span (``span:r<round>p<phase>``), — when
        the report carries an analysis section — the critical-path
        length and the overall imbalance ratio, and — when it carries a
        wall-clock ``profile`` section — a ``wall_*`` family (total plus
        per profiler phase) so the perf gate tracks real seconds, not
        just virtual time.
        """
        s = report.summary
        values: Dict[str, float] = {
            "makespan": float(s.makespan),
            "compute": s.total_compute,
            "comm": s.total_comm,
            "idle": float(s.idle.sum()),
            "bytes": float(s.total_bytes),
        }
        for p in report.phases:
            values[f"span:r{p['round']}p{p['phase']}"] = float(p["span"])
        if report.analysis:
            cp = report.analysis.get("critical_path", {})
            if cp:
                values["critical_path_length"] = float(cp.get("length", 0.0))
            values["imbalance_ratio"] = float(
                report.analysis.get("imbalance_ratio", 1.0)
            )
        if report.profile:
            values["wall_total"] = float(report.profile.get("wall_total", 0.0))
            for ph, secs in report.profile.get("phases", {}).items():
                values[f"wall_{ph}"] = float(secs)
        return RunRecord(
            scenario=scenario,
            git_sha=git_sha if git_sha is not None else current_git_sha(),
            config_hash=(config_hash if config_hash is not None
                         else config_fingerprint(config or {})),
            problem=report.problem,
            mode=report.mode,
            nranks=report.nranks,
            values=values,
            meta={str(k): str(v) for k, v in report.meta.items()},
        )

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "type": "RunRecord",
            "version": RUN_RECORD_VERSION,
            "scenario": self.scenario,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "timestamp": self.timestamp,
            "problem": self.problem,
            "mode": self.mode,
            "nranks": self.nranks,
            "values": {k: float(v) for k, v in sorted(self.values.items())},
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_dict(d: dict) -> "RunRecord":
        if d.get("type") != "RunRecord":
            raise ConfigurationError("not a serialized RunRecord")
        if "scenario" not in d:
            raise ConfigurationError("RunRecord lacks a scenario")
        return RunRecord(
            scenario=d["scenario"],
            git_sha=d.get("git_sha", "unknown"),
            config_hash=d.get("config_hash", ""),
            timestamp=d.get("timestamp", ""),
            problem=d.get("problem", ""),
            mode=d.get("mode", ""),
            nranks=int(d.get("nranks", 1)),
            values={str(k): float(v) for k, v in d.get("values", {}).items()},
            meta={str(k): str(v) for k, v in d.get("meta", {}).items()},
        )

    @property
    def provenance_flags(self) -> List[str]:
        """Which of :data:`PROVENANCE_FLAGS` this record's meta carries
        (flags whose value is an explicit falsy string don't count)."""
        out = []
        for flag in PROVENANCE_FLAGS:
            v = self.meta.get(flag, "")
            if v and v.lower() not in ("false", "0", "no", ""):
                out.append(flag)
        return out

    def describe(self) -> str:
        mk = self.values.get("makespan")
        mk_s = f"makespan {mk:.6g}s" if mk is not None else f"{len(self.values)} metric(s)"
        return (f"{self.timestamp}  {self.scenario:<20} sha={self.git_sha:<12} "
                f"cfg={self.config_hash or '-':<12} {mk_s}")


class RunStore:
    """Append-only JSONL trajectory of :class:`RunRecord`\\ s."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    def _append_locked(self, payload: bytes) -> None:
        """One ``O_APPEND`` write under an exclusive ``flock``.

        The lock is dropped with ``LOCK_UN`` before the close.  An flock
        belongs to the open file, not to the descriptor: a worker process
        forked by another thread while the lock is held shares that open
        file, and closing this descriptor alone would leave the file
        locked for as long as the worker lives — and the next append
        waiting for ever.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path),
                     os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                self._cut_torn_tail(fd)
                os.write(fd, payload)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _cut_torn_tail(self, fd: int) -> None:
        """Cut a record a killed append left without its newline back to
        the last complete line: the next record would land on it."""
        size = end = os.lseek(fd, 0, os.SEEK_END)
        while end > 0:
            start = max(0, end - 4096)
            os.lseek(fd, start, os.SEEK_SET)
            cut = os.read(fd, end - start).rfind(b"\n")
            if cut >= 0:
                end = start + cut + 1
                break
            end = start
        if end < size:
            _LOG.warning("%s: cutting a truncated trailing record "
                         "(interrupted append?) of %d bytes", self.path, size - end)
            os.ftruncate(fd, end)

    def append(self, record: RunRecord) -> None:
        """Append one record as a single ``O_APPEND`` write under an
        ``fcntl`` lock, so concurrent writers never interleave records
        and a crash mid-append can damage at most the trailing line,
        which the next append cuts."""
        self._append_locked((json.dumps(record.to_dict()) + "\n").encode("utf-8"))

    def append_many(self, records) -> int:
        """Append a batch of records under one lock/open.

        The detection service's coordinator sweep drains every completed
        query since the last tick in one call — per-record opens would
        turn a busy sweep into an fsync storm.  Returns the number of
        records written (0 skips the open entirely).
        """
        records = list(records)
        if not records:
            return 0
        self._append_locked("".join(
            json.dumps(r.to_dict()) + "\n" for r in records
        ).encode("utf-8"))
        return len(records)

    def load(self, scenario: Optional[str] = None) -> List[RunRecord]:
        """All records (oldest first), optionally filtered by scenario.

        A truncated *final* line — the signature of a process killed
        mid-append — is skipped with a warning instead of poisoning
        every later ``history``/``compare``; malformed lines anywhere
        else still raise (they indicate real corruption, not a crash).
        """
        if not self.path.exists():
            return []
        out = []
        lines = self.path.read_text().splitlines()
        last_lineno = len(lines)
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = RunRecord.from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                if lineno == last_lineno:
                    _LOG.warning(
                        "%s:%d: skipping truncated trailing record "
                        "(interrupted append?): %s", self.path, lineno, exc)
                    continue
                raise ConfigurationError(
                    f"{self.path}:{lineno}: bad RunRecord line: {exc}"
                ) from exc
            except (ConfigurationError, ValueError) as exc:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: bad RunRecord line: {exc}"
                ) from exc
            if scenario is None or rec.scenario == scenario:
                out.append(rec)
        return out

    def scenarios(self) -> List[str]:
        seen = dict.fromkeys(r.scenario for r in self.load())
        return list(seen)

    def latest(self, scenario: Optional[str] = None) -> Optional[RunRecord]:
        recs = self.load(scenario)
        return recs[-1] if recs else None

    def rolling_baseline(
        self, scenario: str, window: int = 5, before: Optional[int] = None
    ) -> Optional[RunRecord]:
        """Mean of the up-to-``window`` records preceding the newest.

        ``before`` caps which records count (an index into the
        scenario's history; default: all but the newest).  Returns
        ``None`` when no prior record exists.  Records carrying
        provenance flags (resumed, degraded, truncated) are excluded —
        a partial run must never drag the baseline down.
        """
        recs = self.load(scenario)
        if before is None:
            before = len(recs) - 1
        clean = [r for r in recs[:max(0, before)] if not r.provenance_flags]
        prior = clean[-window:]
        if not prior:
            return None
        keys = set(prior[0].values)
        for r in prior[1:]:
            keys &= set(r.values)
        values = {k: sum(r.values[k] for r in prior) / len(prior) for k in keys}
        return RunRecord(
            scenario=scenario,
            git_sha=f"baseline({len(prior)})",
            config_hash=prior[-1].config_hash,
            timestamp=prior[-1].timestamp,
            problem=prior[-1].problem,
            mode=prior[-1].mode,
            nranks=prior[-1].nranks,
            values=values,
            meta={"baseline_of": str(len(prior))},
        )


# ------------------------------------------------------------- comparison
@dataclass
class RunComparison:
    """The diff of two records at a tolerance (see :func:`compare_runs`)."""

    ref: RunRecord
    new: RunRecord
    tolerance: float
    rows: List[dict] = field(default_factory=list)

    @property
    def regressions(self) -> List[dict]:
        return [r for r in self.rows if r["status"] == "REGRESSED"]

    @property
    def improvements(self) -> List[dict]:
        return [r for r in self.rows if r["status"] == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "type": "RunComparison",
            "scenario": self.new.scenario,
            "ref": {"git_sha": self.ref.git_sha, "timestamp": self.ref.timestamp,
                    "config_hash": self.ref.config_hash},
            "new": {"git_sha": self.new.git_sha, "timestamp": self.new.timestamp,
                    "config_hash": self.new.config_hash},
            "tolerance": self.tolerance,
            "ok": self.ok,
            "n_regressions": len(self.regressions),
            "rows": self.rows,
        }

    def markdown(self, max_rows: int = 40) -> str:
        """Human-readable markdown summary (CI logs, PR comments)."""
        verdict = ("**OK** — no metric regressed" if self.ok else
                   f"**REGRESSION** — {len(self.regressions)} metric(s) beyond "
                   f"tolerance")
        lines = [
            f"## repro compare — scenario `{self.new.scenario}`",
            "",
            f"baseline `{self.ref.git_sha}` ({self.ref.timestamp}) vs "
            f"current `{self.new.git_sha}` ({self.new.timestamp}), "
            f"tolerance {self.tolerance:.0%}",
            "",
            verdict,
            "",
            "| metric | baseline | current | ratio | status |",
            "|---|---:|---:|---:|---|",
        ]
        shown = sorted(
            self.rows,
            key=lambda r: (r["status"] != "REGRESSED", -abs(r["ratio"] - 1.0)),
        )[:max_rows]
        for r in shown:
            lines.append(
                f"| {r['metric']} | {r['ref']:.6g} | {r['new']:.6g} "
                f"| {r['ratio']:.3f} | {r['status']} |"
            )
        if len(self.rows) > max_rows:
            lines.append(f"| ... {len(self.rows) - max_rows} more | | | | |")
        if self.new.config_hash and self.ref.config_hash and \
                self.new.config_hash != self.ref.config_hash:
            lines.append("")
            lines.append(
                f"⚠ config hashes differ (`{self.ref.config_hash}` vs "
                f"`{self.new.config_hash}`) — the runs may not be comparable."
            )
        for side, rec in (("baseline", self.ref), ("current", self.new)):
            flags = rec.provenance_flags
            if flags:
                lines.append("")
                lines.append(
                    f"⚠ {side} record carries provenance flag(s) "
                    f"{', '.join(f'`{f}`' for f in flags)} — it is a "
                    f"resumed/partial run, not a clean measurement."
                )
        return "\n".join(lines)


def compare_runs(
    ref: RunRecord,
    new: RunRecord,
    tolerance: float = 0.25,
    min_delta: float = 1e-12,
    wall_tolerance: Optional[float] = None,
) -> RunComparison:
    """Diff every metric present in both records.

    A metric REGRESSED when ``new > ref * (1 + tolerance)`` (and the
    absolute delta exceeds ``min_delta``, guarding near-zero noise);
    symmetric shrinkage marks it ``improved``; everything else is
    ``ok``.  Metrics present on only one side are listed as ``added`` /
    ``removed`` and never fail the comparison.

    ``wall_*`` metrics are real wall-clock seconds — noisy on shared
    hosts, unlike the bit-deterministic virtual metrics — so by default
    they are reported as ``noted`` and never fail.  Pass
    ``wall_tolerance`` (typically much looser than ``tolerance``) to
    gate them too.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if wall_tolerance is not None and wall_tolerance < 0:
        raise ConfigurationError(
            f"wall_tolerance must be >= 0, got {wall_tolerance}"
        )
    rows = []
    for key in sorted(set(ref.values) | set(new.values)):
        rv = ref.values.get(key)
        nv = new.values.get(key)
        if rv is None or nv is None:
            rows.append({
                "metric": key,
                "ref": rv if rv is not None else math.nan,
                "new": nv if nv is not None else math.nan,
                "ratio": math.nan,
                "status": "added" if rv is None else "removed",
            })
            continue
        if rv > 0:
            ratio = nv / rv
        else:
            ratio = 1.0 if nv <= min_delta else math.inf
        is_wall = key.startswith("wall_")
        tol = wall_tolerance if is_wall else tolerance
        if is_wall and tol is None:
            status = "noted"
        elif nv > rv * (1.0 + tol) and nv - rv > min_delta:
            status = "REGRESSED"
        elif nv < rv * (1.0 - tol) and rv - nv > min_delta:
            status = "improved"
        else:
            status = "ok"
        rows.append({"metric": key, "ref": rv, "new": nv, "ratio": ratio,
                     "status": status})
    return RunComparison(ref=ref, new=new, tolerance=tolerance, rows=rows)


def compare_to_baseline(
    store: RunStore,
    scenario: str,
    tolerance: float = 0.25,
    window: int = 5,
    wall_tolerance: Optional[float] = None,
) -> RunComparison:
    """Compare a scenario's newest record against its rolling baseline."""
    latest = store.latest(scenario)
    if latest is None:
        raise ConfigurationError(
            f"store {store.path} has no records for scenario {scenario!r}"
        )
    base = store.rolling_baseline(scenario, window=window)
    if base is None:
        raise ConfigurationError(
            f"scenario {scenario!r} has a single record — nothing to compare "
            f"against (need at least 2)"
        )
    return compare_runs(base, latest, tolerance=tolerance,
                        wall_tolerance=wall_tolerance)


__all__ = [
    "PROVENANCE_FLAGS",
    "RunComparison",
    "RunRecord",
    "RunStore",
    "compare_runs",
    "compare_to_baseline",
    "config_fingerprint",
    "current_git_sha",
]
