"""RunReport: one artifact joining trace, metrics, and the model.

A :class:`RunReport` answers the question the paper's performance
discussion keeps asking: *which phase is over the Theorem-2 model, on
which ranks, and is it compute or communication?*  It is built from

* a scoped trace recording (the run-level timeline the driver splices
  from per-phase simulator runs, or per-phase wall timings in
  sequential mode),
* a :class:`~repro.obs.metrics.MetricsSnapshot`, and
* optionally the analytic :class:`~repro.core.model.PerformanceEstimate`
  for the same ``(dataset, k, N, N1, N2)`` configuration,

and renders as text (:meth:`text`) or versioned JSON (through
:func:`repro.serialization.dump_result` / ``load_result``).

The per-rank summary and the per-(round, phase) rows are
:func:`repro.runtime.tracing.split_timeline`'s, which owns the
compute/comm/idle split.  :meth:`text` is also the one renderer of an
:func:`~repro.obs.analyze.analyze_run` section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.model import PerformanceEstimate
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.tracing import TraceEvent, TraceSummary, split_timeline
from repro.util.timing import format_seconds


@dataclass
class RunReport:
    """Joined observability view of one run (see module docs)."""

    problem: str
    mode: str
    nranks: int
    summary: TraceSummary
    phases: List[dict] = field(default_factory=list)
    metrics: Optional[MetricsSnapshot] = None
    estimate: Optional[PerformanceEstimate] = None
    meta: dict = field(default_factory=dict)
    resilience: Optional[dict] = None
    sanitizer: Optional[dict] = None
    analysis: Optional[dict] = None
    profile: Optional[dict] = None

    # ------------------------------------------------------------- builders
    @staticmethod
    def build(
        events: Sequence[TraceEvent],
        nranks: int,
        problem: str = "",
        mode: str = "",
        metrics: Optional[MetricsSnapshot] = None,
        estimate: Optional[PerformanceEstimate] = None,
        meta: Optional[dict] = None,
        resilience: Optional[dict] = None,
        sanitizer: Optional[dict] = None,
        analysis: Optional[dict] = None,
        profile: Optional[dict] = None,
        edges: Optional[Sequence] = None,
        fault_plan=None,
        n1: Optional[int] = None,
    ) -> "RunReport":
        """Build a report from a recording.

        Pass ``analysis`` as a ready-made dict, or pass the recorder's
        ``edges`` to have :func:`repro.obs.analyze.analyze_run` compute
        the critical-path / imbalance section here (``fault_plan`` and
        ``n1`` feed its straggler cross-referencing).
        """
        events = list(events)
        if analysis is None and edges is not None:
            from repro.obs.analyze import analyze_run  # local: avoid cycle

            analysis = analyze_run(
                events, edges, nranks=nranks, fault_plan=fault_plan, n1=n1
            ).to_dict()
        summary, phases = split_timeline(events, nranks)
        return RunReport(
            problem=problem,
            mode=mode,
            nranks=nranks,
            summary=summary,
            phases=[p.to_dict() for p in phases],
            metrics=metrics,
            estimate=estimate,
            meta=dict(meta or {}),
            resilience=dict(resilience) if resilience else None,
            sanitizer=dict(sanitizer) if sanitizer else None,
            analysis=dict(analysis) if analysis else None,
            profile=dict(profile) if profile else None,
        )

    # ------------------------------------------------------------- analysis
    def over_model(self, tolerance: float = 1.2) -> List[dict]:
        """Phases whose measured span exceeds the model's phase time.

        Each row names the phase, the measured vs modeled seconds, the
        dominant component (compute or comm), and the busiest rank —
        i.e. exactly where the run diverges from Theorem 2.  Empty when
        no estimate is attached.
        """
        model = self.estimate.phase_seconds if self.estimate is not None else 0.0
        rows = [{"round": p["round"], "phase": p["phase"],
                 "measured_seconds": p["span"], "model_seconds": model,
                 "ratio": p["span"] / model,
                 "dominant": "compute" if p["compute"] >= p["comm"] else "comm",
                 "worst_rank": p["worst_rank"]}
                for p in self.phases if model > 0 and p["span"] > tolerance * model]
        return sorted(rows, key=lambda r: r["ratio"], reverse=True)

    # ------------------------------------------------------------ renderers
    def text(self, max_phases: int = 12) -> str:
        lines = [
            f"RunReport: problem={self.problem or '?'} mode={self.mode or '?'} "
            f"ranks={self.nranks}"
        ]
        if self.meta:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(self.meta.items())))
        lines.append(self.summary.report())
        if self.summary.total_bytes:
            lines.append(f"wire bytes: {self.summary.total_bytes}")
        if self.phases:
            lines.append(f"phases ({len(self.phases)} scoped):")
            lines.append(f"  {'round':>5} {'phase':>5} {'span':>10} {'compute':>10} "
                         f"{'comm':>10} {'idle':>10} {'bytes':>8}")
            for p in self.phases[:max_phases]:
                lines.append(
                    f"  {p['round']:>5} {p['phase']:>5} "
                    f"{format_seconds(p['span']):>10} "
                    f"{format_seconds(p['compute']):>10} "
                    f"{format_seconds(p['comm']):>10} "
                    f"{format_seconds(p['idle']):>10} {p['bytes']:>8}"
                )
            if len(self.phases) > max_phases:
                lines.append(f"  ... {len(self.phases) - max_phases} more")
        if self.estimate is not None:
            est = self.estimate
            lines.append(
                f"model (Theorem 2): total {format_seconds(est.total_seconds)}  "
                f"phase {format_seconds(est.phase_seconds)}  "
                f"comm-frac {est.comm_fraction:.1%}"
            )
            over = self.over_model()
            if over:
                lines.append(f"over model (> 1.2x phase time): {len(over)} phase(s)")
                for r in over[:5]:
                    lines.append(
                        f"  round {r['round']} phase {r['phase']}: "
                        f"{format_seconds(r['measured_seconds'])} vs "
                        f"{format_seconds(r['model_seconds'])} "
                        f"({r['ratio']:.1f}x, {r['dominant']}-bound, "
                        f"worst rank {r['worst_rank']})"
                    )
            else:
                lines.append("no phase exceeds 1.2x the modeled phase time")
        if self.resilience:
            r = self.resilience
            injected = r.get("faults_injected", {})
            inj = ", ".join(f"{k}={v}" for k, v in sorted(injected.items())) or "none"
            lines.append("resilience:")
            lines.append(f"  faults injected: {inj}")
            lines.append(
                f"  phase failures: {r.get('phase_failures', 0)}  "
                f"retries: {r.get('retries', 0)}"
            )
            lines.append(
                f"  work lost {format_seconds(r.get('work_lost_seconds', 0.0))}  "
                f"recomputed {format_seconds(r.get('work_recomputed_seconds', 0.0))}  "
                f"backoff {format_seconds(r.get('backoff_seconds', 0.0))}"
            )
            lines.append(
                f"  makespan overhead "
                f"{format_seconds(r.get('makespan_overhead_seconds', 0.0))} "
                f"({r.get('overhead_fraction', 0.0):.1%} of fault-free)"
            )
        if self.analysis:
            a = self.analysis
            cp = a.get("critical_path", {})
            lines.append("analysis:")
            lines.append(
                f"  critical path: {format_seconds(cp.get('length', 0.0))} over "
                f"{cp.get('n_segments', 0)} segment(s) "
                f"({cp.get('coverage', 0.0):.1%} of makespan)"
            )
            for b in cp.get("blame", [])[:5]:
                ph = f" phase {b['phase']}" if b.get("phase") is not None else ""
                lines.append(
                    f"    rank {b['rank']}{ph} {b['kind']}: "
                    f"{format_seconds(b['seconds'])} ({b['fraction']:.1%})"
                )
            lines.append(
                f"  imbalance (busy t_max/t_avg): "
                f"{a.get('imbalance_ratio', 1.0):.2f}"
            )
            worst = sorted(a.get("phase_imbalance", []), key=lambda p: -p["ratio"])
            if worst:
                lines.append("  worst phases: " + ", ".join(
                    f"round {p['round']} phase {p['phase']} {p['ratio']:.2f}x "
                    f"(rank {p['worst_rank']})" for p in worst[:3]))
            msgs = np.asarray(a.get("comm_matrix", {}).get("messages", []))
            if msgs.sum() > 0:
                byts = np.asarray(a["comm_matrix"]["bytes"])
                hot = np.unravel_index(int(byts.argmax()), byts.shape)
                lines.append(
                    f"  communication: {int(msgs.sum())} message(s), "
                    f"{int(byts.sum())} bytes; hottest pair {hot[0]}->{hot[1]} "
                    f"({int(byts[hot])} bytes, {int(msgs[hot])} msgs)"
                )
            sl = a.get("slack", {})
            if sl.get("count"):
                lines.append(
                    f"  off-path slack: {sl['count']} event(s), median "
                    f"{format_seconds(sl['p50'])}, p90 {format_seconds(sl['p90'])}"
                )
            for srow in a.get("stragglers", [])[:4]:
                tag = " [injected fault]" if srow.get("injected") else ""
                lines.append(
                    f"  straggler: rank {srow['rank']} "
                    f"({srow['ratio_to_median']:.2f}x median busy){tag}"
                )
        if self.profile:
            pr = self.profile
            lines.append(
                f"profile (wall): total {format_seconds(pr.get('wall_total', 0.0))} "
                f"across {pr.get('spans', 0)} span(s), "
                f"{pr.get('threads', 0)} thread(s)"
            )
            for ph, secs in sorted(pr.get("phases", {}).items(),
                                   key=lambda kv: kv[1], reverse=True):
                lines.append(f"  {ph}: {format_seconds(secs)}")
            for row in pr.get("ops", [])[:6]:
                site = f" {row['callsite']}" if row.get("callsite") else ""
                lines.append(
                    f"  {row['phase']}/{row['op']}{site}: "
                    f"{format_seconds(row['seconds'])} over {row['calls']} call(s)"
                )
            if pr.get("dropped_spans"):
                lines.append(f"  ({pr['dropped_spans']} span(s) dropped)")
        if self.sanitizer:
            sn = self.sanitizer
            lines.append("sanitizer:")
            status = "clean" if sn.get("clean", True) else "VIOLATIONS"
            lines.append(
                f"  {status}: {sn.get('ops_checked', 0)} ops across "
                f"{sn.get('runs', 0)} run(s)"
            )
            for kind, n in sorted(sn.get("violations", {}).items()):
                lines.append(f"  {kind}: {n}")
            for finding in sn.get("findings", [])[:8]:
                lines.append(f"    {finding}")
        if self.metrics is not None:
            lines.append(f"metrics: {len(self.metrics.metrics)} families "
                         f"({', '.join(self.metrics.names()[:6])}"
                         f"{', ...' if len(self.metrics.metrics) > 6 else ''})")
        return "\n".join(lines)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        from repro.serialization import SCHEMA_VERSION, result_to_dict

        phases = [{**p, "by_rank": {str(r): v for r, v in p["by_rank"].items()}}
                  for p in self.phases]
        return {
            "type": "RunReport",
            "schema_version": SCHEMA_VERSION,
            "problem": self.problem,
            "mode": self.mode,
            "nranks": self.nranks,
            "summary": {k: v.tolist() if isinstance(v, np.ndarray) else v
                        for k, v in vars(self.summary).items()},
            "phases": phases,
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "estimate": (result_to_dict(self.estimate)
                         if self.estimate is not None else None),
            "meta": self.meta,
            "resilience": self.resilience,
            "sanitizer": self.sanitizer,
            "analysis": self.analysis,
            "profile": self.profile,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        from repro.serialization import result_from_dict

        if data.get("type") != "RunReport":
            raise ConfigurationError("not a serialized RunReport")
        s = data["summary"]
        summary = TraceSummary(
            s["nranks"], *(np.asarray(s[c], dtype=np.float64)
                           for c in ("compute", "comm", "idle")),
            s["makespan"], np.asarray(s.get("bytes_sent") or [0] * s["nranks"],
                                      dtype=np.int64), s.get("other", 0.0))
        phases = [{**p, "by_rank": {int(r): v for r, v in p.get("by_rank", {}).items()}}
                  for p in data.get("phases", [])]
        metrics = (MetricsSnapshot.from_dict(data["metrics"])
                   if data.get("metrics") else None)
        estimate = (result_from_dict(data["estimate"])
                    if data.get("estimate") else None)
        return RunReport(
            problem=data.get("problem", ""),
            mode=data.get("mode", ""),
            nranks=data["nranks"],
            summary=summary,
            phases=phases,
            metrics=metrics,
            estimate=estimate,
            meta=data.get("meta", {}),
            resilience=data.get("resilience"),
            sanitizer=data.get("sanitizer"),
            analysis=data.get("analysis"),
            profile=data.get("profile"),
        )
