"""CommSanitizer: a runtime checker for simulated SPMD programs.

A rank program (:mod:`repro.runtime.scheduler`) speaks two exchange ops
and one collective, and the ops own what point-to-point MPI leaves to
the program: an ``Exchange`` copies the rows it sends, the scheduler
numbers exchanges and matches their messages, and a ``Collect`` takes
the oldest posted exchange.  A self-send, an out-of-range peer and a
``Collect`` with nothing posted raise
:class:`~repro.errors.RuntimeSimulationError` at the yield.  Two program
bugs remain representable, and without the sanitizer they only surface
as a deadlock or a wrong value:

* **collective-divergence** — live ranks entering the same ``AllReduce``
  call with different payload shapes; also ranks exiting while peers
  wait in one;
* **unmatched-send** — a message never received by the time the program
  exits (a peer left out of ``recv_from``, or an exchange posted and
  never collected).

:class:`CommSanitizer` is the moral equivalent of an MPI correctness
checker (MUST/ITAC) for the simulator; the scheduler consults it on
every yielded op.  In ``strict`` mode the first violation raises a typed
:class:`~repro.errors.SanitizerError` naming rank, op, and tag; in
``warn`` mode violations accumulate in a shared :class:`SanitizerReport`.
The end-of-run check is *suppressed* when injected faults fired or ranks
crashed: mail lost to a seeded drop or left by a crashed rank is the
fault plan's doing, not a program bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.engine import SANITIZE_MODES
from repro.errors import ConfigurationError, SanitizerError

#: the violation classes the sanitizer can report
VIOLATION_KINDS = ("unmatched-send", "collective-divergence")


def is_strict(mode: str, checker: str) -> bool:
    """Whether a ``checker`` at level ``mode`` raises at the first finding
    (``strict``) or reports them all (``warn``); ``off`` is refused."""
    _off, warn, strict = SANITIZE_MODES
    if mode not in (warn, strict):
        raise ConfigurationError(
            f"{checker} mode must be {warn!r} or {strict!r}, got {mode!r}")
    return mode == strict


def _payload_shape(value: Any) -> str:
    """Coarse payload signature used for collective compatibility."""
    if isinstance(value, np.ndarray):
        return f"ndarray{tuple(value.shape)}:{value.dtype}"
    if value is None:
        return "none"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return "scalar"
    return type(value).__name__


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding, with enough context to locate the bug."""

    kind: str
    rank: int
    op: str
    tag: Hashable = None
    detail: str = ""

    def message(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag is not None else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"[{self.kind}] rank {self.rank}, {self.op}{tag}{detail}"


class SanitizerReport:
    """Accumulated sanitizer findings across one or more simulated runs.

    One report is shared by every per-run :class:`CommSanitizer` of a
    detection, so the engine can publish a single run-level summary
    (metrics families, RunReport section, ``details["sanitizer"]``).
    """

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.ops_checked = 0
        self.runs = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "ops_checked": self.ops_checked,
            "clean": self.clean,
            "violations": self.counts(),
            "findings": [v.message() for v in self.violations[:50]],
        }

    def text(self) -> str:
        if self.clean:
            return (f"sanitizer: clean ({self.ops_checked} ops across "
                    f"{self.runs} run(s))")
        lines = [f"sanitizer: {len(self.violations)} violation(s) in "
                 f"{self.ops_checked} ops across {self.runs} run(s)"]
        lines += [f"  {v.message()}" for v in self.violations]
        return "\n".join(lines)

    def raise_if_any(self) -> None:
        if self.violations:
            v = self.violations[0]
            raise SanitizerError(v.message(), kind=v.kind, rank=v.rank,
                                 op=v.op, tag=v.tag)


class CommSanitizer:
    """Per-run communication sanitizer (see module docs).

    Pass one to :class:`repro.runtime.scheduler.Simulator` via the
    ``sanitizer`` argument; the scheduler drives the ``on_*`` hooks.  A
    fresh instance (or :meth:`begin_run`) is required per run — the
    per-run collective signatures are reset there, while findings
    accumulate in the shared ``report``.
    """

    def __init__(self, mode: str = "strict",
                 report: Optional[SanitizerReport] = None) -> None:
        self.strict = is_strict(mode, "sanitizer")
        self.mode = mode
        self.report = report if report is not None else SanitizerReport()
        self._collectives: Dict[int, Tuple[str, int]] = {}

    # ------------------------------------------------------------- plumbing
    def _violate(self, kind: str, rank: int, op: str, tag: Hashable = None,
                 detail: str = "") -> None:
        v = Violation(kind, rank, op, tag, detail)
        self.report.violations.append(v)
        if self.strict:
            raise SanitizerError(v.message(), kind=kind, rank=rank, op=op,
                                 tag=tag)

    # ------------------------------------------------------- scheduler hooks
    def begin_run(self) -> None:
        """Reset per-run state; called by the scheduler at ``run()`` start."""
        self._collectives = {}
        self.report.runs += 1

    def on_op(self, rank: int, op: Any, collective_idx: int) -> None:
        """Inspect one yielded op (the scheduler calls this for every op)."""
        # local import keeps this module importable without the runtime
        from repro.runtime.comm import AllReduce

        self.report.ops_checked += 1
        if not isinstance(op, AllReduce):
            return
        sig = f"AllReduce({_payload_shape(op.value)})"
        prior = self._collectives.setdefault(collective_idx, (sig, rank))
        if sig != prior[0]:
            self._violate(
                "collective-divergence", rank, sig,
                detail=(f"collective call #{collective_idx} diverges: rank "
                        f"{prior[1]} entered {prior[0]}, rank {rank} entered {sig}"),
            )

    def on_collective_abandoned(self, waiting_ranks: List[int],
                                exited_ranks: List[int]) -> None:
        """Some ranks exited while the others wait in an ``AllReduce``."""
        self._violate(
            "collective-divergence", waiting_ranks[0], "AllReduce",
            detail=(f"rank(s) {exited_ranks} exited while rank(s) "
                    f"{waiting_ranks} wait in AllReduce"),
        )

    def on_run_end(self, states: List[Any], faults_fired: bool) -> None:
        """Program exit: every message still in an inbox is unmatched.

        Skipped entirely when injected faults fired or ranks crashed — a
        leftover caused by a seeded drop/crash is not a program bug.
        """
        if faults_fired or any(st.crashed for st in states):
            return
        for st in states:
            for src, tag in sorted(st.inbox):
                self._violate(
                    "unmatched-send", src, f"Exchange(dst={st.rank})", tag,
                    f"message {src}->{st.rank} was never received "
                    f"(receiver inbox undrained at exit)",
                )


__all__ = [
    "CommSanitizer",
    "SanitizerReport",
    "Violation",
    "VIOLATION_KINDS",
    "SANITIZE_MODES",
    "is_strict",
]
