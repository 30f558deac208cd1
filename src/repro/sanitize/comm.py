"""CommSanitizer: a runtime checker for simulated SPMD programs.

The simulated MPI substrate (:mod:`repro.runtime.scheduler`) executes
rank programs that must follow the usual buffer-discipline contract:
every ``Send`` is eventually received, every ``Irecv`` is redeemed by
exactly one ``Wait``, all live ranks enter each ``AllReduce`` with the
same reducer and payload shape, and a sender must not mutate a buffer it
handed to ``Send`` before the message is delivered (the simulator copies
every payload at send and so hides that bug; a zero-copy transport would
deliver the mutated bytes).  Without the sanitizer a leaked request or a
diverging all-reduce only surfaces as a deadlock or a wrong value, and a
mutated send buffer not at all.

:class:`CommSanitizer` is the enforcement layer, the moral equivalent of
an MPI correctness checker (MUST/ITAC) for the simulator.  The scheduler
consults it on every yielded op:

* **self-send** — ``Send`` with ``dst == rank``;
* **double-wait** — ``Wait`` on a request that was never posted or was
  already redeemed;
* **collective-divergence** — live ranks entering the same ``AllReduce``
  call with different reducers or payload shapes; also ranks exiting
  while peers wait in one;
* **send-buffer-mutation** — the payload object handed to ``Send`` has a
  different content digest at delivery time than at send time;
* **unmatched-send** — a delivered-to-inbox message never received by
  the time the program exits;
* **leaked-request** — an ``Irecv`` still outstanding when its rank
  finishes.

In ``strict`` mode the first violation raises a typed
:class:`~repro.errors.SanitizerError` naming rank, op, and tag; in
``warn`` mode violations accumulate in a shared
:class:`SanitizerReport`.  End-of-run checks (unmatched sends, leaked
requests) are *suppressed* when injected faults fired or ranks crashed
during the run: a message lost to a seeded drop, or a request a crashed
rank never redeemed, is the fault plan's doing, not a program bug.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SanitizerError

#: the violation classes the sanitizer can report
VIOLATION_KINDS = (
    "self-send",
    "double-wait",
    "leaked-request",
    "unmatched-send",
    "collective-divergence",
    "send-buffer-mutation",
)

#: the sanitize levels, weakest first: ``off``, ``warn`` (report every
#: violation) and ``strict`` (raise at the first) — the one list
SANITIZE_MODES = ("off", "warn", "strict")


def is_strict(mode: str, checker: str) -> bool:
    """Whether a ``checker`` at level ``mode`` raises at the first finding
    (``strict``) or reports them all (``warn``); ``off`` is refused."""
    _off, warn, strict = SANITIZE_MODES
    if mode not in (warn, strict):
        raise ConfigurationError(
            f"{checker} mode must be {warn!r} or {strict!r}, got {mode!r}")
    return mode == strict


def payload_digest(payload: Any) -> Optional[int]:
    """Content digest of a payload, or ``None`` when it has no mutable,
    hashable-by-content representation (plain ints/strs can't be mutated
    in place, opaque objects can't be digested reliably)."""
    if isinstance(payload, np.ndarray):
        arr = np.ascontiguousarray(payload)
        meta = f"{arr.shape}:{arr.dtype}".encode()
        return zlib.crc32(arr.tobytes(), zlib.crc32(meta))
    if isinstance(payload, (bytearray, memoryview)):
        return zlib.crc32(bytes(payload))
    if isinstance(payload, (list, tuple)):
        acc = zlib.crc32(b"seq")
        for item in payload:
            d = payload_digest(item)
            if d is None:
                d = zlib.crc32(repr(item).encode())
            acc = zlib.crc32(d.to_bytes(8, "little", signed=False), acc)
        # tuples are immutable containers, but their elements may not be:
        # only report a digest when something inside is actually mutable
        if isinstance(payload, tuple) and not any(
            isinstance(x, (np.ndarray, bytearray, list, dict)) for x in payload
        ):
            return None
        return acc
    if isinstance(payload, dict):
        acc = zlib.crc32(b"map")
        for k in sorted(payload, key=repr):
            d = payload_digest(payload[k])
            if d is None:
                d = zlib.crc32(repr(payload[k]).encode())
            acc = zlib.crc32(repr(k).encode(), acc)
            acc = zlib.crc32(d.to_bytes(8, "little", signed=False), acc)
        return acc
    return None


def _payload_shape(value: Any) -> str:
    """Coarse payload signature used for collective compatibility."""
    if isinstance(value, np.ndarray):
        return f"ndarray{tuple(value.shape)}:{value.dtype}"
    if value is None:
        return "none"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return "scalar"
    return type(value).__name__


def _reducer_signature(op: Any) -> str:
    if callable(op):
        return f"callable:{getattr(op, '__name__', repr(op))}"
    return f"op:{op!r}"


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


@dataclass
class _SendRecord:
    """Send-time bookkeeping attached to every enqueued message."""

    src: int
    dst: int
    tag: Hashable
    payload_ref: Any
    digest: Optional[int]
    enqueued: int = 1
    delivered: int = 0
    injected_extra: int = 0  # copies added by an injected `duplicate` fault
    mutation_reported: bool = field(default=False)


class CommSanitizer:
    """Per-run communication sanitizer (see module docs).

    Pass one to :class:`repro.runtime.scheduler.Simulator` via the
    ``sanitizer`` argument; the scheduler drives the ``on_*`` hooks.  A
    fresh instance (or :meth:`begin_run`) is required per run — per-run
    state (outstanding requests, collective signatures, send records) is
    reset there, while findings accumulate in the shared ``report``.
    """

    def __init__(self, mode: str = "strict",
                 report: Optional[SanitizerReport] = None) -> None:
        self.strict = is_strict(mode, "sanitizer")
        self.mode = mode
        self.report = report if report is not None else SanitizerReport()
        self._requests: Dict[int, Dict[Tuple[int, Hashable], int]] = {}
        self._collectives: Dict[int, Tuple[str, int]] = {}
        self._records: List[_SendRecord] = []
        self._nranks = 0

    # ------------------------------------------------------------- plumbing
    def _violate(self, kind: str, rank: int, op: str, tag: Hashable = None,
                 detail: str = "") -> None:
        v = Violation(kind, rank, op, tag, detail)
        self.report.violations.append(v)
        if self.strict:
            raise SanitizerError(v.message(), kind=kind, rank=rank, op=op,
                                 tag=tag)

    # ------------------------------------------------------- scheduler hooks
    def begin_run(self, nranks: int) -> None:
        """Reset per-run state; called by the scheduler at ``run()`` start."""
        self._nranks = nranks
        self._requests = {}
        self._collectives = {}
        self._records = []
        self.report.runs += 1

    def on_op(self, rank: int, op: Any, collective_idx: int) -> None:
        """Inspect one yielded op (the scheduler calls this for every op)."""
        # local import keeps this module importable without the runtime
        from repro.runtime.comm import AllReduce, Irecv, Send, Wait

        self.report.ops_checked += 1
        if isinstance(op, Send):
            if op.dst == rank:
                self._violate(
                    "self-send", rank, f"Send(dst={op.dst})", op.tag,
                    "a rank sent a message to itself",
                )
            return
        if isinstance(op, Irecv):
            reqs = self._requests.setdefault(rank, {})
            key = (op.src, op.tag)
            reqs[key] = reqs.get(key, 0) + 1
            return
        if isinstance(op, Wait):
            key = (op.request.src, op.request.tag)
            reqs = self._requests.setdefault(rank, {})
            if reqs.get(key, 0) <= 0:
                self._violate(
                    "double-wait", rank,
                    f"Wait(request=Irecv(src={key[0]}))", key[1],
                    "no outstanding Irecv matches this request "
                    "(already redeemed, or never posted)",
                )
            else:
                reqs[key] -= 1
            return
        if isinstance(op, AllReduce):
            self._check_collective(rank, op, collective_idx)

    def _check_collective(self, rank: int, op: Any, idx: int) -> None:
        sig = f"AllReduce({_reducer_signature(op.op)}, {_payload_shape(op.value)})"
        prior = self._collectives.get(idx)
        if prior is None:
            self._collectives[idx] = (sig, rank)
            return
        prior_sig, prior_rank = prior
        if sig != prior_sig:
            self._violate(
                "collective-divergence", rank, sig,
                detail=(f"collective call #{idx} diverges: rank {prior_rank} "
                        f"entered {prior_sig}, rank {rank} entered {sig}"),
            )

    def on_collective_abandoned(self, waiting_ranks: List[int],
                                finished_ranks: List[int], op: Any) -> None:
        """Some ranks exited while others wait in a collective."""
        rank = waiting_ranks[0] if waiting_ranks else -1
        self._violate(
            "collective-divergence", rank, type(op).__name__,
            detail=(f"rank(s) {finished_ranks} exited while rank(s) "
                    f"{waiting_ranks} wait in {type(op).__name__}"),
        )

    def on_send(self, rank: int, op: Any, copies: int) -> _SendRecord:
        """Record an enqueued send (digest taken from the *original* buffer)."""
        rec = _SendRecord(
            src=rank, dst=op.dst, tag=op.tag, payload_ref=op.payload,
            digest=payload_digest(op.payload), enqueued=copies,
            injected_extra=max(0, copies - 1),
        )
        self._records.append(rec)
        return rec

    def on_deliver(self, receiver: int, rec: _SendRecord) -> None:
        """A message was claimed by its receiver: check the sender's buffer."""
        rec.delivered += 1
        if rec.digest is None or rec.mutation_reported:
            return
        now = payload_digest(rec.payload_ref)
        if now != rec.digest:
            rec.mutation_reported = True
            self._violate(
                "send-buffer-mutation", rec.src,
                f"Send(dst={rec.dst})", rec.tag,
                "sender mutated the payload buffer after Send and before "
                "delivery (the simulator's copy at send hides it; a "
                "zero-copy transport would deliver corrupted data)",
            )

    def on_run_end(self, states: List[Any], faults_fired: bool) -> None:
        """Program exit: unmatched sends, undrained inboxes, leaked requests.

        Skipped entirely when injected faults fired or ranks crashed — a
        leftover caused by a seeded drop/crash is not a program bug.
        """
        crashed = any(getattr(st, "crashed", False) for st in states)
        if faults_fired or crashed:
            return
        for st in states:
            for (src, tag), q in sorted(st.inbox.items(), key=lambda kv: repr(kv[0])):
                for msg in q:
                    rec = getattr(msg, "san", None)
                    if rec is not None and rec.injected_extra > 0:
                        rec.injected_extra -= 1
                        continue
                    self._violate(
                        "unmatched-send", src,
                        f"Send(dst={st.rank})", tag,
                        f"message {src}->{st.rank} was never received "
                        f"(receiver inbox undrained at exit)",
                    )
        for rank in sorted(self._requests):
            for (src, tag), n in sorted(self._requests[rank].items(),
                                        key=lambda kv: repr(kv[0])):
                if n > 0:
                    self._violate(
                        "leaked-request", rank,
                        f"Irecv(src={src})", tag,
                        f"{n} posted Irecv(s) never redeemed by a Wait",
                    )


__all__ = [
    "CommSanitizer",
    "SanitizerReport",
    "Violation",
    "VIOLATION_KINDS",
    "SANITIZE_MODES",
    "is_strict",
    "payload_digest",
]
