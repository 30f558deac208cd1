"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration problems from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied by the caller.

    Raised eagerly, before any expensive work starts, so that a bad
    ``(N, N1, N2, k)`` combination never produces a half-finished run.
    """


class FieldError(ReproError, ValueError):
    """Invalid finite-field construction or operation."""


class GraphError(ReproError, ValueError):
    """Invalid graph construction or query."""


class PartitionError(ReproError, ValueError):
    """Invalid graph partition (empty parts, out-of-range labels, ...)."""


class TemplateError(ReproError, ValueError):
    """Invalid tree template (cycles, disconnected, too large, ...)."""


class RuntimeSimulationError(ReproError, RuntimeError):
    """The SPMD runtime simulator reached an illegal state."""


class DeadlockError(RuntimeSimulationError):
    """All live ranks are blocked on communication that can never complete."""


class FaultInjectedError(RuntimeSimulationError):
    """Base class for failures caused by injected faults (see
    :mod:`repro.runtime.faults`).

    The fault-tolerant driver catches this family — and only this family —
    to decide that a phase is retryable: a :class:`RuntimeSimulationError`
    that is *not* fault-induced (a program bug, a mismatched collective)
    must keep propagating.
    """


class RankFailedError(FaultInjectedError):
    """One or more ranks crashed (or their messages were lost) while the
    survivors were waiting on them.

    ``ranks`` lists the crashed ranks; ``lost_messages`` summarizes
    injected message drops as ``(src, dst, tag)`` triples when the failure
    was pure message loss rather than a crash.
    """

    def __init__(self, message: str, ranks=(), lost_messages=()):
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.lost_messages = tuple(lost_messages)


class SendFailedError(FaultInjectedError):
    """A transient injected failure of one message; retrying may succeed.

    Delivered into the sending rank program at its ``Exchange`` yield,
    after the earlier messages went (``tag`` is the exchange ordinal), so
    it can catch and post the exchange again.
    """

    def __init__(self, message: str, rank=None, dst=None, tag=None):
        super().__init__(message)
        self.rank = rank
        self.dst = dst
        self.tag = tag


class SanitizerError(ReproError, RuntimeError):
    """The runtime sanitizer detected a communication-discipline violation.

    Raised by :class:`repro.sanitize.CommSanitizer` in ``strict`` mode at
    the first violation; ``kind`` is the violation class (one of
    :data:`repro.sanitize.comm.VIOLATION_KINDS`), ``rank`` the offending
    rank, and ``op``/``tag`` describe the operation.  Deliberately *not* a
    :class:`FaultInjectedError`: a sanitizer finding is a program bug, so
    the fault-tolerant driver must never retry it away.
    """

    def __init__(self, message: str, kind: str = "", rank=None, op: str = "",
                 tag=None):
        super().__init__(message)
        self.kind = kind
        self.rank = rank
        self.op = op
        self.tag = tag


class CertificationError(ReproError, RuntimeError):
    """An engine output failed independent re-validation.

    Raised by :mod:`repro.sanitize.certify` when a returned witness does
    not check out against the graph (missing edge, duplicate vertex,
    wrong size/weight, disconnected cluster) or a recomputed score
    disagrees with the reported one.  The message names the exact
    offending element (e.g. the missing edge).
    """


class ReplayMismatchError(ReproError, RuntimeError):
    """Deterministic replay diverged between two execution backends.

    Raised by :func:`repro.sanitize.verify_replay` in strict mode;
    ``round_index``/``batch``/``phase`` locate the first divergent
    phase window (``None`` coordinates mean the round-level accumulator).
    """

    def __init__(self, message: str, round_index=None, batch=None, phase=None):
        super().__init__(message)
        self.round_index = round_index
        self.batch = batch
        self.phase = phase


class CheckpointCorruptError(ReproError, RuntimeError):
    """A durable checkpoint failed validation on load.

    Raised by :mod:`repro.runtime.durable` when a checkpoint file is
    truncated, fails its CRC, carries an unknown format version, or holds
    a stage computed for a different question than the one resuming it.
    ``path`` names the offending file and ``reason`` the failed check
    (``"truncated"``, ``"crc"``, ``"version"``, ``"header"``,
    ``"identity"``).  A resume
    may fall back to restart-from-scratch only when the caller passed
    ``allow_restart`` — silently discarding state would hide corruption.
    """

    def __init__(self, path, reason: str, detail: str = ""):
        msg = f"{path}: corrupt checkpoint ({reason})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.path = str(path)
        self.reason = reason


class WatchdogExpired(ReproError, RuntimeError):
    """The wall-clock watchdog tripped: the run exhausted its deadline or
    the simulator heartbeat stalled past ``hang_timeout``.

    ``reason`` is ``"deadline"``, ``"stall"`` or ``"cancelled"`` (the
    caller of a service fleet worker stopped waiting).  Deliberately *not* a
    :class:`FaultInjectedError`: the fault-tolerant phase runner must
    never retry past an expired watchdog — the engine catches this at
    round boundaries, checkpoints, and returns a degraded partial
    result instead.
    """

    def __init__(self, message: str, reason: str = "deadline"):
        super().__init__(message)
        self.reason = reason


class WorkerCrashedError(ReproError, RuntimeError):
    """A worker process died under a ``mode="process"`` round or a
    service query.  Both retry once on a new worker; a second death
    reaches the caller (and, for a query, every caller coalesced onto it).

    Raised by the parent when a worker's record pipe reads EOF (segfault,
    ``os._exit``, OOM-kill, SIGKILL) — surfaced as this typed error
    instead of a hang or a raw pipe error.
    Deliberately *not* a :class:`FaultInjectedError`: a real worker crash
    is not a simulated fault and must never be retried away by the
    fault-tolerant phase runner.
    """


class ResourceExhaustedError(ReproError, RuntimeError):
    """A modeled resource limit (e.g. per-node memory) was exceeded.

    Used by the FASCIA baseline model to reproduce the paper's observation
    that color coding fails beyond subgraph size 12 on random-1e6.
    """


class DetectionError(ReproError, RuntimeError):
    """A detection pipeline failed to produce a usable answer."""


class ServiceError(ReproError, RuntimeError):
    """The detection service could not satisfy a request.

    Base class for broker/registry failures that are *request* problems
    (unknown graph, malformed query, quota), as opposed to engine bugs.
    HTTP transports map subclasses onto status codes (404/400/429); the
    in-process client raises them directly.
    """


class UnknownGraphError(ServiceError, KeyError):
    """A query referenced a graph the registry does not hold.

    ``ref`` is the sha prefix or name the client sent.  Maps to HTTP 404.
    """

    def __init__(self, ref: str):
        super().__init__(f"no registered graph matches {ref!r}")
        self.ref = ref

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class QuotaExceededError(ServiceError):
    """A tenant exceeded its in-flight query quota (backpressure).

    The broker admits at most ``limit`` concurrently *executing* queries
    per tenant; the excess is rejected immediately — clients back off and
    retry rather than queueing unboundedly.  Maps to HTTP 429.
    """

    def __init__(self, tenant: str, limit: int):
        super().__init__(
            f"tenant {tenant!r} exceeded its quota of {limit} in-flight "
            f"quer{'y' if limit == 1 else 'ies'}; retry after one completes"
        )
        self.tenant = tenant
        self.limit = limit
