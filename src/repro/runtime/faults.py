"""Deterministic fault injection for the simulated MPI substrate.

The paper's clusters (Juliet: 32x36, Shadowfax: 32x32 cores) are real
machines where ranks die, links drop packets, and nodes straggle.  This
module lets the simulator reproduce those anomalies *deterministically*:
a :class:`FaultPlan` is a seeded description of what goes wrong, a
:class:`FaultInjector` turns it into per-run decisions, and the
:class:`~repro.runtime.scheduler.Simulator` consults the injector at
every decision point (rank op boundaries, message sends, compute
charging).  The same plan + seed always yields the same transcript, so
fault scenarios are as reproducible as fault-free runs — the property
the driver's retry logic and the chaos CI job both rely on.

Fault kinds
-----------

``crash``
    Kill a rank at a virtual time or after its n-th message, all-reduce
    or charge.  Dead ranks stop executing; collectives and receives
    involving them raise :class:`~repro.errors.RankFailedError` instead of
    hanging.
``drop`` / ``duplicate`` / ``delay``
    Per-message delivery faults on matching ``(src, dst, tag)`` edges,
    fired with probability ``p`` from the injector's seeded stream.
``send_fail``
    Transient failure of one message: the sender receives a
    :class:`~repro.errors.SendFailedError` at its ``Exchange`` yield, after
    the earlier messages went, and may post the exchange again.
``straggler``
    Degrade a rank's (or a whole node's) compute rate by ``factor`` —
    the per-node ``c_scale`` degradation of a thermally throttled or
    oversubscribed machine.

Budgets and retries
-------------------

Every spec carries ``max_events`` (``None`` = unlimited).  Budgets are
tracked on the :class:`FaultInjector`, *shared across runs*: a crash
with ``max_events=1`` fires in the first attempt of a phase and is
spent, so the driver's re-execution succeeds — the mechanism behind the
"any recoverable plan converges to the fault-free answer" guarantee.
Each run gets an independent seeded RNG stream derived from
``(plan.seed, run key)``, so probabilistic faults differ across
attempts while remaining reproducible end to end.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

FAULT_KINDS = ("crash", "drop", "duplicate", "delay", "send_fail", "straggler")


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a plan.  Fields are interpreted per ``kind``:

    * ``crash``: ``rank`` (required), ``at_time`` (virtual seconds) or
      ``after_ops`` (messages, all-reduces and charges; default 0).
    * ``drop``/``duplicate``/``delay``/``send_fail``: ``src``/``dst``/
      ``tag`` select matching messages (``None`` = any), ``p`` the
      per-message firing probability, ``delay`` the extra seconds for
      the ``delay`` kind.
    * ``straggler``: ``rank`` or ``node`` (resolved against the cost
      model's placement) and ``factor`` >= 1 multiplying compute time.

    ``max_events`` bounds how many times the spec may fire across *all*
    runs sharing a :class:`FaultInjector` (``None`` = unlimited, except
    for the fatal/lossy kinds ``crash``/``drop``/``send_fail``, which
    default to 1 so a driver retry runs clean — pass a large explicit
    budget to model a persistent fault).
    """

    kind: str
    rank: Optional[int] = None
    node: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[Hashable] = None
    p: float = 1.0
    at_time: Optional[float] = None
    after_ops: Optional[int] = None
    delay: float = 0.0
    factor: float = 1.0
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ConfigurationError(f"fault probability must be in [0, 1], got {self.p}")
        if self.kind == "crash":
            if self.rank is None:
                raise ConfigurationError("crash fault needs a rank")
            if self.at_time is None and self.after_ops is None:
                object.__setattr__(self, "after_ops", 0)
        if self.kind == "straggler":
            if self.rank is None and self.node is None:
                raise ConfigurationError("straggler fault needs a rank or a node")
            if self.factor < 1.0:
                raise ConfigurationError(
                    f"straggler factor must be >= 1, got {self.factor}"
                )
        if self.kind == "delay" and self.delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay}")
        if self.max_events is not None and self.max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {self.max_events}")
        if self.max_events is None and self.kind in ("crash", "drop", "send_fail"):
            # fatal/lossy faults are once-only unless told otherwise, so
            # plans loaded from JSON stay recoverable by default
            object.__setattr__(self, "max_events", 1)

    def matches_message(self, src: int, dst: int, tag: Hashable) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.tag is None or self.tag == tag)
        )

    def to_dict(self) -> dict:
        d: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            if f.name == "kind":
                continue
            v = getattr(self, f.name)
            if v != f.default:
                d[f.name] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "FaultSpec":
        known = {f.name for f in fields(FaultSpec)}
        extra = set(d) - known
        if extra:
            raise ConfigurationError(f"unknown fault spec fields: {sorted(extra)}")
        if "kind" not in d:
            raise ConfigurationError(f"fault spec needs a 'kind': {d}")
        return FaultSpec(**d)


# Convenience constructors — the names the tests and docs use.
def crash(rank: int, at_time: Optional[float] = None,
          after_ops: Optional[int] = None, max_events: Optional[int] = 1) -> FaultSpec:
    """Kill ``rank`` at a virtual time or after its n-th op.

    Defaults to ``max_events=1``: the crash fires once across the
    injector's lifetime, so a driver retry of the affected phase runs
    clean — the recoverable-crash scenario.
    """
    return FaultSpec("crash", rank=rank, at_time=at_time, after_ops=after_ops,
                     max_events=max_events)


def drop(src: Optional[int] = None, dst: Optional[int] = None,
         tag: Optional[Hashable] = None, p: float = 1.0,
         max_events: Optional[int] = 1) -> FaultSpec:
    """Drop matching messages (never delivered)."""
    return FaultSpec("drop", src=src, dst=dst, tag=tag, p=p, max_events=max_events)


def duplicate(src: Optional[int] = None, dst: Optional[int] = None,
              tag: Optional[Hashable] = None, p: float = 1.0,
              max_events: Optional[int] = None) -> FaultSpec:
    """Deliver matching messages twice (the MPI-impossible network bug)."""
    return FaultSpec("duplicate", src=src, dst=dst, tag=tag, p=p,
                     max_events=max_events)


def delay(extra: float, src: Optional[int] = None, dst: Optional[int] = None,
          tag: Optional[Hashable] = None, p: float = 1.0,
          max_events: Optional[int] = None) -> FaultSpec:
    """Add ``extra`` virtual seconds to matching messages' arrival."""
    return FaultSpec("delay", src=src, dst=dst, tag=tag, p=p, delay=extra,
                     max_events=max_events)


def send_fail(src: Optional[int] = None, dst: Optional[int] = None,
              tag: Optional[Hashable] = None, p: float = 1.0,
              max_events: Optional[int] = 1) -> FaultSpec:
    """Fail matching Sends transiently (SendFailedError into the program)."""
    return FaultSpec("send_fail", src=src, dst=dst, tag=tag, p=p,
                     max_events=max_events)


def straggler(rank: Optional[int] = None, node: Optional[int] = None,
              factor: float = 2.0) -> FaultSpec:
    """Slow a rank's (or node's) compute by ``factor``."""
    return FaultSpec("straggler", rank=rank, node=node, factor=factor)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of faults to inject into simulated runs."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", int(seed))
        for s in self.specs:
            if not isinstance(s, FaultSpec):
                raise ConfigurationError(f"FaultPlan takes FaultSpecs, got {s!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @staticmethod
    def from_dict(d: dict) -> "FaultPlan":
        if not isinstance(d, dict):
            raise ConfigurationError(f"fault plan must be a JSON object, got {type(d).__name__}")
        extra = set(d) - {"seed", "faults"}
        if extra:
            raise ConfigurationError(f"unknown fault plan fields: {sorted(extra)}")
        return FaultPlan(
            specs=[FaultSpec.from_dict(s) for s in d.get("faults", [])],
            seed=int(d.get("seed", 0)),
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            return FaultPlan.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault plan JSON: {exc}") from exc


def load_fault_plan(source: Union[str, Path, dict, "FaultPlan", None]) -> Optional[FaultPlan]:
    """Coerce a CLI-ish fault plan source into a :class:`FaultPlan`.

    Accepts an existing plan, a dict, an inline JSON string (first
    non-space char ``{``), or a path to a JSON file.  ``None``/empty
    returns ``None``.
    """
    if source is None:
        return None
    if isinstance(source, FaultPlan):
        return source
    if isinstance(source, dict):
        return FaultPlan.from_dict(source)
    text = str(source).strip()
    if not text:
        return None
    if text.startswith("{"):
        return FaultPlan.from_json(text)
    path = Path(text)
    if not path.exists():
        raise ConfigurationError(f"fault plan file not found: {path}")
    return FaultPlan.from_json(path.read_text())


def backoff_jitter(seed: int, key: str, attempt: int) -> float:
    """Seeded retry-backoff jitter in ``[0, 1)``.

    The driver scales its exponential backoff by ``1 + u`` with ``u``
    drawn here, keyed by ``(plan seed, phase key, attempt)`` — the same
    derivation :class:`RunInjector` uses for per-run fault streams.  Two
    phases (or two ranks retrying the same plan in different processes)
    get different jitter, so retries never synchronize; the same phase
    retried in a replayed or crash-resumed run draws the identical
    value, so virtual time stays bit-deterministic.
    """
    digest = zlib.crc32(f"{key}/backoff{attempt}".encode("utf-8"))
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, digest])
    )
    return float(rng.random())


@dataclass
class SendVerdict:
    """The injector's decision for one message send."""

    deliver: bool = True
    copies: int = 1  # delivered copies when deliver (2 = duplicated)
    extra_delay: float = 0.0
    fail: bool = False  # transient SendFailedError into the sender


class RunInjector:
    """Per-simulator-run view of a plan: the object the scheduler asks.

    Created by :meth:`FaultInjector.for_run`; holds a seeded RNG derived
    from ``(plan.seed, run key)`` and shares trigger budgets with its
    parent injector.  All queries are made in the scheduler's
    deterministic order, so decisions are reproducible.
    """

    def __init__(self, parent: "FaultInjector", key: str) -> None:
        self._parent = parent
        self.key = key
        digest = zlib.crc32(key.encode("utf-8"))
        self._rng = np.random.default_rng(
            np.random.SeedSequence([parent.plan.seed & 0xFFFFFFFF, digest])
        )
        self.counts: Dict[str, int] = {}
        self.dropped: List[Tuple[int, int, Hashable]] = []

    # ------------------------------------------------------------- helpers
    def _fire(self, idx: int, spec: FaultSpec) -> bool:
        """Seeded coin flip + shared budget check; counts the event."""
        if not self._parent._budget_ok(idx):
            return False
        if spec.p < 1.0 and float(self._rng.random()) >= spec.p:
            return False
        self._parent._consume(idx)
        self.counts[spec.kind] = self.counts.get(spec.kind, 0) + 1
        return True

    # ------------------------------------------------------------- queries
    def crash_for(self, rank: int) -> Optional[FaultSpec]:
        """The pending crash spec for ``rank`` (budget not yet consumed)."""
        for idx, spec in enumerate(self._parent.plan.specs):
            if spec.kind == "crash" and spec.rank == rank and self._parent._budget_ok(idx):
                return spec
        return None

    def consume_crash(self, rank: int) -> bool:
        """Consume the crash budget for ``rank``; True when it fires."""
        for idx, spec in enumerate(self._parent.plan.specs):
            if spec.kind == "crash" and spec.rank == rank and self._fire(idx, spec):
                return True
        return False

    def compute_factor(self, rank: int, node: Optional[int] = None) -> float:
        """Compound straggler slowdown for ``rank`` (on ``node``)."""
        factor = 1.0
        for idx, spec in enumerate(self._parent.plan.specs):
            if spec.kind != "straggler":
                continue
            if (spec.rank is not None and spec.rank == rank) or (
                spec.node is not None and node is not None and spec.node == node
            ):
                factor *= spec.factor
                self.counts["straggler"] = self.counts.get("straggler", 0) + 1
        return factor

    def on_send(self, src: int, dst: int, tag: Hashable) -> SendVerdict:
        """Delivery verdict for one message, in deterministic send order."""
        v = SendVerdict()
        for idx, spec in enumerate(self._parent.plan.specs):
            if spec.kind == "send_fail" and spec.matches_message(src, dst, tag):
                if self._fire(idx, spec):
                    v.fail = True
                    return v
        for idx, spec in enumerate(self._parent.plan.specs):
            if spec.kind not in ("drop", "duplicate", "delay"):
                continue
            if not spec.matches_message(src, dst, tag):
                continue
            if not self._fire(idx, spec):
                continue
            if spec.kind == "drop":
                v.deliver = False
                self.dropped.append((src, dst, tag))
            elif spec.kind == "duplicate":
                v.copies += 1
            else:
                v.extra_delay += spec.delay
        return v

    @property
    def any_fired(self) -> bool:
        return bool(self.counts)


class FaultInjector:
    """Stateful driver-level injector: shared budgets across many runs.

    One injector lives for a whole detection; every simulated phase
    attempt calls :meth:`for_run` with a unique key (schedule coordinates
    + attempt index) to obtain the :class:`RunInjector` the simulator
    consults.  Budgets (``max_events``) are decremented here, so a
    once-only crash observed in attempt 0 is *not* replayed in attempt 1.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(f"FaultInjector needs a FaultPlan, got {plan!r}")
        self.plan = plan
        self._remaining: Dict[int, Optional[int]] = {
            i: s.max_events for i, s in enumerate(plan.specs)
        }
        self.total_counts: Dict[str, int] = {}

    def _budget_ok(self, idx: int) -> bool:
        rem = self._remaining[idx]
        return rem is None or rem > 0

    def _consume(self, idx: int) -> None:
        rem = self._remaining[idx]
        if rem is not None:
            self._remaining[idx] = rem - 1
        kind = self.plan.specs[idx].kind
        self.total_counts[kind] = self.total_counts.get(kind, 0) + 1

    def for_run(self, key: str) -> RunInjector:
        """A per-run view with an independent seeded stream for ``key``."""
        return RunInjector(self, key)

    def exhausted(self) -> bool:
        """True when every bounded spec has spent its budget."""
        return all(rem == 0 for rem in self._remaining.values() if rem is not None)

    def state(self) -> dict:
        """The budgets left and the faults fired, as a checkpoint stores them."""
        return {"remaining": [[i, rem] for i, rem in sorted(self._remaining.items())],
                "counts": dict(self.total_counts)}

    def restore(self, state: dict) -> None:
        """Continue from :meth:`state`'s output (a resumed stage's)."""
        self._remaining = dict(state["remaining"])
        self.total_counts = dict(state["counts"])


def as_run_injector(
    faults: Union[FaultPlan, FaultInjector, RunInjector, None], key: str = "run"
) -> Optional[RunInjector]:
    """Normalize a Simulator ``faults`` argument to a :class:`RunInjector`.

    A bare plan gets a private single-use injector (budgets scoped to
    this one run); a :class:`FaultInjector` yields a run view keyed by
    ``key``; a :class:`RunInjector` passes through.
    """
    if faults is None:
        return None
    if isinstance(faults, RunInjector):
        return faults
    if isinstance(faults, FaultInjector):
        return faults.for_run(key)
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults).for_run(key)
    raise ConfigurationError(
        f"faults must be a FaultPlan, FaultInjector, or RunInjector, got {faults!r}"
    )
