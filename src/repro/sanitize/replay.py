"""Deterministic-replay verification for the detection engine.

The engine claims every backend is *bit-identical*: randomness is
round-scoped and XOR accumulation is order-free, so the runs of one seed
agree exactly in every mode.  That claim is property-tested, but nothing
made it a checkable *runtime* property of a particular run.  This module
does:

* :class:`DigestLog` — a sink the engine fills with CRC digests of every
  per-phase contribution (keyed ``(round, batch, phase)``) and every
  per-round accumulator (keyed ``(round,)``), when attached via
  ``MidasRuntime.digest_log``;
* :func:`verify_replay` — run a driver once under the caller's runtime
  and once on a *reference* backend with the same seed and a pinned
  schedule, then diff the two logs and report the first divergent
  coordinate (phases first, in schedule order, then round accumulators).

The schedule is pinned by resolving ``n2`` to a concrete power of two
before either run: ``MidasRuntime.schedule_for`` caps an explicit ``n2``
identically in every mode, so both executions decompose each round into
the same (batch, phase) windows and the digest keys align.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ReplayMismatchError


def value_digest(value: Any) -> int:
    """CRC digest of a phase contribution / round accumulator.

    Accumulators are GF(2^l) scalars (Python ints) or weight-axis numpy
    vectors; both digest by content, so equal values always collide and
    any single-bit difference (whp) does not.
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return zlib.crc32(arr.tobytes(), zlib.crc32(str(arr.dtype).encode()))
    return zlib.crc32(int(value).to_bytes(16, "little", signed=True))


class DigestLog:
    """Per-phase and per-round digests of one engine execution (an
    engine runs one stage, so a round index names its round)."""

    def __init__(self) -> None:
        # (round, batch, phase) -> digest of the phase contribution
        self.phases: Dict[Tuple[int, int, int], int] = {}
        # (round,) -> digest of the round accumulator
        self.rounds: Dict[Tuple[int], int] = {}

    def record_phase(self, round_index: int, batch: int, phase: int,
                     digest: int) -> None:
        self.phases[(round_index, batch, phase)] = digest

    def record_round(self, round_index: int, digest: int) -> None:
        self.rounds[(round_index,)] = digest

    def forget_phases(self, rounds: range) -> None:
        """Drop the phase digests of ``rounds``: an early exit evaluated
        them in its round batch, but the run ended before them."""
        for key in [key for key in self.phases if key[0] in rounds]:
            del self.phases[key]

    def rows(self) -> dict:
        """The log as a checkpoint stores it: sorted ``[r, b, p, crc]``
        phase rows and ``[r, crc]`` round rows."""
        return {"phases": [[*key, crc] for key, crc in sorted(self.phases.items())],
                "rounds": [[*key, crc] for key, crc in sorted(self.rounds.items())]}

    def load(self, rows: dict) -> None:
        """Record :meth:`rows`' output (a resumed run's digests)."""
        for r, b, p, crc in rows["phases"]:
            self.record_phase(r, b, p, crc)
        for r, crc in rows["rounds"]:
            self.record_round(r, crc)

    def __len__(self) -> int:
        return len(self.phases) + len(self.rounds)


@dataclass(frozen=True)
class ReplayDivergence:
    """The first coordinate where two digest logs disagree.

    ``what`` is ``"phase"`` (a single phase window's contribution
    differs, or exists in only one run) or ``"round"`` (a round
    accumulator differs — possible with matching phase digests only if
    accumulation itself is broken, e.g. a non-commutative combine).
    """

    what: str
    round_index: int
    batch: Optional[int]
    primary: Optional[int]
    reference: Optional[int]
    phase: Optional[int] = None

    def message(self) -> str:
        where = f"round {self.round_index}"
        if self.what == "phase":
            where += f", batch {self.batch}, phase {self.phase}"
        def fmt(d):
            return "missing" if d is None else f"{d:#010x}"
        return (f"replay diverged at {where} ({self.what} digest): "
                f"primary {fmt(self.primary)} != reference {fmt(self.reference)}")


@dataclass
class ReplayReport:
    """Outcome of :func:`verify_replay`."""

    primary_mode: str
    reference_mode: str
    phases_checked: int
    rounds_checked: int
    divergence: Optional[ReplayDivergence] = None
    primary_result: Any = None
    reference_result: Any = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def text(self) -> str:
        head = (f"replay {self.primary_mode} vs {self.reference_mode}: "
                f"{self.phases_checked} phase / {self.rounds_checked} round "
                f"digests compared")
        if self.ok:
            return head + " — identical"
        return head + "\n  " + self.divergence.message()

    def raise_if_divergent(self) -> None:
        d = self.divergence
        if d is not None:
            raise ReplayMismatchError(
                d.message(), round_index=d.round_index, batch=d.batch,
                phase=d.phase,
            )


def diff_digest_logs(primary: DigestLog,
                     reference: DigestLog) -> Optional[ReplayDivergence]:
    """First divergent coordinate between two logs, or ``None``.

    Phase digests are compared first, in (round, batch, phase) order, so
    a single corrupted phase is pinpointed rather than blamed on the
    round accumulator it poisons.  A key present in only one log
    (early exit at different rounds, mismatched schedules) counts as a
    divergence at that key.
    """
    for key in sorted(set(primary.phases) | set(reference.phases)):
        a = primary.phases.get(key)
        b = reference.phases.get(key)
        if a != b:
            ell, batch, phase = key
            return ReplayDivergence("phase", ell, batch, a, b, phase=phase)
    for key in sorted(set(primary.rounds) | set(reference.rounds)):
        a = primary.rounds.get(key)
        b = reference.rounds.get(key)
        if a != b:
            return ReplayDivergence("round", key[0], None, a, b)
    return None


def verify_replay(
    driver: Callable,
    graph,
    *args,
    runtime=None,
    reference_mode: str = "sequential",
    seed: int = 20260806,
    strict: bool = True,
    **kwargs,
) -> ReplayReport:
    """Execute ``driver`` twice — primary and reference backend — and diff
    per-phase/per-round digests.

    ``driver`` is any engine driver that accepts ``rng=`` and ``runtime=``
    keywords (:func:`~repro.core.midas.detect_path`, ``detect_tree``,
    ``max_weight_path``, ``detect_scan_cell``, ``scan_grid``); positional
    ``args`` and extra ``kwargs`` are passed through to both runs.  Both
    runs draw from the same integer ``seed``, so their round fingerprints
    are identical and every digest must match.

    Every mode is a reference: the reference runtime is the primary's
    with ``mode=reference_mode``, which its construction validates.  It
    drops the primary's fault plan and recorder (the reference is a
    clean machine) but keeps ``(N, N1)`` and the resolved ``n2``, so the
    schedules align.  Returns a :class:`ReplayReport`; with ``strict`` a
    divergence raises :class:`~repro.errors.ReplayMismatchError` locating
    the first divergent (round, batch, phase).
    """
    from repro.core.engine import MidasRuntime

    rt = runtime if runtime is not None else MidasRuntime()
    # pin the schedule: an explicit n2 resolves identically in every mode
    n2 = rt.n2 if rt.n2 is not None else 64
    pri_log, ref_log = DigestLog(), DigestLog()
    pri_rt = dataclasses.replace(rt, n2=n2, digest_log=pri_log, recorder=None)
    ref_rt = dataclasses.replace(
        rt, mode=reference_mode, n2=n2, digest_log=ref_log,
        recorder=None, fault_plan=None,
    )
    primary_result = driver(graph, *args, rng=seed, runtime=pri_rt, **kwargs)
    reference_result = driver(graph, *args, rng=seed, runtime=ref_rt, **kwargs)
    report = ReplayReport(
        primary_mode=rt.mode,
        reference_mode=reference_mode,
        phases_checked=len(set(pri_log.phases) | set(ref_log.phases)),
        rounds_checked=len(set(pri_log.rounds) | set(ref_log.rounds)),
        divergence=diff_digest_logs(pri_log, ref_log),
        primary_result=primary_result,
        reference_result=reference_result,
    )
    if strict:
        report.raise_if_divergent()
    return report


__all__ = [
    "DigestLog",
    "ReplayDivergence",
    "ReplayReport",
    "diff_digest_logs",
    "value_digest",
    "verify_replay",
]
