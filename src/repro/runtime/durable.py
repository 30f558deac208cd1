"""Durable checkpoints, crash recovery, and the wall-clock watchdog.

The paper's strong-scaling runs execute on over a thousand cores for
hours — a regime where a SIGKILL, OOM, or host reboot is routine.  This
module makes the :class:`~repro.core.engine.DetectionEngine` survive
them:

* an **envelope** format (:func:`write_envelope` / :func:`read_envelope`)
  — a one-line versioned header carrying a CRC32 and byte length over a
  JSON payload, committed via write-to-temp + ``fsync`` + atomic rename
  (+ directory ``fsync``), so a kill at any instant leaves either the
  previous or the new checkpoint intact, never a torn one;
* a :class:`CheckpointManager` — the engine's round-boundary sink: a
  store of per-stage records (round values and virtual times, the
  stage's identity and its fault state) beside the run's replay digest
  log, persisted every ``checkpoint_every`` rounds.  On resume it hands
  a stage its record back so the engine restores accumulators,
  re-advances the round-scoped RNG stream (children are
  spawn-order-derived, so re-requesting ``round0..roundN`` reproduces
  the stream position exactly), and continues — **bit-identical** to an
  uninterrupted run;
* a :class:`Watchdog` — a monitor thread plus cooperative ``check()``
  points that turn an exhausted wall-clock ``deadline`` or a stalled
  heartbeat (``hang_timeout``) into a typed
  :class:`~repro.errors.WatchdogExpired`, which the engine converts
  into a checkpointed, *degraded* partial result annotated with the
  stage's live ``(1 - p)^rounds`` failure bound instead of a silent death.

The checkpoint holds one record per stage, keyed ``e{n}:{problem}`` in
the order the run opens them (an engine runs one stage), beside the
run's digest log (format v2: a v1 file, with its rounds under
``stages`` and a label in each digest row, is refused)::

    {"engines": {"e0:k-path": {
         "identity": {...what the stage was computed for...},
         "values": [...], "virtuals": [...], "hit": false, "complete": false,
         "fault": {"remaining": [[idx, n|null], ...],
                   "counts": {...}, "accounting": {...}}}},
     "digests": {"phases": [[r, b, p, crc], ...], "rounds": [[r, crc], ...]}}

This module stores ``fault`` and ``digests`` without reading them: the
fault format is ``_FaultContext.state()`` in :mod:`repro.core.engine`
(its budgets ``FaultInjector.state()`` in :mod:`repro.runtime.faults`),
the digest rows ``DigestLog.rows()`` in :mod:`repro.sanitize.replay`.  A
v2 file of an older build holds two more top-level keys, a
configuration hash and a live-status snapshot, which nothing read: a
resume drops them.

Corrupt checkpoints (truncation, bit flips, wrong version) are rejected
with :class:`~repro.errors.CheckpointCorruptError` naming the file and
the failed check; resume falls back to restart-from-scratch only when
``allow_restart`` is set.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from repro.errors import CheckpointCorruptError, ConfigurationError, WatchdogExpired
from repro.util.log import get_logger

_LOG = get_logger(__name__)

#: envelope magic + format version; bump on incompatible payload changes
CHECKPOINT_MAGIC = "MIDAS-CKPT"
CHECKPOINT_VERSION = 2

#: file names inside a checkpoint directory
CHECKPOINT_FILE = "checkpoint.ckpt"
RUN_CONFIG_FILE = "run.json"

PathLike = Union[str, Path]


# --------------------------------------------------------------- envelope
def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # non-POSIX or unreadable dir: rename alone must do
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_envelope(path: PathLike, payload: dict) -> None:
    """Atomically persist ``payload`` as a CRC-protected checkpoint.

    Layout: one ASCII header line ``MIDAS-CKPT v<N> crc=<8hex>
    len=<bytes>`` followed by the JSON body.  The file is written to a
    temp name in the same directory, flushed and fsynced, then renamed
    over ``path`` — the only durable transition is the atomic rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    header = (f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} "
              f"crc={zlib.crc32(body):08x} len={len(body)}\n").encode("ascii")
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, header + body)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(str(tmp), str(path))
    _fsync_dir(path.parent)


def read_envelope(path: PathLike) -> dict:
    """Load and validate a checkpoint written by :func:`write_envelope`.

    Raises :class:`~repro.errors.CheckpointCorruptError` naming the file
    and the failed check: ``header`` (unparseable first line),
    ``version`` (unknown format version), ``truncated`` (body shorter
    than the declared length), or ``crc`` (bit rot / torn write).
    """
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointCorruptError(path, "header", "no header line")
    header, body = raw[:nl].decode("ascii", "replace"), raw[nl + 1:]
    parts = header.split()
    if len(parts) != 4 or parts[0] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(path, "header", f"bad header {header!r}")
    if parts[1] != f"v{CHECKPOINT_VERSION}":
        raise CheckpointCorruptError(
            path, "version",
            f"format {parts[1]} (this build reads v{CHECKPOINT_VERSION})",
        )
    try:
        crc = int(parts[2].removeprefix("crc="), 16)
        length = int(parts[3].removeprefix("len="))
    except ValueError:
        raise CheckpointCorruptError(path, "header", f"bad header {header!r}") from None
    if len(body) < length:
        raise CheckpointCorruptError(
            path, "truncated", f"body has {len(body)} of {length} bytes"
        )
    body = body[:length]
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError(
            path, "crc", f"expected {crc:08x}, got {zlib.crc32(body):08x}"
        )
    try:
        return json.loads(body.decode("utf-8"))
    except ValueError as exc:  # CRC passed but JSON broken: impossible bar bugs
        raise CheckpointCorruptError(path, "payload", str(exc)) from exc


# --------------------------------------------------------- value encoding
def encode_value(value: Any) -> Any:
    """JSON-encode a round accumulator: GF scalar (int) or weight-axis
    numpy vector.  Ints round-trip exactly; vectors are stored as plain
    int lists and re-materialized with the spec's field dtype."""
    if isinstance(value, np.ndarray):
        return [int(x) for x in value.tolist()]
    return int(value)


def decode_value(encoded: Any, spec) -> Any:
    """Inverse of :func:`encode_value` for ``spec``'s accumulator type."""
    if isinstance(encoded, list):
        return np.asarray(encoded, dtype=spec.field.dtype)
    return int(encoded)


# ------------------------------------------------------------- run config
def write_run_config(directory: PathLike, config: dict) -> None:
    """Persist the CLI argument namespace that started a run (atomic),
    so ``repro resume <dir>`` can reconstruct the exact invocation."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / RUN_CONFIG_FILE
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    os.replace(str(tmp), str(path))
    _fsync_dir(directory)


def load_run_config(directory: PathLike) -> dict:
    """Read back the config written by :func:`write_run_config`."""
    path = Path(directory) / RUN_CONFIG_FILE
    if not path.exists():
        raise ConfigurationError(
            f"{path} not found — was the run started with --checkpoint-dir?"
        )
    try:
        cfg = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigurationError(f"{path}: invalid run config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: run config must be a JSON object")
    return cfg


# ------------------------------------------------------------- checkpoint
class CheckpointManager:
    """Round-boundary durable state: one record per stage beside the
    run's digest log (the layout is the module docstring's).

    The engine calls it in two places: :meth:`open_stage` when its stage
    starts and :meth:`note_round` after each reported round; a flush
    (:meth:`save`) writes what was last noted.  Stages key by *creation
    order* plus problem (``e{n}:{problem}``: scan extraction runs many in
    one process); drivers open them deterministically, so a resumed
    process consumes the same keys in the same order, and
    :meth:`open_stage` checks that each stored record *is* its stage's.
    ``digests`` is the run's :class:`~repro.sanitize.replay.DigestLog`,
    if any.
    """

    def __init__(self, directory: PathLike, every: int = 1,
                 resume: bool = False, allow_restart: bool = False,
                 digests=None) -> None:
        if every < 1:
            raise ConfigurationError(f"checkpoint_every must be >= 1, got {every}")
        self.dir = Path(directory)
        self.path = self.dir / CHECKPOINT_FILE
        self.every = int(every)
        self.allow_restart = allow_restart
        self.digests = digests
        self.resumed_from: Optional[str] = None
        self.state: dict = {"engines": {}, "digests": None}
        # the stored digest rows until the first stage opens: its question's
        # if it resumes, another's if it restarts
        self._stored_digests = None
        self._opened = 0
        self._rounds_since_save = 0
        self._lock = threading.Lock()
        if resume and self.path.exists():
            try:
                payload = read_envelope(self.path)
            except CheckpointCorruptError:
                if not allow_restart:
                    raise
                _LOG.warning("discarding corrupt checkpoint %s (allow_restart)",
                             self.path)
            else:
                # an older v2 file's other top-level keys are dropped
                self.state = {"engines": payload.get("engines", {}),
                              "digests": payload.get("digests")}
                self._stored_digests = self.state["digests"]
                self.resumed_from = str(self.dir)
                _LOG.info("resuming from checkpoint %s", self.path)

    def open_stage(self, problem: str, identity: dict) -> Tuple[str, dict]:
        """Open the run's next stage, computed for ``identity``: its key and
        its record — what a resumed checkpoint holds for it (the rounds and
        the fault state to restore), else a fresh one.

        A checkpointed stage computed for anything else — another graph,
        ``k``, seed, ... — raises :class:`~repro.errors.CheckpointCorruptError`
        naming the first differing field; under ``allow_restart`` the
        stage restarts from scratch, fault state and digest log included.
        """
        with self._lock:
            ekey = f"e{self._opened}:{problem}"
            self._opened += 1
            stored, self._stored_digests = self._stored_digests, None
            st = self.state["engines"].get(ekey, {})
            if "values" in st:
                kept = st.get("identity") or {}
                differs = [f for f in identity if kept.get(f) != identity[f]]
                if not differs:
                    if stored and self.digests is not None:
                        self.digests.load(stored)
                    return ekey, st
                if not self.allow_restart:
                    raise CheckpointCorruptError(
                        self.path, "identity",
                        f"engine {ekey!r} was computed for a different "
                        f"{differs[0]} ({kept.get(differs[0])!r}, this run "
                        f"has {identity[differs[0]]!r})")
                _LOG.warning("engine %r of %s was computed for a different %s: "
                             "restarting it (allow_restart)",
                             ekey, self.path, differs[0])
            if stored:
                self.state["digests"] = None
            st = self.state["engines"][ekey] = {
                "identity": identity, "values": [], "virtuals": [],
                "hit": False, "complete": False, "fault": None}
            return ekey, st

    def note_round(self, ekey: str, value, virtual: float, hit: bool,
                   complete: bool, fault: Optional[dict] = None) -> None:
        """Record one completed round of stage ``ekey`` and its engine's
        fault state after it; persists every ``every`` rounds and always
        at the stage's end (hit or planned rounds exhausted)."""
        with self._lock:
            st = self.state["engines"][ekey]
            st["values"].append(encode_value(value))
            st["virtuals"].append(float(virtual))
            st["hit"] = bool(st["hit"] or hit)
            st["complete"] = bool(complete)
            st["fault"] = fault
            self._rounds_since_save += 1
            due = complete or self._rounds_since_save >= self.every
        if due:
            self.save()

    def save(self) -> None:
        """Commit the noted records and the digest log atomically."""
        with self._lock:
            if self.digests is not None and self._stored_digests is None:
                self.state["digests"] = self.digests.rows()
            write_envelope(self.path, self.state)
            self._rounds_since_save = 0


# --------------------------------------------------------------- watchdog
class Watchdog:
    """Wall-clock deadline and stalled-heartbeat detection.

    Cooperative: the engine calls :meth:`beat` whenever the run makes
    progress (simulator heartbeats, completed phases) and :meth:`check`
    at safe interruption points (round boundaries, heartbeats);
    ``check`` raises :class:`~repro.errors.WatchdogExpired` once the
    ``deadline`` (seconds since :meth:`start`) is exhausted or no beat
    arrived within ``hang_timeout`` seconds.  A daemon monitor thread
    also evaluates the conditions in the background so a hard-hung run
    still gets its ``on_trip`` callback (checkpoint flush) — the raise
    itself always happens at a cooperative point.

    ``cancelled`` is asked by :meth:`check` only, never by the monitor
    thread: once it returns True the watchdog trips with reason
    ``"cancelled"`` (a service fleet worker whose caller stopped waiting).
    """

    def __init__(self, deadline: Optional[float] = None,
                 hang_timeout: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 poll_interval: Optional[float] = None,
                 cancelled: Optional[Callable[[], bool]] = None) -> None:
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ConfigurationError(f"hang_timeout must be > 0, got {hang_timeout}")
        self.deadline = deadline
        self.hang_timeout = hang_timeout
        self._clock = clock
        self._poll = poll_interval
        self._cancelled = cancelled
        self._lock = threading.Lock()
        self._started: Optional[float] = None
        self._last_beat: Optional[float] = None
        self._tripped: Optional[tuple] = None  # (reason, detail)
        self._on_trip: Optional[Callable[[], None]] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def armed(self) -> bool:
        return self.deadline is not None or self.hang_timeout is not None

    @property
    def tripped(self) -> Optional[tuple]:
        """The ``(reason, detail)`` pair once expired, else None."""
        with self._lock:
            return self._tripped

    def start(self, on_trip: Optional[Callable[[], None]] = None,
              monitor: bool = True) -> "Watchdog":
        """Arm the watchdog (idempotent).  ``on_trip`` runs at most once,
        from the monitor thread, when a trip is first detected there."""
        with self._lock:
            if on_trip is not None:
                self._on_trip = on_trip
            if self._started is not None:
                return self
            self._started = self._clock()
            self._last_beat = self._started
        if monitor and self.armed and self._thread is None:
            waits = [t for t in (self.deadline, self.hang_timeout) if t is not None]
            poll = self._poll if self._poll is not None else max(
                0.05, min(min(waits) / 4.0, 1.0))
            self._thread = threading.Thread(
                target=self._monitor, args=(poll,),
                name="midas-watchdog", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Disarm the monitor thread (the cooperative checks stay live)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def beat(self) -> None:
        """Record progress; resets the ``hang_timeout`` clock."""
        with self._lock:
            self._last_beat = self._clock()

    def _evaluate_locked(self) -> Optional[tuple]:
        if self._started is None:
            return None
        now = self._clock()
        if self.deadline is not None and now - self._started > self.deadline:
            return ("deadline",
                    f"wall-clock deadline of {self.deadline:g}s exhausted "
                    f"after {now - self._started:.3g}s")
        if self.hang_timeout is not None and self._last_beat is not None \
                and now - self._last_beat > self.hang_timeout:
            return ("stall",
                    f"no heartbeat for {now - self._last_beat:.3g}s "
                    f"(hang_timeout {self.hang_timeout:g}s)")
        return None

    def check(self) -> None:
        """Raise :class:`~repro.errors.WatchdogExpired` if expired."""
        with self._lock:
            trip = self._tripped or self._evaluate_locked()
            if trip is None and self._cancelled is not None and self._cancelled():
                trip = ("cancelled", "the caller stopped waiting for the run")
            self._tripped = trip
        if trip is not None:
            raise WatchdogExpired(trip[1], reason=trip[0])

    def _monitor(self, poll: float) -> None:
        while not self._stop.wait(poll):
            with self._lock:
                trip = self._tripped or self._evaluate_locked()
                first = trip is not None and self._tripped is None
                self._tripped = trip
                cb = self._on_trip
            if trip is not None:
                if first and cb is not None:
                    try:
                        cb()
                    except Exception:  # a failing flush must not kill the thread
                        _LOG.exception("watchdog on_trip callback failed")
                _LOG.warning("watchdog tripped (%s): %s", trip[0], trip[1])
                return


__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "RUN_CONFIG_FILE",
    "CheckpointManager",
    "Watchdog",
    "decode_value",
    "encode_value",
    "load_run_config",
    "read_envelope",
    "write_envelope",
    "write_run_config",
]
