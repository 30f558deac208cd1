"""Communication operations for simulated rank programs.

A *rank program* is a generator: between yields it runs real (numpy)
computation; each yield hands the scheduler one of the ops below.  This is
the buffer-discipline subset of MPI that paper Algorithm 2's rank program
(:func:`repro.core.leveldp.phase_program`) speaks — eager point-to-point
sends and (nonblocking) receives for the halo exchange, and one XOR
all-reduce per round — plus :class:`Charge` for modeled compute.

Payload sizes are accounted explicitly: ``nbytes=None`` lets the op infer
the size from numpy arrays (``arr.nbytes``), matching the guide's advice to
communicate buffers, not pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Union

import numpy as np

ReduceOp = Union[str, Callable[[Any, Any], Any]]


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload (numpy arrays are exact)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    return 64  # opaque object: charge a token amount


@dataclass
class Op:
    """Base class for yielded operations."""


@dataclass
class Send(Op):
    """Eager (buffered) point-to-point send; does not block the sender."""

    dst: int
    tag: Hashable
    payload: Any
    nbytes: Optional[int] = None

    def wire_bytes(self) -> int:
        return self.nbytes if self.nbytes is not None else payload_nbytes(self.payload)


@dataclass
class Recv(Op):
    """Blocking receive of a message with matching (src, tag)."""

    src: int
    tag: Hashable


@dataclass(frozen=True)
class RecvRequest:
    """Handle returned by :class:`Irecv`; redeem with :class:`Wait`."""

    src: int
    tag: Hashable


@dataclass
class Irecv(Op):
    """Post a nonblocking receive; yields a :class:`RecvRequest` immediately.

    The request is redeemed later with :class:`Wait` — the MPI
    ``MPI_Irecv``/``MPI_Wait`` pattern that lets a rank compute while a
    message is in flight (communication/computation overlap).  In the
    simulator, posting costs nothing; the payoff is that the rank's clock
    advances with its compute *before* the wait, so an early-arriving
    message is free.
    """

    src: int
    tag: Hashable


@dataclass
class Wait(Op):
    """Complete a posted :class:`Irecv`; blocks until the message arrives."""

    request: RecvRequest


@dataclass
class AllReduce(Op):
    """Combine a value across all ranks; everyone gets the result.

    ``op`` is ``"xor"`` (GF(2^m) sum — the one MIDAS uses), ``"sum"``,
    ``"max"``, ``"min"``, or a binary callable.
    """

    value: Any
    op: ReduceOp = "xor"
    nbytes: Optional[int] = None

    def wire_bytes(self) -> int:
        return self.nbytes if self.nbytes is not None else payload_nbytes(self.value)


@dataclass
class Charge(Op):
    """Add modeled compute seconds to this rank's virtual clock.

    Used when a program wants model-driven rather than measured timing for a
    compute segment (e.g. replaying a paper-scale workload on a small host).
    """

    seconds: float


_BUILTIN_REDUCERS = {
    "xor": lambda a, b: np.bitwise_xor(a, b) if isinstance(a, np.ndarray) else (a ^ b),
    "sum": lambda a, b: a + b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
}


def resolve_reducer(op: ReduceOp) -> Callable[[Any, Any], Any]:
    """Resolve a reduce op spec to a binary callable."""
    if callable(op):
        return op
    if op in _BUILTIN_REDUCERS:
        return _BUILTIN_REDUCERS[op]
    raise ValueError(f"unknown reduce op {op!r}; use one of {sorted(_BUILTIN_REDUCERS)}")
