"""Communication operations for simulated rank programs.

A *rank program* is a generator: between yields it runs real (numpy)
computation; each yield hands the scheduler one of the ops below.  They
are what paper Algorithm 2's rank program
(:func:`repro.core.leveldp.phase_program`) speaks: a halo exchange per DP
level, posted with :class:`Exchange` and completed with :class:`Collect`,
one XOR :class:`AllReduce` per phase, plus :class:`Charge` for modeled
compute.

Payload sizes are accounted explicitly: an exchange charges each message
``len(rows) * row_bytes`` when ``row_bytes`` is given, else the rows' own
size (``rows.nbytes``); an all-reduce of a scalar moves one 8-byte word.
Messages are buffers, not pickles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np


@dataclass
class Op:
    """Base class for yielded operations."""


@dataclass
class Exchange(Op):
    """Post one halo exchange: send ``sends[peer]`` to every peer now and
    expect one message from each rank of ``recv_from``.

    The rows are copied as they go, so the rank may reuse its buffers at
    once.  A rank's exchanges are numbered and a message's tag is its
    sender's ordinal: exchange ``i`` meets exchange ``i`` on the peers.
    :class:`Collect` completes the exchange; the program may compute in
    between while the messages fly.
    """

    sends: Dict[int, Any] = field(default_factory=dict)
    recv_from: Tuple[int, ...] = ()
    row_bytes: Optional[int] = None

    def wire_bytes(self, rows: Any) -> int:
        return (len(rows) * self.row_bytes if self.row_bytes is not None
                else int(np.asarray(rows).nbytes))


@dataclass
class Collect(Op):
    """Complete the oldest posted :class:`Exchange`: block until each of
    its messages arrived, and resume with their rows in ``recv_from``
    order."""


@dataclass
class AllReduce(Op):
    """XOR ``value`` across all ranks (GF(2^m) addition); every rank gets
    its own copy of the sum."""

    value: Any

    def wire_bytes(self) -> int:
        return int(self.value.nbytes) if isinstance(self.value, np.ndarray) else 8


@dataclass
class Charge(Op):
    """Add modeled compute seconds to this rank's virtual clock.

    Used when a program wants model-driven rather than measured timing for a
    compute segment (e.g. replaying a paper-scale workload on a small host).
    """

    seconds: float
