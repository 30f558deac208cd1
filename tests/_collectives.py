"""Algorithmic XOR all-reduces written as rank-program fragments.

The :class:`~repro.runtime.scheduler.Simulator`'s built-in
:class:`~repro.runtime.comm.AllReduce` is *magic*: it combines values
centrally and charges a closed-form log-tree cost.  The generators here
implement the same all-reduce **out of exchanges**, the way an MPI
library builds it from messages, so that

* the simulator's all-reduce cost can be validated against an actual
  message-level execution (tests assert the magic cost is within a small
  factor of the ring/recursive-doubling makespans), and
* experiments can study all-reduce algorithm choice (ring vs recursive
  doubling) under the same cost model MIDAS runs on.

All fragments are used with ``yield from`` inside a rank program::

    def program(ctx):
        total = yield from ring_allreduce(ctx, my_value)
        ...

Values may be numpy arrays (combined elementwise) or scalars.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.runtime.comm import Collect, Exchange
from repro.runtime.scheduler import RankContext


def ring_allreduce(ctx: RankContext, value: Any):
    """All-reduce via a ring: ``P - 1`` shifts of the running partial.

    Bandwidth-optimal for large payloads in real MPI (with chunking); here
    the whole value travels each hop, giving the classic
    ``(P-1) * (alpha + n beta)`` ring cost.
    """
    p = ctx.nranks
    if p == 1:
        return value
    if ctx.tracer is not None:
        ctx.annotate("ring-allreduce")
    nxt = (ctx.rank + 1) % p
    prv = (ctx.rank - 1) % p
    # every rank forwards, each step, the value it received the step
    # before (its own value at step 0); after P-1 steps every original
    # value has visited every rank exactly once and been folded in.
    acc = value
    travelling = value
    for _ in range(p - 1):
        yield Exchange({nxt: travelling}, (prv,))
        (travelling,) = yield Collect()
        acc = acc ^ travelling
    return acc


def recursive_doubling_allreduce(ctx: RankContext, value: Any):
    """All-reduce via recursive doubling: ``log2 P`` exchange rounds.

    Requires a power-of-two communicator (the classic formulation);
    latency-optimal for small payloads — exactly the final ``P``-wide
    8-byte reduce MIDAS performs each round.
    """
    p = ctx.nranks
    if p & (p - 1):
        raise ConfigurationError(
            f"recursive doubling needs a power-of-two rank count, got {p}"
        )
    if ctx.tracer is not None:
        ctx.annotate("rd-allreduce")
    acc = value
    dist = 1
    while dist < p:
        peer = ctx.rank ^ dist
        yield Exchange({peer: acc}, (peer,))
        (other,) = yield Collect()
        acc = acc ^ other
        dist <<= 1
    return acc
