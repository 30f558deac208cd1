"""Run one level-DP recurrence through every driver (import-name-safe module).

The equivalence matrix in ``test_leveldp_matrix.py`` and the per-kind
property tests in ``test_evaluators.py`` / ``test_overlap.py`` /
``test_wpath_and_cells.py`` / ``test_mld.py`` all funnel through
:func:`assert_drivers_agree`, so "the SPMD program returns the
whole-graph value" is asserted in one place for every problem kind.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.halo import build_halo_views
from repro.core.leveldp import (Lanes, fold_values, neighbour_sum, phase_program,
                                 run_whole_graph)
from repro.core.mld import CircuitStep, MLDCircuit
from repro.core.problems import compile
from repro.graph.partition import Partition, random_partition
from repro.runtime.scheduler import Simulator
from repro.util.rng import RngStream

DRIVERS = ("whole-graph", "spmd", "spmd-overlapped")

#: a 5-node spider — centre ``c`` (level 0) with legs ``c-a-b``, ``c-d``,
#: ``c-e`` (levels 1, 2, 3, 4) — stated step by step, not by a builder
SPIDER = MLDCircuit(
    k=5, n_slots=9, leaves=[(0, 2), (1, 1), (3, 0), (5, 3), (7, 4)], steps=[
        CircuitStep(2, 1, 0, None),  # a, b below it
        CircuitStep(4, 3, 2, None),  # c, the leg a-b below it
        CircuitStep(6, 4, 5, None),  # ... and d
        CircuitStep(8, 6, 7, None),  # ... and e
    ], outputs=(8,), levels=5, name="spider")


def fold(per_lane, n2, points=None):
    """Each output's per-iteration values folded over the window, as a
    simulated rank folds its own: a scalar, or — at ``points`` — each
    point's XOR interpolated into ``(Z+1,)`` cells, output-major."""
    per_point = np.bitwise_xor.reduce(per_lane.reshape(1, len(per_lane), -1, n2), axis=-1)
    return fold_values(per_point, points)[0]


def phase_value(graph, recurrence, fp, q0, n2, driver="whole-graph", partition=None,
                points=None):
    """The phase contribution of ``recurrence`` under ``driver``, with a
    weighted circuit's ``points``.

    Scalar problems give an integer, weight-axis problems a ``(Z+1,)``
    array in ``fp.field.dtype``.  For the SPMD drivers every rank must
    return the same value.
    """
    if driver == "whole-graph":
        return fold(run_whole_graph(graph, recurrence, fp, q0, n2, points), n2, points)
    views = build_halo_views(graph, partition)
    prog = phase_program(views, recurrence, fp, q0, n2,
                         overlapped=(driver == "spmd-overlapped"), points=points)
    results = Simulator(partition.n_parts, trace=False).run(prog).results
    for r in results[1:]:
        assert np.array_equal(r, results[0])
    return results[0]


class ElementLanes(Lanes):
    """The element-wise reference the planes are held to: the lanes'
    window, rows, blocks and ``y``, each state ``(rows, P R n2)`` field
    elements, one per iteration, every product on the field's tables."""

    def __init__(self, fp, q_start, n2, rows=None, points=None):
        super().__init__(fp, q_start, n2, rows, points)
        self.indicator = self._indicator()

    def _lanes(self, y):
        # one block: a broadcast column; several: each block's y on its lanes
        return y[:, None] if self.blocks == 1 else np.repeat(y, self.n2, axis=1)

    def base(self, level):
        # indicator in {0, 1}: multiply == select; avoids a field multiply
        return (self.indicator * self._lanes(self._y(level, variable=True))).astype(
            self.field.dtype, copy=False)

    def scale(self, level, acc, variable=False):
        factor = self.base(level) if variable else self._lanes(self._y(level))
        return self.field.mul(factor, acc)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def mul_sum(self, pairs):
        acc = self.field.mul(*pairs[0])
        for a, b in pairs[1:]:
            acc ^= self.field.mul(a, b)
        return acc

    def finish(self, outputs):
        values = np.stack([self.field.xor_sum(state, axis=0) for state, _ in outputs])
        for value, (_, variables) in zip(values, outputs):
            value.reshape(self.blocks, self.n2)[:, self.drop(variables)] = 0
        return values


def element_lanes(graph, recurrence, fp, q0, n2, points=None):
    """:func:`run_whole_graph`'s per-iteration values, driven on
    :class:`ElementLanes` where :func:`run_whole_graph` runs bit-planes:
    the reference the planes are held to."""
    jagged = graph.jagged()
    lanes = ElementLanes(fp, q0, n2, rows=jagged.order, points=points)
    gen = recurrence(lanes)
    try:
        state = next(gen)
        while True:
            state = gen.send(neighbour_sum(state, jagged))
    except StopIteration as stop:
        return lanes.finish(stop.value)


def element_value(graph, recurrence, fp, q0, n2, points=None):
    """:func:`element_lanes` folded over the window, as :func:`phase_value`
    folds the whole-graph driver's."""
    return fold(element_lanes(graph, recurrence, fp, q0, n2, points), n2, points)


def log_layouts(monkeypatch, log):
    """From here on, append the driver, lane class and iteration count
    (``R n2``, each evaluated at every point of a weighted kind) of every
    :class:`Lanes` built to the file ``log`` — in this process and in every
    worker it forks afterwards — and return a reader of the ``(class name,
    lanes)`` pairs one driver built so far.  A driver is the function that
    built the lanes: ``run_whole_graph``, ``program`` (a simulated rank of
    :func:`phase_program`) or ``_level_step`` (the kernel calibration)."""
    init = Lanes.__init__

    def logged(self, *args, **kw):
        init(self, *args, **kw)
        with open(log, "a") as fh:
            fh.write(f"{sys._getframe(1).f_code.co_name} {type(self).__name__} "
                     f"{self.rounds * self.n2}\n")

    monkeypatch.setattr(Lanes, "__init__", logged)

    def read(driver="run_whole_graph"):
        if not log.exists():
            return []
        return [(name, int(lanes)) for built_by, name, lanes in
                (line.split() for line in log.read_text().splitlines())
                if built_by == driver]
    return read


def circuit_value(graph, circuit, fp, q0, n2):
    """``circuit``'s phase contribution on the whole graph, in accumulator
    form: an ``int``, or a ``(Z+1,)`` weight axis."""
    return compile(circuit, fp.field).phase_value(graph, fp, q0, n2)


def assert_drivers_agree(graph, recurrence, fp, q0, n2, partition, expected=None,
                         points=None):
    """Every driver returns ``expected`` (default: the whole-graph value);
    weight axes keep the field's dtype."""
    if expected is None:
        expected = phase_value(graph, recurrence, fp, q0, n2, points=points)
    for driver in DRIVERS:
        got = phase_value(graph, recurrence, fp, q0, n2, driver, partition, points)
        if np.ndim(got):
            assert got.dtype == fp.field.dtype, driver
        assert np.array_equal(got, expected), driver
    return expected


def partition_with_empty_rank(graph, n_parts, empty_rank, seed=0):
    """A random partition in which ``empty_rank`` owns no vertex."""
    owner = random_partition(graph, n_parts - 1, rng=RngStream(seed)).owner.copy()
    owner[owner >= empty_rank] += 1
    return Partition(graph, owner, n_parts)
