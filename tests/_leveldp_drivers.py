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

from repro.core import leveldp
from repro.core.halo import build_halo_views
from repro.core.leveldp import ElementLanes, neighbour_sum, phase_program, run_whole_graph
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
    ], output=8, levels=5, name="spider")


def phase_value(graph, recurrence, fp, q0, n2, driver="whole-graph", partition=None):
    """The phase contribution of ``recurrence`` under ``driver``.

    Scalar problems give an integer, weight-axis problems a ``(Z+1,)``
    array in ``fp.field.dtype``.  For the SPMD drivers every rank must
    return the same value.
    """
    if driver == "whole-graph":
        per_lane = run_whole_graph(graph, recurrence, fp, q0, n2)
        return np.bitwise_xor.reduce(per_lane, axis=-1)
    views = build_halo_views(graph, partition)
    prog = phase_program(views, recurrence, fp, q0, n2,
                         overlapped=(driver == "spmd-overlapped"))
    results = Simulator(partition.n_parts, trace=False).run(prog).results
    for r in results[1:]:
        assert np.array_equal(r, results[0])
    return results[0]


def element_lanes(graph, recurrence, fp, q0, n2):
    """:func:`run_whole_graph`'s per-iteration values, driven on
    :class:`ElementLanes` (the ranks' layout, on the field's tables)
    where :func:`run_whole_graph` runs bit-planes: the reference the
    planes are held to."""
    jagged = graph.jagged()
    lanes = ElementLanes(fp, q0, n2, rows=jagged.order)
    gen = recurrence(lanes)
    try:
        state = next(gen)
        while True:
            state = gen.send(neighbour_sum(state, jagged))
    except StopIteration as stop:
        return lanes.finish(stop.value)


def element_value(graph, recurrence, fp, q0, n2):
    """:func:`element_lanes` folded over the window, as :func:`phase_value`
    folds the whole-graph driver's."""
    return np.bitwise_xor.reduce(element_lanes(graph, recurrence, fp, q0, n2), axis=-1)


def log_whole_graph_layouts(monkeypatch, log):
    """From here on, append the lane layout and lane count of every
    :func:`run_whole_graph` to the file ``log`` — in this process and in
    every worker it forks afterwards — and return a reader of the
    ``(layout name, lanes)`` pairs logged so far."""
    for cls in (leveldp.ElementLanes, leveldp.PlaneLanes):
        def finish(self, state, _finish=cls.finish):
            if sys._getframe(1).f_code is leveldp.run_whole_graph.__code__:
                with open(log, "a") as fh:
                    fh.write(f"{type(self).__name__} {self.width}\n")
            return _finish(self, state)
        monkeypatch.setattr(cls, "finish", finish)

    def read():
        if not log.exists():
            return []
        return [(name, int(lanes)) for name, lanes in
                (line.split() for line in log.read_text().splitlines())]
    return read


def circuit_value(graph, circuit, fp, q0, n2):
    """``circuit``'s phase contribution on the whole graph, in accumulator
    form: an ``int``, or a ``(Z+1,)`` weight axis."""
    return compile(circuit, fp.field).phase_value(graph, fp, q0, n2)


def assert_drivers_agree(graph, recurrence, fp, q0, n2, partition, expected=None):
    """Every driver returns ``expected`` (default: the whole-graph value);
    weight axes keep the field's dtype."""
    if expected is None:
        expected = phase_value(graph, recurrence, fp, q0, n2)
    for driver in DRIVERS:
        got = phase_value(graph, recurrence, fp, q0, n2, driver, partition)
        if np.ndim(got):
            assert got.dtype == fp.field.dtype, driver
        assert np.array_equal(got, expected), driver
    return expected


def partition_with_empty_rank(graph, n_parts, empty_rank, seed=0):
    """A random partition in which ``empty_rank`` owns no vertex."""
    owner = random_partition(graph, n_parts - 1, rng=RngStream(seed)).owner.copy()
    owner[owner >= empty_rank] += 1
    return Partition(graph, owner, n_parts)
