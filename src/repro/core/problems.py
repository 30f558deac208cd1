"""The problem layer of the unified detection engine.

Every MIDAS application — k-path, k-tree, weighted k-path, scan
statistics — is the *same* Koutis/Williams evaluation loop over a
different DP: ``2^k`` iterations organized round → batch → phase, a
fresh fingerprint per amplification round, XOR accumulation of the
per-phase polynomial values.  A :class:`ProblemSpec` captures everything
that differs between applications as data:

* the iteration-space exponent ``k`` (``2^k`` iterations);
* how to draw the round fingerprint (``levels``, ``field``);
* the accumulator semantics — a scalar GF(2^l) value XORed per phase
  (path/tree) or a ``(z_max + 1)``-wide weight-axis vector XORed
  elementwise (weighted paths, scan statistics);
* the DP itself, as one ``recurrence`` (:mod:`repro.core.leveldp`) that
  the whole-graph driver and the simulated rank programs both run;
* the analytic-model parameters (Theorem 2) for the modeled backend.

The :class:`~repro.core.engine.DetectionEngine` consumes a spec and runs
it on any backend; the drivers in :mod:`repro.core.midas` are thin
wrappers that build a spec and post-process the per-round values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.evaluator_path import path_recurrence
from repro.core.evaluator_scanstat import scan_y_degree, scanstat_recurrence
from repro.core.evaluator_tree import tree_recurrence
from repro.core.evaluator_wpath import check_weights, weighted_path_recurrence
from repro.core.leveldp import Recurrence, run_whole_graph
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.csr import CSRGraph
from repro.graph.templates import SubtreeSpec, TreeTemplate, decompose_template

#: a per-phase contribution / per-round accumulator: GF scalar or weight axis
Value = Union[int, np.ndarray]

#: states a k-path level keeps alive: the level, its neighbour sum, the base
PATH_LIVE_STATES = 3
#: a weighted-path level also keeps the shifted sum alive
WPATH_LIVE_STATES = 4


def tree_live_states(specs: Sequence[SubtreeSpec]) -> int:
    """States the tree recurrence keeps alive at once: the pending subtree
    values of the decomposition's children-first walk, plus the neighbour
    sum (or the product) of the composite being built."""
    live = peak = 0
    for s in specs:
        if s.is_leaf:
            live += 1
            peak = max(peak, live)
        else:
            peak = max(peak, live + 1)
            live -= 1  # two children become one value
    return max(peak, 1)


def scan_live_states(dim: int) -> int:
    """Size row ``dim`` keeps every lower row and its neighbour sum, plus
    the convolution accumulator: ``2 dim - 1``."""
    return 2 * max(dim, 1) - 1


@dataclass
class ProblemSpec:
    """One MIDAS application, expressed as data for the detection engine.

    ``payload == 1`` means the accumulator is a scalar GF(2^l) value
    (plain detection); ``payload == z_max + 1`` means it is a weight-axis
    vector and all combination is elementwise XOR.  Both are commutative
    and associative, which is what lets the threaded backend accumulate
    phase results in completion order yet stay bit-identical.
    """

    name: str  # metrics / trace label family ("k-path", "scanstat", ...)
    k: int  # iteration-space exponent: the round covers 2^k iterations
    levels: int  # fingerprint levels to draw per round
    field: Any  # GF(2^l) table set, sized by the polynomial's degree in the y's
    payload: int  # accumulator width: 1 = scalar, else z_max + 1
    recurrence: Recurrence  # the DP, run by either repro.core.leveldp driver
    # (rows, [Z+1,] lanes) states the recurrence keeps alive at once, besides
    # a multiply's temporaries: what a fused window's width is budgeted by
    live_states: int = PATH_LIVE_STATES
    model_problem: str = "path"  # `problem` arg of estimate_runtime
    model_levels: Optional[int] = None  # `levels` arg of estimate_runtime
    model_z_axis: int = 1  # `z_axis` arg of estimate_runtime
    vector: bool = False  # accumulator is a weight axis even when payload == 1
    details: Dict[str, object] = dc_field(default_factory=dict)
    # picklable rebuild instructions ``(kind, params)`` for worker processes:
    # the recurrence is a closure and cannot cross a process boundary, so
    # the process backend ships this instead and calls
    # spec_from_recipe against the shared-memory graph (None = spec was
    # hand-built and cannot run on mode="process")
    recipe: Optional[tuple] = None

    # ------------------------------------------------------------ semantics
    @property
    def scalar(self) -> bool:
        # `payload == 1` alone is wrong: a weight-axis problem with
        # z_max = 0 (all-zero weights) has a length-1 vector accumulator,
        # not a GF scalar
        return self.payload == 1 and not self.vector

    @property
    def reduce_nbytes(self) -> int:
        """Wire bytes of the per-round XOR all-reduce."""
        return 8 * self.payload

    def draw_fingerprint(self, n: int, rng) -> Fingerprint:
        return Fingerprint.draw(n, self.k, rng, levels=self.levels, field=self.field)

    def acc_init(self) -> Value:
        if self.scalar:
            return 0
        return np.zeros(self.payload, dtype=self.field.dtype)

    def combine(self, acc: Value, contribution: Value) -> Value:
        """XOR-fold one phase contribution into the round accumulator."""
        return acc ^ contribution

    def rank_value(self, raw) -> Value:
        """Coerce a rank program's all-reduced result to accumulator form."""
        if self.scalar:
            return int(raw)
        return np.asarray(raw, dtype=self.field.dtype)

    def phase_value(self, graph: CSRGraph, fp: Fingerprint, q0: int, n2: int,
                    exchanges: Optional[list] = None) -> Value:
        """One phase window's contribution, evaluated on the whole graph
        (``exchanges``: see :func:`~repro.core.leveldp.run_whole_graph`)."""
        per_lane = run_whole_graph(graph, self.recurrence, fp, q0, n2, exchanges)
        return self.rank_value(np.bitwise_xor.reduce(per_lane, axis=-1))

    def phase_values(self, graph: CSRGraph, fps: Sequence[Fingerprint], q0: int,
                     n2: int) -> List[Value]:
        """One phase window's contribution to each of ``len(fps)`` rounds:
        the rounds side by side in one window on the whole graph, each
        round's value the XOR of its own ``n2`` lanes (one round is
        :meth:`phase_value`)."""
        if len(fps) == 1:
            return [self.phase_value(graph, fps[0], q0, n2)]
        per_lane = run_whole_graph(graph, self.recurrence, fps, q0, n2)
        per_round = np.bitwise_xor.reduce(
            per_lane.reshape(per_lane.shape[:-1] + (len(fps), n2)), axis=-1)
        return [self.rank_value(per_round[..., r]) for r in range(len(fps))]

    def hit(self, value: Value) -> bool:
        """Does this round's accumulator certify a witness?"""
        if self.scalar:
            return value != 0
        return bool(np.any(np.asarray(value) != 0))


# -------------------------------------------------------------- instances
def path_problem(graph: CSRGraph, k: int, field: Any = None) -> ProblemSpec:
    """Simple k-vertex path detection (paper Algorithm 3).

    ``field`` optionally supplies a prebuilt GF(2^l) table set (an
    :class:`~repro.core.engine.EngineSession` caches one per degree so
    repeated queries skip table construction); the default builds a
    fresh ``default_field_for_k(k)`` — the polynomial has degree ``k`` in
    the ``y``s, as do the tree and weighted-path ones.  Either way the
    tables are identical, so results never depend on who built them.
    """
    fld = field if field is not None else default_field_for_k(k)
    return ProblemSpec(
        name="k-path",
        k=k,
        levels=k,
        field=fld,
        payload=1,
        recurrence=path_recurrence(k),
        model_problem="k-path",
        model_levels=k - 1,
        recipe=("k-path", {"k": k}),
    )


def tree_problem(graph: CSRGraph, template: TreeTemplate,
                 field: Any = None) -> ProblemSpec:
    """Non-induced tree template embedding (paper Algorithm 4).

    ``field`` is an optional prebuilt table set — see :func:`path_problem`.
    """
    specs = decompose_template(template)
    k = template.k
    fld = field if field is not None else default_field_for_k(k)
    return ProblemSpec(
        name="k-tree",
        k=k,
        levels=k,
        field=fld,
        payload=1,
        recurrence=tree_recurrence(specs),
        live_states=tree_live_states(specs),
        model_problem="k-tree",
        model_levels=k - 1,
        details={"template": template.name, "n_subtrees": len(specs)},
        recipe=(
            "k-tree",
            {
                "k": template.k,
                "edges": tuple(tuple(e) for e in template.edges),
                "root": template.root,
                "name": template.name,
            },
        ),
    )


def weighted_path_problem(
    graph: CSRGraph, weights: np.ndarray, k: int, z_max: int,
    field: Any = None,
) -> ProblemSpec:
    """Weight-resolved k-path detection (Problem 1's max-weight variant).

    ``field`` is an optional prebuilt table set — see :func:`path_problem`.
    """
    w = check_weights(graph.n, weights, z_max)
    fld = field if field is not None else default_field_for_k(k)
    return ProblemSpec(
        name="weighted-path",
        k=k,
        levels=k,
        field=fld,
        payload=z_max + 1,
        recurrence=weighted_path_recurrence(w, k, z_max),
        live_states=WPATH_LIVE_STATES,
        model_problem="k-path",
        model_levels=k - 1,
        model_z_axis=z_max + 1,
        vector=True,
        recipe=("weighted-path", {"k": k, "z_max": z_max, "weights": w}),
    )


def scanstat_problem(
    graph: CSRGraph, weights: np.ndarray, size: int, z_max: int,
    field: Any = None,
) -> ProblemSpec:
    """One size row of the scan-statistics grid (paper Algorithm 5).

    ``size`` is the group dimension: the evaluation runs ``2^size``
    iterations and resolves every weight cell ``z <= z_max`` of that row
    at once (the driver assembles the full grid from one spec per size).
    """
    w = check_weights(graph.n, weights, z_max)
    fld = field if field is not None else default_field_for_k(scan_y_degree(size))
    return ProblemSpec(
        name="scanstat",
        k=size,
        levels=size + 1,  # base row + per-size join coefficients
        field=fld,
        payload=z_max + 1,
        recurrence=scanstat_recurrence(w, size, z_max),
        live_states=scan_live_states(size),
        model_problem="scanstat",
        model_levels=None,
        model_z_axis=z_max + 1,
        vector=True,
        recipe=("scanstat", {"size": size, "z_max": z_max, "weights": w}),
    )


def spec_from_recipe(graph: CSRGraph, recipe: tuple, field: Any = None) -> ProblemSpec:
    """Rebuild a :class:`ProblemSpec` from its picklable ``recipe``.

    Worker processes call this against their shared-memory graph view;
    the result is behaviourally identical to the parent's spec (same
    factory, same parameters), so phase values are bit-identical.
    """
    kind, params = recipe
    if kind == "k-path":
        return path_problem(graph, params["k"], field=field)
    if kind == "k-tree":
        template = TreeTemplate(
            params["k"], params["edges"], root=params["root"], name=params["name"]
        )
        return tree_problem(graph, template, field=field)
    if kind == "weighted-path":
        return weighted_path_problem(
            graph, params["weights"], params["k"], params["z_max"], field=field
        )
    if kind == "scanstat":
        return scanstat_problem(
            graph, params["weights"], params["size"], params["z_max"], field=field
        )
    raise ValueError(f"unknown problem recipe kind {kind!r}")
