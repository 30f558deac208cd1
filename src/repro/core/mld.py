"""The k-MLD problem as the one problem abstraction (paper Problem 3).

The paper asks one question: does a polynomial that is defined
recursively — never unrolled — have a degree-``k`` multilinear term?
k-path, k-tree, the weighted k-path and the scan-statistics grid are
instances, and each is one :class:`MLDCircuit` builder here; a new kind
is one more.  :meth:`MLDCircuit.recurrence` is the one interpreter — any
circuit becomes the :mod:`repro.core.leveldp` recurrence every driver
and backend runs — and the circuit derives what the engine needs to
know about it: the degree in the fingerprint's ``y``s that sizes its
field, its accumulator width, its live-state budget and its neighbour
sums per iteration.  :func:`repro.core.problems.compile` turns it into
the engine's :class:`~repro.core.problems.ProblemSpec`, and
:func:`detect_multilinear` decides any circuit on the engine.

:func:`algorithm1_reference` is the paper's Algorithm 1 verbatim, the
executable specification the test-suite holds the detector to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.leveldp import PointBlocks, Recurrence
from repro.errors import ConfigurationError
from repro.ff.fingerprint import base_indicator_block
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate, decompose_template
from repro.util.rng import as_stream
from repro.util.validation import check_divides, check_weights


@dataclass(frozen=True)
class CircuitStep:
    """One DP step of an :class:`MLDCircuit`: slot ``target`` becomes

        ``x(variable_level) * y(coeff_level) * slot[factor] * source``

    The source is the neighbour sum of slot ``operand`` (the paper's
    ``P(i, j') * sum_u P(u, j'')`` shape) or, with ``products``, the sum
    over pairs ``(a, b)`` of ``slot[a] * slot[b]``.  ``x(level)`` is the
    evaluated variable: ``y[i, level]`` on the lanes whose phase indicator
    is set, so a fresh variable enters (in a weighted circuit it also
    carries its row's weight, :class:`~repro.core.leveldp.PointBlocks`);
    ``y(level)`` is a join coefficient on every lane.  ``None`` leaves a
    factor out.
    """

    target: int
    factor: Optional[int]
    operand: Optional[int]
    variable_level: Optional[int]
    products: Tuple[Tuple[int, int], ...] = ()
    coeff_level: Optional[int] = None

    def reads(self) -> tuple:
        """The slots this step reads, in the order it reads them."""
        pairs = tuple(s for pair in self.products for s in pair)
        return tuple(s for s in (self.operand, *pairs, self.factor) if s is not None)


@dataclass(frozen=True)
class MLDCircuit:
    """A recursively defined polynomial of multilinear degree ``k``.

    ``leaves[slot] = level`` seeds slot ``slot`` with the variable at
    fingerprint level ``level``; ``steps`` then run in order, each leaf
    seeded once the steps writing lower slots have run (builders number
    slots in evaluation order); ``outputs`` names the slots whose
    vertex-sums are the polynomial's values (a scan grid's: one per size).
    ``levels`` is how many fingerprint levels a round draws.

    A *weighted* circuit carries one non-negative integer ``weights``
    entry per vertex: each variable of row ``i`` is multiplied by a formal
    ``z^{w(i)}``, and the value is the vector of its ``z``-coefficients
    ``0 .. z_max``.  The circuit itself is unweighted: ``z`` is evaluated
    at :meth:`points`, one lane block each, so every product stays a
    pointwise one.

    Validation walks the program once and derives what the engine needs:
    :attr:`y_degree`, the outputs' largest degree in the fingerprint's
    ``y``s, which sizes the field (:func:`repro.ff.gf2m.field_degree_for_k`);
    :attr:`variables`, each output's vertex-variable count ``j <= k`` (it
    is a ``j``-dimensional run on its first ``2^j`` iterations alone);
    :attr:`live_states`, the most ``(rows, lanes)`` states the recurrence
    keeps alive at once, besides a multiply's temporaries — what a fused
    window's width is budgeted by; and :attr:`needs_edges`: every output
    term has a neighbour sum as a factor, so a vertex without neighbours
    adds nothing to the values.
    """

    k: int
    n_slots: int
    leaves: Sequence[tuple]
    steps: Sequence[CircuitStep]
    outputs: Tuple[int, ...]
    levels: int
    name: str = "circuit"
    weights: Optional[np.ndarray] = field(default=None, compare=False)
    z_max: int = 0

    # derived by the validation walk: leaves and steps in evaluation
    # order, and per entry the slots it reads for the last time
    _program: tuple = field(init=False, repr=False, compare=False)
    _releases: tuple = field(init=False, repr=False, compare=False)
    y_degree: int = field(init=False, repr=False, compare=False)
    variables: tuple = field(init=False, repr=False, compare=False)
    live_states: int = field(init=False, repr=False, compare=False)
    needs_edges: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if not self.outputs or not all(0 <= o < self.n_slots for o in self.outputs):
            raise ConfigurationError("output slot out of range")
        if self.z_max < 0:
            raise ConfigurationError(f"z_max must be >= 0, got {self.z_max}")
        for slot, level in self.leaves:
            if not (0 <= slot < self.n_slots) or not (0 <= level < self.levels):
                raise ConfigurationError(f"bad leaf ({slot}, {level})")
        for s in self.steps:
            for ref in (s.target, *s.reads()):
                if not (0 <= ref < self.n_slots):
                    raise ConfigurationError(f"slot {ref} out of range")
            for level in (s.variable_level, s.coeff_level):
                if level is not None and not (0 <= level < self.levels):
                    raise ConfigurationError(f"level {level} out of range")
            if (s.operand is None) == (not s.products):
                raise ConfigurationError(
                    f"step writing slot {s.target} needs one source: operand or products")
        # the program: each leaf just before the first step writing a higher slot
        leaves, program = sorted(self.leaves), []
        for s in self.steps:
            while leaves and leaves[0][0] < s.target:
                program.append(leaves.pop(0))
            program.append(s)
        program += leaves
        # one walk: every read follows a write; y-degrees and variable counts
        # (a leaf: one each; a step: its source's — a sum of products' largest
        # pair's — plus its factor's, its variable and its join's y); whether
        # every term of a slot has a neighbour-sum factor; each slot's last read
        deg, nvars, summed, last = {}, {}, {}, {}
        for at, op in enumerate(program):
            if isinstance(op, tuple):
                deg[op[0]], nvars[op[0]], summed[op[0]] = 1, 1, False
                continue
            for ref in op.reads():
                if ref not in deg:
                    raise ConfigurationError(
                        f"step writing slot {op.target} reads slot {ref} "
                        "before it is set")
                last[ref] = at
            sources = op.products or ((op.operand,),)
            for table, join in ((deg, op.coeff_level is not None), (nvars, False)):
                table[op.target] = (max(sum(table[s] for s in src) for src in sources)
                                    + (0 if op.factor is None else table[op.factor])
                                    + (op.variable_level is not None) + join)
            summed[op.target] = (
                (all(summed[a] or summed[b] for a, b in op.products) if op.products
                 else True) or (op.factor is not None and summed[op.factor]))
        for o in self.outputs:
            if not 1 <= nvars.get(o, 0) <= self.k:
                raise ConfigurationError(
                    f"output slot {o} never written, or of more than k variables")
            last.pop(o, None)  # an output is never released
        dying = [set() for _ in program]
        for slot, at in last.items():
            dying[at].add(slot)
        # the most states alive at once, besides a multiply's temporaries: a
        # step holds the slots live when it starts, its neighbour sum or
        # accumulator, and the block it builds on top — a variable's base
        # block
        live = peak = 0
        for at, op in enumerate(program):
            if isinstance(op, tuple):
                live += 1
                peak = max(peak, live)
                continue
            peak = max(peak, live + 1 + (op.variable_level is not None))
            live += 1 - len(dying[at])
        for name, value in (("_program", tuple(program)), ("_releases", tuple(dying)),
                            ("y_degree", max(deg[o] for o in self.outputs)),
                            ("variables", tuple(nvars[o] for o in self.outputs)),
                            ("live_states", max(peak, 1)),
                            ("needs_edges", all(summed[o] for o in self.outputs))):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------ builders
    @staticmethod
    def k_path(k: int) -> "MLDCircuit":
        """Simple k-vertex paths (paper Algorithm 3, Section III-D):

            ``P(i, 1) = x_i``  and  ``P(i, j) = x_i * sum_{u in NBR(i)} P(u, j-1)``

        where ``x_i`` evaluates, at iteration ``q`` and DP level ``j``, to
        ``y[i, j] * [ <v_i, q> even ]`` (see :mod:`repro.ff.fingerprint`):
        levels are path positions.
        """
        steps = [CircuitStep(j, None, j - 1, j) for j in range(1, k)]
        return MLDCircuit(k=k, n_slots=k, leaves=[(0, 0)], steps=steps,
                          outputs=(k - 1,), levels=k, name="k-path")

    @staticmethod
    def k_tree(template: TreeTemplate) -> "MLDCircuit":
        """Non-induced embeddings of a tree template (paper Algorithm 4,
        Section V-A), following the decomposition of
        :func:`repro.graph.templates.decompose_template` (paper Fig 2):

        * single-node subtree rooted at template node ``a``:
          ``P(i, {a}) = x_i`` — one fingerprint level per *template node*,
          so distinct homomorphisms carry distinct monomials;
        * composite subtree ``H'`` with children ``H'_1`` (same root) and
          ``H'_2`` (rooted at the detached neighbour):
          ``P(i, H') = P(i, H'_1) * sum_{u in NBR(i)} P(u, H'_2)``.

        Slots are the subtree ids, children first, and the decomposition
        gives every non-root subtree exactly one consumer: a child is
        released the moment it is used, keeping peak memory at ``O(k)``
        states.  The k-path is the special case of a path template.
        """
        specs = decompose_template(template)
        leaves = [(s.sid, s.root) for s in specs if s.is_leaf]
        steps = [CircuitStep(s.sid, s.child_same, s.child_branch, None)
                 for s in specs if not s.is_leaf]
        return MLDCircuit(k=template.k, n_slots=len(specs), leaves=leaves,
                          steps=steps, outputs=(specs[-1].sid,), levels=template.k,
                          name="k-tree")

    @staticmethod
    def weighted_path(weights, k: int, z_max: int) -> "MLDCircuit":
        """Weight-resolved k-paths (Problem 1's max-weight variant).

        Section II-A1 lists "finding a maximum weight embedding in a
        weighted version of the graph" as a variant the approach extends
        to, and Problem 3 asks for "the maximum weight of any multilinear
        term".  With non-negative integer node weights this is the k-path
        analogue of Algorithm 5's weight axis, with each variable carrying
        ``z^{w(i)}``:

            ``P(i, 1) = x_i z^{w(i)}``
            ``P(i, j) = x_i z^{w(i)} * sum_u P(u, j-1)``

        Summed over the ``2^k`` iterations, the coefficient of ``z^c`` is
        nonzero iff a simple k-path of total node weight exactly ``c``
        exists.  It is the k-path circuit: the weight enters through the
        variables alone.
        """
        return replace(MLDCircuit.k_path(k), name="weighted-path",
                       weights=check_weights(None, weights, z_max), z_max=z_max)

    @staticmethod
    def scan_row(weights, dim: int, z_max: int) -> "MLDCircuit":
        """The scan-statistics grid's rows ``1 .. dim`` (paper Algorithm 5):
        connected subgraphs by *size* ``j`` and integer *weight* ``z``,

            ``P(i, 1) = x_i z^{w(i)}``
            ``P(i, j) = y(j) * sum_{j'} P(i, j') S(j - j')``

        with ``S(j'')`` the neighbour sum of ``P(., j'')`` — multiplication
        distributes over the neighbour sum, so each size is one product
        per split ``j' + j'' = j``, vectorized over nodes, the evaluation
        points of ``z`` and the iteration batch (the paper's
        ``sum_{z'} P(i, j', z') S(j - j', z - z')`` is the product of two
        polynomials in ``z``).  Slot ``2 (j-1)`` holds ``P(j)``, row ``j``'s
        output, and slot ``2 (j-1) + 1`` its neighbour sum.  On simulated
        ranks each size's halo message is charged as the whole weight axis
        — the ``W(V)`` factor in Lemma 3's communication bound.

        Two deliberate deviations from the raw pseudocode (DESIGN.md):

        * the random join coefficient ``y(j)`` multiplies each size-``j``
          combination — without it, the two build orders of a single edge
          ``{a, b}`` produce identical monomials and cancel in
          characteristic 2.  A size-``j`` term therefore has degree
          ``2j - 1`` in the ``y``s: ``j`` base ``y``s and ``j - 1`` joins;
        * every size ``j`` is an output, not row ``dim`` alone.  Over all
          ``2^dim`` iterations a size-``j < dim`` slot sums to zero (a
          rank-``j`` term survives ``2^{dim-j}``, an even count), but its
          first ``2^j`` read only the low ``j`` bits of each ``v_i``: row
          ``j``'s own run, the lanes :meth:`~repro.core.leveldp.Lanes.finish`
          keeps.  One run decides the grid (docs/THEORY.md §5).
        """
        steps = []
        for j in range(2, dim + 1):
            steps.append(CircuitStep(2 * j - 3, None, 2 * j - 4, None))
            steps.append(CircuitStep(
                2 * j - 2, None, None, None, coeff_level=j,
                products=tuple((2 * j1 - 2, 2 * (j - j1) - 1) for j1 in range(1, j))))
        return MLDCircuit(k=dim, n_slots=2 * dim - 1, leaves=[(0, 0)], steps=steps,
                          outputs=tuple(range(0, 2 * dim - 1, 2)), levels=dim + 1,
                          name="scanstat", weights=check_weights(None, weights, z_max),
                          z_max=z_max)

    # ------------------------------------------------------ derived facts
    @property
    def payload(self) -> int:
        """Accumulator width: the weight axis, or 1 for a scalar value."""
        return 1 if self.weights is None else self.z_max + 1

    @property
    def weight_degree(self) -> int:
        """``D``: the largest weight a term of ``k`` vertices none heavier
        than ``z_max`` can carry — the sum of the ``k`` largest such
        weights (0 unweighted).  A round's value has degree ``<= D`` in
        ``z``; docs/THEORY.md, "The weight axis as evaluation points"."""
        if self.weights is None:
            return 0
        light = np.sort(self.weights[self.weights <= self.z_max])
        return int(light[-self.k:].sum()) if len(light) else 0

    @property
    def schedule_payload(self) -> int:
        """What a window's state is budgeted by, in ``n2``-lane rows: the
        weight cells, or the ``D + 1`` evaluation points where an explicit
        ``z_max`` below ``D`` makes them more."""
        return max(self.payload, self.weight_degree + 1)

    def points(self, field) -> Optional[PointBlocks]:
        """The ``D + 1`` evaluation points of a weighted circuit's ``z``
        over ``field`` (``None`` for an unweighted circuit)."""
        if self.weights is None:
            return None
        return PointBlocks(field, self.weights, self.z_max, self.weight_degree)

    # ---------------------------------------------------------- evaluation
    def recurrence(self) -> Recurrence:
        """The circuit as a :mod:`repro.core.leveldp` recurrence: one
        ``yield`` per neighbour sum, each slot released after its last
        read (a summed slot as it is yielded), so the drivers' memory
        stays what the steps need; it returns each output's state with its
        :attr:`variables`.  The weights live in the lanes' variables."""
        program, dying = self._program, self._releases

        def recurrence(lanes):
            slots = {}
            for at, op in enumerate(program):
                if isinstance(op, tuple):
                    slot, level = op
                    slots[slot] = lanes.base(level)
                    continue
                if op.products:
                    acc = lanes.mul_sum([(slots[a], slots[b]) for a, b in op.products])
                else:
                    free = op.operand in dying[at] and op.factor != op.operand
                    acc = yield (slots.pop(op.operand) if free else slots[op.operand])
                if op.factor is not None:
                    acc = lanes.mul(slots[op.factor], acc)
                if op.variable_level is not None:
                    acc = lanes.scale(op.variable_level, acc, variable=True)
                if op.coeff_level is not None:
                    acc = lanes.scale(op.coeff_level, acc)
                for slot in dying[at]:
                    slots.pop(slot, None)
                slots[op.target] = acc
                acc = None  # the slot may be released at its next yield
            return [(slots[o], j) for o, j in zip(self.outputs, self.variables)]

        return recurrence


def detect_multilinear(
    graph: CSRGraph,
    circuit: MLDCircuit,
    eps: float = 0.2,
    rng=None,
    n2: Optional[int] = None,
    early_exit: bool = True,
) -> bool:
    """Decide whether ``circuit`` has a degree-``k`` multilinear term.

    One-sided Monte Carlo with failure probability at most ``eps``, run
    by the detection engine like every driver of
    :mod:`repro.core.midas` (sequential mode; ``n2`` pins the phase
    window and must divide ``2^k``).
    """
    # imported here: the engine (through problems) and the drivers import this module
    from repro.core.engine import DetectionEngine, MidasRuntime
    from repro.core.midas import _detect

    if n2 is not None:
        check_divides(n2, 1 << circuit.k, "n2", "2^k")
    with DetectionEngine(graph, MidasRuntime(n2=n2), circuit.name) as engine:
        out = _detect(engine, circuit, eps, as_stream(rng, "mld"), early_exit=early_exit)
    return any(np.any(value) for value in out.values)


def algorithm1_reference(
    graph: CSRGraph,
    k: int,
    rng=None,
    directed_from: Optional[int] = None,
) -> int:
    """Paper Algorithm 1, verbatim over the integers mod ``2^(k+1)``.

    One round: draw ``v_i`` uniformly in ``Z_2^k``; for each iteration
    ``t`` evaluate the k-path DP with ``P(i, 1) = 1 + (-1)^{v_i^T t_bin}``
    (values in {0, 2}); return ``sum_t sum_i P(i, t, k) mod 2^(k+1)``,
    "yes" iff nonzero.  This is the Koutis formulation the paper presents
    before the Williams ``GF(2^l)`` refinement the circuits are evaluated
    in; big-int coefficients are avoided by reducing mod ``2^{k+1}``
    throughout, and it exists as an executable specification: the
    test-suite cross-checks the production detector against it.

    It has a known gap, also present in the paper's pseudocode: over the
    integers mod ``2^{k+1}`` distinct multilinear terms can pairwise
    cancel — most plainly, an undirected path and its reverse contribute
    identically, making ``P ≡ 0 (mod 2^{k+1})`` even when paths exist
    (the deviation DESIGN.md documents, and why production evaluates in
    ``GF(2^l)``).  ``directed_from`` therefore restricts the final sum to
    walks *ending* at one vertex, for testing the positive direction.
    """
    rng = as_stream(rng, "alg1")
    if not (1 <= k <= 20):
        raise ConfigurationError(f"reference algorithm supports 1 <= k <= 20, got {k}")
    n = graph.n
    mod = 1 << (k + 1)
    v = rng.integers(0, 1 << k, size=n).astype(np.uint64)
    total = 0
    for t in range(1 << k):
        base = (2 * base_indicator_block(v, t, 1)[:, 0].astype(np.int64))  # {0, 2}
        p = base.copy()
        for _j in range(1, k):
            gathered = p[graph.indices]
            # integer segment-sum mod 2^(k+1)
            sums = np.zeros(n, dtype=np.int64)
            np.add.at(sums, np.repeat(np.arange(n), np.diff(graph.indptr)), gathered)
            p = (base * sums) % mod
        if directed_from is None:
            total = (total + int(p.sum())) % mod
        else:
            total = (total + int(p[directed_from])) % mod
    return total
