"""Differential kernel-fuzz suite: bitsliced vs table vs logexp.

The three GF(2^m) kernel strategies must be *element-wise equal* on every
operation for every legal ``(m, modulus, shape)`` — every level step
multiplies on bit-planes and the tables are the oracle, so a single
divergent lane would silently change detection results.  The bit-sliced side runs
on its substrate: slice the operands, run the plane op, unslice.  Hypothesis
drives random fields (including non-default irreducible moduli), random
array shapes (odd lane counts straddling the uint64 word boundary), and
the documented edge lanes: all-zeros, all-ones (identity), and the
``m = 8`` → uint8 / ``m > 8`` → uint16 dtype boundary.

The table strategy (``m <= 8``) is the oracle where it exists; logexp is
the oracle above.  The plane-resident path evaluator gets its own
differential test against the same recurrence driven element-wise.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.ff import BitslicedGF2m, GF2m
from repro.ff.poly2 import is_irreducible

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)

# lane counts chosen to straddle the uint64 word boundary
LANE_COUNTS = (1, 3, 8, 63, 64, 65, 127, 128, 130)


def irreducibles(m, limit=4):
    """The first ``limit`` irreducible degree-m polynomials (packed)."""
    out = []
    for cand in range(1 << m, 1 << (m + 1)):
        if is_irreducible(cand):
            out.append(cand)
            if len(out) == limit:
                break
    return out


_FIELD_CACHE = {}


def field_pair(m, modulus):
    """(oracle field, bitsliced field) for one (m, modulus), cached —
    table construction is the slow part of every example."""
    key = (m, modulus)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = (
            GF2m(m, modulus=modulus),  # auto: table for m<=8, logexp above
            GF2m(m, modulus=modulus, kernel_strategy="bitsliced"),
        )
    return _FIELD_CACHE[key]


def on_planes(field, op, a, *args):
    """``op`` of ``field``'s bit-sliced substrate on element arrays: every
    array operand sliced, the plane op run, the result unsliced."""
    bs = field.bitsliced
    args = [bs.slice(x) if isinstance(x, np.ndarray) else x for x in args]
    return bs.unslice(getattr(bs, op)(bs.slice(a), *args), a.shape[-1], field.dtype)


@st.composite
def field_and_arrays(draw):
    m = draw(st.integers(min_value=1, max_value=16))
    modulus = draw(st.sampled_from(irreducibles(m)))
    oracle, bits = field_pair(m, modulus)
    rows = draw(st.integers(min_value=1, max_value=5))
    n2 = draw(st.sampled_from(LANE_COUNTS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, oracle.order, size=(rows, n2)).astype(oracle.dtype)
    b = rng.integers(0, oracle.order, size=(rows, n2)).astype(oracle.dtype)
    # force the documented edge lanes into every example
    a[0, 0] = 0
    b[0, 0] = 0
    if rows > 1:
        a[1, :] = 1  # identity lane
    edge = draw(st.sampled_from(["none", "zeros", "ones"]))
    if edge == "zeros":
        a[...] = 0
    elif edge == "ones":
        a[...] = 1
    return oracle, bits, a, b


class TestDifferentialKernels:
    @given(data=field_and_arrays())
    @settings(**COMMON)
    def test_mul_agrees(self, data):
        oracle, bits, a, b = data
        assert np.array_equal(oracle.mul(a, b), on_planes(bits, "mul", a, b))

    @given(data=field_and_arrays())
    @settings(**COMMON)
    def test_add_and_xor_sum_agree(self, data):
        oracle, bits, a, b = data
        assert np.array_equal(oracle.add(a, b), on_planes(bits, "add", a, b))
        assert np.array_equal(oracle.xor_sum(a, axis=0),
                              on_planes(bits, "xor_sum", a, 0))

    @given(data=field_and_arrays(), s_seed=st.integers(min_value=0, max_value=2**16))
    @settings(**COMMON)
    def test_mul_scalar_agrees(self, data, s_seed):
        oracle, bits, a, _ = data
        for s in (0, 1, oracle.order - 1, s_seed % oracle.order):
            assert np.array_equal(oracle.mul_scalar(a, s),
                                  on_planes(bits, "mul_scalar", a, s))

    @given(data=field_and_arrays())
    @settings(**COMMON)
    def test_div_agrees(self, data):
        """Division on planes is the multiply by the tables' inverse."""
        oracle, bits, a, b = data
        bnz = np.where(b == 0, oracle.dtype(1), b)
        inv_b = oracle.inv(bnz)
        assert np.array_equal(oracle.div(a, bnz), on_planes(bits, "mul", a, inv_b))


class TestSubstrateLayout:
    @given(data=field_and_arrays())
    @settings(**COMMON)
    def test_slice_unslice_roundtrip(self, data):
        oracle, bits, a, _ = data
        bs = bits.bitsliced
        planes = bs.slice(a)
        assert planes.shape == a.shape[:-1] + (oracle.m, bs.words(a.shape[-1]))
        assert np.array_equal(bs.unslice(planes, a.shape[-1], oracle.dtype), a)

    def test_dtype_boundary(self):
        # m = 8 stays uint8; m = 9 crosses to uint16 — both must slice,
        # multiply, and unslice losslessly at full range
        rng = np.random.default_rng(7)
        for m in (8, 9, 16):
            f_oracle, f_bits = field_pair(m, irreducibles(m)[0])
            assert f_oracle.dtype == (np.uint8 if m <= 8 else np.uint16)
            a = rng.integers(0, f_oracle.order, size=(3, 65)).astype(f_oracle.dtype)
            b = rng.integers(0, f_oracle.order, size=(3, 65)).astype(f_oracle.dtype)
            assert np.array_equal(f_oracle.mul(a, b), on_planes(f_bits, "mul", a, b))

    def test_table_vs_logexp_vs_bitsliced_three_way(self):
        # all three strategies exist only for m <= 8; pin them pairwise
        rng = np.random.default_rng(11)
        for m in (4, 8):
            mod = irreducibles(m)[0]
            table = GF2m(m, modulus=mod, kernel_strategy="table")
            logexp = GF2m(m, modulus=mod, kernel_strategy="logexp")
            bits = GF2m(m, modulus=mod, kernel_strategy="bitsliced")
            a = rng.integers(0, table.order, size=(4, 70)).astype(table.dtype)
            b = rng.integers(0, table.order, size=(4, 70)).astype(table.dtype)
            r = table.mul(a, b)
            assert np.array_equal(r, logexp.mul(a, b))
            assert np.array_equal(r, on_planes(bits, "mul", a, b))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(FieldError, match="kernel_strategy"):
            GF2m(4, kernel_strategy="nonsense")

    def test_substrate_rejects_bad_m(self):
        with pytest.raises(FieldError):
            BitslicedGF2m(17, 1 << 17)

    def test_mul_shape_mismatch_rejected(self):
        bs = BitslicedGF2m(4, 0b10011)
        with pytest.raises(FieldError, match="shapes"):
            bs.mul(np.zeros((2, 4, 1), np.uint64), np.zeros((3, 4, 1), np.uint64))



def high_tap_modulus(m):
    """An irreducible degree-m modulus whose highest tap (set bit below
    ``x^m``) is at least ``m / 2``, so the high partial planes fold in
    several short chunks; ``None`` when no such modulus exists."""
    for cand in range((1 << (m + 1)) - 1, 1 << m, -1):
        if 2 * ((cand ^ (1 << m)).bit_length() - 1) >= m and is_irreducible(cand):
            return cand
    return None


def plane_major(planes):
    """The same logical ``(..., m, W)`` planes over plane-outermost memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(planes, -2, 0)), 0, -2)


# (m, modulus) for every degree: the default modulus, a high-tap one where
# the degree has one, and GF(2) as GF(2)[x] / (x) — no tap, nothing to fold
FIELDS = sorted(
    {(m, GF2m(m).modulus) for m in range(1, 17)}
    | {(m, high_tap_modulus(m)) for m in range(2, 17) if high_tap_modulus(m)}
    | {(1, 0b10)}
)


class TestPlaneArithmeticLayouts:
    """``mul`` / ``mul_scalar`` on planes equal the
    element-wise oracle for every degree, for moduli that exercise the
    one-chunk, many-chunk and no-tap reductions, whatever the memory order
    of the operands, and for operands that broadcast along a weight axis."""

    @pytest.mark.parametrize("memory", ["node_major", "plane_major"])
    @pytest.mark.parametrize("m,modulus", FIELDS,
                             ids=[f"m{m}-{modulus:b}" for m, modulus in FIELDS])
    def test_matches_oracle(self, m, modulus, memory):
        oracle, bits = field_pair(m, modulus)
        bs = bits.bitsliced
        layout = plane_major if memory == "plane_major" else (lambda p: p)
        rng = np.random.default_rng(modulus)
        rows, z, n2 = 4, 3, 70  # two lane words, the second partly padding
        a = rng.integers(0, oracle.order, size=(rows, n2)).astype(oracle.dtype)
        b = rng.integers(0, oracle.order, size=(rows, n2)).astype(oracle.dtype)
        c = rng.integers(0, oracle.order, size=(rows, z, n2)).astype(oracle.dtype)
        a[0, :3] = (0, 1, oracle.order - 1)
        pa, pb, pc = layout(bs.slice(a)), layout(bs.slice(b)), layout(bs.slice(c))
        assert m == 1 or pa.flags.c_contiguous == (memory == "node_major")

        def elems(planes):
            assert planes.shape[-2:] == (m, bs.words(n2))
            return bs.unslice(planes, n2, oracle.dtype)

        assert np.array_equal(elems(bs.mul(pa, pb)), oracle.mul(a, b))
        # one operand in each memory order
        assert np.array_equal(elems(bs.mul(pa, bs.slice(b))), oracle.mul(a, b))
        for s in (0, 1, oracle.order - 1, 0x53 % oracle.order):
            assert np.array_equal(elems(bs.mul_scalar(pa, s)), oracle.mul_scalar(a, s))
        # (rows, 1, m, W) x (rows, Z, m, W): the weight-axis recurrences
        wide = bs.mul(pa[:, None], pc)
        assert wide.shape == (rows, z, m, bs.words(n2))
        assert np.array_equal(elems(wide), oracle.mul(a[:, None, :], c))
        assert np.array_equal(elems(bs.mul(pc, pa[:, None])), oracle.mul(c, a[:, None, :]))

    @pytest.mark.parametrize("z", [1, 4])
    @pytest.mark.parametrize("m,modulus", [(1, 0b11), (5, GF2m(5).modulus),
                                           (9, GF2m(9).modulus)])
    def test_a_weight_cell_major_product_stays_weight_cell_major(self, m, modulus, z):
        """A ``(m, Z, rows, W)`` state times a weight cell's column (and a
        per-row coefficient) broadcast along ``z``: the product lies as the
        state does, and equals the element-wise product."""
        oracle, bits = field_pair(m, modulus)
        bs = bits.bitsliced
        rng = np.random.default_rng(m * 10 + z)
        rows, n2 = 7, 130
        c = rng.integers(0, oracle.order, size=(rows, z, n2)).astype(oracle.dtype)
        # logical (rows, Z, m, W) over a contiguous (m, Z, rows, W) block
        z_outer = (2, 1, 0, 3)  # its own inverse
        state = np.ascontiguousarray(bs.slice(c).transpose(z_outer)).transpose(z_outer)
        column = state[:, z - 1]
        coeff = bs.slice(c[:, 0])  # node-major (rows, m, W): another memory order
        for a, elements in ((column, c[:, z - 1]), (coeff, c[:, 0])):
            for prod in (bs.mul(a[:, None], state), bs.mul(state, a[:, None])):
                assert prod.shape == state.shape
                assert prod.transpose(z_outer).flags.c_contiguous
                assert np.array_equal(bs.unslice(prod, n2, oracle.dtype),
                                      oracle.mul(elements[:, None, :], c))

    def test_chunked_fold_is_exercised(self):
        # highest tap 6 (as in x^7 + x^6 + 1): the six high planes fold one
        # at a time; the default x^7 + x + 1 folds them all at once
        assert is_irreducible(0b11000001)
        assert BitslicedGF2m(7, 0b11000001)._fold == 1
        assert BitslicedGF2m(7, high_tap_modulus(7))._fold == 1
        assert BitslicedGF2m(7, GF2m(7).modulus)._fold == 6

    def test_operands_must_broadcast_axis_for_axis(self):
        bs = BitslicedGF2m(4, 0b10011)
        with pytest.raises(FieldError, match="shapes"):
            bs.mul(np.zeros((2, 3, 4, 1), np.uint64), np.zeros((4, 1), np.uint64))


class TestPerRowLinearMap:
    """``mul_rows``: each row's ``y`` as an ``m x m`` GF(2)-linear map (two
    byte tables XORed past ``m = 8``) equals the schoolbook multiply by
    that ``y``'s planes — on the indicator's lanes (a variable) or on
    every lane (a join coefficient) — and the tables' product, lane for
    lane, whatever the memory order of the state; so does the compiled
    scaling (:func:`repro.ff.native.scale`), which builds no planes of
    ``y``, where it is built."""

    @pytest.mark.parametrize("form", ["variable", "coefficient"])
    @pytest.mark.parametrize("words", [1, 2])
    @pytest.mark.parametrize("m", range(3, 17))
    def test_the_map_is_the_schoolbook_product(self, m, words, form, monkeypatch):
        from repro.ff import native

        lib = native.LIB
        monkeypatch.setattr(native, "LIB", None)  # the schoolbook is numpy's
        oracle, bits = field_pair(m, GF2m(m).modulus)
        bs = bits.bitsliced
        rng = np.random.default_rng(m * 10 + words)
        rows, n2 = 9, 64 * words - 3  # the last word partly padding
        y = rng.integers(0, oracle.order, size=rows).astype(oracle.dtype)
        y[:3] = (0, 1, oracle.order - 1)
        a = rng.integers(0, oracle.order, size=(rows, n2)).astype(oracle.dtype)
        ind = rng.integers(0, 2, size=(rows, n2)).astype(np.uint8)
        if form == "coefficient":
            ind[:] = 1
        lanes = bs.pack_indicator(ind)
        expected = oracle.mul((ind * y[:, None]).astype(oracle.dtype), a)
        school = bs.mul(bs.planes_from_words(lanes, y), bs.slice(a))
        assert np.array_equal(bs.unslice(school, n2, oracle.dtype), expected)
        for pa in (bs.slice(a), plane_major(bs.slice(a))):
            got = bs.mul_rows(y, pa, lanes if form == "variable" else None)
            assert got.shape == (rows, m, words)
            assert np.array_equal(bs.unslice(got, n2, oracle.dtype), expected)
            if lib is not None:
                monkeypatch.setattr(native, "LIB", lib)
                native.scale(m, bs.modulus, y, n2, lanes if form == "variable" else None,
                             pa, got)
                assert np.array_equal(bs.unslice(got, n2, oracle.dtype), expected)


class TestPlaneResidentEvaluator:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n2=st.sampled_from([1, 8, 64, 96]),
           k=st.integers(min_value=2, max_value=6))
    @settings(**COMMON)
    def test_path_phase_bitsliced_matches_elementwise(self, seed, n2, k):
        from _leveldp_drivers import element_lanes
        from repro.core.evaluator_path import path_eval_phase
        from repro.core.mld import MLDCircuit
        from repro.ff.fingerprint import Fingerprint
        from repro.graph.generators import erdos_renyi
        from repro.util.rng import RngStream

        rng = RngStream(seed, name="fuzz")
        g = erdos_renyi(40, 120, rng=rng)
        ft, fb = field_pair(7, irreducibles(7)[0])
        fpt = Fingerprint.draw(g.n, k, rng, field=ft)
        fpb = Fingerprint(k=k, field=fb, v=fpt.v, y=fpt.y.copy())
        assert np.array_equal(
            element_lanes(g, MLDCircuit.k_path(k).recurrence(), fpt, 0, n2)[0],
            path_eval_phase(g, fpb, 0, n2)
        )
