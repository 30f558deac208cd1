"""The compiled level step against the numpy reference, bit for bit.

:mod:`repro.ff.native` runs the neighbour gather-XOR, the bit-sliced
multiply (and sum of products) and a row's scaling by its field value in
C when a compiler could build them; the numpy code of
``leveldp.neighbour_sum``, ``BitslicedGF2m.mul`` / ``mul_sum`` and
``Lanes.scale`` is the reference, and what runs with ``native.LIB`` unset.
Every case here computes both and compares the bits: random CSRs with
isolated rows, a ``linked()`` prefix and a halo view's three adjacencies;
lane widths of 1 to 52 words in both memory orders; every field degree
on the moduli ``GF2m`` uses, broadcast and non-contiguous operands (the
kernels read C-contiguous states; a wrapper copies such an operand once);
the scaling of one block or several, with and without the lane words, on
both of its compiled paths (one value over fewer than 8 words, or over 8
or more: the row-constant map), and the gather's tiles with every tail.
What the drivers themselves pass is never copied.

The second half is the loader: a host with a C compiler must load the
kernel (so a broken build cannot fall back unseen), a torn library is
rebuilt, the cache key names the compiler, a failing compiler leaves the
numpy path with the same digests, two builders racing both load a whole
file, a cache directory others may write to or another user owns is not
loaded from, and no compiler process outlives any of it.
"""

import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.halo import build_halo_views
from repro.core.leveldp import Lanes, neighbour_sum
from repro.ff import BitslicedGF2m, GF2m, native
from repro.ff.fingerprint import Fingerprint
from repro.graph.csr import JaggedDiagonals
from repro.graph.generators import erdos_renyi
from repro.graph.partition import random_partition
from repro.util.rng import RngStream

needs_kernel = pytest.mark.skipif(native.LIB is None, reason="no compiled kernel here")
SRC = Path(native.__file__).resolve().parents[2]

WORDS = (1, 2, 3, 4, 16, 52)


def reference(fn, *args):
    """``fn(*args)`` on the numpy path."""
    lib, native.LIB = native.LIB, None
    try:
        return fn(*args)
    finally:
        native.LIB = lib


def planes(rng, rows, m, w, order):
    """Random logical ``(rows, m, W)`` planes, rows or planes outermost."""
    if order == "row_major":
        return rng.integers(0, 2**64, size=(rows, m, w), dtype=np.uint64)
    return rng.integers(0, 2**64, size=(m, rows, w), dtype=np.uint64).transpose(1, 0, 2)


def same(native_out, numpy_out):
    assert native_out.shape == numpy_out.shape and native_out.dtype == numpy_out.dtype
    assert np.array_equal(native_out, numpy_out)


def test_a_host_with_a_compiler_loads_the_kernel(tmp_path):
    """Skipped only where the loader's compiler (``$CC``, else ``cc``) cannot
    build an empty library: anywhere else a failing ``native.c`` fails here."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    (tmp_path / "empty.c").write_text("int repro_empty;\n")
    try:
        built = subprocess.run([*cc, *native.FLAGS, "-o", str(tmp_path / "empty.so"),
                                str(tmp_path / "empty.c")], capture_output=True, timeout=120)
    except OSError:
        built = None
    if built is None or built.returncode != 0:
        pytest.skip("no working C compiler")
    assert native.LIB is not None


# ------------------------------------------------------------- gather-XOR
@needs_kernel
@given(n=st.one_of(st.integers(0, 40), st.integers(129, 300)),
       n_cols=st.integers(1, 200), max_degree=st.integers(0, 9),
       w=st.sampled_from(WORDS), m=st.integers(1, 8),
       order=st.sampled_from(["row_major", "plane_major"]),
       linked=st.booleans(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_the_gather_is_the_slot_walk(n, n_cols, max_degree, w, m, order, linked, seed):
    """Any CSR (isolated rows, repeats, rectangular), its ``linked()``
    prefix too, in both memory orders; the result is C-contiguous."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, max_degree + 1, size=n)
    lens[rng.random(n) < 0.2] = 0
    indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    jd = JaggedDiagonals(indptr, rng.integers(0, n_cols, size=int(indptr[-1])))
    if linked:
        jd = jd.linked()
    state = planes(rng, n_cols, m, w, order)
    got = neighbour_sum(state, jd)
    same(got, reference(neighbour_sum, state, jd))
    assert got.flags.c_contiguous


@needs_kernel
@pytest.mark.parametrize("w", WORDS)
def test_a_halo_view_and_both_halves(w):
    g = erdos_renyi(300, m=1500, rng=RngStream(8))
    views = build_halo_views(g, random_partition(g, 3, rng=RngStream(9)))
    rng = np.random.default_rng(w)
    for view in views:
        buf = planes(rng, view.n_local, 5, w, "row_major")
        same(neighbour_sum(buf, view.jagged()), reference(neighbour_sum, buf, view.jagged()))
        own, ghost = view.split_jagged()
        for half, rows in ((own, buf[:view.n_own]), (ghost, buf[view.n_own:])):
            same(neighbour_sum(rows, half), reference(neighbour_sum, rows, half))
    assert any(v.n_ghost for v in views)


@needs_kernel
@pytest.mark.parametrize("words", range(8, 24))
def test_the_tiled_gather_on_every_tail(words):
    """Rows of whole 8-word tiles and a tail of 0 .. 7 words, against the
    slot walk; with every row isolated each row is stored as zeros, whatever
    the output held."""
    rng = np.random.default_rng(words)
    state = rng.integers(0, 2**64, size=(50, 1, words), dtype=np.uint64)
    lens = rng.integers(0, 12, size=60)
    lens[::5] = 0
    indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    jd = JaggedDiagonals(indptr, rng.integers(0, 50, size=int(indptr[-1])))
    same(neighbour_sum(state, jd), reference(neighbour_sum, state, jd))
    isolated = JaggedDiagonals(np.zeros(61, np.int64), np.zeros(0, np.int64))
    same(neighbour_sum(state, isolated), reference(neighbour_sum, state, isolated))
    out = np.full((60, 1, words), ~np.uint64(0))
    assert native.gather_xor(state, isolated.indptr, isolated.indices, out)
    assert not out.any()


@needs_kernel
def test_a_state_too_short_for_the_columns_is_refused():
    jd = JaggedDiagonals(np.array([0, 1], np.int64), np.array([5], np.int64))
    with pytest.raises(IndexError):
        neighbour_sum(np.zeros((5, 2, 1), np.uint64), jd)


# --------------------------------------------------------------- multiply
FIELDS = [(m, GF2m(m).modulus) for m in range(1, 17)] + [(1, 0b10), (7, 0b11000001)]


@needs_kernel
@pytest.mark.parametrize("m,modulus", FIELDS, ids=[f"m{m}-{p:b}" for m, p in FIELDS])
def test_mul_and_mul_sum_on_every_degree(m, modulus):
    bs = BitslicedGF2m(m, modulus)
    rng = np.random.default_rng(m * 7 + modulus)
    for w in WORDS:
        rows = 9
        a, b, c, d = (planes(rng, rows, m, w, order) for order in
                      ("row_major", "plane_major", "plane_major", "row_major"))
        same(bs.mul(a, b), reference(bs.mul, a, b))
        pairs = [(a, b), (c, d), (b, c)]
        same(bs.mul_sum(pairs), reference(bs.mul_sum, pairs))
        # one operand for every row, broadcast along the rows
        one = planes(rng, 1, m, w, "row_major")
        same(bs.mul(one, a), reference(bs.mul, one, a))
        same(bs.mul(b, one), reference(bs.mul, b, one))
        # a per-row operand on one word, broadcast along the words
        per_row = planes(rng, rows, m, 1, "row_major")
        same(bs.mul(per_row, c), reference(bs.mul, per_row, c))
        # a non-contiguous input: every other word of a wider block
        strided = planes(rng, rows, m, 2 * w, "row_major")[:, :, ::2]
        same(bs.mul(strided, d), reference(bs.mul, strided, d))


# ------------------------------------------------------------------ scale
@needs_kernel
@given(m=st.integers(1, 16), rows=st.integers(0, 40),
       n2=st.sampled_from([1, 8, 24, 64, 128, 448, 512, 576, 1024]),
       rounds=st.integers(1, 3), level=st.integers(0, 2), variable=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_the_fused_scaling_is_the_planes_product(m, rows, n2, rounds, level, variable,
                                                 seed):
    """``Lanes.base`` and ``Lanes.scale`` of one round or several side by side
    (blocks owning whole words, or sharing them), with the variable's lane
    words or on every lane, against ``_planes`` times the schoolbook."""
    field = GF2m(m, kernel_strategy="bitsliced")
    rng = RngStream(seed)
    fps = [Fingerprint.draw(rows + 3, 3, rng.child(f"r{r}"), field=field) for r in range(rounds)]
    ids = np.random.default_rng(seed).permutation(rows + 3)[:rows]
    lanes = Lanes(fps if rounds > 1 else fps[0], 0, n2, rows=ids)
    w = lanes.words.shape[1]
    acc = planes(np.random.default_rng(seed), rows, m, w, "plane_major")
    same(lanes.base(level), reference(lanes.base, level))
    same(lanes.scale(level, acc, variable), reference(lanes.scale, level, acc, variable))


# (n2, rounds): one value's lanes cover 7 words (the schoolbook), then 8 or
# more (the row-constant map) -- one block or several of whole words, the
# row's width a multiple of 8 words or not
MAP_SHAPES = [(448, 1), (512, 1), (576, 1), (1024, 1), (512, 2), (576, 3), (640, 2)]


@needs_kernel
@pytest.mark.parametrize("n2,rounds", MAP_SHAPES, ids=[f"{n}x{r}" for n, r in MAP_SHAPES])
@pytest.mark.parametrize("m", range(1, 17))
def test_the_row_constant_map_is_the_planes_product(m, n2, rounds):
    """``Lanes.scale`` where one ``y`` covers 8 words or more of a row, on
    every field degree, with the variable's lane words and on every lane."""
    field = GF2m(m, kernel_strategy="bitsliced")
    rng = RngStream(m * 31 + n2 + rounds)
    fps = [Fingerprint.draw(40, 3, rng.child(f"r{r}"), field=field) for r in range(rounds)]
    lanes = Lanes(fps if rounds > 1 else fps[0], 0, n2, rows=np.arange(1, 38))
    assert lanes.words.shape[1] * 64 >= rounds * n2
    acc = planes(np.random.default_rng(m + n2), 37, m, lanes.words.shape[1], "row_major")
    for level, variable in ((0, True), (1, False), (2, True)):
        same(lanes.scale(level, acc, variable), reference(lanes.scale, level, acc, variable))


# ------------------------------------------------------ what the drivers pass
def _copied(x, shape=None, dtype=np.uint64) -> bool:
    """Whether a wrapper would copy ``x`` before the kernel reads it."""
    return x is not None and not (x.flags.c_contiguous and x.dtype == dtype
                                  and (shape is None or x.shape == shape))


@needs_kernel
@pytest.mark.parametrize("mode", ["sequential", "simulated"])
@pytest.mark.parametrize("driver", ["detect_path", "detect_tree", "max_weight_path",
                                    "scan_grid"])
def test_no_kernel_call_copies_an_operand(driver, mode, monkeypatch):
    """Every state the drivers hand the compiled step is already C-contiguous
    ``(rows, m, W)`` uint64 of the result's shape: a layout change that
    would make a wrapper copy fails here, not as a silent slowdown."""
    from _sim_observe import DRIVERS

    from repro.core.engine import MidasRuntime

    copies, calls = [], {}

    def spy(name, operands):
        real = getattr(native, name)

        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            copies.extend(name for copied in operands(*args) if copied)
            return real(*args)

        monkeypatch.setattr(native, name, wrapped)

    spy("gather_xor", lambda state, indptr, indices, out: [
        _copied(state, dtype=state.dtype)])
    spy("mul_sum", lambda m, modulus, pairs, out: [
        _copied(x, out.shape) for pair in pairs for x in pair])
    spy("scale", lambda m, modulus, y, n2, words, acc, out: [
        _copied(words), _copied(acc, out.shape)])
    shape = {} if mode == "sequential" else dict(n_processors=6, n1=3, overlap=True)
    DRIVERS[driver](MidasRuntime(mode=mode, **shape))
    assert copies == []
    assert calls.get("gather_xor") and calls.get("scale")


# ----------------------------------------------------------------- loader
def _child_pids():
    """This process's children, from /proc."""
    me, kids = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            if stat[stat.rindex(")") + 2:].split()[1] == me:
                kids.add(int(entry))
    return kids


@pytest.fixture
def census():
    """No thread and no child process (a compiler) outlives a case."""
    before = (threading.active_count(), _child_pids())
    yield
    assert (threading.active_count(), _child_pids()) == before


PROBE = ("from repro.ff import native; from repro.core.midas import detect_path; "
         "from repro.core.engine import MidasRuntime; from repro.sanitize import DigestLog; "
         "from repro.graph.generators import erdos_renyi; from repro.util.rng import RngStream; "
         "log = DigestLog(); r = detect_path(erdos_renyi(300, m=1500, rng=RngStream(4)), 8, "
         "rng=RngStream(5), early_exit=False, runtime=MidasRuntime(digest_log=log)); "
         "print(native.LIB is not None, [x.value for x in r.rounds], log.rows())")


def _probe(cache: Path, **env):
    """Import the loader in a fresh interpreter over ``cache`` (never in this
    one: the tests rewrite cached files, which must not be mapped here);
    returns (loaded, the round values and digests)."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "PYTHONPATH": str(SRC),
                                           "XDG_CACHE_HOME": str(cache), **env})
    assert out.returncode == 0, out.stderr
    loaded, values = out.stdout.split(" ", 1)
    return loaded == "True", values


def _libraries(cache: Path):
    return sorted((cache / "repro").glob("*"))


@needs_kernel
def test_a_torn_library_is_rebuilt(tmp_path, census):
    assert _probe(tmp_path)[0]
    (lib,) = _libraries(tmp_path)
    data = lib.read_bytes()
    lib.write_bytes(data[: len(data) // 3])
    assert _probe(tmp_path)[0]
    (rebuilt,) = _libraries(tmp_path)
    assert native.intact(rebuilt)  # whole again
    data = rebuilt.read_bytes()
    rebuilt.write_bytes(data[:100] + bytes(64) + data[164:])  # corrupt, same size
    assert _probe(tmp_path)[0]
    assert [native.intact(p) for p in _libraries(tmp_path)] == [True]


@needs_kernel
def test_no_compiler_runs_the_numpy_path_with_the_same_digests(tmp_path, census):
    loaded, values = _probe(tmp_path / "native")
    assert loaded
    assert _probe(tmp_path / "numpy", CC="/bin/false") == (False, values)
    assert _libraries(tmp_path / "numpy") == []


@needs_kernel
def test_two_builders_at_once_both_load_a_whole_file(tmp_path, census):
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path)}
    code = "from repro.ff import native; print(native.LIB is not None)"
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, env=env) for _ in range(2)]
    outs = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert outs == ["True", "True"]
    libs = _libraries(tmp_path)
    assert libs and all(p.name.startswith("native-") for p in libs)  # no temporary left
    assert all(native.intact(p) for p in libs)


def test_the_cache_key_names_the_compiler(monkeypatch):
    """A library another compiler built, or a sanitizing ``$CC``, is another
    file; an unset or empty ``CC`` is ``cc``, and ``CC`` is read as words."""
    def key(cc):
        if cc is None:
            monkeypatch.delenv("CC", raising=False)
        else:
            monkeypatch.setenv("CC", cc)
        return native._key(b"int repro_probe;")

    assert key(None) == key("") == key("cc")
    assert key("gcc  -O2") == key("gcc -O2")
    compilers = ["cc", "gcc", "clang", "gcc-12", "gcc -fsanitize=address,undefined"]
    assert len({key(cc) for cc in compilers}) == len(compilers)


@pytest.mark.parametrize("hostile", ["world_writable", "another_owner"])
def test_a_cache_others_control_is_not_loaded_from(tmp_path, monkeypatch, census, hostile):
    cache = tmp_path / "repro"
    cache.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if hostile == "world_writable":
        cache.chmod(0o777)
    else:
        monkeypatch.setattr(native.os, "getuid", lambda: os.stat(cache).st_uid + 1)
    assert native.load() is None
    assert list(cache.iterdir()) == []
