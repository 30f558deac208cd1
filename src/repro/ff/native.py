"""The compiled level step: ``native.c`` built once per host, loaded by ctypes.

Three loops of the paper's inner step run here when a C compiler could
build them: the neighbour gather-XOR (:func:`gather_xor`, under
:func:`repro.core.leveldp.neighbour_sum`), the bit-sliced multiply and sum
of products (:func:`mul_sum`, under :meth:`BitslicedGF2m.mul` /
:meth:`~BitslicedGF2m.mul_sum`) and a row's scaling by its field value
(:func:`scale`, under :meth:`repro.core.leveldp.Lanes.scale`).  The numpy
code those methods hold is the reference the loops equal bit for bit, and
what runs where nothing could be built: :data:`LIB` is ``None`` then.
Nothing else chooses between the two.  The loops read C-contiguous
``(rows, m, W)`` states, as the compiled step makes them; an operand
broadcast or strided otherwise is copied once to that layout.

The library is built at this module's import, on the first import on a
host: ``$CC`` (else ``cc``) compiles ``native.c`` into a private cache
directory — ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else
``<tmp>/repro-<uid>``, mode 0700, refused if another user owns it or
others may write to it — under a name keyed by the sha256 of the source,
the compiler command, the flags and the machine, and carrying the sha256
of the library itself, checked at every load: a torn or corrupt file is
rebuilt.  A build writes a temporary name and renames it into place, so
processes building at once never load a partial file.  Every later import
loads the cached file (well under a millisecond).  No thread is started
and no compiler outlives its build (a timeout kills it).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shlex
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("native.c")
# no loop-alignment flag: with the gather's inner loop the 58-byte tile,
# -falign-loops=32 bought nothing (kpath_dense 0.997x without it,
# 0.986-1.003 over 10 ab_ops.py pairs; Xeon, gcc 12)
FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120

_WORD = 8  # bytes of a uint64 lane word
_MAX_M = 16  # native.c's MAX_M: the partial planes live on its stack
_ptr, _i64, _int, _u32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_uint32
_SIGNATURES = {
    "repro_gather_xor": (_i64, _ptr, _ptr, _ptr, _ptr, _i64),
    "repro_mul_sum": (_int, _u32, _i64, _i64, _int, _ptr, _ptr, _ptr),
    "repro_scale": (_int, _u32, _i64, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr),
}


def cache_dir() -> Path:
    """Where the built library lives (not created here)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    home = Path.home() if "HOME" in os.environ else None
    if home is not None and home.is_dir():
        return home / ".cache" / "repro"
    return Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _private(directory: Path) -> bool:
    """Create ``directory`` (0700) if needed; True if this user owns it and
    nobody else may write to it."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _compiler() -> list:
    """``$CC`` split into its words, else ``cc``."""
    return shlex.split(os.environ.get("CC") or "cc")


def _key(source: bytes) -> str:
    """The cache name of ``source`` built by this compiler, flags and machine:
    a library built by another compiler (or a sanitizing ``$CC``) is another
    file."""
    h = hashlib.sha256(source)
    h.update(" ".join(FLAGS).encode())
    h.update("\0".join(_compiler()).encode())
    h.update(platform.machine().encode())
    return h.hexdigest()[:16]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def intact(path: Path) -> bool:
    """Whether a cached library's bytes match the digest its name carries."""
    try:
        return path.stem.rsplit("-", 1)[-1] == _digest(path.read_bytes())
    except OSError:
        return False


def _open(path: Path) -> Optional[ctypes.CDLL]:
    """The library at ``path`` with its signatures declared; ``None`` where
    the loader refuses it (a filesystem mounted noexec, say)."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


def _build(directory: Path, key: str) -> Optional[Path]:
    """Compile into a temporary name, then rename it to carry its digest."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".build-{key}-", suffix=".so", dir=directory)
    except OSError:
        return None
    os.close(fd)
    try:
        done = subprocess.run([*_compiler(), *FLAGS, "-o", tmp, str(SOURCE)],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=_BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return None
        path = directory / f"native-{key}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, path)
        return path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> Optional[ctypes.CDLL]:
    """The built library with its signatures declared, building it on a cache
    miss; ``None`` where it cannot be built or the cache is not private."""
    directory = cache_dir()
    if not _private(directory):
        return None
    try:
        key = _key(SOURCE.read_bytes())
    except OSError:
        return None
    for path in sorted(directory.glob(f"native-{key}-*.so")):
        if intact(path):
            return _open(path)
        try:  # torn or corrupt: rebuilt below
            path.unlink()
        except OSError:
            pass
    path = _build(directory, key)
    return None if path is None else _open(path)


#: the loaded kernels, or ``None``: the numpy reference runs
LIB: Optional[ctypes.CDLL] = load()


def gather_xor(state: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
               out: np.ndarray) -> bool:
    """``out[p] = XOR of state[indices[indptr[p]:indptr[p + 1]]]`` for every
    row of ``out`` (C-contiguous, ``state``'s row shape and dtype); False
    (nothing written) where a row of ``state`` is not whole words.
    ``indptr`` / ``indices`` are contiguous int64, and every index is below
    ``len(state)``: the caller checks."""
    row_bytes = state.itemsize * math.prod(state.shape[1:])
    if row_bytes % _WORD:
        return False
    if (out.shape[1:] != state.shape[1:] or out.dtype != state.dtype
            or not out.flags.c_contiguous or len(indptr) != len(out) + 1):
        raise ValueError(f"out {out.dtype} {out.shape} and {len(indptr)} indptr "
                         f"entries for a {state.dtype} {state.shape} state")
    state = np.ascontiguousarray(state)  # held: the kernel reads it after _address
    LIB.repro_gather_xor(len(out), _address(indptr), _address(indices),
                         _address(state), _address(out), row_bytes // _WORD)
    return True


def _address(a: np.ndarray) -> int:
    """The address of ``a``'s first element: through the buffer protocol
    (a fraction of ``a.ctypes.data``'s cost) where ``a`` is writable and
    contiguous, else numpy's."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError, BufferError):
        return a.ctypes.data


def _field_planes(m: int, out: np.ndarray) -> None:
    if not 1 <= m <= _MAX_M or out.ndim != 3 or out.shape[1] != m \
            or not out.flags.c_contiguous or out.dtype != np.uint64:
        raise ValueError(f"a C-contiguous (rows, {m}, W) uint64 state, m <= {_MAX_M}, "
                         f"not {out.dtype} {out.shape}")


def _contiguous(x: np.ndarray, shape: tuple) -> np.ndarray:
    """``x`` as C-contiguous uint64 planes of ``shape``: itself, or — where it
    is broadcast or strided — one copy."""
    if getattr(x, "shape", None) == shape and x.dtype == np.uint64 \
            and x.flags.c_contiguous:
        return x
    return np.ascontiguousarray(np.broadcast_to(np.asarray(x, np.uint64), shape))


def mul_sum(m: int, modulus: int, pairs, out: np.ndarray) -> None:
    """``out = sum of a * b`` over ``pairs`` of planes that broadcast to
    ``out``'s ``(rows, m, W)`` (C-contiguous)."""
    _field_planes(m, out)
    operands = [_contiguous(x, out.shape) for pair in pairs for x in pair]
    n = len(pairs)
    a, b = ((ctypes.c_void_p * n)(*map(_address, operands[side::2])) for side in (0, 1))
    LIB.repro_mul_sum(m, modulus, out.shape[0], out.shape[2], n, a, b, _address(out))


def scale(m: int, modulus: int, y: np.ndarray, n2: int,
          words: Optional[np.ndarray], acc: Optional[np.ndarray],
          out: np.ndarray) -> None:
    """``out`` (C-contiguous) = row ``i`` of ``acc`` times ``y[i]`` —
    ``(rows,)``; or ``(rows, B)``, block ``b`` of ``n2`` lanes times
    ``y[i, b]`` and lanes past the blocks 0 — on the lanes set in the
    ``(rows, W)`` ``words`` (``None``: every lane); ``acc`` ``None``
    stands for 1."""
    _field_planes(m, out)
    rows, _, w = out.shape
    if acc is not None:
        acc = _contiguous(acc, out.shape)
    y = np.ascontiguousarray(y, dtype=np.uint32)
    blocks = 1 if y.ndim == 1 else y.shape[1]
    if y.shape[0] != rows or words is not None and words.shape != (rows, w):
        raise ValueError(f"y {y.shape} and lane words for a {out.shape} state")
    if words is not None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
    LIB.repro_scale(m, modulus, rows, w, _address(y), blocks, n2,
                    None if words is None else _address(words),
                    None if acc is None else _address(acc), _address(out))


__all__ = ["FLAGS", "LIB", "SOURCE", "cache_dir", "gather_xor", "intact", "load",
           "mul_sum", "scale"]
