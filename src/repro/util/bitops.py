"""Vectorized parity of 64-bit values.

The multilinear-detection inner loop evaluates, for every (node ``i``,
iteration ``q``) pair, the parity of ``v_i AND q`` where ``v_i`` is the node's
random vector in ``Z_2^k`` packed into a 64-bit integer and ``q`` is the
iteration index (a diagonal element of the group-algebra matrix
representation).  :func:`parity_u64` computes it elementwise for a whole
batch of iterations at once; the fingerprint tests use it as their oracle.
"""

from __future__ import annotations

import numpy as np


def parity_u64(x: "np.ndarray | int") -> "np.ndarray | int":
    """Parity (popcount mod 2) of 64-bit values, elementwise.

    Returns ``uint8`` arrays (0/1) for array input, ``int`` for scalars.
    """
    v = np.array(x, dtype=np.uint64, copy=True)  # never mutate the caller's array
    v ^= v >> np.uint64(32)
    v ^= v >> np.uint64(16)
    v ^= v >> np.uint64(8)
    v ^= v >> np.uint64(4)
    v ^= v >> np.uint64(2)
    v ^= v >> np.uint64(1)
    out = v & np.uint64(1)
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(out)
    return out.astype(np.uint8)

