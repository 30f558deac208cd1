"""The memory order of a strided array: which axis lies outermost.

A state can lie in memory in another order than its logical shape
(bit-planes plane-major); a pass that copies or gathers along an axis
transposes to this order first so it runs along contiguous memory.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def memory_order(a: np.ndarray) -> Tuple[List[int], List[int]]:
    """Axes of ``a`` by descending stride, and the inverse permutation.

    ``a.transpose(order)`` is the block as it lies in memory (C-contiguous
    when ``a`` is a transposed view of a contiguous array, e.g. plane-major
    bit-planes seen as ``(rows, m, W)``); ``.transpose(inverse)`` of a
    result computed on that block restores the logical axes.

    In such a view two strides tie only where a size-1 axis lies right
    inside another axis, so on a tie a size-1 axis goes inner: every axis
    lands where the block was built with it.
    """
    order = sorted(range(a.ndim), key=lambda ax: (-a.strides[ax], a.shape[ax] == 1))
    return order, sorted(range(a.ndim), key=order.__getitem__)


__all__ = ["memory_order"]
