"""The four hand-written recurrences the circuit builders replaced, kept
as test oracles (import-name-safe module).

Each is the per-kind closure the k-path, k-tree, weighted k-path and
scan-row evaluators ran before every kind became an
:class:`~repro.core.mld.MLDCircuit`.  ``test_mld.py`` checks that the
circuit interpreter issues the same lane operations and yields the
same states, in the same order, as these; ``test_leveldp_matrix.py``
that it computes the same values.
"""

from __future__ import annotations

import numpy as np

from repro.util.layout import memory_order
from repro.graph.templates import decompose_template


def path_recurrence(k):
    def recurrence(lanes):
        p = lanes.base(0)
        for j in range(1, k):
            summed = yield p
            p = None
            p = lanes.mul(lanes.base(j), summed)
        return p

    return recurrence


def tree_recurrence(template):
    specs = decompose_template(template)

    def recurrence(lanes):
        values = {}
        for s in specs:
            if s.is_leaf:
                values[s.sid] = lanes.base(s.root)
            else:
                acc = yield values.pop(s.child_branch)
                values[s.sid] = lanes.mul(values.pop(s.child_same), acc)
        return values[specs[-1].sid]

    return recurrence


def _weight_seed(lanes, w, z_max):
    base = lanes.base(0)
    out = np.zeros((len(w), z_max + 1) + base.shape[1:], dtype=base.dtype)
    ok = np.nonzero(w <= z_max)[0]
    out[ok, w[ok]] = base[ok]
    return out


def _gather_rows_z(s, flat_src):
    order, inverse = memory_order(s)
    blk = s.transpose(order)
    at = order.index(0)
    merged = blk.reshape(blk.shape[:at] + (-1,) + blk.shape[at + 2:])
    out = np.take(merged, flat_src, axis=at)
    return out.reshape(blk.shape).transpose(inverse)


def weighted_path_recurrence(weights, k, z_max):
    weights = np.asarray(weights, dtype=np.int64)

    def recurrence(lanes):
        w = lanes.take(weights)
        p = _weight_seed(lanes, w, z_max)
        src_z = np.arange(z_max + 1, dtype=np.int64)[None, :] - w[:, None]
        valid = src_z >= 0
        src_z = np.where(valid, src_z, 0)
        flat_src = (np.arange(len(w), dtype=np.int64)[:, None] * (z_max + 1)
                    + src_z).ravel()
        for j in range(1, k):
            s = yield p
            shifted = _gather_rows_z(s, flat_src)
            shifted[~valid] = 0
            p = lanes.mul(lanes.base(j)[:, None], shifted)
        return p

    return recurrence


def scanstat_recurrence(weights, dim, z_max):
    weights = np.asarray(weights, dtype=np.int64)

    def recurrence(lanes):
        p = {1: _weight_seed(lanes, lanes.take(weights), z_max)}
        s = {}
        for j in range(2, dim + 1):
            s[j - 1] = yield p[j - 1]
            acc = np.zeros_like(p[1])
            for j1 in range(1, j):
                a, b = p[j1], s[j - j1]
                for z1 in range(z_max + 1):
                    col = a[:, z1]
                    if col.any():
                        acc[:, z1:] ^= lanes.mul(col[:, None], b[:, : z_max + 1 - z1])
            p[j] = lanes.mul(lanes.coeff(j)[:, None], acc)
        return p[dim]

    return recurrence
