"""Test oracles for the circuit builders (import-name-safe module).

The k-path and k-tree recurrences are the per-kind closures their
evaluators ran before every kind became an
:class:`~repro.core.mld.MLDCircuit`: ``test_mld.py`` checks that the
circuit interpreter issues the same lane operations and yields the same
states, in the same order, as these.  The weighted k-path and the scan
row are the paper's weight-axis DPs (truncated convolutions along ``z``
on the field's tables), which the circuits — evaluated at points of
``z`` — must match value for value (``test_weight_oracle.py``,
``test_leveldp_matrix.py``, ``test_mld.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ff.fingerprint import Fingerprint
from repro.graph.templates import decompose_template


def path_recurrence(k):
    def recurrence(lanes):
        p = lanes.base(0)
        for j in range(1, k):
            summed = yield p
            p = None
            p = lanes.scale(j, summed, variable=True)
        return [(p, k)]

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
        return [(values[specs[-1].sid], template.k)]

    return recurrence


# ------------------------------------------- weight-axis oracles
# The weighted path and the scan row as the paper states them: states of
# shape (rows, Z+1, lanes) over the field's tables, every product a
# truncated convolution along the weight axis.  Self-contained on purpose:
# no lane layout, no neighbour-sum helper, nothing the production code
# shares, so a fault there cannot hide here.


def _seed(fp, weights, z_max, indicator):
    """Row i's variable at level 0 in weight cell w(i) (rows heavier than
    ``z_max`` stay zero)."""
    n, n2 = indicator.shape
    out = np.zeros((n, z_max + 1, n2), dtype=fp.field.dtype)
    for i in np.flatnonzero(weights <= z_max):
        out[i, weights[i]] = indicator[i] * fp.y[i, 0]
    return out


def _neighbour_sum(graph, state):
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    out = np.zeros_like(state)
    np.bitwise_xor.at(out, rows, state[graph.indices])
    return out


def _convolve(field, a, b):
    """``out[:, z] = sum_{z1 + z2 = z} a[:, z1] b[:, z2]``, cut at ``Z``."""
    out = np.zeros_like(a)
    cells = a.shape[1]
    for z1 in range(cells):
        for z2 in range(cells - z1):
            out[:, z1 + z2] ^= field.mul(a[:, z1], b[:, z2])
    return out


def weighted_path_cells(graph, weights, fp, z_max, q0, n2):
    """Per-iteration weight cells ``(Z+1, n2)`` of the weighted k-path:
    ``P(i, j, z) = x_i * sum_u P(u, j-1, z - w(i))``."""
    weights = np.asarray(weights, dtype=np.int64)
    field, ind = fp.field, fp.base_block(q0, n2)
    p = _seed(fp, weights, z_max, ind)
    for j in range(1, fp.k):
        s = _neighbour_sum(graph, p)
        shifted = np.zeros_like(s)
        for z in range(z_max + 1):
            src = z - weights
            ok = src >= 0
            shifted[ok, z] = s[ok, src[ok]]
        x = (ind * fp.y[:, j][:, None]).astype(field.dtype)
        p = field.mul(x[:, None, :], shifted)
    return np.bitwise_xor.reduce(p, axis=0)


def scan_row_cells(graph, weights, fp, dim, z_max, q0, n2):
    """Per-iteration weight cells ``(Z+1, n2)`` of scan row ``dim``:
    ``P(i, j) = y(j) sum_{j'} P(i, j') (*) S(j - j')``, ``(*)`` the
    truncated convolution and ``S`` the neighbour sum."""
    weights = np.asarray(weights, dtype=np.int64)
    field = fp.field
    p = {1: _seed(fp, weights, z_max, fp.base_block(q0, n2))}
    s = {}
    for j in range(2, dim + 1):
        s[j - 1] = _neighbour_sum(graph, p[j - 1])
        acc = np.zeros_like(p[1])
        for j1 in range(1, j):
            acc ^= _convolve(field, p[j1], s[j - j1])
        p[j] = field.mul(fp.y[:, j][:, None, None], acc)
    return np.bitwise_xor.reduce(p[dim], axis=0)


def scan_grid_cells(graph, weights, fp, z_max, q0, n2):
    """Per-iteration weight cells ``(k, Z+1, n2)`` of every row of a scan
    run of ``k = fp.k`` dimensions, each row on its own: row ``j`` is the
    dimension-``j`` row's cells (:func:`scan_row_cells`, the vectors ``v``
    cut to ``j`` bits) on the window's iterations below ``2^j``, and zero
    from ``2^j`` on."""
    rows = np.zeros((fp.k, z_max + 1, n2), dtype=fp.field.dtype)
    for j in range(1, fp.k + 1):
        keep = min(n2, (1 << j) - q0)
        if keep > 0:
            cut = Fingerprint(k=j, field=fp.field, v=fp.v & np.uint64((1 << j) - 1),
                              y=fp.y)
            rows[j - 1, :, :keep] = scan_row_cells(graph, weights, cut, j, z_max, q0, keep)
    return rows
