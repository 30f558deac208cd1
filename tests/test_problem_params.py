"""The problem parameters a compiled circuit derives, pinned to the values
the per-kind factories used to state.

A circuit's field, fingerprint levels, accumulator form, live-state
budget, Theorem-2 model parameters and default schedule decide its
round values, its RNG draws, how many rounds share a window and its
checkpoint identity.  ``tests/golden/problem_params.json`` holds them as
the hand-written ``path_problem`` / ``tree_problem`` /
``weighted_path_problem`` / ``scanstat_problem`` factories of commit
d4f92f8 stated them, for every kind at the configurations of
``round_identity.json``, ``sim_identity.json`` and the five ledger
workloads (full and quick sizes).  The model entry is what reached
:func:`repro.core.model.estimate_runtime`: the DP levels it charged, the
weight axis and whether it applied the z-convolution factor.

The scan-row-1 entries were regenerated when the scan grid became one
run (``tests/test_scan_row_identity.py``): row 1 alone, the single-cell
query at size 1, no longer floors its field at row 2's ``y``-degree 3
but takes its own, 1, and the entries record the flag derived from its
circuit — no convolution step — where the factory's per-kind model label
charged row 1 a convolution it never does.  Every other scan entry,
each row's schedule and live states included, is the factories'.

Two entries move on purpose:

* ``ledger/kinds/wpath`` fuses 3 rounds a window, not 2, sequentially
  and on two threads:
  ``schedule_for`` takes the largest round count whose live states fit
  the budget, where it used to halve the count until they did (4 -> 2,
  skipping 3);
* every weighted path keeps 3 states alive, not 4: its level step no
  longer builds a shifted copy of the neighbour sum (the weight rides in
  the variables, evaluated at points), so ``ledger/kinds/wpath`` fuses
  4 rounds where it fused 3.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden" / "problem_params.json"


def _scan_rows(prefix, n, k, z_max):
    return [(f"{prefix}/scan-row{j}", "scan", n, {"k": j, "z_max": z_max})
            for j in range(1, k + 1)]


def _kinds(prefix, n, k, z_max, template="binary"):
    """Path, tree, weighted path, the size-k scan cell (weight 1) and the
    scan grid's rows at one k."""
    return ([(f"{prefix}/path", "path", n, {"k": k}),
             (f"{prefix}/tree", "tree", n, {"k": k, "template": template}),
             (f"{prefix}/wpath", "wpath", n, {"k": k, "z_max": z_max}),
             (f"{prefix}/scan-cell", "scan", n, {"k": k, "z_max": 1})]
            + _scan_rows(prefix, n, k, z_max))


#: (name, kind, graph size, parameters)
CONFIGS = (
    # round_identity.json: n = 48, 0/1 weights (z_max = k)
    [c for k in (5, 6, 8) for c in _kinds(f"round/k{k}", 48, k, k)]
    + [("round/k10/path", "path", 48, {"k": 10})]
    # sim_identity.json: n = 72, weights in {0, 1, 2}
    + [("sim/path", "path", 72, {"k": 5}),
       ("sim/tree", "tree", 72, {"k": 4, "template": "star"}),
       ("sim/wpath", "wpath", 72, {"k": 4, "z_max": 8}),
       ("sim/scan-cell", "scan", 72, {"k": 3, "z_max": 2})]
    + _scan_rows("sim/grid", 72, 3, 6)
    # the ledger workloads, full then quick sizes
    + [("ledger/kpath_dense", "path", 800, {"k": 10}),
       ("ledger/kinds/tree", "tree", 600, {"k": 8, "template": "binary"}),
       ("ledger/kinds/wpath", "wpath", 600, {"k": 6, "z_max": 6}),
       ("ledger/kpath_wide_proc", "path", 400, {"k": 11}),
       ("ledger/service/path", "path", 1500, {"k": 6}),
       ("ledger/service/tree", "tree", 1500, {"k": 5, "template": "binary"}),
       ("ledger/sim_scaling", "path", 800, {"k": 8})]
    + _scan_rows("ledger/kinds/grid", 600, 5, 5)
    + [("quick/kpath_dense", "path", 120, {"k": 6}),
       ("quick/kinds/tree", "tree", 80, {"k": 5, "template": "binary"}),
       ("quick/kinds/wpath", "wpath", 80, {"k": 4, "z_max": 4}),
       ("quick/kpath_wide_proc", "path", 100, {"k": 7}),
       ("quick/service/path", "path", 200, {"k": 4}),
       ("quick/service/tree", "tree", 200, {"k": 3, "template": "binary"}),
       ("quick/sim_scaling", "path", 100, {"k": 5})]
    + _scan_rows("quick/kinds/grid", 80, 3, 3)
)

#: schedule label -> (MidasRuntime keywords, rounds left to run)
RUNTIMES = {
    "sequential/R4": ({}, 4),
    "sequential/R8": ({}, 8),
    "threaded2/R8": ({"mode": "threaded", "workers": 2}, 8),
    "process4/R8": ({"mode": "process", "workers": 4}, 8),
    "simulated/N4": ({"mode": "simulated", "n_processors": 4, "n1": 2, "n2": 4}, 4),
    "simulated/N64": ({"mode": "simulated", "n_processors": 64, "n1": 16}, 8),
}


def _circuit(kind: str, n: int, p: dict):
    from repro.core.mld import MLDCircuit
    from repro.graph.templates import TreeTemplate

    w = np.zeros(n, dtype=np.int64)
    if kind == "path":
        return MLDCircuit.k_path(p["k"])
    if kind == "tree":
        return MLDCircuit.k_tree(getattr(TreeTemplate, p["template"])(p["k"]))
    if kind == "wpath":
        return MLDCircuit.weighted_path(w, p["k"], p["z_max"])
    return MLDCircuit.scan_row(w, p["k"], p["z_max"])


def observe(kind: str, n: int, p: dict) -> dict:
    from repro.core.engine import MidasRuntime
    from repro.core.model import _problem_levels
    from repro.core.problems import compile

    spec = compile(_circuit(kind, n, p))
    model = "scanstat" if spec.convolves else "path"
    return {
        "name": spec.name, "k": spec.k, "levels": spec.levels,
        "field_degree": spec.field.m, "field_modulus": spec.field.modulus,
        "payload": spec.payload, "scalar": spec.scalar,
        "live_states": spec.live_states,
        "model": [_problem_levels(model, spec.k, spec.exchanges), spec.payload,
                  spec.convolves],
        "schedule": {
            label: [s.n2, s.rounds_per_window]
            for label, (kw, rounds) in RUNTIMES.items()
            for s in [MidasRuntime(**kw).schedule_for(
                spec.k, n, spec.field.m, spec.schedule_payload, rounds=rounds,
                live_states=spec.live_states)]},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(name for name, *_ in CONFIGS)


@pytest.mark.parametrize("name,kind,n,p", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_compiled_spec_matches_the_stated_one(golden, name, kind, n, p):
    expected = golden[name]
    if name == "ledger/kinds/wpath":
        # the first: the largest fused count that fits, not a halved one
        moved = {label: [64, 3]
                 for label in ("sequential/R4", "sequential/R8", "threaded2/R8")}
        assert all(expected["schedule"][label] == [64, 2] for label in moved)
        expected = dict(expected, schedule={**expected["schedule"], **moved})
    if kind == "wpath":
        # the second: no shifted neighbour sum, one live state fewer, and on
        # the ledger's weighted path one fused round more
        assert expected["live_states"] == 4
        expected = dict(expected, live_states=3)
        if name == "ledger/kinds/wpath":
            expected = dict(expected, schedule={**expected["schedule"], **{
                label: [64, 4]
                for label in ("sequential/R4", "sequential/R8", "threaded2/R8")}})
    assert observe(kind, n, p) == expected
