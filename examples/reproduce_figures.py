#!/usr/bin/env python
"""Regenerate the paper's figures programmatically and persist results.

Shows the `repro.experiments` API (what the `python -m repro figures` CLI
prints and `tests/test_experiments.py` asserts) together with result
serialization: sweep a figure, print its series, and store a modeled
estimate as versioned JSON for later analysis.

Run:  python examples/reproduce_figures.py
"""

import json
import tempfile
from pathlib import Path

from repro import PartitionStats, PhaseSchedule, estimate_runtime, juliet
from repro.experiments import fig11_series, fig3_8_series, optimal_n1
from repro.runtime.costmodel import KernelCalibration
from repro.serialization import dump_result, load_result


def main() -> None:
    print("calibrating the DP kernel (once, reused for every figure)...")
    cal = KernelCalibration.measure(sample_nodes=2048, avg_degree=14, k=10)

    # --- Figs 3-5 regime: the interior-optimal N1 -------------------------
    rows = fig3_8_series(k=6, n_processors=(512,), calibration=cal)
    print("\nFig 3 (random-1e6, k=6, N=512, BS1): runtime vs N1")
    for r in rows:
        if r["N=512"] is not None:
            print(f"  N1={r['n1']:>4}: {r['N=512']:8.4f}s")
    best = optimal_n1(rows, "N=512")
    print(f"  -> interior optimum at N1 = {best}")

    # --- Fig 11: the FASCIA wall ------------------------------------------
    rows = fig11_series(k_sweep=range(8, 15), calibration=cal)
    print("\nFig 11 (random-1e6, N=512): MIDAS vs FASCIA")
    for r in rows:
        fa = f"{r['fascia_s']:.1f}s" if r["fascia_feasible"] else "FAIL (memory)"
        print(f"  k={r['k']:>2}: MIDAS {r['midas_s']:8.2f}s   FASCIA {fa}")

    # --- persist a modeled estimate as JSON -------------------------------
    sched = PhaseSchedule(10, 512, 32, PhaseSchedule.bs_max(10, 512, 32))
    est = estimate_runtime(
        PartitionStats.random_model(1_000_000, 13_800_000, 32), sched, cal,
        juliet().cost_model(512),
    )
    out = Path(tempfile.gettempdir()) / "midas_k10_estimate.json"
    dump_result(est, out)
    back = load_result(out)
    print(f"\nmodeled k=10 run persisted to {out}")
    print(f"  round-trip total: {back.total_seconds:.4f}s "
          f"(comm fraction {back.comm_fraction:.1%})")
    print(f"  raw JSON keys: {sorted(json.loads(out.read_text()))[:6]} ...")


if __name__ == "__main__":
    main()
