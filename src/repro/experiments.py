"""Programmatic figure regeneration: the paper's sweeps as a library API.

Each function reproduces one experiment family from Section VI and returns
structured rows (lists of dicts) that callers can print, plot, or assert
on.  :data:`FIGURES` is the one producer of every series: ``python -m
repro figures`` prints it, ``tests/test_experiments.py`` asserts its shape,
and a downstream user can regenerate any figure programmatically:

    from repro.experiments import fig11_series
    rows = fig11_series()          # modeled MIDAS vs FASCIA per k
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.fascia import FasciaModel
from repro.baselines.giraph_model import GiraphModel
from repro.core.model import PartitionStats, estimate_runtime
from repro.core.schedule import PhaseSchedule
from repro.errors import ConfigurationError
from repro.graph.datasets import DATASETS
from repro.runtime.cluster import VirtualCluster, juliet
from repro.runtime.costmodel import KernelCalibration

Row = Dict[str, object]


def _dataset_nm(dataset: str) -> tuple:
    if dataset not in DATASETS:
        raise ConfigurationError(
            f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}"
        )
    spec = DATASETS[dataset]
    return spec.paper_nodes, spec.paper_edges


def _default_calibration(calibration: Optional[KernelCalibration]) -> KernelCalibration:
    return calibration if calibration is not None else KernelCalibration.synthetic()


def _tuned_n2(k: int, n_processors: int, n1: int, calibration: KernelCalibration) -> int:
    """BSMax capped at the calibration's cache sweet spot (paper: N2 < 1024)."""
    tab = calibration.as_table()
    n2 = min(PhaseSchedule.bs_max(k, n_processors, n1), min(tab, key=tab.get))
    while (1 << k) % n2:
        n2 -= 1
    return max(1, n2)


def modeled_runtime(
    dataset: str,
    k: int,
    n_processors: int,
    n1: int,
    n2: Optional[int] = None,
    eps: float = 0.2,
    problem: str = "path",
    z_axis: int = 1,
    calibration: Optional[KernelCalibration] = None,
    cluster: Optional[VirtualCluster] = None,
) -> float:
    """One modeled MIDAS runtime (seconds) at paper dataset scale."""
    cal = _default_calibration(calibration)
    cl = cluster if cluster is not None else juliet()
    n, m = _dataset_nm(dataset)
    if n2 is None:
        n2 = _tuned_n2(k, n_processors, n1, cal)
    sched = PhaseSchedule(k, n_processors, n1, n2)
    return estimate_runtime(
        PartitionStats.random_model(n, m, n1), sched, cal,
        cl.cost_model(min(n_processors, cl.total_cores)),
        eps=eps, problem=problem, z_axis=z_axis,
    ).total_seconds


def fig3_8_series(
    dataset: str = "random-1e6",
    k: int = 6,
    n_processors: Sequence[int] = (128, 256, 512),
    n1_sweep: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    bs_max: bool = False,
    calibration: Optional[KernelCalibration] = None,
) -> List[Row]:
    """Figures 3-5 (``bs_max=False``) / 6-8 (``bs_max=True``): runtime vs N1."""
    cal = _default_calibration(calibration)
    rows: List[Row] = []
    for n1 in n1_sweep:
        row: Row = {"n1": n1}
        for N in n_processors:
            if n1 > N or N % n1:
                row[f"N={N}"] = None
                continue
            n2 = PhaseSchedule.bs_max(k, N, n1) if bs_max else 1
            row[f"N={N}"] = modeled_runtime(
                dataset, k, N, n1, n2=n2, calibration=cal
            )
        rows.append(row)
    return rows


def optimal_n1(rows: List[Row], column: str) -> Optional[int]:
    """The N1 minimizing ``column`` in a :func:`fig3_8_series` result."""
    best, arg = float("inf"), None
    for r in rows:
        v = r.get(column)
        if v is not None and v < best:
            best, arg = v, r["n1"]
    return arg


def fig9_series(
    dataset: str = "random-1e6",
    k: int = 10,
    n1_series: Sequence[int] = (32, 64, 128),
    n_sweep: Sequence[int] = (32, 64, 128, 256, 512),
    calibration: Optional[KernelCalibration] = None,
) -> List[Row]:
    """Figure 9: strong-scaling speedup vs N for fixed N1 (+ N1=Best)."""
    cal = _default_calibration(calibration)
    times = {
        n1: {
            N: modeled_runtime(dataset, k, N, n1, calibration=cal)
            for N in n_sweep
            if n1 <= N and N % n1 == 0
        }
        for n1 in n1_series
    }
    best = {}
    for N in n_sweep:
        cands = [
            modeled_runtime(dataset, k, N, c, calibration=cal)
            for c in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
            if c <= N and N % c == 0
        ]
        best[N] = min(cands)
    rows: List[Row] = []
    n_min = min(n_sweep)
    for N in n_sweep:
        row: Row = {"N": N}
        for n1 in n1_series:
            series = times[n1]
            row[f"N1={n1}"] = (
                series[min(series)] / series[N] if N in series else None
            )
        row["N1=Best"] = best[n_min] / best[N]
        rows.append(row)
    return rows


def fig10_series(
    datasets: Sequence[str] = ("random-1e6", "com-Orkut", "miami"),
    k: int = 10,
    n_sweep: Sequence[int] = (32, 64, 128, 256, 512),
    problem: str = "path",
    z_axis: int = 1,
    calibration: Optional[KernelCalibration] = None,
) -> List[Row]:
    """Figure 10 (``problem='path'``) / Figure 12 (``problem='scanstat'``):
    classic strong scaling with N1 = N."""
    cal = _default_calibration(calibration)
    curves = {
        d: {
            N: modeled_runtime(d, k, N, N, problem=problem, z_axis=z_axis,
                               calibration=cal)
            for N in n_sweep
        }
        for d in datasets
    }
    rows: List[Row] = []
    n_min = min(n_sweep)
    for N in n_sweep:
        row: Row = {"N": N}
        for d in datasets:
            row[f"{d} [s]"] = curves[d][N]
            row[f"{d} speedup"] = curves[d][n_min] / curves[d][N]
        rows.append(row)
    return rows


def fig11_series(
    dataset: str = "random-1e6",
    k_sweep: Sequence[int] = tuple(range(4, 19)),
    n_processors: int = 512,
    n1: int = 32,
    calibration: Optional[KernelCalibration] = None,
    fascia: Optional[FasciaModel] = None,
) -> List[Row]:
    """Figure 11: modeled MIDAS vs FASCIA runtime per subgraph size."""
    cal = _default_calibration(calibration)
    fm = fascia if fascia is not None else FasciaModel()
    n, m = _dataset_nm(dataset)
    rows: List[Row] = []
    for k in k_sweep:
        mt = modeled_runtime(dataset, k, n_processors, n1, calibration=cal)
        fr = fm.run(n=n, m=m, k=k, n_processors=n_processors)
        rows.append(
            {
                "k": k,
                "midas_s": mt,
                "fascia_s": fr.seconds if fr.feasible else None,
                "fascia_feasible": fr.feasible,
                "ratio": (fr.seconds / mt) if fr.feasible else None,
            }
        )
    return rows


def giraph_series(
    sizes: Iterable[tuple] = (
        (500_000, 7_000_000),
        (1_000_000, 13_800_000),
        (2_000_000, 29_000_000),
        (4_000_000, 60_000_000),
        (10_000_000, 161_800_000),
    ),
    k: int = 10,
    n_processors: int = 256,
    n1: int = 32,
    calibration: Optional[KernelCalibration] = None,
    giraph: Optional[GiraphModel] = None,
) -> List[Row]:
    """Section I comparison: MIDAS vs Giraph scan statistics over graph size."""
    cal = _default_calibration(calibration)
    floor = min(cal.as_table().values())
    gm = giraph if giraph is not None else GiraphModel(c1_jvm=20.0 * floor)
    z_axis = k + 1
    rows: List[Row] = []
    for n, m in sizes:
        mt = estimate_runtime(
            PartitionStats.random_model(n, m, n1),
            PhaseSchedule(k, n_processors, n1, _tuned_n2(k, n_processors, n1, cal)),
            cal, juliet().cost_model(n_processors),
            problem="scanstat", z_axis=z_axis,
        ).total_seconds
        gt = gm.run_seconds(n, m, k, z_axis=z_axis)
        rows.append(
            {
                "nodes": n,
                "edges": m,
                "midas_s": mt,
                "giraph_s": gt if gt != float("inf") else None,
                "giraph_feasible": gt != float("inf"),
            }
        )
    return rows


def overlap_series(
    dataset: str = "random-1e6",
    k: int = 6,
    n_processors: int = 512,
    n1_sweep: Sequence[int] = (2, 8, 32, 128, 512),
    calibration: Optional[KernelCalibration] = None,
) -> List[Row]:
    """Exchange/Collect overlap headroom vs N1 (the overlap ablation, as API).

    Per row: modeled runtimes of the synchronous and overlapped exchanges
    at BS1, and the fractional saving — negligible in the compute-bound
    regime, growing where the paper's curves turn communication-bound.
    """
    cal = _default_calibration(calibration)
    n, m = _dataset_nm(dataset)
    cl = juliet()
    rows: List[Row] = []
    for n1 in n1_sweep:
        if n1 > n_processors or n_processors % n1:
            continue
        sched = PhaseSchedule(k, n_processors, n1, 1)
        stats = PartitionStats.random_model(n, m, n1)
        cm = cl.cost_model(n_processors)
        sync_t = estimate_runtime(stats, sched, cal, cm).total_seconds
        over_t = estimate_runtime(stats, sched, cal, cm, overlap=True).total_seconds
        rows.append(
            {
                "n1": n1,
                "sync_s": sync_t,
                "overlapped_s": over_t,
                "saving": 1.0 - over_t / sync_t,
            }
        )
    return rows


FIGURES = {
    "fig3-5": lambda cal: fig3_8_series(bs_max=False, calibration=cal),
    "fig6-8": lambda cal: fig3_8_series(bs_max=True, calibration=cal),
    "fig9": lambda cal: fig9_series(calibration=cal),
    "fig10": lambda cal: fig10_series(calibration=cal),
    "fig11": lambda cal: fig11_series(calibration=cal),
    "fig12": lambda cal: fig10_series(problem="scanstat", z_axis=9, k=8,
                                      calibration=cal),
    "giraph": lambda cal: giraph_series(calibration=cal),
    "overlap": lambda cal: overlap_series(calibration=cal),
}


def figure_rows(name: str, calibration: Optional[KernelCalibration] = None) -> List[Row]:
    """Regenerate one named figure's series (see :data:`FIGURES`)."""
    if name not in FIGURES:
        raise ConfigurationError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    return FIGURES[name](calibration)
