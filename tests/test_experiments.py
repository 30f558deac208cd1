"""Tests for the programmatic figure-regeneration API."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    FIGURES,
    fig3_8_series,
    fig9_series,
    fig10_series,
    fig11_series,
    figure_rows,
    giraph_series,
    modeled_runtime,
    optimal_n1,
)
from repro.runtime.costmodel import KernelCalibration


@pytest.fixture(scope="module")
def cal():
    return KernelCalibration.synthetic()


class TestModeledRuntime:
    def test_positive(self, cal):
        t = modeled_runtime("random-1e6", 10, 512, 32, calibration=cal)
        assert t > 0

    def test_unknown_dataset(self, cal):
        with pytest.raises(ConfigurationError):
            modeled_runtime("twitter", 8, 64, 8, calibration=cal)

    def test_scanstat_costlier(self, cal):
        p = modeled_runtime("random-1e6", 8, 256, 32, calibration=cal)
        s = modeled_runtime("random-1e6", 8, 256, 32, problem="scanstat",
                            z_axis=9, calibration=cal)
        assert s > p


PAPER_DATASETS = ("random-1e6", "com-Orkut", "miami")


def _curves(rows):
    """``{column: {n1: seconds}}`` of a fig3_8_series result, gaps dropped."""
    return {
        col: {r["n1"]: r[col] for r in rows if r[col] is not None}
        for col in rows[0] if col != "n1"
    }


class TestFig38:
    def test_structure_and_interior_optimum(self, cal):
        """Figs 3-5: for every dataset and N the best N1 lies strictly
        between pure iteration parallelism (N1=1) and pure vertex
        parallelism (N1=N), and the dip is real at both ends (shallower at
        the high end for the denser datasets)."""
        for dataset in PAPER_DATASETS:
            rows = fig3_8_series(dataset=dataset, k=6, calibration=cal)
            assert {r["n1"] for r in rows} == {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
            for col, curve in _curves(rows).items():
                best = optimal_n1(rows, col)
                assert best == min(curve, key=curve.get)
                assert 1 < best < max(curve) == int(col[2:]), (dataset, col)
                assert curve[best] < 0.9 * curve[1]
                assert curve[best] < 0.97 * curve[max(curve)]

    def test_invalid_combos_none(self, cal):
        rows = fig3_8_series(k=6, n_processors=(128,), calibration=cal)
        r512 = next(r for r in rows if r["n1"] == 512)
        assert r512["N=128"] is None

    def test_bsmax_beats_bs1_at_best(self, cal):
        """Figs 6-8: best-vs-best, batching never loses.  The paper reports
        1x-2x and a measured calibration 2x-6x; the synthetic curve
        amortises a 61x dispatch overhead, hence the wider ceiling."""
        for dataset in PAPER_DATASETS:
            bs1 = _curves(fig3_8_series(dataset=dataset, k=6, calibration=cal))
            bsm = _curves(fig3_8_series(dataset=dataset, k=6, bs_max=True,
                                        calibration=cal))
            for col in bs1:
                gain = min(bs1[col].values()) / min(bsm[col].values())
                assert 1.0 <= gain < 20.0, f"{dataset} {col}: gain {gain:.2f}"


class TestFig9And10:
    def test_fig9_speedups_monotone(self, cal):
        rows = fig9_series(calibration=cal)
        for col in ("N1=32", "N1=64", "N1=128", "N1=Best"):
            ns = [r["N"] for r in rows if r[col] is not None]
            series = [r[col] for r in rows if r[col] is not None]
            assert series[0] == pytest.approx(1.0)
            assert all(b >= a * 0.999 for a, b in zip(series, series[1:]))
            # mild superlinearity is real (a growing N shrinks BSMax back
            # into the c1(N2) sweet spot); four times ideal is not
            assert 1.0 < series[-1] <= 4.0 * ns[-1] / ns[0]

    def test_fig10_speedups_band(self, cal):
        """N1 = N, k-path (Fig 10) and scan statistics (Fig 12): "less than
        ideal but still scale well" over a 16x processor range."""
        for figure in ("fig10", "fig12"):
            rows = figure_rows(figure, calibration=cal)
            for d in PAPER_DATASETS:
                seconds = [r[f"{d} [s]"] for r in rows]
                assert all(b < a for a, b in zip(seconds, seconds[1:]))
                assert 2.0 < rows[-1][f"{d} speedup"] <= 16.0, (figure, d)

    def test_fig12_scaling_tracks_fig10(self, cal):
        """"Considerable strong scalability similar to k-Path": at equal k
        the scan-statistics speedup stays within a modest factor of the
        k-path speedup at every N."""
        path = fig10_series(datasets=("random-1e6",), k=8, calibration=cal)
        scan = fig10_series(datasets=("random-1e6",), k=8, problem="scanstat",
                            z_axis=9, calibration=cal)
        for p, s in zip(path[1:], scan[1:]):
            ratio = s["random-1e6 speedup"] / p["random-1e6 speedup"]
            assert 0.4 < ratio < 2.5


class TestFig11:
    def test_wall_and_ratio(self, cal):
        rows = fig11_series(calibration=cal)
        by_k = {r["k"]: r for r in rows}
        assert by_k[12]["fascia_feasible"]
        assert not by_k[13]["fascia_feasible"]
        assert by_k[12]["ratio"] > 100
        # MIDAS runs through k=18, about doubling per increment (Section VI-C)
        assert max(by_k) == 18
        for k in range(10, 18):
            assert 1.5 < by_k[k + 1]["midas_s"] / by_k[k]["midas_s"] < 3.0


class TestGiraph:
    def test_wall_and_ratio(self, cal):
        rows = giraph_series(calibration=cal)
        feasible = [r["giraph_feasible"] for r in rows]
        # one wall, in the tens of millions of edges: every size below it
        # runs, none above it does, and MIDAS costs all of them
        wall = feasible.index(False)
        assert 0 < wall and not any(feasible[wall:])
        assert 1e7 < rows[wall]["edges"] < 3e8
        assert all(0 < r["midas_s"] < float("inf") for r in rows)
        assert all(r["giraph_s"] > 10 * r["midas_s"] for r in rows[:wall])


class TestOverlapSeries:
    def test_headroom_grows_with_n1(self, cal):
        from repro.experiments import overlap_series

        rows = overlap_series(calibration=cal)
        by_n1 = {r["n1"]: r["saving"] for r in rows}
        assert all(0.0 <= s < 0.6 for s in by_n1.values())
        assert by_n1[512] > by_n1[2]
        assert all(r["overlapped_s"] <= r["sync_s"] for r in rows)


class TestRegistry:
    def test_all_figures_regenerate(self, cal):
        for name in FIGURES:
            rows = figure_rows(name, calibration=cal)
            assert rows and isinstance(rows[0], dict)

    def test_unknown_figure(self):
        with pytest.raises(ConfigurationError):
            figure_rows("fig99")
