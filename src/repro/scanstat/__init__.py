"""Graph scan statistics: anomaly detection on networks (paper Problem 2).

The pipeline is: node observations -> p-values / counts ->
integer weights (:mod:`repro.scanstat.weights`) -> MIDAS scan grid
(:func:`repro.core.midas.scan_grid`) -> maximize a scan statistic
(:mod:`repro.scanstat.statistics`) over feasible (size, weight) cells ->
optionally extract the anomalous cluster
(:class:`repro.scanstat.detect.AnomalyDetector`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baseline_grid": ("BaselineGridResult", "baseline_scan_grid"),
    "detect": ("AnomalyDetector", "AnomalyResult", "extract_cluster"),
    "events": ("inject_poisson_counts", "null_poisson_counts", "pvalues_from_counts"),
    "statistics": ("BerkJones", "ElevatedMean", "ExpectationBasedPoisson",
                   "HigherCriticism", "Kulldorff", "KulldorffTwoAxis", "ScanStatistic"),
    "weights": ("binary_weights_from_pvalues", "normal_lower_pvalues", "round_weights"),
})
