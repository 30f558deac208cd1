"""Runtime sanitizer and certified-result verification (`repro.sanitize`).

Three independent correctness layers over the detection stack:

* :mod:`repro.sanitize.comm` — :class:`CommSanitizer`, a runtime checker
  the SPMD simulator consults on every yielded op (collective
  divergence, unmatched sends);
* :mod:`repro.sanitize.replay` — :func:`verify_replay`, deterministic
  cross-backend replay with per-(round, batch, phase) digest diffing;
* :mod:`repro.sanitize.certify` — :class:`ResultCertifier`, independent
  re-validation of witnesses, clusters, weights, and grids against the
  graph and the exact oracles.

Enable the comm sanitizer uniformly via ``MidasRuntime(sanitize="warn")``
or ``"strict"``, or per-simulator via ``Simulator(sanitizer=...)``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "certify": ("CertificationReport", "ResultCertifier", "certify_cluster",
                "certify_max_weight", "certify_ordered_path", "certify_path_witness",
                "certify_scan_grid", "certify_scan_score", "certify_tree_witness"),
    "comm": ("SANITIZE_MODES", "VIOLATION_KINDS", "CommSanitizer", "SanitizerReport",
             "Violation"),
    "replay": ("DigestLog", "ReplayDivergence", "ReplayReport", "diff_digest_logs",
               "value_digest", "verify_replay"),
})
