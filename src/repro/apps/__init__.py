"""Application case studies built on the library (paper Section VI-F +
the bio-surveillance motivation of Section I)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "epidemics": ("OutbreakReport", "OutbreakStudy", "SurveillanceRegion"),
    "roadnet": ("CongestionStudy", "HighwayNetwork", "build_highway_network"),
})
