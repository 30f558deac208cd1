"""Baselines MIDAS is compared against in the paper.

* :mod:`repro.baselines.colorcoding` — a real color-coding (FASCIA
  algorithm) implementation for approximate path/tree counting, with the
  technique's true ``O(2^k)``-per-vertex table footprint;
* :mod:`repro.baselines.fascia` — the FASCIA cost/memory model used for
  the Fig 11 comparison at cluster scale (including the k > 12 failure);
* :mod:`repro.baselines.giraph_model` — the Giraph/GraphX BSP cost model
  for the prior scan-statistics implementation [19].
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "colorcoding": ("color_coding_count", "color_coding_detect",
                    "colorful_count_one_coloring"),
    "fascia": ("FasciaModel", "FasciaRunResult"),
    "giraph_model": ("GiraphModel",),
})
