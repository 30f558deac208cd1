"""Shared low-level utilities: bit operations, RNG fan-out, timing, checks."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bitops": ("parity_u64",),
    "rng": ("RngStream", "spawn_rngs"),
    "timing": ("Stopwatch", "format_seconds"),
    "validation": ("check_in_range", "check_positive_int", "check_power_of_two",
                   "check_probability"),
})
