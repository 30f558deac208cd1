"""Shared low-level utilities: bit operations, RNG fan-out, timing, checks."""

from repro.util.bitops import parity_u64
from repro.util.rng import RngStream, spawn_rngs
from repro.util.timing import Stopwatch, format_seconds
from repro.util.validation import (
    check_in_range,
    check_positive_int,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "parity_u64",
    "RngStream",
    "spawn_rngs",
    "Stopwatch",
    "format_seconds",
    "check_in_range",
    "check_positive_int",
    "check_power_of_two",
    "check_probability",
]
