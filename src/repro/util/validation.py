"""Eager argument validation helpers.

Every public entry point validates its parameters before doing any work, so
that a bad ``(N, N1, N2, k)`` combination fails with a clear message instead
of a cryptic numpy broadcast error three layers down.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def check_positive_int(value, name: str) -> int:
    """Require ``value`` to be an integer >= 1; return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if ivalue != value:
            raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        value = ivalue
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_in_range(value, name: str, low, high) -> None:
    """Require ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")


def check_probability(value, name: str, inclusive: bool = False) -> float:
    """Require ``value`` in (0, 1) — or [0, 1] when ``inclusive``."""
    v = float(value)
    if inclusive:
        if not (0.0 <= v <= 1.0):
            raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    else:
        if not (0.0 < v < 1.0):
            raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
    return v


def check_power_of_two(value, name: str) -> int:
    """Require ``value`` to be a positive power of two; return it as int."""
    v = check_positive_int(value, name)
    if v & (v - 1):
        raise ConfigurationError(f"{name} must be a power of two, got {v}")
    return v


def check_divides(a: int, b: int, name_a: str, name_b: str) -> None:
    """Require ``a`` to divide ``b`` (the paper assumes 2^k/N2 and N/N1 integral)."""
    if b % a:
        raise ConfigurationError(
            f"{name_a} (={a}) must divide {name_b} (={b}); "
            f"the MIDAS schedule assumes integral phase/batch counts"
        )


def integral_weights(weights) -> np.ndarray:
    """``weights`` as int64, refusing any that is not an integer: a
    fractional, NaN or infinite value raises instead of being truncated
    (0.9 would silently become 0).  Integral floats and bools pass."""
    raw = np.asarray(weights)
    if raw.dtype.kind in "fcO":
        try:
            real = raw.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"weights must be integers: {exc}") from None
        if not np.all(np.isfinite(real)) or np.any(real != np.floor(real)):
            bad = real[~np.isfinite(real) | (real != np.floor(real))]
            raise ConfigurationError(
                f"weights must be integers, got {float(bad[0])}; round real weights "
                "first (repro.scanstat.weights.round_weights)")
        raw = real
    try:
        return raw.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"weights must be integers: {exc}") from None


def check_weights(n, weights, z_max: int = 0) -> np.ndarray:
    """Require one non-negative integer weight per vertex of an
    ``n``-vertex graph (``n=None``: a vector of any length; see
    :func:`integral_weights`) and a weight axis bound ``z_max >= 0``;
    return the weights as int64."""
    w = integral_weights(weights)
    if w.ndim != 1 or (n is not None and w.shape != (n,)):
        raise ConfigurationError(
            f"weights must be one integer per vertex ({n}), got shape {w.shape}"
        )
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative integers")
    if z_max < 0:
        raise ConfigurationError(f"z_max must be >= 0, got {z_max}")
    return w
