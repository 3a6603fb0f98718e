"""The argument rules of every public entry point, in one place.

This module owns the four rules and the wording of their messages:
finite, positive and finite, non-negative and finite, and an integer in
a range.  Each raises ValueError naming the argument and the value it
got.  A bool, a numpy bool or a float never passes as an integer.
"""

from __future__ import annotations

import numpy as np


def _floats(name: str, value, rule: str, ok=None) -> np.ndarray:
    # ``value`` as a float array, if it is numeric, finite and ``ok``
    values = np.asarray(value)
    if values.dtype.kind in "biuf":
        values = values.astype(float, copy=False)
        good = np.isfinite(values) & (True if ok is None else ok(values))
        if good.all():
            return values
        value = value if values.ndim == 0 else values[~good][0]
    raise ValueError(f"{name} must be {rule}, got {value}")


def finite(name: str, value) -> np.ndarray:
    return _floats(name, value, "finite")


def positive(name: str, value) -> np.ndarray:
    return _floats(name, value, "positive and finite", lambda x: x > 0)


def non_negative(name: str, value) -> np.ndarray:
    return _floats(name, value, "non-negative and finite", lambda x: x >= 0)


def integer(name: str, value, low: int, high: int | None = None) -> int:
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not whole or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value}")
    return int(value)
