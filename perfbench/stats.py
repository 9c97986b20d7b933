"""Order statistics shared by run.py and the worker (pure Python)."""

from __future__ import annotations

import math


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: the max when fewer than 1/(1-q) values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
