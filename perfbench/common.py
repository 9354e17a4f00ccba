"""Helpers shared by ``run.py`` and its host processes."""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..1); NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


def emit(event: dict[str, Any]) -> None:
    """Write one JSON line to stdout (the host -> ``run.py`` channel)."""
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()

