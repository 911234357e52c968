"""SLI — straight-line interpolation baseline (paper §4.1).

Naively connects the two gap endpoints with a direct segment. Kept as a
function (not a class): it has no model to fit and zero storage.
"""
from __future__ import annotations

from repro.core.model import ImputedPath, straight_line


def sli_impute(start_lon: float, start_lat: float, end_lon: float, end_lat: float) -> ImputedPath:
    """The straight segment between the gap endpoints."""
    return straight_line(start_lon, start_lat, end_lon, end_lat, fallback=False)
