"""Geodesy primitives: haversine distance, bearings, local projection.

All functions are vectorized over numpy arrays; angles are degrees, distances
meters. The Earth radius matches ``repro.hexgrid.hex.R_EARTH`` so grid
geometry and geodesy agree.
"""
from __future__ import annotations

import numpy as np

from repro.hexgrid.hex import R_EARTH

KNOT_MS = 0.514444  # one knot in m/s


def haversine_m(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distance in meters between (lon1, lat1) and (lon2, lat2)."""
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(a, dtype=np.float64)) for a in (lon1, lat1, lon2, lat2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * R_EARTH * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def initial_bearing_deg(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Initial great-circle bearing in degrees [0, 360) from point 1 to 2."""
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(a, dtype=np.float64)) for a in (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    x = np.sin(dlon) * np.cos(lat2)
    y = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    return np.degrees(np.arctan2(x, y)) % 360.0


def angle_diff_deg(a, b) -> np.ndarray:
    """Signed smallest angular difference a - b, normalized to (-180, 180]."""
    d = (np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64) + 180.0) % 360.0 - 180.0
    return np.where(d == -180.0, 180.0, d)


def local_xy(lon, lat, lon0: float, lat0: float) -> tuple[np.ndarray, np.ndarray]:
    """Equirectangular projection about (lon0, lat0), in meters."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    k = np.cos(np.radians(lat0)) * R_EARTH * np.pi / 180.0
    return (lon - lon0) * k, (lat - lat0) * (R_EARTH * np.pi / 180.0)
