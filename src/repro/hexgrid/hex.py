"""Hexagonal grid index — offline substitute for Uber's H3.

The paper indexes AIS positions on H3 hexagons at resolutions 6–10. The
pipeline uses three H3 operations: point -> cell, cell -> center and grid
(hex hop) distance. ``h3`` is not installable in this container, so this
module provides a pointy-top axial hexagonal tessellation over a *local
equirectangular projection* with per-resolution edge lengths equal to H3's
published mean hexagon edge length. For the regional extents the paper
evaluates (<= ~400 km), projection distortion is a few percent — the
aggregation granularity, grid zig-zag artifacts, and storage scaling in ``r``
that the evaluation measures are preserved (see DESIGN.md, substitutions).

Cell ids are int64: ``(res << 58) | ((q + B) << 29) | (r + B)`` with
``B = QR_BIAS = 2**28``, where ``(q, r)`` are axial coordinates relative to the grid's
projection origin. Ids are only comparable between grids with identical
``(res, lat0, lon0)`` — a :class:`HexGrid` is carried alongside any id set
(models store their grid parameters).

All coordinate functions are vectorized over numpy arrays, except
:meth:`HexGrid.locate`, the scalar form of :meth:`HexGrid.to_cell` used by
per-query code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Mean hexagon edge length in meters per H3 resolution (H3 documentation).
EDGE_M: dict[int, float] = {
    4: 22606.38,
    5: 8544.41,
    6: 3229.48,
    7: 1220.63,
    8: 461.35,
    9: 174.38,
    10: 65.91,
    11: 24.91,
}

#: Mean Earth radius (meters), as used by H3 / haversine throughout the repo.
R_EARTH = 6371008.8

QR_BIAS = 1 << 28  # axial coordinate bias for packing
QR_MASK = (1 << 29) - 1

_SQRT3 = np.sqrt(3.0)


def pack(res: int, q, r):
    """Pack resolution + axial (q, r) into an int64 cell id (vectorized)."""
    q = np.asarray(q, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    if np.any((np.abs(q) >= QR_BIAS) | (np.abs(r) >= QR_BIAS)):
        raise ValueError("axial coordinate out of packable range")
    return (np.int64(res) << 58) | ((q + QR_BIAS) << 29) | (r + QR_BIAS)


def unpack(cell):
    """Unpack int64 cell id(s) into (res, q, r) arrays."""
    cell = np.asarray(cell, dtype=np.int64)
    res = (cell >> 58).astype(np.int64)
    q = ((cell >> 29) & QR_MASK) - QR_BIAS
    r = (cell & QR_MASK) - QR_BIAS
    return res, q, r


def grid_distance(a, b):
    """Hex hop distance between cell ids (vectorized; same resolution)."""
    ra, qa, sa = unpack(a)
    rb, qb, sb = unpack(b)
    dq = qa - qb
    dr = sa - sb
    return ((np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2).astype(np.int64)


def _axial_round(qf: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round fractional axial coords to the nearest hex (cube rounding)."""
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q = np.where(fix_q, -r - s, q)
    r = np.where(fix_r, -q - s, r)
    return q.astype(np.int64), r.astype(np.int64)


def _axial_round_scalar(qf: float, rf: float) -> tuple[int, int]:
    """:func:`_axial_round` for one point, in plain Python numbers: ``round``
    rounds half to even, as ``np.round`` does, so ties resolve the same."""
    sf = -qf - rf
    q = round(qf)
    r = round(rf)
    s = round(sf)
    dq = abs(q - qf)
    dr = abs(r - rf)
    ds = abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return q, r


@dataclass(frozen=True)
class HexGrid:
    """A hexagonal tessellation at H3-equivalent resolution ``res``.

    ``lat0``/``lon0`` anchor the local equirectangular projection
    (x east, y north, meters); a region's grids must share the anchor for
    their cell ids to be comparable.
    """

    res: int
    lat0: float
    lon0: float

    def __reduce__(self):
        # Pickle the parameters only: cached constants are rebuilt on use.
        return HexGrid, (self.res, self.lat0, self.lon0)

    @property
    def edge_m(self) -> float:
        """Hexagon edge length (= circumradius) in meters."""
        return EDGE_M[self.res]

    # -- projection ---------------------------------------------------------
    def project(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        """(lon, lat) degrees -> local (x, y) meters."""
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        k = np.cos(np.radians(self.lat0)) * R_EARTH * np.pi / 180.0
        x = (lon - self.lon0) * k
        y = (lat - self.lat0) * (R_EARTH * np.pi / 180.0)
        return x, y

    def unproject(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Local (x, y) meters -> (lon, lat) degrees."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        k = np.cos(np.radians(self.lat0)) * R_EARTH * np.pi / 180.0
        lon = self.lon0 + x / k
        lat = self.lat0 + y / (R_EARTH * np.pi / 180.0)
        return lon, lat

    # -- cell ops -----------------------------------------------------------
    @cached_property
    def axial_consts(self) -> tuple[float, float, float, float]:
        """(x scale, y scale, sqrt(3)/3, edge) as Python floats, computed
        with the expressions :meth:`project` and :meth:`to_cell` use."""
        kx = np.cos(np.radians(self.lat0)) * R_EARTH * np.pi / 180.0
        ky = R_EARTH * np.pi / 180.0
        return float(kx), float(ky), float(_SQRT3 / 3.0), float(self.edge_m)

    def locate(self, lon: float, lat: float) -> tuple[int, float, float]:
        """One point's ``(cell id, x, y)``: :meth:`to_cell` and
        :meth:`project` for a scalar, in plain Python floats.

        Performs the same IEEE operations in the same order as the
        vectorized path, so the id and the projected point are identical.
        Raises ``ValueError`` for a non-finite coordinate.
        """
        kx, ky, c, a = self.axial_consts
        x = (float(lon) - self.lon0) * kx
        y = (float(lat) - self.lat0) * ky
        qf = (c * x - y / 3.0) / a
        rf = (2.0 / 3.0 * y) / a
        if not (math.isfinite(qf) and math.isfinite(rf)):
            raise ValueError(f"non-finite coordinate: lon={lon!r}, lat={lat!r}")
        q, r = _axial_round_scalar(qf, rf)
        if abs(q) >= QR_BIAS or abs(r) >= QR_BIAS:
            raise ValueError("axial coordinate out of packable range")
        return (self.res << 58) | ((q + QR_BIAS) << 29) | (r + QR_BIAS), x, y

    def to_cell(self, lon, lat) -> np.ndarray:
        """Assign point(s) to their containing hexagon; returns int64 ids.

        Raises ``ValueError`` for a non-finite coordinate.
        """
        x, y = self.project(lon, lat)
        a = self.edge_m
        qf = (_SQRT3 / 3.0 * x - y / 3.0) / a
        rf = (2.0 / 3.0 * y) / a
        if not (np.isfinite(qf).all() and np.isfinite(rf).all()):
            raise ValueError("non-finite coordinate")
        q, r = _axial_round(qf, rf)
        return pack(self.res, q, r)

    def cell_center(self, cell) -> tuple[np.ndarray, np.ndarray]:
        """Geometric center(s) of cell id(s) as (lon, lat) degrees."""
        _, q, r = unpack(cell)
        a = self.edge_m
        x = a * _SQRT3 * (q + r / 2.0)
        y = a * 1.5 * r
        return self.unproject(x, y)
