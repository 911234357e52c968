"""Ramer–Douglas–Peucker line simplification with a tolerance in meters.

Used in the paper's §3.4 to smooth grid-following zig-zags out of imputed
paths. The perpendicular distance is computed in a local equirectangular
projection about the path's mean position, so the tolerance parameter ``t``
carries the paper's meaning (meters of maximum allowable deviation).
"""
from __future__ import annotations

import numpy as np

from repro.geo.geodesy import local_xy


def _rdp_mask(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Boolean keep-mask for planar RDP (iterative, stack-based).

    Runs on plain Python floats: the same IEEE operations, in the same
    order, as a vectorized evaluation of each segment's distances, and the
    first maximum wins (as ``np.argmax`` picks it, a NaN included).
    """
    xs = x.tolist()
    ys = y.tolist()
    n = len(xs)
    keep = [False] * n
    keep[0] = keep[-1] = True
    tol2 = tol * tol
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        xi, yi = xs[i], ys[i]
        dx, dy = xs[j] - xi, ys[j] - yi
        seg_len2 = dx * dx + dy * dy
        best, m = -1.0, i + 1
        for k in range(i + 1, j):
            px = xs[k] - xi
            py = ys[k] - yi
            if seg_len2 == 0.0:
                d2 = px * px + py * py
            else:
                cross = px * dy - py * dx
                d2 = cross * cross / seg_len2
            if not d2 <= best:  # d2 > best, or d2 is NaN
                best, m = d2, k
                if d2 != d2:
                    break
        if best > tol2:
            keep[m] = True
            stack.append((i, m))
            stack.append((m, j))
    return np.array(keep)


def rdp(lon: np.ndarray, lat: np.ndarray, tolerance_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Simplify a lon/lat path, keeping points deviating > ``tolerance_m``.

    ``tolerance_m <= 0`` returns the path unchanged (the paper's ``t = 0``
    configuration, i.e. no simplification).
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    if tolerance_m <= 0.0 or lon.size <= 2:
        return lon.copy(), lat.copy()
    x, y = local_xy(lon, lat, float(lon.mean()), float(lat.mean()))
    keep = _rdp_mask(x, y, tolerance_m)
    return lon[keep], lat[keep]
