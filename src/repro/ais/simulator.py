"""Kinematic AIS trip simulator.

Generates timestamped AIS positional reports for one trip along a lane
polyline, with the artifacts the paper's preprocessing phase (§3.1) has to
handle: speed variation, cross-track drift (vessels do not sail the lane
centerline exactly), GPS noise, report-interval jitter, coverage dropouts,
port stops, and injected noise records (duplicates / spikes / invalid
coordinates).

All randomness flows from a caller-provided ``numpy`` Generator so datasets
are deterministic in their seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.geo.geodesy import KNOT_MS, initial_bearing_deg, local_xy
from repro.hexgrid.hex import R_EARTH

_DEG_M = R_EARTH * np.pi / 180.0  # meters per degree of latitude

#: Standard deviation of a trip's AR(1) cross-track offset from its lane (m).
XTRACK_SIGMA_M = 120.0
#: Standard deviation of the GPS noise on each report (m).
GPS_SIGMA_M = 12.0
#: Coefficient of variation of a trip's AR(1) speed variation.
SPEED_CV = 0.08
#: Nominal AIS reporting interval at a port stop (s).
PORT_REPORT_S = 180.0


@dataclass(frozen=True)
class VesselSpec:
    """Static vessel properties used by the simulator."""

    vessel_id: str
    vtype: str  # Passenger | Cargo | Tanker | Fishing | Pleasure
    speed_kn: float  # cruise speed over ground
    report_s: float  # nominal AIS reporting interval while under way


def _ar1(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) noise process of length ``n``."""
    out = np.empty(n)
    out[0] = rng.normal(0.0, sigma)
    innov = rng.normal(0.0, sigma * np.sqrt(max(1e-9, 1.0 - rho * rho)), n)
    for i in range(1, n):
        out[i] = rho * out[i - 1] + innov[i]
    return out


def simulate_trip(
    rng: np.random.Generator,
    waypoints: np.ndarray,
    vessel: VesselSpec,
    t0: pd.Timestamp,
    *,
    lon0: float,
    lat0: float,
) -> pd.DataFrame:
    """Simulate one trip along ``waypoints`` (array of [lon, lat] rows).

    Returns a DataFrame with columns ``ts, lon, lat, sog, cog`` ordered by
    time; the caller attaches vessel identity. The vessel follows the lane at
    ``vessel.speed_kn`` with AR(1) speed variation and AR(1) cross-track
    offset, reporting every ``vessel.report_s`` seconds (±20% jitter).
    """
    wp = np.asarray(waypoints, dtype=np.float64)
    if wp.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    # Project the lane once; walk it by along-path distance.
    x, y = local_xy(wp[:, 0], wp[:, 1], lon0, lat0)
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])

    v_mean = vessel.speed_kn * KNOT_MS
    n_max = int(total / v_mean / (vessel.report_s * 0.8)) + 8
    dt = vessel.report_s * rng.uniform(0.8, 1.2, n_max)
    v = v_mean * (1.0 + np.clip(_ar1(rng, n_max, 0.95, SPEED_CV), -0.6, 0.6))
    dist = np.cumsum(v * dt)
    keep = dist < total
    dist, v, dt = dist[keep], v[keep], dt[keep]
    n = dist.size
    if n < 2:
        return pd.DataFrame(columns=["ts", "lon", "lat", "sog", "cog"])

    ts = t0 + pd.to_timedelta(np.cumsum(dt), unit="s")
    px = np.interp(dist, cum, x)
    py = np.interp(dist, cum, y)
    # Local lane bearing for the cross-track normal.
    seg_idx = np.clip(np.searchsorted(cum, dist, side="right") - 1, 0, seg.size - 1)
    hx = np.diff(x)[seg_idx] / np.maximum(seg[seg_idx], 1e-9)
    hy = np.diff(y)[seg_idx] / np.maximum(seg[seg_idx], 1e-9)
    off = _ar1(rng, n, 0.98, XTRACK_SIGMA_M)
    px = px - hy * off + rng.normal(0.0, GPS_SIGMA_M, n)
    py = py + hx * off + rng.normal(0.0, GPS_SIGMA_M, n)

    lon = lon0 + px / (_DEG_M * np.cos(np.radians(lat0)))
    lat = lat0 + py / _DEG_M
    cog = np.empty(n)
    cog[:-1] = initial_bearing_deg(lon[:-1], lat[:-1], lon[1:], lat[1:])
    cog[-1] = cog[-2] if n >= 2 else 0.0
    sog = np.round(v / KNOT_MS + rng.normal(0.0, 0.15, n), 1)
    return pd.DataFrame(
        {"ts": ts, "lon": lon, "lat": lat, "sog": np.clip(sog, 0.2, None), "cog": np.round(cog, 1)}
    )


def port_stop(
    rng: np.random.Generator,
    lon: float,
    lat: float,
    t0: pd.Timestamp,
    *,
    duration_min: float,
) -> pd.DataFrame:
    """Stationary AIS reports at a port: SOG < 0.5 kn, tiny positional drift."""
    n = max(2, int(duration_min * 60.0 / PORT_REPORT_S))
    dt = np.cumsum(rng.uniform(0.8, 1.2, n) * PORT_REPORT_S)
    drift = rng.normal(0.0, 8.0, (n, 2)) / _DEG_M
    return pd.DataFrame(
        {
            "ts": t0 + pd.to_timedelta(dt, unit="s"),
            "lon": lon + drift[:, 0] / np.cos(np.radians(lat)),
            "lat": lat + drift[:, 1],
            "sog": np.round(np.abs(rng.normal(0.1, 0.08, n)), 1).clip(0.0, 0.4),
            "cog": np.round(rng.uniform(0.0, 360.0, n), 1),
        }
    )


def apply_dropouts(
    rng: np.random.Generator,
    trip: pd.DataFrame,
    *,
    p_long: float = 0.0,
    p_short: float = 0.0,
) -> pd.DataFrame:
    """Remove report windows to emulate AIS coverage loss.

    A *long* dropout (35–90 min) exceeds the ΔT = 30 min threshold and must
    split the trip in preprocessing; a *short* one (5–15 min) must not.
    """
    if trip.empty:
        return trip
    t_min, t_max = trip["ts"].iloc[0], trip["ts"].iloc[-1]
    span_s = (t_max - t_min).total_seconds()
    mask = np.ones(len(trip), dtype=bool)
    for p, lo_min, hi_min in ((p_long, 35.0, 90.0), (p_short, 5.0, 15.0)):
        if rng.random() < p and span_s > hi_min * 60.0 * 1.5:
            dur = rng.uniform(lo_min, hi_min) * 60.0
            start = t_min + pd.to_timedelta(rng.uniform(0.1, 0.8) * (span_s - dur), unit="s")
            win = (trip["ts"] >= start) & (trip["ts"] < start + pd.to_timedelta(dur, unit="s"))
            mask &= ~win.to_numpy()
    return trip.loc[mask].reset_index(drop=True)


def inject_noise(
    rng: np.random.Generator,
    trip: pd.DataFrame,
    *,
    dup_frac: float = 0.01,
    spike_frac: float = 0.004,
    invalid_frac: float = 0.002,
) -> pd.DataFrame:
    """Append the noise records the preprocessing phase must remove.

    Duplicates repeat an existing (ts, position); spikes are single reports
    displaced by 3–8 km (implied speed far above any vessel's); invalid rows
    carry out-of-range coordinates.
    """
    if trip.empty:
        return trip
    n = len(trip)
    parts = [trip]
    n_dup = rng.binomial(n, dup_frac)
    if n_dup:
        parts.append(trip.iloc[rng.integers(0, n, n_dup)])
    n_spk = rng.binomial(n, spike_frac)
    if n_spk:
        spk = trip.iloc[rng.integers(0, n, n_spk)].copy()
        d = rng.uniform(3000.0, 8000.0, n_spk)
        b = rng.uniform(0.0, 2.0 * np.pi, n_spk)
        spk["lon"] = spk["lon"] + d * np.sin(b) / (_DEG_M * np.cos(np.radians(spk["lat"])))
        spk["lat"] = spk["lat"] + d * np.cos(b) / _DEG_M
        spk["ts"] = spk["ts"] + pd.to_timedelta(rng.integers(1, 5, n_spk), unit="s")
        parts.append(spk)
    n_inv = rng.binomial(n, invalid_frac)
    if n_inv:
        inv = trip.iloc[rng.integers(0, n, n_inv)].copy()
        inv["lon"] = 999.0
        inv["ts"] = inv["ts"] + pd.to_timedelta(rng.integers(1, 5, n_inv), unit="s")
        parts.append(inv)
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values("ts", kind="stable").reset_index(drop=True)


def random_wander(
    rng: np.random.Generator,
    box: tuple[float, float, float, float],
    *,
    n_legs: int,
    leg_km_lo: float = 1.5,
    leg_km_hi: float = 8.0,
) -> np.ndarray:
    """Random waypoint polyline inside ``box`` (fishing / pleasure tracks)."""
    lon_min, lat_min, lon_max, lat_max = box
    lat_mid = 0.5 * (lat_min + lat_max)
    pts = [
        np.array(
            [rng.uniform(lon_min, lon_max), rng.uniform(lat_min, lat_max)]
        )
    ]
    heading = rng.uniform(0.0, 2.0 * np.pi)
    for _ in range(n_legs):
        heading += rng.normal(0.0, 1.0)
        d = rng.uniform(leg_km_lo, leg_km_hi) * 1000.0
        step = np.array(
            [
                d * np.sin(heading) / (_DEG_M * np.cos(np.radians(lat_mid))),
                d * np.cos(heading) / _DEG_M,
            ]
        )
        nxt = pts[-1] + step
        nxt[0] = np.clip(nxt[0], lon_min, lon_max)
        nxt[1] = np.clip(nxt[1], lat_min, lat_max)
        pts.append(nxt)
    return np.asarray(pts)
