"""Synthetic DAN / KIEL / SAR dataset builders.

Each builder returns a raw AIS message table (pandas; ``to_spark`` ingests it)
with the schema the paper's pipeline consumes::

    vessel_id: str   (stands in for MMSI)
    vtype:     str   (Passenger | Cargo | Tanker | Fishing | Pleasure)
    ts:        datetime64[ns]
    lon, lat:  float degrees
    sog:       float knots
    cog:       float degrees

Scenario structure mirrors the paper's Table 1 datasets (see DESIGN.md):

- **KIEL** — 2 passenger ships shuttling one fixed Kiel–Gothenburg lane.
- **DAN**  — 16 passenger ships over many routes between 10 ports.
- **SAR**  — a mixed fleet (ferries, cargo/tankers, fishing, pleasure) on
  short trips with patchier AIS coverage.

``sf`` scales the trip count (sf=1.0 is the bench scale recorded in
EXPERIMENTS.md; the paper's absolute sizes are larger). Each builder draws
from its own fixed seed, so a frame depends on ``sf`` alone; ``dataset``
caches them — callers must not mutate the returned frames.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.ais.region import DAN_REGION, KIEL_REGION, SAR_BOX, SAR_REGION, Region
from repro.ais.simulator import (
    VesselSpec,
    apply_dropouts,
    inject_noise,
    port_stop,
    random_wander,
    simulate_trip,
)

_T0 = pd.Timestamp("2024-01-01 00:00:00")

RAW_COLUMNS = ["vessel_id", "vtype", "ts", "lon", "lat", "sog", "cog"]


def _finish(parts: list[pd.DataFrame]) -> pd.DataFrame:
    pdf = pd.concat(parts, ignore_index=True)
    # AIS timestamps have whole-second precision; flooring also keeps the
    # Arrow ns->us conversion exact on the Spark ingestion path.
    pdf["ts"] = pdf["ts"].dt.floor("s")
    pdf = pdf.sort_values(["vessel_id", "ts"], kind="stable").reset_index(drop=True)
    return pdf[RAW_COLUMNS]


def _vessel_trip(
    rng: np.random.Generator,
    region: Region,
    vessel: VesselSpec,
    waypoints: np.ndarray,
    t0: pd.Timestamp,
    *,
    p_long: float,
    p_short: float,
    stop_before_min: float,
) -> tuple[list[pd.DataFrame], pd.Timestamp]:
    """One port-stop + trip block for a vessel; returns parts and end time."""
    parts: list[pd.DataFrame] = []
    t = t0
    if stop_before_min > 0.0:
        stop = port_stop(rng, waypoints[0, 0], waypoints[0, 1], t, duration_min=stop_before_min)
        if not stop.empty:
            parts.append(stop)
            t = stop["ts"].iloc[-1] + pd.Timedelta(minutes=2)
    trip = simulate_trip(rng, waypoints, vessel, t, lon0=region.lon0, lat0=region.lat0)
    trip = apply_dropouts(rng, trip, p_long=p_long, p_short=p_short)
    trip = inject_noise(rng, trip)
    if not trip.empty:
        parts.append(trip)
        t = trip["ts"].iloc[-1]
    for p in parts:
        p["vessel_id"] = vessel.vessel_id
        p["vtype"] = vessel.vtype
    return parts, t


def build_kiel(sf: float = 1.0) -> pd.DataFrame:
    """KIEL scenario: 2 passenger ships, one fixed route, both directions."""
    rng = np.random.default_rng(7)
    n_trips = max(4, round(86 * sf))
    vessels = [
        VesselSpec("KIEL-01", "Passenger", 18.0, 60.0),
        VesselSpec("KIEL-02", "Passenger", 17.0, 60.0),
    ]
    routes = KIEL_REGION.both_ways()
    parts: list[pd.DataFrame] = []
    clocks = {
        v.vessel_id: _T0 + pd.Timedelta(hours=float(rng.uniform(0, 24))) for v in vessels
    }
    direction = {v.vessel_id: i % 2 for i, v in enumerate(vessels)}
    for i in range(n_trips):
        v = vessels[i % len(vessels)]
        route = routes[direction[v.vessel_id]]
        direction[v.vessel_id] ^= 1  # sail back next time
        wp = np.asarray(route.waypoints)
        p, t_end = _vessel_trip(
            rng,
            KIEL_REGION,
            v,
            wp,
            clocks[v.vessel_id],
            p_long=0.05,
            p_short=0.15,
            stop_before_min=float(rng.uniform(45, 90)),
        )
        parts.extend(p)
        clocks[v.vessel_id] = t_end + pd.Timedelta(minutes=float(rng.uniform(60, 180)))
    return _finish(parts)


def build_dan(sf: float = 1.0) -> pd.DataFrame:
    """DAN scenario: 16 passenger ships over many routes between 10 ports."""
    rng = np.random.default_rng(11)
    n_trips = max(8, round(320 * sf))
    vessels = [
        VesselSpec(f"DAN-{i:02d}", "Passenger", float(rng.uniform(15, 20)), 60.0)
        for i in range(16)
    ]
    routes = DAN_REGION.both_ways()
    clocks = {
        v.vessel_id: _T0 + pd.Timedelta(hours=float(rng.uniform(0, 72))) for v in vessels
    }
    parts: list[pd.DataFrame] = []
    for i in range(n_trips):
        v = vessels[i % len(vessels)]
        route = routes[int(rng.integers(0, len(routes)))]
        wp = np.asarray(route.waypoints)
        p, t_end = _vessel_trip(
            rng,
            DAN_REGION,
            v,
            wp,
            clocks[v.vessel_id],
            p_long=0.05,
            p_short=0.15,
            stop_before_min=float(rng.uniform(45, 90)),
        )
        parts.extend(p)
        clocks[v.vessel_id] = t_end + pd.Timedelta(minutes=float(rng.uniform(90, 300)))
    return _finish(parts)


def build_sar(sf: float = 1.0) -> pd.DataFrame:
    """SAR scenario: mixed fleet, short trips, patchy coverage, one month."""
    rng = np.random.default_rng(13)
    n_trips = max(20, round(1200 * sf))
    fleet: list[VesselSpec] = []
    for i in range(30):
        fleet.append(VesselSpec(f"SAR-F{i:03d}", "Passenger", float(rng.uniform(15, 24)), 45.0))
    for i in range(20):
        fleet.append(VesselSpec(f"SAR-C{i:03d}", "Cargo", float(rng.uniform(10, 14)), 90.0))
    for i in range(10):
        fleet.append(VesselSpec(f"SAR-T{i:03d}", "Tanker", float(rng.uniform(9, 12)), 90.0))
    for i in range(25):
        fleet.append(VesselSpec(f"SAR-W{i:03d}", "Fishing", float(rng.uniform(4, 7)), 120.0))
    for i in range(15):
        fleet.append(VesselSpec(f"SAR-P{i:03d}", "Pleasure", float(rng.uniform(8, 15)), 120.0))
    routes = SAR_REGION.both_ways()
    clocks = {
        v.vessel_id: _T0 + pd.Timedelta(hours=float(rng.uniform(0, 24 * 20))) for v in fleet
    }
    parts: list[pd.DataFrame] = []
    for i in range(n_trips):
        v = fleet[int(rng.integers(0, len(fleet)))]
        if v.vtype in ("Fishing", "Pleasure"):
            wp = random_wander(rng, SAR_BOX, n_legs=int(rng.integers(4, 9)))
        else:
            wp = np.asarray(routes[int(rng.integers(0, len(routes)))].waypoints)
        p, t_end = _vessel_trip(
            rng,
            SAR_REGION,
            v,
            wp,
            clocks[v.vessel_id],
            p_long=0.15,
            p_short=0.35,
            stop_before_min=float(rng.uniform(30, 60)),
        )
        parts.extend(p)
        clocks[v.vessel_id] = t_end + pd.Timedelta(minutes=float(rng.uniform(60, 600)))
    return _finish(parts)


_BUILDERS = {"KIEL": build_kiel, "DAN": build_dan, "SAR": build_sar}

#: Projection anchor per dataset (shared by all grids/models over it).
REGION_OF = {"KIEL": KIEL_REGION, "DAN": DAN_REGION, "SAR": SAR_REGION}


@lru_cache(maxsize=16)
def dataset(name: str, sf: float = 1.0) -> pd.DataFrame:
    """Cached dataset by name ('DAN' | 'KIEL' | 'SAR'). Do not mutate."""
    return _BUILDERS[name](sf)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Ingest a raw AIS frame into Spark (Arrow path, schema preserved)."""
    return spark.createDataFrame(pdf)
