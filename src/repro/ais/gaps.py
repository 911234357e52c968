"""Synthetic gap injection and the 70/30 trip split (paper §4.1).

A single gap of fixed duration (60 / 120 / 240 min; default 60) is placed
randomly within each *test* trip; the removed points are the ground truth
the imputations are scored against. 70% of trips (deterministic hash of the
trip id) build the models; the remaining 30% are evaluated.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

#: Evaluation protocol (§4.1): the share of trips that build the models, and
#: a gap's minimum distance from its trip's ends and hidden points.
TRAIN_FRAC = 0.7
MARGIN_MIN = 10.0
MIN_INTERIOR = 3


@dataclass(frozen=True)
class Gap:
    """One synthetic gap: observed endpoints + hidden ground-truth path."""

    gap_id: str
    trip_id: str
    start_lon: float
    start_lat: float
    start_ts: pd.Timestamp
    end_lon: float
    end_lat: float
    end_ts: pd.Timestamp
    truth_lon: np.ndarray  # includes both endpoints
    truth_lat: np.ndarray


def _hash_frac(key: str) -> float:
    """Deterministic uniform [0, 1) fraction from a string key."""
    h = hashlib.md5(key.encode()).digest()
    return int.from_bytes(h[:8], "big") / 2**64


def split_trips(trip_ids) -> tuple[set, set]:
    """Deterministic 70/30 split of trip ids into (train, test) sets."""
    train, test = set(), set()
    for t in trip_ids:
        (train if _hash_frac(str(t)) < TRAIN_FRAC else test).add(t)
    return train, test


def make_gaps(
    trips_pdf: pd.DataFrame,
    *,
    duration_min: float = 60.0,
    seed: int = 0,
) -> list[Gap]:
    """Inject one random gap per eligible trip of ``trips_pdf``.

    ``trips_pdf`` is preprocessed data (with ``trip_id``) restricted to the
    trips to evaluate. A trip is eligible if it spans at least
    ``duration_min + 2 * MARGIN_MIN`` minutes and the gap window hides at
    least ``MIN_INTERIOR`` points. Returns gaps sorted by gap id.
    """
    rng = np.random.default_rng(seed)
    gaps: list[Gap] = []
    dur = pd.Timedelta(minutes=duration_min)
    margin = pd.Timedelta(minutes=MARGIN_MIN)
    for trip_id, g in trips_pdf.sort_values("ts").groupby("trip_id", sort=True):
        t_min, t_max = g["ts"].iloc[0], g["ts"].iloc[-1]
        slack = (t_max - t_min) - dur - 2 * margin
        if slack <= pd.Timedelta(0):
            continue
        gs = t_min + margin + pd.to_timedelta(rng.uniform(0.0, slack.total_seconds()), unit="s")
        ge = gs + dur
        ts = g["ts"]
        before = g[ts <= gs]
        inside = g[(ts > gs) & (ts < ge)]
        after = g[ts >= ge]
        if len(inside) < MIN_INTERIOR or before.empty or after.empty:
            continue
        s, e = before.iloc[-1], after.iloc[0]
        truth = pd.concat([before.iloc[[-1]], inside, after.iloc[[0]]])
        gaps.append(
            Gap(
                gap_id=f"{trip_id}/g{int(duration_min)}",
                trip_id=str(trip_id),
                start_lon=float(s["lon"]),
                start_lat=float(s["lat"]),
                start_ts=s["ts"],
                end_lon=float(e["lon"]),
                end_lat=float(e["lat"]),
                end_ts=e["ts"],
                truth_lon=truth["lon"].to_numpy(dtype=np.float64),
                truth_lat=truth["lat"].to_numpy(dtype=np.float64),
            )
        )
    gaps.sort(key=lambda g: g.gap_id)
    return gaps


def gaps_to_pandas(gaps: list[Gap]) -> pd.DataFrame:
    """Endpoint table for Spark batch inference (no ground truth columns)."""
    return pd.DataFrame(
        {
            "gap_id": [g.gap_id for g in gaps],
            "start_lon": [g.start_lon for g in gaps],
            "start_lat": [g.start_lat for g in gaps],
            "start_ts": [g.start_ts for g in gaps],
            "end_lon": [g.end_lon for g in gaps],
            "end_lat": [g.end_lat for g in gaps],
            "end_ts": [g.end_ts for g in gaps],
        }
    )
