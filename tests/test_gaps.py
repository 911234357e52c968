"""Unit tests for gap injection and the train/test split."""
import numpy as np
import pandas as pd
import pytest

from repro.ais.gaps import Gap, gaps_to_pandas, make_gaps, split_trips


def _toy_trip(trip_id: str, n: int = 200, step_s: int = 60) -> pd.DataFrame:
    ts = pd.date_range("2024-02-01", periods=n, freq=f"{step_s}s")
    return pd.DataFrame(
        {
            "trip_id": trip_id,
            "ts": ts,
            "lon": np.linspace(10.0, 11.0, n),
            "lat": np.linspace(55.0, 55.5, n),
            "sog": 15.0,
            "cog": 45.0,
            "vessel_id": trip_id.split("#")[0],
        }
    )


# --- split -----------------------------------------------------------------

def test_split_deterministic():
    ids = [f"V{i}#1" for i in range(200)]
    a = split_trips(ids)
    b = split_trips(ids)
    assert a == b


def test_split_fraction_roughly_70_30():
    ids = [f"V{i}#{j}" for i in range(100) for j in range(5)]
    train, test = split_trips(ids)
    frac = len(train) / (len(train) + len(test))
    assert 0.6 < frac < 0.8


def test_split_disjoint_and_complete():
    ids = {f"V{i}#1" for i in range(50)}
    train, test = split_trips(ids)
    assert train | test == ids
    assert train & test == set()


# --- gap injection ---------------------------------------------------------

def test_make_gaps_one_per_eligible_trip():
    trips = pd.concat([_toy_trip("A#1"), _toy_trip("B#1")])
    gaps = make_gaps(trips, duration_min=60, seed=1)
    assert len(gaps) == 2
    assert {g.trip_id for g in gaps} == {"A#1", "B#1"}


def test_make_gaps_skips_short_trips():
    trips = _toy_trip("A#1", n=30)  # 30 minutes: too short for a 60-min gap
    assert make_gaps(trips, duration_min=60, seed=1) == []


def test_gap_duration_matches():
    gaps = make_gaps(_toy_trip("A#1"), duration_min=60, seed=2)
    g = gaps[0]
    span = (g.end_ts - g.start_ts).total_seconds()
    assert 60 * 60 <= span <= 62 * 60  # endpoints are observed reports


def test_gap_truth_includes_endpoints():
    g = make_gaps(_toy_trip("A#1"), duration_min=60, seed=3)[0]
    assert g.truth_lon[0] == pytest.approx(g.start_lon)
    assert g.truth_lat[0] == pytest.approx(g.start_lat)
    assert g.truth_lon[-1] == pytest.approx(g.end_lon)
    assert g.truth_lat[-1] == pytest.approx(g.end_lat)


def test_gap_truth_interior_size():
    g = make_gaps(_toy_trip("A#1"), duration_min=60, seed=4)[0]
    # 60-min gap at 60 s sampling hides ~59 interior points (+2 endpoints).
    assert 50 <= g.truth_lon.size <= 65


def test_gap_respects_margins():
    trips = _toy_trip("A#1")
    g = make_gaps(trips, duration_min=60, seed=5)[0]
    t_min, t_max = trips["ts"].iloc[0], trips["ts"].iloc[-1]
    assert g.start_ts >= t_min + pd.Timedelta(minutes=9)
    assert g.end_ts <= t_max - pd.Timedelta(minutes=9)


def test_gaps_deterministic_in_seed():
    trips = _toy_trip("A#1")
    a = make_gaps(trips, duration_min=60, seed=6)[0]
    b = make_gaps(trips, duration_min=60, seed=6)[0]
    assert a.start_ts == b.start_ts
    c = make_gaps(trips, duration_min=60, seed=7)[0]
    assert a.start_ts != c.start_ts


def test_gaps_sorted_by_id():
    trips = pd.concat([_toy_trip("B#1"), _toy_trip("A#1"), _toy_trip("C#2")])
    gaps = make_gaps(trips, duration_min=60, seed=8)
    ids = [g.gap_id for g in gaps]
    assert ids == sorted(ids)


def test_gaps_to_pandas_schema():
    gaps = make_gaps(_toy_trip("A#1"), duration_min=60, seed=9)
    pdf = gaps_to_pandas(gaps)
    assert list(pdf.columns) == [
        "gap_id",
        "start_lon",
        "start_lat",
        "start_ts",
        "end_lon",
        "end_lat",
        "end_ts",
    ]
    assert len(pdf) == len(gaps)


def test_longer_gap_durations():
    trips = _toy_trip("A#1", n=500)  # ~8.3 hours
    for dur in (60, 120, 240):
        gaps = make_gaps(trips, duration_min=dur, seed=10)
        assert len(gaps) == 1
        span = (gaps[0].end_ts - gaps[0].start_ts).total_seconds() / 60
        assert dur <= span <= dur + 3
