"""Unit tests for the AIS trip simulator and its noise model."""
import numpy as np
import pandas as pd
import pytest

from repro.ais.region import KIEL_GOTHENBURG, KIEL_REGION, SAR_BOX
from repro.ais.simulator import (
    VesselSpec,
    apply_dropouts,
    inject_noise,
    port_stop,
    random_wander,
    simulate_trip,
)
from repro.geo.geodesy import haversine_m
from repro.geo.resample import path_length_m

WP = np.asarray(KIEL_GOTHENBURG.waypoints)
VESSEL = VesselSpec("T-01", "Passenger", 18.0, 60.0)
T0 = pd.Timestamp("2024-01-05 08:00:00")


def _trip(seed=0):
    rng = np.random.default_rng(seed)
    return simulate_trip(rng, WP, VESSEL, T0, lon0=KIEL_REGION.lon0, lat0=KIEL_REGION.lat0)


def test_trip_schema_and_order():
    t = _trip()
    assert list(t.columns) == ["ts", "lon", "lat", "sog", "cog"]
    assert t["ts"].is_monotonic_increasing
    assert len(t) > 100


def test_trip_deterministic_in_seed():
    a, b = _trip(5), _trip(5)
    pd.testing.assert_frame_equal(a, b)
    c = _trip(6)
    assert not a["lon"].equals(c["lon"])


def test_trip_starts_near_origin_ends_near_destination():
    t = _trip()
    d0 = float(haversine_m(t["lon"].iloc[0], t["lat"].iloc[0], WP[0, 0], WP[0, 1]))
    d1 = float(haversine_m(t["lon"].iloc[-1], t["lat"].iloc[-1], WP[-1, 0], WP[-1, 1]))
    assert d0 < 5_000
    assert d1 < 15_000  # last report lands just before the final waypoint


def test_trip_speed_plausible():
    t = _trip()
    assert t["sog"].median() == pytest.approx(18.0, rel=0.25)
    assert (t["sog"] > 0.5).all()  # a trip has no stationary reports


def test_trip_stays_near_lane():
    """Cross-track drift is bounded: every report within ~2 km of the lane."""
    from repro.geo.resample import densify

    t = _trip()
    llon, llat = densify(WP[:, 0], WP[:, 1], 200.0)
    for lon, lat in zip(t["lon"].to_numpy()[::25], t["lat"].to_numpy()[::25]):
        d = haversine_m(np.full(llon.size, lon), np.full(llon.size, lat), llon, llat)
        assert float(d.min()) < 2_000


def test_trip_report_interval():
    t = _trip()
    dt = t["ts"].diff().dt.total_seconds().dropna()
    assert 0.8 * 60 <= dt.median() <= 1.2 * 60
    assert dt.max() <= 1.2 * 60 + 1


def test_trip_covers_route_length():
    t = _trip()
    sim_len = path_length_m(t["lon"].to_numpy(), t["lat"].to_numpy())
    lane_len = path_length_m(WP[:, 0], WP[:, 1])
    assert sim_len == pytest.approx(lane_len, rel=0.1)


def test_trip_requires_two_waypoints():
    with pytest.raises(ValueError):
        simulate_trip(np.random.default_rng(0), WP[:1], VESSEL, T0, lon0=11.5, lat0=56.0)


# --- port stops ------------------------------------------------------------

def test_port_stop_is_stationary():
    rng = np.random.default_rng(1)
    s = port_stop(rng, 10.16, 54.33, T0, duration_min=45)
    assert (s["sog"] < 0.5).all()
    d = haversine_m(s["lon"].to_numpy(), s["lat"].to_numpy(), 10.16, 54.33)
    assert float(d.max()) < 100


def test_port_stop_duration():
    rng = np.random.default_rng(2)
    s = port_stop(rng, 10.16, 54.33, T0, duration_min=60)
    span = (s["ts"].iloc[-1] - s["ts"].iloc[0]).total_seconds()
    assert span == pytest.approx(3600, rel=0.3)


# --- dropouts --------------------------------------------------------------

def test_apply_dropouts_long_creates_30min_gap():
    t = _trip()
    out = apply_dropouts(np.random.default_rng(3), t, p_long=1.0)
    dt = out["ts"].diff().dt.total_seconds().max()
    assert dt > 30 * 60


def test_apply_dropouts_short_stays_under_30min():
    t = _trip()
    out = apply_dropouts(np.random.default_rng(4), t, p_short=1.0)
    dt = out["ts"].diff().dt.total_seconds().max()
    assert 5 * 60 <= dt <= 30 * 60


def test_apply_dropouts_noop():
    t = _trip()
    out = apply_dropouts(np.random.default_rng(5), t)
    assert len(out) == len(t)


def test_apply_dropouts_empty_frame():
    empty = pd.DataFrame(columns=["ts", "lon", "lat", "sog", "cog"])
    assert apply_dropouts(np.random.default_rng(0), empty).empty


# --- noise -----------------------------------------------------------------

def test_inject_noise_adds_duplicates_spikes_invalid():
    t = _trip()
    out = inject_noise(
        np.random.default_rng(6), t, dup_frac=0.05, spike_frac=0.02, invalid_frac=0.01
    )
    assert len(out) > len(t)
    assert (out["lon"] > 180).any()  # invalid rows present
    dup = out.duplicated(subset=["ts", "lon", "lat"]).sum()
    assert dup > 0


def test_inject_noise_sorted_by_time():
    t = _trip()
    out = inject_noise(np.random.default_rng(7), t)
    assert out["ts"].is_monotonic_increasing


def test_inject_noise_empty_frame():
    empty = pd.DataFrame(columns=["ts", "lon", "lat", "sog", "cog"])
    assert inject_noise(np.random.default_rng(0), empty).empty


# --- wanderers -------------------------------------------------------------

def test_random_wander_inside_box():
    wp = random_wander(np.random.default_rng(8), SAR_BOX, n_legs=6)
    lon_min, lat_min, lon_max, lat_max = SAR_BOX
    assert wp.shape == (7, 2)
    assert (wp[:, 0] >= lon_min).all() and (wp[:, 0] <= lon_max).all()
    assert (wp[:, 1] >= lat_min).all() and (wp[:, 1] <= lat_max).all()


def test_random_wander_leg_lengths():
    wp = random_wander(np.random.default_rng(9), SAR_BOX, n_legs=5, leg_km_lo=2, leg_km_hi=6)
    seg = haversine_m(wp[:-1, 0], wp[:-1, 1], wp[1:, 0], wp[1:, 1])
    assert float(seg.max()) <= 6_000 * 1.1  # clipping at box edges may shorten
