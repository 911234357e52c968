"""Unit tests for geodesy primitives."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geodesy import (
    KNOT_MS,
    angle_diff_deg,
    haversine_m,
    initial_bearing_deg,
    local_xy,
)

lons = st.floats(min_value=-170, max_value=170)
lats = st.floats(min_value=-80, max_value=80)


# --- haversine -------------------------------------------------------------

def test_haversine_zero():
    assert float(haversine_m(10.0, 55.0, 10.0, 55.0)) == 0.0


def test_haversine_one_degree_latitude():
    # One degree of latitude is ~111.19 km on the mean sphere.
    assert float(haversine_m(0.0, 0.0, 0.0, 1.0)) == pytest.approx(111_195, rel=1e-3)


def test_haversine_one_degree_longitude_at_60n():
    # At 60N a degree of longitude is half the equatorial value.
    d_eq = float(haversine_m(0.0, 0.0, 1.0, 0.0))
    d_60 = float(haversine_m(0.0, 60.0, 1.0, 60.0))
    assert d_60 == pytest.approx(d_eq / 2.0, rel=1e-3)


@given(lon1=lons, lat1=lats, lon2=lons, lat2=lats)
@settings(max_examples=100, deadline=None)
def test_haversine_symmetry(lon1, lat1, lon2, lat2):
    assert float(haversine_m(lon1, lat1, lon2, lat2)) == pytest.approx(
        float(haversine_m(lon2, lat2, lon1, lat1)), abs=1e-6
    )


@given(lon1=lons, lat1=lats, lon2=lons, lat2=lats)
@settings(max_examples=100, deadline=None)
def test_haversine_nonnegative(lon1, lat1, lon2, lat2):
    assert float(haversine_m(lon1, lat1, lon2, lat2)) >= 0.0


def test_haversine_vectorized():
    lon1 = np.array([0.0, 10.0])
    out = haversine_m(lon1, np.array([0.0, 55.0]), lon1, np.array([1.0, 56.0]))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(111_195, rel=1e-3)


# --- bearings --------------------------------------------------------------

@pytest.mark.parametrize(
    "dlon,dlat,expected",
    [(0.0, 1.0, 0.0), (1.0, 0.0, 90.0), (0.0, -1.0, 180.0), (-1.0, 0.0, 270.0)],
)
def test_initial_bearing_cardinal(dlon, dlat, expected):
    b = float(initial_bearing_deg(0.0, 0.0, dlon, dlat))
    assert b == pytest.approx(expected, abs=0.5)


def test_bearing_range():
    rng = np.random.default_rng(1)
    b = initial_bearing_deg(
        rng.uniform(-10, 10, 100),
        rng.uniform(-10, 10, 100),
        rng.uniform(-10, 10, 100),
        rng.uniform(-10, 10, 100),
    )
    assert ((b >= 0) & (b < 360)).all()


# --- angle differences -----------------------------------------------------

@pytest.mark.parametrize(
    "a,b,expected",
    [(10, 350, 20), (350, 10, -20), (180, 0, 180), (0, 180, 180), (90, 90, 0)],
)
def test_angle_diff(a, b, expected):
    assert float(angle_diff_deg(a, b)) == pytest.approx(expected)


@given(a=st.floats(min_value=0, max_value=720), b=st.floats(min_value=0, max_value=720))
@settings(max_examples=100, deadline=None)
def test_angle_diff_range(a, b):
    d = float(angle_diff_deg(a, b))
    assert -180.0 < d <= 180.0


# --- local projection ------------------------------------------------------

def test_local_xy_origin():
    x, y = local_xy(11.5, 56.0, 11.5, 56.0)
    assert float(x) == 0.0 and float(y) == 0.0


def test_local_xy_matches_haversine_nearby():
    x, y = local_xy(11.6, 56.05, 11.5, 56.0)
    planar = float(np.hypot(x, y))
    geodesic = float(haversine_m(11.5, 56.0, 11.6, 56.05))
    assert planar == pytest.approx(geodesic, rel=0.01)


def test_knot_constant():
    assert KNOT_MS == pytest.approx(0.514444, abs=1e-6)
