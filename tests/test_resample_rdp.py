"""Unit tests for path densification, turn statistics, and RDP."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geodesy import haversine_m
from repro.geo.rdp import _rdp_mask, rdp
from repro.geo.resample import densify, path_length_m, turn_stats


# --- path length -----------------------------------------------------------

def test_path_length_empty_and_single():
    assert path_length_m(np.array([]), np.array([])) == 0.0
    assert path_length_m(np.array([10.0]), np.array([55.0])) == 0.0


def test_path_length_two_points():
    lon = np.array([0.0, 0.0])
    lat = np.array([0.0, 1.0])
    assert path_length_m(lon, lat) == pytest.approx(111_195, rel=1e-3)


def test_path_length_additive():
    lon = np.array([0.0, 0.0, 0.0])
    lat = np.array([0.0, 0.5, 1.0])
    assert path_length_m(lon, lat) == pytest.approx(
        path_length_m(lon[:2], lat[:2]) + path_length_m(lon[1:], lat[1:])
    )


# --- densify ---------------------------------------------------------------

def test_densify_respects_max_spacing():
    lon = np.array([10.0, 10.5, 10.5])
    lat = np.array([55.0, 55.0, 55.4])
    dlon, dlat = densify(lon, lat, 250.0)
    seg = haversine_m(dlon[:-1], dlat[:-1], dlon[1:], dlat[1:])
    assert float(seg.max()) <= 250.0 * 1.001


def test_densify_preserves_endpoints_and_vertices():
    lon = np.array([10.0, 10.5, 10.6])
    lat = np.array([55.0, 55.2, 55.4])
    dlon, dlat = densify(lon, lat, 100.0)
    for v_lon, v_lat in zip(lon, lat):
        assert ((np.abs(dlon - v_lon) < 1e-12) & (np.abs(dlat - v_lat) < 1e-12)).any()


def test_densify_short_segment_unchanged():
    lon = np.array([10.0, 10.0001])
    lat = np.array([55.0, 55.0])
    dlon, _ = densify(lon, lat, 250.0)
    assert dlon.size == 2


def test_densify_single_point():
    dlon, dlat = densify(np.array([10.0]), np.array([55.0]), 250.0)
    assert dlon.size == 1


def test_densify_preserves_total_length():
    lon = np.array([10.0, 10.5, 10.9])
    lat = np.array([55.0, 55.3, 55.1])
    before = path_length_m(lon, lat)
    dlon, dlat = densify(lon, lat, 100.0)
    assert path_length_m(dlon, dlat) == pytest.approx(before, rel=1e-4)


# --- turn statistics -------------------------------------------------------

def test_turn_stats_straight_line():
    lon = np.linspace(10.0, 11.0, 20)
    lat = np.full(20, 55.0)
    s = turn_stats(lon, lat)
    assert s["cnt"] == 20
    assert s["avg_rot"] == pytest.approx(0.0, abs=0.5)
    assert s["gt45"] == 0


def test_turn_stats_right_angle():
    lon = np.array([10.0, 10.5, 10.5])
    lat = np.array([55.0, 55.0, 55.5])
    s = turn_stats(lon, lat)
    assert s["max_rot"] == pytest.approx(90.0, abs=2.0)
    assert s["gt45"] == 1


def test_turn_stats_zigzag_counts_all_turns():
    # Square-wave path: every interior vertex is a ~90 degree turn.
    lon = np.array([0.0, 0.1, 0.1, 0.2, 0.2, 0.3])
    lat = np.array([0.0, 0.0, 0.1, 0.1, 0.0, 0.0])
    s = turn_stats(lon, lat)
    assert s["gt45"] == 4


def test_turn_stats_handles_duplicate_vertices():
    lon = np.array([10.0, 10.0, 10.5, 10.5, 10.5])
    lat = np.array([55.0, 55.0, 55.0, 55.0, 55.5])
    s = turn_stats(lon, lat)  # must not produce NaNs from zero segments
    assert np.isfinite(s["avg_rot"])
    assert s["cnt"] == 5


def test_turn_stats_short_paths():
    assert turn_stats(np.array([1.0]), np.array([1.0]))["max_rot"] == 0.0
    assert turn_stats(np.array([1.0, 2.0]), np.array([1.0, 1.0]))["gt45"] == 0


# --- RDP -------------------------------------------------------------------

def test_rdp_zero_tolerance_is_noop():
    lon = np.array([10.0, 10.1, 10.2, 10.3])
    lat = np.array([55.0, 55.01, 54.99, 55.0])
    out_lon, out_lat = rdp(lon, lat, 0.0)
    assert (out_lon == lon).all() and (out_lat == lat).all()


def test_rdp_collapses_collinear_points():
    lon = np.linspace(10.0, 11.0, 50)
    lat = np.full(50, 55.0)
    out_lon, _ = rdp(lon, lat, 10.0)
    assert out_lon.size == 2


def test_rdp_keeps_meaningful_turn():
    # ~5.5 km perpendicular excursion must survive a 100 m tolerance.
    lon = np.array([10.0, 10.5, 11.0])
    lat = np.array([55.0, 55.05, 55.0])
    out_lon, _ = rdp(lon, lat, 100.0)
    assert out_lon.size == 3


def test_rdp_removes_small_wiggle():
    # ~100 m wiggle disappears at 250 m tolerance.
    lon = np.array([10.0, 10.5, 11.0])
    lat = np.array([55.0, 55.0009, 55.0])
    out_lon, _ = rdp(lon, lat, 250.0)
    assert out_lon.size == 2


def test_rdp_endpoints_always_kept():
    rng = np.random.default_rng(3)
    lon = np.cumsum(rng.uniform(0.001, 0.01, 30)) + 10.0
    lat = 55.0 + rng.normal(0, 0.001, 30)
    out_lon, out_lat = rdp(lon, lat, 500.0)
    assert out_lon[0] == lon[0] and out_lon[-1] == lon[-1]
    assert out_lat[0] == lat[0] and out_lat[-1] == lat[-1]


def test_rdp_output_is_subsequence():
    rng = np.random.default_rng(4)
    lon = np.cumsum(rng.uniform(0.001, 0.01, 40)) + 10.0
    lat = 55.0 + rng.normal(0, 0.002, 40)
    out_lon, _ = rdp(lon, lat, 200.0)
    idx = np.searchsorted(lon, out_lon)
    assert (np.diff(idx) > 0).all()


@given(tol=st.floats(min_value=1.0, max_value=5000.0))
@settings(max_examples=50, deadline=None)
def test_rdp_monotone_in_tolerance(tol):
    rng = np.random.default_rng(7)
    lon = np.cumsum(rng.uniform(0.001, 0.01, 40)) + 10.0
    lat = 55.0 + rng.normal(0, 0.003, 40)
    n_t = rdp(lon, lat, tol)[0].size
    n_2t = rdp(lon, lat, 2 * tol)[0].size
    assert n_2t <= n_t


def test_rdp_max_deviation_bounded():
    """No removed point may deviate more than the tolerance from the
    simplified polyline (RDP's defining guarantee)."""
    rng = np.random.default_rng(9)
    lon = np.cumsum(rng.uniform(0.001, 0.01, 60)) + 10.0
    lat = 55.0 + rng.normal(0, 0.005, 60)
    tol = 300.0
    s_lon, s_lat = rdp(lon, lat, tol)
    from repro.geo.geodesy import local_xy

    x, y = local_xy(lon, lat, 10.0, 55.0)
    sx, sy = local_xy(s_lon, s_lat, 10.0, 55.0)
    for px, py in zip(x, y):
        d = np.inf
        for i in range(sx.size - 1):
            ax, ay, bx, by = sx[i], sy[i], sx[i + 1], sy[i + 1]
            t = np.clip(
                ((px - ax) * (bx - ax) + (py - ay) * (by - ay))
                / max((bx - ax) ** 2 + (by - ay) ** 2, 1e-12),
                0,
                1,
            )
            d = min(d, np.hypot(px - (ax + t * (bx - ax)), py - (ay + t * (by - ay))))
        assert d <= tol * 1.01


def _rdp_mask_numpy(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the vectorized keep-mask (one numpy pass per segment)."""
    n = x.size
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        dx, dy = x[j] - x[i], y[j] - y[i]
        seg_len2 = dx * dx + dy * dy
        px = x[i + 1 : j] - x[i]
        py = y[i + 1 : j] - y[i]
        if seg_len2 == 0.0:
            d2 = px * px + py * py
        else:
            cross = px * dy - py * dx
            d2 = cross * cross / seg_len2
        k = int(np.argmax(d2))
        if d2[k] > tol * tol:
            m = i + 1 + k
            keep[m] = True
            stack.append((i, m))
            stack.append((m, j))
    return keep


#: Planar coordinates with repeats (equal distances, zero-length segments)
#: and ordinary spreads.
_coord = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 100.0]),
    st.floats(min_value=-5e4, max_value=5e4, allow_nan=False),
)


@given(
    pts=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=40),
    tol=st.sampled_from([0.0, 1.0, 50.0, 100.0, 1000.0]),
)
@settings(max_examples=300, deadline=None)
def test_rdp_mask_equals_numpy_reference(pts, tol):
    x, y = (np.array(v, dtype=np.float64) for v in zip(*pts))
    assert _rdp_mask(x, y, tol).tolist() == _rdp_mask_numpy(x, y, tol).tolist()


def test_rdp_mask_non_finite_like_numpy_reference():
    """A NaN distance wins as the first maximum, as ``np.argmax`` has it."""
    x = np.array([0.0, 5.0, np.nan, 300.0, 7.0, 10.0])
    y = np.array([0.0, 400.0, 1.0, -2.0, np.inf, 0.0])
    for tol in (0.0, 10.0):
        assert _rdp_mask(x, y, tol).tolist() == _rdp_mask_numpy(x, y, tol).tolist()
