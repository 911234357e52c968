"""Unit + property tests for the hex grid substrate (H3 substitute)."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import (
    EDGE_M,
    HexGrid,
    _axial_round,
    _axial_round_scalar,
    grid_distance,
    pack,
    unpack,
)
from tests.hexring import k_ring

GRID = HexGrid(9, 56.0, 11.5)

lons = st.floats(min_value=8.5, max_value=14.5)
lats = st.floats(min_value=53.5, max_value=58.5)


# --- packing ---------------------------------------------------------------

@pytest.mark.parametrize("res", sorted(EDGE_M))
def test_pack_unpack_roundtrip(res):
    q = np.array([0, 1, -1, 1000, -1000, 2**20])
    r = np.array([0, -1, 1, -1000, 1000, -(2**20)])
    res_out, q_out, r_out = unpack(pack(res, q, r))
    assert (res_out == res).all()
    assert (q_out == q).all()
    assert (r_out == r).all()


def test_pack_scalar_roundtrip():
    cell = pack(7, 12, -34)
    res, q, r = unpack(int(cell))
    assert (int(res), int(q), int(r)) == (7, 12, -34)


def test_pack_out_of_range_raises():
    with pytest.raises(ValueError):
        pack(9, 2**28, 0)


@pytest.mark.parametrize("res", [6, 7, 8, 9, 10])
def test_resolutions_give_distinct_cells(res):
    g = HexGrid(res, 56.0, 11.5)
    c = g.to_cell(np.array([11.5]), np.array([56.0]))
    assert unpack(c[0])[0] == res


# --- geometry --------------------------------------------------------------

@given(lon=lons, lat=lats)
@settings(max_examples=200, deadline=None)
def test_roundtrip_within_circumradius(lon, lat):
    """point -> cell -> center is never farther than one edge length (the
    hexagon circumradius), modulo small projection curvature."""
    c = GRID.to_cell(lon, lat)
    clon, clat = GRID.cell_center(c)
    d = float(haversine_m(lon, lat, clon, clat))
    assert d <= EDGE_M[9] * 1.10


@given(lon=lons, lat=lats, res=st.sampled_from([6, 7, 8, 9, 10]))
@settings(max_examples=100, deadline=None)
def test_roundtrip_all_resolutions(lon, lat, res):
    g = HexGrid(res, 56.0, 11.5)
    c = g.to_cell(lon, lat)
    clon, clat = g.cell_center(c)
    assert float(haversine_m(lon, lat, clon, clat)) <= EDGE_M[res] * 1.10


@given(lon=lons, lat=lats)
@settings(max_examples=100, deadline=None)
def test_center_maps_to_same_cell(lon, lat):
    c = GRID.to_cell(lon, lat)
    clon, clat = GRID.cell_center(c)
    assert int(GRID.to_cell(clon, clat)) == int(c)


def test_projection_roundtrip():
    x, y = GRID.project(11.9, 56.3)
    lon, lat = GRID.unproject(x, y)
    assert abs(float(lon) - 11.9) < 1e-9
    assert abs(float(lat) - 56.3) < 1e-9


def test_projection_scale_is_metric():
    # 0.01 degree of latitude is ~1111.9 m in any equirectangular projection.
    _, y1 = GRID.project(11.5, 56.0)
    _, y2 = GRID.project(11.5, 56.01)
    assert abs((float(y2) - float(y1)) - 1111.95) < 1.0


def test_vectorized_matches_scalar():
    lon = np.array([10.0, 11.0, 12.0])
    lat = np.array([55.0, 56.0, 57.0])
    cells = GRID.to_cell(lon, lat)
    for i in range(3):
        assert int(GRID.to_cell(lon[i], lat[i])) == int(cells[i])


# --- scalar cell assignment -------------------------------------------------

def _locate_matches_vectorized(g: HexGrid, lon: float, lat: float) -> None:
    cell, x, y = g.locate(lon, lat)
    vx, vy = g.project(np.array([lon]), np.array([lat]))
    assert cell == int(g.to_cell(np.array([lon]), np.array([lat]))[0])
    assert (x, y) == (float(vx[0]), float(vy[0]))
    assert type(cell) is int and type(x) is float and type(y) is float


@given(lon=lons, lat=lats, res=st.integers(min_value=4, max_value=11))
@settings(max_examples=300, deadline=None)
def test_locate_equals_to_cell(lon, lat, res):
    _locate_matches_vectorized(HexGrid(res, 56.0, 11.5), lon, lat)


#: Fractional axial parts that put a point on a rounding tie (1/2) or make
#: two of the cube-rounding distances equal (1/4, 3/4, 1/3, 2/3, 1/6, 5/6).
FRACTIONS = st.sampled_from([0.0, 0.5, 0.25, 0.75, 1 / 3, 2 / 3, 1 / 6, 5 / 6])


@given(
    q=st.integers(-2000, 2000), r=st.integers(-2000, 2000),
    fq=FRACTIONS, fr=FRACTIONS, sq=st.sampled_from([1, -1]), sr=st.sampled_from([1, -1]),
)
@settings(max_examples=300, deadline=None)
def test_axial_round_scalar_equals_vectorized_on_ties(q, r, fq, fr, sq, sr):
    qf, rf = q + sq * fq, r + sr * fr
    vq, vr = _axial_round(np.array([qf]), np.array([rf]))
    assert _axial_round_scalar(qf, rf) == (int(vq[0]), int(vr[0]))


@given(
    q=st.integers(-300, 300), r=st.integers(-300, 300), fq=FRACTIONS, fr=FRACTIONS,
    res=st.integers(min_value=4, max_value=11), ulps=st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_locate_equals_to_cell_at_rounding_ties(q, r, fq, fr, res, ulps):
    """Points placed on half-way (or equidistant) axial coordinates, then
    moved a few ulps: both paths must round them the same way."""
    g = HexGrid(res, 56.0, 11.5)
    a = g.edge_m
    qf, rf = q + fq, r + fr
    y = 1.5 * a * rf
    x = (qf * a + y / 3.0) * np.sqrt(3.0)
    lon, lat = (float(v) for v in g.unproject(x, y))
    lon = float(np.nextafter(lon, np.sign(ulps) * np.inf)) if ulps else lon
    for _ in range(abs(ulps) - 1):
        lat = float(np.nextafter(lat, np.sign(ulps) * np.inf))
    _locate_matches_vectorized(g, lon, lat)


def test_pickle_keeps_parameters_only():
    g = HexGrid(8, 56.0, 11.5)
    g.locate(11.6, 56.1)  # fills the cached constants
    blob = pickle.dumps(g)
    assert pickle.loads(blob) == g
    assert len(blob) == len(pickle.dumps(HexGrid(8, 56.0, 11.5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_to_cell_rejects_non_finite(bad):
    """A non-finite coordinate raises instead of giving an id that looks
    valid, alone or among finite points."""
    g = HexGrid(9, 37.7, 23.5)
    for lon, lat in ((bad, 37.9), (23.5, bad)):
        with pytest.raises(ValueError, match="non-finite"):
            g.to_cell(lon, lat)
        with pytest.raises(ValueError, match="non-finite"):
            g.to_cell(np.array([23.5, lon]), np.array([37.9, lat]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_locate_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        GRID.locate(bad, 56.0)
    with pytest.raises(ValueError, match="non-finite"):
        GRID.locate(11.5, bad)


# --- grid distance ---------------------------------------------------------

def test_grid_distance_identity():
    c = int(GRID.to_cell(11.5, 56.0))
    assert int(grid_distance(c, c)) == 0


def test_grid_distance_symmetry():
    a = int(GRID.to_cell(11.5, 56.0))
    b = int(GRID.to_cell(11.9, 56.4))
    assert int(grid_distance(a, b)) == int(grid_distance(b, a))


@given(
    lon1=lons, lat1=lats, lon2=lons, lat2=lats, lon3=lons, lat3=lats
)
@settings(max_examples=100, deadline=None)
def test_grid_distance_triangle_inequality(lon1, lat1, lon2, lat2, lon3, lat3):
    a = int(GRID.to_cell(lon1, lat1))
    b = int(GRID.to_cell(lon2, lat2))
    c = int(GRID.to_cell(lon3, lat3))
    assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c)


def test_grid_distance_neighbors_is_one():
    c = int(GRID.to_cell(11.5, 56.0))
    neighbors = [n for n in k_ring(GRID, c, 1) if n != c]
    assert len(neighbors) == 6
    for n in neighbors:
        assert int(grid_distance(c, n)) == 1


def test_grid_distance_tracks_metric_distance():
    """Hex hops x center spacing approximates the great-circle distance."""
    a = int(GRID.to_cell(10.16, 54.33))
    b = int(GRID.to_cell(11.85, 57.60))
    hops = int(grid_distance(a, b))
    spacing = np.sqrt(3.0) * EDGE_M[9]  # center-to-center distance
    metric = float(haversine_m(10.16, 54.33, 11.85, 57.60))
    assert hops * spacing == pytest.approx(metric, rel=0.15)


# --- neighborhoods ---------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_k_ring_size(k, expected):
    """|k_ring| = 1 + 3k(k+1)."""
    c = int(GRID.to_cell(11.5, 56.0))
    ring = k_ring(GRID, c, k)
    assert len(ring) == expected
    assert len(set(ring)) == expected


def test_k_ring_distances_bounded():
    c = int(GRID.to_cell(11.5, 56.0))
    for cell in k_ring(GRID, c, 3):
        assert int(grid_distance(c, cell)) <= 3


def test_k_ring_contains_all_cells_within_k():
    c = int(GRID.to_cell(11.5, 56.0))
    _, q, r = unpack(c)
    dq, dr = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5))
    box = pack(GRID.res, q + dq.ravel(), r + dr.ravel())
    within = box[grid_distance(c, box) <= 2]
    assert set(k_ring(GRID, c, 2)) == set(within.tolist())


# --- tessellation ----------------------------------------------------------

def test_tessellation_no_point_unassigned():
    rng = np.random.default_rng(0)
    lon = rng.uniform(9, 14, 500)
    lat = rng.uniform(54, 58, 500)
    cells = GRID.to_cell(lon, lat)
    assert cells.shape == (500,)
    assert (cells > 0).all()


def test_nearby_points_share_cell():
    base = GRID.to_cell(11.5, 56.0)
    # 10 m east: far below the 174 m edge at res 9 -> usually same cell;
    # at minimum adjacent.
    near = GRID.to_cell(11.5 + 10.0 / 62000.0, 56.0)
    assert int(grid_distance(base, near)) <= 1


def test_distinct_anchors_give_distinct_ids():
    g1 = HexGrid(9, 56.0, 11.5)
    g2 = HexGrid(9, 37.7, 23.5)
    c1 = int(g1.to_cell(11.5, 56.0))
    c2 = int(g2.to_cell(11.5, 56.0))
    # ids are anchor-relative; same physical point, different axial coords.
    assert c1 != c2
