"""Unit tests for HabitModel (A* imputation, snapping, inverse projection)
on small hand-built node/edge tables, with NetworkX as the search oracle."""
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import storage
from repro.core.model import HabitModel, csr, shortest_path_rows
from repro.hexgrid.hex import HexGrid, grid_distance, pack
from tests.hexring import k_ring

GRID = HexGrid(8, 56.0, 11.5)


def _node_table(cells, lons, lats) -> pd.DataFrame:
    return pd.DataFrame(
        {"cl": np.asarray(cells, dtype=np.int64), "cnt": 10, "nves": 2,
         "mlon": np.asarray(lons, dtype=float), "mlat": np.asarray(lats, dtype=float)}
    )


def _edge_table(src, dst, weights=None) -> pd.DataFrame:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return pd.DataFrame(
        {"lag_cl": src, "cl": dst, "transitions": 1 if weights is None else weights,
         "gdist": grid_distance(src, dst)}
    )


def _chain_tables(lons, lats, weights=None):
    """Node and edge tables of a directed chain of cells following given
    coordinates."""
    cells = [int(GRID.to_cell(lo, la)) for lo, la in zip(lons, lats)]
    return cells, _node_table(cells, lons, lats), _edge_table(cells[:-1], cells[1:], weights)


def _digraph(nodes: pd.DataFrame, edges: pd.DataFrame) -> nx.DiGraph:
    """Reference NetworkX graph with the tables' node and successor order."""
    g = nx.DiGraph()
    g.add_nodes_from(nodes["cl"].tolist())
    g.add_edges_from(zip(edges["lag_cl"].tolist(), edges["cl"].tolist()))
    return g


LONS = np.round(np.linspace(10.0, 10.5, 12), 4)
LATS = np.round(55.0 + 0.05 * np.sin(np.linspace(0, 3, 12)), 4)


@pytest.fixture()
def chain_model():
    cells, nodes, edges = _chain_tables(LONS, LATS)
    return cells, HabitModel(grid=GRID, nodes=nodes, edges=edges)


# --- snapping ---------------------------------------------------------------

def test_snap_inside_node_cell(chain_model):
    cells, model = chain_model
    assert model.snap(LONS[3], LATS[3]) == cells[3]


def test_snap_outside_returns_nearest(chain_model):
    cells, model = chain_model
    # a point ~20 km south of the chain snaps to the nearest chain node
    # (by projected distance to the node medians)
    probe_lon, probe_lat = LONS[5], LATS[5] - 0.2
    node = model.snap(probe_lon, probe_lat)
    assert node in cells
    px, py = GRID.project(probe_lon, probe_lat)
    nx_, ny_ = GRID.project(LONS, LATS)
    expect = cells[int(np.argmin((nx_ - px) ** 2 + (ny_ - py) ** 2))]
    assert node == expect


def test_snap_empty_model_raises():
    model = HabitModel(grid=GRID, nodes=pd.DataFrame(), edges=pd.DataFrame())
    with pytest.raises(ValueError):
        model.snap(10.0, 55.0)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_impute_rejects_non_finite_start(chain_model, bad):
    """A non-finite endpoint is an error, not a snap to some node."""
    _, model = chain_model
    with pytest.raises(ValueError, match="non-finite"):
        model.impute(bad, LATS[0], LONS[-1], LATS[-1])
    with pytest.raises(ValueError, match="non-finite"):
        model.impute(LONS[0], bad, LONS[-1], LATS[-1])


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
def test_impute_rejects_non_finite_end(chain_model, bad):
    _, model = chain_model
    with pytest.raises(ValueError, match="non-finite"):
        model.impute(LONS[0], LATS[0], bad, LATS[-1])
    with pytest.raises(ValueError, match="non-finite"):
        model.impute(LONS[0], LATS[0], LONS[-1], bad)


# --- path search ------------------------------------------------------------

def test_cell_path_follows_chain(chain_model):
    cells, model = chain_model
    path = model.cell_path(cells[0], cells[-1])
    assert path == cells


def test_cell_path_same_node(chain_model):
    cells, model = chain_model
    assert model.cell_path(cells[4], cells[4]) == [cells[4]]


def test_cell_path_respects_direction(chain_model):
    cells, model = chain_model
    # the chain is directed forward only
    assert model.cell_path(cells[-1], cells[0]) is None


def test_cell_path_matches_networkx_shortest(chain_model):
    cells, model = chain_model
    expect = nx.shortest_path(_digraph(model.nodes, model.edges), cells[0], cells[-1])
    assert model.cell_path(cells[0], cells[-1]) == expect


def test_cell_path_minimizes_transitions():
    """A* must take the fewer-hop branch, matching the paper's objective."""
    lons_a = [10.0, 10.1, 10.2, 10.3]
    lats_a = [55.0, 55.0, 55.0, 55.0]
    cells_a, nodes, edges = _chain_tables(lons_a, lats_a)
    # add a longer detour between the same endpoints
    detour_lons = [10.0, 10.05, 10.1, 10.15, 10.2, 10.25, 10.3]
    detour_lats = [55.0, 55.08, 55.1, 55.12, 55.1, 55.08, 55.0]
    dcells = [int(GRID.to_cell(lo, la)) for lo, la in zip(detour_lons, detour_lats)]
    nodes = pd.concat([nodes, _node_table(dcells[1:-1], detour_lons[1:-1], detour_lats[1:-1])])
    hops = [(a, b) for a, b in zip(dcells[:-1], dcells[1:]) if a != b]
    edges = pd.concat([edges, _edge_table(*zip(*hops))])
    model = HabitModel(grid=GRID, nodes=nodes, edges=edges)
    path = model.cell_path(cells_a[0], cells_a[-1])
    assert path == cells_a  # 3 hops beats the ~6-hop detour


# --- inverse projection -----------------------------------------------------

def test_project_cells_median(chain_model):
    cells, model = chain_model
    lon, lat = model.project_cells(cells[:3], p="w")
    assert lon == pytest.approx(LONS[:3])
    assert lat == pytest.approx(LATS[:3])


def test_project_cells_center(chain_model):
    cells, model = chain_model
    lon, lat = model.project_cells(cells[:3], p="c")
    exp_lon, exp_lat = GRID.cell_center(np.asarray(cells[:3]))
    assert lon == pytest.approx(exp_lon)
    assert lat == pytest.approx(exp_lat)


def test_project_cells_bad_option(chain_model):
    cells, model = chain_model
    with pytest.raises(ValueError):
        model.project_cells(cells[:2], p="x")


def test_impute_bad_option_raises_without_a_path():
    """An unknown ``p`` is refused before the search: a gap with no path
    raises too, rather than getting the straight line."""
    cells = RING[:2]
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    model = HabitModel(grid=GRID, nodes=_node_table(cells, lon, lat), edges=pd.DataFrame())
    assert model.impute(lon[0], lat[0], lon[1], lat[1]).fallback
    with pytest.raises(ValueError, match="projection option 'x'"):
        model.impute(lon[0], lat[0], lon[1], lat[1], p="x")


def test_median_projection_differs_from_center(chain_model):
    cells, model = chain_model
    wlon, _ = model.project_cells(cells, p="w")
    clon, _ = model.project_cells(cells, p="c")
    assert not np.allclose(wlon, clon)


# --- impute -----------------------------------------------------------------

def test_impute_endpoints_preserved(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    assert res.lon[0] == LONS[0] and res.lon[-1] == LONS[-1]
    assert not res.fallback


def test_impute_visits_intermediate_cells(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    assert res.lon.size >= len(cells) - 2


def test_impute_fallback_on_disconnection(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[-1], LATS[-1], LONS[0], LATS[0])  # against direction
    assert res.fallback
    assert res.lon.size == 2


def test_impute_dedupes_consecutive_positions(chain_model):
    cells, model = chain_model
    # endpoints exactly on node medians: first/last projected cell collapses
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    d = np.hypot(np.diff(res.lon), np.diff(res.lat))
    assert (d > 0).all()


def test_properties(chain_model):
    cells, model = chain_model
    assert model.n_nodes == len(cells)
    assert model.n_edges == len(cells) - 1


# --- search identity with NetworkX (property) --------------------------------

#: Real cells of the grid: a hex disc of radius 3 (37 cells), so random edges
#: span 1 to 6 hex hops and the heuristic's max-span scaling varies, while
#: enough nodes tie on f = g + h for the successor order to matter.
RING = k_ring(GRID, int(GRID.to_cell(11.5, 56.0)), 3)


@st.composite
def _random_tables(draw):
    """Node/edge tables of a random digraph over real hex cells: possibly
    empty, possibly disconnected, with mixed transition spans."""
    cells = draw(st.lists(st.sampled_from(RING), unique=True, max_size=12))
    hops = []
    if cells:
        pair = st.tuples(st.sampled_from(cells), st.sampled_from(cells))
        hops = draw(st.lists(pair, unique=True, max_size=40))
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    src, dst = zip(*hops) if hops else ((), ())
    return _node_table(cells, lon, lat), _edge_table(src, dst)


@st.composite
def _sparse_tables(draw):
    """Node/edge tables of a sparse, mostly acyclic digraph over real hex
    cells: most edges lead forward in the drawn cell order and a few lead
    back, so the graph has several strongly connected components, and
    paths pass through chains of them."""
    cells = draw(st.lists(st.sampled_from(RING), unique=True, min_size=1, max_size=16))
    ix = st.integers(0, len(cells) - 1)
    forward = draw(st.lists(st.tuples(ix, ix), max_size=2 * len(cells)))
    back = draw(st.lists(st.tuples(ix, ix), max_size=3))
    hops = [(min(a, b), max(a, b)) for a, b in forward if a != b]
    hops += [(max(a, b), min(a, b)) for a, b in back]
    src, dst = zip(*dict.fromkeys(hops)) if hops else ((), ())
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    return _node_table(cells, lon, lat), _edge_table([cells[i] for i in src], [cells[i] for i in dst])


def _disc(k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The cells of a hex disc of radius ``k`` and its directed 6-neighbour
    edges."""
    cells = np.asarray(k_ring(GRID, int(GRID.to_cell(11.5, 56.0)), k), dtype=np.int64)
    a, b = np.nonzero(grid_distance(cells[:, None], cells[None, :]) == 1)
    return cells.tolist(), list(zip(cells[a].tolist(), cells[b].tolist()))


#: Hex discs of radius 4 and 5 (61 and 91 cells) around RING's center.
DISCS = {k: _disc(k) for k in (4, 5)}


@st.composite
def _disc_tables(draw):
    """Node/edge tables of a tie-heavy digraph: a hex disc, in a drawn node
    order, in which all but a few 6-neighbour edges exist in both
    directions, plus a few long skips. It has many equally short paths, and
    searches from both ends run several levels before they meet."""
    cells, arcs = DISCS[draw(st.sampled_from(sorted(DISCS)))]
    cells = draw(st.permutations(cells))
    dropped = set(draw(st.lists(st.sampled_from(arcs), max_size=len(arcs) // 8)))
    skips = draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(cells)), max_size=4))
    hops = [a for a in arcs if a not in dropped] + [(a, b) for a, b in skips if a != b]
    src, dst = zip(*dict.fromkeys(hops))
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    return _node_table(cells, lon, lat), _edge_table(src, dst)


#: Random digraphs with up to 40 edges over 12 cells, sparse, mostly
#: acyclic ones whose paths cross chains of components over up to 16
#: cells, and tie-heavy hex discs of 61 or 91 cells.
TABLES = st.one_of(_random_tables(), _sparse_tables(), _disc_tables())


def _pairs(data, cells: list[int]) -> list[tuple[int, int]]:
    """Every (start, target) pair of a small graph; 20 drawn ones of a
    larger one."""
    pairs = [(s, t) for s in cells for t in cells]
    if len(pairs) <= 256:
        return pairs
    return data.draw(st.lists(st.sampled_from(pairs), min_size=20, max_size=20))


@settings(max_examples=200, deadline=None)
@given(TABLES, st.data())
def test_cell_path_equals_networkx_astar(tables, data):
    """Same path as ``nx.astar_path`` with the hex heuristic, None exactly
    when NetworkX finds no path, and a shortest path."""
    nodes, edges = tables
    model = HabitModel(grid=GRID, nodes=nodes, edges=edges)
    g = _digraph(nodes, edges)
    span = max(1, int(edges["gdist"].max()) if len(edges) else 1)

    def h(u, v):
        return float(grid_distance(u, v)) / span

    cells = nodes["cl"].tolist()
    if not cells:
        assert model.cell_path(RING[0], RING[1]) is None
    for s, t in _pairs(data, cells):
        try:
            want = nx.astar_path(g, s, t, heuristic=h, weight=lambda a, b, d: 1.0)
        except nx.NetworkXNoPath:
            want = None
        got = model.cell_path(s, t)
        assert got == want
        if got is not None:
            assert len(got) - 1 == nx.shortest_path_length(g, s, t)


@settings(max_examples=200, deadline=None)
@given(TABLES, st.data())
def test_shortest_path_rows_are_the_nodes_on_shortest_paths(tables, data):
    """The rows the search is confined to are exactly the nodes ``v`` with
    d(s, v) + d(v, t) = d(s, t), each mapped to d(s, v), and None exactly
    when t is unreachable."""
    nodes, edges = tables
    model = HabitModel(grid=GRID, nodes=nodes, edges=edges)
    g = _digraph(nodes, edges)
    cells = nodes["cl"].tolist()
    for s, t in _pairs(data, cells):
        rows = shortest_path_rows(model._succ, model._pred, cells.index(s), cells.index(t))
        from_s = nx.single_source_shortest_path_length(g, s)
        to_t = nx.single_source_shortest_path_length(g.reverse(copy=False), t)
        if t not in from_s:
            assert rows is None
            continue
        want = {v for v in from_s.keys() & to_t.keys() if from_s[v] + to_t[v] == from_s[t]}
        assert {cells[i] for i in rows} == want
        for i, d in rows.items():
            assert d == nx.shortest_path_length(g, s, cells[i])


# --- deep graphs and load ------------------------------------------------

def _deep_tables(n: int, *, cycle: bool, start: int = 0):
    """A directed chain of ``n`` cells in a 400-cell-wide block of the grid,
    from its ``start``-th cell on, closed into a cycle when ``cycle``."""
    q, r = np.divmod(np.arange(start, start + n), 400)
    cells = pack(GRID.res, q, r)
    lon, lat = GRID.cell_center(cells)
    src, dst = cells[:-1], cells[1:]
    if cycle:
        src, dst = np.append(src, cells[-1]), np.append(dst, cells[0])
    return cells.tolist(), _node_table(cells, lon, lat), _edge_table(src, dst)


def test_deep_chain_and_cycle_build():
    """Paths are found, and their absence decided, without recursion: a
    100,000-cell chain has a path through all of its cells and none back; a
    100,000-cell cycle closes in one hop; two such cycles joined by one edge
    have no path against it, which the search settles only once one of the
    two 100,000-cell balls is complete."""
    cells, nodes, edges = _deep_tables(100_000, cycle=False)
    model = HabitModel(grid=GRID, nodes=nodes, edges=edges)
    assert model.cell_path(cells[-1], cells[0]) is None
    assert model.cell_path(cells[0], cells[-1]) == cells
    cells, nodes, edges = _deep_tables(100_000, cycle=True)
    model = HabitModel(grid=GRID, nodes=nodes, edges=edges)
    assert model.cell_path(cells[-1], cells[0]) == [cells[-1], cells[0]]
    other, other_nodes, other_edges = _deep_tables(100_000, cycle=True, start=100_000)
    join = _edge_table([cells[-1]], [other[0]])
    model = HabitModel(
        grid=GRID, nodes=pd.concat([nodes, other_nodes]), edges=pd.concat([edges, other_edges, join])
    )
    assert model.cell_path(cells[-1], other[0]) == [cells[-1], other[0]]
    assert model.cell_path(other[0], cells[-1]) is None


def test_index_of_graphs_without_edges():
    empty = HabitModel(grid=GRID, nodes=pd.DataFrame(), edges=pd.DataFrame())
    assert empty._succ == empty._pred == []
    cells = RING[:3]
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    model = HabitModel(grid=GRID, nodes=_node_table(cells, lon, lat), edges=pd.DataFrame())
    assert model.cell_path(cells[1], cells[1]) == [cells[1]]
    assert model.cell_path(cells[0], cells[1]) is None


def _fork_tables():
    """A chain with a two-cell loop in its middle and a dead-end branch."""
    cells = RING[:6]
    lon, lat = GRID.cell_center(np.asarray(cells, dtype=np.int64))
    a, b, c, d, e, f = cells
    edges = _edge_table([a, b, c, c, e], [b, c, b, d, f])
    return _node_table(cells, lon, lat), edges


def test_index_is_rebuilt_on_load(tmp_path):
    """The predecessor rows are derived again, equal, from the held tables;
    the edges are given out of source order, so predecessor rows taken from
    the input order would differ."""
    nodes, edges = _fork_tables()
    model = HabitModel(GRID, nodes, edges.iloc[::-1])
    assert model._pred[1] == (0, 2)
    storage.save(model, tmp_path)
    for copy in (storage.load(tmp_path), pickle.loads(pickle.dumps(model))):
        assert copy._pred == model._pred


def test_index_is_not_stored():
    """Persistence and the broadcast payload carry the tables only, not
    the successor and predecessor rows: the
    parquet bytes are those of the two tables, and the pickle is as long
    as one of the class and its (grid, nodes, edges) arguments (the same
    opcodes, with REDUCE in place of the pair's TUPLE2)."""
    model = HabitModel(GRID, *_fork_tables())
    assert any(model._pred) and any(model._succ)
    tables = (model.grid, model.nodes, model.edges)
    assert storage.storage_bytes(model) == (
        storage.parquet_bytes(model.nodes) + storage.parquet_bytes(model.edges)
    )
    assert len(pickle.dumps(model)) == len(pickle.dumps((HabitModel, tables)))


# --- tables and degenerate inputs ---------------------------------------------

def test_csr_keeps_successor_order():
    indptr, order = csr(3, [2, 0, 2, 0], [0, 2, 1, 1])
    assert indptr.tolist() == [0, 2, 2, 4]
    assert order.tolist() == [1, 3, 0, 2]
    with pytest.raises(ValueError):
        csr(2, [0], [2])


def test_edges_held_in_source_order():
    """Edges are kept grouped by source in node-table order, edge-table
    order within a source."""
    cells, nodes, edges = _chain_tables(LONS, LATS)
    shuffled = edges.iloc[::-1]
    model = HabitModel(grid=GRID, nodes=nodes, edges=shuffled)
    pd.testing.assert_frame_equal(model.edges, edges)


def test_edge_endpoint_missing_from_nodes_raises():
    cells, nodes, edges = _chain_tables(LONS, LATS)
    with pytest.raises(ValueError, match="missing from the node table"):
        HabitModel(grid=GRID, nodes=nodes.iloc[1:], edges=edges)


def test_empty_model_save_load(tmp_path):
    storage.save(HabitModel(grid=GRID, nodes=pd.DataFrame(), edges=pd.DataFrame()), tmp_path)
    model = storage.load(tmp_path)
    assert (model.grid, model.n_nodes, model.n_edges) == (GRID, 0, 0)
    with pytest.raises(ValueError):
        model.snap(10.0, 55.0)


def test_core_runtime_does_not_import_networkx():
    """NetworkX and DuckDB are test oracles only: the fitted model and its
    storage run without NetworkX, no ``repro`` module loads either of them,
    and loading a saved model for queries does not pull in PySpark
    either."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def loaded(modules: str) -> str:
        oracles = "{'networkx', 'duckdb', 'pyspark'}"
        code = f"import sys, {modules}; print(sorted({oracles} & sys.modules.keys()))"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120, check=True,
        )
        return out.stdout.strip()

    assert "networkx" not in loaded("repro.core.habit, repro.core.storage")
    assert loaded("repro.core.model, repro.core.storage") == "[]"
    every = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.core.model" in every
    assert loaded(", ".join(every)) == "['pyspark']"
