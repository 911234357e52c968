"""Tests for phase 2 (cell/edge aggregation) — Spark vs the DuckDB oracle.

The paper implements this phase as a DuckDB CTE; we run it in Spark. The
oracle encodes the paper's CTE in DuckDB over the same input (with exact
distinct counts on both sides, since HLL sketches differ between engines)
and every aggregate must match row for row.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ais.datasets import REGION_OF, to_spark
from repro.core.graphgen import (
    aggregate,
    cell_col,
    cell_stats,
    drop_small_trips,
    edge_stats,
    with_cells,
)
from repro.core.model import EDGE_COLUMNS, NODE_COLUMNS, HabitModel
from repro.hexgrid.hex import HexGrid, grid_distance
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kiel_cells(spark, kiel_trips):
    """KIEL trips with cl/lag_cl assigned at r=8, small trips dropped."""
    grid = HexGrid(8, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    df = drop_small_trips(with_cells(to_spark(spark, kiel_trips), grid))
    pdf = df.toPandas()
    return grid, df, pdf


# --- cell assignment --------------------------------------------------------

def test_spark_cell_assignment_matches_driver(spark, kiel_trips):
    """The Spark cell expression must agree with driver-side HexGrid.to_cell."""
    grid = HexGrid(9, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    sample = kiel_trips.head(500)
    got = (
        with_cells(to_spark(spark, sample), grid)
        .orderBy("trip_id", "ts")
        .select("cl")
        .toPandas()["cl"]
        .to_numpy()
    )
    expect = grid.to_cell(
        sample.sort_values(["trip_id", "ts"])["lon"].to_numpy(),
        sample.sort_values(["trip_id", "ts"])["lat"].to_numpy(),
    )
    assert (got == expect).all()


def test_cell_col_matches_driver_near_rounding_ties(spark):
    """The Catalyst cell expression rounds like ``HexGrid.to_cell`` on
    points a few ulps from half-way axial coordinates, at r=4..11."""
    rows = []
    rng = np.random.default_rng(5)
    for res in range(4, 12):
        g = HexGrid(res, 56.0, 11.5)
        a = g.edge_m
        qf = rng.integers(-200, 200, 60) + rng.choice([0.5, 0.25, 1 / 3, 0.0], 60)
        rf = rng.integers(-200, 200, 60) + rng.choice([0.5, 0.75, 2 / 3, 0.0], 60)
        y = 1.5 * a * rf
        lon, lat = g.unproject((qf * a + y / 3.0) * np.sqrt(3.0), y)
        for step in (-np.inf, np.inf):
            lon = np.concatenate([lon, np.nextafter(lon[:60], step)])
            lat = np.concatenate([lat, np.nextafter(lat[:60], step)])
        rows.append(pd.DataFrame({"res": res, "lon": lon, "lat": lat}))
    pdf = pd.concat(rows, ignore_index=True)
    df = spark.createDataFrame(pdf)
    for res in range(4, 12):
        g = HexGrid(res, 56.0, 11.5)
        sub = pdf[pdf["res"] == res]
        got = (
            df.filter(F.col("res") == res)
            .select(cell_col(g, F.col("lon"), F.col("lat")).alias("cl"))
            .toPandas()["cl"]
            .to_numpy()
        )
        assert (got == g.to_cell(sub["lon"].to_numpy(), sub["lat"].to_numpy())).all()


def test_aggregate_emits_only_model_columns(spark, kiel_trips):
    """The fit computes exactly the columns the model keeps, in its order."""
    grid = HexGrid(9, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    nodes_df, edges_df = aggregate(to_spark(spark, kiel_trips.head(200)), grid)
    assert nodes_df.columns == list(NODE_COLUMNS)
    assert edges_df.columns == list(EDGE_COLUMNS)


def test_aggregate_plan_has_no_python_udf(spark, kiel_trips):
    """Cell assignment and grid distance run as native expressions: the
    aggregation plans hold no Python evaluation node."""
    grid = HexGrid(9, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    for df in aggregate(to_spark(spark, kiel_trips.head(200)), grid):
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Exchange" in plan  # the plan is the physical one
        for node in ("ArrowEvalPython", "BatchEvalPython", "PythonUDF"):
            assert node not in plan


def test_lag_cl_is_previous_cell_in_trip(kiel_cells):
    _, _, pdf = kiel_cells
    for _, g in pdf.sort_values("ts").groupby("trip_id"):
        cl = g["cl"].to_numpy()
        lag = g["lag_cl"].to_numpy()
        assert np.isnan(lag[0]) or lag[0] is None or pd.isna(lag[0])
        assert (lag[1:] == cl[:-1]).all()


def test_drop_small_trips(spark, kiel_trips):
    """Trips spanning < 3 distinct cells at a coarse resolution are dropped."""
    grid = HexGrid(4, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)  # ~22.6 km cells
    df = with_cells(to_spark(spark, kiel_trips), grid)
    kept = drop_small_trips(df)
    spans = kept.groupBy("trip_id").agg(F.count_distinct("cl").alias("n")).toPandas()
    assert (spans["n"] >= 3).all()


# --- oracle: the paper's CTE in DuckDB --------------------------------------

def test_cell_stats_match_duckdb_oracle(spark, kiel_cells):
    _, df, pdf = kiel_cells
    nodes = cell_stats(df, exact=True)
    assert_equivalent(
        nodes,
        """
        SELECT cl,
               count(*)             AS cnt,
               count(DISTINCT vessel_id) AS nves,
               median(lon)          AS mlon,
               median(lat)          AS mlat
        FROM pts GROUP BY cl
        """,
        pts=pdf,
    )


def test_edge_stats_match_duckdb_oracle(spark, kiel_cells):
    _, df, pdf = kiel_cells
    edges = edge_stats(df, exact=True).drop("gdist")
    assert_equivalent(
        edges,
        """
        WITH seq AS (
            SELECT trip_id, cl,
                   lag(cl) OVER (PARTITION BY trip_id ORDER BY ts) AS lag_cl
            FROM pts
        )
        SELECT lag_cl, cl, count(DISTINCT trip_id) AS transitions
        FROM seq
        WHERE lag_cl IS NOT NULL AND lag_cl <> cl
        GROUP BY lag_cl, cl
        """,
        pts=pdf.drop(columns=["lag_cl"]),
    )


def test_edge_gdist_matches_hex_math(kiel_cells):
    grid, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    expect = grid_distance(edges["lag_cl"].to_numpy(), edges["cl"].to_numpy())
    assert (edges["gdist"].to_numpy() == expect).all()


def test_approx_distinct_close_to_exact(spark, kiel_cells):
    """The paper's approx_count_distinct must track the exact counts."""
    _, df, _ = kiel_cells
    ex = cell_stats(df, exact=True).select("cl", "nves").toPandas().set_index("cl")
    ap = cell_stats(df, exact=False).select("cl", "nves").toPandas().set_index("cl")
    joined = ex.join(ap, lsuffix="_e", rsuffix="_a")
    rel = (joined["nves_a"] - joined["nves_e"]).abs() / joined["nves_e"]
    assert float(rel.mean()) < 0.1


# --- graph construction -----------------------------------------------------

def test_model_tables_roundtrip(spark, kiel_cells):
    """A model built from the collected tables gives them back: same rows
    and typed columns (int64 cell ids stay exact), edges grouped by source
    in node-table order, edge-table order within a source."""
    grid, df, _ = kiel_cells
    nodes_df, edges_df = cell_stats(df, exact=True), edge_stats(df, exact=True)
    nodes, edges = nodes_df.toPandas(), edges_df.toPandas()
    model = HabitModel(grid=grid, nodes=nodes, edges=edges)
    assert (model.n_nodes, model.n_edges) == (len(nodes), len(edges))
    got_n, got_e = model.nodes, model.edges
    pd.testing.assert_frame_equal(got_n, nodes[list(NODE_COLUMNS)].astype(NODE_COLUMNS))
    src = pd.Index(nodes["cl"]).get_indexer(edges["lag_cl"])
    want_e = edges.iloc[np.argsort(src, kind="stable")][list(EDGE_COLUMNS)]
    pd.testing.assert_frame_equal(got_e, want_e.astype(EDGE_COLUMNS).reset_index(drop=True))


def test_graph_edges_exclude_self_loops(spark, kiel_cells):
    _, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    assert (edges["lag_cl"] != edges["cl"]).all()


def test_graph_follows_route_adjacency(spark, kiel_cells):
    """Most transitions at r=8 connect nearby cells (smooth sailing)."""
    _, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    assert (edges["gdist"] <= 3).mean() > 0.9


def test_aggregate_convenience(spark, kiel_trips):
    grid = HexGrid(8, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    nodes_df, edges_df = aggregate(to_spark(spark, kiel_trips), grid)
    nodes, edges = nodes_df.toPandas(), edges_df.toPandas()
    assert len(nodes) > 50
    assert len(edges) > 50
    assert set(edges["cl"]).issubset(set(nodes["cl"]))
    assert set(edges["lag_cl"]).issubset(set(nodes["cl"]))


@pytest.mark.parametrize("res", [7, 8, 9])
def test_node_count_grows_with_resolution(spark, kiel_trips, res):
    grid = HexGrid(res, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    coarse = HexGrid(res - 1, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    fine_n = aggregate(to_spark(spark, kiel_trips), grid)[0].count()
    coarse_n = aggregate(to_spark(spark, kiel_trips), coarse)[0].count()
    assert fine_n > coarse_n


def test_median_uses_training_positions(spark, kiel_cells):
    """Median node position lies inside the cell (data-driven projection)."""
    grid, df, _ = kiel_cells
    nodes = cell_stats(df).toPandas()
    cell_of_median = grid.to_cell(nodes["mlon"].to_numpy(), nodes["mlat"].to_numpy())
    # medians of per-cell samples stay in (or immediately beside) their cell
    hops = grid_distance(cell_of_median, nodes["cl"].to_numpy())
    assert (hops <= 1).all()
