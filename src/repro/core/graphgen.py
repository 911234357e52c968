"""Phase 2 — graph generation (paper §3.2), in Spark.

The paper expresses this phase as a DuckDB CTE; here the identical semantics
run on the DataFrame/Catalyst API (the repro target is distributed dataflow
— partition by hex cell, aggregate historical motion patterns), and the
DuckDB formulation is retained as the *correctness oracle* in the tests.

Pipeline, exactly as §3.2 steps (1)–(4):

1. trip data in, grid resolution ``r`` chosen;
2. messages grouped by ``trip_id`` (windowed by trip);
3. each message assigned its hex cell ``cl`` and the preceding cell
   ``lag_cl`` along the trip sequence;
4. two aggregations — per cell ``cl`` (count, distinct vessels, median
   lon/lat/sog/cog) and per transition ``(lag_cl, cl)`` (distinct trips,
   hex grid distance).

Trips falling within at most two adjacent cells at resolution ``r`` carry no
transition information and are excluded (§3.1, last paragraph).

``exact=True`` swaps ``approx_count_distinct`` (the paper's choice, HLL) for
exact ``count_distinct`` so results are engine-comparable in oracle tests.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.hexgrid.hex import HexGrid
from repro.hexgrid.udfs import grid_distance_udf, to_cell_udf


def with_cells(df: DataFrame, grid: HexGrid) -> DataFrame:
    """Assign ``cl`` and per-trip predecessor ``lag_cl`` to each message."""
    cell = to_cell_udf(grid.res, grid.lat0, grid.lon0)
    df = df.withColumn("cl", cell(F.col("lon"), F.col("lat")))
    w = Window.partitionBy("trip_id").orderBy("ts")
    return df.withColumn("lag_cl", F.lag("cl").over(w))


def drop_small_trips(df: DataFrame, *, min_cells: int = 3) -> DataFrame:
    """Drop trips spanning fewer than ``min_cells`` distinct cells."""
    span = df.groupBy("trip_id").agg(F.count_distinct("cl").alias("_ncells"))
    return (
        df.join(span.filter(F.col("_ncells") >= min_cells), "trip_id", "inner")
        .drop("_ncells")
    )


def cell_stats(df: DataFrame, *, exact: bool = False) -> DataFrame:
    """Per-cell aggregates: the graph's node attributes."""
    nves = (F.count_distinct if exact else F.approx_count_distinct)("vessel_id")
    return df.groupBy("cl").agg(
        F.count(F.lit(1)).alias("cnt"),
        nves.alias("nves"),
        F.median("lon").alias("mlon"),
        F.median("lat").alias("mlat"),
        F.median("sog").alias("msog"),
        F.median("cog").alias("mcog"),
    )


def edge_stats(df: DataFrame, *, exact: bool = False) -> DataFrame:
    """Per-transition aggregates: the graph's weighted edges.

    Only genuine transitions (``lag_cl`` present and different from ``cl``)
    form edges, as in the paper's construction.
    """
    ntrips = (F.count_distinct if exact else F.approx_count_distinct)("trip_id")
    edges = (
        df.filter(F.col("lag_cl").isNotNull() & (F.col("lag_cl") != F.col("cl")))
        .groupBy("lag_cl", "cl")
        .agg(ntrips.alias("transitions"))
    )
    return edges.withColumn("gdist", grid_distance_udf()(F.col("lag_cl"), F.col("cl")))


def aggregate(
    trips_df: DataFrame,
    grid: HexGrid,
    *,
    exact: bool = False,
    min_cells: int = 3,
) -> tuple[DataFrame, DataFrame]:
    """Run the full §3.2 aggregation; returns (nodes_df, edges_df)."""
    df = drop_small_trips(with_cells(trips_df, grid), min_cells=min_cells)
    return cell_stats(df, exact=exact), edge_stats(df, exact=exact)

