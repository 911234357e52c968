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
   lon/lat) and per transition ``(lag_cl, cl)`` (distinct trips, hex grid
   distance). These are exactly the columns the model keeps; the paper's
   sog/cog medians are not computed, since no query reads them.

Trips falling within fewer than ``MIN_CELLS`` cells at resolution ``r``
carry no transition information and are excluded (§3.1, last paragraph).

``cell_stats``/``edge_stats(exact=True)`` swap ``approx_count_distinct``
(the paper's choice, HLL) for exact ``count_distinct``: the reference mode
the DuckDB oracle tests compare against.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.hexgrid.hex import QR_BIAS, QR_MASK, HexGrid

#: Paper parameter (§3.1): trips within at most two adjacent cells are dropped.
MIN_CELLS = 3


def cell_col(grid: HexGrid, lon: Column, lat: Column) -> Column:
    """:meth:`HexGrid.to_cell` as a native Catalyst expression: the same
    constants and the same double operations in the same order, ``rint``
    for rounding (half to even, as ``np.round``), so ids are identical."""
    kx, ky, c, a = grid.axial_consts
    x = (lon - F.lit(grid.lon0)) * F.lit(kx)
    y = (lat - F.lit(grid.lat0)) * F.lit(ky)
    qf = (F.lit(c) * x - y / F.lit(3.0)) / F.lit(a)
    rf = (F.lit(2.0 / 3.0) * y) / F.lit(a)
    sf = -qf - rf
    q, r, s = F.rint(qf), F.rint(rf), F.rint(sf)
    dq, dr, ds = F.abs(q - qf), F.abs(r - rf), F.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    qi = F.when(fix_q, -r - s).otherwise(q).cast("long")
    ri = F.when(fix_r, -q - s).otherwise(r).cast("long")
    cell = (
        F.lit(grid.res << 58)
        .bitwiseOR(F.shiftleft(qi + F.lit(QR_BIAS), 29))
        .bitwiseOR(ri + F.lit(QR_BIAS))
    )
    out_of_range = (F.abs(qi) >= F.lit(QR_BIAS)) | (F.abs(ri) >= F.lit(QR_BIAS))
    error = F.raise_error(F.lit("axial coordinate out of packable range"))
    return F.when(out_of_range, error).otherwise(cell)


def grid_distance_col(a: Column, b: Column) -> Column:
    """Hex hop distance between two cell-id columns (same resolution), as
    :func:`repro.hexgrid.hex.grid_distance` computes it."""
    mask = F.lit(QR_MASK)
    dq = F.shiftright(a, 29).bitwiseAND(mask) - F.shiftright(b, 29).bitwiseAND(mask)
    dr = a.bitwiseAND(mask) - b.bitwiseAND(mask)
    return F.shiftright(F.abs(dq) + F.abs(dr) + F.abs(dq + dr), 1)


def with_cells(df: DataFrame, grid: HexGrid) -> DataFrame:
    """Assign ``cl`` and per-trip predecessor ``lag_cl`` to each message."""
    df = df.withColumn("cl", cell_col(grid, F.col("lon"), F.col("lat")))
    w = Window.partitionBy("trip_id").orderBy("ts")
    return df.withColumn("lag_cl", F.lag("cl").over(w))


def drop_small_trips(df: DataFrame) -> DataFrame:
    """Drop trips spanning fewer than ``MIN_CELLS`` distinct cells."""
    ncells = F.size(F.collect_set("cl").over(Window.partitionBy("trip_id")))
    return df.withColumn("_ncells", ncells).filter(F.col("_ncells") >= MIN_CELLS).drop("_ncells")


def cell_stats(df: DataFrame, *, exact: bool = False) -> DataFrame:
    """Per-cell aggregates: the graph's node attributes."""
    nves = (F.count_distinct if exact else F.approx_count_distinct)("vessel_id")
    return df.groupBy("cl").agg(
        F.count(F.lit(1)).alias("cnt"),
        nves.alias("nves"),
        F.median("lon").alias("mlon"),
        F.median("lat").alias("mlat"),
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
    return edges.withColumn("gdist", grid_distance_col(F.col("lag_cl"), F.col("cl")))


def aggregate(trips_df: DataFrame, grid: HexGrid) -> tuple[DataFrame, DataFrame]:
    """Run the full §3.2 aggregation; returns (nodes_df, edges_df)."""
    df = drop_small_trips(with_cells(trips_df, grid))
    return cell_stats(df), edge_stats(df)

