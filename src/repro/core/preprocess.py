"""Phase 1 — data preprocessing & trip segmentation (paper §3.1), in Spark.

Raw AIS messages are cleaned (invalid coordinates, duplicate reports, spike
positions with impossible implied speeds) and each vessel's stream is split
into *trips*: maximal runs of moving positions delimited by

- a **stop**: the vessel's SOG drops below 0.5 kn (port call, anchorage), or
- a **communication gap**: no report for more than ΔT = 30 min.

Stationary points themselves are excluded from trips, as in the paper (a
trip is "the subsequence of AIS locations between two successive stops or
gaps"). Everything is expressed on the DataFrame/Catalyst API: the sequence
logic is window functions over ``(vessel_id, ts)``, so it scales out by
vessel partition.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.geo.geodesy import KNOT_MS
from repro.hexgrid.hex import R_EARTH

#: Paper parameters (§3.1): the stop speed and the communication gap that
#: end a trip, the speed limits of the noise filter, and the shortest trip.
STOP_KN = 0.5
GAP_MIN = 30.0
MAX_SOG_KN = 80.0
SPIKE_KN = 60.0
MIN_POINTS = 5


def haversine_m_col(lon1: Column, lat1: Column, lon2: Column, lat2: Column) -> Column:
    """Great-circle distance (meters) as a native Catalyst expression."""
    dlat = F.radians(lat2 - lat1)
    dlon = F.radians(lon2 - lon1)
    h = F.pow(F.sin(dlat / 2), 2) + F.cos(F.radians(lat1)) * F.cos(F.radians(lat2)) * F.pow(
        F.sin(dlon / 2), 2
    )
    return F.lit(2.0 * R_EARTH) * F.asin(F.sqrt(F.least(h, F.lit(1.0))))


def clean(df: DataFrame) -> DataFrame:
    """Noise filtering: invalid coordinates, SOG outside ``[0, MAX_SOG_KN]``,
    duplicates, positional spikes.

    A *spike* is a report whose implied speed both from the previous and to
    the next report of the same vessel exceeds ``SPIKE_KN`` — a single
    displaced position no real vessel motion explains.
    """
    df = df.filter(
        F.col("lon").between(-180.0, 180.0)
        & F.col("lat").between(-90.0, 90.0)
        & F.col("sog").isNotNull()
        & F.col("sog").between(0.0, MAX_SOG_KN)
        & F.col("ts").isNotNull()
    )
    df = df.dropDuplicates(["vessel_id", "ts"])

    w = Window.partitionBy("vessel_id").orderBy("ts")
    secs = F.unix_timestamp("ts").cast("double")

    def implied_kn(lon2, lat2, dt_s):
        dist = haversine_m_col(F.col("lon"), F.col("lat"), lon2, lat2)
        return dist / F.greatest(dt_s, F.lit(1.0)) / F.lit(KNOT_MS)

    df = (
        df.withColumn("_plon", F.lag("lon").over(w))
        .withColumn("_plat", F.lag("lat").over(w))
        .withColumn("_pdt", secs - F.lag(secs).over(w))
        .withColumn("_nlon", F.lead("lon").over(w))
        .withColumn("_nlat", F.lead("lat").over(w))
        .withColumn("_ndt", F.lead(secs).over(w) - secs)
    )
    spike = (
        F.col("_plon").isNotNull()
        & F.col("_nlon").isNotNull()
        & (implied_kn(F.col("_plon"), F.col("_plat"), F.col("_pdt")) > SPIKE_KN)
        & (implied_kn(F.col("_nlon"), F.col("_nlat"), F.col("_ndt")) > SPIKE_KN)
    )
    return df.filter(~spike).drop("_plon", "_plat", "_pdt", "_nlon", "_nlat", "_ndt")


def segment_trips(df: DataFrame) -> DataFrame:
    """Assign ``trip_id`` to moving positions; drop stationary ones.

    A new trip starts at the first moving position after a stop (any
    position with SOG < ``STOP_KN`` in between) or after a communication
    gap (> ``GAP_MIN`` minutes between consecutive moving positions).
    Trips with fewer than ``MIN_POINTS`` positions are dropped.
    """
    w = Window.partitionBy("vessel_id").orderBy("ts")
    cum = w.rowsBetween(Window.unboundedPreceding, Window.currentRow)
    secs = F.unix_timestamp("ts").cast("double")

    df = df.withColumn("_stopped", (F.col("sog") < STOP_KN).cast("int"))
    df = df.withColumn("_stop_cum", F.sum("_stopped").over(cum))
    moving = df.filter(F.col("_stopped") == 0)

    boundary = (
        F.lag("ts").over(w).isNull()
        | ((secs - F.lag(secs).over(w)) > GAP_MIN * 60.0)
        | (F.col("_stop_cum") > F.lag("_stop_cum").over(w))
    )
    moving = moving.withColumn("_new_trip", boundary.cast("int"))
    moving = moving.withColumn("_trip_seq", F.sum("_new_trip").over(cum))
    moving = moving.withColumn(
        "trip_id", F.concat_ws("#", F.col("vessel_id"), F.col("_trip_seq"))
    )
    # (vessel_id, _trip_seq) names the trip as trip_id does, and the rows
    # are already partitioned by vessel_id: no new shuffle
    counts = Window.partitionBy("vessel_id", "_trip_seq")
    moving = moving.withColumn("_n", F.count(F.lit(1)).over(counts))
    return moving.filter(F.col("_n") >= MIN_POINTS).drop(
        "_stopped", "_stop_cum", "_new_trip", "_trip_seq", "_n"
    )


def preprocess(df: DataFrame) -> DataFrame:
    """Full phase 1: :func:`clean` then :func:`segment_trips`."""
    return segment_trips(clean(df))
