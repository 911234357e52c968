"""HABIT facade: fit on preprocessed trips, answer imputation queries.

``Habit.fit`` runs the distributed §3.2 aggregation and assembles the model;
``impute`` answers one gap query (A* + inverse projection + RDP, with
timestamps interpolated along the imputed path); ``impute_batch_spark``
distributes a whole gap table over the cluster with the configured
``Habit`` (its r, p, t and the model's two tables and grid parameters)
broadcast to executors once per fitted model, where each gap is answered
by the same ``impute`` as on the driver — the batch-inference path for the
Spark deployment.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.core.graphgen import aggregate
from repro.core.model import HabitModel, ImputedPath, check_projection
from repro.core.simplify import simplify_path
from repro.core.storage import storage_bytes
from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import HexGrid


def interpolate_ts(
    lon: np.ndarray, lat: np.ndarray, start_ts: pd.Timestamp, end_ts: pd.Timestamp
) -> np.ndarray:
    """Timestamps (``datetime64[ns]``) of a path's vertices, from
    ``start_ts`` at the first to ``end_ts`` at the last, spread in
    proportion to along-path (haversine) distance; evenly when the path has
    zero length. Offsets are whole milliseconds, which keeps Arrow's ns->us
    timestamp cast exact. Values are the instants' nanoseconds since the
    epoch, so a tz-aware ``start_ts`` gives UTC wall-clock times. Raises
    ``ValueError`` when ``end_ts`` is before ``start_ts``."""
    if end_ts < start_ts:
        raise ValueError(f"gap ends before it starts: end_ts {end_ts} < start_ts {start_ts}")
    seg = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    frac = cum / cum[-1] if cum[-1] > 0 else np.linspace(0.0, 1.0, lon.size)
    span = (end_ts - start_ts).total_seconds()
    # int64 ns; equal bit for bit to the pandas timedelta arithmetic
    # start_ts + pd.to_timedelta(round(frac * span, 3), "s") at under a third of
    # its cost (tests/test_habit_batch.py, spans up to 30 days)
    ms = np.rint(np.round(frac * span, 3) * 1000.0).astype(np.int64)
    return (start_ts.value + ms * 1_000_000).view("datetime64[ns]")


def _drop_zip_finders() -> None:
    """Drop every cached ``zipimport.zipimporter`` from
    ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task, and on CPython 3.11 ``zipimporter.invalidate_caches`` re-reads its
    archive's whole central directory at once (3.11.7 ``zipimport.py``:
    ``self._files = _read_directory(self.archive)``). A Spark 4.1 worker
    caches 16 of them (package directories inside pyspark.zip and the py4j
    zip, and two inside the Spark core jar): 110-240 ms of a task on a
    4-core host, where the rest of the task takes 30-90 ms. CPython 3.13.0
    only pops the archive from ``_zip_directory_cache`` and re-reads it on
    the next lookup. With the finders gone there is nothing to re-read; an
    import builds a fresh zipimporter from zipimport's directory cache.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]:
        del cache[path]


class Habit:
    """The configurable HABIT framework (parameters r, p, t of the paper)."""

    def __init__(self, *, res: int, p: str = "w", t: float = 100.0):
        check_projection(p)
        self.res = res
        self.p = p
        self.t = t
        self.model: HabitModel | None = None
        # (SparkContext, model, p, t, Broadcast) of the last batch run
        self._broadcast: tuple | None = None

    def __getstate__(self) -> dict:
        # the broadcast handle belongs to the driver's SparkContext
        return {**self.__dict__, "_broadcast": None}

    # -- construction -------------------------------------------------------
    def fit(self, trips_df: DataFrame, *, lat0: float, lon0: float) -> "Habit":
        """Aggregate preprocessed trips (Spark) and build the cell graph."""
        grid = HexGrid(self.res, lat0, lon0)
        nodes_df, edges_df = aggregate(trips_df, grid)
        self.model = HabitModel(grid=grid, nodes=nodes_df.toPandas(), edges=edges_df.toPandas())
        return self

    # -- inference ----------------------------------------------------------
    def impute(
        self,
        start_lon: float,
        start_lat: float,
        end_lon: float,
        end_lat: float,
    ) -> ImputedPath:
        """Impute one gap: graph path, inverse projection p, RDP tolerance t."""
        assert self.model is not None, "call fit() first"
        path = self.model.impute(start_lon, start_lat, end_lon, end_lat, p=self.p)
        lon, lat = simplify_path(path.lon, path.lat, self.t)
        return ImputedPath(lon=lon, lat=lat, fallback=path.fallback)

    def impute_with_ts(
        self,
        start_lon: float,
        start_lat: float,
        start_ts: pd.Timestamp,
        end_lon: float,
        end_lat: float,
        end_ts: pd.Timestamp,
    ) -> pd.DataFrame:
        """Imputed points with timestamps distributed by along-path distance."""
        res = self.impute(start_lon, start_lat, end_lon, end_lat)
        ts = pd.DatetimeIndex(interpolate_ts(res.lon, res.lat, start_ts, end_ts))
        if start_ts.tz is not None:
            ts = ts.tz_localize("UTC").tz_convert(start_ts.tz)
        return pd.DataFrame({"lon": res.lon, "lat": res.lat, "ts": ts, "fallback": res.fallback})

    def broadcast(self, spark: SparkSession) -> Broadcast:
        """This ``Habit`` broadcast to ``spark``'s executors, once per
        SparkContext, fitted model, p and t.

        A new key unpersists the previous broadcast rather than destroying
        it: a DataFrame returned earlier may still be unevaluated, and Spark
        re-sends an unpersisted broadcast when a job needs it again.
        """
        assert self.model is not None, "call fit() first"
        sc = spark.sparkContext
        held = self._broadcast
        if held is not None:
            held_sc, model, p, t, bc = held
            if held_sc is sc and model is self.model and (p, t) == (self.p, self.t):
                return bc
            if held_sc is sc:
                bc.unpersist()
        bc = sc.broadcast(self)
        self._broadcast = (sc, self.model, self.p, self.t, bc)
        return bc

    def impute_batch_spark(self, spark: SparkSession, gaps_df: DataFrame) -> DataFrame:
        """Distribute imputation over a gap table (schema of
        ``repro.ais.gaps.gaps_to_pandas``) with this ``Habit`` broadcast
        once per fitted model (:meth:`broadcast`).

        Returns one row per imputed point: gap_id, seq, lon, lat, ts. Each
        row is what :meth:`impute_with_ts` answers on the driver; an empty
        gap table gives no rows.
        """
        bc = self.broadcast(spark)

        def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            try:
                # bc.value is unpickled once per worker and broadcast
                yield from bc.value._impute_frames(batches)
            finally:
                _drop_zip_finders()  # so the worker's next task re-reads no zip archive

        schema = "gap_id string, seq long, lon double, lat double, ts timestamp"
        return gaps_df.mapInPandas(run, schema=schema)

    def _impute_frames(self, batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        """The rows of :meth:`impute_batch_spark`, one frame per input batch."""
        for pdf in batches:
            ids, lons, lats, tss = [], [], [], []
            for row in pdf.itertuples(index=False):
                res = self.impute(row.start_lon, row.start_lat, row.end_lon, row.end_lat)
                ids.append(row.gap_id)
                lons.append(res.lon)
                lats.append(res.lat)
                tss.append(interpolate_ts(res.lon, res.lat, row.start_ts, row.end_ts))
            if not ids:
                continue
            # each gap's points, seq 0.. within it
            sizes = np.fromiter(map(len, lons), dtype=np.int64, count=len(lons))
            first = np.repeat(np.cumsum(sizes) - sizes, sizes)
            yield pd.DataFrame(
                {
                    "gap_id": np.repeat(np.array(ids, dtype=object), sizes),
                    "seq": np.arange(first.size, dtype=np.int64) - first,
                    "lon": np.concatenate(lons),
                    "lat": np.concatenate(lats),
                    "ts": np.concatenate(tss),
                }
            )

    # -- introspection ------------------------------------------------------
    def storage_bytes(self) -> int:
        """Persisted model size (Table 2 metric)."""
        assert self.model is not None, "call fit() first"
        return storage_bytes(self.model)
