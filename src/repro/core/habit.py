"""HABIT facade: fit on preprocessed trips, answer imputation queries.

``Habit.fit`` runs the distributed §3.2 aggregation and assembles the model;
``impute`` answers one gap query (A* + inverse projection + RDP, with
timestamps interpolated along the imputed path); ``impute_batch_spark``
distributes a whole gap table over the cluster with the configured
``Habit`` (its r, p, t and the model's two tables and grid parameters)
broadcast to executors, where each gap is answered by the same ``impute``
as on the driver — the batch-inference path for the Spark deployment.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.graphgen import aggregate
from repro.core.model import HabitModel, ImputedPath
from repro.core.simplify import simplify_path
from repro.core.storage import storage_bytes
from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import HexGrid


def interpolate_ts(
    lon: np.ndarray, lat: np.ndarray, start_ts: pd.Timestamp, end_ts: pd.Timestamp
) -> pd.DatetimeIndex:
    """Timestamps of a path's vertices, from ``start_ts`` at the first to
    ``end_ts`` at the last, spread in proportion to along-path (haversine)
    distance; evenly when the path has zero length. Raises ``ValueError``
    when ``end_ts`` is before ``start_ts``."""
    if end_ts < start_ts:
        raise ValueError(f"gap ends before it starts: end_ts {end_ts} < start_ts {start_ts}")
    seg = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    frac = cum / cum[-1] if cum[-1] > 0 else np.linspace(0.0, 1.0, lon.size)
    span = (end_ts - start_ts).total_seconds()
    # millisecond precision: keeps Arrow's ns->us timestamp cast exact
    return start_ts + pd.to_timedelta(np.round(frac * span, 3), unit="s")


class Habit:
    """The configurable HABIT framework (parameters r, p, t of the paper)."""

    def __init__(self, *, res: int, p: str = "w", t: float = 100.0):
        self.res = res
        self.p = p
        self.t = t
        self.model: HabitModel | None = None

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
        ts = interpolate_ts(res.lon, res.lat, start_ts, end_ts)
        return pd.DataFrame({"lon": res.lon, "lat": res.lat, "ts": ts, "fallback": res.fallback})

    def impute_batch_spark(self, spark: SparkSession, gaps_df: DataFrame) -> DataFrame:
        """Distribute imputation over a gap table (schema of
        ``repro.ais.gaps.gaps_to_pandas``); this ``Habit`` is broadcast.

        Returns one row per imputed point: gap_id, seq, lon, lat, ts. Each
        row is what :meth:`impute_with_ts` answers on the driver.
        """
        assert self.model is not None, "call fit() first"
        bc = spark.sparkContext.broadcast(self)

        def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            habit: Habit = bc.value
            for pdf in batches:
                ids, lons, lats, tss = [], [], [], []
                for row in pdf.itertuples(index=False):
                    res = habit.impute(row.start_lon, row.start_lat, row.end_lon, row.end_lat)
                    ids.append(row.gap_id)
                    lons.append(res.lon)
                    lats.append(res.lat)
                    tss.append(interpolate_ts(res.lon, res.lat, row.start_ts, row.end_ts))
                if not ids:
                    continue
                # one frame per batch: each gap's points, seq 0.. within it
                sizes = np.fromiter(map(len, lons), dtype=np.int64, count=len(lons))
                first = np.repeat(np.cumsum(sizes) - sizes, sizes)
                yield pd.DataFrame(
                    {
                        "gap_id": np.repeat(np.array(ids, dtype=object), sizes),
                        "seq": np.arange(first.size, dtype=np.int64) - first,
                        "lon": np.concatenate(lons),
                        "lat": np.concatenate(lats),
                        "ts": tss[0].append(tss[1:]),
                    }
                )

        schema = "gap_id string, seq long, lon double, lat double, ts timestamp"
        return gaps_df.mapInPandas(run, schema=schema)

    # -- introspection ------------------------------------------------------
    def storage_bytes(self) -> int:
        """Persisted model size (Table 2 metric)."""
        assert self.model is not None, "call fit() first"
        return storage_bytes(self.model)
