"""GTI — graph-based trajectory imputation baseline (Isufaj et al., 2023).

Re-implemented from the description in the HABIT paper (§2, §4.1): GTI is a
network-agnostic method that creates a connected directed graph from the raw
sparse trajectories and imputes a gap as the shortest path (Dijkstra)
between its endpoints. Two distance parameters govern graph creation — ``rm``
(radius in meters) and ``rd`` (radius in degrees) — filtering candidate
edges between points.

Construction (Spark, distributed):

1. trips are resampled to at most one point per ``resample_s`` seconds —
   the paper did the same to DAN (1–5 min) to keep GTI buildable;
2. every resampled point is a graph node;
3. *sequence edges* connect consecutive points of the same trip;
4. *candidate edges* connect any two points within ``rd`` degrees
   (Chebyshev on lon/lat) **and** ``rm`` meters — realized as a bucketed
   spatial self-join. Points from repeated passes over a shared lane are
   dense, so candidate-edge count — hence model size and query cost — grows
   steeply with ``rd``, reproducing the paper's Table 2/4 scaling.

Inference is shortest-*distance* path via Dijkstra (the algorithm the GTI
paper uses) over a CSR adjacency in numpy, with early exit once the target
is settled. Dijkstra's goal-agnostic frontier over the large point graph is
what makes GTI queries slower than HABIT's A* over its small cell graph —
the latency relationship the paper's Table 4 measures.
"""
from __future__ import annotations

from heapq import heappop, heappush

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.model import ImputedPath, csr, straight_line
from repro.core.preprocess import haversine_m_col
from repro.core.storage import parquet_bytes
from repro.geo.geodesy import local_xy


class GTI:
    """The GTI baseline with the paper's (rm, rd) parameterization."""

    def __init__(self, *, rm_m: float = 250.0, rd_deg: float = 1e-4, resample_s: float = 60.0):
        self.rm_m = rm_m
        self.rd_deg = rd_deg
        self.resample_s = resample_s
        self.nodes_pdf: pd.DataFrame | None = None
        self.edges_pdf: pd.DataFrame | None = None

    # -- construction -------------------------------------------------------
    def fit(self, trips_df: DataFrame, *, lat0: float, lon0: float) -> "GTI":
        """Build the point graph from preprocessed trips (Spark)."""
        self._lat0, self._lon0 = lat0, lon0

        # (1) resample: first report per trip per time bucket.
        w_bucket = Window.partitionBy(
            "trip_id", F.floor(F.unix_timestamp("ts") / F.lit(self.resample_s))
        ).orderBy("ts")
        pts = (
            trips_df.withColumn("_rn", F.row_number().over(w_bucket))
            .filter(F.col("_rn") == 1)
            .select(
                F.xxhash64("trip_id", F.col("ts").cast("string")).alias("node_id"),
                "trip_id",
                "ts",
                "lon",
                "lat",
            )
        )

        nodes = pts.select("node_id", "lon", "lat")

        # (3) sequence edges along each trip.
        w_trip = Window.partitionBy("trip_id").orderBy("ts")
        seq = (
            pts.withColumn("_prev", F.lag("node_id").over(w_trip))
            .filter(F.col("_prev").isNotNull())
            .select(F.col("_prev").alias("a"), F.col("node_id").alias("b"))
        )

        # (4) candidate edges: bucketed self-join at rd degrees, capped at rm.
        rd = self.rd_deg
        lhs = nodes.select(
            F.col("node_id").alias("a"),
            F.col("lon").alias("lon_a"),
            F.col("lat").alias("lat_a"),
            F.floor(F.col("lon") / F.lit(rd)).alias("bx"),
            F.floor(F.col("lat") / F.lit(rd)).alias("by"),
        )
        offsets = F.array([F.lit(i) for i in (-1, 0, 1)])
        rhs = (
            nodes.select(
                F.col("node_id").alias("b"),
                F.col("lon").alias("lon_b"),
                F.col("lat").alias("lat_b"),
                F.floor(F.col("lon") / F.lit(rd)).alias("bx0"),
                F.floor(F.col("lat") / F.lit(rd)).alias("by0"),
            )
            .withColumn("dx", F.explode(offsets))
            .withColumn("dy", F.explode(offsets))
            .select(
                "b",
                "lon_b",
                "lat_b",
                (F.col("bx0") + F.col("dx")).alias("bx"),
                (F.col("by0") + F.col("dy")).alias("by"),
            )
        )
        cand = (
            lhs.join(rhs, ["bx", "by"])
            .filter(
                (F.col("a") < F.col("b"))
                & (F.abs(F.col("lon_a") - F.col("lon_b")) <= rd)
                & (F.abs(F.col("lat_a") - F.col("lat_b")) <= rd)
                & (
                    haversine_m_col(F.col("lon_a"), F.col("lat_a"), F.col("lon_b"), F.col("lat_b"))
                    <= self.rm_m
                )
            )
            .select("a", "b")
        )

        edges = seq.unionByName(cand).distinct()
        self.nodes_pdf = (
            nodes.toPandas().drop_duplicates("node_id").sort_values("node_id").reset_index(drop=True)
        )
        self.edges_pdf = edges.toPandas()
        self._build_csr()
        return self

    def _build_csr(self) -> None:
        """Index nodes; undirected CSR adjacency with metric edge weights."""
        nodes = self.nodes_pdf
        ids = nodes["node_id"].to_numpy()
        idx = pd.Series(np.arange(ids.size), index=ids)
        self._lon = nodes["lon"].to_numpy()
        self._lat = nodes["lat"].to_numpy()
        self._x, self._y = local_xy(self._lon, self._lat, self._lon0, self._lat0)
        if len(self.edges_pdf):
            a = idx[self.edges_pdf["a"].to_numpy()].to_numpy()
            b = idx[self.edges_pdf["b"].to_numpy()].to_numpy()
        else:
            a = b = np.array([], dtype=np.int64)
        u = np.concatenate([a, b]).astype(np.int64)
        v = np.concatenate([b, a]).astype(np.int64)
        self._indptr, order = csr(ids.size, u, v)
        u, v = u[order], v[order]
        self._nbr = v
        self._w = np.hypot(self._x[u] - self._x[v], self._y[u] - self._y[v])

    # -- inference ----------------------------------------------------------
    def _snap(self, lon: float, lat: float) -> int:
        x, y = local_xy(lon, lat, self._lon0, self._lat0)
        return int(np.argmin((self._x - x) ** 2 + (self._y - y) ** 2))

    def _dijkstra(self, s: int, t: int) -> list[int] | None:
        """Shortest metric path s -> t (Dijkstra, early exit at the target;
        neighbor relaxation vectorized)."""
        n = self._x.size
        dist = np.full(n, np.inf)
        parent = np.full(n, -1, dtype=np.int64)
        dist[s] = 0.0
        pq: list[tuple[float, int]] = [(0.0, s)]
        done = np.zeros(n, dtype=bool)
        while pq:
            _, u = heappop(pq)
            if u == t:
                path = [t]
                while path[-1] != s:
                    path.append(int(parent[path[-1]]))
                return path[::-1]
            if done[u]:
                continue
            done[u] = True
            lo, hi = self._indptr[u], self._indptr[u + 1]
            if lo == hi:
                continue
            vs = self._nbr[lo:hi]
            nd = dist[u] + self._w[lo:hi]
            improved = nd < dist[vs]
            if not improved.any():
                continue
            vi = vs[improved]
            ndi = nd[improved]
            dist[vi] = ndi
            parent[vi] = u
            for p, vv in zip(ndi, vi):
                heappush(pq, (float(p), int(vv)))
        return None

    def impute(self, start_lon: float, start_lat: float, end_lon: float, end_lat: float) -> ImputedPath:
        """Shortest-path imputation between the gap endpoints."""
        assert self.nodes_pdf is not None, "call fit() first"
        s, t = self._snap(start_lon, start_lat), self._snap(end_lon, end_lat)
        path = self._dijkstra(s, t)
        if path is None:
            return straight_line(start_lon, start_lat, end_lon, end_lat, fallback=True)
        lon = np.concatenate([[start_lon], self._lon[path], [end_lon]])
        lat = np.concatenate([[start_lat], self._lat[path], [end_lat]])
        return ImputedPath(lon=lon, lat=lat, fallback=False)

    # -- introspection ------------------------------------------------------
    def storage_bytes(self) -> int:
        """Persisted model size: node + edge parquet bytes (Table 2 metric)."""
        assert self.nodes_pdf is not None, "call fit() first"
        return parquet_bytes(self.nodes_pdf) + parquet_bytes(self.edges_pdf)

    @property
    def n_nodes(self) -> int:
        return 0 if self.nodes_pdf is None else len(self.nodes_pdf)

    @property
    def n_edges(self) -> int:
        return 0 if self.edges_pdf is None else len(self.edges_pdf)
