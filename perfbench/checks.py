"""Correctness checks run outside the timed region.

Each function returns a list of problems (empty when the output is right);
the caller counts every problem against the operation that produced it.

- fit: the model's cell and edge keys, ``cnt`` and median positions equal a
  DuckDB CTE over the same training rows, with cells from the numpy
  ``HexGrid`` (the §3.2 aggregation written independently of Spark);
- query: endpoints are preserved, a fallback happens exactly when NetworkX
  finds no path over the persisted edge table, and a re-derived cell path is
  a walk over that table whose length equals ``nx.shortest_path_length``;
- batch: every gap comes back, and the rows of each sampled gap equal the
  driver's ``Habit.impute_with_ts``.
"""
from __future__ import annotations

import duckdb
import networkx as nx
import numpy as np
import pandas as pd

CTE_SQL = """
WITH seq AS (
    SELECT trip_id, cl, lon, lat,
           lag(cl) OVER (PARTITION BY trip_id ORDER BY ts) AS lag_cl
    FROM pts
),
kept AS (
    SELECT * FROM seq
    WHERE trip_id IN (
        SELECT trip_id FROM seq GROUP BY trip_id HAVING count(DISTINCT cl) >= 3
    )
)
SELECT {select} FROM kept {where} GROUP BY {group}
"""


def _oracle(pts: pd.DataFrame, select: str, group: str, where: str = "") -> pd.DataFrame:
    con = duckdb.connect()
    try:
        con.register("pts", pts)
        sql = CTE_SQL.format(select=select, group=group, where=where)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def fit_problems(train: pd.DataFrame, model, nodes: pd.DataFrame, edges: pd.DataFrame) -> list[str]:
    """Compare persisted node/edge tables with the DuckDB CTE."""
    pts = train[["trip_id", "ts", "lon", "lat"]].copy()
    pts["cl"] = model.grid.to_cell(pts["lon"].to_numpy(), pts["lat"].to_numpy())
    want_n = _oracle(
        pts, "cl, count(*) AS cnt, median(lon) AS mlon, median(lat) AS mlat", "cl"
    ).set_index("cl").sort_index()
    want_e = _oracle(
        pts, "lag_cl, cl", "lag_cl, cl", "WHERE lag_cl IS NOT NULL AND lag_cl <> cl"
    )
    got_n = nodes.set_index("cl").sort_index()
    problems = []
    if not got_n.index.equals(want_n.index):
        problems.append(f"node keys differ: {len(got_n)} vs oracle {len(want_n)}")
        return problems
    if not (got_n["cnt"].to_numpy() == want_n["cnt"].to_numpy()).all():
        problems.append("node cnt differs from oracle")
    for c in ("mlon", "mlat"):
        if not np.allclose(got_n[c].to_numpy(), want_n[c].to_numpy(), rtol=0.0, atol=1e-9):
            problems.append(f"node {c} differs from oracle")
    got_keys = set(zip(edges["lag_cl"].tolist(), edges["cl"].tolist()))
    want_keys = set(zip(want_e["lag_cl"].tolist(), want_e["cl"].tolist()))
    if got_keys != want_keys:
        problems.append(f"edge keys differ: {len(got_keys)} vs oracle {len(want_keys)}")
    return problems


def edge_graph(nodes: pd.DataFrame, edges: pd.DataFrame) -> nx.DiGraph:
    """Reference digraph over the persisted tables."""
    g = nx.DiGraph()
    g.add_nodes_from(nodes["cl"].tolist())
    g.add_edges_from(zip(edges["lag_cl"].tolist(), edges["cl"].tolist()))
    return g


def _hops(g: nx.DiGraph, s: int, e: int) -> int | None:
    try:
        return nx.shortest_path_length(g, s, e)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def query_problems(model, g: nx.DiGraph, gap, result, *, walk: bool) -> list[str]:
    """Check one driver answer; with ``walk`` also re-derive its cell path."""
    problems = []
    if (result.lon[0], result.lat[0]) != (gap.start_lon, gap.start_lat) or (
        result.lon[-1], result.lat[-1]
    ) != (gap.end_lon, gap.end_lat):
        problems.append(f"{gap.gap_id}: endpoints not preserved")
    s = model.snap(gap.start_lon, gap.start_lat)
    e = model.snap(gap.end_lon, gap.end_lat)
    hops = _hops(g, s, e)
    if result.fallback != (hops is None):
        problems.append(f"{gap.gap_id}: fallback={result.fallback} but NetworkX hops={hops}")
    if walk:
        cells = model.cell_path(s, e)
        if (cells is None) != (hops is None):
            problems.append(f"{gap.gap_id}: cell_path={cells is not None}, NetworkX hops={hops}")
        elif cells is not None:
            if cells[0] != s or cells[-1] != e or len(cells) - 1 != hops:
                problems.append(f"{gap.gap_id}: path of {len(cells) - 1} hops, shortest is {hops}")
            if not all(g.has_edge(u, v) for u, v in zip(cells[:-1], cells[1:])):
                problems.append(f"{gap.gap_id}: path is not a walk over the edge table")
    return problems


def batch_refs(habit, sample: list) -> dict[str, pd.DataFrame]:
    """Driver answers (``Habit.impute_with_ts``) for the sampled gaps."""
    return {
        g.gap_id: habit.impute_with_ts(
            g.start_lon, g.start_lat, g.start_ts, g.end_lon, g.end_lat, g.end_ts
        )
        for g in sample
    }


def batch_problems(gap_ids: set[str], out: pd.DataFrame, refs: dict[str, pd.DataFrame]) -> list[str]:
    """Compare one batch output with the driver answers in ``refs``."""
    problems = []
    by_gap = dict(tuple(out.groupby("gap_id", sort=False)))
    missing = gap_ids - set(by_gap)
    if missing:
        problems.append(f"{len(missing)} gaps missing from batch output")
    for gap_id, ref in refs.items():
        got = by_gap.get(gap_id)
        if got is None:
            continue
        got = got.sort_values("seq")
        same = (
            len(got) == len(ref)
            and (got["seq"].to_numpy() == np.arange(len(ref))).all()
            and np.array_equal(got["lon"].to_numpy(), ref["lon"].to_numpy())
            and np.array_equal(got["lat"].to_numpy(), ref["lat"].to_numpy())
            and (
                got["ts"].astype("datetime64[ns]").to_numpy()
                == ref["ts"].astype("datetime64[ns]").to_numpy()
            ).all()
        )
        if not same:
            problems.append(f"{gap_id}: batch rows differ from driver impute_with_ts")
    return problems
