"""Phase 3 — trajectory imputation (paper §3.3).

A :class:`HabitModel` holds the fitted node and edge tables plus their grid
parameters and answers imputation queries:

1. project gap endpoints to hex cells; if a cell is not a graph node,
   nearest-neighbor snap to the closest node (by projected distance to the
   nodes' median positions);
2. the paper's A* path, minimizing the number of transitions: a
   bidirectional breadth-first search finds the nodes that lie on some
   shortest path, with their distance from the start, and decides whether
   any path exists; on those nodes the A* reduces to a walk one distance
   level at a time, each level taken in order of hex distance to the
   target;
3. inverse projection of the cell path to coordinates — parameter
   ``p='c'`` uses geometric cell centers, ``p='w'`` the data-driven per-cell
   median position (the paper's information-loss mitigation, Figure 2);
4. if the endpoints are not connected in the graph, fall back to the
   straight line (flagged in the result).

The graph is held as arrays derived from the tables: a cell -> row index
map, per-node positions and axial coordinates, and each row's successor and
predecessor rows (laid out through CSR, compressed sparse row, adjacencies).
None of them is stored: pickling and persistence carry the tables only.
Queries run on plain Python numbers, one point or one path at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import HexGrid, unpack

#: Columns and dtypes of a model's node table (one row per cell).
NODE_COLUMNS = {"cl": "int64", "cnt": "int64", "nves": "int64", "mlon": "float64", "mlat": "float64"}
#: Columns and dtypes of a model's edge table (one row per transition).
EDGE_COLUMNS = {"lag_cl": "int64", "cl": "int64", "transitions": "int64", "gdist": "int64"}


def csr(n: int, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """CSR layout of the directed edges ``src[i] -> dst[i]`` over nodes
    ``0..n-1``: returns ``(indptr, order)``, where ``order`` sorts the edges
    by source, stably (each node's successors keep their input order), and
    the successors of node ``u`` are ``dst[order][indptr[u]:indptr[u + 1]]``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst differ in length")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"edge endpoint outside nodes 0..{n - 1}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, np.argsort(src, kind="stable")


def shortest_path_rows(
    succ: list[tuple[int, ...]], pred: list[tuple[int, ...]], s: int, t: int
) -> dict[int, int] | None:
    """The nodes that lie on some shortest path from ``s`` to ``t``, counting
    one per edge, each mapped to its distance from ``s``, in the graph whose
    node ``u`` has the successors ``succ[u]`` and the predecessors
    ``pred[u]``; None when no path leads from ``s`` to ``t``.

    A bidirectional breadth-first search (Pohl, Machine Intelligence 6,
    1971): each round expands one full level of the smaller frontier, the
    forward one from ``s`` over ``succ`` or the backward one from ``t`` over
    ``pred``. When a round adds no node, that ball holds every node ``s``
    reaches (or every node that reaches ``t``) without meeting the other,
    so no path exists. Otherwise the balls first meet in a level in which
    every met node is ``D`` edges from ``s`` to ``t`` through it, ``D``
    being the shortest distance, and the full level holds every node of a
    shortest path at its depth. The walks from them back to ``s`` through
    nodes one forward level nearer, and on to ``t`` through nodes one
    backward level nearer, collect the rest: a node on the way to ``s``
    keeps its forward distance, and a node on the way to ``t`` lies ``D``
    minus its backward distance from ``s``. The state grows with the nodes
    visited, not with the graph.
    """
    if s == t:
        return {s: 0}
    fronts = [[s], [t]]  # forward, backward
    dists = ({s: 0}, {t: 0})  # hops from s, hops to t
    adjs = (succ, pred)
    met: list[int] = []
    while not met:
        side = len(fronts[0]) > len(fronts[1])
        front, adj, mine, other = fronts[side], adjs[side], dists[side], dists[not side]
        d = mine[front[0]] + 1
        grown = []
        for u in front:
            for v in adj[u]:
                if v in mine:
                    continue
                mine[v] = d
                grown.append(v)
                if v in other:
                    met.append(v)
        if not grown:  # one ball is complete without meeting the other
            return None
        fronts[side] = grown
    fwd, bwd = dists
    depth = fwd[met[0]] + bwd[met[0]]
    level = {v: fwd[v] for v in met}
    for adj, dist, sign, offset in ((pred, fwd, 1, 0), (succ, bwd, -1, depth)):
        stack = list(met)
        while stack:
            u = stack.pop()
            d = dist[u] - 1
            for v in adj[u]:
                if dist.get(v) == d and v not in level:
                    level[v] = offset + sign * d
                    stack.append(v)
    return level


def _adjacency(indptr: np.ndarray, nbr: np.ndarray) -> list[tuple[int, ...]]:
    """Each node's neighbours ``nbr[indptr[u]:indptr[u + 1]]`` as a tuple."""
    bounds = indptr.tolist()
    nbr = nbr.tolist()
    return [tuple(nbr[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _table(df: pd.DataFrame, columns: dict[str, str]) -> pd.DataFrame:
    """``df`` reduced to ``columns`` (name -> dtype), in that order; an empty
    frame may lack the columns altogether."""
    if len(df) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in columns.items()})
    return df[list(columns)].astype(columns).reset_index(drop=True)


@dataclass
class ImputedPath:
    """Result of one imputation query: coordinates incl. both endpoints."""

    lon: np.ndarray
    lat: np.ndarray
    fallback: bool  # True when the graph gave no path and SLI was used


def check_projection(p: str) -> None:
    """Raise ``ValueError`` unless ``p`` names an inverse projection: 'c'
    (geometric cell centers) or 'w' (per-cell median positions)."""
    if p not in ("c", "w"):
        raise ValueError(f"unknown projection option {p!r} (use 'c' or 'w')")


def straight_line(
    start_lon: float, start_lat: float, end_lon: float, end_lat: float, *, fallback: bool
) -> ImputedPath:
    """The two-point path from the start to the end of a gap (SLI)."""
    return ImputedPath(
        lon=np.array([start_lon, end_lon], dtype=np.float64),
        lat=np.array([start_lat, end_lat], dtype=np.float64),
        fallback=fallback,
    )


class HabitModel:
    """Fitted HABIT framework: hex grid + weighted cell-transition graph.

    ``nodes`` has the :data:`NODE_COLUMNS`, one row per cell; ``edges`` has
    the :data:`EDGE_COLUMNS`, one row per transition, and is held ordered by
    source in node-table order (edge-table order within a source), the
    order in which the path search tries successors. Every edge endpoint
    must be a node. The successor and predecessor rows are rebuilt from the
    tables, never stored; the search does not read ``gdist``.
    """

    def __init__(self, grid: HexGrid, nodes: pd.DataFrame, edges: pd.DataFrame):
        self.grid = grid
        self.nodes = _table(nodes, NODE_COLUMNS)
        edges = _table(edges, EDGE_COLUMNS)
        cells = self.nodes["cl"].to_numpy()
        self._cells: list[int] = cells.tolist()
        self._index = dict(zip(self._cells, range(cells.size)))
        if len(self._index) != cells.size:
            raise ValueError("node table repeats a cell")
        ix = pd.Index(cells)
        src = ix.get_indexer(edges["lag_cl"].to_numpy())
        dst = ix.get_indexer(edges["cl"].to_numpy())
        if (src < 0).any() or (dst < 0).any():
            raise ValueError("edge endpoint missing from the node table")
        indptr, order = csr(cells.size, src, dst)
        self.edges = edges.take(order).reset_index(drop=True)
        src, dst = src[order], dst[order]
        # successors and predecessors of each row, in held edge order
        self._succ: list[tuple[int, ...]] = _adjacency(indptr, dst)
        pindptr, porder = csr(cells.size, dst, src)
        self._pred: list[tuple[int, ...]] = _adjacency(pindptr, src[porder])
        self._mlon = self.nodes["mlon"].to_numpy()
        self._mlat = self.nodes["mlat"].to_numpy()
        self._x, self._y = grid.project(self._mlon, self._mlat)
        _, q, r = unpack(cells)
        self._q: list[int] = q.tolist()
        self._r: list[int] = r.tolist()

    def __reduce__(self):
        # Pickle (broadcast) the tables only; the arrays are rebuilt on load.
        return HabitModel, (self.grid, self.nodes, self.edges)

    # -- queries ------------------------------------------------------------
    def snap(self, lon: float, lat: float) -> int:
        """Graph node for a point: its own cell, else the nearest node.

        Raises ``ValueError`` for a non-finite coordinate or an empty model.
        """
        cell, x, y = self.grid.locate(lon, lat)
        if cell in self._index:
            return cell
        if not self._cells:
            raise ValueError("empty model: no graph nodes")
        i = int(np.argmin((self._x - x) ** 2 + (self._y - y) ** 2))
        return self._cells[i]

    def cell_path(self, s_node: int, e_node: int) -> list[int] | None:
        """Minimum-transition cell sequence from ``s_node`` to ``e_node``;
        None when no directed path exists.

        A walk over the rows :func:`shortest_path_rows` returns, one level
        (distance from the start) at a time. Each row of the next level is
        reached from the first row of the current level that has it as a
        successor, in held edge order; the current level is ordered by hex
        distance to the target, equal distances keeping the order in which
        their rows were reached. The path is the one ``networkx.astar_path``
        returns with unit edge cost and the hex distance divided by the
        longest transition's span as heuristic: that heuristic changes by at
        most 1 per edge, so the A* pops a level's rows in this order, and
        each row's parent is its first-popped predecessor one level nearer.
        """
        s = self._index.get(s_node)
        t = self._index.get(e_node)
        if s is None or t is None:
            return None
        level = shortest_path_rows(self._succ, self._pred, s, t)
        if level is None:
            return None
        succ, q, r = self._succ, self._q, self._r
        tq, tr = q[t], r[t]

        def to_target(v: int) -> int:
            dq = q[v] - tq
            dr = r[v] - tr
            return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

        parent: dict[int, int | None] = {s: None}
        order = [s]
        for d in range(1, level[t] + 1):
            reached = []
            for u in order:
                for v in succ[u]:
                    if level.get(v) == d and v not in parent:
                        parent[v] = u
                        reached.append(v)
            order = sorted(reached, key=to_target)  # stable: ties keep reach order
        path = [t]
        while (u := parent[path[-1]]) is not None:
            path.append(u)
        return [self._cells[i] for i in reversed(path)]

    def project_cells(self, cells: list[int], p: str = "w") -> tuple[np.ndarray, np.ndarray]:
        """Inverse projection of a cell sequence to lon/lat (§3.3, Fig. 2)."""
        check_projection(p)
        if p == "c":
            return self.grid.cell_center(np.asarray(cells, dtype=np.int64))
        rows = np.fromiter(map(self._index.__getitem__, cells), dtype=np.intp, count=len(cells))
        return self._mlon.take(rows), self._mlat.take(rows)

    def impute(
        self,
        start_lon: float,
        start_lat: float,
        end_lon: float,
        end_lat: float,
        *,
        p: str = "w",
    ) -> ImputedPath:
        """Impute the gap between two endpoints; simplification is separate
        (:mod:`repro.core.simplify`), matching the paper's phase split.
        Raises ``ValueError`` for an unknown ``p``, whether or not the gap
        has a path."""
        check_projection(p)
        s_node = self.snap(start_lon, start_lat)
        e_node = self.snap(end_lon, end_lat)
        cells = self.cell_path(s_node, e_node)
        if cells is None:
            return straight_line(start_lon, start_lat, end_lon, end_lat, fallback=True)
        mid_lon, mid_lat = self.project_cells(cells, p=p)
        lon = np.concatenate([[start_lon], mid_lon, [end_lon]])
        lat = np.concatenate([[start_lat], mid_lat, [end_lat]])
        # Drop near-duplicate consecutive vertices (endpoint may sit on the
        # first/last cell's representative position). The true endpoints must
        # survive: when the tail duplicates, the preceding interior vertex is
        # dropped instead.
        if lon.size > 2:
            d = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
            keep = np.concatenate([[True], d > 1.0])
            if not keep[-1]:
                keep[-2] = False
                keep[-1] = True
            lon, lat = lon[keep], lat[keep]
        return ImputedPath(lon=lon, lat=lat, fallback=False)

    # -- introspection ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)
