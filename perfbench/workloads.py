"""The benchmark's workloads, driven only through HABIT's public API.

Every run performs the same pipeline on synthetic SAR data:

1. set-up, timed as ``setup_s`` together with the Spark start: the first
   generation of the raw AIS frame, a cold fit (a fresh ``Lab`` takes the
   frame through ingest, ``preprocess``, collect, the 70/30 split and
   ``Habit(res=r).fit``), timed on its own as ``fit_s``, and the gap
   table;
2. a warm-up (one batch run over N gaps, which starts Spark's Python
   workers, and ``WARMUP_QUERIES`` queries), then ``ROUNDS`` rounds, and
   more until the run's seconds are used. A round is one query pass:
   ``Habit.impute(p='w', t=100)`` over >= ``PASS_QUERIES`` 60-min gaps of
   the test trips by N closed-loop clients, processes forked from this one
   after the fit, which take ``TAKE`` gaps at a time from a shared queue.
   Odd rounds run the gaps in reverse order, so the runs of a query lie far
   apart in time. ``BATCH_RUNS`` rounds, spread over the run, end with a
   batch run: ``Habit.impute_batch_spark`` over the same gaps as a cached
   table in gap-id order, repartitioned to N partitions, collected;
3. correctness checks (``checks``) and DTW scoring of ``DTW_GAPS`` gaps,
   outside every timed region.

The workloads differ in the grid resolution: at r=9 path search over long
cell paths dominates every query, in the driver and in the workers; at r=8
the graph is coarser and paths are shorter, so the fixed costs (snap,
projection, simplification, the broadcast and each batch job) weigh more.
A pass at r=9 costs about twice as much as at r=8; at the repo's bench
setting, r=10, it costs twice as much again, too much to repeat the
queries within a run.

Every run fits the same data (``Lab`` generates SAR with the simulator's
default seed) and queries the same gaps: ``PLACEMENT_SEED`` draws their
placements. Gap sets drawn from different seeds differ in cost far more
than the host's noise: in one process, with the passes interleaved, the
p50 latency of 335-gap sets drawn from 12 seeds spread by 0.21 of its
median (IQR/median, r=8), about the 0.25 bound. So the workload seed does
not pick the gaps; it orders them. It shuffles the query order and with it
the chunks, and it draws the gaps whose answers are re-derived by the
checks. The batch table is the same in every run.

Timings are the cold fit, the median batch run, the median and p95 over
queries of each query's median run, and query runs completed per second
of the passes' wall time. The numbers below come from a 4-vCPU VM on a
shared host: one busy thread there runs up to 1.5x faster at moments when
the host is quiet, and those moments come and go over seconds to minutes
(process CPU time grows with wall time, so it is not waiting that could be
left out). One client's latencies followed them: over 24 runs of five r=8
passes in one process, the p50 of each query's fastest run spread by 0.09
of its median (IQR/median) and that of its median run by 0.18, and the
p50 of separate benchmark runs differed by up to 1.6x. With all N cores
busy the speed holds: N clients over 14 such runs at r=9 gave 0.05 (p50)
and 0.03 (p95) with each query's median run.
So the query loop runs N clients, as the batch runs N workers, and its
latency is that of a query sharing the machine with N-1 others.

In a traced run the spans are recorded in this process, so the query
passes run here, one client, for ``TRACED_ROUNDS`` rounds and more,
untraced, until the run's seconds are used. In the first two the tracer is
installed around half of the ``CHUNKS`` chunks, alternating, so each
chunk runs once traced and once untraced, traced first or second,
which gives ``trace.overhead_frac``. The cold fit and the first batch run
are traced too.
"""
from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.ais.datasets import dataset, to_spark
from repro.ais.gaps import gaps_to_pandas, make_gaps
from repro.core import storage
from repro.eval.metrics import DTW_SPACING_M
from repro.eval.tables import Lab
from repro.geo.dtw import dtw_m
from repro.geo.resample import densify

import checks
import layers
from tracing import Tracer

DATASET = "SAR"
#: Scale factor of the synthetic SAR data (sf=1 is the repo's bench scale).
SF = 0.25
P = "w"
T = 100.0
GAP_MIN = 60.0
#: Queries per pass: p95 has >= 10 samples beyond it.
PASS_QUERIES = 200
#: Seed of the gap placements, the same in every run (see the docstring).
PLACEMENT_SEED = 0
#: Chunks of a traced run's query pass.
CHUNKS = 6
#: Gaps of the query pass scored by DTW against the hidden ground truth.
DTW_GAPS = 60
#: Queries run once before the rounds, untimed.
WARMUP_QUERIES = 8
#: Batch runs per run, spread over the rounds.
BATCH_RUNS = 3
#: Queries whose cell path is re-derived and checked as a walk, per run,
#: and gaps whose batch rows are compared with the driver.
CHECK_SAMPLE = 24

#: Rounds run even when the run's seconds are up, i.e. runs of each query,
#: in an untraced run and in a traced one.
ROUNDS = 6
TRACED_ROUNDS = 2
#: Gaps a query client takes from the queue at a time.
TAKE = 4

#: Workload name -> H3-like grid resolution r of the fitted model.
WORKLOADS = {"sar-r9": 9, "sar-r8": 8}

# The fitted Habit and the gaps, set before the query clients are forked:
# the clients inherit them instead of unpickling a copy.
_habit = None
_gaps: list = []


def _serve(idx: list[int]) -> list[tuple]:
    """Run in a query client: impute the gaps ``idx`` one after another;
    returns (index, seconds or None, ImputedPath or error) per gap."""
    out = []
    for i in idx:
        g = _gaps[i]
        t0 = time.perf_counter()
        try:
            res = _habit.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
        except Exception as e:  # a failed query is counted, not fatal
            out.append((i, None, f"{type(e).__name__}: {e}"))
            continue
        out.append((i, time.perf_counter() - t0, res))
    return out


class Run:
    """One benchmark run: set-up, timed rounds, checks, metrics."""

    def __init__(self, spark: SparkSession, workload: str, seed: int, seconds: float,
                 tracer: Tracer | None, work_dir, parallelism: int):
        self.spark = spark
        self.res = WORKLOADS[workload]
        self.rounds = TRACED_ROUNDS if tracer else ROUNDS
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work_dir = work_dir
        self.n = parallelism
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lat_s: dict[str, list[float]] = {}  # gap id -> seconds per run
        self.pass_s: list[float] = []  # wall seconds per client pass
        self.answers: dict[str, tuple] = {}  # gap id -> (gap, ImputedPath)
        self.batch_s: list[float] = []  # per batch run
        self.outs: list[pd.DataFrame] = []  # per batch run, for the checks
        self.overhead: dict[int, tuple[list, list]] = {}  # chunk -> (untraced s, traced s)
        self.phase_s: dict = {}

    # -- helpers ------------------------------------------------------------
    def _traced(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def _op(self, on: bool, name: str, request: str):
        return self.tracer.op(name, request) if on else contextlib.nullcontext()

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    # -- steps --------------------------------------------------------------
    def fit(self, *, traced: bool = False):
        """A fit from the raw frame in a fresh ``Lab``; returns (lab, habit, secs)."""
        self.attempted += 1
        with self._traced(traced), self._op(traced, "op.fit", "fit"):
            t0 = time.perf_counter()
            lab = Lab(self.spark, sf=SF)
            habit = lab.habit(DATASET, self.res, p=P, t=T)
            secs = time.perf_counter() - t0
        return lab, habit, secs

    def placements(self, test: pd.DataFrame) -> list:
        """Gaps of as many placements as it takes to reach ``PASS_QUERIES``
        gaps, in the order the workload seed shuffles them into."""
        rng = np.random.default_rng(PLACEMENT_SEED)
        out: list = []
        j = 0
        while len(out) < PASS_QUERIES:
            s = int(rng.integers(0, 2**31))
            for g in make_gaps(test, duration_min=GAP_MIN, seed=s):
                out.append(dataclasses.replace(g, gap_id=f"{g.gap_id}/p{j}"))
            j += 1
        order = np.random.default_rng(self.seed).permutation(len(out))
        return [out[i] for i in order]

    def _record(self, g, secs: float, res) -> None:
        self.lat_s.setdefault(g.gap_id, []).append(secs)
        self.answers.setdefault(g.gap_id, (g, res))

    def clients(self, pool, gaps: list, *, reverse: bool) -> None:
        """One pass over ``gaps`` (the list the clients inherited), in order
        or reversed, by the pool's closed-loop clients, which take ``TAKE``
        gaps at a time from a shared queue."""
        order = list(range(len(gaps)))[::-1 if reverse else 1]
        tasks = [order[i:i + TAKE] for i in range(0, len(order), TAKE)]
        t0 = time.perf_counter()
        for out in pool.imap_unordered(_serve, tasks):
            for i, secs, res in out:
                self.attempted += 1
                if secs is None:
                    self._fail([f"{gaps[i].gap_id}: {res}"])
                else:
                    self._record(gaps[i], secs, res)
        self.pass_s.append(time.perf_counter() - t0)

    def queries(self, habit, gaps: list, *, traced: bool = False) -> float:
        """Closed loop, one client in this process (traced runs); returns the
        busy seconds."""
        busy = 0.0
        with self._traced(traced):
            for g in gaps:
                self.attempted += 1
                with self._op(traced, "op.query", g.gap_id):
                    t0 = time.perf_counter()
                    try:
                        res = habit.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
                    except Exception as e:  # a failed query is counted, not fatal
                        self._fail([f"{g.gap_id}: {type(e).__name__}: {e}"])
                        continue
                    secs = time.perf_counter() - t0
                busy += secs
                self._record(g, secs, res)
        return busy

    def batch(self, habit, gdf, k: int, *, traced: bool = False) -> float:
        """One batch run over the cached gap table; keeps its output for the
        checks and returns its seconds."""
        self.attempted += 1
        # Only the broadcast is wrapped: the batch closure pickles the
        # functions it calls, and a wrapper would drag the tracer along.
        spans = self.tracer.installed(only={"spark.broadcast"}) if traced else contextlib.nullcontext()
        with spans, self._op(traced, "op.batch", f"batch-{k}"):
            groups = self.tracer.job_group("batch") if traced else contextlib.nullcontext()
            with groups:
                t0 = time.perf_counter()
                out = habit.impute_batch_spark(self.spark, gdf).toPandas()
                secs = time.perf_counter() - t0
        self.outs.append(out)
        return secs

    # -- schedule -----------------------------------------------------------
    def execute(self, spark_start_s: float) -> None:
        """Set-up, then rounds until the run's seconds are used and the
        minimum rounds have run (see the module docstring)."""
        global _habit, _gaps
        trace = self.tracer is not None
        t0 = time.perf_counter()
        dataset(DATASET, SF)  # cached: the Lab below reads this frame
        gen = time.perf_counter() - t0
        lab, habit, self.fit_s = self.fit(traced=trace)

        t = time.perf_counter()
        train, test = lab.train_test(DATASET)
        gaps = self.placements(test)
        chunks = [gaps[c::CHUNKS] for c in range(CHUNKS)]
        table = sorted(gaps, key=lambda g: g.gap_id)
        gdf = to_spark(self.spark, gaps_to_pandas(table)).repartition(self.n).cache()
        gdf.count()
        prepare = time.perf_counter() - t
        self.setup_s = spark_start_s + gen + self.fit_s + prepare
        self.phase_s.update(spark_start=spark_start_s, gen=gen, cold_fit=self.fit_s, prepare=prepare)

        warm = to_spark(self.spark, gaps_to_pandas(table[:self.n])).repartition(self.n)
        habit.impute_batch_spark(self.spark, warm).collect()
        pool = None
        if trace:
            self.queries(habit, gaps[:WARMUP_QUERIES])
        else:
            _habit, _gaps = habit, gaps
            pool = multiprocessing.get_context("fork").Pool(self.n)
        try:
            if pool is not None:
                pool.map(_serve, [[i] for i in range(WARMUP_QUERIES)], chunksize=1)
            self.lat_s.clear()  # warm-up latencies are not reported
            self.rounds_loop(habit, gaps, chunks, gdf, pool)
        finally:
            if pool is not None:
                pool.close()
                pool.join()
            _habit, _gaps = None, []
        gdf.unpersist()

        t = time.perf_counter()
        self.check(habit, train, gaps)
        self.model_bytes = habit.storage_bytes()
        self.phase_s["checks"], t = time.perf_counter() - t, time.perf_counter()
        dtw = []
        for gap, res in sorted(self.answers.values(), key=lambda a: a[0].gap_id)[:DTW_GAPS]:
            ilon, ilat = densify(res.lon, res.lat, DTW_SPACING_M)
            tlon, tlat = densify(gap.truth_lon, gap.truth_lat, DTW_SPACING_M)
            dtw.append(dtw_m(ilon, ilat, tlon, tlat))
        self.dtw_mean_m = float(np.mean(dtw))
        self.phase_s["score"] = time.perf_counter() - t
        self.sizes = {
            "raw_rows": int(len(dataset(DATASET, SF))),
            "trips": int(lab.trips_pdf(DATASET)["trip_id"].nunique()),
            "train_rows": int(len(train)),
            "nodes": habit.model.n_nodes,
            "edges": habit.model.n_edges,
            "queries": len(self.lat_s),
            "query_runs": sum(len(v) for v in self.lat_s.values()),
            "clients": 1 if trace else self.n,
            "batch_runs": len(self.batch_s),
            "batch_gaps": len(gaps),
            "batch_partitions": self.n,
            "batch_rows": len(self.outs[-1]),
        }

    def rounds_loop(self, habit, gaps: list, chunks: list, gdf, pool) -> None:
        """Rounds until the run's seconds are used and ``self.rounds`` have
        run: a query pass, by the clients or (traced runs) by this process
        chunk by chunk, and on ``BATCH_RUNS`` of them a batch run."""
        trace = self.tracer is not None
        batch_rounds = {round(i * (self.rounds - 1) / (BATCH_RUNS - 1)) for i in range(BATCH_RUNS)}
        r, t_rounds = 0, time.perf_counter()
        while r < self.rounds or time.perf_counter() - t_rounds < self.seconds:
            t = time.perf_counter()
            if pool is not None:
                self.clients(pool, gaps, reverse=r % 2 == 1)
            else:
                order = range(CHUNKS) if r % 2 == 0 else reversed(range(CHUNKS))
                for c in order:
                    traced = r < 2 and (c + r) % 2 == 0
                    secs = self.queries(habit, chunks[c], traced=traced)
                    self.overhead.setdefault(c, ([], []))[int(traced)].append(secs)
            if r in batch_rounds:
                self.batch_s.append(self.batch(habit, gdf, r + 1, traced=trace and r == 0))
            self.phase_s[f"round{r}"] = time.perf_counter() - t
            r += 1
        self.phase_s["rounds"] = r

    # -- checks -------------------------------------------------------------
    def check(self, habit, train, table: list) -> None:
        path = self.work_dir / "model"
        storage.save(habit.model, path)
        nodes = pd.read_parquet(path / "nodes.parquet")
        edges = pd.read_parquet(path / "edges.parquet")
        self._fail(checks.fit_problems(train, habit.model, nodes, edges))

        g = checks.edge_graph(nodes, edges)
        rng = np.random.default_rng([self.seed, 99])
        n = len(self.answers)
        walk = set(rng.choice(n, size=min(CHECK_SAMPLE, n), replace=False))
        for i, (gap, res) in enumerate(self.answers.values()):
            self._fail(checks.query_problems(habit.model, g, gap, res, walk=i in walk))

        pick = rng.choice(len(table), size=min(CHECK_SAMPLE, len(table)), replace=False)
        refs = checks.batch_refs(habit, [table[i] for i in pick])
        ids = {gp.gap_id for gp in table}
        for out in self.outs:
            self._fail(checks.batch_problems(ids, out, refs))

    # -- metrics ------------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        lat = np.asarray([np.median(v) for v in self.lat_s.values()])
        runs = sum(len(v) for v in self.lat_s.values())
        return {
            "setup_s": (self.setup_s, "s"),
            "fit_s": (self.fit_s, "s"),
            "model_bytes": (float(self.model_bytes), "B"),
            "query_p50_ms": (float(np.percentile(lat, 50) * 1e3), "ms"),
            "query_p95_ms": (float(np.percentile(lat, 95) * 1e3), "ms"),
            "query_per_s": (runs / float(np.sum(self.pass_s)), "1/s"),
            "fallback_frac": (float(np.mean([r.fallback for _, r in self.answers.values()])), "frac"),
            "dtw_mean_m": (self.dtw_mean_m, "m"),
            "batch_gaps_per_s": (self.sizes["batch_gaps"] / float(np.median(self.batch_s)), "1/s"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        counts = {
            "fit.raw_rows": self.sizes["raw_rows"],
            "fit.train_rows": self.sizes["train_rows"],
            "model.nodes": self.sizes["nodes"],
            "model.edges": self.sizes["edges"],
            "batch.output_rows": self.sizes["batch_rows"],
        }
        pairs = [(float(np.mean(u)), float(np.mean(t))) for u, t in self.overhead.values() if u and t]
        return layers.metrics(self.tracer, pairs, counts)
