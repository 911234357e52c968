"""Per-layer metrics of a traced run, derived from the tracer's spans.

Fit layers come from the traced cold fit (request ``fit``); query layers
are taken over the traced queries (request = gap id); batch layers come
from the traced batch run. Counts of Spark jobs, stages and tasks come from the job groups the tracer
set; operator counts come from the executed plans of the last preprocess
and aggregate frames. A layer whose callable no longer exists reports 0.
"""
from __future__ import annotations

import numpy as np

from tracing import Span, Tracer, job_counts, plan_ops


def _sum(spans: list[Span], name: str, attr: str = "dur") -> float:
    return float(sum(getattr(s, attr) for s in spans if s.name == name))


def _fit_layers(tr: Tracer) -> dict[str, float]:
    spans = tr.by_request("fit").get("fit")
    if not spans:
        return {}
    out = {
        "preprocess.s": _sum(spans, "lab.trips_pdf", "self_s") + _sum(spans, "preprocess.preprocess"),
        "graphgen.collect_s": _sum(spans, "habit.fit", "self_s"),
        "graphgen.build_graph_s": _sum(spans, "graphgen.build_graph"),
        "model.init_s": _sum(spans, "model.init"),
        "datasets.to_spark_s": _sum(spans, "datasets.to_spark"),
        "gaps.split_trips_s": _sum(spans, "gaps.split_trips"),
    }
    for layer in ("preprocess", "graphgen"):
        c = job_counts(tr.sc, [f"{layer}/fit"])
        out[f"{layer}.spark_jobs"] = c["jobs"]
        out[f"{layer}.spark_stages"] = c["stages"]
    pre = tr.results.get("preprocess.preprocess")
    agg = tr.results.get("graphgen.aggregate")
    if pre is not None:
        ops = plan_ops(pre)
        out["preprocess.plan_exchanges"] = ops["Exchange"]
        out["preprocess.plan_windows"] = ops["Window"]
    if agg is not None:
        ops = plan_ops(*agg)
        out["graphgen.plan_exchanges"] = ops["Exchange"]
        out["graphgen.plan_python_udfs"] = ops["ArrowEvalPython"]
        out["graphgen.plan_windows"] = ops["Window"]
    return out


def _query_layers(tr: Tracer) -> dict[str, float]:
    queries = [s for s in tr.spans if s.name == "op.query"]
    ids = {s.request for s in queries}
    spans = [s for s in tr.spans if s.request in ids]
    if not queries:
        return {}
    total = sum(s.dur for s in queries)
    n = len(queries)
    paths = [s for s in spans if s.name == "model.cell_path"]
    path_ms = np.asarray([s.dur for s in paths]) * 1e3
    nopath = np.asarray([s.dur for s in paths if s.attrs.get("no_path")]) * 1e3
    found = [s.attrs["cells"] for s in paths if not s.attrs.get("no_path")]
    return {
        "query.count": n,
        "model.cell_path_p50_ms": float(np.percentile(path_ms, 50)) if path_ms.size else 0.0,
        "model.cell_path_p95_ms": float(np.percentile(path_ms, 95)) if path_ms.size else 0.0,
        "model.cell_path_share": _sum(paths, "model.cell_path", "self_s") / total,
        "model.cell_path_nopath_p50_ms": float(np.median(nopath)) if nopath.size else 0.0,
        "model.path_cells_mean": float(np.mean(found)) if found else 0.0,
        "model.no_path": int(nopath.size),
        "model.snap_s": _sum(spans, "model.snap", "self_s") / n,
        "model.project_cells_s": _sum(spans, "model.project_cells", "self_s") / n,
        "simplify.simplify_path_s": _sum(spans, "simplify.simplify_path", "self_s") / n,
    }


def _batch_layers(tr: Tracer) -> dict[str, float]:
    runs = tr.by_request("batch-")
    if not runs:
        return {}
    last = max(runs, key=lambda r: int(r.split("-")[1]))
    spans = runs[last]
    bc = [s for s in spans if s.name == "spark.broadcast"]
    c = job_counts(tr.sc, [f"batch/{last}"])
    return {
        "habit.broadcast_bytes": sum(s.attrs.get("bytes", 0) for s in bc),
        "habit.broadcast_s": _sum(bc, "spark.broadcast"),
        "batch.spark_jobs": c["jobs"],
        "batch.spark_stages": c["stages"],
        "batch.tasks": c["tasks"],
    }


#: name -> unit, in report order; every traced run reports all of them.
UNITS = {
    "preprocess.s": "s",
    "preprocess.spark_jobs": "count",
    "preprocess.spark_stages": "count",
    "preprocess.plan_exchanges": "count",
    "preprocess.plan_windows": "count",
    "graphgen.collect_s": "s",
    "graphgen.spark_jobs": "count",
    "graphgen.spark_stages": "count",
    "graphgen.plan_exchanges": "count",
    "graphgen.plan_python_udfs": "count",
    "graphgen.plan_windows": "count",
    "graphgen.build_graph_s": "s",
    "model.init_s": "s",
    "datasets.to_spark_s": "s",
    "gaps.split_trips_s": "s",
    "fit.raw_rows": "count",
    "fit.train_rows": "count",
    "model.nodes": "count",
    "model.edges": "count",
    "query.count": "count",
    "model.cell_path_p50_ms": "ms",
    "model.cell_path_p95_ms": "ms",
    "model.cell_path_share": "frac",
    "model.cell_path_nopath_p50_ms": "ms",
    "model.path_cells_mean": "count",
    "model.no_path": "count",
    "model.snap_s": "s",
    "model.project_cells_s": "s",
    "simplify.simplify_path_s": "s",
    "habit.broadcast_bytes": "B",
    "habit.broadcast_s": "s",
    "batch.spark_jobs": "count",
    "batch.spark_stages": "count",
    "batch.tasks": "count",
    "batch.output_rows": "count",
    "spark.failed_tasks": "count",
    "trace.overhead_frac": "frac",
}


def metrics(tr: Tracer, overhead: list[tuple[float, float]], counts: dict[str, float]) -> dict:
    """All per-layer metrics as ``{name: (value, unit)}``.

    ``counts`` carries the input sizes and batch output rows the run
    measured itself; ``overhead`` pairs the (untraced, traced) seconds of
    each query chunk.
    """
    vals: dict[str, float] = dict(counts)
    vals.update(_fit_layers(tr))
    vals.update(_query_layers(tr))
    vals.update(_batch_layers(tr))
    vals["spark.failed_tasks"] = job_counts(tr.sc, sorted(tr.groups))["failed_tasks"]
    plain = sum(p for p, _ in overhead)
    traced = sum(t for _, t in overhead)
    vals["trace.overhead_frac"] = traced / plain - 1.0 if plain > 0 else 0.0
    return {k: (float(vals.get(k, 0.0)), u) for k, u in UNITS.items()}
