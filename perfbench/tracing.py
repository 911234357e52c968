"""Span recorder and Spark counters applied to HABIT from outside.

The tracer replaces public callables of ``repro`` (and
``SparkContext.broadcast``) with wrappers that record one span per call:
name, start, end, parent span and request id. A function imported by name
into other modules is replaced in every loaded ``repro`` module that holds
it, so callers see the wrapper whichever way they imported it. A target
that no longer exists is listed in ``Tracer.absent`` and left alone, so the
benchmark keeps running when a later change deletes or renames it.

Wrappers are installed only inside ``Tracer.installed()``; outside it the
program runs unmodified, which is how the end-to-end metrics are measured.

Spark work is attributed to layers with job groups: a wrapper with a
``group`` sets ``spark.jobGroup.id`` to ``<group>/<request>`` for the
duration of the call, and :func:`job_counts` reads the jobs, stages and
tasks of that group from the ``StatusTracker``.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import pickle
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from pyspark import SparkContext

JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    name: str
    request: str | None
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by direct child spans."""
        return self.dur - self.child_s


def _path_attrs(span: Span, cells, args: tuple) -> None:
    span.attrs["no_path"] = cells is None
    span.attrs["cells"] = 0 if cells is None else len(cells)


def _payload_bytes(span: Span, _result, args: tuple) -> None:
    # args = (SparkContext, value); PySpark pickles at the highest protocol.
    span.attrs["bytes"] = len(pickle.dumps(args[1], protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(frozen=True)
class Target:
    """One callable to wrap: span name, module, dotted attribute path."""

    span: str
    module: str
    attr: str
    group: str | None = None  # Spark job group for work done inside
    keep_result: bool = False  # keep the last result (DataFrames for plans)
    annotate: Callable | None = None  # f(span, result, args), run after the span


TARGETS = (
    Target("lab.trips_pdf", "repro.eval.tables", "Lab.trips_pdf", group="preprocess"),
    Target("datasets.to_spark", "repro.ais.datasets", "to_spark"),
    Target("preprocess.preprocess", "repro.core.preprocess", "preprocess", keep_result=True),
    Target("gaps.split_trips", "repro.ais.gaps", "split_trips"),
    Target("habit.fit", "repro.core.habit", "Habit.fit", group="graphgen"),
    Target("graphgen.aggregate", "repro.core.graphgen", "aggregate", keep_result=True),
    Target("graphgen.build_graph", "repro.core.graphgen", "build_graph"),
    Target("model.init", "repro.core.model", "HabitModel.__init__"),
    Target("model.snap", "repro.core.model", "HabitModel.snap"),
    Target("model.cell_path", "repro.core.model", "HabitModel.cell_path", annotate=_path_attrs),
    Target("model.project_cells", "repro.core.model", "HabitModel.project_cells"),
    Target("simplify.simplify_path", "repro.core.simplify", "simplify_path"),
    Target("spark.broadcast", "pyspark.context", "SparkContext.broadcast", annotate=_payload_bytes),
)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[Span] = []
        self.results: dict[str, object] = {}
        self.absent: list[str] = []
        self.groups: set[str] = set()
        self.request: str | None = None
        self._stack: list[Span] = []
        self._resolved = [(t, self._resolve(t)) for t in TARGETS]
        # Jobs outside every layer's group still count for failed tasks.
        self.groups.add("run")
        sc.setLocalProperty(JOB_GROUP, "run")

    # -- spans --------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, request or self.request, parent, time.perf_counter())
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.dur
            self.spans.append(sp)

    @contextlib.contextmanager
    def op(self, name: str, request: str):
        """Root span of one benchmark operation; children inherit ``request``."""
        prev, self.request = self.request, request
        try:
            with self.span(name, request) as sp:
                yield sp
        finally:
            self.request = prev

    @contextlib.contextmanager
    def job_group(self, layer: str):
        """Tag Spark jobs started inside with ``<layer>/<request>``."""
        group = f"{layer}/{self.request}"
        self.groups.add(group)
        prev = self.sc.getLocalProperty(JOB_GROUP)
        self.sc.setLocalProperty(JOB_GROUP, group)
        try:
            yield group
        finally:
            self.sc.setLocalProperty(JOB_GROUP, prev)

    # -- patching -----------------------------------------------------------
    def _resolve(self, t: Target):
        """(owner, name, original) for a target, or None when it is gone."""
        try:
            owner = importlib.import_module(t.module)
            *outer, name = t.attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            return owner, name, getattr(owner, name)
        except (ImportError, AttributeError):
            self.absent.append(f"{t.module}.{t.attr}")
            return None

    def _wrap(self, t: Target, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(t.span) as sp:
                if t.group is None:
                    result = fn(*args, **kwargs)
                else:
                    with tracer.job_group(t.group):
                        result = fn(*args, **kwargs)
            if t.keep_result:
                tracer.results[t.span] = result
            if t.annotate is not None:
                t.annotate(sp, result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, only: set[str] | None = None):
        """Replace every resolvable target (or those whose span name is in
        ``only``) by its wrapper; restore on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            for t, found in self._resolved:
                if found is None or (only is not None and t.span not in only):
                    continue
                owner, name, orig = found
                wrapper = self._wrap(t, orig)
                if isinstance(owner, type):
                    undo.append((owner, name, orig))
                    setattr(owner, name, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for k, v in list(vars(mod).items()):
                        if v is orig:
                            undo.append((mod, k, orig))
                            setattr(mod, k, wrapper)
            yield self
        finally:
            for owner, name, orig in reversed(undo):
                setattr(owner, name, orig)

    # -- queries over recorded spans ---------------------------------------
    def by_request(self, prefix: str) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for sp in self.spans:
            if sp.request is not None and sp.request.startswith(prefix):
                out.setdefault(sp.request, []).append(sp)
        return out


def job_counts(sc: SparkContext, groups) -> dict[str, int]:
    """Jobs, stages that ran tasks, tasks and failed tasks of job groups."""
    st = sc.statusTracker()
    deadline = time.monotonic() + 10.0
    while st.getActiveJobsIds() and time.monotonic() < deadline:
        time.sleep(0.05)  # the listener bus delivers job ends asynchronously
    jobs: set[int] = set()
    stage_ids: set[int] = set()
    for g in groups:
        for j in st.getJobIdsForGroup(g):
            jobs.add(j)
            info = st.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
    stages = tasks = failed = 0
    for s in stage_ids:
        info = st.getStageInfo(s)
        if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
            continue  # skipped: its output was reused from an earlier stage
        stages += 1
        tasks += info.numCompletedTasks + info.numFailedTasks
        failed += info.numFailedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}


_NODE = re.compile(r"^[\s:|+\-*()\d]*([A-Za-z]\w*)")  # tree prefix, codegen id, node name


def plan_ops(*frames) -> dict[str, int]:
    """Physical-operator counts of executed DataFrames (AQE final plans).

    Counts ``Exchange`` (shuffles, not reused ones), ``ArrowEvalPython``
    (pandas UDFs) and ``Window`` nodes in ``explain()`` output.
    """
    counts = {"Exchange": 0, "ArrowEvalPython": 0, "Window": 0}
    for df in frames:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            df.explain()
        text = buf.getvalue()
        if "== Final Plan ==" in text:
            text = text.split("== Final Plan ==", 1)[1].split("== Initial Plan ==", 1)[0]
        for line in text.splitlines():
            m = _NODE.match(line)
            if m and m.group(1) in counts:
                counts[m.group(1)] += 1
    return counts
