"""Outside-in benchmark for HABIT on synthetic SAR AIS data.

Run from the repository root::

    python3 perfbench/run.py --workload sar-r9 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON object with the run's provenance (machine,
versions, Spark settings, seed, input sizes, ``src/`` line count), the
input sizes and any check failures. The exit code is 0 only when every
correctness check passed.

HABIT is imported from ``src/`` of the checkout the script sits in; Spark
runs as ``local[N]`` with N = min(4, usable cores), and all scratch files
(Spark local dirs, temp files, the persisted model) live under
``.perfbench_work/`` in that checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS = min(4, len(os.sched_getaffinity(0)))
SHUFFLE_PARTITIONS = WORKERS
DRIVER_MEMORY = "2g"


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _environment(work: Path) -> None:
    """Make ``repro`` importable here and in Spark's Python workers, and
    keep every scratch file inside the checkout. Must run before the JVM
    starts: the workers inherit the JVM's environment."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"  # Spark settings are set in _spark()
    os.environ["SPARK_LOCAL_DIRS"] = str(work)
    os.environ["TMPDIR"] = str(work)
    # Every JVM (the spark-submit launcher and the driver): temp files in
    # the work dir, and no hsperfdata file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        p for p in (os.environ.get("JAVA_TOOL_OPTIONS", ""),
                    "-XX:-UsePerfData", f"-Djava.io.tmpdir={work}") if p
    )


def _spark(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{WORKERS}]")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(work))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop(spark) -> None:
    """Stop Spark, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _mem_bytes() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _provenance(spark, args) -> dict:
    import pyspark

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "mem_bytes": _mem_bytes(),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "spark_master": spark.sparkContext.master,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "driver_memory": DRIVER_MEMORY,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": _src_lines(),
    }


def main() -> int:
    args = _args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no HABIT sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    _environment(work)
    try:
        import workloads
        from tracing import Tracer

        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        spark = _spark(work)
        try:
            spark_start_s = time.perf_counter() - T_START
            tracer = Tracer(spark.sparkContext) if args.trace else None
            run = workloads.Run(spark, args.workload, args.seed, args.seconds, tracer,
                                work, WORKERS)
            run.execute(spark_start_s)
            metrics = run.per_layer() if args.trace else run.end_to_end()
            provenance = _provenance(spark, args)
        finally:
            t = time.perf_counter()
            _stop(spark)
            stop_s = time.perf_counter() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = run.failed == 0
    run.phase_s.update(stop=stop_s, total=time.perf_counter() - T_START)
    print(json.dumps({
        "provenance": provenance,
        "ops": {"attempted": run.attempted, "succeeded": run.attempted - run.failed,
                "failed": run.failed},
        "sizes": run.sizes,
        "phase_s": run.phase_s,
        "absent": tracer.absent if tracer else [],
        "problems": run.problems,
    }, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
