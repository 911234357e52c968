"""Spark bootstrap for ``run_all.py``.

The job builds its SparkSession here (mirroring conftest's configuration)
and runs the table harnesses at bench scale (sf=1.0 unless overridden via
``REPRO_SF``).

Everything below runs *before* pyspark is imported, because the JVM reads
its settings at launch and Spark's Python workers inherit its environment:

- ``src/`` goes on ``sys.path`` and on ``PYTHONPATH``, so ``repro`` imports
  in the driver and in the workers without an installed package, and
  ``PYSPARK_PYTHON`` defaults to this interpreter;
- ``spark.driver.memory`` is injected via ``PYSPARK_SUBMIT_ARGS`` — exactly
  as the test conftest does.
"""
from __future__ import annotations

import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
)
os.environ.setdefault("PYSPARK_PYTHON", sys.executable)

os.environ.setdefault("SPARK_DRIVER_MEM", "8g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    """Local SparkSession configured like the test fixture."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def bench_sf() -> float:
    """Bench-scale factor (1.0), overridable with REPRO_SF."""
    return float(os.environ.get("REPRO_SF", "1.0"))
