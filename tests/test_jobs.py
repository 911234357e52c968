"""The job entrypoints must be importable and wired to the right harnesses
(they are executed at bench scale outside the test suite)."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

JOBS = pathlib.Path(__file__).parent.parent / "jobs"


@pytest.fixture(autouse=True)
def _jobs_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))


@pytest.mark.parametrize(
    "mod,expected",
    [
        ("table1_datasets", "table1"),
        ("table2_storage", "table2"),
        ("table3_simplification", "table3"),
        ("table4_latency", "table4"),
        ("fig3_projection", "fig3_projection"),
        ("fig5_accuracy", "fig5_accuracy"),
        ("fig7_gap_durations", "fig7_gap_durations"),
        ("run_all", "main"),
    ],
)
def test_job_importable_and_has_main(mod, expected):
    m = importlib.import_module(mod)
    assert callable(m.main)
    assert expected in m.main.__code__.co_names or expected == "main"


def test_common_bench_sf(monkeypatch):
    common = importlib.import_module("_common")
    monkeypatch.setenv("REPRO_SF", "0.5")
    assert common.bench_sf() == 0.5
    monkeypatch.delenv("REPRO_SF")
    assert common.bench_sf() == 1.0


def test_common_exports_src_to_spark_workers():
    """Importing ``_common`` puts ``src/`` on ``PYTHONPATH`` and sets
    ``PYSPARK_PYTHON``, so Spark's Python workers (which inherit the JVM's
    environment) import ``repro`` without an installed package."""
    code = (
        "import os, sys; import _common; "
        "print(os.environ['PYTHONPATH']); print(os.environ['PYSPARK_PYTHON'])"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYSPARK_PYTHON")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=JOBS, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    path, python = out.stdout.splitlines()
    src = (JOBS.parent / "src").resolve()
    assert pathlib.Path(path.split(os.pathsep)[0]).resolve() == src
    assert python == sys.executable
