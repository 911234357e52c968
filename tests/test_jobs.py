"""The job entrypoint must be importable and wired to the right harnesses
(it is executed at bench scale outside the test suite)."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.eval import tables

JOBS = pathlib.Path(__file__).parent.parent / "jobs"


@pytest.fixture(autouse=True)
def _jobs_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))


SECTIONS = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig3_projection",
    "fig5_accuracy",
    "fig7_gap_durations",
]


@pytest.mark.parametrize("section", SECTIONS)
def test_run_all_section_resolves_to_its_harness(section):
    run_all = importlib.import_module("run_all")
    assert callable(run_all.main)
    _, fn, _ = run_all.SECTIONS[section]
    assert fn is getattr(tables, section)


def test_run_all_sections_in_paper_order():
    """Every section runs, in paper order, when none is named."""
    assert list(importlib.import_module("run_all").SECTIONS) == SECTIONS


def test_run_all_rejects_unknown_section(monkeypatch):
    """An unknown name exits before any Spark session starts."""
    run_all = importlib.import_module("run_all")
    monkeypatch.setattr(run_all, "get_spark", lambda app: pytest.fail("Spark started"))
    with pytest.raises(SystemExit, match="unknown section table5"):
        run_all.main(["table1", "table5"])


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
