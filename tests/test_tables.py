"""Integration tests: the table harnesses produce the paper's rows and the
qualitative shapes the paper reports (at test scale)."""
from collections import Counter

import numpy as np
import pytest

from repro.baselines.gti import GTI
from repro.core.habit import Habit
from repro.eval import tables
from repro.eval.metrics import evaluate_gaps, summarize
from repro.eval.tables import (
    fig5_accuracy,
    fig7_gap_durations,
    format_table,
    method_configs,
    table1,
    table2,
    table3,
    table4,
)


@pytest.fixture(scope="module")
def t1(lab):
    return table1(lab)


@pytest.fixture(scope="module")
def t2(lab):
    # only the cheap HABIT sweep configs plus two GTI configs at test scale
    return table2(lab, names=("KIEL",))


def test_table1_rows_and_columns(t1):
    assert list(t1["Dataset"]) == ["DAN", "KIEL", "SAR"]
    assert list(t1.columns) == ["Dataset", "Type", "Size (MB)", "Positions", "Trips", "Ships"]
    assert (t1["Positions"] > 1000).all()
    assert (t1["Trips"] > 3).all()


def test_table1_ships_match_scenarios(t1):
    by = t1.set_index("Dataset")
    assert by.loc["KIEL", "Ships"] == 2
    assert by.loc["DAN", "Ships"] <= 16
    assert by.loc["SAR", "Ships"] > 20
    assert by.loc["SAR", "Type"] == "All"


def test_table2_shape(t2):
    assert list(t2.columns) == ["Method", "Configuration", "KIEL"]
    assert (t2[t2["Method"] == "HABIT"]["Configuration"] == [f"r = {r}" for r in range(6, 11)]).all()
    assert len(t2[t2["Method"] == "GTI"]) == 3


def test_table2_habit_grows_with_resolution(t2):
    habit = t2[t2["Method"] == "HABIT"]["KIEL"].to_numpy()
    assert (np.diff(habit) > 0).all()


def test_table2_gti_grows_with_rd(t2):
    gti = t2[t2["Method"] == "GTI"]["KIEL"].to_numpy()
    assert gti[-1] > gti[0]


def test_table2_gti_larger_than_habit(t2):
    """The paper's headline: GTI models are far larger than HABIT's."""
    habit_max = t2[t2["Method"] == "HABIT"]["KIEL"].max()
    gti_min = t2[t2["Method"] == "GTI"]["KIEL"].min()
    assert gti_min > habit_max * 0.5  # even the smallest GTI rivals max HABIT


def test_table3_rows(lab):
    t3 = table3(lab, name="DAN", res_sweep=(9,), tolerances=(0.0, 250.0, 1000.0))
    assert len(t3) == 4  # 3 tolerances + Original row
    assert (t3.columns == ["r", "t", "cnt", "avg_rot", "max_rot", "gt45"]).all()


def test_table3_simplification_monotone(lab):
    t3 = table3(lab, name="DAN", res_sweep=(9,), tolerances=(0.0, 250.0, 1000.0))
    sweep = t3[t3["t"] >= 0].sort_values("t")
    cnt = sweep["cnt"].to_numpy()
    assert (np.diff(cnt) <= 0).all(), "higher tolerance → fewer positions"
    gt45 = sweep["gt45"].to_numpy()
    assert gt45[-1] <= gt45[0], "higher tolerance → fewer abrupt turns"


def test_table4_shape_and_latency(lab):
    t4 = table4(lab, names=("KIEL",))
    assert set(t4["Method"]) == {"HABIT", "GTI"}
    assert (t4["Avg"] > 0).all()
    assert (t4["Max"] >= t4["Avg"]).all()
    # HABIT stays sub-second at test scale
    habit = t4[t4["Method"] == "HABIT"]
    assert (habit["Avg"] < 1.0).all()


def test_fig5_accuracy_contains_all_methods(lab):
    f5 = fig5_accuracy(lab, names=("KIEL",))
    assert {"SLI", "HABIT", "GTI"} == set(f5["Method"])
    assert (f5["dtw_mean_m"] > 0).all()


def test_each_evaluation_pass_runs_once(lab, monkeypatch):
    """Table 4 and Figures 5 and 7 (60 min) read one ``evaluate_gaps`` pass
    per (dataset, method, config, duration), and Figure 5's HABIT and GTI
    rows are those of a direct pass."""
    names = ("KIEL", "SAR")
    monkeypatch.setattr(lab, "_runs", {})  # fits stay shared, passes start cold
    calls = Counter()

    def counted(impute_fn, gaps):
        owner = getattr(impute_fn, "__self__", None)
        if isinstance(owner, Habit):
            method, cfg = "HABIT", (owner.res, owner.p, owner.t)
        elif isinstance(owner, GTI):
            method, cfg = "GTI", (owner.rm_m, owner.rd_deg)
        else:
            method, cfg = "SLI", ()
        name = next(n for n in names if lab.gaps(n) is gaps)
        calls[(name, method, cfg, 60.0)] += 1
        return evaluate_gaps(impute_fn, gaps)

    monkeypatch.setattr(tables, "evaluate_gaps", counted)
    table4(lab, names=names)
    f5 = fig5_accuracy(lab, names=names)
    fig7_gap_durations(lab, names=names, durations=(60.0,))

    keys = [(n, m, cfg) for n in names for m, cfg in method_configs(n)]
    assert set(calls) == {(*key, 60.0) for key in keys}
    assert set(calls.values()) == {1}

    assert len(f5) == len(keys)
    for (name, method, cfg), row in zip(keys, f5.itertuples(index=False)):
        assert (row.Dataset, row.Method) == (name, method)
        if method == "HABIT":
            impute = lab.habit(name, cfg[0], p=cfg[1], t=cfg[2]).impute
        elif method == "GTI":
            impute = lab.gti(name, rm_m=cfg[0], rd_deg=cfg[1]).impute
        else:
            continue
        s = summarize(evaluate_gaps(impute, lab.gaps(name)))
        assert (row.dtw_mean_m, row.dtw_median_m) == (s["dtw_mean_m"], s["dtw_median_m"])


def test_fig7_durations(lab):
    f7 = fig7_gap_durations(lab, names=("KIEL",), durations=(60.0, 120.0))
    assert set(f7["gap_min"]) <= {60, 120}
    assert (f7["n_gaps"] > 0).all()


def test_format_table_renders(t1):
    s = format_table(t1)
    assert "Dataset" in s and "KIEL" in s
