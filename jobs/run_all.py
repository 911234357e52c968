"""Run the table/figure harnesses at bench scale in one session.

Sharing one ``Lab`` lets the harnesses reuse dataset builds, model fits and
evaluation passes (e.g., Table 2's fitted models also serve Table 4 and
Figure 5). Output of this job is what EXPERIMENTS.md records.

Usage: ``python jobs/run_all.py [SECTION ...]``, where a section is the name
of its harness in ``repro.eval.tables`` (``table1`` … ``fig7_gap_durations``);
all sections run, in the order below, when none is named. ``REPRO_SF``
overrides the scale.
"""
import sys
import time

from _common import bench_sf, get_spark

from repro.eval.tables import (
    Lab,
    fig3_projection,
    fig5_accuracy,
    fig7_gap_durations,
    format_table,
    table1,
    table2,
    table3,
    table4,
)

#: Section name -> (title, harness, float format).
SECTIONS = {
    fn.__name__: (title, fn, fmt)
    for title, fn, fmt in [
        ("Table 1: Characteristics of the AIS datasets", table1, "{:.2f}"),
        ("Table 2: Framework storage size (MB)", table2, "{:.3f}"),
        ("Table 3: Effect of simplification (DAN; t=-1 is Original)", table3, "{:.2f}"),
        ("Table 4: Avg and max query latency (sec)", table4, "{:.4f}"),
        ("Figure 3 (shape): DTW by resolution and projection p [DAN]", fig3_projection, "{:.1f}"),
        ("Figure 5 (shape): DTW accuracy, 60-min gaps", fig5_accuracy, "{:.1f}"),
        ("Figure 7 (shape): HABIT DTW by gap duration", fig7_gap_durations, "{:.1f}"),
    ]
}


def main(names: list[str]) -> None:
    """Print the named sections (all when ``names`` is empty)."""
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        raise SystemExit(f"unknown section {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    spark = get_spark("run_all")
    spark.sparkContext.setLogLevel("ERROR")
    lab = Lab(spark, sf=bench_sf())
    for name in names or SECTIONS:
        title, fn, fmt = SECTIONS[name]
        t0 = time.time()
        pdf = fn(lab)
        print(f"\n=== {title}  [sf={lab.sf}, {time.time() - t0:.1f}s] ===")
        print(format_table(pdf, floatfmt=fmt))
    spark.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
