"""Tests for the DuckDB oracle itself (it must catch wrong results)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.oracle import assert_equivalent


@pytest.fixture()
def small(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    return pdf, spark.createDataFrame(pdf)


def test_oracle_accepts_correct_aggregate(small, spark):
    pdf, df = small
    out = df.groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(out, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_wrong_aggregate(small, spark):
    pdf, df = small
    wrong = df.groupBy("k").agg((F.sum("v") + 1).alias("s"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_column_mismatch(small, spark):
    pdf, df = small
    out = df.groupBy("k").agg(F.sum("v").alias("wrong_name"))
    with pytest.raises(AssertionError):
        assert_equivalent(out, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_ignores_row_and_column_order(small, spark):
    pdf, df = small
    out = df.groupBy("k").agg(F.sum("v").alias("s")).select("s", "k").orderBy(F.desc("k"))
    assert_equivalent(out, "SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY k", t=pdf)


def test_oracle_accepts_spark_input_tables(small, spark):
    _, df = small
    out = df.groupBy("k").agg(F.count(F.lit(1)).alias("n"))
    assert_equivalent(out, "SELECT k, count(*) AS n FROM t GROUP BY k", t=df)


def test_oracle_median_semantics(spark):
    """Spark and DuckDB agree on interpolated medians (used by graphgen)."""
    pdf = pd.DataFrame({"k": [1, 1, 1, 1], "v": [1.0, 2.0, 3.0, 10.0]})
    df = spark.createDataFrame(pdf)
    out = df.groupBy("k").agg(F.median("v").alias("m"))
    assert_equivalent(out, "SELECT k, median(v) AS m FROM t GROUP BY k", t=pdf)
