"""Spark batch inference: timestamps, the broadcast's lifecycle, the
worker-side zip-finder helper and degenerate gap tables."""
import importlib
import pickle
import sys
import uuid
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark import Broadcast, SparkContext

from repro.ais.datasets import REGION_OF, to_spark
from repro.ais.gaps import gaps_to_pandas
from repro.core.habit import _drop_zip_finders, interpolate_ts
from repro.geo.geodesy import haversine_m


@pytest.fixture(scope="module")
def kiel9(lab):
    return lab.habit("KIEL", 9, t=100.0)


@pytest.fixture(scope="module")
def kiel_gaps(lab):
    return lab.gaps("KIEL")


# -- timestamps --------------------------------------------------------------
def _pandas_ts(lon, lat, start_ts, end_ts) -> pd.DatetimeIndex:
    """The pandas timedelta arithmetic ``interpolate_ts`` replaced (oracle)."""
    if end_ts < start_ts:
        raise ValueError("gap ends before it starts")
    seg = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    frac = cum / cum[-1] if cum[-1] > 0 else np.linspace(0.0, 1.0, lon.size)
    span = (end_ts - start_ts).total_seconds()
    return start_ts + pd.to_timedelta(np.round(frac * span, 3), unit="s")


NS_2000, NS_2040 = pd.Timestamp("2000-01-01").value, pd.Timestamp("2040-01-01").value
DAY_NS = 86_400 * 10**9


@st.composite
def _paths(draw):
    n = draw(st.integers(1, 25))
    coord = st.floats(-0.5, 0.5, allow_nan=False)
    if draw(st.booleans()):  # zero length: every vertex on one spot
        lon, lat = np.full(n, draw(coord)), np.full(n, draw(coord))
    else:
        lon = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
        lat = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    return 24.0 + lon, 37.5 + lat


@given(
    path=_paths(),
    start_ns=st.integers(NS_2000, NS_2040),  # sub-second parts down to the ns
    span_ns=st.one_of(st.integers(0, 4 * 3600 * 10**9), st.integers(0, 30 * DAY_NS)),
    tz=st.sampled_from([None, "UTC", "Europe/Athens"]),
)
@settings(max_examples=400, deadline=None)
def test_interpolate_ts_equals_pandas_arithmetic(path, start_ns, span_ns, tz):
    lon, lat = path
    start = pd.Timestamp(start_ns, tz=tz)
    end = start + pd.Timedelta(span_ns, unit="ns")
    got = interpolate_ts(lon, lat, start, end)
    assert got.dtype == np.dtype("datetime64[ns]")
    np.testing.assert_array_equal(got.view("i8"), _pandas_ts(lon, lat, start, end).asi8)


@given(path=_paths(), start_ns=st.integers(NS_2000, NS_2040), back_ns=st.integers(1, DAY_NS))
@settings(max_examples=50, deadline=None)
def test_interpolate_ts_rejects_reversed_times(path, start_ns, back_ns):
    lon, lat = path
    start = pd.Timestamp(start_ns)
    with pytest.raises(ValueError, match="ends before it starts"):
        interpolate_ts(lon, lat, start, start - pd.Timedelta(back_ns, unit="ns"))


def test_impute_with_ts_keeps_the_start_zone(kiel9, kiel_gaps):
    g = kiel_gaps[0]
    start, end = (ts.tz_localize("Europe/Berlin") for ts in (g.start_ts, g.end_ts))
    got = kiel9.impute_with_ts(g.start_lon, g.start_lat, start, g.end_lon, g.end_lat, end)
    naive = kiel9.impute_with_ts(
        g.start_lon, g.start_lat, g.start_ts, g.end_lon, g.end_lat, g.end_ts
    )
    assert str(got["ts"].dt.tz) == "Europe/Berlin"
    assert got["ts"].iloc[0] == start and got["ts"].iloc[-1] == end
    assert (got["ts"].dt.tz_localize(None) == naive["ts"]).all()


# -- zip finders -------------------------------------------------------------
def _zip_finders() -> list[str]:
    return [p for p, f in sys.path_importer_cache.items() if isinstance(f, zipimport.zipimporter)]


@pytest.fixture
def zipped_modules(tmp_path, monkeypatch):
    """Two modules in a zip on ``sys.path``; the first one imported."""
    names = [f"zipped_{uuid.uuid4().hex}" for _ in range(2)]
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for name in names:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")
    monkeypatch.syspath_prepend(str(archive))
    importlib.invalidate_caches()
    importlib.import_module(names[0])
    yield str(archive), names
    for name in names:
        sys.modules.pop(name, None)
    _drop_zip_finders()


def test_drop_zip_finders_keeps_zipped_modules_importable(zipped_modules):
    archive, names = zipped_modules
    assert archive in _zip_finders()
    _drop_zip_finders()
    assert _zip_finders() == []
    sys.modules.pop(names[0])
    for name in names:
        assert importlib.import_module(name).NAME == name


def test_drop_zip_finders_leaves_nothing_to_reread(zipped_modules, monkeypatch):
    reads = []
    read_directory = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read_directory(path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    if sys.version_info < (3, 13):  # 3.13 re-reads lazily; see _drop_zip_finders
        importlib.invalidate_caches()
        assert zipped_modules[0] in reads
    _drop_zip_finders()
    reads.clear()
    importlib.invalidate_caches()
    assert reads == []


def test_drop_zip_finders_without_zip_finders_changes_nothing():
    _drop_zip_finders()
    before = dict(sys.path_importer_cache)
    _drop_zip_finders()
    assert sys.path_importer_cache == before


# -- the broadcast -----------------------------------------------------------
@pytest.fixture
def spied(monkeypatch):
    """Every ``SparkContext.broadcast`` made and ``Broadcast.unpersist`` call."""
    made, unpersisted = [], []
    broadcast, unpersist = SparkContext.broadcast, Broadcast.unpersist

    def spy_broadcast(sc, value):
        made.append(broadcast(sc, value))
        return made[-1]

    def spy_unpersist(bc, blocking=False):
        unpersisted.append(bc)
        unpersist(bc, blocking)

    monkeypatch.setattr(SparkContext, "broadcast", spy_broadcast)
    monkeypatch.setattr(Broadcast, "unpersist", spy_unpersist)
    return made, unpersisted


def _rows(out: pd.DataFrame) -> pd.DataFrame:
    return out.sort_values(["gap_id", "seq"]).reset_index(drop=True)


def test_batch_runs_share_one_broadcast(spark, lab, kiel_gaps, spied):
    made, unpersisted = spied
    h = lab.habit("KIEL", 9)
    gaps_df = to_spark(spark, gaps_to_pandas(kiel_gaps))
    first = _rows(h.impute_batch_spark(spark, gaps_df).toPandas())
    second = _rows(h.impute_batch_spark(spark, gaps_df).toPandas())
    assert len(made) == 1 and unpersisted == []
    assert h.broadcast(spark) is made[0]
    pd.testing.assert_frame_equal(first, second)


@pytest.mark.parametrize("change", ["p", "t"])
def test_new_p_or_t_makes_a_new_broadcast(spark, lab, spied, change):
    made, unpersisted = spied
    h = lab.habit("KIEL", 9, p="w", t=100.0)
    old = h.broadcast(spark)
    setattr(h, change, {"p": "c", "t": 250.0}[change])
    new = h.broadcast(spark)
    assert new is not old and made == [old, new] and unpersisted == [old]
    assert (new.value.p, new.value.t) == (h.p, h.t)


def test_refit_makes_a_new_broadcast_and_old_frames_still_evaluate(spark, lab, kiel_gaps, spied):
    made, unpersisted = spied
    h = lab.habit("KIEL", 9)
    gaps_df = to_spark(spark, gaps_to_pandas(kiel_gaps))
    before = h.impute_batch_spark(spark, gaps_df)  # not evaluated yet
    old = h.broadcast(spark)
    region = REGION_OF["KIEL"]
    train, _ = lab.train_test("KIEL")
    h.res = 8
    h.fit(to_spark(spark, train), lat0=region.lat0, lon0=region.lon0)
    after = h.impute_batch_spark(spark, gaps_df).toPandas()
    assert made[1:] == [h.broadcast(spark)] and made[0] is old and unpersisted == [old]

    want = {g.gap_id: lab.habit("KIEL", 9).impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
            for g in kiel_gaps}
    got = _rows(before.toPandas())
    assert set(got["gap_id"]) == set(want)
    for gap_id, rows in got.groupby("gap_id"):
        assert np.array_equal(rows["lon"].to_numpy(), want[gap_id].lon)
    assert len(after) == sum(
        h.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat).lon.size for g in kiel_gaps
    )


def test_pickle_carries_no_broadcast(spark, lab):
    h = lab.habit("KIEL", 9)
    plain = pickle.dumps(h)
    h.broadcast(spark)
    data = pickle.dumps(h)
    assert data == plain
    assert b"pyspark" not in data
    assert pickle.loads(data)._broadcast is None


# -- degenerate input --------------------------------------------------------
def test_batch_of_no_gaps_is_empty(spark, kiel9, kiel_gaps):
    gaps_df = to_spark(spark, gaps_to_pandas(kiel_gaps[:1])).limit(0)
    out = kiel9.impute_batch_spark(spark, gaps_df)
    assert out.schema.simpleString() == (
        "struct<gap_id:string,seq:bigint,lon:double,lat:double,ts:timestamp>"
    )
    pdf = out.toPandas()
    assert len(pdf) == 0 and list(pdf.columns) == ["gap_id", "seq", "lon", "lat", "ts"]
