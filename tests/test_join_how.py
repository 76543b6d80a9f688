"""hash_partition_join `how` completeness vs DuckDB on skewed keyed
data with NULL keys: inner/left/right/outer plus SQL-semantics
semi/anti, and salted-path equivalence for the salt-safe hows; plus
the broadcast_join path the driver queries use."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.functions.joins import (broadcast_join,
                                                     hash_partition_join,
                                                     join)

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def frames():
    rng = np.random.RandomState(3)
    # zipf-ish left: key 7 is hot; a few NULL keys on each side
    lk = rng.choice([1, 2, 3, 5, 7, 7, 7, 7, 9, 11], size=400).astype(float)
    lk[:5] = np.nan
    left = pd.DataFrame({"k": lk, "lv": np.arange(400, dtype=np.int64)})
    rk = rng.choice([2, 3, 4, 7, 9, 10], size=120).astype(float)
    rk[:3] = np.nan
    right = pd.DataFrame({"k": rk, "rv": np.arange(120, dtype=np.int64)})
    return left, right


def _duck(left, right, how):
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    if how in ("semi", "anti"):
        kw = "SEMI" if how == "semi" else "ANTI"
        q = f"SELECT l.* FROM l {kw} JOIN r ON l.k = r.k"
    else:
        kw = {"inner": "INNER", "left": "LEFT", "right": "RIGHT",
              "outer": "FULL OUTER"}[how]
        q = f"SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l {kw} JOIN r ON l.k = r.k"
    return con.sql(q).df()


def _norm(df):
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        df[c] = df[c].astype(float)
    return df.sort_values(list(df.columns)).reset_index(drop=True) \
        .fillna(-1e18)


def _run(left, right, how, **kw):
    out = hash_partition_join(rd.from_pandas(left), rd.from_pandas(right),
                              on="k", num_buckets=8, how=how, **kw)
    return out.to_pandas()


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
def test_equality_hows_match_duckdb_on_nonnull_keys(frames, how):
    # pandas merge joins NaN==NaN, SQL does not: compare on the
    # non-null-key subset where the semantics agree (the NaN behavior
    # is documented on the function)
    left, right = frames
    ln = left[left.k.notna()]
    rn = right[right.k.notna()]
    got = _norm(_run(ln, rn, how))
    want = _norm(_duck(ln, rn, how))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("how", ["semi", "anti"])
def test_semi_anti_match_sql_null_semantics(frames, how):
    # full frames INCLUDING null keys: semi/anti use EXISTS semantics,
    # so DuckDB is the oracle verbatim
    left, right = frames
    got = _norm(_run(left, right, how))
    want = _norm(_duck(left, right, how))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_salted_path_equals_unsalted(frames, how):
    left, right = frames
    ln = left[left.k.notna()]
    rn = right[right.k.notna()]
    plain = _norm(_run(ln, rn, how))
    salted = _norm(_run(ln, rn, how, hot_keys={7.0}, n_salts=4))
    pd.testing.assert_frame_equal(salted, plain, check_dtype=False)


def test_salted_outer_rejected(frames):
    left, right = frames
    with pytest.raises(ValueError):
        _run(left, right, "outer", hot_keys={7.0})
    with pytest.raises(ValueError):
        _run(left, right, "bogus")


@pytest.mark.usefixtures("ray_session")
class TestCompositeKeyJoin:
    def _sides(self):
        rng = np.random.RandomState(9)
        left = pd.DataFrame({
            "k1": rng.randint(0, 20, 400),
            "k2": rng.choice(["x", "y", "z"], 400),
            "lval": np.arange(400)})
        right = pd.DataFrame({
            "k1": rng.randint(0, 20, 300),
            "k2": rng.choice(["x", "y", "z", "w"], 300),
            "rval": np.arange(300) * 10})
        return left, right

    @pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
    def test_matches_pandas(self, how):
        from osm_sidewalkreator_ray.functions.joins import (
            hash_partition_join)
        left, right = self._sides()
        got = hash_partition_join(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(4),
            on=["k1", "k2"], how=how, num_buckets=7).to_pandas()
        want = left.merge(right, on=["k1", "k2"], how=how)
        key = ["k1", "k2", "lval", "rval"]
        got = got.sort_values(key).reset_index(drop=True)[want.columns]
        want = want.sort_values(key).reset_index(drop=True)
        assert len(got) == len(want), how
        for c in want.columns:
            pd.testing.assert_series_equal(
                got[c].astype("float64", errors="ignore"),
                want[c].astype("float64", errors="ignore"),
                check_dtype=False, obj=c)

    def test_swapped_tuple_does_not_match(self):
        # (a, b) on the left must not meet (b, a) on the right
        from osm_sidewalkreator_ray.functions.joins import (
            hash_partition_join)
        left = pd.DataFrame({"k1": [1, 2], "k2": [2, 1], "lval": [0, 1]})
        right = pd.DataFrame({"k1": [2, 1], "k2": [1, 2], "rval": [7, 8]})
        got = hash_partition_join(rd.from_pandas(left),
                                  rd.from_pandas(right),
                                  on=["k1", "k2"], how="inner").to_pandas()
        assert got["k1"].tolist() == sorted(got["k1"].tolist())
        want = left.merge(right, on=["k1", "k2"])
        assert len(got) == len(want) == 2  # (1,2)x(1,2) and (2,1)x(2,1)

    def test_composite_semi_and_salting_raise(self):
        from osm_sidewalkreator_ray.functions.joins import (
            hash_partition_join)
        left, right = self._sides()
        l, r = rd.from_pandas(left), rd.from_pandas(right)
        with pytest.raises(ValueError):
            hash_partition_join(l, r, on=["k1", "k2"], how="semi")
        with pytest.raises(ValueError):
            hash_partition_join(l, r, on=["k1", "k2"], hot_keys={1})


# ------------------------------------------------ unified join facade


class TestJoinFacade:
    """`join()` picks the physical plan from shape metadata and every
    plan produces the same rows as the DuckDB oracle."""

    def _frames(self):
        rng = np.random.RandomState(11)
        left = pd.DataFrame({
            "k": rng.randint(0, 40, 600).astype(np.int64),
            "lv": np.arange(600, dtype=np.int64)})
        right = pd.DataFrame({
            "k": np.arange(0, 50, 2, dtype=np.int64),
            "rv": np.arange(25, dtype=np.int64) * 10})
        return left, right

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_broadcast_right_matches_duckdb(self, how):
        left, right = self._frames()
        plan = {}
        out = join(rd.from_pandas(left), right, on="k", how=how,
                   plan_out=plan).to_pandas()
        assert plan["strategy"] == "broadcast_right"
        got = _norm(out)
        want = _norm(_duck(left, right, how))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    @pytest.mark.parametrize("how", ["inner", "right"])
    def test_broadcast_left_matches_duckdb(self, how):
        left, right = self._frames()
        plan = {}
        # lazy right side: only the pandas left can broadcast
        rds = rd.from_pandas(right).map_batches(lambda b: b,
                                                batch_format="pandas")
        out = join(left, rds, on="k", how=how,
                   plan_out=plan).to_pandas()
        assert plan["strategy"] == "broadcast_left"
        got = _norm(out)
        want = _norm(_duck(left, right, how))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_lazy_sides_choose_hash_partition(self):
        left, right = self._frames()
        # lazy (non-materialized) datasets must NEVER be counted or
        # broadcast — presumed big
        lds = rd.from_pandas(left).map_batches(lambda b: b,
                                               batch_format="pandas")
        rds = rd.from_pandas(right).map_batches(lambda b: b,
                                                batch_format="pandas")
        plan = {}
        out = join(lds, rds, on="k", how="outer", plan_out=plan)
        assert plan["strategy"] == "hash_partition"
        got = _norm(out.to_pandas())
        want = _norm(_duck(left, right, "outer"))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_bloom_path_when_one_side_materialized(self):
        left, right = self._frames()
        lds = rd.from_pandas(left).map_batches(
            lambda b: b, batch_format="pandas")  # lazy big side
        rds = rd.from_pandas(right).materialize()
        # force it over the broadcast gate so the bloom branch decides
        plan = {}
        out = join(lds, rds, on="k", how="inner",
                   broadcast_max_rows=0, runtime_filter="force",
                   plan_out=plan)
        assert plan["strategy"] == "bloom+hash_partition"
        got = _norm(out.to_pandas())
        want = _norm(_duck(left, right, "inner"))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_force_raises_when_shape_disallows(self):
        left, right = self._frames()
        lds = rd.from_pandas(left).map_batches(lambda b: b,
                                               batch_format="pandas")
        rds = rd.from_pandas(right).map_batches(lambda b: b,
                                                batch_format="pandas")
        with pytest.raises(ValueError):
            join(lds, rds, on="k", how="inner", broadcast_max_rows=0,
                 runtime_filter="force")

    def test_materialized_small_side_broadcasts(self):
        left, right = self._frames()
        lds = rd.from_pandas(left).map_batches(lambda b: b,
                                               batch_format="pandas")
        rds = rd.from_pandas(right).materialize()
        plan = {}
        out = join(lds, rds, on="k", how="inner", plan_out=plan)
        assert plan["strategy"] == "broadcast_right"
        got = _norm(out.to_pandas())
        want = _norm(_duck(left, right, "inner"))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_auto_buckets_scale_with_metadata(self):
        import ray
        from osm_sidewalkreator_ray.functions.joins import _auto_buckets
        left, right = self._frames()
        lds = rd.from_pandas(left).materialize()
        rds = rd.from_pandas(right).materialize()
        n = _auto_buckets(lds, rds)
        cpus = int(ray.cluster_resources().get("CPU", 8))
        assert n == max(8, cpus * 2)  # tiny inputs -> CPU floor
        # a known-big materialized side raises the count: 10 GiB at
        # 256 MiB/bucket = 40 > the CPU floor on the test session
        class FakeMat(rd.dataset.MaterializedDataset):
            def __init__(self):  # bypass Dataset construction
                # no executor, so Dataset.__del__ has nothing to shut down
                self._current_executor = None

            def size_bytes(self):
                return 10 << 30
        assert _auto_buckets(FakeMat(), rds) >= 40
        # lazy sides are never asked: CPU floor only
        lazy = rd.from_pandas(left).map_batches(lambda b: b,
                                                batch_format="pandas")
        assert _auto_buckets(lazy, lazy) == max(8, cpus * 2)

    def test_hot_key_detect_path_matches_plain(self):
        rng = np.random.RandomState(5)
        # one zipf-head key carrying >20% of rows
        lk = np.where(rng.random(800) < 0.4, 7,
                      rng.randint(0, 50, 800)).astype(np.int64)
        left = pd.DataFrame({"k": lk,
                             "lv": np.arange(800, dtype=np.int64)})
        right = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                              "rv": np.arange(50, dtype=np.int64)})
        lds = rd.from_pandas(left).map_batches(lambda b: b,
                                               batch_format="pandas")
        rds = rd.from_pandas(right).map_batches(lambda b: b,
                                                batch_format="pandas")
        plan = {}
        out = join(lds, rds, on="k", how="inner", hot_keys="detect",
                   runtime_filter="off", plan_out=plan).to_pandas()
        assert plan["strategy"] == "hash_partition"
        assert 7 in plan["hot_keys"]
        want = _norm(_duck(left, right, "inner"))
        pd.testing.assert_frame_equal(_norm(out), want,
                                      check_dtype=False)


def test_broadcast_join_matches_pandas_and_gates():
    rng = np.random.RandomState(0)
    big = pd.DataFrame({"k": rng.randint(0, 20, 5000),
                        "v": rng.uniform(size=5000)})
    small = pd.DataFrame({"k": np.arange(10),
                          "name": [f"n{i}" for i in range(10)]})
    got = (broadcast_join(rd.from_pandas(big).repartition(4),
                          small, left_on="k").to_pandas()
           .sort_values(["k", "v"]).reset_index(drop=True))
    ref = (big.merge(small, on="k")
           .sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, ref)
    left = (broadcast_join(rd.from_pandas(big), small,
                           left_on="k", how="left").to_pandas())
    assert len(left) == len(big)
    with pytest.raises(ValueError):
        broadcast_join(rd.from_pandas(big), big, left_on="k",
                       max_small_rows=100)
