"""Unit tests for shared function helpers: pairgen, blocks, joins."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.01"
SF_SMALL = "/root/testdata/sf0.001"


class TestPairsSharingKey:
    def test_basic_groups(self):
        from osm_sidewalkreator_ray.functions.pairgen import \
            pairs_sharing_key
        keys = np.array([5, 5, 5, 9, 9, 7])
        ids = np.array([30, 10, 20, 2, 1, 99])
        a, b = pairs_sharing_key(keys, ids)
        pairs = sorted(zip(a, b))
        assert pairs == [(1, 2), (10, 20), (10, 30), (20, 30)]

    def test_max_group_cap(self):
        from osm_sidewalkreator_ray.functions.pairgen import \
            pairs_sharing_key
        keys = np.array([1, 1, 1, 2, 2])
        ids = np.array([1, 2, 3, 4, 5])
        a, b = pairs_sharing_key(keys, ids, max_group=2)
        assert sorted(zip(a, b)) == [(4, 5)]  # size-3 group dropped

    def test_empty(self):
        from osm_sidewalkreator_ray.functions.pairgen import \
            pairs_sharing_key
        a, b = pairs_sharing_key(np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64))
        assert len(a) == 0 and len(b) == 0

    def test_matches_naive_groupby(self):
        from osm_sidewalkreator_ray.functions.pairgen import \
            pairs_sharing_key
        rng = np.random.RandomState(3)
        keys = rng.randint(0, 50, 500)
        ids = rng.permutation(500)
        a, b = pairs_sharing_key(keys, ids)
        df = pd.DataFrame({"k": keys, "i": ids})
        want = set()
        for _, sub in df.groupby("k"):
            s = np.sort(sub["i"].to_numpy())
            ii, jj = np.triu_indices(len(s), k=1)
            want |= set(zip(s[ii], s[jj]))
        assert set(zip(a, b)) == want


@pytest.mark.usefixtures("ray_session")
class TestCoalesceSlim:
    def test_coalesces_many_tiny_blocks(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.blocks import coalesce_slim
        ds = rd.range(10_000, override_num_blocks=200).materialize()
        out = coalesce_slim(ds)
        assert out.num_blocks() < 200
        assert out.count() == 10_000

    def test_noop_when_already_coarse(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.blocks import coalesce_slim
        ds = rd.range(1000, override_num_blocks=2).materialize()
        out = coalesce_slim(ds)
        assert out.num_blocks() == 2  # untouched


@pytest.mark.usefixtures("ray_session")
class TestJoinGroupFn:
    def test_group_fn_aggregate_pushdown_is_exact(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import \
            hash_partition_join
        left = rd.from_pandas(pd.DataFrame(
            {"k": [1, 1, 2, 3], "l": [10, 11, 20, 30]}))
        right = rd.from_pandas(pd.DataFrame(
            {"k": [1, 2, 2, 4], "r": [1.0, 2.0, 2.5, 4.0]}))

        def agg(df):
            return df.groupby("k", as_index=False)["r"].sum()

        out = hash_partition_join(left, right, on="k", num_buckets=4,
                                  group_fn=agg).to_pandas()
        got = dict(zip(out["k"], out["r"]))
        # k=1: two left rows x r=1.0 -> 2.0; k=2: one left x (2+2.5)=4.5
        assert got == {1: 2.0, 2: 4.5}


@pytest.mark.usefixtures("ray_session")
class TestHyperLogLog:
    def test_error_within_bound(self):
        import duckdb
        from osm_sidewalkreator_ray.pipelines.relational import \
            events_user_count_approx
        est = events_user_count_approx(
            SF)["approx_users"].iloc[0]
        exact = duckdb.sql(
            "SELECT COUNT(DISTINCT user_id) FROM "
            f"'{SF}/events.parquet'").fetchone()[0]
        assert abs(est - exact) / exact < 0.05  # ~3 sigma at b=12

    def test_merge_equals_single_pass(self):
        # mergeability: sketch of the union == max-merge of partials
        from osm_sidewalkreator_ray.functions.aggregates import (
            _hll_estimate, _hll_registers)
        a = np.arange(0, 60_000, dtype=np.int64)
        b_ = np.arange(40_000, 100_000, dtype=np.int64)
        merged = np.maximum(_hll_registers(a, 12), _hll_registers(b_, 12))
        single = _hll_registers(np.arange(100_000, dtype=np.int64), 12)
        assert np.array_equal(merged, single)
        est = _hll_estimate(single)
        assert abs(est - 100_000) / 100_000 < 0.05

    def test_estimate_rounds_half_away(self, monkeypatch):
        # 2.25 is exactly representable: half-to-even rounding gives
        # 2.2, the oracle's DuckDB ROUND gives 2.3
        from osm_sidewalkreator_ray.functions import aggregates
        from osm_sidewalkreator_ray.pipelines.relational import \
            events_user_count_approx
        monkeypatch.setattr(aggregates, "hll_distinct",
                            lambda *a, **k: 2.25)
        got = events_user_count_approx(SF_SMALL)["approx_users"].iloc[0]
        assert got == 2.3
        assert aggregates._round_half_away(
            np.array([2.25, -2.25]), 1).tolist() == [2.3, -2.3]

    def test_deterministic(self):
        from osm_sidewalkreator_ray.pipelines.relational import \
            events_user_count_approx
        e1 = events_user_count_approx(SF_SMALL)
        e2 = events_user_count_approx(SF_SMALL)
        pd.testing.assert_frame_equal(e1, e2)

    def test_grouped_sketch_error_bound(self):
        import duckdb
        from osm_sidewalkreator_ray.pipelines.relational import \
            events_user_count_approx_by_type
        got = events_user_count_approx_by_type(SF)
        # the grouped export leads with the global sketch as '*'
        total_row = got[got["event_type"] == "*"]
        assert len(total_row) == 1
        got = got[got["event_type"] != "*"].reset_index(drop=True)
        exact = duckdb.sql(
            "SELECT event_type, COUNT(DISTINCT user_id) AS n FROM "
            f"'{SF}/events.parquet' "
            "GROUP BY event_type ORDER BY event_type").df()
        assert list(got["event_type"]) == list(exact["event_type"])
        rel = np.abs(got["approx_distinct"].to_numpy()
                     - exact["n"].to_numpy()) / exact["n"].to_numpy()
        assert (rel < 0.05).all()
        exact_total = duckdb.sql(
            "SELECT COUNT(DISTINCT user_id) AS n FROM "
            f"'{SF}/events.parquet'").df()["n"].iloc[0]
        assert abs(float(total_row["approx_distinct"].iloc[0])
                   - exact_total) / exact_total < 0.05


@pytest.mark.usefixtures("ray_session")
def test_bloom_prefilter_no_false_negatives():
    """Runtime-filter pushdown: survivors superset of true matches;
    join output unchanged; big non-matching majority dropped."""
    import ray.data as rd
    import numpy as np
    import pandas as pd
    from osm_sidewalkreator_ray.functions.joins import (
        bloom_prefilter, build_key_bloom, _bloom_contains,
        hash_partition_join)

    rng = np.random.RandomState(5)
    keys = rng.choice(100_000, 500, replace=False).astype(np.int64)
    small = rd.from_pandas(pd.DataFrame(
        {"k": keys, "attr": np.arange(500)})).materialize()
    big_df = pd.DataFrame({"k": np.arange(100_000, dtype=np.int64),
                           "v": np.arange(100_000)})
    big = rd.from_pandas(big_df).repartition(8)

    filtered = bloom_prefilter(big, small, on="k")
    n_kept = filtered.count()
    # all 500 true matches survive; FPR keeps the reduction large
    kept = set(filtered.to_pandas()["k"])
    assert set(keys) <= kept
    assert n_kept < 5_000, n_kept  # >95% of non-matches dropped

    out = hash_partition_join(filtered, small, on="k",
                              num_buckets=8).to_pandas()
    expect = big_df.merge(pd.DataFrame({"k": keys,
                                        "attr": np.arange(500)}), on="k")
    assert len(out) == len(expect) == 500
    assert set(out["k"]) == set(keys)

    # membership kernel: no false negatives by construction
    bloom = build_key_bloom(small, "k")
    assert _bloom_contains(pd.Series(keys), bloom).all()


@pytest.mark.usefixtures("ray_session")
def test_salted_hash_join_equals_unsalted():
    """Hot-key salting: identical join output, hot key spread over
    dedicated salt buckets instead of one reducer."""
    import ray.data as rd
    import numpy as np
    import pandas as pd
    from osm_sidewalkreator_ray.functions.joins import (
        detect_hot_keys, hash_partition_join)

    rng = np.random.RandomState(11)
    # zipf head: key 7 carries half the rows
    k = np.where(rng.rand(20_000) < 0.5, 7,
                 rng.randint(0, 1000, 20_000)).astype(np.int64)
    left = pd.DataFrame({"k": k, "v": np.arange(20_000)})
    right = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                          "w": np.arange(1000) * 10})
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(2)

    hot = detect_hot_keys(lds, "k", frac=0.2)
    assert hot == {7}

    expect = left.merge(right, on="k").sort_values(
        ["k", "v"]).reset_index(drop=True)
    for hk in (None, hot):
        got = hash_partition_join(
            rd.from_pandas(left).repartition(8), rds, on="k",
            num_buckets=8, hot_keys=hk).to_pandas()
        got = got.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["k", "v", "w"]], expect)

    # left-join form keeps unmatched hot rows exactly once
    left2 = left.copy()
    left2.loc[left2.index[:5], "k"] = 5000  # no right match
    got = hash_partition_join(
        rd.from_pandas(left2).repartition(8), rds, on="k",
        num_buckets=8, how="left", hot_keys={7}).to_pandas()
    assert len(got) == len(left2)


@pytest.mark.usefixtures("ray_session")
class TestJoinStreamsIntoShuffle:
    """Round-4 verdict item 1: the partitioned hash join must stream
    into its shuffle — no full-input materialize/repartition epoch
    ahead of the sort."""

    def test_no_repartition_or_materialize_in_plan(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import hash_partition_join
        l = rd.range(5000).map_batches(
            lambda t: t.rename_columns(["k"]), batch_format="pyarrow")
        r = rd.range(5000).map_batches(
            lambda t: t.rename_columns(["k"]).append_column(
                "w", t["id"]), batch_format="pyarrow")
        out = hash_partition_join(l, r, on="k", num_buckets=8).materialize()
        assert out.count() == 5000
        st = out.stats()
        assert "Repartition" not in st
        # exactly one all-to-all (the groupby sort), nothing pinned ahead
        assert "Sort" in st

    def test_lazy_pass_through_coalesce(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.blocks import coalesce_slim
        ds = rd.range(10_000, override_num_blocks=100)  # LAZY
        out = coalesce_slim(ds)
        assert out is ds  # never forces execution on a lazy stream

    def test_int_dtypes_survive_join_exactly(self):
        import pyarrow as pa
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import hash_partition_join
        big = 2**53 + 111  # corrupted by any float64 round-trip
        lt = pa.table({
            "k": pa.array([1, 2, 3, big], type=pa.int64()),
            "a32": pa.array([10, 20, 30, 40], type=pa.int32()),
            "u64": pa.array([2**63 + 5, 7, 8, 9], type=pa.uint64())})
        rt = pa.table({"k": pa.array([2, 3, big], type=pa.int64()),
                       "b": pa.array([200, 300, 999], type=pa.int64())})
        out = hash_partition_join(rd.from_arrow(lt), rd.from_arrow(rt),
                                  on="k", num_buckets=4).to_pandas()
        out = out.sort_values("k").reset_index(drop=True)
        assert out["k"].tolist() == [2, 3, big]
        assert out["a32"].dtype == np.int32
        assert out["u64"].dtype == np.uint64
        assert out.loc[2, "u64"] == 9


@pytest.mark.usefixtures("ray_session")
def test_bloom_dtype_mismatch_no_false_negatives():
    """ADVICE r3: a float64 probe side against an int64 build side
    must not silently drop true matches (hash_array is
    dtype-sensitive; both sides now cast to the build key type)."""
    import ray.data as rd
    from osm_sidewalkreator_ray.functions.joins import bloom_prefilter
    keys = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(100, dtype=np.int64)}))
    probe = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(200).astype(np.float64)}))
    surv = set(bloom_prefilter(probe, keys, on="k").to_pandas()["k"])
    assert set(np.arange(100).astype(float)).issubset(surv)


@pytest.mark.usefixtures("ray_session")
class TestNewOpsEmptyInputs:
    """Ray Data can deliver empty datasets/blocks (e.g. downstream of
    a filter); every r4 op must return its typed empty result."""

    def test_graph_ops_empty(self):
        from osm_sidewalkreator_ray.functions.graph import (
            connected_components, min_label_components)
        e = pd.DataFrame({"src": [], "dst": []}).astype("int64")
        got = connected_components(e)
        assert len(got) == 0
        assert got.dtypes.to_dict() == {"vertex": np.dtype("int64"),
                                        "component": np.dtype("int64")}
        pd.testing.assert_frame_equal(
            got, min_label_components(e["src"], e["dst"]))


@pytest.mark.usefixtures("ray_session")
class TestMergeInto:
    def test_upsert_insert_delete_vs_sql(self):
        import duckdb
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import merge_into
        base = pd.DataFrame({"k": [1, 2, 3, 4],
                             "v": ["a", "b", "c", "d"]})
        upd = pd.DataFrame({"k": [2, 5, 3],
                            "v": ["B", "E", None],
                            "is_del": [False, False, True]})
        got = merge_into(rd.from_pandas(base), rd.from_pandas(upd),
                         on="k", delete_col="is_del").to_pandas() \
            .sort_values("k").reset_index(drop=True)
        c = duckdb.connect()
        c.register("base", base)
        c.register("upd", upd)
        want = c.sql("""
            SELECT k, v FROM base WHERE k NOT IN (SELECT k FROM upd)
            UNION ALL
            SELECT k, v FROM upd WHERE NOT is_del
            ORDER BY k""").df()
        assert got["k"].tolist() == want["k"].tolist()
        assert got["v"].tolist() == want["v"].tolist()

    def test_pure_upsert_without_delete_col(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import merge_into
        base = pd.DataFrame({"k": [1, 2], "v": [10, 20]})
        upd = pd.DataFrame({"k": [2, 3], "v": [99, 30]})
        got = merge_into(rd.from_pandas(base), rd.from_pandas(upd),
                         on="k").to_pandas().sort_values("k")
        assert got["v"].tolist() == [10, 99, 30]


def test_no_library_module_calls_ray_init():
    """Driver contract: the driver owns the Ray session — no library
    module (or __ray_entry__) may call ray.init()/shutdown()."""
    import ast
    import pathlib
    root = pathlib.Path("/root/repo")
    files = list((root / "osm_sidewalkreator_ray").rglob("*.py"))
    files.append(root / "__ray_entry__.py")
    offenders = []
    for f in files:
        tree = ast.parse(f.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("init", "shutdown")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("ray", "_ray")):
                offenders.append(f"{f.name}:{node.lineno}")
    assert not offenders, offenders


@pytest.mark.usefixtures("ray_session")
class TestSkewReport:
    def test_block_and_key_skew(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.stats import skew_report
        # 10k rows, one key holds 60%
        k = np.concatenate([np.zeros(6000, dtype=np.int64),
                            np.arange(1, 4001, dtype=np.int64)])
        df = pd.DataFrame({"k": k, "v": np.arange(10000)})
        rep = skew_report(rd.from_pandas(df).repartition(8), key="k")
        b = rep["blocks"].iloc[0]
        assert b["rows_total"] == 10000
        assert b["n_blocks"] == 8
        hot = rep["hot_keys"]
        assert int(hot.iloc[0]["value"]) == 0
        assert hot.iloc[0]["share"] >= 0.55
        assert hot.iloc[0]["count_low"] <= 6000 \
            <= hot.iloc[0]["count_high"]

    def test_no_key_and_empty(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.stats import skew_report
        df = pd.DataFrame({"x": np.arange(100)})
        rep = skew_report(rd.from_pandas(df))
        assert rep["hot_keys"] is None
        assert rep["blocks"].iloc[0]["rows_total"] == 100
        empty = rd.from_pandas(df).filter(lambda r: r["x"] < 0)
        rep2 = skew_report(empty)
        assert rep2["blocks"].iloc[0]["rows_total"] == 0
