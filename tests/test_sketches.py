"""Mergeable sketches: Misra-Gries heavy hitters, Count-Min, corpus
JS divergence and HLL set operations."""

import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.functions.sketches import (
    _mg_compress, mg_heavy_hitters)


def test_mg_compress_invariants():
    v = np.array(list("abcdef"), dtype=object)
    c = np.array([100, 50, 40, 3, 2, 1], dtype=np.int64)
    kv, kc, err = _mg_compress(v, c, 3)
    # survivors are the top-3 minus the 4th count; err = that count
    assert err == 3
    assert dict(zip(kv, kc)) == {"a": 97, "b": 47, "c": 37}
    # no-op when already within k
    kv2, kc2, e2 = _mg_compress(kv, kc, 8)
    assert e2 == 0 and len(kv2) == 3


@pytest.mark.usefixtures("ray_session")
def test_mg_heavy_hitters_guarantee():
    import ray.data as rd
    rng = np.random.RandomState(0)
    # zipf-ish: token_i appears ~ 5000/i times
    toks = np.concatenate([np.full(5000 // (i + 1), f"t{i}")
                           for i in range(200)])
    rng.shuffle(toks)
    ds = rd.from_pandas(pd.DataFrame({"tok": toks})).repartition(8)
    got = mg_heavy_hitters(ds, "tok", k_counters=64, topk=10)
    exact = pd.Series(toks).value_counts()
    # every true count is inside [count_low, count_high]
    for _, r in got.iterrows():
        t = int(exact[r["value"]])
        assert r["count_low"] <= t <= r["count_high"], r["value"]
    # the unambiguous heavy items all survive
    assert {"t0", "t1", "t2", "t3"} <= set(got["value"])
    assert int(got["n_total"].iloc[0]) == len(toks)


@pytest.mark.usefixtures("ray_session")
def test_mg_matches_exact_topk_on_documents():
    """On the documents corpus, MG top-5 tokens == the exact groupby
    top-5 (well-separated counts at this scale)."""
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines.textops import token_topk
    sf = "/root/testdata/sf0.01"
    exact = token_topk(sf, k=5)
    ds = rd.read_parquet(f"{sf}/documents.parquet", columns=["text"])
    got = mg_heavy_hitters(ds, "text", k_counters=512, topk=5,
                           split_tokens=True)
    assert list(got["value"]) == list(exact.iloc[:, 0])


@pytest.mark.usefixtures("ray_session")
def test_mg_heavy_hitters_grouped():
    import ray.data as rd
    from osm_sidewalkreator_ray.functions.sketches import (
        mg_heavy_hitters_by)
    rng = np.random.RandomState(9)
    rows = []
    for g in ("en", "de"):
        # per-group head token carries 40% of that group's rows
        toks = np.where(rng.rand(8000) < 0.4, f"{g}_head",
                        np.array([f"{g}_t{i}" for i in
                                  rng.randint(0, 300, 8000)]))
        rows.append(pd.DataFrame({"lang": g, "tok": toks}))
    df = pd.concat(rows, ignore_index=True).sample(
        frac=1.0, random_state=1).reset_index(drop=True)
    ds = rd.from_pandas(df).repartition(8)
    got = mg_heavy_hitters_by(ds, "lang", "tok", k_counters=64, topk=3)
    for g in ("en", "de"):
        sub = got[got["lang"] == g]
        assert sub["value"].iloc[0] == f"{g}_head"
        true = int((df.loc[df["lang"] == g, "tok"] == f"{g}_head").sum())
        assert sub["count_low"].iloc[0] <= true <= sub["count_high"].iloc[0]


@pytest.mark.usefixtures("ray_session")
class TestCountMin:
    def test_never_undercounts_and_bounded_overcount(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.sketches import \
            count_min, cm_estimate
        rng = np.random.RandomState(6)
        keys = rng.zipf(1.3, 200_000).astype(np.int64) % 10_000
        ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(8)
        sk = count_min(ds, "k", width=16384, depth=5)
        true = pd.Series(keys).value_counts()
        probe = true.index.to_numpy()[:500]
        est = cm_estimate(sk, probe)
        tr = true.loc[probe].to_numpy()
        assert (est >= tr).all()          # CM never undercounts
        # eps ~ e/width -> overcount <= ~3 * e*N/width w.h.p.
        bound = 3 * np.e * len(keys) / 16384
        assert (est - tr).max() <= bound

    def test_merge_equals_single_pass(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.sketches import count_min
        df = pd.DataFrame({"k": np.arange(50_000) % 1000})
        one = count_min(rd.from_pandas(df).repartition(1), "k")
        many = count_min(rd.from_pandas(df).repartition(16), "k")
        assert np.array_equal(one, many)


@pytest.mark.usefixtures("ray_session")
class TestHLLSetOps:
    def test_union_intersection_estimates(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.aggregates import (
            hll_intersection_count, hll_sketch, hll_union_count)
        a_vals = np.arange(0, 60000, dtype=np.int64)
        b_vals = np.arange(40000, 100000, dtype=np.int64)
        sa = hll_sketch(rd.from_pandas(pd.DataFrame({"v": a_vals}))
                        .repartition(4), "v")
        sb = hll_sketch(rd.from_pandas(pd.DataFrame({"v": b_vals})),
                        "v")
        u = hll_union_count(sa, sb)
        i = hll_intersection_count(sa, sb)
        assert abs(u - 100000) / 100000 < 0.05
        assert abs(i - 20000) / 20000 < 0.25  # compounded error band
        # disjoint sets: intersection clamps near zero
        sc = hll_sketch(rd.from_pandas(pd.DataFrame(
            {"v": np.arange(200000, 260000, dtype=np.int64)})), "v")
        assert hll_intersection_count(sa, sc) < 6000
