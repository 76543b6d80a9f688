"""Mergeable sketches: Misra-Gries heavy hitters."""

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
