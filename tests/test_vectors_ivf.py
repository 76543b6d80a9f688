import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall_vs_exact():
    from osm_sidewalkreator_ray.pipelines import vectors as V
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
            f"'{SF}/embeddings.parquet'")
    exact = set(con.sql(V.ANN_TOPK_SQL).df()["vec_id"])
    approx_df = V.ivf_topk(SF)
    assert len(approx_df) == 10
    # approximate: require recall@10 >= 0.5 on random vectors, and the
    # true nearest (vec_id 0 itself, sim 1.0) must always be found
    recall = len(exact & set(approx_df["vec_id"])) / 10
    assert recall >= 0.5
    assert 0 in set(approx_df["vec_id"])
    # deterministic
    import pandas as pd
    pd.testing.assert_frame_equal(approx_df, V.ivf_topk(SF))


@pytest.mark.usefixtures("ray_session")
def test_embedding_near_dups_exact_matches_numpy(tmp_path):
    """Block-pair exact variant == in-process numpy all-pairs, with the
    multi-block path forced (target_block_rows < n)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from osm_sidewalkreator_ray.pipelines import vectors as V

    rng = np.random.RandomState(7)
    emb = rng.standard_normal((150, 16))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(150) * 3 + 1, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in emb],
                              pa.list_(pa.float64()))})
    pq.write_table(tbl, f"{tmp_path}/embeddings.parquet")

    t = 0.3
    got = V.embedding_near_dups_exact(str(tmp_path), sim_threshold=t,
                                      target_block_rows=40)
    n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = n @ n.T
    ii, jj = np.triu_indices(len(emb), k=1)
    keep = sims[ii, jj] >= t
    ids = np.arange(150) * 3 + 1
    truth = {(int(ids[a]), int(ids[b])): round(float(sims[a, b]), 6)
             for a, b in zip(ii[keep], jj[keep])}
    got_pairs = {(int(a), int(b)): float(s) for a, b, s in
                 zip(got["vec_a"], got["vec_b"], got["cosine_sim"])}
    assert got_pairs == truth
    assert len(truth) > 0


@pytest.mark.usefixtures("ray_session")
def test_kmeans_matches_lloyd_reference():
    """Distributed k-means (streaming scatter-add partials, bucketed
    fold) == single-process Lloyd's with the same deterministic init,
    to float64 round-off; inertia is non-increasing."""
    import numpy as np
    import pandas as pd
    from osm_sidewalkreator_ray.pipelines import vectors as V

    ds = V._read_emb(SF, ["vec_id", "embedding"])
    fit = V.kmeans_fit_ds(ds, k=8, iters=6)

    df = pd.read_parquet(f"{SF}/embeddings.parquet").sort_values("vec_id")
    X = np.stack(df["embedding"].map(np.asarray).to_list()) \
        .astype(np.float64)
    C = X[:8].copy()
    for _ in range(6):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        lab = d2.argmin(1)
        for j in range(8):
            if (lab == j).any():
                C[j] = X[lab == j].mean(0)
    assert np.allclose(fit["centroids"], C, atol=1e-8)
    hist = fit["inertia"]
    assert all(a >= b - 1e-6 for a, b in zip(hist, hist[1:]))
    assert int(fit["counts"].sum()) == len(X)


@pytest.mark.usefixtures("ray_session")
def test_kmeans_empty_cluster_keeps_centroid():
    """A centroid that captures no points survives the update
    unchanged instead of collapsing to NaN."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines import vectors as V

    # duplicate init seeds: vec_ids 0 and 1 are the SAME point, so
    # every argmin tie resolves to cluster 0 and cluster 1 is empty
    # from iteration 1 on — it must keep its init centroid, not NaN.
    pts = np.concatenate([
        np.array([[0.0, 0.0], [0.0, 0.0]]), np.tile([1.0, 1.0], (8, 1))])
    tbl = pa.table({"vec_id": pa.array(range(len(pts)), pa.int64()),
                    "embedding": pa.array([list(map(float, p))
                                           for p in pts],
                                          pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    # after 1 iteration cluster 1 is empty: it must keep [0,0], not NaN
    fit1 = V.kmeans_fit_ds(ds, k=2, iters=1)
    assert fit1["counts"].tolist() == [len(pts), 0]
    assert np.isfinite(fit1["centroids"]).all()
    assert np.allclose(fit1["centroids"][1], [0.0, 0.0])
    # ...and BECAUSE it kept its centroid it recovers the [0,0] blob
    # once cluster 0's centroid has drifted toward [1,1]
    fit3 = V.kmeans_fit_ds(ds, k=2, iters=3)
    assert fit3["counts"].tolist() == [8, 2]
    assert np.allclose(fit3["centroids"][1], [0.0, 0.0])
    assert np.allclose(fit3["centroids"][0], [1.0, 1.0])


@pytest.mark.usefixtures("ray_session")
class TestLogReg:
    def _planted(self, n=3000, d=16, seed=4):
        import pandas as pd
        rng = np.random.RandomState(seed)
        w_true = rng.standard_normal(d)
        x = rng.standard_normal((n, d))
        y = (x @ w_true + 0.3 * rng.standard_normal(n) > 0)
        df = pd.DataFrame({
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": [r.astype(np.float32) for r in x],
            "y": y.astype(np.float64)})
        return df, x, y.astype(np.float64)

    def test_learns_separable_and_scores(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import vectors as V
        df, x, y = self._planted()
        ds = rd.from_pandas(df).repartition(5)
        fit = V.logreg_fit_local(x, y, iters=80, lr=1.0)
        pred = (V.logreg_predict_ds(ds, fit["w"], fit["b"])
                .to_pandas().sort_values("vec_id"))
        acc = float((pred["pred"].to_numpy() == y).mean())
        assert acc > 0.9
        # proba consistent with pred at the 0.5 threshold
        assert ((pred["proba"] >= 0.5).astype(int)
                == pred["pred"]).all()


@pytest.mark.usefixtures("ray_session")
class TestNswGraphAnn:
    def test_recall_at_least_ivfpq_equal_budget(self):
        """Graph-ANN recall bar against the exact top-10 on the sf0.01
        embeddings, and the same answer on a second run."""
        from osm_sidewalkreator_ray.pipelines import vectors as V
        sf = "/root/testdata/sf0.01"
        exact = set(V.ann_topk(sf, k=10)["vec_id"])
        nsw = V.nsw_topk(sf, k=10, n_probe=4, ef=50)
        r_nsw = len(exact & set(nsw["vec_id"])) / 10
        assert r_nsw >= 0.5
        pd.testing.assert_frame_equal(
            nsw, V.nsw_topk(sf, k=10, n_probe=4, ef=50))

    def test_tiny_lists_survive(self):
        """Graph build on degenerate lists (singleton / pair) must not
        crash and the search must still surface the vectors."""
        from osm_sidewalkreator_ray.pipelines import vectors as V
        rng = np.random.RandomState(0)
        g = pd.DataFrame({
            "vec_id": [7],
            "list_id": [3],
            "embedding": [rng.randn(8).tolist()]})
        rows = V._nsw_list_graph(g, n_neighbors=8, hub_stride=8)
        assert rows["neighbors"].iloc[0] == []
        assert bool(rows["is_entry"].iloc[0])
        q = rng.randn(8)
        got = V._nsw_search_rows(rows, q / np.linalg.norm(q), ef=10)
        assert [v for _, v in got] == [7]
