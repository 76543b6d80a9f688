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


# DuckDB definition of vectors.label_centroids
LABEL_CENTROIDS_SQL = """
SELECT label, dim, ROUND(AVG(x), 6) AS mean_val FROM (
  SELECT label, unnest(embedding::DOUBLE[]) AS x,
         generate_subscripts(embedding, 1) AS dim
  FROM embeddings)
GROUP BY label, dim ORDER BY label, dim
"""


@pytest.mark.usefixtures("ray_session")
def test_label_centroids_matches_duckdb():
    import duckdb
    import pandas as pd
    from osm_sidewalkreator_ray.pipelines import vectors as V
    sf = "/root/testdata/sf0.01"
    got = V.label_centroids(sf)
    con = duckdb.connect()
    con.execute("CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = con.execute(LABEL_CENTROIDS_SQL).df()
    got["label"] = got["label"].astype(want["label"].dtype)
    pd.testing.assert_frame_equal(got, want)


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
def test_semantic_dedup_matches_reference():
    """Distributed SemDeDup (cluster shuffle + per-cluster greedy
    cosine dedup) == a local greedy reference with the same centroids
    and keep-first-by-vec_id order; planted near-dups are dropped and
    point at their keeper."""
    import numpy as np
    import pandas as pd
    from osm_sidewalkreator_ray.pipelines import vectors as V

    ds = V._read_emb(SF, ["vec_id", "embedding"])
    fit = V.kmeans_fit_ds(ds, k=8, iters=5)
    got = (V.semantic_dedup_ds(ds, fit["centroids"], sim_threshold=0.9)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))

    df = pd.read_parquet(f"{SF}/embeddings.parquet") \
        .sort_values("vec_id").reset_index(drop=True)
    X = np.stack(df["embedding"].map(np.asarray).to_list()) \
        .astype(np.float64)
    C = fit["centroids"]
    lab = (((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)).argmin(1)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    keep = np.ones(len(X), dtype=bool)
    dup_of = np.full(len(X), -1, dtype=np.int64)
    for c in range(8):
        idx = np.flatnonzero(lab == c)  # vec_id order
        sims = Xn[idx] @ Xn[idx].T
        for a in range(len(idx)):
            if not keep[idx[a]]:
                continue
            for b in range(a + 1, len(idx)):
                if keep[idx[b]] and sims[a, b] >= 0.9:
                    keep[idx[b]] = False
                    dup_of[idx[b]] = idx[a]
    assert (got["cluster"].to_numpy() == lab).all()
    assert (got["keep"].to_numpy() == keep).all()
    assert (got["dup_of"].to_numpy() == dup_of).all()
    assert 0 < got["keep"].sum() <= len(got)


@pytest.mark.usefixtures("ray_session")
def test_semantic_dedup_planted_pair():
    """Two near-identical vectors: the smaller vec_id is kept, the
    other is dropped and points at it."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines import vectors as V

    rng = np.random.RandomState(3)
    base = rng.standard_normal((20, 16))
    base[7] = base[3] + 1e-4  # planted near-dup of vec 3
    tbl = pa.table({"vec_id": pa.array(range(20), pa.int64()),
                    "embedding": pa.array([list(map(float, v))
                                           for v in base],
                                          pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    fit = V.kmeans_fit_ds(ds, k=2, iters=4)
    out = (V.semantic_dedup_ds(ds, fit["centroids"],
                               sim_threshold=0.999)
           .to_pandas().set_index("vec_id"))
    assert bool(out.loc[3, "keep"])
    assert not bool(out.loc[7, "keep"])
    assert int(out.loc[7, "dup_of"]) == 3
    assert (out.drop(index=7)["keep"]).all()


@pytest.mark.usefixtures("ray_session")
class TestCovariancePCA:
    def test_covariance_equals_numpy(self):
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines.vectors import \
            embedding_covariance
        mean, cov = embedding_covariance(SF)
        m = np.stack([np.asarray(v, dtype=np.float64) for v in
                      pq.read_table(f"{SF}/embeddings.parquet",
                                    columns=["embedding"])
                      ["embedding"].to_pylist()])
        assert np.allclose(mean, m.mean(axis=0), atol=1e-12)
        assert np.allclose(cov, np.cov(m.T, bias=True), atol=1e-10)

    def test_top_component_matches_eigh(self):
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines.vectors import \
            embedding_top_component, embedding_covariance
        lam, v = embedding_top_component(SF, iters=200)
        _, cov = embedding_covariance(SF)
        w, u = np.linalg.eigh(cov)
        top = u[:, -1]
        if top[np.argmax(np.abs(top))] < 0:
            top = -top
        assert abs(lam - w[-1]) < 1e-6 * max(1.0, w[-1])
        assert np.allclose(np.abs(v @ top), 1.0, atol=1e-6)


def _naive_dbscan(ids, M, eps, min_pts):
    """Quadratic reference with the SAME deterministic border rule
    (min cluster label among core neighbors; label = min core id)."""
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    sims = Mn @ Mn.T
    adj = sims >= (1.0 - eps)
    np.fill_diagonal(adj, False)
    deg = adj.sum(axis=1)
    core = (deg + 1) >= min_pts
    n = len(ids)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and adj[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    label = np.full(n, -1, dtype=np.int64)
    comp_min: dict[int, int] = {}
    for i in range(n):
        if core[i]:
            r = find(i)
            comp_min[r] = min(comp_min.get(r, ids[i]), ids[i])
    for i in range(n):
        if core[i]:
            label[i] = comp_min[find(i)]
    for i in range(n):
        if core[i]:
            continue
        neigh = [comp_min[find(j)] for j in np.nonzero(adj[i])[0]
                 if core[j]]
        if neigh:
            label[i] = min(neigh)
    return label, core


@pytest.mark.usefixtures("ray_session")
class TestDbscan:
    def _run(self, ids, M, eps, min_pts, blocks=3):
        import pandas as pd
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import vectors as V
        emb = rd.from_pandas(pd.DataFrame(
            {"vec_id": ids, "embedding": list(M)})).repartition(blocks)
        got = (V.dbscan_embeddings_ds(emb, eps=eps, min_pts=min_pts)
               .to_pandas().sort_values("vec_id").reset_index(drop=True))
        lab, core = _naive_dbscan(ids, M, eps, min_pts)
        assert got["vec_id"].tolist() == list(ids)
        assert got["label"].tolist() == list(lab)
        assert got["is_core"].tolist() == list(core)

    def test_blobs_vs_naive(self):
        rng = np.random.RandomState(3)
        centers = np.eye(4)[:3] * 10
        M = np.concatenate([c + rng.normal(0, .6, (12, 4))
                            for c in centers]
                           + [rng.normal(0, 6, (8, 4))])  # noise-ish
        ids = np.arange(len(M), dtype=np.int64) * 7 + 1  # non-contiguous
        self._run(ids, M, eps=0.08, min_pts=4)

    def test_border_and_isolated_core_rules(self):
        # hand-built: a tight core pair, one border point touching it,
        # a star whose center is core only through non-core leaves,
        # and an isolated noise point
        M = np.array([
            [1.0, 0.0, 0.0], [0.999, 0.04, 0.0],    # core pair
            [0.96, 0.28, 0.0],                       # border of the pair
            [0.0, 1.0, 0.0], [0.05, 0.998, 0.0],
            [-0.05, 0.998, 0.0], [0.0, 0.999, 0.05],  # star center+leaves
            [0.0, 0.0, 1.0],                         # lone noise
        ])
        ids = np.arange(8, dtype=np.int64)
        self._run(ids, M, eps=0.01, min_pts=3, blocks=2)

    def test_sf0001_table_vs_naive(self):
        import pyarrow.parquet as pq
        t = pq.read_table(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = t["vec_id"].to_numpy()
        M = np.stack([np.asarray(v, np.float64)
                      for v in t["embedding"].to_pylist()])
        order = np.argsort(ids)
        ids, M = ids[order], M[order]
        from osm_sidewalkreator_ray.pipelines import vectors as V
        got = V.dbscan_clusters(SF, eps=0.72, min_pts=5)
        lab, core = _naive_dbscan(ids, M, 0.72, 5)
        assert got["vec_id"].tolist() == list(ids)
        assert got["label"].tolist() == list(lab)
        assert got["is_core"].tolist() == list(core)
        assert (got["label"] >= 0).any()  # parameters actually cluster


@pytest.mark.usefixtures("ray_session")
class TestSQ8Quantization:
    def test_roundtrip_error_bounded(self):
        import pandas as pd
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import vectors as V
        rng = np.random.RandomState(4)
        m = rng.uniform(-2, 3, size=(300, 16))
        m[:, 5] = 1.25  # constant dim
        emb = rd.from_pandas(pd.DataFrame({
            "vec_id": np.arange(300, dtype=np.int64),
            "embedding": list(m.astype(np.float32))})).repartition(5)
        ranges = V.embedding_ranges(emb)
        np.testing.assert_allclose(ranges[0],
                                   m.astype(np.float32).min(axis=0),
                                   rtol=1e-6)
        codes_df = (V.quantize_embeddings_ds(emb, ranges).to_pandas()
                    .sort_values("vec_id"))
        codes = np.frombuffer(b"".join(codes_df["codes"]),
                              dtype=np.uint8).reshape(300, 16)
        rec = V.dequantize_codes(codes, ranges)
        step = (ranges[1] - ranges[0]) / 255.0
        err = np.abs(rec - m.astype(np.float32).astype(np.float64))
        assert (err <= step * 0.5 + 1e-9).all()
        assert (rec[:, 5] == 1.25).all() or \
            np.allclose(rec[:, 5], 1.25, atol=1e-6)


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
class TestEvalMetrics:
    def test_calibration_table(self):
        import pandas as pd
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.vectors import \
            calibration_table_ds
        rng = np.random.RandomState(3)
        p = rng.uniform(size=20000)
        y = (rng.uniform(size=20000) < p).astype(np.int64)  # calibrated
        got = calibration_table_ds(
            rd.from_pandas(pd.DataFrame({"p": p, "y": y}))
            .repartition(6), "p", "y")
        assert len(got) == 10
        assert got["n"].sum() == 20000
        # calibrated scores: per-bin frac_pos tracks mean_proba
        assert np.allclose(got["frac_pos"], got["mean_proba"],
                           atol=0.03)
        # boundary p=1.0 lands in the last bin
        got2 = calibration_table_ds(
            rd.from_pandas(pd.DataFrame({"p": [1.0, 0.0],
                                         "y": [1, 0]})), "p", "y")
        assert got2["bin"].tolist() == [0, 9]


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

    def test_stored_equals_inline_and_deterministic(self):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        import tempfile
        sf = "/root/testdata/sf0.01"
        a = V.nsw_topk(sf, k=10, n_probe=4, ef=50)
        b = V.nsw_topk(sf, k=10, n_probe=4, ef=50)
        pd.testing.assert_frame_equal(a, b)  # deterministic
        d = tempfile.mkdtemp() + "/nsw"
        V.nsw_write(sf, d)
        c = V.nsw_topk_stored(sf, d, k=10, n_probe=4, ef=50)
        pd.testing.assert_frame_equal(a, c)

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
