"""Exact n-gram Jaccard dedup + connected-components decisions.

Brute-force oracles computed in-process on sf0.001/sf0.01 documents.
"""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from osm_sidewalkreator_ray.functions.aggregates import _round_half_away
from osm_sidewalkreator_ray.functions.blocks import coalesce_slim
from osm_sidewalkreator_ray.functions.joins import hash_partition_join
from osm_sidewalkreator_ray.functions.pairgen import pairs_sharing_key
from osm_sidewalkreator_ray.pipelines.textops import (_read_docs,
                                                      _shingle_batch)
from text_references import simhash_fingerprints

SF = "/root/testdata/sf0.01"
SF_SMALL = "/root/testdata/sf0.001"


def _brute_jaccard_pairs(sf_dir, threshold=0.5, k=3):
    import pyarrow.parquet as pq
    from osm_sidewalkreator_ray.pipelines.textops import (_shingle_hashes,
                                                          _tokens)
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    sh = {int(d): _shingle_hashes(_tokens(s), k)
          for d, s in zip(t["doc_id"], t["text"])}
    ids = sorted(sh)
    rows = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = sh[a], sh[b]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                rows.append((a, b, round(jac, 6)))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"]) \
        if rows else pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                   "doc_b": pd.Series([], dtype="int64"),
                                   "jaccard": pd.Series([], dtype="float64")})


def ngram_jaccard_pairs_fullindex(sf_dir: str, threshold: float = 0.5,
                                  k: int = 3, coarse_buckets: int = 64):
    """Reference plan for ``ngram_jaccard_pairs`` — the full inverted
    shingle index. NOT the default: every doc pair sharing
    >= 1 shingle becomes a candidate row, so the Zipf head of common
    shingles makes candidate volume grow with posting-list size
    squared at corpus scale. Kept because its completely different
    physical shape (partial shared-counts summed through the join
    buckets, no verify stage) cross-checks the prefix plan in the
    identity test.

    Physical plan (all shuffles slim):
    shingle hashes per doc -> exploded (shingle, doc_id) rows, grouped
    by ``shingle % coarse_buckets`` (Python-call count O(buckets)) ->
    per-shingle candidate pairs with PARTIAL shared-shingle counts
    pre-summed inside the bucket -> pair-keyed groupby sums the
    partials -> two hash-partition joins attach |A| and |B| ->
    jaccard = shared / (|A| + |B| - shared), filtered.
    """
    j2 = _shared_shingle_counts(sf_dir, k, coarse_buckets)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        shared = b["shared"].to_numpy(dtype=np.float64)
        union = (b["na"].to_numpy() + b["n_sh"].to_numpy()
                 - b["shared"].to_numpy())
        jac = np.divide(shared, union, out=np.zeros_like(shared),
                        where=union > 0)
        keep = jac >= threshold
        return pd.DataFrame({
            "doc_a": b["doc_a"].to_numpy()[keep].astype(np.int64),
            "doc_b": b["doc_id"].to_numpy()[keep].astype(np.int64),
            "jaccard": _round_half_away(jac[keep])})

    df = j2.map_batches(finalize, batch_format="pandas").to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _shared_shingle_counts(sf_dir: str, k: int, coarse_buckets: int):
    """Candidate machinery of ``ngram_jaccard_pairs_fullindex``: a
    Dataset with one row per doc pair sharing >= 1 shingle, columns
    (doc_a, na, shared, doc_id = doc_b, n_sh = nb)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    sh = coalesce_slim(ds.map_batches(
        functools.partial(_shingle_batch, k=k),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1024).materialize())

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, hashes = [], []
        for d, blob in zip(b["doc_id"], b["shingles"]):
            v = np.frombuffer(blob, dtype=np.uint64)
            hashes.append(v)
            ids.append(np.full(len(v), d, dtype=np.int64))
        if not ids:
            return pd.DataFrame({"cb": pd.Series([], dtype="int64"),
                                 "sh": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64")})
        h = np.concatenate(hashes)
        return pd.DataFrame({
            "cb": (h % np.uint64(coarse_buckets)).astype(np.int64),
            "sh": h.view(np.int64),
            "doc_id": np.concatenate(ids)})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a, b = pairs_sharing_key(g["sh"].to_numpy(),
                                 g["doc_id"].to_numpy())
        if len(a) == 0:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "shared": pd.Series([], dtype="int64")})
        df = pd.DataFrame({"doc_a": a, "doc_b": b})
        # pre-sum inside the bucket: one slim row per pair leaves it
        out = df.groupby(["doc_a", "doc_b"], as_index=False).size()
        return out.rename(columns={"size": "shared"})

    partial = (sh.map_batches(explode, batch_format="pandas")
               .groupby("cb").map_groups(bucket_pairs,
                                         batch_format="pandas"))

    sizes = sh.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_id"].to_numpy(), pa.int64()),
            "n_sh": pa.array(b["n_sh"].to_numpy(), pa.int64())}),
        batch_format="pandas")

    def sum_shared(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["doc_id", "doc_b"], as_index=False).agg(
            shared=("shared", "sum"), n_sh=("n_sh", "first"))

    left_a = partial.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_a"].to_numpy(), pa.int64()),
            "doc_b": pa.array(b["doc_b"].to_numpy(), pa.int64()),
            "shared": pa.array(b["shared"].to_numpy(), pa.int64())}),
        batch_format="pandas")
    # copies of a pair share doc_a -> the cross-bucket partial-count
    # sum rides the first join's bucket (same trick as minhash dedup)
    j1 = hash_partition_join(left_a, sizes, on="doc_id", num_buckets=32,
                             group_fn=sum_shared)
    left_b = j1.map_batches(
        lambda b: pa.table({
            "doc_a": pa.array(b["doc_id"].to_numpy().astype(np.int64)),
            "na": pa.array(b["n_sh"].to_numpy().astype(np.int64)),
            "shared": pa.array(b["shared"].to_numpy().astype(np.int64)),
            "doc_id": pa.array(b["doc_b"].to_numpy().astype(np.int64))}),
        batch_format="pandas")
    return hash_partition_join(left_b, sizes, on="doc_id",
                               num_buckets=32)


@pytest.mark.usefixtures("ray_session")
class TestNgramJaccard:
    def test_matches_brute_force(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        got = T.ngram_jaccard_pairs(SF_SMALL)
        want = _brute_jaccard_pairs(SF_SMALL).sort_values(
            ["doc_a", "doc_b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"doc_a": "int64", "doc_b": "int64"}), want,
            check_dtype=False)

    def test_superset_of_minhash(self):
        # exact all-pairs Jaccard must contain every LSH-found pair
        from osm_sidewalkreator_ray.pipelines import textops as T
        exact = T.ngram_jaccard_pairs(SF)
        lsh = T.minhash_dedup_pairs(SF)
        ek = set(zip(exact["doc_a"], exact["doc_b"]))
        lk = set(zip(lsh["doc_a"], lsh["doc_b"]))
        assert lk <= ek
        assert len(exact) > 0


@pytest.mark.usefixtures("ray_session")
class TestConnectedComponents:
    def test_chain_propagates(self):
        # a-b, b-c, c-d chain (no shortcut edges) + isolated pair
        from osm_sidewalkreator_ray.functions.graph import \
            connected_components
        edges = pd.DataFrame({"src": [10, 20, 30, 70],
                              "dst": [20, 30, 40, 80]})
        df = connected_components(edges)
        comp = dict(zip(df["vertex"], df["component"]))
        assert comp == {10: 10, 20: 10, 30: 10, 40: 10, 70: 70, 80: 70}

    def test_empty_edges(self):
        from osm_sidewalkreator_ray.functions.graph import \
            connected_components
        df = connected_components(
            pd.DataFrame({"src": pd.Series([], dtype="int64"),
                          "dst": pd.Series([], dtype="int64")}))
        assert len(df) == 0

    def test_near_dup_components(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        comp = T.near_dup_components(SF)
        pairs = T.ngram_jaccard_pairs(SF)  # the oracled pair source
        # every doc in a pair gets a component row
        docs = set(pairs["doc_a"]) | set(pairs["doc_b"])
        assert set(comp["doc_id"]) == docs
        # exactly one keeper per component, and it's the min doc_id
        for c, sub in comp.groupby("component"):
            assert sub["keep"].sum() == 1
            assert sub.loc[sub["keep"], "doc_id"].iloc[0] == sub["doc_id"].min()
        # paired docs always share a component
        cmap = dict(zip(comp["doc_id"], comp["component"]))
        for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
            assert cmap[a] == cmap[b]
        # minhash pairs (same threshold, exact-Jaccard verified) are a
        # subset of the exact pairs, so they never cross components
        mh = T.minhash_dedup_pairs(SF)
        for a, b in zip(mh["doc_a"], mh["doc_b"]):
            assert cmap[a] == cmap[b]

    def test_prefix_filter_equals_full_index(self):
        """ppjoin-style prefix filtering is LOSSLESS: identical pair
        set + jaccards as the full inverted-index exact variant."""
        from osm_sidewalkreator_ray.pipelines import textops as T
        full = ngram_jaccard_pairs_fullindex(SF).reset_index(drop=True)
        pref = T.ngram_jaccard_pairs(SF).reset_index(drop=True)
        pd.testing.assert_frame_equal(pref, full)

    def test_near_dup_components_matches_sql_oracle(self):
        """The full decision chain (pairs -> components -> keep) vs the
        DuckDB recursive-closure oracle."""
        import duckdb
        from osm_sidewalkreator_ray.pipelines import textops as T
        got = T.near_dup_components(SF).reset_index(drop=True)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{SF}/documents.parquet')")
        want = con.execute(T.NEAR_DUP_COMPONENTS_SQL).df()
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["component"].tolist() == want["component"].tolist()
        assert got["keep"].tolist() == want["keep"].tolist()

    def test_nonconvergence_raises(self):
        """ADVICE r2: a component whose diameter exceeds max_iters must
        fail loud, not silently split into several components."""
        from osm_sidewalkreator_ray.functions.graph import \
            connected_components
        chain = pd.DataFrame({"src": list(range(0, 12)),
                              "dst": list(range(1, 13))})
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(chain, max_iters=3)
        # and with enough rounds the same chain is one component
        df = connected_components(chain, max_iters=20)
        assert set(df["component"]) == {0}


@pytest.mark.usefixtures("ray_session")
class TestMinLabelComponents:
    """The in-process helper returns exactly the distributed op's
    (vertex, component) frame."""

    @staticmethod
    def _both(edges: pd.DataFrame):
        from osm_sidewalkreator_ray.functions.graph import (
            connected_components, min_label_components)
        return (min_label_components(edges["src"], edges["dst"]),
                connected_components(edges))

    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_equals_distributed_random(self, seed):
        rng = np.random.RandomState(seed)
        edges = pd.DataFrame(rng.randint(0, 60, size=(45, 2)),
                             columns=["src", "dst"])
        got, want = self._both(edges)
        pd.testing.assert_frame_equal(got, want)

    def test_duplicate_reversed_and_self_loop_edges(self):
        edges = pd.DataFrame({"src": [4, 9, 9, 2, 2, 50, 31],
                              "dst": [9, 4, 4, 2, 4, 31, 50]})
        got, want = self._both(edges)
        pd.testing.assert_frame_equal(got, want)
        assert dict(zip(got["vertex"], got["component"])) == {
            2: 2, 4: 2, 9: 2, 31: 31, 50: 31}

    def test_empty_edges(self):
        empty = pd.DataFrame({"src": pd.Series([], dtype="int64"),
                              "dst": pd.Series([], dtype="int64")})
        got, want = self._both(empty)
        pd.testing.assert_frame_equal(got, want)

    def test_200_vertex_chain(self):
        # a path over shuffled ids (the min id sits mid-path); the
        # distributed min-label op needs ~200 rounds here, so the
        # reference is the closed form: one component, labelled with
        # the path's minimum id
        from osm_sidewalkreator_ray.functions.graph import \
            min_label_components
        ids = np.random.RandomState(3).permutation(200) + 1000
        edges = pd.DataFrame({"src": ids[:-1], "dst": ids[1:]})
        got = min_label_components(edges["src"], edges["dst"])
        assert got["vertex"].tolist() == list(range(1000, 1200))
        assert (got["component"] == 1000).all()


@pytest.mark.usefixtures("ray_session")
class TestSimhashNearDups:
    def test_exact_recall_vs_bruteforce(self):
        """The banded plan must return EXACTLY the brute-force
        hamming<=3 pair set (pigeonhole recall guarantee, 4x16-bit
        bands)."""
        import numpy as np
        from osm_sidewalkreator_ray.functions.hamming import popcount64
        from osm_sidewalkreator_ray.pipelines import textops as T
        got = T.simhash_near_dups(SF, max_hamming=3)
        fp = simhash_fingerprints(SF)
        sims = fp["simhash"].to_numpy().view(np.uint64)
        ids = fp["doc_id"].to_numpy()
        x = sims[:, None] ^ sims[None, :]
        ham = popcount64(x)
        iu = np.triu_indices(len(ids), 1)
        want = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j])),
                 int(ham[i, j]))
                for i, j in zip(*iu) if ham[i, j] <= 3}
        have = {(int(a), int(b), int(h)) for a, b, h in
                zip(got["doc_a"], got["doc_b"], got["hamming"])}
        assert have == want
        assert len(want) > 0  # non-trivial on the synthetic corpus

    def test_planted_near_dup(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines import textops as T
        d = tmp_path / "sf"
        d.mkdir()
        base = "the quick brown fox jumps over the lazy dog " * 20
        near = base.replace("lazy", "sleepy", 1)
        far = "completely different text about databases and rays"
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([base, near, far], pa.string())}),
            str(d / "documents.parquet"))
        got = T.simhash_near_dups(str(d), max_hamming=8, bands=16)
        assert (1, 2) in set(zip(got["doc_a"], got["doc_b"]))
        assert 3 not in set(got["doc_a"]) | set(got["doc_b"])


@pytest.mark.usefixtures("ray_session")
class TestSimhashEdgeCases:
    def test_trailing_empty_doc_regression(self, tmp_path):
        """An empty doc at batch END must not truncate the previous
        doc's token range (reduceat boundary clamp regression)."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["hello world foo", ""], pa.string())}),
            str(d / "documents.parquet"))
        got = simhash_fingerprints(str(d))
        d2 = tmp_path / "sf2"
        d2.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(["hello world foo"], pa.string())}),
            str(d2 / "documents.parquet"))
        alone = simhash_fingerprints(str(d2))
        assert got.loc[got["doc_id"] == 0, "simhash"].iloc[0] == \
            alone["simhash"].iloc[0]
        assert got.loc[got["doc_id"] == 1, "simhash"].iloc[0] == 0


def test_geojson_reader_robustness(tmp_path):
    import json as _json
    from osm_sidewalkreator_ray.sources.geojson import read_streets_geojson
    gj = {"type": "FeatureCollection", "features": [
        {"type": "Feature",
         "geometry": {"type": "LineString",
                      "coordinates": [[0.0, 0.0], [0.001, 0.0]]},
         "properties": {"way_id": None, "highway": "residential",
                        "width": 2.5}},  # null id + numeric width
        {"type": "Feature", "geometry": {"type": "Point",
                                         "coordinates": [0, 0]},
         "properties": {}},
    ]}
    t = read_streets_geojson(_json.dumps(gj))
    assert t.num_rows == 1
    assert t["width"][0].as_py() == "2.5"
    import pytest as _pt
    with _pt.raises(FileNotFoundError):
        read_streets_geojson(str(tmp_path / "nope.geojson"))


@pytest.mark.usefixtures("ray_session")
def test_sample_documents():
    from osm_sidewalkreator_ray.pipelines import textops as T
    s1 = T.sample_documents(SF, n=50)
    s2 = T.sample_documents(SF, n=50)
    pd.testing.assert_frame_equal(s1, s2)  # deterministic
    assert len(s1) == 50 and s1["doc_id"].is_unique
    s3 = T.sample_documents(SF, n=50, seed=7)
    # a different seed draws a (almost surely) different sample
    assert set(s3["doc_id"]) != set(s1["doc_id"])


class TestStreamingScorerForms:
    """The per-doc scorers' library forms return lazy Datasets a 100 TB
    pipeline can compose; the collecting query wrappers match them."""

    def test_ds_forms_are_datasets_and_match(self):
        import ray.data as rd
        from ray.data import Dataset
        from osm_sidewalkreator_ray.pipelines import textops as T
        SF = "/root/testdata/sf0.001"
        docs = rd.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
        pairs = [
            (T.doc_quality_ds(docs), T.doc_quality(SF)),
            (T.doc_fingerprint_ds(docs), T.doc_fingerprint(SF)),
            (T.lang_id_ds(docs), T.lang_id(SF)),
            (T.exact_dedup_ds(docs), T.exact_dedup(SF)),
            (T.corpus_clean_ds(docs), T.corpus_clean(SF)),
        ]
        for ds, want in pairs:
            assert isinstance(ds, Dataset)  # lazy, composable
            got = (ds.to_pandas().sort_values("doc_id")
                   .reset_index(drop=True))
            pd.testing.assert_frame_equal(
                got[sorted(got.columns)], want[sorted(want.columns)])

    def test_graph_ds_forms_are_datasets_and_match(self):
        """Per-vertex graph outputs are corpus-sized at 100 TB (one
        row per doc/host), so the library exposes a Dataset form that
        composes into the next stage; the wrapper must agree exactly."""
        from ray.data import Dataset
        from osm_sidewalkreator_ray.functions.graph import (
            connected_components, connected_components_ds)
        edges = pd.DataFrame({"src": [1, 2, 5, 9, 9],
                              "dst": [2, 3, 6, 1, 9]})
        cds = connected_components_ds(edges)
        assert isinstance(cds, Dataset)
        got = (cds.to_pandas().sort_values("vertex")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, connected_components(edges))


class TestShingleWidths:
    """Regression: _shingle_hashes indexed _MIX (3 entries) by raw
    window position, crashing for any k >= 4."""

    def test_k4_and_k5_no_crash_and_distinct(self):
        from osm_sidewalkreator_ray.pipelines.textops import \
            _shingle_hashes
        words = "the quick brown fox jumps over the lazy dog".split()
        for k in (1, 2, 3, 4, 5, 7):
            sh = _shingle_hashes(words, k)
            assert len(sh) >= 1
            assert sh.dtype == np.uint64
        # short-doc path (len < k) must not crash either
        assert len(_shingle_hashes(["a", "b", "c", "d"], 5)) == 1
        # positions j and j+3 use rotated multipliers: swapping
        # tokens 3 apart must change the k=4 shingle hash
        a = _shingle_hashes(["w", "x", "y", "z"], 4)
        b = _shingle_hashes(["z", "x", "y", "w"], 4)
        assert not np.array_equal(a, b)

    def test_k3_output_unchanged(self):
        # golden-stability: the k<=3 scheme is byte-identical to the
        # original (rotation = 0), keeping every fixture valid
        from osm_sidewalkreator_ray.pipelines.textops import (
            _MIX, _shingle_hashes)
        words = ["aa", "bb", "cc", "dd"]
        th = pd.util.hash_array(np.asarray(words, dtype=object))
        acc = np.zeros(2, dtype=np.uint64)
        for j in range(3):
            acc ^= th[j:2 + j] * np.uint64(_MIX[j])
        assert np.array_equal(np.unique(acc),
                              _shingle_hashes(words, 3))

    def test_bands_must_divide_num_perm(self):
        from osm_sidewalkreator_ray.pipelines.textops import \
            _explode_bands
        with pytest.raises(ValueError, match="divide"):
            _explode_bands(pd.DataFrame({"sig": [], "doc_id": []}),
                           num_perm=64, bands=12, coarse_buckets=8)


class TestMultisetSig:
    def test_partition_invariant_and_sentinel_safe(self):
        """Regression: the raw label-sum fixpoint test collided
        deterministically when labels dropped by an exact multiple of
        2^64 (four vertices leaving the 2^62 INF sentinel)."""
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.graph import \
            _multiset_sig
        INF = np.int64(1) << 62
        before = pd.DataFrame({
            "vertex": np.arange(8, dtype=np.int64),
            "label": np.concatenate([np.full(4, INF), np.arange(4)])})
        after = before.copy()
        after.loc[:3, "label"] = 0  # sum shifted by exactly 4*2^62
        sig_b = _multiset_sig(rd.from_pandas(before), ("vertex", "label"))
        sig_a = _multiset_sig(rd.from_pandas(after), ("vertex", "label"))
        assert sig_b != sig_a
        # same multiset, different block layout -> same signature
        sh = before.sample(frac=1, random_state=3)
        assert _multiset_sig(
            rd.from_pandas(sh).repartition(3), ("vertex", "label")) \
            == sig_b
