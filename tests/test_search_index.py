"""Inverted index build + boolean search vs DuckDB oracles."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def build_index_for_sf(sf_dir: str, out_dir: str,
                       num_buckets: int = 32) -> str:
    from osm_sidewalkreator_ray.pipelines import search as S
    from osm_sidewalkreator_ray.pipelines.textops import _read_docs
    return S.build_inverted_index(_read_docs(sf_dir, ["doc_id", "text"]),
                                  out_dir, num_buckets=num_buckets)


# DuckDB reference for the postings search.build_inverted_index writes
INDEX_POSTINGS_SQL = r"""
WITH t AS (
  SELECT doc_id, unnest(
           CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                ELSE regexp_split_to_array(trim(text), '\s+') END)
         AS term
  FROM documents),
tf AS (SELECT term, doc_id, COUNT(*) AS tf FROM t GROUP BY term, doc_id)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       list(doc_id ORDER BY doc_id) AS doc_ids,
       list(tf ORDER BY doc_id) AS tfs
FROM tf GROUP BY term ORDER BY term
"""


# DuckDB reference for search.bm25_search(["join", "scan"], k=10)
BM25_SEARCH_SQL = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS t
  FROM documents),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM toks GROUP BY doc_id),
meta AS (SELECT COUNT(*) AS n, AVG(dl) AS avg_dl FROM dl),
tf AS (SELECT doc_id, t, COUNT(*) AS tf FROM toks
       WHERE t IN ('join', 'scan') GROUP BY doc_id, t),
df AS (SELECT t, COUNT(*) AS df FROM tf GROUP BY t)
SELECT tf.doc_id,
       ROUND(SUM(ln(1 + (meta.n - df.df + 0.5) / (df.df + 0.5))
                 * tf.tf * 2.5
                 / (tf.tf + 1.5 * (1 - 0.75
                                   + 0.75 * dl.dl / meta.avg_dl))),
             6) AS score
FROM tf, df, dl, meta
WHERE df.t = tf.t AND dl.doc_id = tf.doc_id
GROUP BY tf.doc_id
ORDER BY score DESC, tf.doc_id LIMIT 10
"""


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.sql(f"CREATE VIEW documents AS SELECT * FROM "
          f"'{SF}/documents.parquet'")
    return c


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("inv") / "idx")
    build_index_for_sf(SF, out)
    return out


@pytest.mark.usefixtures("ray_session")
class TestInvertedIndex:
    def test_postings_match_duckdb(self, con, index_dir):
        import pyarrow.dataset as pads
        got = (pads.dataset(index_dir, partitioning="hive")
               .to_table(columns=["term", "df", "doc_ids", "tfs"])
               .to_pandas().sort_values("term").reset_index(drop=True))
        want = con.sql(INDEX_POSTINGS_SQL).df()
        assert got["term"].tolist() == want["term"].tolist()
        assert got["df"].astype("int64").tolist() == \
            want["df"].astype("int64").tolist()
        for a, b in zip(got["doc_ids"], want["doc_ids"]):
            assert list(a) == list(b)
        for a, b in zip(got["tfs"], want["tfs"]):
            assert list(a) == list(b)

    def test_search_and_or(self, con, index_dir):
        from osm_sidewalkreator_ray.pipelines import search as S
        # pick two mid-frequency terms from the oracle
        df = con.sql(INDEX_POSTINGS_SQL).df()
        mid = df[(df["df"] > 20) & (df["df"] < 400)]
        t1, t2 = mid["term"].iloc[0], mid["term"].iloc[1]

        def oracle(mode):
            op = "INTERSECT" if mode == "and" else "UNION"
            return con.sql(f"""
                SELECT DISTINCT doc_id FROM documents
                WHERE list_contains(regexp_split_to_array(trim(text),
                                    '\\s+'), '{t1}')
                {op}
                SELECT DISTINCT doc_id FROM documents
                WHERE list_contains(regexp_split_to_array(trim(text),
                                    '\\s+'), '{t2}')
                ORDER BY doc_id""").df()["doc_id"].tolist()

        for mode in ("and", "or"):
            got = S.search_index(index_dir, [t1, t2], mode=mode)
            assert got["doc_id"].tolist() == oracle(mode), mode
        # unknown term: AND annihilates, OR ignores
        assert S.search_index(index_dir, [t1, "qzxv"],
                              mode="and").empty
        got_or = S.search_index(index_dir, [t1, "qzxv"], mode="or")
        assert got_or["doc_id"].tolist() == \
            S.search_index(index_dir, [t1], mode="or")["doc_id"].tolist()

    def test_read_is_partition_pruned(self, index_dir):
        """The search read touches only the query terms' hash-bucket
        partitions, not the whole index."""
        import pyarrow.dataset as pads
        from osm_sidewalkreator_ray.pipelines import search as S
        ds = pads.dataset(index_dir, partitioning="hive")
        all_files = set(ds.files)
        t = np.asarray(["spark"], dtype=object)
        b = int(S._bucket_of(t, 32)[0])
        pruned = ds.get_fragments(pads.field("b") == b)
        touched = {f.path for f in pruned}
        assert touched and touched < all_files


@pytest.mark.usefixtures("ray_session")
class TestIncrementalIndexUpdate:
    def test_incremental_equals_full_rebuild(self, tmp_path):
        import ray.data as rd
        import pyarrow.dataset as pads
        from osm_sidewalkreator_ray.pipelines import search as S
        from osm_sidewalkreator_ray.pipelines.textops import _read_docs
        docs = _read_docs(SF, ["doc_id", "text"]).to_pandas()
        first, rest = docs[docs.doc_id % 3 != 0], docs[docs.doc_id % 3 == 0]

        inc_dir = str(tmp_path / "inc")
        S.build_inverted_index(rd.from_pandas(first), inc_dir)
        touched = S.update_inverted_index(rd.from_pandas(rest), inc_dir)
        assert touched  # some buckets rewritten

        full_dir = str(tmp_path / "full")
        S.build_inverted_index(rd.from_pandas(docs), full_dir)

        def load(d):
            t = pads.dataset(d, partitioning="hive").to_table(
                columns=["term", "df", "doc_ids"]).to_pandas()
            t["doc_ids"] = t["doc_ids"].map(
                lambda x: tuple(int(v) for v in x))
            return t.sort_values("term").reset_index(drop=True)

        a, b = load(inc_dir), load(full_dir)
        pd.testing.assert_frame_equal(a, b)

        # searches agree too
        r1 = S.search_index(inc_dir, ["join", "scan"], mode="and")
        r2 = S.search_index(full_dir, ["join", "scan"], mode="and")
        pd.testing.assert_frame_equal(r1, r2)

    def test_untouched_partitions_not_rewritten(self, tmp_path):
        import os
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import search as S
        base = pd.DataFrame({"doc_id": [1, 2],
                             "text": ["alpha beta", "beta gamma"]})
        d = str(tmp_path / "ix")
        S.build_inverted_index(rd.from_pandas(base), d, num_buckets=8)
        before = {p: sorted(os.listdir(os.path.join(d, p)))
                  for p in os.listdir(d)
                  if os.path.isdir(os.path.join(d, p))}
        new = pd.DataFrame({"doc_id": [3], "text": ["alpha alpha"]})
        touched = S.update_inverted_index(rd.from_pandas(new), d,
                                          num_buckets=8)
        after = {p: sorted(os.listdir(os.path.join(d, p)))
                 for p in os.listdir(d)
                 if os.path.isdir(os.path.join(d, p))}
        t_dirs = {f"b={b}" for b in touched}
        for p in before:
            if p.startswith("_"):
                continue  # append-only BM25 sidecars gain files
            if p not in t_dirs:
                assert before[p] == after[p], p
        assert len(touched) == 1  # only alpha's bucket

    def test_update_retry_is_idempotent(self, tmp_path):
        """A crashed-then-retried update (same new docs folded twice)
        must not duplicate postings, dl rows, or meta rows — the
        sidecars are content-addressed write-once units."""
        import os
        import ray.data as rd
        import pyarrow.dataset as pads
        from osm_sidewalkreator_ray.pipelines import search as S
        base = pd.DataFrame({"doc_id": [1, 2],
                             "text": ["alpha beta", "beta gamma"]})
        d = str(tmp_path / "ix")
        S.build_inverted_index(rd.from_pandas(base), d, num_buckets=8)
        new = pd.DataFrame({"doc_id": [3, 4],
                            "text": ["alpha delta", "gamma gamma"]})
        S.update_inverted_index(rd.from_pandas(new), d, num_buckets=8)
        score1 = S.bm25_search(d, ["alpha", "gamma"], k=10,
                               num_buckets=8)
        meta1 = pads.dataset(os.path.join(d, "_meta")) \
            .to_table().to_pandas()
        # the retry: identical batch folded again
        S.update_inverted_index(rd.from_pandas(new), d, num_buckets=8)
        score2 = S.bm25_search(d, ["alpha", "gamma"], k=10,
                               num_buckets=8)
        meta2 = pads.dataset(os.path.join(d, "_meta")) \
            .to_table().to_pandas()
        pd.testing.assert_frame_equal(score1, score2)
        assert meta1["n_docs"].sum() == meta2["n_docs"].sum()
        assert meta1["total_len"].sum() == meta2["total_len"].sum()
        dl = pads.dataset(os.path.join(d, "_doclens")) \
            .to_table().to_pandas()
        assert dl["doc_id"].is_unique

    def test_update_refuses_v1_index(self, tmp_path):
        import os
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import search as S
        base = pd.DataFrame({"doc_id": [1], "text": ["alpha beta"]})
        d = str(tmp_path / "ix")
        S.build_inverted_index(rd.from_pandas(base), d, num_buckets=4)
        os.remove(os.path.join(d, "_format.json"))  # simulate v1 dir
        with pytest.raises(ValueError, match="v1 index"):
            S.update_inverted_index(
                rd.from_pandas(pd.DataFrame(
                    {"doc_id": [2], "text": ["beta"]})), d,
                num_buckets=4)

    def test_merged_gen_beats_stale_row(self, tmp_path):
        """Newest-generation tie-break: plant a stale pre-update file
        next to the merged one (the crash window) with EQUAL df but
        different tfs — readers must score from the merged row."""
        import os
        import ray.data as rd
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines import search as S
        base = pd.DataFrame({"doc_id": [1], "text": ["alpha alpha"]})
        d = str(tmp_path / "ix")
        S.build_inverted_index(rd.from_pandas(base), d, num_buckets=1)
        part = os.path.join(d, "b=0")
        [f0] = [f for f in os.listdir(part) if f.endswith(".parquet")]
        stale = pq.read_table(os.path.join(part, f0))
        # the ADVICE scenario: doc 1 re-ingested with CHANGED text —
        # tf for "alpha" drops 2 -> 1 while df stays 1, so the stale
        # row ties the merged row on df and only gen disambiguates
        reingest = pd.DataFrame({"doc_id": [1], "text": ["alpha"]})
        S.update_inverted_index(rd.from_pandas(reingest), d,
                                num_buckets=1)
        clean = S.bm25_search(d, ["alpha"], k=5, num_buckets=1)
        # resurrect the stale gen-0 file alongside the merged gen-1
        pq.write_table(stale, os.path.join(part, "zz-stale.parquet"))
        dirty = S.bm25_search(d, ["alpha"], k=5, num_buckets=1)
        # readers must score from the merged (gen-1, tf=1) row with
        # or without the stale file present
        pd.testing.assert_frame_equal(clean, dirty)
        post = S._load_postings(d, ["alpha"], num_buckets=1)
        assert list(post["alpha"]) == [1]


@pytest.mark.usefixtures("ray_session")
class TestBM25:
    def test_matches_duckdb_formula(self, tmp_path):
        import duckdb
        from osm_sidewalkreator_ray.pipelines import search as S
        d = str(tmp_path / "ix")
        build_index_for_sf(SF, d)
        got = S.bm25_search(d, ["join", "scan"], k=10)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{SF}/documents.parquet'")
        want = con.sql(BM25_SEARCH_SQL).df()
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert np.allclose(got["score"], want["score"], atol=1e-5)

    def test_incremental_update_keeps_bm25_exact(self, tmp_path):
        import ray.data as rd
        import duckdb
        from osm_sidewalkreator_ray.pipelines import search as S
        from osm_sidewalkreator_ray.pipelines.textops import _read_docs
        docs = _read_docs(SF, ["doc_id", "text"]).to_pandas()
        first = docs[docs.doc_id % 4 != 0]
        rest = docs[docs.doc_id % 4 == 0]
        d = str(tmp_path / "inc")
        S.build_inverted_index(rd.from_pandas(first), d)
        S.update_inverted_index(rd.from_pandas(rest), d)
        got = S.bm25_search(d, ["join", "scan"], k=10)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{SF}/documents.parquet'")
        want = con.sql(BM25_SEARCH_SQL).df()
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert np.allclose(got["score"], want["score"], atol=1e-5)

    def test_unknown_terms_empty(self, tmp_path):
        from osm_sidewalkreator_ray.pipelines import search as S
        d = str(tmp_path / "ix2")
        build_index_for_sf(SF, d)
        assert len(S.bm25_search(d, ["zzz_nope"])) == 0


@pytest.mark.usefixtures("ray_session")
class TestUpdateCrashTolerance:
    def test_stale_file_coexistence_is_tolerated_and_converges(
            self, tmp_path):
        """Regression: a crash between the merged file's rename and
        the old files' removal (or a Ray task retry) left old+merged
        coexisting; readers picked an arbitrary duplicate and the next
        update baked duplicate doc_ids into postings."""
        import os
        import ray.data as rd
        import pyarrow.dataset as pads
        from osm_sidewalkreator_ray.pipelines import search as S
        from osm_sidewalkreator_ray.pipelines.textops import _read_docs
        docs = _read_docs(SF, ["doc_id", "text"]).to_pandas()
        a = docs[docs.doc_id % 3 == 0]
        b = docs[docs.doc_id % 3 == 1]
        c = docs[docs.doc_id % 3 == 2]

        d = str(tmp_path / "idx")
        S.build_inverted_index(rd.from_pandas(a), d)
        # snapshot one bucket's pre-update file, update, then restore
        # the stale file NEXT TO the merged one (the crash window)
        bdirs = sorted(p for p in os.listdir(d) if p.startswith("b="))
        victim = os.path.join(d, bdirs[0])
        stale_src = [os.path.join(victim, f)
                     for f in os.listdir(victim)
                     if f.endswith(".parquet")]
        saved = [(p, open(p, "rb").read()) for p in stale_src]
        S.update_inverted_index(rd.from_pandas(b), d)
        for p, blob in saved:
            if not os.path.exists(p):  # removed by the merge: restore
                with open(p, "wb") as f:
                    f.write(blob)

        # 1. readers tolerate the coexistence (max-df row wins)
        full_dir = str(tmp_path / "full_ab")
        S.build_inverted_index(
            rd.from_pandas(pd.concat([a, b])), full_dir)
        for terms, mode in ((["join", "scan"], "and"),
                            (["join", "scan"], "or")):
            r1 = S.search_index(d, terms, mode=mode)
            r2 = S.search_index(full_dir, terms, mode=mode)
            pd.testing.assert_frame_equal(r1, r2)

        # 2. the NEXT update re-merges both copies without duplicating
        S.update_inverted_index(rd.from_pandas(c), d)
        full3 = str(tmp_path / "full_abc")
        S.build_inverted_index(rd.from_pandas(docs), full3)

        def load(dd):
            t = pads.dataset(dd, partitioning="hive").to_table(
                columns=["term", "df", "doc_ids"]).to_pandas()
            t["doc_ids"] = t["doc_ids"].map(
                lambda x: tuple(int(v) for v in x))
            return t.sort_values("term").reset_index(drop=True)

        pd.testing.assert_frame_equal(load(d), load(full3))
