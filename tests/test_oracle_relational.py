"""Ray pipelines vs DuckDB oracles on sf0.001 — mirrors the driver gate."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def check(ray_result, sql, con):
    got = normalize(pd.DataFrame(ray_result))
    want = normalize(con.sql(sql).df())
    assert len(got) == len(want), f"row count {len(got)} != {len(want)}"
    assert list(got.columns) == list(want.columns), (
        f"columns {list(got.columns)} != {list(want.columns)}")
    for c in got.columns:
        if pd.api.types.is_float_dtype(want[c]):
            assert np.allclose(got[c].astype(float), want[c], atol=1e-5), c
        else:
            assert got[c].astype(str).tolist() == want[c].astype(str).tolist(), c


@pytest.mark.usefixtures("ray_session")
class TestRelationalOracles:
    def test_q1(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q1_pricing_summary(SF), R.Q1_SQL, con)

    def test_q3(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q3_top_revenue_orders(SF), R.Q3_SQL, con)

    def test_q3_distributed_semi_join_path(self, con):
        # force the above-threshold plan (bloom prefilter + partitioned
        # hash join instead of the collected broadcast): oracle must
        # stay green through BOTH paths (round-3 verdict #2)
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q3_top_revenue_orders(SF, broadcast_max_keys=0),
              R.Q3_SQL, con)

    def test_q5(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q5_nation_volume(SF), R.Q5_SQL, con)

    def test_filter(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.filter_high_value_orders(SF), R.FILTER_SQL, con)

    def test_topk(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.top_parts_by_price(SF), R.TOPK_SQL, con)

    def test_distinct(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.distinct_segments(SF), R.DISTINCT_SQL, con)

    def test_events_stats(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_type_stats(SF), R.EVENTS_STATS_SQL, con)

    def test_events_windows(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_user_windows(SF), R.EVENTS_WINDOW_SQL, con)

    def test_events_sessionize(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_sessionize(SF), R.EVENTS_SESSION_SQL, con)


@pytest.mark.usefixtures("ray_session")
class TestTextOracles:
    def test_token_counts(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_token_counts(SF), T.TOKEN_COUNT_SQL, con)

    def test_quality(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_quality(SF), T.QUALITY_SQL, con)

    def test_fingerprint(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_fingerprint(SF), T.FINGERPRINT_SQL, con)

    def test_lang_id(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.lang_id(SF), T.LANG_ID_SQL, con)

    def test_lang_stats(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.lang_stats(SF), T.LANG_STATS_SQL, con)

    def test_exact_dedup(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.exact_dedup(SF), T.EXACT_DEDUP_SQL, con)

    def test_minhash_runs(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        df = T.minhash_dedup_pairs(SF)
        assert list(df.columns) == ["doc_a", "doc_b", "jaccard"]
        # deterministic across runs
        df2 = T.minhash_dedup_pairs(SF)
        pd.testing.assert_frame_equal(df, df2)

    def test_simhash_runs(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        df = T.simhash_fingerprints(SF)
        assert df["doc_id"].is_unique and len(df) > 0

    def test_hll_by_type_oracle(self, con):
        # full SQL oracle for the HLL sketch: splitmix64 finalizer via
        # 32-bit-split HUGEINT mulmod, rank from bin()-length, and the
        # exact-integer register sum — bit-for-bit vs the engine
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_user_count_approx_by_type(SF),
              R.APPROX_USERS_BY_TYPE_SQL, con)

    def test_hll_by_type_oracle_raw_branch(self):
        # the sf corpora only exercise linear counting; force the raw
        # estimator branch (no zero registers) with 200k distinct ids
        import duckdb
        from osm_sidewalkreator_ray.functions.aggregates import (
            _hll_registers, _hll_estimate)
        from osm_sidewalkreator_ray.pipelines import relational as R
        rng = np.random.RandomState(0)
        vals = rng.randint(0, 1 << 62, size=200000).astype(np.int64)
        regs = _hll_registers(vals, 12)
        assert int((regs == 0).sum()) == 0  # raw branch engaged
        eng = round(_hll_estimate(regs), 1)
        c = duckdb.connect()
        c.register("events", pd.DataFrame(
            {"event_type": ["x"] * len(vals), "user_id": vals}))
        got = c.sql(R.APPROX_USERS_BY_TYPE_SQL).df()
        assert (got["approx_distinct"] == eng).all()

    def test_corpus_split_assign_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.corpus_split_assign(SF), T.CORPUS_SPLIT_ASSIGN_SQL, con)
        # proportions land near the requested percentages
        out = T.corpus_split_assign(SF)
        frac = out["split"].value_counts(normalize=True)
        assert 0.03 < frac.get("test", 0) < 0.2
        assert 0.03 < frac.get("val", 0) < 0.2

    def test_dsir_select_oracle(self, con):
        # full SQL oracle: bucket counts over range(d), quantized
        # integer log-ratios, exact integer per-doc score sums
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.dsir_select(SF), T.DSIR_SELECT_SQL, con)

    def test_dsir_selects_target_like_docs(self):
        # the selected set must be enriched in target-gate docs
        # relative to the corpus base rate
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines import textops as T
        sel = T.dsir_select(SF, top_m=50)
        t = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"])
        q = T._quality_batch(t).to_pandas()
        gate = dict(zip(q["doc_id"], q["stop_ratio"] >= 0.06))
        frac_sel = np.mean([gate[i] for i in sel["doc_id"]])
        frac_all = np.mean(list(gate.values()))
        assert frac_sel > frac_all

    def test_minhash_dedup_oracle(self, con):
        # full SQL oracle: DuckDB rebuilds the md5 token hash, the
        # rotation-combined shingles, all 64 permuted min-hashes
        # (inlined (a, b) literals), band-tuple LSH candidacy, and
        # the exact-Jaccard verify — bit-for-bit vs the engine
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.minhash_dedup_pairs(SF), T.MINHASH_DEDUP_SQL, con)

    def test_simhash_near_dups_oracle(self, con):
        # full SQL oracle: DuckDB rebuilds each simhash from the same
        # md5 token hash and self-joins on bit_count(xor(...)) <= 3
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.simhash_near_dups(SF), T.SIMHASH_NEAR_DUPS_SQL, con)


@pytest.mark.usefixtures("ray_session")
class TestVectorOracles:
    def test_norms(self, con):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        check(V.embedding_norms(SF), V.NORMS_SQL, con)

    def test_ann_topk(self, con):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        check(V.ann_topk(SF), V.ANN_TOPK_SQL, con)

    def test_knn_join(self, con):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        check(V.knn_join_sample(SF), V.KNN_SQL, con)

    def test_near_dups_runs(self):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        df = V.embedding_near_dups(SF, sim_threshold=0.5)
        assert list(df.columns) == ["vec_a", "vec_b", "cosine_sim"]


@pytest.mark.usefixtures("ray_session")
class TestStreamingShaped:
    def test_window_delta(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_window_delta(SF), R.EVENTS_WINDOW_DELTA_SQL, con)

    def test_asof_join(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_asof_join(SF), R.EVENTS_ASOF_SQL, con)


@pytest.mark.usefixtures("ray_session")
class TestRound2Oracles:
    def test_ngram_jaccard_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.ngram_jaccard_pairs(SF), T.NGRAM_JACCARD_SQL, con)

    def test_token_topk(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.token_topk(SF), T.TOKEN_TOPK_SQL, con)

    def test_doc_length_quantiles(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_length_quantiles(SF), T.DOC_LENGTH_QUANTILES_SQL, con)

    def test_corpus_clean(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.corpus_clean(SF), T.CORPUS_CLEAN_SQL, con)

    def test_events_distinct_users(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_distinct_users(SF), R.EVENTS_DISTINCT_SQL, con)

    def test_events_funnel(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_funnel(SF), R.EVENTS_FUNNEL_SQL, con)

    def test_q4_priority_exists(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q4_priority_exists(SF), R.Q4_SQL, con)

    def test_q14_promo_revenue(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q14_promo_revenue(SF), R.Q14_SQL, con)

    def test_q12_priority_shipping(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.q12_priority_shipping(SF), R.Q12_SQL, con)

    def test_customers_no_urgent_orders(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.customers_no_urgent_orders(SF), R.ANTI_JOIN_SQL, con)

    def test_top3_parts_per_brand(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.top3_parts_per_brand(SF), R.TOP3_BRAND_SQL, con)

    def test_events_daily_rollup(self, con):
        from osm_sidewalkreator_ray.pipelines import relational as R
        check(R.events_daily_rollup(SF), R.EVENTS_ROLLUP_SQL, con)


@pytest.mark.usefixtures("ray_session")
class TestRound4TextOps:
    """Round-4 training-data operators vs DuckDB oracles (the driver's
    50-query export is full, so these are pytest-gated)."""

    def test_gopher_quality(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.gopher_quality(SF), T.GOPHER_QUALITY_SQL, con)

    def test_pii_scrub(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.pii_scrub(SF), T.PII_SCRUB_SQL, con)

    def test_pii_scrub_redacts(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        docs = rd.from_items([
            {"doc_id": 1, "text": "mail bob.smith+x@example.co.uk or "
                                  "call 555-123-4567 now"},
            {"doc_id": 2, "text": "no pii here"}])
        df = (T.pii_scrub_ds(docs).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        assert df["n_emails"].tolist() == [1, 0]
        assert df["n_phones"].tolist() == [1, 0]

    def test_pack_sequences(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.pack_sequences(SF), T.PACK_SEQUENCES_SQL, con)

    def test_decontaminate(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.decontaminate(SF), T.DECONTAMINATE_SQL, con)

    def test_decontaminate_planted(self):
        """Explicit benchmark: only docs sharing a 3-gram with the
        eval text get flagged; hit counts are distinct-n-gram exact."""
        import numpy as np
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        bench = T.benchmark_ngram_hashes(["the quick brown fox jumps"])
        docs = rd.from_items([
            {"doc_id": 1, "text": "we saw the quick brown fox today"},
            {"doc_id": 2, "text": "a completely unrelated sentence"},
            {"doc_id": 3, "text": "quick brown fox jumps quick brown "
                                  "fox jumps"},  # dup grams count once
            {"doc_id": 4, "text": "two words"}])  # shorter than n
        df = (T.decontaminate_ds(docs, ray.put(bench))
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert df["n_hits"].tolist() == [2, 0, 2, 0]
        assert df["contaminated"].tolist() == [True, False, True, False]

    def test_domain_mixture(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.domain_mixture(SF), T.DOMAIN_MIXTURE_SQL, con)

    def test_domain_mixture_expand(self):
        """Expansion emits exactly n_repeats rows per doc, epochs
        0..n-1; alpha-rebalance up-weights rare domains."""
        from osm_sidewalkreator_ray.pipelines import textops as T
        mix = T.domain_mixture(SF, by="lang", alpha=0.5)
        per = mix.groupby("lang")["target_epochs"].first()
        assert per["en"] < 1.0 < per["de"]  # 193 docs vs 71 docs
        import ray.data as rd
        exp = (T.domain_mixture_expand_ds(rd.from_pandas(mix))
               .to_pandas())
        assert len(exp) == int(mix["n_repeats"].sum())
        g = exp.groupby("doc_id")["epoch"]
        assert (g.max() + 1 == g.count()).all() and (g.min() == 0).all()

    def test_quality_classifier_matches_reference(self):
        """Actor-pool hashed-ngram scorer == a local single-process
        reference (same hash, same seeded weights), and deterministic
        across runs."""
        import numpy as np
        import pandas as pd
        from osm_sidewalkreator_ray.pipelines import textops as T
        got = T.quality_classifier(SF, dim=1 << 16, seed=7,
                                   concurrency=2)
        docs = pd.read_parquet(f"{SF}/documents.parquet") \
            .sort_values("doc_id")
        w = T.HashedNgramClassifier._build_weights(1 << 16, 7)

        def ref_score(text):
            toks = T._tokens(text)
            feats = toks + [" ".join(p) for p in zip(toks, toks[1:])]
            if not feats:
                return 0.5
            idx = (pd.util.hash_array(np.asarray(feats, dtype=object))
                   % np.uint64(1 << 16)).astype(np.int64)
            return 1.0 / (1.0 + np.exp(-float(w[idx].mean())))

        ref = docs["text"].map(ref_score).to_numpy()
        assert np.allclose(got["quality_score"].to_numpy(), ref,
                           atol=1e-6)
        again = T.quality_classifier(SF, dim=1 << 16, seed=7,
                                     concurrency=2)
        assert (got["quality_score"] == again["quality_score"]).all()

    def test_bigram_lm_score(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.bigram_lm_score(SF), T.BIGRAM_LM_SQL, con)

    def test_bigram_lm_hand_checked(self):
        """Tiny corpus with hand-computable probabilities: the trained
        model's logp are exact conditionals and unknown bigrams back
        off to log(eps)."""
        import numpy as np
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        docs = rd.from_items([{"doc_id": 1, "text": "a b a b"},
                              {"doc_id": 2, "text": "a c"}])
        model = T.bigram_lm_train(docs, top_v=10)
        m = {(r.w1, r.w2): r.logp for r in model.itertuples()}
        # c(a,b)=2 c(b,a)=1 c(a,c)=1; c1(a)=3, c1(b)=1
        assert np.isclose(m[("a", "b")], np.log(2 / 3))
        assert np.isclose(m[("b", "a")], np.log(1 / 1))
        assert np.isclose(m[("a", "c")], np.log(1 / 3))
        scored = (T.bigram_lm_score_ds(
            rd.from_items([{"doc_id": 9, "text": "a b zz qq"}]), model)
            .to_pandas())
        # bigrams: (a,b) known, (b,zz) and (zz,qq) unknown -> eps
        want = (np.log(2 / 3) + 2 * np.log(1e-6)) / 3
        assert np.isclose(scored["avg_logp"][0], want, atol=1e-6)
        assert scored["n_bigrams"][0] == 3

    def test_frequent_line_scrub(self, con):
        # corpus docs are single-line here, so this pins the
        # counting/digest machinery; removal semantics are covered by
        # the planted test below
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.frequent_line_scrub(SF), T.FREQUENT_LINE_SCRUB_SQL, con)

    def test_frequent_line_scrub_planted(self):
        """A footer recurring in 4 docs (> max_docs=2) is scrubbed
        from all of them; a line in only 2 docs survives; empty lines
        never scrub."""
        import hashlib
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        footer = "(c) example corp - all rights reserved"
        rare = "a rare shared line"
        docs = rd.from_items(
            [{"doc_id": i,
              "text": f"body {i}\n\n{footer}" + (f"\n{rare}" if i < 2
                                                 else "")}
             for i in range(4)])
        freq = T.frequent_line_hashes(docs, max_docs=2)
        assert len(freq) == 1  # only the footer crosses the threshold
        df = (T.frequent_line_scrub_ds(docs, ray.put(freq))
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert df["n_removed"].tolist() == [1, 1, 1, 1]
        assert df["n_lines"].tolist() == [4, 4, 3, 3]
        want0 = hashlib.md5(f"body 0\n\n{rare}".encode()).hexdigest()
        want3 = hashlib.md5("body 3\n".encode()).hexdigest()
        assert df["clean_md5"][0] == want0
        assert df["clean_md5"][3] == want3

    def test_tfidf_topk(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.tfidf_topk(SF), T.TFIDF_TOPK_SQL, con)

    def test_corpus_diff(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.corpus_diff(SF), T.CORPUS_DIFF_SQL, con)

    def test_corpus_diff_statuses(self):
        """Hand-checked delta semantics: unchanged docs emit nothing;
        added/removed/changed classify correctly."""
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        old = rd.from_items([{"doc_id": 1, "text": "same"},
                             {"doc_id": 2, "text": "before"},
                             {"doc_id": 3, "text": "gone"}])
        new = rd.from_items([{"doc_id": 1, "text": "same"},
                             {"doc_id": 2, "text": "after"},
                             {"doc_id": 4, "text": "fresh"}])
        df = (T.corpus_diff_ds(old, new).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        assert df["doc_id"].tolist() == [2, 3, 4]
        assert df["status"].tolist() == ["changed", "removed", "added"]

    def test_curate_corpus(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.curate_corpus(SF), T.CURATE_CORPUS_SQL, con)

    def test_curate_corpus_planted_statuses(self):
        """Every status fires with the right precedence: gates beat
        contamination, contamination beats dedup, dedup keeps the
        min doc_id."""
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        body = "alpha beta gamma delta epsilon zeta"
        bench = T.benchmark_ngram_hashes(["zeta eta theta iota"])
        docs = rd.from_items([
            {"doc_id": 0, "text": body},                 # kept (canon)
            {"doc_id": 1, "text": body},                 # duplicate
            {"doc_id": 2, "text": "too short"},          # gate_fail
            {"doc_id": 3, "text": body + " zeta eta theta iota"},
            {"doc_id": 4, "text": "zeta eta"},           # gate_fail
        ])                                               # 3: contaminated
        df = (T.curate_corpus_ds(docs, ray.put(bench))
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert df["status"].tolist() == [
            "kept", "duplicate", "gate_fail", "contaminated",
            "gate_fail"]

    def test_curate_corpus_checkpoint_resume(self, tmp_path):
        """Kill-and-resume byte-identity: a run that loses two buckets
        (fault injection) resumes computing ONLY those buckets, and
        the resumed output equals a clean one-shot run."""
        import numpy as np
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        from osm_sidewalkreator_ray.state.checkpoint import read_output

        docs = rd.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
        bench = np.empty(0, dtype=np.uint64)  # gates+dedup only here
        clean = str(tmp_path / "clean")
        m_clean = T.curate_corpus_checkpointed(docs, ray.put(bench),
                                               clean, num_buckets=8)
        assert len(m_clean) == 8

        crashed = str(tmp_path / "crashed")
        m1 = T.curate_corpus_checkpointed(docs, ray.put(bench),
                                          crashed, num_buckets=8,
                                          skip_keys={(0,), (3,)})
        assert len(m1) == 6
        m2 = T.curate_corpus_checkpointed(docs, ray.put(bench),
                                          crashed, num_buckets=8)
        assert sorted(tuple(k) for k in
                      (list(r) if not isinstance(r, tuple) else r
                       for r in m2["key"].map(
                           lambda s: tuple(__import__("json")
                                           .loads(s))))) == [(0,), (3,)]

        a = (read_output(clean).sort_values("doc_id")
             .reset_index(drop=True))
        b = (read_output(crashed).sort_values("doc_id")
             .reset_index(drop=True))
        assert a.equals(b)
        assert len(a) == 500

    def test_near_dup_keep_best(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.near_dup_keep_best(SF), T.NEAR_DUP_KEEP_BEST_SQL, con)

    def test_curate_corpus_full(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.curate_corpus_full(SF), T.CURATE_CORPUS_FULL_SQL, con)

    def test_curate_corpus_full_planted_statuses(self):
        """All five statuses fire with the documented precedence:
        gate_fail -> contaminated -> duplicate (exact, min id) ->
        near_duplicate (keep-LONGEST) -> kept."""
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        body = "alpha beta gamma delta epsilon zeta"
        bench = T.benchmark_ngram_hashes(["zeta eta theta iota"])
        docs = rd.from_items([
            {"doc_id": 0, "text": body},         # exact keeper, then
            #   near-dup loser to 5 (5 is longer) -> near_duplicate
            {"doc_id": 1, "text": body},                  # duplicate
            {"doc_id": 2, "text": "too short"},           # gate_fail
            {"doc_id": 3, "text": body + " zeta eta theta iota"},
            {"doc_id": 4, "text": "zeta eta"},            # gate_fail
            {"doc_id": 5, "text": body + " longer tail"},  # kept
        ])                                                # 3: contaminated
        df = (T.curate_corpus_full_ds(docs, ray.put(bench))
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert df["status"].tolist() == [
            "near_duplicate", "duplicate", "gate_fail", "contaminated",
            "gate_fail", "kept"]

    @pytest.mark.parametrize("texts,want", [
        # kept docs that share no prefix shingle: no candidate pairs
        (["one two three four five six",
          "red green blue cyan magenta yellow black"], ["kept", "kept"]),
        # no doc survives the gates: nothing to near-dedup
        (["too short"], ["gate_fail"]),
    ])
    def test_curate_corpus_full_nothing_to_compare(self, texts, want):
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        bench = T.benchmark_ngram_hashes(["zeta eta theta iota"])
        docs = rd.from_items([{"doc_id": i, "text": t}
                              for i, t in enumerate(texts)])
        df = (T.curate_corpus_full_ds(docs, ray.put(bench))
              .to_pandas().sort_values("doc_id"))
        assert df["status"].tolist() == want

    def test_curate_corpus_full_no_schema_probe_reruns_a_shuffle(self):
        """Every shuffled input a join reads a schema from is pinned:
        no Ray Data execution is a ``limit(1)`` schema probe that
        re-runs an all-to-all stage."""
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        from perfbench.tracing import RayDataProbe, Tracer

        # installed before any Dataset exists: a Dataset keeps the
        # context (and callbacks) it was created under
        tracer = Tracer()
        probe = RayDataProbe(tracer)
        probe.install()
        try:
            body = "alpha beta gamma delta epsilon zeta"
            bench = T.benchmark_ngram_hashes(["zeta eta theta iota"])
            docs = rd.from_items([
                {"doc_id": 0, "text": body}, {"doc_id": 1, "text": body},
                {"doc_id": 2, "text": "too short"},
                {"doc_id": 3, "text": body + " zeta eta theta iota"},
                {"doc_id": 4, "text": "zeta eta"},
                {"doc_id": 5, "text": body + " longer tail"}])
            df = T.curate_corpus_full_ds(docs, ray.put(bench)).to_pandas()
        finally:
            probe.uninstall()
        assert len(df) == 6
        runs = [s["ops"] for s in tracer.spans
                if s["name"] == "ray.execution"]
        assert any("SortMap" in r for r in runs)  # the probe saw runs
        probes = [r for r in runs
                  if "limit_1" in r and any(
                      n in ("SortMap", "SortReduce")
                      or n.startswith("Aggregate") for n in r)]
        assert probes == []

    def test_curate_corpus_full_checkpoint_resume(self, tmp_path):
        """Two-phase resume: a run that loses final-phase buckets
        (fault injection) resumes computing ONLY those, and the
        resumed output equals the streaming one-shot form."""
        import json
        import numpy as np
        import ray
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        from osm_sidewalkreator_ray.state.checkpoint import read_output

        docs = rd.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
        bench = np.empty(0, dtype=np.uint64)
        want = (T.curate_corpus_full_ds(docs, ray.put(bench))
                .to_pandas().sort_values("doc_id")
                .reset_index(drop=True))

        out = str(tmp_path / "full")
        m1 = T.curate_corpus_full_checkpointed(
            docs, ray.put(bench), out, num_buckets=8,
            skip_keys_final={(1,), (6,)})
        assert len(m1) == 6
        m2 = T.curate_corpus_full_checkpointed(
            docs, ray.put(bench), out, num_buckets=8)
        resumed = sorted(tuple(json.loads(s)) for s in m2["key"])
        assert resumed == [(1,), (6,)]
        got = (read_output(f"{out}/final").sort_values("doc_id")
               .reset_index(drop=True)[["doc_id", "status"]])
        assert got.equals(want)

    def test_near_dup_keep_best_policy(self):
        """Keepers are the longest doc per component (ties -> min
        doc_id), exactly one keeper per component."""
        from osm_sidewalkreator_ray.pipelines import textops as T
        df = T.near_dup_keep_best(SF)
        for _, g in df.groupby("component"):
            best = g.sort_values(["n_tokens", "doc_id"],
                                 ascending=[False, True]).iloc[0]
            assert (g["keeper"] == best["doc_id"]).all()
            assert int(g["keep"].sum()) == 1

    def test_pack_sequences_chunk_semantics(self, con):
        """Docs are packed contiguously: offsets are dense (next start
        = prev start + prev tokens) and seq ids are the chunk index."""
        from osm_sidewalkreator_ray.pipelines import textops as T
        df = T.pack_sequences(SF, budget=512, bucket_width=64)
        starts = df["token_start"].to_numpy()
        toks = df["n_tokens"].to_numpy()
        assert starts[0] == 0
        assert (starts[1:] == starts[:-1] + toks[:-1]).all()
        assert (df["seq_id"].to_numpy() == starts // 512).all()


def test_no_shadowed_module_constants():
    """Guard: a later module-level SQL constant must not silently
    shadow an earlier one (events_daily_rollup's oracle was once
    clobbered by a same-named ROLLUP-by-dow constant)."""
    import ast
    import inspect
    from osm_sidewalkreator_ray.functions import (aggregates, graph,
                                                  joins, sketches)
    from osm_sidewalkreator_ray.pipelines import (geospatial,
                                                  relational, search,
                                                  textops, tiles,
                                                  vectors)
    for mod in (relational, textops, vectors, geospatial, search,
                tiles, joins, aggregates, graph, sketches):
        tree = ast.parse(inspect.getsource(mod))
        seen: dict[str, int] = {}
        for node in tree.body:
            names = []
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name) and t.id.isupper()]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a later same-named def silently shadows the earlier
                # one (broadcast_join was once clobbered this way)
                names = [node.name]
            for name in names:
                assert name not in seen, (
                    f"{mod.__name__}.{name} defined at lines "
                    f"{seen[name]} and {node.lineno}")
                seen[name] = node.lineno


def test_no_unreferenced_package_defs():
    """Guard: every non-dunder top-level def in the package is
    referenced from some .py file in the repo — as a loaded name, an
    attribute, an import alias or an identifier-shaped string (not a
    docstring). Comments and docstrings do not count."""
    import ast
    import os
    import re
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ident = re.compile(r"[A-Za-z_]\w*\Z")
    refs: set[str] = set()
    defs: list[tuple[str, int, str]] = []
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs
                   if not x.startswith(".") and x != "__pycache__"]
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(d, f)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            docs = {id(n.body[0].value) for n in ast.walk(tree)
                    if isinstance(n, (ast.Module, ast.ClassDef,
                                      ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and n.body and isinstance(n.body[0], ast.Expr)
                    and isinstance(n.body[0].value, ast.Constant)}
            for n in ast.walk(tree):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    refs.add(n.id)
                elif isinstance(n, ast.Attribute):
                    refs.add(n.attr)
                elif isinstance(n, ast.alias):
                    refs.update(n.name.split("."))
                elif (isinstance(n, ast.Constant)
                      and isinstance(n.value, str)
                      and id(n) not in docs and ident.match(n.value)):
                    refs.add(n.value)
            rel = os.path.relpath(path, root)
            if not rel.startswith("osm_sidewalkreator_ray" + os.sep):
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    names = [node.target.id]
                else:
                    names = []
                defs += [(rel, node.lineno, n) for n in names
                         if not (n.startswith("__") and n.endswith("__"))]
    dead = [f"{rel}:{line} {name}" for rel, line, name in defs
            if name not in refs]
    assert not dead, "unreferenced top-level defs:\n" + "\n".join(dead)


def test_package_imports_resolve():
    """Guard: every import of a package module — absolute or relative,
    at module level or inside a function body — names a module file
    that exists, and every name taken from it is a submodule or a
    top-level binding of that module. The name guard above cannot see
    a function-local import of a deleted module."""
    import ast
    import functools
    import os
    pkg = "osm_sidewalkreator_ray"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def module_file(dotted: str) -> str | None:
        base = os.path.join(root, *dotted.split("."))
        for cand in (base + ".py", os.path.join(base, "__init__.py")):
            if os.path.isfile(cand):
                return cand
        return None

    @functools.cache
    def top_level_names(path: str) -> set[str]:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        names: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.update(t.id for t in targets
                             if isinstance(t, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0]
                             for a in node.names)
        return names

    paths = [os.path.join(root, f) for f in sorted(os.listdir(root))
             if f.endswith(".py")]
    for top in (pkg, "jobs", "tests"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith(".py")]
    bad = []
    for path in paths:
        rel = os.path.relpath(path, root)
        here = os.path.dirname(rel).split(os.sep)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                wanted = [(a.name, None) for a in n.names
                          if a.name.split(".")[0] == pkg]
            elif isinstance(n, ast.ImportFrom):
                if n.level:
                    parts = here[:len(here) - (n.level - 1)]
                    mod = ".".join(parts + ([n.module] if n.module
                                            else []))
                else:
                    mod = n.module or ""
                if mod.split(".")[0] != pkg:
                    continue
                wanted = [(mod, a.name) for a in n.names]
            else:
                continue
            for mod, name in wanted:
                f = module_file(mod)
                where = f"{rel}:{n.lineno}"
                if f is None:
                    bad.append(f"{where} no module {mod}")
                elif (name is not None and name != "*"
                      and module_file(f"{mod}.{name}") is None
                      and name not in top_level_names(f)):
                    bad.append(f"{where} {mod} has no {name}")
    assert not bad, "unresolved package imports:\n" + "\n".join(bad)


@pytest.mark.usefixtures("ray_session")
class TestEditDistanceJoin:
    """Exact ed<=k join (q-gram count filter + vectorized DP) vs
    DuckDB levenshtein."""

    def test_edit_distance_pairs_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.edit_distance_pairs(SF), T.EDIT_DISTANCE_PAIRS_SQL, con)

    def test_edit_distance_adversarial_corpus(self):
        # duplicate grams, unicode, short strings (count-filter
        # blind spot), empty string, transpositions
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            edit_distance_join_ds
        strs = ["aaaa", "aaab", "abab", "ba", "ab", "a", "",
                "héllo", "hêllo", "hello", "xxyyzz", "zzxxyy",
                "the quick brown fox", "the quick brown fix",
                "aaaaaaaaaaaaaaa", "aaaaaaaaaaaaaab"]
        df = pd.DataFrame({"doc_id": range(len(strs)), "s": strs})
        got = edit_distance_join_ds(rd.from_pandas(df), k=2, q=2) \
            .to_pandas().sort_values(["doc_a", "doc_b"]) \
            .reset_index(drop=True)
        c2 = duckdb.connect()
        c2.register("d", df)
        want = c2.sql(
            "SELECT a.doc_id doc_a, b.doc_id doc_b, "
            "CAST(levenshtein(a.s, b.s) AS BIGINT) dist "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id "
            "WHERE levenshtein(a.s, b.s) <= 2 "
            "ORDER BY doc_a, doc_b").df()
        assert got["doc_a"].tolist() == want["doc_a"].tolist()
        assert got["doc_b"].tolist() == want["doc_b"].tolist()
        assert got["dist"].tolist() == want["dist"].tolist()

    def test_vectorized_dp_equals_duckdb(self):
        from osm_sidewalkreator_ray.pipelines.textops import \
            _edit_distances
        strs = ["kitten", "sitting", "", "a", "ab", "ba", "abcdef",
                "abcdxf", "héllo", "hello", "aaaa", "aaab", "xyz"]
        sa = np.array([x for x in strs for _ in strs], dtype=object)
        sb = np.array([y for _ in strs for y in strs], dtype=object)
        c2 = duckdb.connect()
        want = [c2.sql("select levenshtein(?, ?)",
                       params=[x, y]).fetchone()[0]
                for x, y in zip(sa, sb)]
        assert _edit_distances(sa, sb).tolist() == want


@pytest.mark.usefixtures("ray_session")
class TestIntervalOverlapJoin:
    def _check(self, a, b):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.joins import \
            interval_overlap_join
        got = interval_overlap_join(
            rd.from_pandas(a), rd.from_pandas(b),
            "alo", "ahi", "blo", "bhi", cell_width=1.0) \
            .to_pandas().sort_values(["aid", "bid"]) \
            .reset_index(drop=True)
        c2 = duckdb.connect()
        c2.register("a", a)
        c2.register("b", b)
        want = c2.sql(
            "SELECT * FROM a JOIN b ON alo <= bhi AND blo <= ahi "
            "ORDER BY aid, bid").df()
        assert got["aid"].tolist() == want["aid"].tolist()
        assert got["bid"].tolist() == want["bid"].tolist()
        assert not got.duplicated(["aid", "bid"]).any()

    def test_overlaps_touch_nulls_and_spans(self):
        a = pd.DataFrame({"alo": [0.0, 5.0, 10.0, None, 2.5],
                          "ahi": [4.0, 6.0, 100.0, 3.0, 2.5],
                          "aid": [1, 2, 3, 4, 5]})
        b = pd.DataFrame({"blo": [4.0, 6.5, 50.0, -10.0],
                          "bhi": [5.0, 7.0, 60.0, 200.0],
                          "bid": [10, 20, 30, 40]})
        self._check(a, b)

    def test_random_intervals_vs_sql(self):
        rng = np.random.RandomState(4)
        lo = rng.uniform(0, 50, 150)
        a = pd.DataFrame({"alo": lo, "ahi": lo + rng.uniform(0, 5, 150),
                          "aid": range(150)})
        lo2 = rng.uniform(0, 50, 120)
        b = pd.DataFrame({"blo": lo2,
                          "bhi": lo2 + rng.uniform(0, 8, 120),
                          "bid": range(120)})
        self._check(a, b)


@pytest.mark.usefixtures("ray_session")
class TestEpochShuffle:
    def test_epoch7_matches_sql(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.epoch_shuffle(SF, epoch=7), T.EPOCH_SHUFFLE_SQL, con)

    def test_epochs_differ_and_are_deterministic(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        a0 = T.epoch_shuffle(SF, epoch=0)
        a1 = T.epoch_shuffle(SF, epoch=1)
        assert a0["doc_id"].tolist() != a1["doc_id"].tolist()
        assert sorted(a0["doc_id"]) == sorted(a1["doc_id"])
        pd.testing.assert_frame_equal(a0, T.epoch_shuffle(SF, epoch=0))


@pytest.mark.usefixtures("ray_session")
class TestPackedTokenSequences:
    def test_reconstructs_the_token_stream(self):
        import ray.data as rd
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines import textops as T
        docs = pq.read_table(f"{SF}/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas() \
            .sort_values("doc_id")
        budget = 64
        out = T.packed_token_sequences_ds(
            rd.from_pandas(docs), budget=budget).to_pandas() \
            .sort_values("seq_id").reset_index(drop=True)
        # reference stream: hash-ids of all tokens in doc order
        toks = [t for s in docs["text"] for t in T._tokens(s)]
        ref = (pd.util.hash_array(np.array(toks, dtype=object))
               & np.uint64(0xFFFF)).astype(np.int32)
        got = np.concatenate([
            np.asarray(r, dtype=np.int32)[:n]
            for r, n in zip(out["token_ids"], out["n_filled"])])
        assert np.array_equal(got, ref)
        # every sequence except the last is exactly full
        assert (out["n_filled"].iloc[:-1] == budget).all()
        assert out["seq_id"].tolist() == list(range(len(out)))

    def test_streams_into_iter_batches(self):
        import ray.data as rd
        import pyarrow.parquet as pq
        from osm_sidewalkreator_ray.pipelines import textops as T
        docs = pq.read_table(f"{SF}/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()
        ds = T.packed_token_sequences_ds(rd.from_pandas(docs),
                                         budget=128)
        n = 0
        for batch in ds.iter_batches(batch_size=16,
                                     batch_format="pandas"):
            assert all(len(r) == 128 for r in batch["token_ids"])
            n += len(batch)
        assert n == ds.count()


@pytest.mark.usefixtures("ray_session")
class TestCorpusSplit:
    def test_matches_sql_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.corpus_split_counts(SF), T.CORPUS_SPLIT_SQL, con)

    def test_partitioning_invariant_and_seeded(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            split_assign_ds
        df = pd.DataFrame({"doc_id": np.arange(2000, dtype=np.int64)})
        fr = {"train": 0.8, "val": 0.1, "test": 0.1}
        a = (split_assign_ds(rd.from_pandas(df), fr).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        b = (split_assign_ds(rd.from_pandas(df).repartition(17), fr)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        c = split_assign_ds(rd.from_pandas(df), fr, seed=99) \
            .to_pandas()
        assert not (a.sort_values("doc_id")["split"].to_numpy()
                    == c.sort_values("doc_id")["split"].to_numpy()) \
            .all()
        frac = (a["split"] == "train").mean()
        assert 0.75 < frac < 0.85

    def test_fractions_must_sum(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            split_assign_ds
        with pytest.raises(ValueError):
            split_assign_ds(rd.from_pandas(
                pd.DataFrame({"doc_id": [1]})), {"a": 0.5})


@pytest.mark.usefixtures("ray_session")
class TestIncrementalAggState:
    SPEC = {"n": (None, "count"), "sum_price": ("o_totalprice", "sum"),
            "avg_price": ("o_totalprice", "mean"),
            "max_price": ("o_totalprice", "max")}

    SQL = """
    SELECT o_orderpriority, COUNT(*) AS n,
           ROUND(SUM(o_totalprice), 2) AS sum_price,
           ROUND(AVG(o_totalprice), 6) AS avg_price,
           MAX(o_totalprice) AS max_price
    FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
    """

    def test_base_plus_delta_equals_full(self, con):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.aggregates import (
            agg_state_ds, finalize_agg_state, merge_agg_states)
        full = rd.read_parquet(f"{SF}/orders.parquet",
                               columns=["o_orderkey", "o_orderpriority",
                                        "o_totalprice"])
        base = full.filter(lambda r: r["o_orderkey"] % 3 != 0)
        delta = full.filter(lambda r: r["o_orderkey"] % 3 == 0)
        keys = ["o_orderpriority"]
        st = merge_agg_states(agg_state_ds(base, keys, self.SPEC),
                              agg_state_ds(delta, keys, self.SPEC),
                              keys, self.SPEC)
        got = finalize_agg_state(st, keys, self.SPEC)
        got["sum_price"] = got["sum_price"].round(2)
        got["avg_price"] = got["avg_price"].round(6)
        check(got, self.SQL, con)

    def test_merge_is_associative_with_disjoint_and_overlapping_keys(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.functions.aggregates import (
            agg_state_ds, finalize_agg_state, merge_agg_states)
        rng = np.random.RandomState(2)
        df = pd.DataFrame({"k": rng.randint(0, 9, 500),
                           "v": rng.uniform(0, 10, 500)})
        spec = {"n": (None, "count"), "s": ("v", "sum"),
                "m": ("v", "mean"), "mn": ("v", "min")}
        a, b = df.iloc[:100], df.iloc[100:]
        st = merge_agg_states(
            agg_state_ds(rd.from_pandas(a), ["k"], spec),
            agg_state_ds(rd.from_pandas(b), ["k"], spec),
            ["k"], spec)
        got = finalize_agg_state(st, ["k"], spec)
        g = df.groupby("k")["v"]
        want = pd.DataFrame({"k": sorted(df["k"].unique())})
        want["n"] = g.count().reindex(want["k"]).to_numpy()
        want["s"] = g.sum().reindex(want["k"]).to_numpy()
        want["m"] = g.mean().reindex(want["k"]).to_numpy()
        want["mn"] = g.min().reindex(want["k"]).to_numpy()
        assert np.allclose(got[["n", "s", "m", "mn"]].to_numpy(),
                           want[["n", "s", "m", "mn"]].to_numpy())
        assert got["k"].tolist() == want["k"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestParagraphDedup:
    def test_matches_sql_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.paragraph_dedup(SF), T.PARAGRAPH_DEDUP_SQL, con)

    def test_first_occurrence_survives(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            dedup_paragraphs_ds
        df = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["A\n\nB", "B\n\nC\n\nB", "C\n\nA\n\nD"]})
        out = (dedup_paragraphs_ds(rd.from_pandas(df).repartition(3))
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        assert out["text"].tolist() == ["A\n\nB", "C", "D"]

    def test_within_doc_duplicates_and_empty(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            dedup_paragraphs_ds
        df = pd.DataFrame({"doc_id": [1, 2],
                           "text": ["X\n\nX\n\nY", "X\n\nY"]})
        out = (dedup_paragraphs_ds(rd.from_pandas(df)).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert out["text"].tolist() == ["X\n\nY", ""]


@pytest.mark.usefixtures("ray_session")
class TestMIAndBootstrap:
    def test_lang_source_mi(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.lang_source_mi(SF), T.LANG_SOURCE_MI_SQL, con)

    def test_mi_independence_and_identity(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            categorical_mi_ds
        # independent uniform columns -> MI ~ 0
        rng = np.random.RandomState(0)
        df = pd.DataFrame({"a": rng.randint(0, 4, 20000).astype(str),
                           "b": rng.randint(0, 4, 20000).astype(str)})
        got = categorical_mi_ds(rd.from_pandas(df), "a", "b")
        assert got["mi_bits"][0] < 0.01
        # b == a -> MI == H(a)
        df2 = pd.DataFrame({"a": df["a"], "b": df["a"]})
        got2 = categorical_mi_ds(rd.from_pandas(df2), "a", "b")
        assert np.isclose(got2["mi_bits"][0], got2["h_a"][0],
                          atol=1e-6)

    def test_poisson_bootstrap_ci(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            poisson_bootstrap_mean
        rng = np.random.RandomState(7)
        df = pd.DataFrame({"id": np.arange(20000, dtype=np.int64),
                           "v": rng.normal(10.0, 2.0, 20000)})
        got = poisson_bootstrap_mean(rd.from_pandas(df)
                                     .repartition(9), "id", "v",
                                     n_boot=100)
        m = df["v"].mean()
        se = df["v"].std() / np.sqrt(len(df))
        assert np.isclose(got["mean"][0], m, atol=1e-4)
        assert got["ci_lo"][0] < m < got["ci_hi"][0]
        width = got["ci_hi"][0] - got["ci_lo"][0]
        assert 0.5 * 3.92 * se < width < 2.0 * 3.92 * se
        # partition-invariant
        got2 = poisson_bootstrap_mean(rd.from_pandas(df), "id", "v",
                                      n_boot=100)
        pd.testing.assert_frame_equal(got, got2)

    def test_poisson_counts_match_poisson1(self):
        from osm_sidewalkreator_ray.pipelines.textops import \
            _poisson_counts
        c = _poisson_counts(np.arange(100000, dtype=np.int64), 1, 42)
        h = np.bincount(c, minlength=6) / len(c)
        expect = np.exp(-1.0) * np.array([1, 1, 1 / 2, 1 / 6, 1 / 24,
                                          1 / 120])
        assert np.allclose(h[:6], expect, atol=0.01)


@pytest.mark.usefixtures("ray_session")
class TestRegressionChi2AUC:
    def test_lang_source_chi2(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.lang_source_chi2(SF), T.LANG_SOURCE_CHI2_SQL, con)

    def test_chi2_identity_and_independence(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            categorical_chi2_ds
        rng = np.random.RandomState(1)
        a = rng.randint(0, 5, 30000).astype(str)
        got = categorical_chi2_ds(
            rd.from_pandas(pd.DataFrame({"a": a, "b": a})), "a", "b")
        assert np.isclose(got["cramers_v"][0], 1.0, atol=1e-6)
        got2 = categorical_chi2_ds(
            rd.from_pandas(pd.DataFrame(
                {"a": a, "b": rng.randint(0, 5, 30000).astype(str)})),
            "a", "b")
        assert got2["cramers_v"][0] < 0.05

    def test_doc_length_auc(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_length_auc(SF), T.DOC_LENGTH_AUC_SQL, con)

    def test_auc_separation_and_symmetry(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import \
            binary_auc_ds
        rng = np.random.RandomState(5)
        y = rng.randint(0, 2, 20000)
        # perfect separation (with in-class ties) -> exactly 1.0
        df = pd.DataFrame({"s": np.where(y == 1, 10, 5), "y": y})
        got = binary_auc_ds(rd.from_pandas(df).repartition(6),
                            "s", "y")
        assert got["auc"][0] == 1.0
        assert got["n_pos"][0] + got["n_neg"][0] == 20000
        # all-tied scores -> exactly 0.5
        df2 = pd.DataFrame({"s": np.zeros(20000), "y": y})
        assert binary_auc_ds(rd.from_pandas(df2), "s",
                             "y")["auc"][0] == 0.5
        # label flip -> 1 - auc
        s = rng.normal(y.astype(float), 1.0).round(2)
        a1 = binary_auc_ds(rd.from_pandas(
            pd.DataFrame({"s": s, "y": y})), "s", "y")["auc"][0]
        a2 = binary_auc_ds(rd.from_pandas(
            pd.DataFrame({"s": s, "y": 1 - y})), "s", "y")["auc"][0]
        assert np.isclose(a1 + a2, 1.0, atol=1e-6)
        assert a1 > 0.6


@pytest.mark.usefixtures("ray_session")
class TestPivotAndFrequentPairs:
    def test_frequent_pairs_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        s = 20
        check(T.frequent_token_pairs(SF, min_support=s),
              T.FREQUENT_PAIRS_SQL_TMPL.format(min_support=s), con)

    def test_son_no_false_negatives_across_partitioning(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import textops as T
        # planted frequent pair concentrated in few docs: must be
        # found regardless of block layout
        docs = (["alpha beta gamma"] * 30
                + ["delta epsilon"] * 5
                + [f"noise{i} filler{i % 7}" for i in range(60)])
        df = pd.DataFrame({"doc_id": np.arange(len(docs),
                                               dtype=np.int64),
                           "text": docs})
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            df.to_parquet(os.path.join(td, "documents.parquet"))
            got = T.frequent_token_pairs(td, min_support=30)
        assert {("alpha", "beta"), ("alpha", "gamma"),
                ("beta", "gamma")} == set(
            map(tuple, got[["w1", "w2"]].to_numpy()))
        assert (got["support"] == 30).all()


@pytest.mark.usefixtures("ray_session")
class TestMadCorrTwaRegex:
    def test_regex_extract(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        check(T.doc_s_word_mentions(SF), T.DOC_S_WORD_MENTIONS_SQL,
              con)


@pytest.mark.usefixtures("ray_session")
class TestContainmentJoin:
    def test_containment_oracle(self, con):
        from osm_sidewalkreator_ray.pipelines import textops as T
        t = 0.6
        check(T.ngram_containment_pairs(SF, threshold=t),
              T.NGRAM_CONTAINMENT_SQL_TMPL.format(threshold=t), con)

    def test_planted_containment(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        # doc 1 is a verbatim chunk of doc 0: containment 1.0 but
        # low Jaccard (the asymmetric case Jaccard misses)
        base = " ".join(f"w{i}" for i in range(200))
        chunk = " ".join(f"w{i}" for i in range(40, 60))
        import tempfile, os
        df = pd.DataFrame({"doc_id": [0, 1, 2],
                           "text": [base, chunk,
                                    "x y z q r s t u v"]})
        with tempfile.TemporaryDirectory() as td:
            df.to_parquet(os.path.join(td, "documents.parquet"))
            got = T.ngram_containment_pairs(td, threshold=0.9)
            jac = T.ngram_jaccard_pairs(td, threshold=0.9)
        assert got[["doc_a", "doc_b"]].values.tolist() == [[0, 1]]
        assert got["cont_b_in_a"][0] == 1.0
        assert got["cont_a_in_b"][0] < 0.2
        assert jac.empty


@pytest.mark.usefixtures("ray_session")
class TestPctRankVideoRRF:
    def test_rrf_fuse_properties(self):
        from osm_sidewalkreator_ray.pipelines.search import rrf_fuse
        a = pd.DataFrame({"doc_id": [1, 2, 3]})
        b = pd.DataFrame({"doc_id": [2, 4, 1]})
        got = rrf_fuse([a, b], k0=60, k=4)
        # doc 2 (ranks 2,1) beats doc 1 (ranks 1,3)
        assert got["doc_id"].tolist()[0] == 2
        exp2 = round(1 / 62 + 1 / 61, 6)
        assert got.loc[got["doc_id"] == 2, "rrf_score"].iloc[0] \
            == exp2
        # one-leg docs present with single-leg scores
        assert 4 in set(got["doc_id"])

    def test_hybrid_search_rrf(self):
        from osm_sidewalkreator_ray.pipelines.search import \
            hybrid_search_rrf
        got = hybrid_search_rrf(SF, ["join", "scan"], k=5)
        assert len(got) == 5
        assert got["rrf_score"].is_monotonic_decreasing
        got2 = hybrid_search_rrf(SF, ["join", "scan"], k=5)
        pd.testing.assert_frame_equal(got, got2)

    def test_video_near_dups_planted(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.stages import multimodal as M
        t = M.synthetic_media(45, seed=9).to_pandas()
        vids = t[t["kind"] == "video"].reset_index(drop=True)
        # planted: re-encode of clip 0 with one frame of tiny noise
        frames, fps = M._decode_y4m(vids.loc[0, "payload"])
        rng = np.random.RandomState(0)
        noisy = frames.copy()
        noisy[0] = np.clip(noisy[0].astype(np.int16)
                           + rng.randint(-2, 3, noisy[0].shape),
                           0, 255).astype(np.uint8)
        dup = pd.DataFrame({
            "media_id": [777], "kind": ["video"],
            "width": [frames.shape[2]], "height": [frames.shape[1]],
            "sample_rate": [0], "fps": [fps],
            "payload": [M.encode_y4m(noisy, fps)]})
        all_v = pd.concat([vids, dup], ignore_index=True)
        pairs = M.video_near_dups(rd.from_pandas(all_v)
                                  .repartition(3), max_hamming=6)
        found = set(map(tuple,
                        pairs[["media_a", "media_b"]].to_numpy()))
        assert (int(vids.loc[0, "media_id"]), 777) in found


@pytest.mark.usefixtures("ray_session")
def test_source_length_auc(con):
    from osm_sidewalkreator_ray.pipelines import textops as T
    check(T.source_length_auc(SF), T.SOURCE_LENGTH_AUC_SQL, con)


@pytest.mark.usefixtures("ray_session")
def test_grouped_auc_consistency():
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines.textops import (
        binary_auc_ds, grouped_auc_ds)
    rng = np.random.RandomState(6)
    df = pd.DataFrame({"g": np.repeat(["a", "b"], 5000),
                       "s": rng.uniform(size=10000).round(3),
                       "y": rng.randint(0, 2, 10000)})
    got = grouped_auc_ds(rd.from_pandas(df).repartition(5),
                         "g", "s", "y").set_index("g")
    for gname in ("a", "b"):
        sub = df[df["g"] == gname]
        single = binary_auc_ds(rd.from_pandas(sub), "s", "y")
        assert np.isclose(got.loc[gname, "auc"],
                          single["auc"][0], atol=1e-6)
    # one-class group omitted
    df2 = pd.concat([df, pd.DataFrame(
        {"g": ["c"] * 10, "s": rng.uniform(size=10),
         "y": np.ones(10, dtype=np.int64)})])
    got2 = grouped_auc_ds(rd.from_pandas(df2), "g", "s", "y")
    assert "c" not in set(got2["g"])


@pytest.mark.usefixtures("ray_session")
class TestChunking:
    def test_chunk_coverage_and_overlap(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.textops import (
            _tokens, chunk_documents_ds)
        docs = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": [" ".join(f"w{i}" for i in range(150)),
                     "a b c",  # shorter than one chunk
                     ""]})     # empty -> no rows
        got = (chunk_documents_ds(rd.from_pandas(docs)
                                  .repartition(2),
                                  chunk_tokens=64, overlap=16)
               .to_pandas().sort_values(["doc_id", "chunk_idx"])
               .reset_index(drop=True))
        d1 = got[got["doc_id"] == 1]
        # stride 48: windows at 0, 48, 96 -> 3 chunks for 150 tokens
        assert d1["tok_start"].tolist() == [0, 48, 96]
        assert d1["tok_end"].tolist() == [64, 112, 150]
        # every token index covered; adjacent chunks overlap 16
        toks = _tokens(docs["text"][0])
        covered = set()
        for _, r in d1.iterrows():
            covered |= set(range(r["tok_start"], r["tok_end"]))
            assert (r["chunk_text"]
                    == " ".join(toks[r["tok_start"]:r["tok_end"]]))
        assert covered == set(range(150))
        assert got[got["doc_id"] == 2]["chunk_text"].tolist() \
            == ["a b c"]
        assert 3 not in set(got["doc_id"])

    def test_chunks_sf_counts(self):
        import duckdb
        from osm_sidewalkreator_ray.pipelines.textops import \
            doc_chunks
        got = doc_chunks(SF, chunk_tokens=32, overlap=8)
        n_docs = duckdb.sql(
            f"SELECT COUNT(*) FROM '{SF}/documents.parquet' "
            f"WHERE trim(text) <> ''").df().iloc[0, 0]
        assert got["doc_id"].nunique() == n_docs
        # reconstruction: stripping overlaps rebuilds each doc's
        # token stream exactly
        one = got[got["doc_id"] == got["doc_id"].iloc[0]]
        rebuilt = []
        for _, r in one.iterrows():
            toks = r["chunk_text"].split(" ")
            rebuilt.extend(toks if r["chunk_idx"] == 0 else toks[8:])
        src = duckdb.sql(
            f"SELECT text FROM '{SF}/documents.parquet' WHERE "
            f"doc_id = {int(one['doc_id'].iloc[0])}").df()["text"][0]
        assert rebuilt == src.strip().split()
