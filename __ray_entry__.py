"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001.

    Runs the web-scale graft end to end on a deterministic synthetic
    pages corpus + street grid derived from sf0.001: HTML->text actor
    pool, geotag extraction, cell encoding, sidewalk-tile generation,
    and the per-cell point-in-polygon + kNN join.
    """
    from osm_sidewalkreator_ray.pipelines.page_join import flagship_entry
    # materialize() so the smoke check actually EXECUTES the pipeline
    # end to end even if the caller never consumes the returned
    # Dataset (sf0.001 output is tiny; at scale callers use the lazy
    # flagship_entry(collect='dataset') directly)
    return flagship_entry("/root/testdata/sf0.001").materialize()


def queries() -> dict[str, Callable[[str], Any]]:
    from osm_sidewalkreator_ray.pipelines import relational as R
    from osm_sidewalkreator_ray.pipelines import textops as T
    from osm_sidewalkreator_ray.pipelines import vectors as V
    from osm_sidewalkreator_ray.pipelines import geospatial as G

    return {
        # relational operators (SURVEY.md §2.4-2.7 equivalents)
        "q1_pricing_summary": R.q1_pricing_summary,
        "q3_top_revenue_orders": R.q3_top_revenue_orders,
        "q4_priority_exists": R.q4_priority_exists,
        "q5_nation_volume": R.q5_nation_volume,
        "filter_high_value_orders": R.filter_high_value_orders,
        "top_parts_by_price": R.top_parts_by_price,
        "distinct_segments": R.distinct_segments,
        "events_type_stats": R.events_type_stats,
        "events_user_windows": R.events_user_windows,
        "events_sessionize": R.events_sessionize,
        "events_window_delta": R.events_window_delta,
        "events_asof_join": R.events_asof_join,
        "events_distinct_users": R.events_distinct_users,
        "events_funnel": R.events_funnel,
        "q14_promo_revenue": R.q14_promo_revenue,
        "q12_priority_shipping": R.q12_priority_shipping,
        "customers_no_urgent_orders": R.customers_no_urgent_orders,
        "top3_parts_per_brand": R.top3_parts_per_brand,
        "events_daily_rollup": R.events_daily_rollup,
        # global HLL rides as the event_type='*' row of the grouped form
        "events_user_count_approx_by_type": R.events_user_count_approx_by_type,
        # text analysis + dedup (training-data operator family)
        # (doc_quality's n_tokens column is the whitespace token count,
        # same SQL semantics)
        "doc_quality": T.doc_quality,
        "doc_fingerprint": T.doc_fingerprint,
        "lang_id": T.lang_id,
        "lang_stats": T.lang_stats,
        "exact_dedup": T.exact_dedup,
        "minhash_dedup_pairs": T.minhash_dedup_pairs,
        "ngram_jaccard_pairs": T.ngram_jaccard_pairs,
        # fastText-style hashed-BoW linear classifier distilling the
        # stopword-density gate (CCNet recipe: local fit on a hash
        # sample, streaming corpus scoring); iterative -> rows-only
        "trained_quality_classifier": T.trained_quality_classifier,
        # DSIR data selection: hashed-ngram importance log-ratios vs
        # the stop-gate target distribution; integer-quantized scores
        "dsir_select": T.dsir_select,
        # content-independent hash split (no cross-split migration
        # as the corpus grows); full SQL oracle
        "corpus_split_assign": T.corpus_split_assign,
        "near_dup_components": T.near_dup_components,
        # near_dups computes and consumes the per-doc SimHash
        # fingerprints; tests check them through a collecting reference
        "simhash_near_dups": T.simhash_near_dups,
        "token_topk": T.token_topk,
        "doc_length_quantiles": T.doc_length_quantiles,
        # corpus_clean is not listed here: its min-token gate + exact
        # dedup are stages of curate_corpus_full below (it stays a
        # bench.py query, checked in tests against a DuckDB oracle)
        # full curation incl. fused near-dedup (gate -> contaminated
        # -> duplicate -> near_duplicate -> kept)
        "curate_corpus_full": T.curate_corpus_full,
        "sample_documents": T.sample_documents,
        # vector similarity
        "embedding_norms": V.embedding_norms,
        "ann_topk": V.ann_topk,
        "knn_join_sample": V.knn_join_sample,
        # exact cosine pairs (block-pair fan-out); threshold 0.4 so the
        # check exercises real pairs (the synthetic corpus has no
        # cos>=0.95)
        "embedding_near_dups": V.embedding_near_dups_exact,
        # in-context pretraining order (cluster + greedy NN chain);
        # greedy/iterative -> rows-only
        "incontext_order": V.incontext_order,
        "ivf_topk": G.ivf_topk_query,
        # geospatial flagship (rows-only: not SQL-expressible).
        # Folded per the driver's 50-query cap: protoblocks + tiles +
        # sure zones ride one build (kind column); both crossing modes
        # ride one export (mode column); buildings/POIs ride the parser
        # export (layer column).
        "sidewalk_features": G.sidewalk_features_query,
        "crossings_kerbs": G.crossings_kerbs_query,
        "page_text_extract": G.page_text_extract_query,
        "page_geotags": G.page_geotags_query,
        "page_tile_join": G.page_tile_join_query,
        "width_shrink": G.width_shrink_query,
        "protoblock_coverage": G.protoblock_coverage_query,
        "crossing_spacing": G.crossing_spacing_query,
        "sidewalk_split": G.sidewalk_split_query,
        "osm_xml_parse": G.osm_xml_parse_query,
        "media_features": G.media_features_query,
        "intersections_voronoi": G.intersections_voronoi_query,
    }


def oracle_sql() -> dict[str, str]:
    from osm_sidewalkreator_ray.pipelines import relational as R
    from osm_sidewalkreator_ray.pipelines import textops as T
    from osm_sidewalkreator_ray.pipelines import vectors as V

    return {
        "q1_pricing_summary": R.Q1_SQL,
        "q3_top_revenue_orders": R.Q3_SQL,
        "q4_priority_exists": R.Q4_SQL,
        "q5_nation_volume": R.Q5_SQL,
        "filter_high_value_orders": R.FILTER_SQL,
        "top_parts_by_price": R.TOPK_SQL,
        "distinct_segments": R.DISTINCT_SQL,
        "events_type_stats": R.EVENTS_STATS_SQL,
        "events_user_windows": R.EVENTS_WINDOW_SQL,
        "events_sessionize": R.EVENTS_SESSION_SQL,
        "events_window_delta": R.EVENTS_WINDOW_DELTA_SQL,
        "events_asof_join": R.EVENTS_ASOF_SQL,
        "events_distinct_users": R.EVENTS_DISTINCT_SQL,
        "events_funnel": R.EVENTS_FUNNEL_SQL,
        "q14_promo_revenue": R.Q14_SQL,
        "q12_priority_shipping": R.Q12_SQL,
        "customers_no_urgent_orders": R.ANTI_JOIN_SQL,
        "top3_parts_per_brand": R.TOP3_BRAND_SQL,
        "events_daily_rollup": R.EVENTS_ROLLUP_SQL,
        # splitmix64 hash + exact-integer register sum make the whole
        # HLL estimate bit-reproducible in SQL (not just approximate)
        "events_user_count_approx_by_type": R.APPROX_USERS_BY_TYPE_SQL,
        "doc_quality": T.QUALITY_SQL,
        "doc_fingerprint": T.FINGERPRINT_SQL,
        "lang_id": T.LANG_ID_SQL,
        "lang_stats": T.LANG_STATS_SQL,
        "exact_dedup": T.EXACT_DEDUP_SQL,
        # string-shingle Jaccard == the engine's hash-shingle Jaccard
        # (64-bit hashes; set semantics identical absent collisions)
        "ngram_jaccard_pairs": T.NGRAM_JACCARD_SQL,
        # components over the exact pairs: recursive closure, min-label
        "near_dup_components": T.NEAR_DUP_COMPONENTS_SQL,
        # exact-recall banded plan + md5-derived token hash make the
        # whole SimHash op SQL-reproducible (bit-vote rebuild +
        # popcount-of-xor self-join)
        "simhash_near_dups": T.SIMHASH_NEAR_DUPS_SQL,
        # md5 token hash + rotation shingles + inlined (a, b) perm
        # literals rebuild the FULL MinHash/LSH/verify chain in SQL
        "minhash_dedup_pairs": T.MINHASH_DEDUP_SQL,
        # quantized integer importance scores -> order-independent,
        # bit-reproducible in SQL (the HLL estimator's trick)
        "dsir_select": T.DSIR_SELECT_SQL,
        "corpus_split_assign": T.CORPUS_SPLIT_ASSIGN_SQL,
        "token_topk": T.TOKEN_TOPK_SQL,
        "doc_length_quantiles": T.DOC_LENGTH_QUANTILES_SQL,
        "curate_corpus_full": T.CURATE_CORPUS_FULL_SQL,
        "sample_documents": T.SAMPLE_DOCUMENTS_SQL,
        "embedding_norms": V.NORMS_SQL,
        "ann_topk": V.ANN_TOPK_SQL,
        "knn_join_sample": V.KNN_SQL,
        "embedding_near_dups": V.EMBEDDING_NEAR_DUPS_EXACT_SQL,
        # geospatial: rows-only (non-SQL ops)
    }
