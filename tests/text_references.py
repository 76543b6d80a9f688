"""Test references for the text operators, shared by several test
files: collecting forms of pipeline stages and the DuckDB definition
of the exact curation pass. No product entry point calls them, so they
live with the tests instead of in the package."""

import ray

from osm_sidewalkreator_ray.pipelines.textops import (_derive_bench,
                                                      _read_docs,
                                                      _simhash_batch,
                                                      curate_corpus_ds)


def simhash_fingerprints(sf_dir: str):
    """64-bit SimHash per document (Charikar '02; deterministic,
    rows-only check). See ``_simhash_batch`` for the vectorized
    kernel — no per-word Python loop."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(_simhash_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def curate_corpus(sf_dir: str, bench_mod: int = 97,
                  bench_tokens: int = 50, **kw):
    """Collecting form of ``curate_corpus_ds``, the exact curation the
    curate job runs: the eval set is derived by ``_derive_bench`` (docs
    with doc_id % bench_mod donate their first bench_tokens tokens)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n = kw.get("n", 3)

    bench = _derive_bench(docs, bench_mod, bench_tokens, n)
    out = curate_corpus_ds(docs, ray.put(bench), **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


CURATE_CORPUS_SQL = r"""
WITH tok AS (
  SELECT doc_id, text,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w,
         list_filter(regexp_split_to_array(text, '\n'),
                     x -> trim(x) <> '') AS lines
  FROM documents),
sig AS (
  SELECT doc_id, text, len(w) AS n_tokens, w,
         CASE WHEN len(lines) = 0 THEN 0.0
              ELSE 1.0 - len(list_distinct(lines)) * 1.0 / len(lines)
         END AS dup_line_frac,
         CASE WHEN len(w) = 0 THEN 0.0
              ELSE ((len(text) - len(replace(text, '#', '')))
                    + (len(text) - len(replace(text, '...', ''))) / 3)
                   * 1.0 / len(w) END AS symbol_ratio,
         CASE WHEN len(lines) = 0 THEN 0.0
              ELSE len(list_filter(lines,
                       x -> ltrim(x) LIKE '-%' OR ltrim(x) LIKE '*%'
                            OR ltrim(x) LIKE chr(8226) || '%'))
                   * 1.0 / len(lines) END AS bullet_frac
  FROM tok),
bench_src AS (
  SELECT doc_id, w[1:50] AS w FROM tok WHERE doc_id % 97 = 0),
bench AS (
  SELECT DISTINCT unnest(list_transform(generate_series(1, len(w) - 2),
                         i -> array_to_string(w[i:i+2], ' '))) AS ng
  FROM bench_src WHERE len(w) >= 3),
doc_ng AS (
  SELECT doc_id, unnest(list_transform(generate_series(1, len(w) - 2),
                        i -> array_to_string(w[i:i+2], ' '))) AS ng
  FROM tok WHERE len(w) >= 3),
contam AS (SELECT DISTINCT d.doc_id
           FROM doc_ng d JOIN bench b USING (ng)),
flags AS (
  SELECT s.doc_id, s.text,
         (s.n_tokens >= 5 AND s.dup_line_frac <= 0.3
          AND s.symbol_ratio <= 0.1 AND s.bullet_frac <= 0.9)
           AS gate_pass,
         c.doc_id IS NOT NULL AS contaminated
  FROM sig s LEFT JOIN contam c USING (doc_id)),
dup AS (
  SELECT doc_id, ROW_NUMBER() OVER (PARTITION BY md5(text)
                                    ORDER BY doc_id) AS rn
  FROM flags WHERE gate_pass AND NOT contaminated)
SELECT f.doc_id,
       CASE WHEN NOT f.gate_pass THEN 'gate_fail'
            WHEN f.contaminated THEN 'contaminated'
            WHEN d.rn > 1 THEN 'duplicate'
            ELSE 'kept' END AS status
FROM flags f LEFT JOIN dup d USING (doc_id) ORDER BY f.doc_id
"""
