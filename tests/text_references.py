"""Test references for the text operators, shared by several test
files: collecting forms of pipeline stages and the DuckDB definition
of the exact curation pass. No product entry point calls them, so they
live with the tests instead of in the package."""

import numpy as np
import pandas as pd
import ray

from osm_sidewalkreator_ray.functions.aggregates import _round_half_away
from osm_sidewalkreator_ray.pipelines.textops import (_BULLET,
                                                      _derive_bench,
                                                      _read_docs,
                                                      _simhash_batch,
                                                      _tokens,
                                                      curate_corpus_ds)


def ngram_hashes(words: list[str], n: int) -> np.ndarray:
    """Distinct stable 64-bit hashes of the token n-grams of one doc:
    the per-doc form the batch kernel ``textops._ngram_windows``
    replaced (one ``pd.util.hash_array`` and one ``np.unique`` per
    doc)."""
    if len(words) < n:
        return np.empty(0, dtype=np.uint64)
    grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    h = pd.util.hash_array(np.asarray(grams, dtype=object))
    return np.unique(h)


def benchmark_ngram_hashes(texts, n: int = 3,
                           max_tokens: int | None = None) -> np.ndarray:
    """Per-doc form of ``textops.benchmark_ngram_hashes``."""
    out = [np.empty(0, dtype=np.uint64)]
    for t in texts:
        w = _tokens(t)
        if max_tokens is not None:
            w = w[:max_tokens]
        out.append(ngram_hashes(w, n))
    return np.unique(np.concatenate(out))


def contaminated(texts, n: int, bench: np.ndarray) -> np.ndarray:
    """Per-doc decontamination flags as the fused curation map used to
    compute them: one ``searchsorted`` probe of each doc's n-gram
    hashes against the sorted eval-set array."""
    out = []
    for t in texts:
        doc_ng = ngram_hashes(_tokens(t), n)
        if len(doc_ng) and len(bench):
            idx = np.minimum(np.searchsorted(bench, doc_ng),
                             len(bench) - 1)
            out.append(bool((bench[idx] == doc_ng).any()))
        else:
            out.append(False)
    return np.array(out, dtype=bool)


def gopher_rows(texts, max_dup_line_frac: float, max_symbol_ratio: float,
                max_bullet_frac: float) -> pd.DataFrame:
    """Per-doc Gopher line rules, the loop ``textops._gopher_batch``
    replaced: duplicate-line fraction, symbol-to-word ratio, bullet-line
    fraction and the pass flag."""
    out = {"dup_line_frac": [], "symbol_ratio": [], "bullet_frac": [],
           "gopher_pass": []}
    for text in texts:
        lines = [ln for ln in text.split("\n") if ln.strip()]
        n_lines = len(lines)
        dup = (1.0 - len(set(lines)) / n_lines) if n_lines else 0.0
        n_words = len(_tokens(text))
        sym = ((text.count("#") + text.count("..."))
               / n_words if n_words else 0.0)
        bullet = (sum(ln.lstrip().startswith(_BULLET) for ln in lines)
                  / n_lines if n_lines else 0.0)
        out["dup_line_frac"].append(float(_round_half_away(dup)))
        out["symbol_ratio"].append(float(_round_half_away(sym)))
        out["bullet_frac"].append(float(_round_half_away(bullet)))
        out["gopher_pass"].append(dup <= max_dup_line_frac
                                  and sym <= max_symbol_ratio
                                  and bullet <= max_bullet_frac)
    return pd.DataFrame(out)


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
