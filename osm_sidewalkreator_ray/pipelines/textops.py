"""Text-analysis + deduplication operators over the ``documents`` table.

The training-data-pipeline operator family (per the build brief):
exact dedup, MinHash+LSH near-dup, SimHash, n-gram Jaccard, language
ID, quality scoring, token counting, fingerprinting. Everything is
vectorized per batch; the only shuffles are the dedup groupbys
(hash-partition on content hash / LSH band), which move one small row
per document, never the text payload, mirroring A5's
hash-partition-then-first plan (SURVEY.md §2.7).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.aggregates import _round_half_away

_WS = re.compile(r"\s+")

STOPWORDS = {
    "en": frozenset({"the", "a", "of", "and", "to"}),
    "pt": frozenset({"de", "o", "que", "e", "um"}),
    "es": frozenset({"el", "la", "de", "y", "un"}),
}


def _read_docs(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _tokens(text: str) -> list[str]:
    t = text.strip()
    return _WS.split(t) if t else []


# ------------------------------------------------------------ counting
#
# Each per-doc scorer has TWO forms: the `*_ds` library form maps a
# documents Dataset -> Dataset (streaming, what a 100 TB pipeline
# composes), and the plain form is the driver-oracle wrapper that reads
# sf_dir, collects and sorts (small results only).


def _token_count_batch(batch: pa.Table) -> pa.Table:
    """Pure-Arrow token count: trim + whitespace split + list length,
    all C++ kernels, zero Python objects. A trimmed-empty doc's split
    still yields one '' token, hence the if_else to 0."""
    trimmed = pc.utf8_trim_whitespace(batch["text"])
    n = pc.list_value_length(pc.utf8_split_whitespace(trimmed))
    n = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), n)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_tokens": pc.cast(n, pa.int64())})


def doc_token_counts_ds(docs):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset."""
    return docs.map_batches(_token_count_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def doc_token_counts(sf_dir: str):
    """doc_id -> whitespace token count (SQL-mirrored semantics)."""
    out = doc_token_counts_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


TOKEN_COUNT_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
FROM documents ORDER BY doc_id
"""


def _quality_batch(batch: pa.Table) -> pa.Table:
    """Arrow-native quality scorer: one C++ tokenize for the batch,
    per-token codepoint lengths (``pc.utf8_length``) and stopword
    membership (``pc.is_in``) reduced to per-doc sums via
    ``np.add.reduceat`` — no per-doc Python, no object columns except
    the flat token array Arrow already holds. Values are identical to
    the per-doc form (integer sums divided once per doc)."""
    fl, counts = _flat_tokens_arrow(batch["text"])
    tok_len = pc.utf8_length(fl).to_numpy(zero_copy_only=False)
    is_stop = pc.is_in(
        fl, value_set=pa.array(sorted(STOPWORDS["en"]))) \
        .to_numpy(zero_copy_only=False)
    len_sum = _seg_sums(tok_len, counts)
    stop_sum = _seg_sums(is_stop, counts)
    nz = counts > 0
    denom = np.where(nz, counts, 1).astype(np.float64)
    mean_len = np.where(nz, len_sum / denom, 0.0)
    stop_ratio = np.where(nz, stop_sum / denom, 0.0)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pa.array(counts, pa.int64()),
        "mean_token_len": pa.array(_round_half_away(mean_len)),
        "stop_ratio": pa.array(_round_half_away(stop_ratio))})


def doc_quality_ds(docs):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset of
    quality-score columns."""
    return docs.map_batches(_quality_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def doc_quality(sf_dir: str):
    """Quality-scoring columns: token count, mean token length,
    stopword ratio (en list) — M-series normalizer analogue."""
    out = doc_quality_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


QUALITY_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents)
SELECT doc_id, len(w) AS n_tokens,
       ROUND(CASE WHEN len(w) = 0 THEN 0.0
             ELSE list_sum(list_transform(w, x -> len(x))) * 1.0 / len(w) END, 6)
         AS mean_token_len,
       ROUND(CASE WHEN len(w) = 0 THEN 0.0
             ELSE len(list_filter(w, x -> x IN ('the','a','of','and','to')))
                  * 1.0 / len(w) END, 6) AS stop_ratio
FROM t ORDER BY doc_id
"""


def _fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Whitespace normalization in Arrow (trim + one RE2 regex over
    the whole column), then md5 per normalized string — the only
    per-row Python left, since there is no vectorized md5. The digest
    dominates, so the loop is not the bottleneck.

    Normalization collapses RE2 ``\\s`` (ASCII: tab/newline/ff/cr/
    space) — deliberately the SAME class FINGERPRINT_SQL's DuckDB
    regexp uses, so engine and oracle agree on every input. Docs
    whose only whitespace variation is a Unicode space (NBSP, \\x0b)
    therefore keep distinct fingerprints, unlike the tokenizer
    (``_flat_tokens_arrow``), which splits on Unicode whitespace;
    fingerprints produced before this Arrow form (Python ``\\s``)
    differ on such docs."""
    norm = pc.replace_substring_regex(
        pc.utf8_trim_whitespace(batch["text"]), pattern=r"\s+",
        replacement=" ")
    fp = [hashlib.md5(s.encode()).hexdigest()
          for s in norm.to_pylist()]
    return pa.table({"doc_id": batch["doc_id"],
                     "fingerprint": pa.array(fp, pa.string())})


def doc_fingerprint_ds(docs):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset."""
    return docs.map_batches(_fingerprint_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def doc_fingerprint(sf_dir: str):
    """Deterministic document fingerprint: md5 of whitespace-normalized
    text (the rolling-hash fingerprint's SQL-checkable cousin)."""
    out = doc_fingerprint_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


FINGERPRINT_SQL = r"""
SELECT doc_id, md5(regexp_replace(trim(text), '\s+', ' ', 'g')) AS fingerprint
FROM documents ORDER BY doc_id
"""


def _lang_id_batch(batch: pa.Table) -> pa.Table:
    """Arrow-native stopword-voting language ID: one tokenize, one
    ``pc.is_in`` per language over the flat token array, per-doc vote
    sums via reduceat; same deterministic tie-break (en > pt > es)."""
    fl, counts = _flat_tokens_arrow(batch["text"])
    votes = {}
    for lang, sw in STOPWORDS.items():
        hit = pc.is_in(fl, value_set=pa.array(sorted(sw))) \
            .to_numpy(zero_copy_only=False)
        votes[lang] = _seg_sums(hit, counts)
    en, pt, es = votes["en"], votes["pt"], votes["es"]
    pred = np.where((en >= pt) & (en >= es), "en",
                    np.where(pt >= es, "pt", "es"))
    return pa.table({"doc_id": batch["doc_id"],
                     "lang_pred": pa.array(pred)})


def lang_id_ds(docs):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset."""
    return docs.map_batches(_lang_id_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def lang_id(sf_dir: str):
    """Stopword-voting language ID with deterministic tie-break
    (en > pt > es) — mirrored exactly in SQL."""
    out = lang_id_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


LANG_ID_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
s AS (
  SELECT doc_id,
         len(list_filter(w, x -> x IN ('the','a','of','and','to'))) AS en,
         len(list_filter(w, x -> x IN ('de','o','que','e','um')))   AS pt,
         len(list_filter(w, x -> x IN ('el','la','de','y','un')))   AS es
  FROM t)
SELECT doc_id,
       CASE WHEN en >= pt AND en >= es THEN 'en'
            WHEN pt >= es THEN 'pt' ELSE 'es' END AS lang_pred
FROM s ORDER BY doc_id
"""


def lang_stats(sf_dir: str):
    """Grouped stats on the labeled lang column (A4/A3 analogue)."""
    from ..functions.aggregates import grouped_agg
    ds = _read_docs(sf_dir, ["lang", "n_chars"])
    out = grouped_agg(ds, ["lang"], {
        "n_docs": (None, "count"),
        "avg_chars": ("n_chars", "mean"),
    })
    df = out.to_pandas().sort_values("lang").reset_index(drop=True)
    # half-away like DuckDB ROUND (see _round_half_away)
    df["avg_chars"] = _round_half_away(df["avg_chars"], 4)
    return df


LANG_STATS_SQL = """
SELECT lang, COUNT(*) AS n_docs, ROUND(AVG(n_chars), 4) AS avg_chars
FROM documents GROUP BY lang ORDER BY lang
"""


# --------------------------------------------------------------- dedup

def _content_hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
    hh = batch["text"].map(lambda s: hashlib.sha1(s.encode()).hexdigest())
    return pd.DataFrame({
        "doc_id": batch["doc_id"], "__h": hh,
        # coarse bucket so the shuffle groups O(buckets) times, not
        # O(distinct hashes): one vectorized pandas groupby per
        # bucket resolves the real hash groups
        "__b": (pd.util.hash_array(hh.to_numpy(dtype=object)) % 256)
        .astype(np.int64)})


def _dedup_first(g: pd.DataFrame) -> pd.DataFrame:
    out = g.groupby("__h").agg(doc_id=("doc_id", "min"),
                               n_dups=("doc_id", "size"))
    return out.reset_index(drop=True).astype({"n_dups": "int64"})


def exact_dedup_ds(docs):
    """Streaming form of exact dedup (A5): documents Dataset
    (doc_id, text) -> Dataset of (doc_id, n_dups) survivors. Only
    (hash, doc_id) crosses the shuffle, never the text."""
    hashed = docs.map_batches(_content_hash_batch, batch_format="pandas")
    return hashed.groupby("__b").map_groups(_dedup_first,
                                            batch_format="pandas")


def exact_dedup(sf_dir: str):
    """Exact dedup (A5): content-hash per batch -> hash-partitioned
    groupby -> keep min doc_id."""
    out = exact_dedup_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


EXACT_DEDUP_SQL = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY text ORDER BY doc_id
"""


def incremental_exact_dedup(existing, new):
    """Dedup a NEW crawl batch against an EXISTING corpus — the
    continuous-ingestion form of ``exact_dedup``. Both args are
    Datasets with (doc_id, text) [existing may carry a precomputed
    ``content_hash`` column instead of text].

    Physical plan (never rescans existing text against new text
    pairwise): a Bloom bitmap of the existing hashes is built in one
    fixed-size-partial pass and broadcast; new docs whose hash MISSES
    the bloom are definitely-new (no false negatives) and short-circuit
    straight to the output without touching any shuffle. Only the
    bloom HITS (true dups + ~1% false positives) enter a
    hash-partitioned anti-join against the slim existing hash table
    for exact confirmation. At corpus scale the shuffle moves
    |new_dups| + FPR * |new| rows, not |existing|."""
    from ..functions.joins import (bloom_prefilter, build_key_bloom,
                                   _bloom_contains, hash_partition_join)

    def h(batch: pd.DataFrame) -> pd.DataFrame:
        if "content_hash" in batch.columns:
            hh = batch["content_hash"]
        else:
            hh = batch["text"].map(
                lambda s: hashlib.sha1(s.encode()).hexdigest())
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "content_hash": hh})

    ex_h = existing.map_batches(h, batch_format="pandas").materialize()
    new_h = new.map_batches(h, batch_format="pandas").materialize()
    bloom = build_key_bloom(ex_h, "content_hash")
    import ray as _ray
    bloom_ref = _ray.put(bloom)

    def split(flag: bool):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            blm = _ray.get(bloom_ref)
            hit = _bloom_contains(b["content_hash"], blm)
            return b[hit] if flag else b[~hit]
        return f

    fresh = new_h.map_batches(split(False), batch_format="pandas")
    maybe = new_h.map_batches(split(True), batch_format="pandas")

    # exact confirmation of the (small) maybe set: left join against
    # the slim existing hash column; unmatched = bloom false positives
    # -> they are new
    ex_slim = ex_h.map_batches(
        lambda b: pd.DataFrame({"content_hash": b["content_hash"],
                                "__seen": np.int8(1)}).drop_duplicates(),
        batch_format="pandas")
    joined = hash_partition_join(maybe, ex_slim, on="content_hash",
                                 how="left", num_buckets=16)
    confirmed_new = joined.map_batches(
        lambda b: b.loc[b["__seen"].isna(), ["doc_id", "content_hash"]],
        batch_format="pandas")

    out = fresh.union(confirmed_new).to_pandas()
    if out.empty:
        # every new doc was a duplicate (the steady-state batch): an
        # all-empty union collects to a columnLESS frame, so the
        # column ops below would raise KeyError
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "content_hash":
                             pd.Series([], dtype="uint64")})
    # in-batch dups among the new docs themselves: keep min doc_id
    out = (out.sort_values("doc_id").groupby("content_hash", sort=False)
           .head(1))
    return (out[["doc_id", "content_hash"]].sort_values("doc_id")
            .reset_index(drop=True))


_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _mixmul(h, j: int):
    """Position-j mixing of token hash(es) ``h`` (scalar or uint64
    array). The _MIX multipliers cycle every 3; rotate by (j // 3)
    bits to keep positions distinct for ANY k (the rotation is 0 for
    j < 3, so k <= 3 outputs — every golden fixture and oracle — are
    byte-identical to the original scheme)."""
    v = h * np.uint64(_MIX[j % len(_MIX)])
    r = np.uint64((j // len(_MIX)) % 63)
    if r:
        v = (v << r) | (v >> (np.uint64(64) - r))
    return v


def _rotmix(h, j: int):
    """Position-j mixing by pure bit ROTATION (left by (21*j) % 64) —
    the SQL-reproducible alternative to ``_mixmul``: DuckDB has no
    wrapping multiply, but a rotate is two exact HUGEINT-safe shifts
    (``(h*2^r) % 2^64 + (h >> (64-r))``). Distinct for j < 64 because
    21 is invertible mod 64."""
    r = np.uint64((21 * j) % 64)
    if not r:
        return h
    return (h << r) | (h >> (np.uint64(64) - r))


def _shingle_hashes(words: list[str], k: int = 3, *, hash_fn=None,
                    mix=None) -> np.ndarray:
    """Unique k-gram shingle hashes for ONE doc: per-token 64-bit
    hashes (pandas siphash by default, deterministic) combined across
    the k-window with a per-position mixing function. Hot-path batches
    use ``_shingle_hashes_batch`` (one hash call for the whole batch);
    this per-doc form is the identity-tested reference and the entry
    point for single-doc callers. ``hash_fn``/``mix`` select the hash
    family: the default (siphash + ``_mixmul``) is the historical one
    pinned by golden fixtures; (``_md5_token_hashes`` + ``_rotmix``)
    is the SQL-oracle-reproducible one used by the MinHash family."""
    hash_fn = hash_fn or pd.util.hash_array
    mix = mix or _mixmul
    if not words:
        return np.empty(0, dtype=np.uint64)
    th = hash_fn(np.asarray(words, dtype=object))
    if len(th) < k:
        combo = np.uint64(0)
        for j, h in enumerate(th):
            combo ^= mix(np.uint64(h), j)
        return np.array([combo], dtype=np.uint64)
    acc = np.zeros(len(th) - k + 1, dtype=np.uint64)
    for j in range(k):
        acc ^= mix(th[j:len(th) - k + 1 + j], j)
    return np.unique(acc)


def _md5_shingle_hashes(words: list[str], k: int = 3) -> np.ndarray:
    """``_shingle_hashes`` over the md5-derived token hash with the
    rotation mix — every step exactly reproducible in DuckDB SQL
    (see MINHASH_DEDUP_SQL), which is what buys the MinHash family
    its full oracle."""
    return _shingle_hashes(words, k, hash_fn=_md5_token_hashes,
                           mix=_rotmix)


_MIX = (0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


def _seg_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — the segmented arange that
    turns per-doc offsets + counts into flat global indices."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    o = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=o[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(o, counts)


def _flat_tokens_arrow(texts) -> tuple[pa.Array, np.ndarray]:
    """Whole-batch tokenization: texts (pa.Array / ChunkedArray /
    sequence of str) -> (flat Arrow StringArray of all tokens in doc
    order, int64 per-doc token counts). ONE Arrow C++
    ``utf8_split_whitespace`` replaces the per-doc regex split —
    semantics match ``_tokens`` exactly (strip, split on whitespace
    runs, no empty tokens; identity-tested): after
    ``utf8_trim_whitespace`` the split emits an empty token ONLY for
    whole-empty docs, which the not-equal filter removes."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    elif isinstance(texts, pd.Series):
        arr = pa.Array.from_pandas(texts, type=pa.string())
    else:
        arr = pa.array(list(texts), type=pa.string())
    if arr.null_count:
        arr = arr.fill_null("")
    sp = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(arr))
    fl = pc.list_flatten(sp)
    nonempty = pc.not_equal(fl, "")
    ntok = pc.list_value_length(sp).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    if not pc.all(nonempty).as_py():
        # whole-empty docs contribute exactly one '' placeholder each
        empties = np.flatnonzero(
            ~nonempty.to_numpy(zero_copy_only=False))
        doc_of = np.repeat(np.arange(len(ntok), dtype=np.int64), ntok)
        ntok[doc_of[empties]] -= 1
        fl = fl.filter(nonempty)
    return fl, ntok


def _flat_tokens(texts) -> tuple[np.ndarray, np.ndarray]:
    """``_flat_tokens_arrow`` with the flat tokens as a numpy object
    array — for consumers that feed ``pd.util.hash_array``."""
    fl, ntok = _flat_tokens_arrow(texts)
    return fl.to_numpy(zero_copy_only=False), ntok


def _encoded_tokens(texts):
    """Tokenize + C++-side dictionary-encode a whole batch: returns
    (idx, dictionary, vocab, ntok) where ``idx`` maps each token
    occurrence to its entry in the unique ``dictionary`` (Arrow
    array) / ``vocab`` (numpy object array) — the shared core of
    `_flat_token_hashes` and `_flat_token_hashes_stop`, so the
    encoding path cannot drift between them. idx/dictionary/vocab
    are None when the batch has no tokens."""
    fl, ntok = _flat_tokens_arrow(texts)
    if len(fl) == 0:
        return None, None, None, ntok
    enc = fl.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    return idx, enc.dictionary, vocab, ntok


def _flat_token_hashes(texts, hash_fn=None) \
        -> tuple[np.ndarray, np.ndarray]:
    """Per-token 64-bit hashes for a whole batch WITHOUT materializing
    every token as a Python object: tokenize in Arrow, dictionary-
    encode the flat token array C++-side, hash only the UNIQUE vocab
    (the one step that genuinely needs Python strings — md5 or
    pandas siphash), then scatter to occurrences via the dictionary
    indices. Identical to hashing the flat object array directly
    (both hash functions are per-element), but the Python-object cost
    is vocab-bounded instead of token-bounded."""
    hash_fn = hash_fn or pd.util.hash_array
    idx, _, vocab, ntok = _encoded_tokens(texts)
    if idx is None:
        return np.empty(0, dtype=np.uint64), ntok
    uh = (_md5_hash_unique(vocab) if hash_fn is _md5_token_hashes
          else hash_fn(vocab).astype(np.uint64))
    return uh[idx], ntok


def _flat_token_hashes_stop(texts):
    """ONE tokenize pass shared by the md5 hash AND the stopword
    gate: returns (th, ntok, stop_ratio) where stop_ratio is rounded
    exactly as ``_quality_batch`` rounds it (equality-tested) — the
    fused form ``dsir_select`` and the trained classifier use so the
    gate costs no second tokenize of the batch."""
    idx, dictionary, vocab, ntok = _encoded_tokens(texts)
    nd = len(ntok)
    if idx is None:
        return (np.empty(0, dtype=np.uint64), ntok,
                np.zeros(nd, dtype=np.float64))
    th = _md5_hash_unique(vocab)[idx]
    is_stop = pc.is_in(
        dictionary,
        value_set=pa.array(sorted(STOPWORDS["en"])))         .to_numpy(zero_copy_only=False)[idx]
    stop_sum = _seg_sums(is_stop, ntok)
    nz = ntok > 0
    denom = np.where(nz, ntok, 1).astype(np.float64)
    sr = np.where(nz, stop_sum / denom, 0.0)
    return th, ntok, _round_half_away(sr)


def _seg_sums(values: np.ndarray, counts: np.ndarray,
              dtype=np.int64) -> np.ndarray:
    """Per-doc sums of a flat per-token array: reduceat at non-empty
    doc starts; empty docs get 0."""
    out = np.zeros(len(counts), dtype=dtype)
    nz = counts > 0
    if values.size:
        cnz = counts[nz]
        st = np.zeros(len(cnz), dtype=np.int64)
        np.cumsum(cnz[:-1], out=st[1:])
        out[nz] = np.add.reduceat(values, st, dtype=dtype)
    return out


def _shingle_hashes_batch(texts, k: int = 3, *, hash_fn=None,
                          mix=None, with_ntok: bool = False):
    """Vectorized ``_shingle_hashes`` over a WHOLE batch: one token
    hash call, one windowed combine, one lexsort-dedupe — no per-doc
    Python. Returns (flat, counts): ``flat`` concatenates each doc's
    ascending unique shingle hashes; ``counts[i]`` is doc i's count.
    With ``with_ntok`` the per-doc TOKEN counts ride along as a third
    element (the tokenization already happened — consumers like the
    fused curation's keep-longest rule then skip a whole extra corpus
    scan). Byte-identical to mapping ``_shingle_hashes`` per doc with
    the same ``hash_fn``/``mix`` pair (identity-tested in
    tests/test_textops_vectorized.py)."""
    mix = mix or _mixmul
    th, ntok = _flat_token_hashes(texts, hash_fn)
    nd = len(ntok)
    if th.size == 0:
        empty = (np.empty(0, dtype=np.uint64), np.zeros(nd, np.int64))
        return empty + (ntok,) if with_ntok else empty
    starts = np.zeros(nd, dtype=np.int64)
    np.cumsum(ntok[:-1], out=starts[1:])
    big = ntok >= k
    nw = np.where(big, ntok - k + 1, 0).astype(np.int64)
    small = (ntok > 0) & ~big
    counts_raw = nw + small.astype(np.int64)
    o = np.zeros(nd, dtype=np.int64)
    np.cumsum(counts_raw[:-1], out=o[1:])
    out = np.zeros(int(counts_raw.sum()), dtype=np.uint64)
    with np.errstate(over="ignore"):
        if big.any():
            nb = nw[big]
            seg = _seg_arange(nb)
            wi = np.repeat(starts[big], nb) + seg
            acc = np.zeros(len(wi), dtype=np.uint64)
            for j in range(k):
                acc ^= mix(th[wi + j], j)
            out[np.repeat(o[big], nb) + seg] = acc
        if small.any():
            sst, sn = starts[small], ntok[small]
            combo = np.zeros(len(sst), dtype=np.uint64)
            for j in range(k - 1):
                m = sn > j
                combo[m] ^= mix(th[sst[m] + j], j)
            out[o[small]] = combo
    # per-doc ascending unique without a per-doc np.unique loop:
    # lexsort by (doc, hash), then drop adjacent duplicates per doc
    docidx = np.repeat(np.arange(nd, dtype=np.int64), counts_raw)
    order = np.lexsort((out, docidx))
    vals, d = out[order], docidx[order]
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = (vals[1:] != vals[:-1]) | (d[1:] != d[:-1])
    res = (vals[keep], np.bincount(
        d[keep], minlength=nd).astype(np.int64))
    return res + (ntok,) if with_ntok else res


# token-hash marker carried by every MinHash signature row
_THASH = "md5"


class MinHasher:
    """Actor-pool stage: permutation parameters built once per actor.

    Shingles use the SQL-reproducible md5+rotation scheme
    (``_md5_token_hashes`` + ``_rotmix``) that buys
    ``minhash_dedup_pairs`` its full DuckDB oracle (MINHASH_DEDUP_SQL).
    Every signature row carries ``thash="md5"`` so a stored artifact
    can be checked against it."""

    def __init__(self, num_perm: int = 64, k: int = 3, seed: int = 42):
        self.a, self.b = _minhash_params(num_perm, seed)
        self.k = k
        self.num_perm = num_perm

    def signature(self, words: list[str]) -> np.ndarray:
        return self.signature_from_shingles(
            _shingle_hashes(words, self.k, hash_fn=_md5_token_hashes,
                            mix=_rotmix))

    def signature_from_shingles(self, sh: np.ndarray) -> np.ndarray:
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (a*x + b) mod p, min over shingles, vectorized
        x = sh[None, :].astype(np.uint64)
        v = (self.a[:, None] * x + self.b[:, None]) % np.uint64(_MERSENNE)
        return v.min(axis=1)

    def __call__(self, batch):
        # whole-batch path (pandas OR pyarrow batch — pyarrow is
        # zero-copy from the object store and skips materializing the
        # document strings): one tokenize + one shingle-hash combine
        # (_shingle_hashes_batch) and one (shingles, num_perm) matrix
        # with per-doc mins via minimum.reduceat — byte-identical to
        # the per-doc signature_from_shingles loop (identity-tested)
        flat, counts = _shingle_hashes_batch(
            batch["text"], self.k, hash_fn=_md5_token_hashes, mix=_rotmix)
        nd = len(counts)
        sig = np.zeros((nd, self.num_perm), dtype=np.uint64)
        nz = counts > 0
        if flat.size:
            cnz = counts[nz]
            st = np.zeros(len(cnz), dtype=np.int64)
            np.cumsum(cnz[:-1], out=st[1:])
            ends = st + cnz
            out_rows = np.flatnonzero(nz)
            # bound the (shingles, num_perm) transient: the full-batch
            # matrix is 8*num_perm bytes PER SHINGLE (~0.5 KiB at 64
            # perms), i.e. ~1 GB for a 1024-doc batch of 2k-token docs
            # — process doc RANGES of <=2^18 shingles (~128 MiB)
            # instead; byte-identical (reduceat per range)
            ch = 1 << 18
            i = 0
            with np.errstate(over="ignore"):
                while i < len(cnz):
                    if int(cnz[i]) > ch:
                        # one OVERSIZED doc: sub-chunk its shingle
                        # range and fold per-chunk minima — the bound
                        # holds WITHIN a doc too (min of partition
                        # minima == global min, byte-identical)
                        row = np.full(self.num_perm,
                                      np.iinfo(np.uint64).max,
                                      dtype=np.uint64)
                        for c0 in range(int(st[i]), int(ends[i]), ch):
                            seg = flat[c0:min(c0 + ch, int(ends[i]))]
                            v = (seg[:, None] * self.a[None, :]
                                 + self.b[None, :]) \
                                % np.uint64(_MERSENNE)
                            row = np.minimum(row, v.min(axis=0))
                        sig[out_rows[i]] = row
                        i += 1
                        continue
                    j = i + 1
                    tot = int(cnz[i])
                    while j < len(cnz) and tot + int(cnz[j]) <= ch:
                        tot += int(cnz[j])
                        j += 1
                    seg = flat[st[i]:ends[j - 1]]
                    v = (seg[:, None] * self.a[None, :]
                         + self.b[None, :]) % np.uint64(_MERSENNE)
                    sig[out_rows[i:j]] = np.minimum.reduceat(
                        v, st[i:j] - st[i], axis=0)
                    i = j
        off = np.zeros(nd + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        shingles = [flat[off[i]:off[i + 1]].tobytes()
                    for i in range(nd)]
        sigs = [sig[i].tobytes() for i in range(nd)]
        # the thash marker rides the signature rows so a STORED
        # artifact can be validated (signatures built with another
        # token hash silently find nothing)
        if isinstance(batch, pa.Table):
            return pa.table({"doc_id": batch["doc_id"],
                             "sig": pa.array(sigs, pa.binary()),
                             "shingles": pa.array(shingles,
                                                  pa.binary()),
                             "thash": pa.array(
                                 [_THASH] * nd, pa.string())})
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "sig": sigs, "shingles": shingles,
                             "thash": _THASH})


# task-form of MinHasher: the only state is the (a, b) permutation
# array pair, derived from (num_perm, seed) — cache it per worker
# process so stateless tasks get actor-style setup-once without an
# actor pool (whose size would otherwise cap this compute-bound
# stage's parallelism)
_HASHER_CACHE: dict[tuple, MinHasher] = {}


def _explode_bands(batch: pd.DataFrame, num_perm: int, bands: int,
                   coarse_buckets: int) -> pd.DataFrame:
    """Signature rows -> SLIM LSH band rows (band, band_hash, doc_id,
    coarse bucket). Shared by the full and incremental minhash paths —
    identical banding is what makes the incremental result provably a
    filter of the full run's."""
    if num_perm % bands:
        raise ValueError(f"bands={bands} must divide num_perm="
                         f"{num_perm}")
    n = len(batch)
    rows_per_band = num_perm // bands
    s = np.frombuffer(b"".join(batch["sig"]),
                      dtype=np.uint64).reshape(n, num_perm)
    chunks = s.reshape(n, bands, rows_per_band)
    bh = np.zeros((n, bands), dtype=np.uint64)
    for j in range(rows_per_band):
        bh ^= (chunks[:, :, j] + np.uint64(j + 1)) \
            * np.uint64(_MIX[j % len(_MIX)])
    bh >>= np.uint64(1)  # keep int64-positive for Arrow
    return pd.DataFrame({
        "band": np.tile(np.arange(bands), n),
        "band_hash": bh.reshape(-1).view(np.int64),
        "doc_id": np.repeat(batch["doc_id"].to_numpy(), bands),
        "__cb": (bh.reshape(-1) % np.uint64(coarse_buckets))
            .astype(np.int64)})


def _minhash_batch(batch: pd.DataFrame, num_perm: int, k: int,
                   seed: int) -> pd.DataFrame:
    key = (num_perm, k, seed)
    h = _HASHER_CACHE.get(key)
    if h is None:
        h = _HASHER_CACHE[key] = MinHasher(num_perm, k, seed)
    return h(batch)


def minhash_dedup_pairs(sf_dir: str, num_perm: int = 64, bands: int = 16,
                        threshold: float = 0.5, coarse_buckets: int = 64,
                        _as_dataset: bool = False):
    """MinHash+LSH near-dup pairs with a FULL DuckDB oracle.
    (Broder '97 resemblance sketches; banding per Leskovec/Rajaraman/
    Ullman, Mining of Massive Datasets ch. 3.)

    Every step is SQL-reproducible (MINHASH_DEDUP_SQL): token hash =
    first 8 md5 bytes (the SimHash family's scheme), shingle = XOR of
    per-position rotations,
    signature = min over shingles of ``(a*x + b) mod 2^64 mod (2^61-1)``
    with the (a, b) literals inlined into the SQL, LSH candidacy =
    exact equality of a band's value tuple, and the verify step's
    Jaccard computed over the same md5 shingle sets. The oracle's only
    approximation is a ~2^-63 band-hash collision that could surface
    an extra (still Jaccard-verified) engine pair — negligible at any
    tested scale.

    Physical plan: shingle->minhash signatures (actor pool, shingle
    hashes kept as a bytes column) -> SLIM band rows (band, band_hash,
    doc_id — never the text) -> coarse-bucketed groupby (Python-call
    count O(coarse_buckets), real LSH buckets resolved by a vectorized
    pandas groupby inside) -> candidate pairs, deduplicated by a
    pair-hash groupby -> exact shingle-Jaccard verification via TWO
    hash-partition joins of the candidate pairs against the (doc_id,
    shingles) table — nothing whole-corpus is ever broadcast or
    collected; every shuffle moves one slim row per candidate/doc.
    """
    import functools
    if num_perm % bands:
        raise ValueError(f"bands={bands} must divide num_perm="
                         f"{num_perm}")  # fail BEFORE the sig pass
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    from ..functions.blocks import coalesce_slim
    sigs = coalesce_slim(ds.map_batches(
        functools.partial(_minhash_batch, num_perm=num_perm, k=3, seed=42),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1024).materialize())

    exploded = sigs.map_batches(
        functools.partial(_explode_bands, num_perm=num_perm, bands=bands,
                          coarse_buckets=coarse_buckets),
        batch_format="pandas")

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.pairgen import pairs_sharing_key
        # (band, band_hash) folded to one key: band_hash is already a
        # 63-bit mix, so xor-ing the band keeps buckets distinct
        key = g["band_hash"].to_numpy() ^ (g["band"].to_numpy() + 1)
        a, b = pairs_sharing_key(key, g["doc_id"].to_numpy())
        if len(a) == 0:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": a, "doc_b": b}).drop_duplicates()

    cand = (exploded.groupby("__cb")
            .map_groups(candidates, batch_format="pandas"))

    # exact-Jaccard verify via two hash-partition joins against the
    # slim (doc_id, shingles) table — no broadcast store (shared with
    # the prefix-filtered exact variant).
    pairs = _exact_verify_pairs(cand, sigs, threshold)
    if _as_dataset:
        return pairs
    df = pairs.to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _minhash_dedup_sql(num_perm: int = 64, bands: int = 16,
                       threshold: float = 0.5, k: int = 3,
                       seed: int = 42) -> str:
    """Full DuckDB oracle for ``minhash_dedup_pairs``: rebuilds the
    md5 token hash, rotation-combined k=3 shingles, the 64 permuted
    min-hashes ((a*x + b) wrapping mod 2^64 then mod 2^61-1, with the
    seed-42 (a, b) literals inlined below), band-tuple equality for
    LSH candidacy, and the exact shingle-Jaccard verify — every step
    integer-exact in HUGEINT, so the SQL reproduces the engine
    bit-for-bit (band-hash collisions aside, ~2^-63 per compared
    pair). Short docs (< k tokens) hash their full token run as ONE
    shingle, matching ``_shingle_hashes``' small-doc path via the
    COALESCE(LEAD, 0) identity (rot(0) = 0 = XOR identity).

    Domain caveat shared by every tokenizing oracle in this module
    (ngram/simhash/quality/curation/DSIR too): the SQL side splits on
    RE2 ASCII ``\\s+`` while the engine's Arrow tokenizer splits on
    Unicode whitespace — on corpora containing NBSP/U+2000-class
    separators the comparison diverges (as an oracle FAILURE, never
    silent corruption). All test corpora are ASCII-whitespace."""
    assert k == 3, "SQL oracle is written for the default k=3"
    a, b = _minhash_params(num_perm, seed)
    rpb = num_perm // bands
    perms = ",\n    ".join(
        f"({i}, {int(a[i])}, {int(b[i])})" for i in range(num_perm))
    two64 = "18446744073709551616"
    mers = str((1 << 61) - 1)

    def rot(expr: str, r: int) -> str:
        return (f"(((({expr})::HUGEINT * {1 << r}) % {two64})::UBIGINT"
                f" + (({expr}) >> {64 - r}))")

    sh_big = ("xor(xor(hs[i], " + rot("hs[i + 1]", 21) + "), "
              + rot("hs[i + 2]", 42) + ")")
    sh_small = ("xor(xor(hs[1], "
                + rot("COALESCE(hs[2], 0::UBIGINT)", 21) + "), "
                + rot("COALESCE(hs[3], 0::UBIGINT)", 42) + ")")
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w
  FROM documents WHERE trim(text) <> ''),
th AS (
  SELECT doc_id,
         list_transform(w, tk ->
             ('0x' || substr(md5(tk), 1, 16))::UBIGINT) AS hs
  FROM tok),
sh0 AS (
  SELECT doc_id,
         CASE WHEN len(hs) < 3 THEN [{sh_small}]
              ELSE list_transform(generate_series(1, len(hs) - 2),
                                  i -> {sh_big}) END AS ss
  FROM th),
sh AS (
  SELECT DISTINCT doc_id, unnest(ss) AS s FROM sh0),
perms(i, a, b) AS (VALUES
    {perms}),
mh AS (
  SELECT sh.doc_id, p.i,
         MIN((((p.a::HUGEINT * sh.s::HUGEINT) % {two64} + p.b)
              % {two64}) % {mers}) AS v
  FROM sh CROSS JOIN perms p GROUP BY sh.doc_id, p.i),
bs AS (
  SELECT doc_id, i // {rpb} AS band,
         string_agg(v::VARCHAR, ',' ORDER BY i) AS sig
  FROM mh GROUP BY doc_id, i // {rpb}),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bs x JOIN bs y ON x.band = y.band AND x.sig = y.sig
                      AND x.doc_id < y.doc_id),
cnt AS (SELECT doc_id, COUNT(*) AS nsh FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, COUNT(*) AS ni
  FROM cand c
  JOIN sh x ON x.doc_id = c.doc_a
  JOIN sh y ON y.doc_id = c.doc_b AND y.s = x.s
  GROUP BY c.doc_a, c.doc_b)
SELECT i.doc_a, i.doc_b,
       ROUND(i.ni * 1.0 / (ca.nsh + cb.nsh - i.ni), 6) AS jaccard
FROM inter i
JOIN cnt ca ON ca.doc_id = i.doc_a
JOIN cnt cb ON cb.doc_id = i.doc_b
WHERE i.ni * 1.0 / (ca.nsh + cb.nsh - i.ni) >= {threshold}
ORDER BY doc_a, doc_b
"""


MINHASH_DEDUP_SQL = _minhash_dedup_sql()


def _exact_verify_pairs(cand, docs_with_shingles, threshold: float):
    """Candidate pairs -> exact-Jaccard-verified pairs Dataset.

    Two hash-partition joins attach each side's full shingle set to the
    pair rows; the per-pair ``np.intersect1d`` then computes the exact
    Jaccard. A pair found by several bands/prefix-tokens lands in
    several coarse buckets; every copy of pair (a, b) shares doc_a, so
    it co-locates in the SAME j1 bucket — the cross-bucket pair dedup
    runs as j1's group_fn instead of costing its own shuffle.

    ``cand`` and ``j1`` are pinned: each join reads its inputs'
    schemas on the driver, which would otherwise re-run every shuffle
    upstream of them once per probe. Both are bounded by the candidate
    pairs, and the pinned count lets zero candidates return a typed
    empty Dataset (an empty input has no schema to join on)."""
    from ..functions.joins import hash_partition_join
    cand = cand.materialize()
    if cand.count() == 0:
        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))
    # explicit Arrow schemas (binary shingles) so the join's tagged
    # union pads with the right types
    shingle_tbl = docs_with_shingles.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_id"].to_numpy(), pa.int64()),
            "shingles": pa.array(list(b["shingles"]), pa.binary())}),
        batch_format="pandas")
    left_a = cand.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_a"].to_numpy(), pa.int64()),
            "doc_b": pa.array(b["doc_b"].to_numpy(), pa.int64())}),
        batch_format="pandas")
    j1 = hash_partition_join(left_a, shingle_tbl, on="doc_id",
                             num_buckets=32,
                             group_fn=lambda df: df.drop_duplicates(
                                 ["doc_id", "doc_b"])).materialize()
    left_b = j1.map_batches(
        lambda b: pa.table({
            "doc_a": pa.array(b["doc_id"].to_numpy(), pa.int64()),
            "sh_a": pa.array(list(b["shingles"]), pa.binary()),
            "doc_id": pa.array(b["doc_b"].to_numpy(), pa.int64())}),
        batch_format="pandas")
    j2 = hash_partition_join(left_b, shingle_tbl, on="doc_id",
                             num_buckets=32)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_a": [], "doc_b": [], "jaccard": []}
        for a, b, ba, bb in zip(batch["doc_a"], batch["doc_id"],
                                batch["sh_a"], batch["shingles"]):
            sa = np.frombuffer(ba, dtype=np.uint64)
            sb = np.frombuffer(bb, dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                out["doc_a"].append(int(a))
                out["doc_b"].append(int(b))
                out["jaccard"].append(float(_round_half_away(jac)))
        return pd.DataFrame({"doc_a": pd.Series(out["doc_a"], dtype="int64"),
                             "doc_b": pd.Series(out["doc_b"], dtype="int64"),
                             "jaccard": pd.Series(out["jaccard"],
                                                  dtype="float64")})

    return j2.map_batches(verify, batch_format="pandas")


def _md5_hash_unique(uniq) -> np.ndarray:
    """md5-first-8-bytes hash of an ALREADY-UNIQUE token sequence —
    the core both `_md5_token_hashes` (which dedupes first) and
    `_flat_token_hashes` (whose dictionary is unique by construction)
    share, so the vocab is never re-uniqued."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
         for s in uniq), dtype=np.uint64, count=len(uniq))


def _md5_token_hashes(flat: np.ndarray) -> np.ndarray:
    """64-bit token hash = first 8 bytes (big-endian) of md5(token).
    Chosen over pandas' siphash because DuckDB reproduces it exactly
    (``('0x' || substr(md5(tk), 1, 16))::UBIGINT``), which makes the
    SimHash family end-to-end SQL-oracle-checkable. md5 runs once per
    UNIQUE token in the batch (vocab-bounded, not corpus-bounded),
    then scatters to occurrences via the np.unique inverse index."""
    if flat.size == 0:
        return np.empty(0, np.uint64)
    uniq, inv = np.unique(flat, return_inverse=True)
    return _md5_hash_unique(uniq)[inv]


def _simhash_batch(batch):
    """(doc_id, text) batch (pandas OR pyarrow — the pyarrow form is
    zero-copy from the object store and never materializes document
    strings) -> (doc_id, simhash int64). Fully vectorized: one Arrow
    tokenize, one md5 per unique token (``_md5_token_hashes`` —
    SQL-reproducible), bits unpacked to a (tokens, 64) sign matrix,
    per-doc bit sums via ``np.add.reduceat``."""
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
    hv, counts = _flat_token_hashes(batch["text"], _md5_token_hashes)
    acc = np.zeros((len(counts), 64), dtype=np.int64)
    nz = counts > 0
    if hv.size:
        # unpackbits on the little-endian words gives bit k =
        # (hv >> k) & 1 as a compact (tokens, 64) uint8 matrix —
        # no 512 B/token uint64 broadcast temp
        bits = np.unpackbits(
            hv.astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1, bitorder="little")
        signs = (bits.astype(np.int8) << 1) - 1
        # reduceat boundaries over NON-EMPTY docs only (strictly
        # increasing, always in range — empty docs stay all-zero;
        # clamping trailing-empty boundaries would truncate the
        # last non-empty doc's token range)
        cnz = counts[nz]
        starts = np.zeros(len(cnz), dtype=np.int64)
        np.cumsum(cnz[:-1], out=starts[1:])
        acc[nz] = np.add.reduceat(signs, starts, axis=0,
                                  dtype=np.int64)
    sim = ((acc > 0).astype(np.uint64) @ powers).view(np.int64)
    if isinstance(batch, pa.Table):
        return pa.table({"doc_id": batch["doc_id"],
                         "simhash": pa.array(sim, pa.int64())})
    return pd.DataFrame({"doc_id": batch["doc_id"], "simhash": sim})


def simhash_fingerprints(sf_dir: str):
    """64-bit SimHash per document (Charikar '02; deterministic,
    rows-only check). See ``_simhash_batch`` for the vectorized
    kernel — no per-word Python loop."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(_simhash_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


from ..functions.hamming import popcount64 as _popcount64


def simhash_near_dups(sf_dir: str, max_hamming: int = 3, bands: int = 4,
                      coarse_buckets: int = 64):
    """SimHash near-dup pairs (Charikar '02; banded exact-match tables
    per Manku/Jain/Sarma, WWW'07): pairs of documents whose 64-bit
    SimHashes differ in at most ``max_hamming`` bits.

    Recall is EXACT (not probabilistic): the hash is split into
    ``bands`` 16-bit chunks and, by pigeonhole, any pair within
    hamming distance ``bands - 1`` >= ``max_hamming`` shares at least
    one identical chunk — so per-band exact-match buckets surface
    every qualifying pair. Physical plan: slim (doc_id, simhash) rows
    -> 4 band rows each -> coarse-bucketed groupby (O(coarse_buckets)
    Python calls) where candidate pairs are generated AND verified
    in-bucket (the two hashes ride the band rows, so verification is
    one vectorized XOR-popcount — no join, unlike the MinHash path's
    shingle-store joins) -> global pair dedup by pair-hash bucket
    (a pair sharing several bands surfaces in several buckets).

    Because recall is exact and the token hash is the md5-derived one
    DuckDB reproduces (``_md5_token_hashes``), the whole op has a full
    SQL oracle: SIMHASH_NEAR_DUPS_SQL rebuilds every doc's simhash
    bit-by-bit and self-joins on ``bit_count(xor(a, b)) <= h``.
    """
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    from ..functions.blocks import coalesce_slim
    from ..functions.hamming import banded_hamming_pairs
    sigs = coalesce_slim(
        ds.map_batches(_simhash_batch, batch_format="pyarrow",
                       zero_copy_batch=True)
        .materialize())
    dedup = banded_hamming_pairs(sigs, "doc_id", "simhash",
                                 max_hamming=max_hamming, bands=bands,
                                 coarse_buckets=coarse_buckets)
    df = dedup.to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# Full DuckDB oracle for simhash_near_dups: rebuilds each doc's
# simhash from the same md5 token hash (SUM of per-bit +-1 votes,
# bit set when the vote sum is positive), left-joins back so
# zero-token docs keep simhash 0 (the engine's value), then
# self-joins on popcount-of-xor — exact because the banded plan's
# recall is exact for max_hamming <= bands - 1.
SIMHASH_NEAR_DUPS_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
tok AS (SELECT doc_id, unnest(w) AS tk FROM t),
th AS (SELECT doc_id,
              ('0x' || substr(md5(tk), 1, 16))::UBIGINT AS h
       FROM tok),
bitsum AS (
  SELECT doc_id, r.range AS bit,
         SUM(CASE WHEN (h >> r.range) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN range(64) r GROUP BY doc_id, r.range),
sim AS (
  SELECT doc_id,
         SUM(CASE WHEN s > 0 THEN (1::HUGEINT << bit)
                  ELSE 0 END)::UBIGINT AS simhash
  FROM bitsum GROUP BY doc_id),
sim0 AS (
  SELECT t.doc_id, COALESCE(sim.simhash, 0::UBIGINT) AS simhash
  FROM t LEFT JOIN sim ON t.doc_id = sim.doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM sim0 a JOIN sim0 b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY doc_a, doc_b
"""


# ---------------------------------------------- exact n-gram Jaccard

def _shingle_batch(batch, k: int, with_ntok: bool = False):
    """(doc_id, text) batch (pandas OR pyarrow) -> per-doc sorted
    unique shingle-hash blobs. The pyarrow form never materializes
    document strings (tokens dictionary-encode C++-side). With
    ``with_ntok`` an ``n_tok`` column rides along (free — the stage
    tokenized anyway)."""
    res = _shingle_hashes_batch(batch["text"], k, with_ntok=with_ntok)
    flat, counts = res[0], res[1]
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    out_sh = [flat[off[i]:off[i + 1]].tobytes()
              for i in range(len(counts))]
    if isinstance(batch, pa.Table):
        cols = {"doc_id": batch["doc_id"],
                "shingles": pa.array(out_sh, pa.binary()),
                "n_sh": pa.array(counts, pa.int64())}
        if with_ntok:
            cols["n_tok"] = pa.array(res[2], pa.int64())
        return pa.table(cols)
    out = pd.DataFrame({"doc_id": batch["doc_id"], "shingles": out_sh,
                        "n_sh": pd.Series(counts, dtype="int64")})
    if with_ntok:
        out["n_tok"] = pd.Series(res[2], dtype="int64")
    return out


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5, k: int = 3,
                        coarse_buckets: int = 64):
    """EXACT n-gram (word k-shingle) Jaccard near-dup pairs — no LSH,
    no recall loss: every pair with Jaccard >= threshold is returned.

    This is the PREFIX-FILTERED (ppjoin) plan — the scale-safe default
    (see ``ngram_jaccard_pairs_prefix`` for the physical plan and the
    prefix-filter theorem). The full-inverted-index plan survives as
    ``ngram_jaccard_pairs_fullindex``, a TEST REFERENCE ONLY: its
    candidate volume grows with posting-list size squared (the Zipf
    head of common shingles), i.e. effectively quadratic in corpus
    size; the prefix plan's candidates scale with duplicate-cluster
    sizes — the inherent output complexity of all-pairs dedup — and
    the identity test (tests/test_dedup_graph.py) proves the two plans
    return identical pairs."""
    return ngram_jaccard_pairs_prefix(sf_dir, threshold=threshold, k=k,
                                      coarse_buckets=coarse_buckets)


def ngram_jaccard_pairs_fullindex(sf_dir: str, threshold: float = 0.5,
                                  k: int = 3, coarse_buckets: int = 64,
                                  max_posting: int | None = None):
    """TEST REFERENCE plan for ``ngram_jaccard_pairs`` — the full
    inverted shingle index. NOT the default: every doc pair sharing
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

    ``max_posting``: capping the posting list drops hot shingles
    (UNDER-counting intersections — the op becomes a lower bound).
    Default None = exact.
    """
    j2 = _shared_shingle_counts(sf_dir, k, coarse_buckets,
                                max_posting)

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


def _shared_shingle_counts(sf_dir: str, k: int, coarse_buckets: int,
                           max_posting: int | None):
    """Shared candidate machinery for the shingle-overlap family
    (Jaccard and containment): a Dataset with one row per doc pair
    sharing >= 1 shingle, columns (doc_a, na, shared, doc_id = doc_b,
    n_sh = nb). All shuffles slim; see ngram_jaccard_pairs_fullindex for
    plan."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    import functools
    from ..functions.blocks import coalesce_slim
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
        from ..functions.pairgen import pairs_sharing_key
        a, b = pairs_sharing_key(g["sh"].to_numpy(),
                                 g["doc_id"].to_numpy(),
                                 max_group=max_posting)
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

    from ..functions.joins import hash_partition_join
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


# ------------------------------------------ shingle containment join
#
# ASYMMETRIC overlap: containment(A in B) = |A∩B| / |A| — the
# quote/subset detector Jaccard misses (a paragraph fully contained in
# a much longer page has tiny Jaccard but containment 1.0). Reuses the
# exact inverted-shingle candidate machinery above verbatim; only the
# finalize differs. Pairs are emitted once (doc_a < doc_b) with BOTH
# directions' scores; keep when either direction clears the
# threshold.


def ngram_containment_pairs(sf_dir: str, threshold: float = 0.8,
                            k: int = 3, coarse_buckets: int = 64,
                            max_posting: int | None = None):
    """(doc_a, doc_b, cont_a_in_b, cont_b_in_a) for every pair where
    max(containment) >= threshold."""
    j2 = _shared_shingle_counts(sf_dir, k, coarse_buckets,
                                max_posting)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        shared = b["shared"].to_numpy(dtype=np.float64)
        na = b["na"].to_numpy(np.float64)
        nb = b["n_sh"].to_numpy(np.float64)
        ca = np.divide(shared, na, out=np.zeros_like(shared),
                       where=na > 0)
        cb = np.divide(shared, nb, out=np.zeros_like(shared),
                       where=nb > 0)
        keep = np.maximum(ca, cb) >= threshold
        return pd.DataFrame({
            "doc_a": b["doc_a"].to_numpy()[keep].astype(np.int64),
            "doc_b": b["doc_id"].to_numpy()[keep].astype(np.int64),
            "cont_a_in_b": _round_half_away(ca[keep]),
            "cont_b_in_a": _round_half_away(cb[keep])})

    df = j2.map_batches(finalize, batch_format="pandas").to_pandas()
    if df.empty:
        return pd.DataFrame({
            "doc_a": pd.Series([], dtype="int64"),
            "doc_b": pd.Series([], dtype="int64"),
            "cont_a_in_b": pd.Series([], dtype="float64"),
            "cont_b_in_a": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


NGRAM_CONTAINMENT_SQL_TMPL = r"""
WITH tok AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
  FROM documents WHERE trim(text) <> ''
), sh AS (
  SELECT doc_id,
         CASE WHEN len(w) < 3 THEN [array_to_string(w, chr(1))]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(w) - 2),
                     i -> w[i] || chr(1) || w[i+1] || chr(1) || w[i+2]))
         END AS s
  FROM tok
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) AS na, len(b.s) AS nb
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b,
       ROUND(inter * 1.0 / na, 6) AS cont_a_in_b,
       ROUND(inter * 1.0 / nb, 6) AS cont_b_in_a
FROM pairs
WHERE inter > 0
  AND GREATEST(inter * 1.0 / na, inter * 1.0 / nb) >= {threshold}
ORDER BY doc_a, doc_b
"""


def ngram_jaccard_pairs_prefix(sf_dir: str, threshold: float = 0.5,
                               k: int = 3, coarse_buckets: int = 64):
    """EXACT all-pairs Jaccard via PREFIX FILTERING — the published
    scale path past ``ngram_jaccard_pairs``'s full inverted index
    (Bayardo/Ma/Srikant "Scaling Up All Pairs Similarity Search"
    WWW'07; Xiao et al. ppjoin WWW'08). Identical output, cheaper
    candidate generation:

    Each doc's shingle hashes are already stored in the global
    ascending-hash order; only the first ``|d| - ceil(t*|d|) + 1``
    (the PREFIX) are exploded into the inverted index. Lossless by
    the prefix-filter theorem: two sets whose prefixes (under any
    shared total order) are disjoint have Jaccard < t. Every candidate
    is then verified exactly against the full shingle sets via the
    shared ``_exact_verify_pairs`` joins (the minhash verify shape).

    At threshold t the index shrinks ~(1-t): postings, pair
    generation, and the candidate-pair shuffle all scale down, and no
    suffix-only shingle ever contributes a candidate."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    pairs = ngram_jaccard_pairs_prefix_ds(ds, threshold=threshold,
                                          k=k,
                                          coarse_buckets=coarse_buckets)
    df = pairs.to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def ngram_jaccard_pairs_prefix_ds(docs, threshold: float = 0.5,
                                  k: int = 3,
                                  coarse_buckets: int = 64):
    """Streaming core of :func:`ngram_jaccard_pairs_prefix`: documents
    Dataset (doc_id, text) -> verified pairs Dataset."""
    import functools
    from ..functions.blocks import coalesce_slim
    sh = coalesce_slim(docs.map_batches(
        functools.partial(_shingle_batch, k=k),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1024).materialize())
    return _prefix_pairs_from_shingles(sh, threshold, coarse_buckets)


def _prefix_pairs_from_shingles(sh, threshold: float,
                                coarse_buckets: int):
    """Prefix-filter candidate generation + exact verify over an
    existing (doc_id, shingles, n_sh) Dataset — shared by the
    standalone pair op and the fused curation pipeline (which feeds a
    survivors-only shingle table)."""

    def explode_prefix(b: pd.DataFrame) -> pd.DataFrame:
        ids, hashes = [], []
        for d, blob in zip(b["doc_id"], b["shingles"]):
            v = np.frombuffer(blob, dtype=np.uint64)  # sorted ascending
            p = len(v) - int(np.ceil(threshold * len(v))) + 1
            v = v[:max(p, 0)]
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
        from ..functions.pairgen import pairs_sharing_key
        a, b = pairs_sharing_key(g["sh"].to_numpy(),
                                 g["doc_id"].to_numpy())
        if len(a) == 0:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": a, "doc_b": b}).drop_duplicates()

    cand = (sh.map_batches(explode_prefix, batch_format="pandas")
            .groupby("cb").map_groups(bucket_pairs, batch_format="pandas"))
    return _exact_verify_pairs(cand, sh, threshold)


NGRAM_JACCARD_SQL = r"""
WITH tok AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
  FROM documents WHERE trim(text) <> ''
), sh AS (
  SELECT doc_id,
         CASE WHEN len(w) < 3 THEN [array_to_string(w, chr(1))]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(w) - 2),
                     i -> w[i] || chr(1) || w[i+1] || chr(1) || w[i+2]))
         END AS s
  FROM tok
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS uni
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, ROUND(inter * 1.0 / uni, 6) AS jaccard
FROM pairs WHERE uni > 0 AND inter * 1.0 / uni >= 0.5
ORDER BY doc_a, doc_b
"""


# ------------------------------------------- near-dup -> keep/drop

def near_dup_components(sf_dir: str, threshold: float = 0.5):
    """Dedup DECISIONS from near-dup pairs: exact n-gram Jaccard pairs
    (the DuckDB-oracled pair source) -> connected components of the
    collected pairs (functions.graph.min_label_components, in-process
    min-label propagation — the pair set is bounded by near-dup
    cluster membership) -> one row per clustered doc:
    (doc_id, component, keep) with
    keep = the cluster's min doc_id. Docs in no near-dup pair are
    implicitly kept and not listed.

    The component stage is pair-source agnostic: at corpus scale the
    MinHash+LSH candidates (``minhash_dedup_pairs``, which verifies
    candidates with the same exact Jaccard) plug into the identical
    edges->components chain; driving THIS export from the exact pairs
    makes the whole decision chain SQL-checkable
    (NEAR_DUP_COMPONENTS_SQL: recursive closure over the pair CTE)."""
    from ..functions.graph import min_label_components
    pairs = ngram_jaccard_pairs(sf_dir, threshold=threshold)
    comp = min_label_components(pairs["doc_a"], pairs["doc_b"]).rename(
        columns={"vertex": "doc_id"})
    comp["keep"] = comp["doc_id"] == comp["component"]
    return comp.sort_values("doc_id").reset_index(drop=True)


# the pair CTE is NGRAM_JACCARD_SQL's body; the recursive walk
# enumerates, for every vertex, all labels reachable over the
# undirected pair edges — MIN(label) per vertex == the min-label
# component id the engine's propagation converges to
NEAR_DUP_COMPONENTS_SQL = r"""
WITH RECURSIVE tok AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
  FROM documents WHERE trim(text) <> ''
), sh AS (
  SELECT doc_id,
         CASE WHEN len(w) < 3 THEN [array_to_string(w, chr(1))]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(w) - 2),
                     i -> w[i] || chr(1) || w[i+1] || chr(1) || w[i+2]))
         END AS s
  FROM tok
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS uni
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
), pairs AS (
  SELECT doc_a, doc_b FROM p WHERE uni > 0 AND inter * 1.0 / uni >= 0.5
), edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs
), walk(node, label) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.node
)
SELECT node AS doc_id, MIN(label) AS component,
       node = MIN(label) AS keep
FROM walk GROUP BY node ORDER BY doc_id
"""


def near_dup_keep_best(sf_dir: str, threshold: float = 0.5):
    """Dedup decisions with the keep-LONGEST policy (the common
    production choice over keep-min-id): within each near-dup
    component the keeper is the doc with the most tokens, ties to the
    smaller doc_id. Token counts are fetched distributed ONLY for
    clustered docs (a broadcast id-set filter — cluster membership is
    bounded by the dup rate, never the corpus), then the per-component
    argmax is a vectorized transform over that small frame."""
    comp = near_dup_components(sf_dir,
                               threshold=threshold)[["doc_id",
                                                     "component"]]
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "component": pd.Series([], dtype="int64"),
                          "n_tokens": pd.Series([], dtype="int64"),
                          "keeper": pd.Series([], dtype="int64"),
                          "keep": pd.Series([], dtype="bool")})
    if comp.empty:
        return empty
    ids = frozenset(comp["doc_id"].tolist())
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    tc = (doc_token_counts_ds(docs).map_batches(
        lambda b: b[b["doc_id"].isin(ids)], batch_format="pandas")
        .to_pandas())
    df = comp.merge(tc, on="doc_id")
    df = df.sort_values(["component", "n_tokens", "doc_id"],
                        ascending=[True, False, True],
                        kind="mergesort")
    df["keeper"] = df.groupby("component")["doc_id"].transform("first")
    df["keep"] = df["doc_id"] == df["keeper"]
    df = df.astype({"doc_id": "int64", "component": "int64",
                    "n_tokens": "int64", "keeper": "int64"})
    return (df[["doc_id", "component", "n_tokens", "keeper", "keep"]]
            .sort_values("doc_id").reset_index(drop=True))


# keep-best extends the recursive component walk with token counts and
# a per-component FIRST_VALUE over (n_tokens DESC, doc_id)
NEAR_DUP_KEEP_BEST_SQL = NEAR_DUP_COMPONENTS_SQL[
    :NEAR_DUP_COMPONENTS_SQL.index("SELECT node AS doc_id")] + r"""
, comp AS (
  SELECT node AS doc_id, MIN(label) AS component FROM walk GROUP BY node
), tc AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM documents)
SELECT c.doc_id, c.component, CAST(t.n_tokens AS BIGINT) AS n_tokens,
       FIRST_VALUE(c.doc_id) OVER (PARTITION BY c.component
           ORDER BY t.n_tokens DESC, c.doc_id) AS keeper,
       c.doc_id = FIRST_VALUE(c.doc_id) OVER (PARTITION BY c.component
           ORDER BY t.n_tokens DESC, c.doc_id) AS keep
FROM comp c JOIN tc t USING (doc_id) ORDER BY c.doc_id
"""


# --------------------------------------------- corpus-level analysis

def token_topk(sf_dir: str, k: int = 20):
    """Global top-k most frequent tokens (vocabulary head).

    Partial value_counts per batch (vectorized explode) -> bucketed
    combiner keyed on hash(token) -> per-bucket top-k (exact: a token
    lives wholly in one bucket) -> driver merges k rows per bucket.
    Only (token, count) rows cross the shuffle."""
    ds = _read_docs(sf_dir, ["text"])
    from ..functions.aggregates import grouped_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str),
                             "n": vc.to_numpy(dtype=np.int64)})

    counts = grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                         ["token"], {"n": ("n", "sum")})

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "token"],
                             ascending=[False, True]).head(k)

    df = counts.map_batches(topk, batch_format="pandas").to_pandas()
    df = df.sort_values(["n", "token"], ascending=[False, True]).head(k)
    df["n"] = df["n"].astype("int64")
    return df.reset_index(drop=True)


TOKEN_TOPK_SQL = r"""
WITH tok AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
  FROM documents WHERE trim(text) <> ''
)
SELECT token, COUNT(*) AS n FROM tok
GROUP BY token ORDER BY n DESC, token LIMIT 20
"""


def doc_length_quantiles(sf_dir: str):
    """Exact continuous quantiles of n_chars (p25/p50/p75/p95) via a
    distributed value histogram: (n_chars, count) partial counts are
    bucket-combined (slim rows; cardinality = distinct lengths, not
    docs), then the driver interpolates on the cumulative counts —
    semantics identical to SQL quantile_cont (h = (n-1)q linear
    interpolation)."""
    ds = _read_docs(sf_dir, ["n_chars"])
    from ..functions.aggregates import grouped_agg
    hist = grouped_agg(ds, ["n_chars"], {"cnt": (None, "count")}) \
        .to_pandas().sort_values("n_chars").reset_index(drop=True)
    v = hist["n_chars"].to_numpy(dtype=np.float64)
    c = hist["cnt"].to_numpy(dtype=np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1])

    def q_cont(q: float) -> float:
        h = (n - 1) * q
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        x_lo = v[np.searchsorted(cum, lo + 1)]
        x_hi = v[np.searchsorted(cum, hi + 1)]
        return float(x_lo + (h - lo) * (x_hi - x_lo))

    r6 = lambda v: float(_round_half_away(v))  # DuckDB ROUND semantics
    return pd.DataFrame({
        "p25": [r6(q_cont(0.25))], "p50": [r6(q_cont(0.5))],
        "p75": [r6(q_cont(0.75))], "p95": [r6(q_cont(0.95))]})


DOC_LENGTH_QUANTILES_SQL = """
SELECT ROUND(quantile_cont(n_chars, 0.25), 6) AS p25,
       ROUND(quantile_cont(n_chars, 0.50), 6) AS p50,
       ROUND(quantile_cont(n_chars, 0.75), 6) AS p75,
       ROUND(quantile_cont(n_chars, 0.95), 6) AS p95
FROM documents
"""


def grouped_length_quantiles(sf_dir: str, by: str = "lang"):
    """Exact PER-GROUP quantile_cont of n_chars — the grouped variant
    of ``doc_length_quantiles`` on the same distributed-histogram
    plan: (by, n_chars, count) partials leave the shuffle (cardinality
    = groups x distinct lengths, never docs), the driver interpolates
    each group's cumulative counts. A per-group sort of the raw docs
    would be the anti-pattern at corpus scale."""
    ds = _read_docs(sf_dir, [by, "n_chars"])
    from ..functions.aggregates import grouped_agg
    hist = grouped_agg(ds, [by, "n_chars"], {"cnt": (None, "count")})         .to_pandas().sort_values([by, "n_chars"])
    rows = []
    for g, h in hist.groupby(by, sort=True):
        v = h["n_chars"].to_numpy(dtype=np.float64)
        cum = np.cumsum(h["cnt"].to_numpy(dtype=np.int64))
        n = int(cum[-1])

        def q_cont(q: float) -> float:
            hh = (n - 1) * q
            lo = int(np.floor(hh))
            hi = min(lo + 1, n - 1)
            x_lo = v[np.searchsorted(cum, lo + 1)]
            x_hi = v[np.searchsorted(cum, hi + 1)]
            return float(x_lo + (hh - lo) * (x_hi - x_lo))

        rows.append({by: g, "n_docs": n,
                     "p25": float(_round_half_away(q_cont(0.25))),
                     "p50": float(_round_half_away(q_cont(0.5))),
                     "p95": float(_round_half_away(q_cont(0.95)))})
    return pd.DataFrame(rows).reset_index(drop=True)


GROUPED_LENGTH_QUANTILES_SQL = """
SELECT lang, COUNT(*) AS n_docs,
       ROUND(quantile_cont(n_chars, 0.25), 6) AS p25,
       ROUND(quantile_cont(n_chars, 0.50), 6) AS p50,
       ROUND(quantile_cont(n_chars, 0.95), 6) AS p95
FROM documents GROUP BY lang ORDER BY lang
"""


def _clean_prep_batch(batch: pd.DataFrame,
                      min_tokens: int) -> pd.DataFrame:
    hh = batch["text"].map(
        lambda s: hashlib.sha1(s.encode()).hexdigest())
    toks = batch["text"].map(_tokens)
    n = toks.map(len).astype("int64")
    scores = {lang: toks.map(lambda ws, s=sw: sum(w in s for w in ws))
              for lang, sw in STOPWORDS.items()}
    en, pt, es = scores["en"], scores["pt"], scores["es"]
    pred = np.where((en >= pt) & (en >= es), "en",
                    np.where(pt >= es, "pt", "es"))
    return pd.DataFrame({
        "doc_id": batch["doc_id"], "__h": hh,
        "ok": (n >= min_tokens) & (pred == batch["lang"].to_numpy()),
        "__b": (pd.util.hash_array(hh.to_numpy(dtype=object)) % 256)
        .astype(np.int64)})


def _clean_keepers(g: pd.DataFrame) -> pd.DataFrame:
    canon = g.loc[g.groupby("__h")["doc_id"].idxmin()]
    kept = canon.loc[canon["ok"], ["doc_id"]]
    return kept.astype({"doc_id": "int64"})


def corpus_clean_ds(docs, min_tokens: int = 5):
    """Streaming form of the composed cleaning pass: documents Dataset
    (doc_id, text, lang) -> Dataset of kept doc_ids, one slim shuffle.
    Keep a doc iff (a) it is the exact-dup canonical representative
    (min doc_id per text), (b) it has >= min_tokens tokens, (c) its
    predicted language agrees with the labeled ``lang`` column.

    Per batch: content hash + token count + stopword lang vote (all
    vectorized) -> slim (doc_id, hash, flags) rows -> coarse-bucketed
    groupby resolves canonical-per-hash and applies the gates."""
    rows = docs.map_batches(
        lambda b: _clean_prep_batch(b, min_tokens), batch_format="pandas")
    return rows.groupby("__b").map_groups(_clean_keepers,
                                          batch_format="pandas")


def corpus_clean(sf_dir: str, min_tokens: int = 5):
    """Collecting driver-oracle wrapper of ``corpus_clean_ds``."""
    df = corpus_clean_ds(_read_docs(sf_dir, ["doc_id", "text", "lang"]),
                         min_tokens).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


CORPUS_CLEAN_SQL = r"""
WITH t AS (
  SELECT doc_id, text, lang,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
s AS (
  SELECT doc_id, lang, len(w) AS n_tokens,
         len(list_filter(w, x -> x IN ('the','a','of','and','to'))) AS en,
         len(list_filter(w, x -> x IN ('de','o','que','e','um')))   AS pt,
         len(list_filter(w, x -> x IN ('el','la','de','y','un')))   AS es
  FROM t),
canon AS (SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text)
SELECT s.doc_id FROM s JOIN canon USING (doc_id)
WHERE s.n_tokens >= 5
  AND (CASE WHEN en >= pt AND en >= es THEN 'en'
            WHEN pt >= es THEN 'pt' ELSE 'es' END) = s.lang
ORDER BY s.doc_id
"""


def sample_documents(sf_dir: str, n: int = 100, seed: int = 42):
    """Deterministic uniform sample WITHOUT a shuffle: every doc gets
    a pseudo-random rank ``knuth_hash(doc_id, seed)`` (multiplicative
    hash mod 2^32 — an odd multiplier, so a permutation of ids below
    2^32); the global n smallest ranks are the sample. Runs as
    per-batch partial top-n -> driver merge of n rows per batch — the
    scale path where ``random_shuffle``/``random_sample`` would move
    or scan-and-drop the whole corpus. The rank is plain modular
    arithmetic so the DuckDB oracle reproduces it exactly
    (SAMPLE_DOCUMENTS_SQL)."""
    ds = _read_docs(sf_dir, ["doc_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        rank = ((ids.astype(np.uint64) + np.uint64(seed))
                * np.uint64(2654435761)) % np.uint64(1 << 32)
        k = min(n, len(ids))
        # ties broken on doc_id (the SQL ORDER BY rank, doc_id): the
        # rank is only a permutation for ids < 2^32, so 64-bit ids can
        # collide mod 2^32 and an unordered pick would diverge from
        # the oracle / be batch-arrival-order nondeterministic
        top = np.lexsort((ids, rank))[:k]
        return pd.DataFrame({"doc_id": ids[top], "rank": rank[top]})

    df = ds.map_batches(partial, batch_format="pandas").to_pandas()
    df = df.sort_values(["rank", "doc_id"]).head(n)
    return df[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


# HUGEINT keeps the product exact for any id; taking mod 2^32 of the
# exact product matches numpy's uint64 wraparound (2^32 divides 2^64).
SAMPLE_DOCUMENTS_SQL = """
SELECT doc_id FROM (
  SELECT doc_id,
         ((doc_id::HUGEINT + 42) * 2654435761) % 4294967296 AS rank
  FROM documents ORDER BY rank, doc_id LIMIT 100)
ORDER BY doc_id
"""


def stratified_sample(sf_dir: str, per_group: int = 20, by: str = "lang",
                      seed: int = 42):
    """Deterministic PER-GROUP sample (n docs per ``by`` value) without
    a shuffle — the stratified variant of ``sample_documents`` for
    balancing a training corpus across languages/sources. Same Knuth
    multiplicative rank; per-batch partial top-n PER GROUP, driver
    merge of O(batches * groups * n) slim rows. At corpus scale the
    merge stays small while no full-corpus sort/shuffle ever runs;
    with a huge group cardinality swap the driver merge for a
    groupby(by).map_groups top-n over the partials."""
    ds = _read_docs(sf_dir, ["doc_id", by])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        rank = ((ids.astype(np.uint64) + np.uint64(seed))
                * np.uint64(2654435761)) % np.uint64(1 << 32)
        d = pd.DataFrame({by: b[by], "doc_id": ids, "rank": rank})
        d = d.sort_values(["rank", "doc_id"])  # oracle tie order
        return d.groupby(by, sort=False).head(per_group)

    df = ds.map_batches(partial, batch_format="pandas").to_pandas()
    df = (df.sort_values(["rank", "doc_id"]).groupby(by, sort=False)
          .head(per_group))
    return (df[[by, "doc_id"]].sort_values([by, "doc_id"])
            .reset_index(drop=True))


STRATIFIED_SAMPLE_SQL = """
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY ((doc_id::HUGEINT + 42) * 2654435761) % 4294967296,
                    doc_id) AS rn
  FROM documents)
WHERE rn <= 20
ORDER BY lang, doc_id
"""


# --------------------------------------------- round-4 operator family
#
# Three more training-data operators, each with a DuckDB-mirrored
# definition (pytest oracles; the driver's 50-query export is full):
# Gopher-style repetition/quality gates, PII scrubbing, and GPT-style
# sequence packing (concat-then-chunk) via a distributed prefix sum.

_BULLET = ("-", "*", "•")


def _gopher_batch(batch: pd.DataFrame, max_dup_line_frac: float,
                  max_symbol_ratio: float,
                  max_bullet_frac: float,
                  tokens: list | None = None) -> pd.DataFrame:
    """Repetition/format signals from the Gopher data-quality rules
    (Rae et al. 2021, arXiv:2112.11446 A1.1), the subset expressible
    over plain text lines: duplicate-line fraction, symbol-to-word
    ratio (# and ... marks), bullet-line fraction. ``tokens`` lets a
    fused caller (curate pipeline) pass per-doc token lists it has
    already computed, so each doc tokenizes once per batch."""
    out = {"doc_id": batch["doc_id"], "dup_line_frac": [],
           "symbol_ratio": [], "bullet_frac": [], "gopher_pass": []}
    for j, text in enumerate(batch["text"]):
        lines = [ln for ln in text.split("\n") if ln.strip()]
        n_lines = len(lines)
        dup = (1.0 - len(set(lines)) / n_lines) if n_lines else 0.0
        words = tokens[j] if tokens is not None else _tokens(text)
        n_words = len(words)
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


def gopher_quality_ds(docs, max_dup_line_frac: float = 0.3,
                      max_symbol_ratio: float = 0.1,
                      max_bullet_frac: float = 0.9):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset of
    Gopher repetition/format signals + pass flag."""
    return docs.map_batches(
        lambda b: _gopher_batch(b, max_dup_line_frac, max_symbol_ratio,
                                max_bullet_frac),
        batch_format="pandas")


def gopher_quality(sf_dir: str, **kw):
    out = gopher_quality_ds(_read_docs(sf_dir, ["doc_id", "text"]), **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


GOPHER_QUALITY_SQL = r"""
WITH t AS (
  SELECT doc_id, text,
         list_filter(regexp_split_to_array(text, '\n'),
                     x -> trim(x) <> '') AS lines,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
s AS (
  SELECT doc_id,
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
  FROM t)
SELECT doc_id, ROUND(dup_line_frac, 6) AS dup_line_frac,
       ROUND(symbol_ratio, 6) AS symbol_ratio,
       ROUND(bullet_frac, 6) AS bullet_frac,
       (dup_line_frac <= 0.3 AND symbol_ratio <= 0.1
        AND bullet_frac <= 0.9) AS gopher_pass
FROM s ORDER BY doc_id
"""


# RE2-compatible patterns (DuckDB regexp_* uses RE2), mirrored in SQL
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_PHONE_RE = re.compile(r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b")


def _pii_batch(batch: pd.DataFrame) -> pd.DataFrame:
    out = {"doc_id": batch["doc_id"], "n_emails": [], "n_phones": [],
           "scrubbed_md5": []}
    for text in batch["text"]:
        s, ne = _EMAIL_RE.subn("<EMAIL>", text)
        s, np_ = _PHONE_RE.subn("<PHONE>", s)
        out["n_emails"].append(ne)
        out["n_phones"].append(np_)
        out["scrubbed_md5"].append(hashlib.md5(s.encode()).hexdigest())
    return pd.DataFrame(out).astype({"n_emails": "int64",
                                     "n_phones": "int64"})


def pii_scrub_ds(docs):
    """Streaming form: redact email/phone PII; emits per-doc redaction
    counts + an md5 of the scrubbed text (the scrubbed payload itself
    stays in the pipeline in a real run — the digest makes the op
    SQL-checkable without shipping text to the driver)."""
    return docs.map_batches(_pii_batch, batch_format="pandas")


def pii_scrub(sf_dir: str):
    out = pii_scrub_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


PII_SCRUB_SQL = r"""
SELECT doc_id,
       len(regexp_extract_all(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_emails,
       len(regexp_extract_all(
           regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
             '<EMAIL>', 'g'),
           '\b\d{3}[-. ]\d{3}[-. ]\d{4}\b')) AS n_phones,
       md5(regexp_replace(
             regexp_replace(text,
               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
               '<EMAIL>', 'g'),
             '\b\d{3}[-. ]\d{3}[-. ]\d{4}\b', '<PHONE>', 'g'))
         AS scrubbed_md5
FROM documents ORDER BY doc_id
"""


def pack_sequences(sf_dir: str, budget: int = 512,
                   bucket_width: int = 4096):
    """GPT-style sequence packing (concat-then-chunk): documents are
    concatenated in doc_id order and chunked into fixed ``budget``-token
    training sequences; each doc gets the global token offset where it
    starts and the sequence id containing that offset.

    Distributed prefix sum, no global sort of the corpus: docs bucket
    by ``doc_id // bucket_width`` (already-ordered key ranges); each
    bucket group computes its intra-bucket cumulative sum and emits one
    (bucket, total) side row; the driver folds the O(#buckets) totals
    into exclusive bucket offsets and broadcasts them; a final map adds
    offset + intra-sum. Driver state is O(#buckets) — at 100 TB pick
    bucket_width so #buckets stays ~10^5."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def count(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        n = b["text"].map(lambda s: len(_tokens(s))).to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": ids, "n_tokens": n,
            "bucket": ids // np.int64(bucket_width)})

    counted = ds.map_batches(count, batch_format="pandas")

    def bucket_cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        cs = g["n_tokens"].cumsum()
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": g["n_tokens"].to_numpy(),
            "bucket": g["bucket"].to_numpy(),
            # token offset of the doc within its bucket
            "intra_start": (cs - g["n_tokens"]).to_numpy(np.int64)})

    per_bucket = counted.groupby("bucket").map_groups(
        bucket_cumsum, batch_format="pandas").materialize()

    # O(#buckets) driver fold: bucket totals -> exclusive offsets
    totals = (per_bucket.map_batches(
        lambda b: b.groupby("bucket", as_index=False)
        .agg(total=("n_tokens", "sum")), batch_format="pandas")
        .to_pandas().groupby("bucket", as_index=False)["total"].sum()
        .sort_values("bucket"))
    offsets = dict(zip(
        totals["bucket"].to_numpy(),
        np.concatenate([[0], totals["total"].cumsum().to_numpy()[:-1]])))
    import ray as _ray
    off_ref = _ray.put(offsets)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        base = b["bucket"].map(offs).to_numpy(np.int64)
        start = base + b["intra_start"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "n_tokens": b["n_tokens"].to_numpy(np.int64),
            "token_start": start,
            "seq_id": start // np.int64(budget)})

    df = per_bucket.map_batches(finalize, batch_format="pandas").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


PACK_SEQUENCES_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
       CAST(SUM(n_tokens) OVER (ORDER BY doc_id
          ROWS UNBOUNDED PRECEDING) - n_tokens AS BIGINT) AS token_start,
       CAST((SUM(n_tokens) OVER (ORDER BY doc_id
          ROWS UNBOUNDED PRECEDING) - n_tokens) // 512 AS BIGINT) AS seq_id
FROM t ORDER BY doc_id
"""


# --------------------------------------------- test-set decontamination
#
# GPT-3 / The-Pile style benchmark decontamination: flag training docs
# that share token n-grams with an evaluation set. The benchmark side
# is tiny by definition (eval suites are ~10^6-10^7 n-grams even at
# 100 TB of training data), so it is the canonical broadcast side: one
# sorted uint64 hash array `ray.put` once, zero-copy views in every
# task, one vectorized `np.searchsorted` membership probe per batch.
# Nothing shuffles; the corpus streams through a single map_batches.


def _ngram_hashes(words: list[str], n: int) -> np.ndarray:
    """Distinct stable 64-bit hashes of the token n-grams of a doc."""
    if len(words) < n:
        return np.empty(0, dtype=np.uint64)
    grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    h = pd.util.hash_array(np.asarray(grams, dtype=object))
    return np.unique(h)


def benchmark_ngram_hashes(texts, n: int = 3,
                           max_tokens: int | None = None) -> np.ndarray:
    """Sorted uint64 hash array of every token n-gram in ``texts``
    (the evaluation set). Truncates each text to ``max_tokens`` first
    when given. Driver-side helper: the result is what you ``ray.put``
    and hand to :func:`decontaminate_ds`."""
    out = []
    for t in texts:
        w = _tokens(t)
        if max_tokens is not None:
            w = w[:max_tokens]
        out.append(_ngram_hashes(w, n))
    if not out:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(out))


def decontaminate_ds(docs, bench_hashes, n: int = 3):
    """Streaming form: documents Dataset (doc_id, text) -> Dataset of
    (doc_id, n_hits, contaminated). ``bench_hashes`` is a sorted uint64
    array (or an ObjectRef to one from ``ray.put``): numpy arrays come
    back zero-copy from the object store, so each task reads the one
    node-local copy instead of re-deserializing per batch.

    n_hits counts the DISTINCT doc n-grams present in the benchmark —
    membership is one ``np.searchsorted`` over the concatenated batch
    n-grams, segment-summed back per doc."""
    import ray as _ray
    ref = (bench_hashes if isinstance(bench_hashes, _ray.ObjectRef)
           else _ray.put(np.asarray(bench_hashes, dtype=np.uint64)))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bench = _ray.get(ref)
        per_doc = [_ngram_hashes(_tokens(t), n) for t in batch["text"]]
        lens = np.fromiter((len(a) for a in per_doc), dtype=np.int64,
                           count=len(per_doc))
        if lens.sum():
            allh = np.concatenate([a for a in per_doc if len(a)])
            idx = np.searchsorted(bench, allh)
            idx[idx == len(bench)] = 0
            hit = (bench[idx] == allh) if len(bench) else \
                np.zeros(len(allh), dtype=bool)
            seg = np.repeat(np.arange(len(per_doc)), lens)
            hits = np.bincount(seg, weights=hit,
                               minlength=len(per_doc)).astype(np.int64)
        else:
            hits = np.zeros(len(per_doc), dtype=np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(),
                             "n_hits": hits,
                             "contaminated": hits > 0})

    return docs.map_batches(f, batch_format="pandas")


def decontaminate(sf_dir: str, n: int = 3, bench_mod: int = 97,
                  bench_tokens: int = 50):
    """Oracle form: the "benchmark" is derived from the corpus itself
    so the op is SQL-checkable — docs with doc_id % bench_mod == 0
    donate their first ``bench_tokens`` tokens as the eval set. The
    benchmark hashes are PRODUCED distributed (filter + per-batch
    n-gram hashing; only uint64 hashes reach the driver), then
    broadcast once."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    bench = _derive_bench(docs, bench_mod, bench_tokens, n)
    import ray as _ray
    out = decontaminate_ds(docs, _ray.put(bench), n=n)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


DECONTAMINATE_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
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
hits AS (
  SELECT d.doc_id, COUNT(DISTINCT d.ng) AS n_hits
  FROM doc_ng d JOIN bench b USING (ng) GROUP BY d.doc_id)
SELECT t.doc_id, CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       COALESCE(h.n_hits, 0) > 0 AS contaminated
FROM tok t LEFT JOIN hits h USING (doc_id) ORDER BY t.doc_id
"""


# ------------------------------------------ domain mixture resampling
#
# Temperature-based domain rebalancing (multilingual-BERT / XLM-R
# style alpha-sampling, Conneau & Lample 2019): sample domain s with
# probability q_s proportional to p_s^alpha, which up-weights rare
# domains. Expressed as per-doc integer repeat counts so the output
# feeds a plain flat-map expansion: expected repeats for a doc of
# domain s are q_s * N / n_s; the fractional part rounds
# deterministically per doc via a Knuth-multiplicative hash of doc_id
# (SQL-reproducible, no RNG state).

_KNUTH = 2654435761


def domain_mixture_ds(docs, reps: dict, by: str = "lang"):
    """Streaming form: documents Dataset -> (doc_id, by, target_epochs,
    n_repeats). ``reps`` maps domain value -> target epochs (float);
    it is O(#domains) driver state broadcast into each batch."""
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # a domain absent from the plan gets 0 epochs (dropped),
        # not NaN -> garbage int cast
        rep = (batch[by].map(reps).fillna(0.0)
               .to_numpy(dtype=np.float64))
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        frac = ((ids * _KNUTH) % (1 << 32)) / float(1 << 32)
        n = np.floor(rep).astype(np.int64) + (frac < rep - np.floor(rep))
        return pd.DataFrame({"doc_id": ids, by: batch[by].to_numpy(),
                             "target_epochs": _round_half_away(rep),
                             "n_repeats": n.astype(np.int64)})
    return docs.map_batches(f, batch_format="pandas")


def domain_mixture_expand_ds(mix):
    """Expand the (doc_id, n_repeats) plan into one slim row per
    training epoch of each doc (np.repeat per batch — the expansion
    streams; join the ids back to payloads downstream)."""
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_repeats"].to_numpy(dtype=np.int64)
        ids = np.repeat(batch["doc_id"].to_numpy(dtype=np.int64), n)
        epoch = np.concatenate([np.arange(k, dtype=np.int64)
                                for k in n]) if len(n) else \
            np.empty(0, dtype=np.int64)
        return pd.DataFrame({"doc_id": ids, "epoch": epoch})
    return mix.map_batches(f, batch_format="pandas")


def domain_mixture(sf_dir: str, by: str = "lang", alpha: float = 0.5):
    """Oracle form: per-domain counts come from a distributed partial
    count fold (one (domain, n) row per batch reaches the driver —
    O(#domains) driver state), epochs derive from alpha-sampling, the
    per-doc plan is a single streaming map."""
    docs = _read_docs(sf_dir, ["doc_id", by])
    parts = docs.map_batches(
        lambda b: b[by].value_counts().rename_axis(by)
        .reset_index(name="n"), batch_format="pandas").to_pandas()
    counts = parts.groupby(by)["n"].sum().sort_index()
    total = int(counts.sum())
    q = np.power(counts.to_numpy(np.float64), alpha)
    q = q / q.sum()
    reps = dict(zip(counts.index, q * total / counts.to_numpy(np.float64)))
    out = domain_mixture_ds(docs, reps, by=by)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


DOMAIN_MIXTURE_SQL = r"""
WITH c AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
w AS (SELECT lang, n, POW(n, 0.5) / SUM(POW(n, 0.5)) OVER () AS q FROM c),
r AS (SELECT lang, n,
             q * (SELECT COUNT(*) FROM documents) / n AS rep FROM w)
SELECT d.doc_id, d.lang, ROUND(r.rep, 6) AS target_epochs,
       CAST(FLOOR(r.rep) + CASE WHEN
              ((d.doc_id * 2654435761) % 4294967296) / 4294967296.0
              < r.rep - FLOOR(r.rep) THEN 1 ELSE 0 END AS BIGINT)
         AS n_repeats
FROM documents d JOIN r USING (lang) ORDER BY d.doc_id
"""


# ------------------------------------- hashed n-gram quality classifier
#
# FastText-shaped linear scorer (Joulin et al. 2016): unigram + bigram
# features hashed into a fixed-size table, score = sigmoid of the mean
# feature weight. The weight table is the classic "model the stage
# loads once": built in __init__ (once per actor), NOT per batch — the
# brief's canonical actor-pool shape. Weights here are a deterministic
# seeded surrogate (no trained artifacts in this sandbox); swap
# `_build_weights` for a real model load in production.


class HashedNgramClassifier:
    def __init__(self, dim: int = 1 << 18, seed: int = 7):
        self.dim = dim
        self.w = self._build_weights(dim, seed)

    @staticmethod
    def _build_weights(dim: int, seed: int) -> np.ndarray:
        return (np.random.RandomState(seed)
                .standard_normal(dim).astype(np.float32))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        scores = np.empty(len(batch), dtype=np.float32)
        for j, text in enumerate(batch["text"]):
            toks = _tokens(text)
            feats = toks + [" ".join(p) for p in zip(toks, toks[1:])]
            if not feats:
                scores[j] = 0.5
                continue
            idx = (pd.util.hash_array(np.asarray(feats, dtype=object))
                   % np.uint64(self.dim)).astype(np.int64)
            m = float(self.w[idx].mean())
            scores[j] = 1.0 / (1.0 + np.exp(-m))
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(),
                             "quality_score": scores})


def quality_classifier_ds(docs, dim: int = 1 << 18, seed: int = 7,
                          concurrency: int = 4, batch_size: int = 256):
    """Streaming form: actor-pool map_batches — each actor builds the
    weight table once in __init__ and scores batches in __call__."""
    return docs.map_batches(
        HashedNgramClassifier,
        fn_constructor_kwargs={"dim": dim, "seed": seed},
        concurrency=concurrency, batch_size=batch_size, num_cpus=0.5,
        batch_format="pandas")


def quality_classifier(sf_dir: str, **kw):
    out = quality_classifier_ds(_read_docs(sf_dir, ["doc_id", "text"]),
                                **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# -------------------------------------- bigram-LM perplexity scoring
#
# CCNet-style (Wenzek et al. 2019) LM-likelihood quality filtering,
# with the LM itself trained distributed on the corpus: (1) exact
# bigram counts via partial value_counts + the bucketed grouped_agg
# (slim (w1, w2, c) rows shuffle, never text); (2) the model keeps the
# top-V bigrams (deterministic (count DESC, w1, w2) tie-break; partial
# top-V per block is exact because keys are globally unique after the
# groupby); context counts c(w1) come from a second small groupby and
# are fetched only for the V model rows. (3) Scoring broadcasts the
# model as parallel sorted-uint64-hash / logp arrays (`ray.put` once,
# zero-copy) and probes each batch with one searchsorted; unknown
# bigrams back off to log(eps). At 100 TB keep V bounded (the model is
# the broadcast side); a full-vocabulary variant would hash-partition
# doc bigrams against the model table with hash_partition_join instead.

_LM_EPS_LOGP = float(np.log(1e-6))


def _bigram_frame(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch partial bigram counts (pre-aggregation before the
    grouped_agg shuffle)."""
    from collections import Counter
    cnt: Counter = Counter()
    for text in batch["text"]:
        w = _tokens(text)
        cnt.update(zip(w, w[1:]))
    if not cnt:
        return pd.DataFrame({"w1": pd.Series([], dtype=object),
                             "w2": pd.Series([], dtype=object),
                             "c": pd.Series([], dtype="int64")})
    ks = list(cnt.keys())
    return pd.DataFrame({"w1": [k[0] for k in ks],
                         "w2": [k[1] for k in ks],
                         "c": pd.Series(list(cnt.values()),
                                        dtype="int64")})


def bigram_lm_train(docs, top_v: int = 500) -> pd.DataFrame:
    """Train the bigram LM distributed; returns the model as a small
    DataFrame (w1, w2, c12, c1, logp) of the top-V bigrams."""
    from ..functions.aggregates import grouped_agg
    pairs = docs.map_batches(_bigram_frame, batch_format="pandas")
    counts = grouped_agg(pairs, ["w1", "w2"], {"c12": ("c", "sum")})
    counts = counts.materialize()  # reused twice: top-V and contexts

    def topv_part(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["c12", "w1", "w2"],
                             ascending=[False, True, True]).head(top_v)

    top = (counts.map_batches(topv_part, batch_format="pandas")
           .to_pandas()
           .sort_values(["c12", "w1", "w2"],
                        ascending=[False, True, True]).head(top_v))
    ctx = grouped_agg(counts, ["w1"], {"c1": ("c12", "sum")})
    w1s = set(top["w1"])
    ctx_df = (ctx.map_batches(
        lambda b: b[b["w1"].isin(w1s)], batch_format="pandas")
        .to_pandas())
    model = top.merge(ctx_df, on="w1")
    model["logp"] = np.log(model["c12"].to_numpy(np.float64)
                           / model["c1"].to_numpy(np.float64))
    return model.reset_index(drop=True)


def bigram_lm_score_ds(docs, model: pd.DataFrame,
                       eps_logp: float = _LM_EPS_LOGP):
    """Streaming form: score each doc by mean log P(w_i | w_{i-1})
    under the broadcast model. The model ships as two parallel numpy
    arrays (sorted uint64 bigram hashes, logp) — zero-copy per task."""
    import ray as _ray
    keys = (model["w1"] + " " + model["w2"]).to_numpy(dtype=object)
    h = pd.util.hash_array(keys)
    order = np.argsort(h)
    ref = _ray.put((h[order], model["logp"].to_numpy(np.float64)[order]))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        hs, lp = _ray.get(ref)
        grams, lens = [], []
        for text in batch["text"]:
            w = _tokens(text)
            g = [a + " " + b for a, b in zip(w, w[1:])]
            grams.extend(g)
            lens.append(len(g))
        lens_a = np.asarray(lens, dtype=np.int64)
        if grams:
            gh = pd.util.hash_array(np.asarray(grams, dtype=object))
            idx = np.searchsorted(hs, gh)
            idx_c = np.minimum(idx, max(len(hs) - 1, 0))
            known = (hs[idx_c] == gh) if len(hs) else \
                np.zeros(len(gh), dtype=bool)
            logps = np.where(known, lp[idx_c] if len(hs) else eps_logp,
                             eps_logp)
            seg = np.repeat(np.arange(len(lens_a)), lens_a)
            sums = np.bincount(seg, weights=logps, minlength=len(lens_a))
        else:
            sums = np.zeros(len(lens_a), dtype=np.float64)
        avg = np.divide(sums, lens_a, out=np.zeros_like(sums),
                        where=lens_a > 0)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].to_numpy(),
            "n_bigrams": lens_a,
            "avg_logp": _round_half_away(avg)})

    return docs.map_batches(f, batch_format="pandas")


def bigram_lm_score(sf_dir: str, top_v: int = 500):
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    model = bigram_lm_train(docs, top_v=top_v)
    out = bigram_lm_score_ds(docs, model)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


BIGRAM_LM_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
bg AS (
  SELECT doc_id, w[i] AS w1, w[i+1] AS w2
  FROM (SELECT doc_id, w, unnest(generate_series(1, len(w) - 1)) AS i
        FROM tok WHERE len(w) >= 2)),
cnt AS (SELECT w1, w2, COUNT(*) AS c12 FROM bg GROUP BY w1, w2),
ctx AS (SELECT w1, SUM(c12) AS c1 FROM cnt GROUP BY w1),
topv AS (
  SELECT w1, w2, c12 FROM (
    SELECT w1, w2, c12,
           ROW_NUMBER() OVER (ORDER BY c12 DESC, w1, w2) AS rn FROM cnt)
  WHERE rn <= 500),
model AS (SELECT t.w1, t.w2, LN(t.c12 * 1.0 / x.c1) AS logp
          FROM topv t JOIN ctx x USING (w1)),
scored AS (
  SELECT b.doc_id, COUNT(*) AS n_bigrams,
         AVG(COALESCE(m.logp, LN(1e-6))) AS avg_logp
  FROM bg b LEFT JOIN model m ON b.w1 = m.w1 AND b.w2 = m.w2
  GROUP BY b.doc_id)
SELECT t.doc_id, CAST(COALESCE(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       ROUND(COALESCE(s.avg_logp, 0.0), 6) AS avg_logp
FROM tok t LEFT JOIN scored s USING (doc_id) ORDER BY t.doc_id
"""


# ------------------------------------ frequent-line boilerplate scrub
#
# RefinedWeb/CCNet-style boilerplate removal: a line that recurs across
# more than ``max_docs`` DISTINCT documents (nav bars, footers, cookie
# banners) is scrubbed from every document. Two passes: (1) distinct
# per-doc line hashes -> exact distinct-doc counts via the bucketed
# grouped_agg (slim (hash, count) rows shuffle, never lines); the
# frequent set is the Zipf head so it stays small and broadcasts as
# one sorted uint64 array; (2) each doc filters its lines against the
# broadcast with one searchsorted. Empty lines never scrub (they carry
# paragraph structure). For a pathological frequent set too big to
# broadcast, hash-partition the exploded lines against it with
# hash_partition_join instead.


def frequent_line_hashes(docs, max_docs: int = 2) -> np.ndarray:
    """Distributed train pass: sorted uint64 hashes of every non-empty
    line that occurs in more than ``max_docs`` distinct documents."""
    from ..functions.aggregates import grouped_agg

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        hs = []
        for text in batch["text"]:
            uniq = {ln for ln in text.split("\n") if ln != ""}
            if uniq:
                hs.append(pd.util.hash_array(
                    np.asarray(sorted(uniq), dtype=object)))
        if not hs:
            return pd.DataFrame({"lh": pd.Series([], dtype=np.uint64),
                                 "c": pd.Series([], dtype="int64")})
        allh = np.concatenate(hs)
        u, c = np.unique(allh, return_counts=True)
        return pd.DataFrame({"lh": u, "c": c.astype(np.int64)})

    counts = grouped_agg(docs.map_batches(part, batch_format="pandas"),
                         ["lh"], {"d": ("c", "sum")})

    def keep_freq(b: pd.DataFrame) -> pd.DataFrame:
        # Ray Data can deliver empty schema-less blocks downstream of
        # the bucketed combine when nothing crosses the threshold
        if b.empty or "lh" not in b.columns:
            return pd.DataFrame({"lh": pd.Series([], dtype=np.uint64)})
        return b.loc[b["d"] > max_docs, ["lh"]]

    freq = counts.map_batches(keep_freq, batch_format="pandas") \
        .to_pandas()
    if "lh" not in freq.columns:  # nothing crossed the threshold
        return np.empty(0, dtype=np.uint64)
    return np.sort(freq["lh"].to_numpy(dtype=np.uint64))


def frequent_line_scrub_ds(docs, freq_hashes):
    """Streaming form: (doc_id, text) -> (doc_id, n_lines, n_removed,
    clean_md5). ``freq_hashes`` is a sorted uint64 array or an
    ObjectRef to one (zero-copy per task). The scrubbed text itself
    stays in the pipeline in a real run; the digest keeps the op
    SQL-checkable without shipping text to the driver."""
    import ray as _ray
    ref = (freq_hashes if isinstance(freq_hashes, _ray.ObjectRef)
           else _ray.put(np.asarray(freq_hashes, dtype=np.uint64)))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        freq = _ray.get(ref)
        out = {"doc_id": batch["doc_id"].to_numpy(), "n_lines": [],
               "n_removed": [], "clean_md5": []}
        for text in batch["text"]:
            lines = text.split("\n")
            ne = [ln for ln in lines if ln != ""]
            if ne and len(freq):
                h = pd.util.hash_array(np.asarray(ne, dtype=object))
                idx = np.minimum(np.searchsorted(freq, h), len(freq) - 1)
                bad = set(np.asarray(ne, dtype=object)[freq[idx] == h])
            else:
                bad = set()
            kept = [ln for ln in lines if ln == "" or ln not in bad]
            out["n_lines"].append(len(lines))
            out["n_removed"].append(len(lines) - len(kept))
            out["clean_md5"].append(
                hashlib.md5("\n".join(kept).encode()).hexdigest())
        return pd.DataFrame(out).astype({"n_lines": "int64",
                                         "n_removed": "int64"})

    return docs.map_batches(f, batch_format="pandas")


def frequent_line_scrub(sf_dir: str, max_docs: int = 2):
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    import ray as _ray
    freq = _ray.put(frequent_line_hashes(docs, max_docs=max_docs))
    out = frequent_line_scrub_ds(docs, freq)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


FREQUENT_LINE_SCRUB_SQL = r"""
WITH l AS (
  SELECT doc_id, i, arr[i] AS ln
  FROM (SELECT doc_id, arr, unnest(generate_series(1, len(arr))) AS i
        FROM (SELECT doc_id, string_split(text, chr(10)) AS arr
              FROM documents))),
freq AS (
  SELECT ln FROM (SELECT ln, COUNT(DISTINCT doc_id) AS d
                  FROM l WHERE ln <> '' GROUP BY ln)
  WHERE d > 2),
kept AS (
  SELECT l.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_lines,
         CAST(COUNT(*) FILTER (WHERE f.ln IS NOT NULL) AS BIGINT)
           AS n_removed,
         md5(COALESCE(string_agg(l.ln, chr(10) ORDER BY l.i)
                      FILTER (WHERE f.ln IS NULL), '')) AS clean_md5
  FROM l LEFT JOIN freq f USING (ln) GROUP BY l.doc_id)
SELECT * FROM kept ORDER BY doc_id
"""


# ----------------------------------------------- TF-IDF top-k keywords
#
# Per-doc keyword extraction: top-k terms by tf * ln(N/df). Document
# frequencies come from the same distributed distinct-doc count plan
# as the line scrub (slim (hash, count) rows through grouped_agg);
# the idf table broadcasts as parallel sorted-hash/idf arrays (here
# vocabulary-bounded; for an open 100 TB vocabulary hash-partition the
# exploded (doc, term, tf) rows against the df table with
# hash_partition_join instead of broadcasting). Scoring is one
# searchsorted per batch + a per-doc partial top-k, so only k rows per
# doc ever leave the map.


def term_doc_frequencies(docs):
    """Distributed df pass -> Dataset of (th uint64 term hash, d
    distinct-doc count)."""
    from ..functions.aggregates import grouped_agg

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        hs = []
        for text in batch["text"]:
            uniq = set(_tokens(text))
            if uniq:
                hs.append(pd.util.hash_array(
                    np.asarray(list(uniq), dtype=object)))
        if not hs:
            return pd.DataFrame({"th": pd.Series([], dtype=np.uint64),
                                 "c": pd.Series([], dtype="int64")})
        u, c = np.unique(np.concatenate(hs), return_counts=True)
        return pd.DataFrame({"th": u, "c": c.astype(np.int64)})

    return grouped_agg(docs.map_batches(part, batch_format="pandas"),
                       ["th"], {"d": ("c", "sum")})


def tfidf_topk_ds(docs, idf_hashes: np.ndarray, idf_vals: np.ndarray,
                  k: int = 3):
    """Streaming form: (doc_id, text) -> up to k (doc_id, rank, term,
    tfidf) rows per doc, ranked by tfidf DESC then term ASC."""
    import ray as _ray
    order = np.argsort(idf_hashes)
    ref = _ray.put((np.asarray(idf_hashes, dtype=np.uint64)[order],
                    np.asarray(idf_vals, dtype=np.float64)[order]))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        hs, iv = _ray.get(ref)
        out = {"doc_id": [], "rank": [], "term": [], "tfidf": []}
        for did, text in zip(batch["doc_id"], batch["text"]):
            toks = _tokens(text)
            if not toks:
                continue
            terms, counts = np.unique(np.asarray(toks, dtype=object),
                                      return_counts=True)
            th = pd.util.hash_array(terms)
            idx = np.minimum(np.searchsorted(hs, th),
                             max(len(hs) - 1, 0))
            idf = np.where(hs[idx] == th, iv[idx], 0.0) if len(hs) \
                else np.zeros(len(th))
            scores = counts.astype(np.float64) * idf
            # top-k by (score desc, term asc): lexsort is ascending,
            # so sort on (-score, term)
            ordk = np.lexsort((terms, -scores))[:k]
            for r, j in enumerate(ordk, start=1):
                out["doc_id"].append(did)
                out["rank"].append(r)
                out["term"].append(terms[j])
                out["tfidf"].append(
                    float(_round_half_away(scores[j])))
        return pd.DataFrame(out).astype({"doc_id": "int64",
                                         "rank": "int64"})

    return docs.map_batches(f, batch_format="pandas")


def tfidf_topk(sf_dir: str, k: int = 3):
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()
    df_tbl = term_doc_frequencies(docs).to_pandas()
    idf = np.log(float(n_docs) / df_tbl["d"].to_numpy(np.float64))
    out = tfidf_topk_ds(docs, df_tbl["th"].to_numpy(np.uint64), idf,
                        k=k)
    return (out.to_pandas().sort_values(["doc_id", "rank"])
            .reset_index(drop=True))


TFIDF_TOPK_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
t AS (SELECT doc_id, unnest(w) AS term FROM tok),
tf AS (SELECT doc_id, term, COUNT(*) AS c FROM t GROUP BY doc_id, term),
df AS (SELECT term, COUNT(DISTINCT doc_id) AS d FROM t GROUP BY term),
n AS (SELECT COUNT(*) AS nn FROM documents),
scored AS (
  SELECT doc_id, term, tf.c * LN(nn * 1.0 / d) AS tfidf,
         ROW_NUMBER() OVER (PARTITION BY doc_id
             ORDER BY tf.c * LN(nn * 1.0 / d) DESC, term) AS rn
  FROM tf JOIN df USING (term), n)
SELECT doc_id, CAST(rn AS BIGINT) AS rank, term,
       ROUND(tfidf, 6) AS tfidf
FROM scored WHERE rn <= 3 ORDER BY doc_id, rn
"""


# --------------------------------------------- corpus snapshot diff
#
# Crawl-snapshot delta: compare two corpus versions by content hash
# and emit only the differences (added / removed / changed — unchanged
# docs emit nothing, so output is proportional to the delta, not the
# corpus). Both sides reduce to slim (doc_id, content hash, side)
# rows; the only shuffle is the doc_id groupby of those slim rows.


def corpus_diff_ds(old_docs, new_docs, num_buckets: int = 64):
    """Two (doc_id, text) Datasets -> Dataset of (doc_id, status) for
    docs that differ (status in added/removed/changed). Slim rows
    co-locate by hash bucket of doc_id (NOT a per-doc groupby — that
    would pay one Python group call per document); each bucket group
    resolves every doc at once with one vectorized outer merge."""
    def hash_side(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            h = np.fromiter(
                (hashlib.md5(t.encode()).digest()[:8]
                 for t in batch["text"]), dtype="S8",
                count=len(batch)).view(np.uint64)
            ids = batch["doc_id"].to_numpy().astype(np.int64)
            return pd.DataFrame({
                "doc_id": ids, "h": h, "side": np.int8(side),
                "__b": (pd.util.hash_array(ids)
                        % num_buckets).astype(np.int64)})
        return f

    tagged = (old_docs.map_batches(hash_side(0), batch_format="pandas")
              .union(new_docs.map_batches(hash_side(1),
                                          batch_format="pandas")))

    def diff_bucket(g: pd.DataFrame) -> pd.DataFrame:
        o = g.loc[g["side"] == 0, ["doc_id", "h"]]
        n = g.loc[g["side"] == 1, ["doc_id", "h"]]
        m = o.merge(n, on="doc_id", how="outer",
                    suffixes=("_o", "_n"), indicator=True)
        status = np.where(
            m["_merge"] == "left_only", "removed",
            np.where(m["_merge"] == "right_only", "added", "changed"))
        keep = (m["_merge"] != "both") | (m["h_o"] != m["h_n"])
        return pd.DataFrame({
            "doc_id": m.loc[keep, "doc_id"].to_numpy(np.int64),
            "status": status[keep.to_numpy()]})

    return tagged.groupby("__b").map_groups(diff_bucket,
                                            batch_format="pandas")


def corpus_diff(sf_dir: str):
    """Oracle form: both snapshots derive deterministically from the
    documents table — old omits doc_id % 7 == 0, new omits
    doc_id % 11 == 0 and appends ' v2' to doc_id % 5 == 0 texts."""
    def old_view(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["doc_id"] % 7 != 0, ["doc_id", "text"]]

    def new_view(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["doc_id"] % 11 != 0, ["doc_id", "text"]].copy()
        mod = b["doc_id"] % 5 == 0
        b.loc[mod, "text"] = b.loc[mod, "text"] + " v2"
        return b

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    out = corpus_diff_ds(docs.map_batches(old_view,
                                          batch_format="pandas"),
                         docs.map_batches(new_view,
                                          batch_format="pandas"))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# --------------------------------------------- corpus curation pipeline
#
# The composed end-to-end curation pass a training-data team actually
# runs, fused for one text decode and ONE shuffle total:
#   pass A (map, fused): token count + Gopher repetition/format gates
#     + benchmark-decontamination probe + content hash -> one slim row
#     per doc (no text leaves the map);
#   pass B (bucketed groupby on the content hash): exact dedup among
#     the docs that survived the gates — keep the min doc_id per hash.
# Every doc emits exactly one (doc_id, status) row with the FIRST
# failing stage: gate_fail -> contaminated -> duplicate -> kept.
# Composes the same primitives as the standalone operators, so the
# whole chain stays SQL-checkable.


def _curate_rows(docs, ref, min_tokens: int, max_dup_line_frac: float,
                 max_symbol_ratio: float, max_bullet_frac: float,
                 n: int, num_buckets: int):
    """Pass A (fused map): one text decode per doc -> slim
    (doc_id, content hash, gate_pass, contaminated, __b) rows."""
    import ray as _ray

    def fused(batch: pd.DataFrame) -> pd.DataFrame:
        bench = _ray.get(ref)
        toks = [_tokens(t) for t in batch["text"]]
        gop_pass = _gopher_batch(
            batch, max_dup_line_frac, max_symbol_ratio,
            max_bullet_frac, tokens=toks)["gopher_pass"].to_numpy()
        out = {"doc_id": batch["doc_id"].to_numpy().astype(np.int64),
               "h": [], "gate_pass": [], "contaminated": []}
        for j, text in enumerate(batch["text"]):
            w = toks[j]
            gate = (len(w) >= min_tokens) and bool(gop_pass[j])
            doc_ng = _ngram_hashes(w, n)
            if len(doc_ng) and len(bench):
                idx = np.minimum(np.searchsorted(bench, doc_ng),
                                 len(bench) - 1)
                contaminated = bool((bench[idx] == doc_ng).any())
            else:
                contaminated = False
            out["h"].append(np.frombuffer(
                hashlib.md5(text.encode()).digest()[:8],
                dtype=np.uint64)[0])
            out["gate_pass"].append(gate)
            out["contaminated"].append(contaminated)
        f = pd.DataFrame(out)
        f["__b"] = (pd.util.hash_array(f["h"].to_numpy(np.uint64))
                    % num_buckets).astype(np.int64)
        return f

    return docs.map_batches(fused, batch_format="pandas")


def _curate_resolve(g: pd.DataFrame) -> pd.DataFrame:
    """Pass B, one hash bucket at a time (vectorized): canonical =
    min doc_id per content hash among gate+decontam survivors."""
    surv = g.loc[g["gate_pass"] & ~g["contaminated"]]
    canon = surv.groupby("h")["doc_id"].min()
    cmin = g["h"].map(canon)
    status = np.where(
        ~g["gate_pass"], "gate_fail",
        np.where(g["contaminated"], "contaminated",
                 np.where(g["doc_id"].to_numpy()
                          == cmin.to_numpy(), "kept", "duplicate")))
    return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                         "status": status})


def curate_corpus_ds(docs, bench_hashes, min_tokens: int = 5,
                     max_dup_line_frac: float = 0.3,
                     max_symbol_ratio: float = 0.1,
                     max_bullet_frac: float = 0.9, n: int = 3,
                     num_buckets: int = 64):
    """Streaming form: documents Dataset -> (doc_id, status) Dataset.
    ``bench_hashes``: sorted uint64 n-gram hashes of the eval set (or
    an ObjectRef), as in :func:`decontaminate_ds`."""
    import ray as _ray
    ref = (bench_hashes if isinstance(bench_hashes, _ray.ObjectRef)
           else _ray.put(np.asarray(bench_hashes, dtype=np.uint64)))
    rows = _curate_rows(docs, ref, min_tokens, max_dup_line_frac,
                        max_symbol_ratio, max_bullet_frac, n,
                        num_buckets)
    return rows.groupby("__b").map_groups(_curate_resolve,
                                          batch_format="pandas")


def curate_corpus_checkpointed(docs, bench_hashes, out_dir: str,
                               min_tokens: int = 5,
                               max_dup_line_frac: float = 0.3,
                               max_symbol_ratio: float = 0.1,
                               max_bullet_frac: float = 0.9,
                               n: int = 3, num_buckets: int = 64,
                               skip_keys=None) -> pd.DataFrame:
    """Resumable form: per-hash-bucket verdicts are written atomically
    under ``out_dir`` with per-partition manifest rows
    (state/checkpoint layout, same machinery as the flagship join);
    an identical re-submit filters committed buckets out of the
    shuffle input and recomputes nothing downstream of the scan. The
    stateless fused scan re-runs on resume (one read pass) — the
    shuffle and the writes are what resume saves. ``skip_keys`` is
    fault injection for resume tests. Returns this run's manifest
    rows (lineage: rows + output fingerprint per bucket)."""
    import hashlib as _hl

    import ray as _ray

    from ..state.checkpoint import run_partitioned
    ref = (bench_hashes if isinstance(bench_hashes, _ray.ObjectRef)
           else _ray.put(np.asarray(bench_hashes, dtype=np.uint64)))
    cfg = _hl.sha1(
        f"curate:v1:{min_tokens}:{max_dup_line_frac}:"
        f"{max_symbol_ratio}:{max_bullet_frac}:{n}:{num_buckets}"
        .encode()).hexdigest()
    rows = _curate_rows(docs, ref, min_tokens, max_dup_line_frac,
                        max_symbol_ratio, max_bullet_frac, n,
                        num_buckets)
    return run_partitioned(rows, ["__b"], _curate_resolve, out_dir,
                           config_hash=cfg, skip_keys=skip_keys)


def _relabel_losers_batch(b: pd.DataFrame, losers: np.ndarray,
                          bucket_mod: int | None = None
                          ) -> pd.DataFrame:
    """The ONE near-dup relabel rule both full-curation forms share:
    a doc in the loser set whose exact-curation status is 'kept'
    becomes 'near_duplicate'; every other status wins precedence.
    Keeping this in one place means the streaming and checkpointed
    pipelines cannot drift apart. ``bucket_mod`` optionally appends
    the checkpoint partition column."""
    ids = b["doc_id"].to_numpy(np.int64)
    hit = np.isin(ids, losers)
    status = np.where(hit & (b["status"] == "kept"),
                      "near_duplicate", b["status"])
    out = {"doc_id": ids, "status": status}
    if bucket_mod is not None:
        out["__b"] = ids % bucket_mod
    return pd.DataFrame(out)


def _derive_bench(docs, bench_mod: int, bench_tokens: int,
                  n: int) -> np.ndarray:
    """Corpus-derived eval-set n-gram hashes (docs with
    doc_id % bench_mod == 0 donate their first ``bench_tokens``
    tokens), produced DISTRIBUTED (only uint64 hashes reach the
    driver) and returned sorted-unique. The single derivation the
    decontaminate / curate_corpus / curate_corpus_full oracle forms
    all share — diverging copies would silently decontaminate the
    entry points against different eval sets."""
    def bench_part(b: pd.DataFrame) -> pd.DataFrame:
        donors = b.loc[b["doc_id"] % bench_mod == 0, "text"]
        return pd.DataFrame({"h": benchmark_ngram_hashes(
            donors, n=n, max_tokens=bench_tokens)})

    rows = docs.map_batches(bench_part,
                            batch_format="pandas").to_pandas()
    return np.unique(rows["h"].to_numpy(dtype=np.uint64))


def curate_corpus(sf_dir: str, bench_mod: int = 97,
                  bench_tokens: int = 50, **kw):
    """Oracle form: eval set derived as in :func:`decontaminate`
    (docs with doc_id % bench_mod donate their first bench_tokens
    tokens)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n = kw.get("n", 3)

    bench = _derive_bench(docs, bench_mod, bench_tokens, n)
    import ray as _ray
    out = curate_corpus_ds(docs, _ray.put(bench), **kw)
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


# ------------------------------ full curation: + fused near-dedup
#
# curate_corpus_ds stops at exact dedup; the one-shot production pass
# also removes NEAR-duplicates among the survivors. Precedence (first
# failing stage wins): gate_fail -> contaminated -> duplicate (exact,
# min doc_id keeps) -> near_duplicate (cluster keep-LONGEST, ties to
# smaller doc_id) -> kept.


def _near_dup_losers(docs, kept_ids_ds, threshold: float, k: int,
                     coarse_buckets: int) -> np.ndarray:
    """Near-dup cluster LOSERS among the kept docs: shingle the corpus
    once, semi-join the slim shingle table against the kept ids (a
    hash-partition join — no corpus-sized broadcast), prefix-filtered
    exact-Jaccard pairs, connected components, keep-longest.

    Each shuffled intermediate a later join reads a schema from is
    pinned — ``sh`` (all docs), the kept ids and ``sh_kept`` (kept
    docs), and inside the pair chain the candidates and the first
    verify join — so every shuffle runs once. The pair set, the
    components and the loser list are all bounded by near-dup CLUSTER
    membership (the op's inherent output size), so the pairs are
    collected and their components found in-process
    (``min_label_components``: same min-doc-id component ids as the
    distributed ``connected_components``, without its per-round
    shuffles). No kept doc, or no candidate pair, gives no losers."""
    import functools
    from ..functions.blocks import coalesce_slim
    from ..functions.graph import min_label_components
    from ..functions.joins import hash_partition_join

    no_losers = np.empty(0, dtype=np.int64)
    kept_arrow = kept_ids_ds.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_id"].to_numpy(), pa.int64())}),
        batch_format="pandas").materialize()
    if kept_arrow.count() == 0:
        return no_losers
    sh = coalesce_slim(docs.map_batches(
        functools.partial(_shingle_batch, k=k, with_ntok=True),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1024).materialize())
    # explicit Arrow schemas so the join's tagged union pads with the
    # right types (binary shingles, never inferred as string); n_tok
    # rides along so keep-longest needs NO extra corpus scan
    sh_arrow = sh.map_batches(
        lambda b: pa.table({
            "doc_id": pa.array(b["doc_id"].to_numpy(), pa.int64()),
            "shingles": pa.array(list(b["shingles"]), pa.binary()),
            "n_sh": pa.array(b["n_sh"].to_numpy(), pa.int64()),
            "n_tok": pa.array(b["n_tok"].to_numpy(), pa.int64())}),
        batch_format="pandas")
    sh_kept = hash_partition_join(sh_arrow, kept_arrow, on="doc_id",
                                  how="semi").materialize()
    pairs = _prefix_pairs_from_shingles(sh_kept, threshold,
                                        coarse_buckets).to_pandas()
    if pairs.empty:
        return no_losers
    comp = min_label_components(pairs["doc_a"], pairs["doc_b"]).rename(
        columns={"vertex": "doc_id"})
    ids = frozenset(comp["doc_id"].tolist())
    # token counts come off the pinned kept-doc shingle table (slim
    # columns, cluster members only) — the tokenization happened in
    # the shingle pass; no third read of the corpus text
    tc = (sh_kept.map_batches(
        lambda b: b.loc[b["doc_id"].isin(ids),
                        ["doc_id", "n_tok"]]
        .rename(columns={"n_tok": "n_tokens"}),
        batch_format="pandas").to_pandas())
    df = comp.merge(tc, on="doc_id").sort_values(
        ["component", "n_tokens", "doc_id"],
        ascending=[True, False, True], kind="mergesort")
    keeper = df.groupby("component")["doc_id"].transform("first")
    return np.sort(df.loc[df["doc_id"] != keeper,
                          "doc_id"].to_numpy(np.int64))


def curate_corpus_full_ds(docs, bench_hashes, threshold: float = 0.5,
                          min_tokens: int = 5,
                          max_dup_line_frac: float = 0.3,
                          max_symbol_ratio: float = 0.1,
                          max_bullet_frac: float = 0.9, n: int = 3,
                          k: int = 3, num_buckets: int = 64,
                          coarse_buckets: int = 64):
    """One-shot curation WITH near-dedup fused in: documents Dataset
    -> (doc_id, status) Dataset with statuses gate_fail /
    contaminated / duplicate / near_duplicate / kept.

    Stage 1 is exactly :func:`curate_corpus_ds` (fused gates +
    decontamination + exact dedup, one shuffle). Its slim verdicts
    are materialized (2 columns per doc — the op's decision output,
    not the corpus) so stage 2 can (a) semi-join the shingle table
    down to the kept docs and (b) re-emit every verdict row. Stage 2
    runs the prefix-filtered exact-Jaccard chain
    (:func:`_near_dup_losers`), whose shuffles each run once and
    whose components are found in-process on the collected pairs; the
    MinHash+LSH candidates plug into the identical
    pair->components->keep-best chain at lower cost when approximate
    recall is acceptable — driving the composed op from the exact
    pairs keeps the WHOLE pipeline SQL-checkable
    (CURATE_CORPUS_FULL_SQL). Losers are re-labeled by a broadcast
    sorted id array (bounded by cluster membership, never the
    corpus); when no doc is kept, or no kept docs share a prefix
    shingle, there are no losers and the verdicts pass through."""
    import ray as _ray
    verdicts = curate_corpus_ds(
        docs, bench_hashes, min_tokens=min_tokens,
        max_dup_line_frac=max_dup_line_frac,
        max_symbol_ratio=max_symbol_ratio,
        max_bullet_frac=max_bullet_frac, n=n,
        num_buckets=num_buckets).materialize()
    kept_ids = verdicts.map_batches(
        lambda b: b.loc[b["status"] == "kept", ["doc_id"]],
        batch_format="pandas")
    losers = _near_dup_losers(docs, kept_ids, threshold, k,
                              coarse_buckets)
    ref = _ray.put(losers)

    def mark(b: pd.DataFrame) -> pd.DataFrame:
        return _relabel_losers_batch(b, _ray.get(ref))

    return verdicts.map_batches(mark, batch_format="pandas")


def curate_corpus_full_checkpointed(docs, bench_hashes, out_dir: str,
                                    threshold: float = 0.5,
                                    min_tokens: int = 5,
                                    max_dup_line_frac: float = 0.3,
                                    max_symbol_ratio: float = 0.1,
                                    max_bullet_frac: float = 0.9,
                                    n: int = 3, k: int = 3,
                                    num_buckets: int = 64,
                                    coarse_buckets: int = 64,
                                    skip_keys_exact=None,
                                    skip_keys_final=None):
    """Resumable two-phase form of :func:`curate_corpus_full_ds`.

    Phase 1 commits the exact-curation verdicts per content-hash
    bucket under ``out_dir``/exact (the curate_corpus_checkpointed
    machinery); a re-submit skips committed buckets. Phase 2 reads
    the committed verdicts back as a Dataset (never a driver
    collect), computes the near-dup losers, and commits the FINAL
    (doc_id, status) rows per ``doc_id % num_buckets`` partition
    under ``out_dir``/final — so a crash between phases resumes with
    phase 1 entirely from parquet. ``skip_keys_*`` are fault
    injection for the resume tests. Returns phase 2's manifest
    rows."""
    import hashlib as _hl
    import os

    from ..state.checkpoint import run_partitioned
    curate_corpus_checkpointed(
        docs, bench_hashes, os.path.join(out_dir, "exact"),
        min_tokens=min_tokens, max_dup_line_frac=max_dup_line_frac,
        max_symbol_ratio=max_symbol_ratio,
        max_bullet_frac=max_bullet_frac, n=n,
        num_buckets=num_buckets, skip_keys=skip_keys_exact)
    # per-partition manifest.json sidecars live next to the data
    # files — restrict discovery to the parquet payload
    verdicts = rd.read_parquet(os.path.join(out_dir, "exact", "part"),
                               file_extensions=["parquet"],
                               columns=["doc_id", "status"])
    kept_ids = verdicts.map_batches(
        lambda b: b.loc[b["status"] == "kept", ["doc_id"]],
        batch_format="pandas")
    losers = _near_dup_losers(docs, kept_ids, threshold, k,
                              coarse_buckets)
    import ray as _ray
    ref = _ray.put(losers)

    def with_bucket(b: pd.DataFrame) -> pd.DataFrame:
        return _relabel_losers_batch(b, _ray.get(ref),
                                     bucket_mod=num_buckets)

    rows = verdicts.map_batches(with_bucket, batch_format="pandas")
    cfg = _hl.sha1(
        f"curate_full:v1:{threshold}:{min_tokens}:"
        f"{max_dup_line_frac}:{max_symbol_ratio}:{max_bullet_frac}:"
        f"{n}:{k}:{num_buckets}:{coarse_buckets}".encode()).hexdigest()
    return run_partitioned(
        rows, ["__b"], lambda g: g[["doc_id", "status"]],
        os.path.join(out_dir, "final"), config_hash=cfg,
        skip_keys=skip_keys_final)


def curate_corpus_full(sf_dir: str, bench_mod: int = 97,
                       bench_tokens: int = 50, **kw):
    """Oracle form of the fused full-curation pass (eval set derived
    as in :func:`curate_corpus`)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n = kw.get("n", 3)

    bench = _derive_bench(docs, bench_mod, bench_tokens, n)
    import ray as _ray
    out = curate_corpus_full_ds(docs, _ray.put(bench), **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# CURATE_CORPUS_SQL's stages + the exact near-dup chain over the
# exact-dedup survivors: trigram-Jaccard pairs (string shingles ==
# the engine's 64-bit hash shingles absent collisions), recursive
# min-label components, keep-LONGEST per component (ties to smaller
# doc_id), losers re-labeled near_duplicate.
CURATE_CORPUS_FULL_SQL = r"""
WITH RECURSIVE tok AS (
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
  FROM flags WHERE gate_pass AND NOT contaminated),
kept0 AS (SELECT doc_id FROM dup WHERE rn = 1),
shn AS (
  SELECT t.doc_id,
         CASE WHEN len(t.w) < 3 THEN [array_to_string(t.w, chr(1))]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(t.w) - 2),
                     i -> t.w[i] || chr(1) || t.w[i+1] || chr(1)
                          || t.w[i+2]))
         END AS s
  FROM tok t JOIN kept0 USING (doc_id)),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.s, b.s)) AS inter,
         len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS uni
  FROM shn a JOIN shn b ON a.doc_id < b.doc_id),
pairs AS (
  SELECT doc_a, doc_b FROM p WHERE uni > 0 AND inter * 1.0 / uni >= 0.5),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs),
walk(node, label) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.node),
comp AS (
  SELECT node AS doc_id, MIN(label) AS component
  FROM walk GROUP BY node),
tc AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tokens
  FROM documents),
ranked AS (
  SELECT c.doc_id,
         FIRST_VALUE(c.doc_id) OVER (
           PARTITION BY c.component
           ORDER BY t.n_tokens DESC, c.doc_id) AS keeper
  FROM comp c JOIN tc t USING (doc_id)),
losers AS (SELECT doc_id FROM ranked WHERE doc_id <> keeper)
SELECT f.doc_id,
       CASE WHEN NOT f.gate_pass THEN 'gate_fail'
            WHEN f.contaminated THEN 'contaminated'
            WHEN d.rn > 1 THEN 'duplicate'
            WHEN l.doc_id IS NOT NULL THEN 'near_duplicate'
            ELSE 'kept' END AS status
FROM flags f LEFT JOIN dup d USING (doc_id)
             LEFT JOIN losers l ON f.doc_id = l.doc_id
ORDER BY f.doc_id
"""


CORPUS_DIFF_SQL = r"""
WITH old AS (SELECT doc_id, text FROM documents WHERE doc_id % 7 <> 0),
new AS (SELECT doc_id,
               CASE WHEN doc_id % 5 = 0 THEN text || ' v2'
                    ELSE text END AS text
        FROM documents WHERE doc_id % 11 <> 0),
j AS (SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
             o.text AS ot, n.text AS nt
      FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id)
SELECT doc_id,
       CASE WHEN ot IS NULL THEN 'added'
            WHEN nt IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM j WHERE ot IS NULL OR nt IS NULL OR ot <> nt
ORDER BY doc_id
"""




# ------------------------------------------- edit-distance (ed<=k) join

def _qgram_occurrence_keys(s: str, q: int) -> np.ndarray:
    """Positional-multiset q-gram keys: hash(gram) mixed with the
    gram's occurrence index, so duplicate grams in one string become
    distinct keys and matching key counts equal the MULTISET
    intersection size (sum of min counts) — the quantity the q-gram
    count filter bounds. Grams are over UTF-8 BYTES: the whole join
    uses byte-level Levenshtein (DuckDB/Postgres fuzzystrmatch
    semantics), so the gram/length filters must count bytes too."""
    bs = s.encode("utf-8")
    grams = [bs[i:i + q] for i in range(len(bs) - q + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    h = pd.util.hash_array(np.array(grams, dtype=object))
    order = np.argsort(h, kind="stable")
    hs = h[order]
    new = np.ones(len(h), dtype=bool)
    new[1:] = hs[1:] != hs[:-1]
    starts = np.nonzero(new)[0]
    run = np.cumsum(new) - 1
    occ = np.empty(len(h), dtype=np.int64)
    occ[order] = np.arange(len(h)) - starts[run]
    return h ^ pd.util.hash_array(occ)


def _edit_distances(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """UTF-8 byte-level Levenshtein distances (DuckDB ``levenshtein``
    semantics) for aligned string arrays, vectorized ACROSS pairs:
    pairs group by (bytes_a, bytes_b) length; inside a group both
    sides stack into fixed-width uint8 matrices and one
    Wagner-Fischer DP runs with O(len_a*len_b) numpy steps, each
    spanning the whole pair axis — no per-pair Python DP."""
    n_pairs = len(sa)
    ea = [x.encode("utf-8") for x in sa]
    eb = [x.encode("utf-8") for x in sb]
    out = np.empty(n_pairs, dtype=np.int64)
    la = np.fromiter((len(x) for x in ea), np.int64, n_pairs)
    lb = np.fromiter((len(x) for x in eb), np.int64, n_pairs)
    for m, n in set(zip(la.tolist(), lb.tolist())):
        idx = np.nonzero((la == m) & (lb == n))[0]
        if m == 0 or n == 0:
            out[idx] = max(m, n)
            continue
        A = np.frombuffer(b"".join(ea[i] for i in idx),
                          dtype=np.uint8).reshape(len(idx), m)
        B = np.frombuffer(b"".join(eb[i] for i in idx),
                          dtype=np.uint8).reshape(len(idx), n)
        prev = np.tile(np.arange(n + 1, dtype=np.int64), (len(idx), 1))
        cur = np.empty_like(prev)
        for i in range(1, m + 1):
            cur[:, 0] = i
            sub = (A[:, i - 1, None] != B).astype(np.int64)
            for j in range(1, n + 1):
                cur[:, j] = np.minimum(
                    np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                    prev[:, j - 1] + sub[:, j - 1])
            prev, cur = cur, prev
        out[idx] = prev[:, n]
    return out


def edit_distance_join_ds(ds, k: int = 2, q: int = 4,
                          coarse_buckets: int = 64,
                          num_buckets: int = 32):
    """EXACT all-pairs edit-distance join: every (doc_a, doc_b) with
    byte-level Levenshtein distance <= ``k`` over the ``s`` column of
    ``ds`` (columns ``doc_id``, ``s``), returned as a Dataset of
    (doc_a, doc_b, dist), doc_a < doc_b. Lossless — no LSH recall gap.

    Candidate generation is PREFIX-FILTERED (Ed-Join, Xiao/Wang/Lin,
    VLDB'08, on the Gravano VLDB'01 q-gram framework): at most k
    edits destroy at most q*k of a string's positional-multiset
    q-grams, so under ANY global gram order two strings within
    distance k must share a gram among their q*k+1 FIRST grams (the
    prefix lemma). The global order is BY ASCENDING CORPUS FREQUENCY
    (one slim distributed gram count, collected vocab-sized to the
    driver and broadcast once — at larger vocabularies attach ranks
    via hash_partition_join instead), so ubiquitous template grams
    never enter a prefix and posting lists stay short. Strings with
    <= q*k grams can evade the lemma and pair all-against-all in ONE
    dedicated short-string group (any qualifying partner is provably
    also in it).

    Index rows carry the string itself — a bounded q*k+1-fold
    replication of the KEY column, fair for the short join keys this
    op targets (titles/urls/prefixes; DP verify is O(len²) per pair,
    so long payloads should join on a truncated or fingerprinted key
    anyway) — so candidates length-filter and DP-VERIFY inside the
    candidate bucket and only final (doc_a, doc_b, dist) hits leave
    it; a pair sharing several prefix grams re-verifies once per
    shared gram, bounded by the prefix length. The only post-verify
    shuffle is a distinct over the OUTPUT-sized hit rows.

    Scale knob: one candidate group holds ~(q*k+1)/coarse_buckets of
    the corpus' index rows (each ~key + id + the short string), so
    size ``coarse_buckets`` to keep a group in worker memory —
    ~corpus_rows/10^6 buckets at billion-doc scale, exactly like the
    Jaccard family's coarse bucketing."""
    import ray as _ray
    from ..functions.aggregates import grouped_agg
    from ..functions.pairgen import pairs_sharing_key

    short_g = q * k        # grams <= short_g can evade the prefix lemma
    prefix_take = q * k + 1

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        keys = [_qgram_occurrence_keys(s, q) for s in b["s"]]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "s": b["s"],
            "L": pd.Series([len(s.encode("utf-8")) for s in b["s"]],
                           dtype="int64"),
            "g": pd.Series([len(v) for v in keys], dtype="int64"),
            "keys": [v.tobytes() for v in keys]})

    sized = ds.map_batches(prep, batch_format="pandas",
                           batch_size=4096).materialize()
    if sized.count() == 0:
        # an all-empty corpus would reach hash_partition_join with a
        # schemaless Dataset; return the typed empty result directly
        # (from_arrow, not from_pandas: an empty pandas block drops
        # its columns on the to_pandas round-trip)
        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64())}))

    def explode_all(b: pd.DataFrame) -> pd.DataFrame:
        vs = [np.frombuffer(blob, dtype=np.uint64) for blob in b["keys"]]
        h = (np.concatenate(vs) if vs
             else np.empty(0, dtype=np.uint64))
        return pd.DataFrame({"kk": h.view(np.int64),
                             "n": np.ones(len(h), dtype=np.int64)})

    # global gram frequencies -> the prefix order (rarest first)
    kc = grouped_agg(sized.map_batches(explode_all,
                                       batch_format="pandas"),
                     ["kk"], {"n": ("n", "sum")}).to_pandas()
    ks = kc["kk"].to_numpy(np.int64)
    order = np.argsort(ks, kind="stable")
    freq_ref = _ray.put((ks[order], kc["n"].to_numpy(np.int64)[order]))

    def explode_prefix(b: pd.DataFrame) -> pd.DataFrame:
        fk, fc = _ray.get(freq_ref)
        ids, hashes, strs, lens = [], [], [], []
        for d, blob, s, L in zip(b["doc_id"], b["keys"], b["s"],
                                 b["L"]):
            v = np.frombuffer(blob, dtype=np.uint64).view(np.int64)
            if len(v) == 0:
                continue
            cnt = fc[np.searchsorted(fk, v)]
            pre = v[np.lexsort((v, cnt))[:prefix_take]]
            hashes.append(pre)
            ids.append(np.full(len(pre), d, dtype=np.int64))
            strs.extend([s] * len(pre))
            lens.append(np.full(len(pre), L, dtype=np.int64))
        if not ids:
            return pd.DataFrame({"cb": pd.Series([], dtype="int64"),
                                 "kk": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="object"),
                                 "L": pd.Series([], dtype="int64")})
        h = np.concatenate(hashes)
        return pd.DataFrame({
            "cb": (h.view(np.uint64)
                   % np.uint64(coarse_buckets)).astype(np.int64),
            "kk": h,
            "doc_id": np.concatenate(ids),
            "s": strs,
            "L": np.concatenate(lens)})

    def _verify_pairs(a: np.ndarray, b: np.ndarray,
                      lut: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64"),
                              "dist": pd.Series([], dtype="int64")})
        if len(a) == 0:
            return empty
        la = lut["L"].reindex(a).to_numpy(np.int64)
        lb = lut["L"].reindex(b).to_numpy(np.int64)
        keep = np.abs(la - lb) <= k
        a, b = a[keep], b[keep]
        if len(a) == 0:
            return empty
        d = _edit_distances(lut["s"].reindex(a).to_numpy(),
                            lut["s"].reindex(b).to_numpy())
        hit = d <= k
        return pd.DataFrame({"doc_a": a[hit], "doc_b": b[hit],
                             "dist": d[hit]})

    def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
        a, b = pairs_sharing_key(g["kk"].to_numpy(),
                                 g["doc_id"].to_numpy())
        if len(a):
            dedup = pd.DataFrame({"a": a, "b": b})                 .drop_duplicates(["a", "b"])
            a = dedup["a"].to_numpy(np.int64)
            b = dedup["b"].to_numpy(np.int64)
        lut = g.drop_duplicates("doc_id").set_index("doc_id")[
            ["s", "L"]]
        return _verify_pairs(a, b, lut)

    indexed = (sized.map_batches(explode_prefix, batch_format="pandas")
               .groupby("cb").map_groups(bucket_verify,
                                         batch_format="pandas"))

    def short_verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy(np.int64))
        ii, jj = np.triu_indices(len(ids), k=1)
        lut = g.drop_duplicates("doc_id").set_index("doc_id")[
            ["s", "L"]]
        return _verify_pairs(ids[ii], ids[jj], lut)

    short = (sized.map_batches(
        lambda b: b.loc[b["g"] <= short_g,
                        ["doc_id", "s", "L"]].assign(cb=np.int64(0)),
        batch_format="pandas")
        .groupby("cb").map_groups(short_verify, batch_format="pandas"))

    # a pair verifies once per shared prefix gram bucket (and the
    # short block can duplicate an indexed hit): one distinct over
    # the FINAL hit rows — output-sized, tiny
    hits = indexed.union(short)

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["doc_a", "doc_b"])[
            ["doc_a", "doc_b", "dist"]]

    def tag_pair(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__pb"] = ((pd.util.hash_array(b["doc_a"].to_numpy(np.int64))
                      ^ pd.util.hash_array(
                          b["doc_b"].to_numpy(np.int64)))
                     % num_buckets).astype(np.int64)
        return b

    return (hits.map_batches(tag_pair, batch_format="pandas")
            .groupby("__pb").map_groups(distinct,
                                        batch_format="pandas"))

def edit_distance_pairs(sf_dir: str, k: int = 2, q: int = 4,
                        prefix_len: int = 24):
    """Query form: ed<=k pairs over each document's first
    ``prefix_len`` characters (the title/url-style short-key dedup
    use-case; keeps the all-pairs DuckDB levenshtein oracle cheap)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "s": b["text"].str.slice(0, prefix_len)}),
        batch_format="pandas")
    df = edit_distance_join_ds(ds, k=k, q=q).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "dist": pd.Series([], dtype="int64")})
    df["dist"] = df["dist"].astype("int64")
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


EDIT_DISTANCE_PAIRS_SQL = """
WITH s AS (SELECT doc_id, substr(text, 1, 24) AS s FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE levenshtein(a.s, b.s) <= 2
ORDER BY doc_a, doc_b
"""


# ------------------------------------------- epoch shuffle (training)

def epoch_shuffle_ds(ds, id_col: str = "doc_id", epoch: int = 0,
                     seed: int = 42):
    """Deterministic training-epoch reshuffle: globally reorder rows
    by ``knuth_hash(id + epoch*PRIME + seed)`` — a different, fully
    reproducible permutation per epoch, with NO RNG state (resume
    mid-epoch re-derives the same order; SQL can reproduce it for the
    oracle). One range sort on the hash key — the same all-to-all any
    shuffle pays, but unlike ``random_shuffle`` the order is a pure
    function of (id, epoch, seed), so retries, re-runs and different
    block layouts give byte-identical epochs."""
    mult = np.uint64(2654435761)
    # wraparound mod 2^64 is intentional; do it in Python ints so
    # numpy's scalar-overflow RuntimeWarning never fires
    off = np.uint64((epoch * 0x9E3779B97F4A7C15 + seed) % (1 << 64))

    def key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        ids = b[id_col].to_numpy(np.int64).astype(np.uint64)
        b["__shuf"] = ((ids + off) * mult % np.uint64(1 << 32)) \
            .astype(np.int64)
        return b

    return ds.map_batches(key, batch_format="pandas").sort(
        ["__shuf", id_col]).map_batches(
        lambda b: b.drop(columns="__shuf"), batch_format="pandas")


def epoch_shuffle(sf_dir: str, epoch: int = 0, seed: int = 42):
    """Query form: the shuffled doc_id order for one epoch."""
    ds = _read_docs(sf_dir, ["doc_id"])
    df = epoch_shuffle_ds(ds, epoch=epoch, seed=seed).to_pandas()
    df["pos"] = np.arange(len(df), dtype=np.int64)
    return df[["pos", "doc_id"]]


EPOCH_SHUFFLE_SQL = """
SELECT CAST(ROW_NUMBER() OVER (ORDER BY
         ((doc_id::HUGEINT + 7 * 11400714819323198485
           + 42) * 2654435761) % 4294967296, doc_id) - 1 AS BIGINT)
         AS pos,
       doc_id
FROM documents ORDER BY pos
"""


def packed_token_sequences_ds(ds, budget: int = 512,
                              bucket_width: int = 4096,
                              vocab_bits: int = 16,
                              seq_buckets: int = 32):
    """The trainer FEED behind ``pack_sequences``'s bookkeeping: the
    actual fixed-``budget`` token-id sequences, concat-then-chunk in
    doc_id order, as a Dataset of (seq_id, n_filled, token_ids
    int32 list; the final partial sequence zero-pads to budget).
    Consume with ``iter_batches`` — the corpus streams straight into
    the training loop.

    Plan: the pack_sequences prefix sum assigns every doc its global
    token offset (O(#buckets) driver state); a second streaming pass
    re-tokenizes each doc, hash-maps tokens to ids (2^vocab_bits — a
    deterministic stand-in for a trained subword vocab), SLICES the
    doc's id array at sequence boundaries, and emits one (seq_id,
    offset, ids-bytes) SPAN row per doc×sequence overlap — O(docs +
    crossings) rows, not O(tokens); a seq-bucket co-group assembles
    each sequence's spans by offset. No step holds more than a bucket
    of spans."""
    def count(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        n = b["text"].map(lambda s: len(_tokens(s))).to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": ids, "n_tokens": n,
            "bucket": ids // np.int64(bucket_width)})

    counted = ds.map_batches(count, batch_format="pandas")
    totals = (counted.map_batches(
        lambda b: b.groupby("bucket", as_index=False)
        .agg(total=("n_tokens", "sum")), batch_format="pandas")
        .to_pandas().groupby("bucket", as_index=False)["total"].sum()
        .sort_values("bucket"))
    offsets = dict(zip(
        totals["bucket"].to_numpy(),
        np.concatenate([[0], totals["total"].cumsum()
                        .to_numpy()[:-1]])))
    # intra-bucket starts need doc order within the bucket: compute
    # per-bucket cumsums once (slim (doc_id, start) rows) and
    # broadcast the per-doc starts per bucket is O(corpus) driver
    # state — instead recompute intra offsets inside the span pass by
    # co-grouping docs per bucket (ordered key ranges)
    import ray as _ray
    off_ref = _ray.put(offsets)
    mask = np.uint64((1 << vocab_bits) - 1)

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        g = g.sort_values("doc_id", kind="mergesort")
        base = int(offs[int(g["bucket"].iloc[0])])
        out_seq, out_off, out_ids = [], [], []
        pos = base
        for text in g["text"]:
            toks = _tokens(text)
            if not toks:
                continue
            tid = (pd.util.hash_array(np.array(toks, dtype=object))
                   & mask).astype(np.int32)
            start = pos
            pos += len(tid)
            s0, s1 = start // budget, (pos - 1) // budget
            for s in range(s0, s1 + 1):
                lo = max(start, s * budget)
                hi = min(pos, (s + 1) * budget)
                out_seq.append(s)
                out_off.append(lo - s * budget)
                out_ids.append(tid[lo - start:hi - start].tobytes())
        return pd.DataFrame({
            "seq_id": pd.Series(out_seq, dtype="int64"),
            "off": pd.Series(out_off, dtype="int64"),
            "ids": pd.Series(out_ids, dtype=object),
            "sb": pd.Series(
                (np.asarray(out_seq, dtype=np.uint64)
                 % np.uint64(seq_buckets)).astype(np.int64)
                if out_seq else [], dtype="int64")})

    # the span pass needs text alongside the bucket key
    def count_with_text(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": ids, "text": b["text"].to_numpy(object),
            "bucket": ids // np.int64(bucket_width)})

    span_rows = (ds.map_batches(count_with_text, batch_format="pandas")
                 .groupby("bucket")
                 .map_groups(spans, batch_format="pandas"))

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        out_seq, out_n, out_arr = [], [], []
        for sid, grp in g.groupby("seq_id", sort=True):
            buf = np.zeros(budget, dtype=np.int32)
            filled = 0
            for off, blob in zip(grp["off"], grp["ids"]):
                v = np.frombuffer(blob, dtype=np.int32)
                buf[off:off + len(v)] = v
                filled += len(v)
            out_seq.append(int(sid))
            out_n.append(filled)
            out_arr.append(buf.tolist())
        return pd.DataFrame({
            "seq_id": pd.Series(out_seq, dtype="int64"),
            "n_filled": pd.Series(out_n, dtype="int64"),
            "token_ids": pd.Series(out_arr, dtype=object)})

    return span_rows.groupby("sb").map_groups(assemble,
                                              batch_format="pandas")


# ----------------------------- incremental (new-vs-corpus) minhash
#
# Continuous-ingestion form of ``minhash_dedup_pairs`` (the MinHash
# sibling of ``incremental_exact_dedup``): a fresh crawl batch is
# checked against an already-deduped corpus without ever generating
# the corpus's internal candidate pairs.

def incremental_minhash_pairs(existing, new, num_perm: int = 64,
                              bands: int = 16, threshold: float = 0.5,
                              coarse_buckets: int = 64):
    """Verified near-dup pairs (doc_a, doc_b, jaccard) where AT LEAST
    ONE side is a NEW doc — new-vs-existing plus new-vs-new; the
    existing corpus is assumed internally deduped, so its
    existing-existing pairs are skipped by construction. Both args are
    (doc_id, text) Datasets with globally unique doc_ids.

    Determinism guarantee (tested): with the same LSH parameters the
    result EXACTLY equals ``minhash_dedup_pairs`` over the union
    filtered to pairs touching a new doc — the signature and banding
    kernels are shared (`_minhash_batch` / `_explode_bands`), and the
    only pruning removes existing-existing candidates.

    Physical plan: band rows carry an ``is_new`` flag; inside each
    coarse bucket, LSH keys with NO new doc are dropped BEFORE pair
    expansion — in steady state (|new| << |corpus|) almost every
    bucket dies there, so candidate volume scales with |new|, not
    |corpus|. In production the existing side's signature pass is a
    stored artifact: feed a Dataset of (doc_id, sig, shingles) rows
    straight into this function to skip re-sharding the corpus text
    (the pass-through is keyed on column presence, like
    ``incremental_exact_dedup``'s content_hash). Stored sigs must
    carry ``thash="md5"``: signatures built with any other token hash
    would silently find nothing, so a missing or different marker
    raises ValueError.
    """
    import functools
    from ..functions.blocks import coalesce_slim

    def sigs_of(ds):
        names = ds.schema().names
        if "sig" in names and "shingles" in names:
            if "thash" not in names:
                raise ValueError(
                    "stored signatures have no thash column; rebuild "
                    f"the artifact with thash={_THASH!r} signatures")

            def validate(b: pd.DataFrame) -> pd.DataFrame:
                bad = b.loc[b["thash"] != _THASH, "thash"]
                if len(bad):
                    raise ValueError(
                        f"stored signatures were built with "
                        f"thash={bad.iloc[0]!r}; this run uses "
                        f"{_THASH!r} — rebuild the artifact")
                return b
            return ds.map_batches(validate, batch_format="pandas")
        return coalesce_slim(ds.map_batches(
            functools.partial(_minhash_batch, num_perm=num_perm, k=3,
                              seed=42),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=1024).materialize())

    sigs_ex, sigs_new = sigs_of(existing), sigs_of(new)

    def tag(flag):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            out = _explode_bands(b, num_perm=num_perm, bands=bands,
                                 coarse_buckets=coarse_buckets)
            out["is_new"] = np.full(len(out), flag, dtype=bool)
            return out
        return f

    exploded = (sigs_ex.map_batches(tag(False), batch_format="pandas")
                .union(sigs_new.map_batches(tag(True),
                                            batch_format="pandas")))

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        from ..functions.pairgen import pairs_sharing_key
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64")})
        flags = g["is_new"].to_numpy(bool)
        if not flags.any():
            return empty
        key = g["band_hash"].to_numpy() ^ (g["band"].to_numpy() + 1)
        doc = g["doc_id"].to_numpy(np.int64)
        live = np.isin(key, np.unique(key[flags]))
        a, b = pairs_sharing_key(key[live], doc[live])
        if len(a) == 0:
            return empty
        gnew = np.unique(doc[flags])
        keep = np.isin(a, gnew) | np.isin(b, gnew)
        if not keep.any():
            return empty
        return (pd.DataFrame({"doc_a": a[keep], "doc_b": b[keep]})
                .drop_duplicates())

    cand = (exploded.groupby("__cb")
            .map_groups(candidates, batch_format="pandas"))
    empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "jaccard": pd.Series([], dtype="float64")})
    pairs = _exact_verify_pairs(cand, sigs_ex.union(sigs_new), threshold)
    df = pairs.to_pandas()
    if df.empty:
        return empty
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ------------------------------------------ corpus distribution drift
#
# Jensen-Shannon divergence between the unigram term distributions of
# two corpus slices (Lin, "Divergence measures based on the Shannon
# entropy", IEEE IT 1991) — the standard drift / contamination / domain
# -shift measure between two text corpora (e.g. this crawl vs last
# crawl, en vs es). Physical plan: one read, per-batch partial
# (token, n_a, n_b) value_counts, the bucketed grouped_agg combiner
# (only per-(token, batch) partials cross the wire), then a slim
# per-bucket vectorized JS-contribution pass whose one-row partials the
# driver sums. Nothing wide ever collects.


def corpus_js_divergence_ds(docs, split_col: str = "lang",
                            side_a: str = "en", side_b: str = "es",
                            num_buckets: int = 32) -> pd.DataFrame:
    """One row: (js_bits, tokens_a, tokens_b, vocab_a, vocab_b,
    vocab_union). ``js_bits`` is the Jensen-Shannon divergence (log2;
    0 = identical distributions, 1 = disjoint supports) between the
    whitespace-token unigram distributions of the ``side_a`` and
    ``side_b`` slices of ``split_col``."""
    from ..functions.aggregates import grouped_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for side, col, other in ((side_a, "n_a", "n_b"),
                                 (side_b, "n_b", "n_a")):
            vc = (b.loc[b[split_col] == side, "text"].str.split()
                  .explode().dropna().value_counts())
            if len(vc):
                frames.append(pd.DataFrame({
                    "token": vc.index.astype(str),
                    col: vc.to_numpy(np.int64),
                    other: np.zeros(len(vc), dtype=np.int64)}))
        if not frames:
            return pd.DataFrame({"token": pd.Series([], dtype=str),
                                 "n_a": pd.Series([], dtype="int64"),
                                 "n_b": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)[
            ["token", "n_a", "n_b"]]

    counts = grouped_agg(
        docs.map_batches(partial, batch_format="pandas"),
        ["token"], {"n_a": ("n_a", "sum"), "n_b": ("n_b", "sum")},
        num_buckets=num_buckets).materialize()

    tot = counts.map_batches(
        lambda b: pd.DataFrame({
            "ta": [int(b["n_a"].sum())], "tb": [int(b["n_b"].sum())],
            "va": [int((b["n_a"] > 0).sum())],
            "vb": [int((b["n_b"] > 0).sum())], "vu": [len(b)]}),
        batch_format="pandas").to_pandas()
    na, nb = int(tot["ta"].sum()), int(tot["tb"].sum())
    if na == 0 or nb == 0:
        raise ValueError("corpus_js_divergence: empty side "
                         f"({side_a}: {na} tokens, {side_b}: {nb})")

    def js_partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b["n_a"].to_numpy(np.float64) / na
        q = b["n_b"].to_numpy(np.float64) / nb
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (0.5 * np.where(p > 0, p * np.log2(p / m), 0.0)
                    + 0.5 * np.where(q > 0, q * np.log2(q / m), 0.0))
        return pd.DataFrame({"js": [float(term.sum())]})

    js = counts.map_batches(js_partial,
                            batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "js_bits": [round(float(js["js"].sum()), 6)],
        "tokens_a": [na], "tokens_b": [nb],
        "vocab_a": [int(tot["va"].sum())],
        "vocab_b": [int(tot["vb"].sum())],
        "vocab_union": [int(tot["vu"].sum())]})


def corpus_js_divergence(sf_dir: str, side_a: str = "en",
                         side_b: str = "es") -> pd.DataFrame:
    """Driver form: JS divergence between the side_a and side_b slices of the
    documents table."""
    docs = _read_docs(sf_dir, ["text", "lang"])
    return corpus_js_divergence_ds(docs, "lang", side_a, side_b)


# ----------------------------------------------- train/val/test split
#
# Every training pipeline needs a leakage-proof corpus split. The
# assignment is a pure function of (doc_id, seed) — a Knuth
# multiplicative hash mapped to [0, 1) and cut at the cumulative
# fractions — so it is reproducible across runs, engines and
# partitionings (the SQL oracle reproduces it bit-for-bit in integer
# arithmetic), and a document can never migrate between splits when
# the corpus is re-sharded. Zero shuffle: one map_batches.

_SPLIT_KNUTH = 2654435761
_SPLIT_MOD = 1 << 32


def split_assign_ds(docs, fractions: dict[str, float],
                    id_col: str = "doc_id", seed: int = 7):
    """Add a ``split`` column: deterministic hash split of ``id_col``
    by the given fractions (must sum to 1). Order of ``fractions``
    fixes the cut order."""
    names = list(fractions)
    cuts = np.cumsum([fractions[n] for n in names])
    if not np.isclose(cuts[-1], 1.0):
        raise ValueError("fractions must sum to 1")
    edges = np.floor(cuts * _SPLIT_MOD).astype(np.uint64)
    edges[-1] = _SPLIT_MOD  # guard against float round-down at 1.0

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.uint64)
        h = ((ids + np.uint64(seed))
             * np.uint64(_SPLIT_KNUTH)) % np.uint64(_SPLIT_MOD)
        idx = np.searchsorted(edges, h, side="right")
        b = b.copy()
        b["split"] = np.asarray(names, dtype=object)[idx]
        return b

    return docs.map_batches(assign, batch_format="pandas")


def corpus_split_counts(sf_dir: str, seed: int = 7) -> pd.DataFrame:
    """Driver form: 98/1/1 train/val/test split of the documents
    table -> (split, n_docs) counts."""
    docs = _read_docs(sf_dir, ["doc_id"])
    ds = split_assign_ds(docs, {"train": 0.98, "val": 0.01,
                                "test": 0.01}, seed=seed)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["split"].value_counts()
        return pd.DataFrame({"split": vc.index.astype(str),
                             "n_docs": vc.to_numpy(np.int64)})

    df = (ds.map_batches(partial, batch_format="pandas").to_pandas()
          .groupby("split", as_index=False)["n_docs"].sum())
    return df.sort_values("split").reset_index(drop=True)


CORPUS_SPLIT_SQL = r"""
WITH h AS (
  SELECT CAST(((CAST(doc_id AS HUGEINT) + 7) * 2654435761)
              % 4294967296 AS UBIGINT) AS hv
  FROM documents
),
cut AS (
  SELECT hv, CASE
    WHEN hv < CAST(FLOOR(0.98 * 4294967296) AS UBIGINT) THEN 'train'
    WHEN hv < CAST(FLOOR(0.99 * 4294967296) AS UBIGINT) THEN 'val'
    ELSE 'test' END AS split
  FROM h
)
SELECT split, COUNT(*) AS n_docs FROM cut GROUP BY split ORDER BY split
"""


# ------------------------------------------- paragraph-level dedup
#
# C4-style exact PARAGRAPH dedup across the whole corpus (Raffel et
# al., JMLR'20 kept three-sentence spans; RefinedWeb scrubs exact
# duplicate spans): every paragraph (a "\n\n" split) survives only at
# its FIRST corpus occurrence — the minimum (doc_id, position) — and
# is scrubbed everywhere else; documents are rewritten with their
# surviving paragraphs in original order. Complements
# frequent_line_scrub (which drops lines crossing a distinct-doc
# frequency threshold but keeps no canonical copy).
#
# Physical plan, two slim shuffles, text crosses the wire once:
# 1. docs -> exploded (hash64(para), doc_id, idx) rows (no text),
#    bucketed by paragraph hash; per bucket a vectorized groupby-min
#    finds each paragraph's winner; only LOSER (doc_id, idx) pairs
#    leave the stage.
# 2. losers re-bucket by doc_id and co-group with the documents
#    (text travels here, once); each doc re-splits, drops its loser
#    positions, and re-joins. Paragraph identity is the 64-bit hash
#    (collision = one lost paragraph; the SQL oracle partitions by the
#    raw string, so the tests also guard collisions at test scale).

_PARA_SEP = "\n\n"


def dedup_paragraphs_ds(docs, num_buckets: int = 32):
    """documents (doc_id, text) -> (doc_id, text) with every paragraph
    kept only at its first (doc_id, position) corpus occurrence."""
    def explode(b: pd.DataFrame) -> pd.DataFrame:
        paras = b["text"].str.split(_PARA_SEP)
        lens = paras.map(len).to_numpy(np.int64)
        doc = np.repeat(b["doc_id"].to_numpy(np.int64), lens)
        idx = np.concatenate([np.arange(n, dtype=np.int64)
                              for n in lens]) if len(b) else \
            np.array([], dtype=np.int64)
        flat = paras.explode()
        h = pd.util.hash_array(flat.to_numpy(dtype=object)) \
            .astype(np.int64)
        return pd.DataFrame({
            "__pb": ((h.view(np.uint64)) % num_buckets)
            .astype(np.int64),
            "h": h, "doc_id": doc, "idx": idx})

    def losers(g: pd.DataFrame) -> pd.DataFrame:
        # winner per hash = lexicographic min (doc_id, idx)
        g = g.sort_values(["h", "doc_id", "idx"], kind="mergesort")
        first = ~g["h"].duplicated()
        out = g.loc[~first, ["doc_id", "idx"]]
        return pd.DataFrame({
            "doc_id": out["doc_id"].to_numpy(np.int64),
            "idx": out["idx"].to_numpy(np.int64)})

    loser_rows = (docs.map_batches(explode, batch_format="pandas")
                  .groupby("__pb")
                  .map_groups(lambda g: losers(g.drop(columns="__pb")),
                              batch_format="pandas"))

    def tag_doc(b: pd.DataFrame, is_doc: bool) -> pd.DataFrame:
        return pd.DataFrame({
            "__db": (pd.util.hash_array(
                b["doc_id"].to_numpy(np.int64)) % num_buckets)
            .astype(np.int64),
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "idx": (np.full(len(b), -1, dtype=np.int64) if is_doc
                    else b["idx"].to_numpy(np.int64)),
            "text": (b["text"].astype(object) if is_doc
                     else np.full(len(b), None, dtype=object))})

    tagged = (docs.map_batches(lambda b: tag_doc(b, True),
                               batch_format="pandas")
              .union(loser_rows.map_batches(
                  lambda b: tag_doc(b, False), batch_format="pandas")))

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        drops: dict[int, set] = {}
        l = g.loc[g["idx"] >= 0]
        for d, i in zip(l["doc_id"].to_numpy(), l["idx"].to_numpy()):
            drops.setdefault(int(d), set()).add(int(i))
        d_rows = g.loc[g["idx"] < 0]
        texts = []
        for d, t in zip(d_rows["doc_id"].to_numpy(),
                        d_rows["text"].to_numpy()):
            dead = drops.get(int(d))
            if not dead:
                texts.append(t)
                continue
            parts = t.split(_PARA_SEP)
            texts.append(_PARA_SEP.join(
                p for j, p in enumerate(parts) if j not in dead))
        return pd.DataFrame({
            "doc_id": d_rows["doc_id"].to_numpy(np.int64),
            "text": np.asarray(texts, dtype=object)})

    return (tagged.groupby("__db")
            .map_groups(lambda g: rebuild(g.drop(columns="__db")),
                        batch_format="pandas"))


def paragraph_dedup(sf_dir: str) -> pd.DataFrame:
    """Driver form: paragraph-deduped documents (doc_id, text)."""
    out = dedup_paragraphs_ds(_read_docs(sf_dir, ["doc_id", "text"]))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


PARAGRAPH_DEDUP_SQL = r"""
WITH s AS (
  SELECT doc_id, string_split(text, chr(10) || chr(10)) AS sp
  FROM documents
),
p AS (
  SELECT doc_id, UNNEST(sp) AS para,
         UNNEST(generate_series(1, len(sp))) AS idx
  FROM s
),
w AS (
  SELECT doc_id, idx, para,
         ROW_NUMBER() OVER (PARTITION BY para
                            ORDER BY doc_id, idx) AS rn
  FROM p
)
SELECT doc_id,
       COALESCE(string_agg(para, chr(10) || chr(10) ORDER BY idx)
                  FILTER (WHERE rn = 1), '') AS text
FROM w GROUP BY doc_id ORDER BY doc_id
"""


# --------------------------------------- categorical dependence (MI)
#
# Mutual information between two categorical columns — the
# feature-dependence / leakage probe (is `source` predictive of
# `lang`?). Distributed part: the joint contingency table via the
# grouped_agg combiner (slim (a, b, n) rows, one bucketed shuffle);
# finalize is O(cells) driver arithmetic. Natural-log entropies
# converted to bits.


def categorical_mi_ds(ds, col_a: str, col_b: str,
                      num_buckets: int = 32) -> pd.DataFrame:
    """One row: (mi_bits, h_a, h_b, n_cells). MI(A;B) in bits plus
    the marginal entropies."""
    from ..functions.aggregates import grouped_agg

    joint = grouped_agg(ds, [col_a, col_b],
                        {"n": (None, "count")},
                        num_buckets=num_buckets).to_pandas()
    n = joint["n"].to_numpy(np.float64)
    t = n.sum()
    p = n / t
    pa = joint.groupby(col_a)["n"].transform("sum").to_numpy() / t
    pb = joint.groupby(col_b)["n"].transform("sum").to_numpy() / t
    mi = float(np.sum(p * np.log2(p / (pa * pb))))

    def ent(marg: pd.Series) -> float:
        q = marg.to_numpy(np.float64) / t
        return float(-np.sum(q * np.log2(q)))

    return pd.DataFrame({
        "mi_bits": [round(mi, 6)],
        "h_a": [round(ent(joint.groupby(col_a)["n"].sum()), 6)],
        "h_b": [round(ent(joint.groupby(col_b)["n"].sum()), 6)],
        "n_cells": [len(joint)]})


def lang_source_mi(sf_dir: str) -> pd.DataFrame:
    """Driver form: MI(lang; source) over the documents table."""
    return categorical_mi_ds(_read_docs(sf_dir, ["lang", "source"]),
                             "lang", "source")


LANG_SOURCE_MI_SQL = """
WITH j AS (
  SELECT lang, source, CAST(COUNT(*) AS DOUBLE) AS n
  FROM documents GROUP BY lang, source
),
tot AS (SELECT SUM(n) AS t FROM j),
mx AS (SELECT lang, SUM(n) AS nl FROM j GROUP BY lang),
my AS (SELECT source, SUM(n) AS ns FROM j GROUP BY source)
SELECT
  ROUND(SUM((n / t) * LOG2((n / t) / ((nl / t) * (ns / t)))), 6)
    AS mi_bits,
  ROUND((SELECT -SUM((nl / t) * LOG2(nl / t))
         FROM mx, tot), 6) AS h_a,
  ROUND((SELECT -SUM((ns / t) * LOG2(ns / t))
         FROM my, tot), 6) AS h_b,
  (SELECT COUNT(*) FROM j) AS n_cells
FROM j JOIN mx USING (lang) JOIN my USING (source), tot
"""


# ------------------------------------------- Poisson bootstrap CI
#
# Confidence interval for a mean over data too large to resample:
# the POISSON bootstrap (Chamandy et al., "Estimating uncertainty for
# massive data streams", Google 2012) — replicate r weights every row
# by an independent Poisson(1) draw, so each replicate's weighted
# mean is computable in the SAME single streaming pass (an (n_boot,)
# partial sum vector per batch, driver fold). Draws are hash-derived
# from (id, replicate): deterministic, partition-invariant, retry-safe.


def _poisson_counts(ids: np.ndarray, rep: int, seed: int
                    ) -> np.ndarray:
    """Poisson(1) via inverse-CDF on a hash-uniform; P(k>=6) < 1e-4
    truncated."""
    with np.errstate(over="ignore"):
        x = (ids.astype(np.uint64)
             + np.uint64(rep) * np.uint64(0x9E3779B97F4A7C15)
             + np.uint64(seed) * np.uint64(0xC2B2AE3D27D4EB4F))
        # full murmur3 fmix64 (the half-finalizer left sequential ids
        # clustered around u~0.5, collapsing the Poisson draws to k=1
        # and silently shrinking bootstrap variance)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
        x = x ^ (x >> np.uint64(33))
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
    # cumulative Poisson(1) pmf: e^-1 * (1, 1, 1/2, 1/6, 1/24, 1/120)
    cdf = np.cumsum(np.exp(-1.0)
                    * np.array([1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120]))
    return np.searchsorted(cdf, u).astype(np.int64)


def poisson_bootstrap_mean(ds, id_col: str, value_col: str,
                           n_boot: int = 200, alpha: float = 0.05,
                           seed: int = 11) -> pd.DataFrame:
    """One row: (mean, ci_lo, ci_hi, n_boot) — percentile bootstrap
    CI of mean(value_col). One streaming pass: each batch contributes
    a (n_boot, 2) partial (weighted sum, weight) matrix."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        v = b[value_col].to_numpy(np.float64)
        sums = np.empty(n_boot)
        cnts = np.empty(n_boot)
        for r in range(n_boot):
            w = _poisson_counts(ids, r, seed)
            sums[r] = float(w @ v)
            cnts[r] = float(w.sum())
        return pd.DataFrame({"sums": [sums.tobytes()],
                             "cnts": [cnts.tobytes()],
                             "s": [float(v.sum())], "n": [len(v)]})

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    sums = np.sum([np.frombuffer(x) for x in p["sums"]], axis=0)
    cnts = np.sum([np.frombuffer(x) for x in p["cnts"]], axis=0)
    means = sums / np.maximum(cnts, 1.0)
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return pd.DataFrame({
        "mean": [round(float(p["s"].sum()) / int(p["n"].sum()), 6)],
        "ci_lo": [round(float(lo), 6)],
        "ci_hi": [round(float(hi), 6)],
        "n_boot": [n_boot]})


# ----------------------------------- chi-squared independence test
#
# Pearson chi-squared over the same distributed contingency table as
# categorical_mi_ds, plus Cramér's V effect size. Cells absent from
# the observed joint still carry expected mass; they enter through
# the identity Σ_unobserved e = n − Σ_observed e (every expected cell
# is computable from the marginals alone), so only observed cells
# are ever materialized.


def categorical_chi2_ds(ds, col_a: str, col_b: str,
                        num_buckets: int = 32) -> pd.DataFrame:
    """One row: (chi2, dof, cramers_v, n_rows)."""
    from ..functions.aggregates import grouped_agg

    joint = grouped_agg(ds, [col_a, col_b],
                        {"n": (None, "count")},
                        num_buckets=num_buckets).to_pandas()
    n = joint["n"].to_numpy(np.float64)
    t = n.sum()
    na = joint.groupby(col_a)["n"].transform("sum").to_numpy()
    nb = joint.groupby(col_b)["n"].transform("sum").to_numpy()
    e = na * nb / t
    chi2 = float(np.sum((n - e) ** 2 / e) + (t - e.sum()))
    r = joint[col_a].nunique(dropna=False)
    c = joint[col_b].nunique(dropna=False)
    v = float(np.sqrt(chi2 / (t * max(min(r, c) - 1, 1))))
    return pd.DataFrame({"chi2": [round(chi2, 6)],
                         "dof": [(r - 1) * (c - 1)],
                         "cramers_v": [round(v, 6)],
                         "n_rows": [int(t)]})


def lang_source_chi2(sf_dir: str) -> pd.DataFrame:
    """Driver form: chi-squared of lang vs source over documents."""
    return categorical_chi2_ds(_read_docs(sf_dir, ["lang", "source"]),
                               "lang", "source")


LANG_SOURCE_CHI2_SQL = """
WITH j AS (
  SELECT lang, source, CAST(COUNT(*) AS DOUBLE) AS n
  FROM documents GROUP BY lang, source
),
tot AS (SELECT SUM(n) AS t FROM j),
mx AS (SELECT lang, SUM(n) AS nl FROM j GROUP BY lang),
my AS (SELECT source, SUM(n) AS ns FROM j GROUP BY source),
stat AS (
  SELECT SUM(POW(n - nl * ns / t, 2) / (nl * ns / t))
           + (ANY_VALUE(t) - SUM(nl * ns / t)) AS chi2,
         ANY_VALUE(t) AS t
  FROM j JOIN mx USING (lang) JOIN my USING (source), tot
)
SELECT ROUND(chi2, 6) AS chi2,
       ((SELECT COUNT(*) FROM mx) - 1)
         * ((SELECT COUNT(*) FROM my) - 1) AS dof,
       ROUND(SQRT(chi2 / (t * (LEAST((SELECT COUNT(*) FROM mx),
                                     (SELECT COUNT(*) FROM my))
                               - 1))), 6) AS cramers_v,
       CAST(t AS BIGINT) AS n_rows
FROM stat
"""


# --------------------------------------------- AUC (Mann-Whitney)
#
# Binary-classification AUC with exact tie handling. The distributed
# part reduces the corpus to ONE (score, pos, neg) row per DISTINCT
# score through the bucketed combiner; the driver fold (sort + prefix
# sum) is O(distinct scores). For continuous scores at corpus scale,
# round/quantize the score column first (bounded distinct domain) —
# bucketed-score ranking metrics are the standard large-scale shape.


def binary_auc_ds(ds, score_col: str, label_col: str,
                  num_buckets: int = 32) -> pd.DataFrame:
    """One row: (auc, n_pos, n_neg). label_col must be 0/1-coercible.

    AUC = P(score_pos > score_neg) + 0.5 * P(tie), computed as
    Σ_v pos_v * (neg_below_v + neg_v / 2) / (P * N).
    """
    from ..functions.aggregates import grouped_agg

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        y = b[label_col].to_numpy(np.int64)
        return pd.DataFrame({score_col: b[score_col].to_numpy(),
                             "__pos": y, "__neg": 1 - y})

    g = (grouped_agg(ds.map_batches(tag, batch_format="pandas"),
                     [score_col],
                     {"pos": ("__pos", "sum"), "neg": ("__neg", "sum")},
                     num_buckets=num_buckets)
         .to_pandas().sort_values(score_col).reset_index(drop=True))
    pos = g["pos"].to_numpy(np.float64)
    neg = g["neg"].to_numpy(np.float64)
    cneg = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    p_tot, n_tot = pos.sum(), neg.sum()
    auc = float(np.sum(pos * (cneg + neg / 2.0)) / (p_tot * n_tot))
    return pd.DataFrame({"auc": [round(auc, 6)],
                         "n_pos": [int(p_tot)], "n_neg": [int(n_tot)]})


def doc_length_auc(sf_dir: str) -> pd.DataFrame:
    """Driver form: how well does n_chars rank lang == 'en'?"""
    docs = _read_docs(sf_dir, ["n_chars", "lang"])

    def lab(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_chars": b["n_chars"].to_numpy(),
            "y": (b["lang"].to_numpy() == "en").astype(np.int64)})

    return binary_auc_ds(docs.map_batches(lab, batch_format="pandas"),
                         "n_chars", "y")


DOC_LENGTH_AUC_SQL = """
WITH s AS (
  SELECT n_chars AS score,
         CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y
  FROM documents
),
g AS (
  SELECT score, SUM(y) AS pos, COUNT(*) - SUM(y) AS neg
  FROM s GROUP BY score
),
o AS (
  SELECT pos, neg,
         COALESCE(SUM(neg) OVER (ORDER BY score
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS cneg
  FROM g
)
SELECT ROUND(SUM(pos * (cneg + neg / 2.0))
             / ((SELECT SUM(pos) FROM g)
                * (SELECT SUM(neg) FROM g)), 6) AS auc,
       CAST((SELECT SUM(pos) FROM g) AS BIGINT) AS n_pos,
       CAST((SELECT SUM(neg) FROM g) AS BIGINT) AS n_neg
FROM o
"""


# -------------------------------- SON frequent itemset mining (pairs)
#
# Token pairs co-occurring (set semantics) in >= min_support documents
# — market-basket mining over the corpus, via the SON two-pass
# algorithm (Savasere/Omiecinski/Navathe VLDB'95): pass 1 finds
# CANDIDATE pairs per block at the block-scaled support threshold
# (pigeonhole: a globally frequent pair must be locally frequent in at
# least one block, so pass 1 has no false negatives); pass 2 counts
# ONLY the broadcast candidates exactly. The all-pairs explosion is
# confined to per-block A-priori-pruned tokens (tokens below the local
# threshold can't form a frequent pair), and nothing
# cardinality-proportional reaches the driver except the candidate
# set, whose size the support threshold itself bounds.


def _doc_token_pairs(b: pd.DataFrame, keep: set | None = None
                     ) -> pd.DataFrame:
    """Distinct (doc, w1 < w2) pairs per document, vectorized: one
    (doc, token) long frame, one self-merge on doc."""
    toks = b["text"].map(lambda t: sorted(set(_tokens(t))))
    lens = toks.map(len).to_numpy(np.int64)
    long = pd.DataFrame({
        "doc": np.repeat(b["doc_id"].to_numpy(np.int64), lens),
        "w": np.concatenate(toks.to_list()) if lens.sum()
        else np.array([], dtype=object)})
    if keep is not None:
        long = long[long["w"].isin(keep)]
    pairs = long.merge(long, on="doc")
    return pairs[pairs["w_x"] < pairs["w_y"]].rename(
        columns={"w_x": "w1", "w_y": "w2"})


def frequent_token_pairs(sf_dir: str, min_support: int = 60
                         ) -> pd.DataFrame:
    """(w1, w2, support) for every token pair in >= min_support docs,
    ordered by (w1, w2)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    n_total = ds.count()

    def candidates(b: pd.DataFrame) -> pd.DataFrame:
        local_s = max(int(np.ceil(min_support * len(b) / n_total)), 1)
        # A-priori prune: only locally-frequent tokens can appear in
        # a locally-frequent pair
        cnt = (b["text"].map(lambda t: sorted(set(_tokens(t))))
               .explode().value_counts())
        keep = set(cnt[cnt >= local_s].index)
        p = _doc_token_pairs(b, keep)
        sup = p.groupby(["w1", "w2"], sort=False).size()
        sup = sup[sup >= local_s]
        return sup.reset_index()[["w1", "w2"]]

    cand = (ds.map_batches(candidates, batch_format="pandas")
            .to_pandas().drop_duplicates())
    cand_ref = ray.put(cand)
    tok_ref = ray.put(set(cand["w1"]) | set(cand["w2"]))

    def exact(b: pd.DataFrame) -> pd.DataFrame:
        cdf, tset = ray.get(cand_ref), ray.get(tok_ref)
        p = _doc_token_pairs(b, tset)
        if p.empty:
            return pd.DataFrame({"w1": pd.Series(dtype=object),
                                 "w2": pd.Series(dtype=object),
                                 "support": pd.Series(dtype=np.int64)})
        sup = p.groupby(["w1", "w2"], sort=False).size().reset_index(
            name="support")
        return sup.merge(cdf, on=["w1", "w2"])

    from ..functions.aggregates import grouped_agg
    counts = grouped_agg(
        ds.map_batches(exact, batch_format="pandas"), ["w1", "w2"],
        {"support": ("support", "sum")}).to_pandas()
    out = counts[counts["support"] >= min_support]
    out = out.astype({"support": np.int64})
    return out.sort_values(["w1", "w2"]).reset_index(drop=True)


FREQUENT_PAIRS_SQL_TMPL = r"""
WITH dt AS (
  SELECT DISTINCT doc_id, unnest(
           regexp_split_to_array(trim(text), '\s+')) AS w
  FROM documents WHERE trim(text) <> ''
)
SELECT a.w AS w1, b.w AS w2, COUNT(*) AS support
FROM dt a JOIN dt b ON a.doc_id = b.doc_id AND a.w < b.w
GROUP BY 1, 2 HAVING COUNT(*) >= {min_support} ORDER BY 1, 2
"""


# ----------------------------------------------- regex span extraction
#
# Generic extract-all: every non-overlapping match of a pattern,
# exploded to (doc_id, match_idx, match) rows — the workhorse for
# pulling emails/ids/citations out of a corpus. The pattern compiles
# ONCE per worker process (module-level cache keyed by pattern, the
# stateful-setup rule); extraction itself is one vectorized
# str.extractall per batch; zero shuffles.

_EXTRACT_CACHE: dict[str, re.Pattern] = {}


def regex_extract_ds(ds, pattern: str, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Dataset of (id_col, match_idx, match); match_idx is the
    0-based occurrence index within the document."""
    def extract(b: pd.DataFrame) -> pd.DataFrame:
        pat = _EXTRACT_CACHE.get(pattern)
        if pat is None:
            pat = _EXTRACT_CACHE[pattern] = re.compile(
                f"({pattern})")
        s = pd.Series(b[text_col].to_numpy(),
                      index=b[id_col].to_numpy())
        m = s.str.extractall(pat)
        if m.empty:
            return pd.DataFrame({
                id_col: pd.Series(dtype=np.int64),
                "match_idx": pd.Series(dtype=np.int64),
                "match": pd.Series(dtype=object)})
        idx = m.index.to_frame(index=False)
        return pd.DataFrame({
            id_col: idx.iloc[:, 0].to_numpy(np.int64),
            "match_idx": idx["match"].to_numpy(np.int64),
            "match": m[0].to_numpy()})

    return ds.map_batches(extract, batch_format="pandas")


def doc_s_word_mentions(sf_dir: str) -> pd.DataFrame:
    """Driver form: every s-initial word mention, in document
    order."""
    out = regex_extract_ds(_read_docs(sf_dir, ["doc_id", "text"]),
                           r"s[a-z]+").to_pandas()
    return (out.sort_values(["doc_id", "match_idx"])
            .reset_index(drop=True))


DOC_S_WORD_MENTIONS_SQL = r"""
WITH a AS (
  SELECT doc_id, regexp_extract_all(text, 's[a-z]+') AS arr
  FROM documents
)
SELECT doc_id, CAST(g - 1 AS BIGINT) AS match_idx, arr[g] AS match
FROM a, UNNEST(generate_series(1, len(arr))) AS t(g)
ORDER BY doc_id, match_idx
"""


def grouped_auc_ds(ds, group_col: str, score_col: str,
                   label_col: str, num_buckets: int = 32
                   ) -> pd.DataFrame:
    """Per-group Mann-Whitney AUC: (group, auc, n_pos, n_neg) —
    groups with an empty class are omitted (AUC undefined). Same
    distinct-score reduction as binary_auc_ds, keyed by (group,
    score); the driver fold is O(groups x distinct scores), sorted
    once and prefix-summed per group vectorized."""
    from ..functions.aggregates import grouped_agg

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        y = b[label_col].to_numpy(np.int64)
        return pd.DataFrame({group_col: b[group_col].to_numpy(),
                             score_col: b[score_col].to_numpy(),
                             "__pos": y, "__neg": 1 - y})

    g = (grouped_agg(ds.map_batches(tag, batch_format="pandas"),
                     [group_col, score_col],
                     {"pos": ("__pos", "sum"),
                      "neg": ("__neg", "sum")},
                     num_buckets=num_buckets)
         .to_pandas().sort_values([group_col, score_col])
         .reset_index(drop=True))
    grp = np.asarray(g[group_col])
    pos = g["pos"].to_numpy(np.float64)
    neg = g["neg"].to_numpy(np.float64)
    new_g = np.empty(len(g), dtype=bool)
    new_g[0] = True
    new_g[1:] = grp[1:] != grp[:-1]
    cum = np.concatenate(([0.0], np.cumsum(neg)[:-1]))
    # per-group prefix: subtract the cumsum value at each group start
    start_cum = np.repeat(cum[new_g],
                          np.diff(np.append(np.flatnonzero(new_g),
                                            len(g))))
    cneg = cum - start_cum
    u = pd.Series(pos * (cneg + neg / 2.0)).groupby(grp).sum()
    p_tot = pd.Series(pos).groupby(grp).sum()
    n_tot = pd.Series(neg).groupby(grp).sum()
    ok = (p_tot > 0) & (n_tot > 0)
    return pd.DataFrame({
        group_col: u.index.to_numpy()[ok],
        "auc": np.round((u / (p_tot * n_tot)).to_numpy()[ok], 6),
        "n_pos": p_tot.to_numpy(np.int64)[ok],
        "n_neg": n_tot.to_numpy(np.int64)[ok]})


def source_length_auc(sf_dir: str) -> pd.DataFrame:
    """Driver form: per-source AUC of n_chars ranking lang == 'en'."""
    docs = _read_docs(sf_dir, ["source", "n_chars", "lang"])

    def lab(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"].to_numpy(),
            "n_chars": b["n_chars"].to_numpy(),
            "y": (b["lang"].to_numpy() == "en").astype(np.int64)})

    out = grouped_auc_ds(docs.map_batches(lab, batch_format="pandas"),
                         "source", "n_chars", "y")
    return out.sort_values("source").reset_index(drop=True)


SOURCE_LENGTH_AUC_SQL = """
WITH s AS (
  SELECT source, n_chars AS score,
         CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y
  FROM documents
),
g AS (
  SELECT source, score, SUM(y) AS pos, COUNT(*) - SUM(y) AS neg
  FROM s GROUP BY source, score
),
o AS (
  SELECT source, pos, neg,
         COALESCE(SUM(neg) OVER (PARTITION BY source ORDER BY score
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS cneg
  FROM g
),
t AS (
  SELECT source, SUM(pos * (cneg + neg / 2.0)) AS u,
         SUM(pos) AS p, SUM(neg) AS n
  FROM o GROUP BY source
)
SELECT source, ROUND(u / (p * n), 6) AS auc,
       CAST(p AS BIGINT) AS n_pos, CAST(n AS BIGINT) AS n_neg
FROM t WHERE p > 0 AND n > 0 ORDER BY source
"""


# ------------------------------------------------ document chunking
#
# RAG-style retrieval chunks: split each document into sliding
# token windows of ``chunk_tokens`` with ``overlap`` tokens of
# context carry-over — the indexing unit for embedding/retrieval
# stores (pack_sequences is the TRAINING feed; this is the SEARCH
# feed). Zero shuffles: one vectorized pass per batch; chunk ids are
# (doc_id, chunk_idx) so re-chunking is idempotent and chunk rows
# carry exact token offsets for provenance.


def chunk_documents_ds(ds, chunk_tokens: int = 64,
                       overlap: int = 16,
                       text_col: str = "text",
                       id_col: str = "doc_id"):
    """Dataset of (doc_id, chunk_idx, tok_start, tok_end, n_tokens,
    chunk_text). Stride = chunk_tokens - overlap; the last window is
    the remainder (>= 1 token); empty docs yield no rows."""
    if overlap >= chunk_tokens:
        raise ValueError("overlap must be < chunk_tokens")
    stride = chunk_tokens - overlap

    def chunk(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, starts, ends, texts = [], [], [], [], []
        for did, t in zip(b[id_col].to_numpy(np.int64),
                          b[text_col]):
            toks = _tokens(t)
            n = len(toks)
            if n == 0:
                continue
            s = np.arange(0, max(n - overlap, 1), stride)
            for ci, st in enumerate(s):
                en = min(st + chunk_tokens, n)
                ids.append(did)
                idxs.append(ci)
                starts.append(st)
                ends.append(en)
                texts.append(" ".join(toks[st:en]))
        return pd.DataFrame({
            id_col: pd.Series(ids, dtype=np.int64),
            "chunk_idx": pd.Series(idxs, dtype=np.int64),
            "tok_start": pd.Series(starts, dtype=np.int64),
            "tok_end": pd.Series(ends, dtype=np.int64),
            "n_tokens": pd.Series(np.asarray(ends, dtype=np.int64)
                                  - np.asarray(starts,
                                               dtype=np.int64),
                                  dtype=np.int64),
            "chunk_text": pd.Series(texts, dtype=object)})

    return ds.map_batches(chunk, batch_format="pandas")


def doc_chunks(sf_dir: str, chunk_tokens: int = 64,
               overlap: int = 16) -> pd.DataFrame:
    """Collecting form over the documents table."""
    out = chunk_documents_ds(_read_docs(sf_dir, ["doc_id", "text"]),
                             chunk_tokens, overlap).to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


# ------------------------------------------------ blocklist phrase gate
#
# C4-style "bad words" curation gate (Raffel et al. 2020 drop any page
# containing a blocklisted word or phrase): the blocklist is tiny by
# definition (~10^3-10^4 phrases even in production), so it is the
# canonical broadcast side — phrase token n-grams hashed into one
# sorted uint64 array PER PHRASE LENGTH, ``ray.put`` once, probed per
# batch with the same ``np.searchsorted`` machinery as
# ``decontaminate_ds``. Multi-word phrases match exact token
# sequences, not substrings, so "scan join" never fires inside
# "rescan joint". Nothing shuffles; the corpus streams.


def blocklist_hashes(phrases) -> dict[int, np.ndarray]:
    """Phrase list -> {phrase_length_in_tokens: sorted uint64 hash
    array}. Driver-side helper; the result is what you ``ray.put``
    and hand to :func:`blocklist_filter_ds`. Phrases normalize
    through the engine tokenizer, so whitespace variants collapse."""
    by_len: dict[int, list] = {}
    for p in phrases:
        toks = _tokens(p)
        if toks:
            by_len.setdefault(len(toks), []).append(" ".join(toks))
    return {n: np.unique(pd.util.hash_array(
                np.asarray(sorted(set(ps)), dtype=object)))
            for n, ps in by_len.items()}


def blocklist_filter_ds(docs, phrase_hashes, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Streaming form: documents Dataset -> Dataset of (doc_id,
    n_hits, keep). ``phrase_hashes`` is the dict from
    :func:`blocklist_hashes` (or an ObjectRef to one). ``n_hits``
    counts the DISTINCT blocklisted phrases present in the doc;
    ``keep`` is n_hits == 0 (the C4 drop rule)."""
    import ray as _ray
    ref = (phrase_hashes if isinstance(phrase_hashes, _ray.ObjectRef)
           else _ray.put(phrase_hashes))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        tables = _ray.get(ref)
        toks = [_tokens(t) for t in batch[text_col]]
        hits = np.zeros(len(toks), dtype=np.int64)
        for n, table in tables.items():
            per_doc = [_ngram_hashes(w, n) for w in toks]
            lens = np.fromiter((len(a) for a in per_doc),
                               dtype=np.int64, count=len(per_doc))
            if not lens.sum() or not len(table):
                continue
            allh = np.concatenate([a for a in per_doc if len(a)])
            idx = np.searchsorted(table, allh)
            idx[idx == len(table)] = 0
            hit = table[idx] == allh
            seg = np.repeat(np.arange(len(per_doc)), lens)
            hits += np.bincount(seg, weights=hit,
                                minlength=len(per_doc)
                                ).astype(np.int64)
        return pd.DataFrame({id_col: batch[id_col].to_numpy(np.int64),
                             "n_hits": hits,
                             "keep": hits == 0})

    return docs.map_batches(f, batch_format="pandas")


_BLOCKLIST_DEMO = ("hash scan", "batch batch batch", "dup window",
                   "sort merge")


def blocklist_filter(sf_dir: str, phrases=_BLOCKLIST_DEMO
                     ) -> pd.DataFrame:
    """Collecting oracle form over the documents table with the fixed
    demo phrase list mirrored in ``BLOCKLIST_FILTER_SQL``."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    out = blocklist_filter_ds(docs, blocklist_hashes(phrases))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


BLOCKLIST_FILTER_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents),
phr(ng) AS (VALUES ('hash scan'), ('batch batch batch'),
                   ('dup window'), ('sort merge')),
doc_ng AS (
  SELECT doc_id, unnest(list_transform(generate_series(1, len(w) - 1),
                        i -> array_to_string(w[i:i+1], ' '))) AS ng
  FROM tok WHERE len(w) >= 2
  UNION
  SELECT doc_id, unnest(list_transform(generate_series(1, len(w) - 2),
                        i -> array_to_string(w[i:i+2], ' '))) AS ng
  FROM tok WHERE len(w) >= 3),
hits AS (
  SELECT d.doc_id, COUNT(DISTINCT d.ng) AS n_hits
  FROM doc_ng d JOIN phr p ON d.ng = p.ng GROUP BY d.doc_id)
SELECT t.doc_id, CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       COALESCE(h.n_hits, 0) = 0 AS keep
FROM tok t LEFT JOIN hits h USING (doc_id) ORDER BY t.doc_id
"""


# --------------------------- fastText-style linear text classifier


def _hashed_features_batch(batch, d: int = 512, bigrams: bool = True,
                           stop_thr: float = 0.06):
    """(doc_id, text) batch (pyarrow or pandas) -> dense hashed
    bag-of-words feature rows (feature hashing per Weinberger '09;
    token + bigram features per fastText, Joulin '16): md5 token
    hashes (the SQL-reproducible family, vocab-bounded Python cost)
    modulo ``d`` as unigram counts, XOR-rotation-combined adjacent
    pairs as bigram counts, each row l1-normalized. Label ``y`` =
    the stopword-density quality gate (``_quality_batch``'s
    stop_ratio >= ``stop_thr``), computed in the same pass — the
    weak-label a quality classifier distills. A linear model can
    realize this boundary (the label is a thresholded sum of the
    stopword feature buckets), so trainability is by construction,
    not luck. Output rows are the (vec_id, embedding, y) shape
    ``vectors.logreg_fit_ds`` trains on."""
    th, ntok, sr = _flat_token_hashes_stop(batch["text"])
    nd = len(ntok)
    rows = np.zeros((nd, d), dtype=np.float64)
    if th.size:
        docidx = np.repeat(np.arange(nd, dtype=np.int64), ntok)
        np.add.at(rows, (docidx,
                         (th % np.uint64(d)).astype(np.int64)), 1.0)
        if bigrams and len(th) > 1:
            same = docidx[1:] == docidx[:-1]
            bg = th[:-1] ^ _rotmix(th[1:], 1)
            np.add.at(rows, (docidx[:-1][same],
                             (bg[same] % np.uint64(d))
                             .astype(np.int64)), 1.0)
    s = rows.sum(axis=1, keepdims=True)
    s[s == 0] = 1.0
    # proportions x 100: the gate boundary lives at stop-bucket-sum
    # ~ 0.03, so unscaled features would need |w| ~ 1e3 — the scale
    # puts the separating plane within a few hundred GD steps
    rows *= 100.0 / s
    y = (sr >= stop_thr).astype(np.float64)
    return pd.DataFrame({
        "vec_id": np.asarray(batch["doc_id"].to_numpy(), np.int64),
        "embedding": list(rows), "y": y})


def trained_quality_classifier(sf_dir: str, d: int = 512,
                               iters: int = 400,
                               lr: float = 5.0, l2: float = 0.0,
                               sample_mod: int = 1,
                               distributed_fit: bool = False):
    """Model-based document scoring, fastText-shape (Joulin '16 —
    the CCNet/LLM-corpus quality-filter recipe): hashed bag-of-words
    features -> logistic regression -> streaming per-document
    scores. The demo task is self-contained and deterministic:
    distill the stopword-density quality gate into the linear model
    (weak-label distillation — the same shape as training a quality
    classifier on curation-gate verdicts and scoring the rest of the
    corpus with it).

    Scale (the CCNet shape): featurization is one map_batches pass
    (vocab-bounded md5); the feature table is materialized ONCE
    (d doubles per doc, not the text). The TRAINING set is a
    deterministic hash-sample (``doc_id % sample_mod == 0`` — size
    it so the sample is driver-collectable; classifiers need
    thousands of examples, not the corpus) fit locally in
    microseconds per epoch, and the CORPUS is scored by one
    streaming matvec pass against the broadcast weights. Set
    ``distributed_fit`` to train on the full feature table via
    ``vectors.logreg_fit_ds`` (O(d) driver state, one slim gradient
    fold per epoch) when the training set itself must exceed driver
    memory. Rows-only driver check (iterative training is not
    SQL-expressible); agreement == 1.0 with the gate it distills is
    asserted in tests."""
    import functools
    from .vectors import (logreg_fit_ds, logreg_fit_local,
                          logreg_predict_ds)
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    feats = docs.map_batches(
        functools.partial(_hashed_features_batch, d=d),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=2048).materialize()
    if distributed_fit:
        fit = logreg_fit_ds(feats, "y", iters=iters, lr=lr, l2=l2)
        w, b = fit["w"], fit["b"]
    else:
        train = feats.map_batches(
            lambda b: (b[(b["vec_id"].to_numpy(np.int64)
                          & 0x7FFFFFFF) % sample_mod == 0]
                       if sample_mod > 1 else b),
            batch_format="pandas").to_pandas()
        if train.empty or train["y"].nunique() < 2:
            raise ValueError(
                f"training sample is degenerate ({len(train)} rows, "
                f"{train['y'].nunique() if len(train) else 0} "
                f"classes) — lower sample_mod={sample_mod} so the "
                f"hash sample keeps both label classes")
        m = np.stack(train["embedding"].to_numpy()).astype(np.float64)
        fit = logreg_fit_local(m, train["y"].to_numpy(np.float64),
                               iters=iters, lr=lr, l2=l2)
        w, b = fit["w"], fit["b"]
    out = logreg_predict_ds(feats, w, b).to_pandas()
    out = out.rename(columns={"vec_id": "doc_id"})
    # round below float-order jitter so the golden fixture is stable
    # across block layouts
    out["proba"] = out["proba"].astype(float).round(4)
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------- DSIR data selection (importance ratios)


def dsir_select(sf_dir: str, d: int = 4096, top_m: int = 100,
                stop_thr: float = 0.06):
    """DSIR data selection (Xie et al. '23, arXiv:2302.03169):
    score every document by the hashed-n-gram importance log-ratio
    between a TARGET distribution and the RAW corpus distribution,
    then keep the top scorers — the standard recipe for selecting
    pretraining data that "looks like" a high-quality target set.
    The self-contained target here is the stopword-density gate
    (ROUND(stop_ratio, 6) >= ``stop_thr``), so the whole op is
    deterministic.

    Physical plan: ONE streaming pass emits per-batch (raw, target)
    bucket-count partials (two (d,) int vectors per batch — slim,
    driver-summed, never the text); the smoothed log-ratio vector is
    QUANTIZED to integer micro-units and broadcast; a second
    streaming pass computes each doc's score as an exact INTEGER sum
    of its token buckets' quantized ratios (``_seg_sums``), so the
    result is summation-order independent — which is what buys the
    FULL DuckDB oracle (DSIR_SELECT_SQL; same trick as the HLL
    estimator). Top-m resolves per batch first (partial top-m, tie
    to the smaller doc_id), then one small driver merge.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def counts(batch: pa.Table) -> pd.DataFrame:
        th, ntok, sr = _flat_token_hashes_stop(batch["text"])
        idx = (th % np.uint64(d)).astype(np.int64)
        raw = np.bincount(idx, minlength=d)
        gate = sr >= stop_thr
        docidx = np.repeat(np.arange(len(ntok), dtype=np.int64), ntok)
        tgt = np.bincount(idx[gate[docidx]], minlength=d)
        return pd.DataFrame({"raw": [raw.tobytes()],
                             "tgt": [tgt.tobytes()]})

    p = docs.map_batches(counts, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    rc = np.sum([np.frombuffer(v, dtype=np.int64) for v in p["raw"]],
                axis=0)
    tc = np.sum([np.frombuffer(v, dtype=np.int64) for v in p["tgt"]],
                axis=0)
    r_tot, t_tot = int(rc.sum()), int(tc.sum())
    lr = (np.log((tc + 1.0) / (t_tot + d))
          - np.log((rc + 1.0) / (r_tot + d))) * 1e6
    # half-away-from-zero to match SQL ROUND (ties are measure-zero
    # on log outputs)
    q = np.where(lr >= 0, np.floor(lr + 0.5),
                 np.ceil(lr - 0.5)).astype(np.int64)
    ref = ray.put(q)

    def score(batch: pa.Table) -> pd.DataFrame:
        v = ray.get(ref)
        th, ntok = _flat_token_hashes(batch["text"], _md5_token_hashes)
        idx = (th % np.uint64(d)).astype(np.int64)
        sq = _seg_sums(v[idx], ntok, dtype=np.int64)
        out = pd.DataFrame({
            "doc_id": np.asarray(batch["doc_id"].to_numpy(),
                                 np.int64),
            "score_q": sq})
        # partial top-m (tie to smaller doc_id) — only m slim rows
        # per batch ever reach the driver merge
        return (out.sort_values(["score_q", "doc_id"],
                                ascending=[False, True])
                .head(top_m))

    top = (docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
           .sort_values(["score_q", "doc_id"],
                        ascending=[False, True]).head(top_m))
    top["score"] = top["score_q"] / 1e6
    return (top[["doc_id", "score"]].reset_index(drop=True))


def _dsir_select_sql(d: int = 4096, top_m: int = 100,
                     stop_thr: float = 0.06) -> str:
    """DuckDB oracle for ``dsir_select``: rebuilds the md5 bucket
    hash, the gate, both count vectors over the full range(d) bucket
    domain, the SAME quantized integer log-ratios (ROUND matches the
    engine's half-away-from-zero), and each doc's exact integer
    score sum — bit-for-bit up to measure-zero rounding ties on ln
    outputs."""
    return f"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\\s+') END AS w
  FROM documents),
g AS (
  SELECT doc_id, w,
         ROUND(CASE WHEN len(w) = 0 THEN 0.0
               ELSE len(list_filter(w,
                        x -> x IN ('the','a','of','and','to')))
                    * 1.0 / len(w) END, 6) >= {stop_thr} AS is_tgt
  FROM t),
tb AS (
  SELECT doc_id, is_tgt,
         ('0x' || substr(md5(unnest(w)), 1, 16))::UBIGINT
             % {d} AS b
  FROM g),
rawc AS (SELECT b, COUNT(*) AS c FROM tb GROUP BY b),
tgtc AS (SELECT b, COUNT(*) AS c FROM tb WHERE is_tgt GROUP BY b),
tots AS (
  SELECT (SELECT COUNT(*) FROM tb) AS r_tot,
         (SELECT COUNT(*) FROM tb WHERE is_tgt) AS t_tot),
lr AS (
  SELECT r.range AS b,
         CAST(ROUND((ln((COALESCE(tg.c, 0) + 1.0)
                        / (tots.t_tot + {d}))
                     - ln((COALESCE(rw.c, 0) + 1.0)
                          / (tots.r_tot + {d}))) * 1000000)
              AS BIGINT) AS q
  FROM range({d}) r CROSS JOIN tots
  LEFT JOIN rawc rw ON rw.b = r.range
  LEFT JOIN tgtc tg ON tg.b = r.range),
sc AS (
  SELECT tb.doc_id, SUM(lr.q) AS sq
  FROM tb JOIN lr ON lr.b = tb.b GROUP BY tb.doc_id)
SELECT a.doc_id, COALESCE(sc.sq, 0) / 1000000.0 AS score
FROM t a LEFT JOIN sc ON sc.doc_id = a.doc_id
ORDER BY COALESCE(sc.sq, 0) DESC, a.doc_id
LIMIT {top_m}
"""


DSIR_SELECT_SQL = _dsir_select_sql()


# ----------------------------- deterministic train/val/test split


def corpus_split_assign(sf_dir: str, val_pct: int = 10,
                        test_pct: int = 10):
    """Deterministic train/val/test assignment by a CONTENT-
    INDEPENDENT id hash (md5 of the decimal doc_id — the family
    DuckDB reproduces), so the split survives re-crawls, re-sharding
    and engine swaps, and a document can never migrate between
    splits as the corpus grows (the leakage failure mode of
    percentage-slice splits). bucket = md5(doc_id) % 100;
    [0, test) -> test, [test, test+val) -> val, rest -> train.
    One streaming map pass; full DuckDB oracle
    (CORPUS_SPLIT_ASSIGN_SQL). Complements `split_assign_ds` (the
    column-adding Dataset form with arbitrary fractions) with a
    driver-gate per-doc assignment query on the md5 hash family."""
    docs = _read_docs(sf_dir, ["doc_id"])

    def assign(batch: pa.Table) -> pd.DataFrame:
        ids = np.asarray(batch["doc_id"].to_numpy(), np.int64)
        b = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(i).encode()).digest()[:8], "big")
             % 100 for i in ids), dtype=np.int64, count=len(ids))
        split = np.where(
            b < test_pct, "test",
            np.where(b < test_pct + val_pct, "val", "train"))
        return pd.DataFrame({"doc_id": ids, "split": split})

    out = docs.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _corpus_split_assign_sql(val_pct: int = 10,
                             test_pct: int = 10) -> str:
    return f"""
SELECT doc_id,
       CASE WHEN b < {test_pct} THEN 'test'
            WHEN b < {test_pct + val_pct} THEN 'val'
            ELSE 'train' END AS split
FROM (SELECT doc_id,
             ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT
                 % 100 AS b
      FROM documents)
ORDER BY doc_id
"""


CORPUS_SPLIT_ASSIGN_SQL = _corpus_split_assign_sql()
