"""Text-analysis + deduplication operators over the ``documents`` table.

The training-data-pipeline operator family (per the build brief):
exact dedup, MinHash+LSH near-dup, SimHash, n-gram Jaccard, language
ID, quality scoring, fingerprinting, corpus curation. Everything is
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


# ------------------------------------------------------ per-doc scorers
#
# Each per-doc scorer has TWO forms: the `*_ds` library form maps a
# documents Dataset -> Dataset (streaming, what a 100 TB pipeline
# composes), and the plain form is the driver-oracle wrapper that reads
# sf_dir, collects and sorts (small results only).


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


def _text_array(texts) -> pa.Array:
    """texts (pa.Array / ChunkedArray / Series / sequence of str) ->
    one contiguous Arrow string array, nulls as empty docs."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    elif isinstance(texts, pd.Series):
        arr = pa.Array.from_pandas(texts, type=pa.string())
    else:
        arr = pa.array(list(texts), type=pa.string())
    return arr.fill_null("") if arr.null_count else arr


def _flat_tokens_arrow(texts) -> tuple[pa.Array, np.ndarray]:
    """Whole-batch tokenization: texts (see ``_text_array``) -> (flat
    Arrow StringArray of all tokens in doc order, int64 per-doc token
    counts). ONE Arrow C++
    ``utf8_split_whitespace`` replaces the per-doc regex split —
    semantics match ``_tokens`` exactly (strip, split on whitespace
    runs, no empty tokens; identity-tested): after
    ``utf8_trim_whitespace`` the split emits an empty token ONLY for
    whole-empty docs, which the not-equal filter removes."""
    arr = _text_array(texts)
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
    coarse bucket)."""
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

    Every join input is materialized with its exact Arrow schema, so
    no join probes a schema (see ``hash_partition_join``): the
    candidates are re-typed to (doc_id = doc_a, doc_b) before they are
    pinned, j1's group_fn emits the typed (doc_a, sh_a, doc_id) rows
    j2 joins on, and the (doc_id, binary shingles) table both joins
    read is pinned once. All three are bounded by the candidate pairs
    or the shingle input, and the pinned candidate count lets zero
    candidates return a typed empty Dataset (an empty input has no
    schema to join on)."""
    from ..functions.joins import hash_partition_join
    left_a = cand.map_batches(
        lambda b: pa.table({"doc_id": b["doc_a"].cast(pa.int64()),
                            "doc_b": b["doc_b"].cast(pa.int64())}),
        batch_format="pyarrow").materialize()
    if left_a.count() == 0:
        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))
    shingle_tbl = docs_with_shingles.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"].cast(pa.int64()),
                            "shingles": b["shingles"].cast(pa.binary())}),
        batch_format="pyarrow").materialize()

    def first_copy(df: pd.DataFrame) -> pa.Table:
        df = df.drop_duplicates(["doc_id", "doc_b"])
        return pa.table({
            "doc_a": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            "sh_a": pa.array(list(df["shingles"]), pa.binary()),
            "doc_id": pa.array(df["doc_b"].to_numpy(), pa.int64())})

    j1 = hash_partition_join(left_a, shingle_tbl, on="doc_id",
                             num_buckets=32,
                             group_fn=first_copy).materialize()
    j2 = hash_partition_join(j1, shingle_tbl, on="doc_id",
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
    prefix-filter theorem). The full-inverted-index plan lives in
    tests/test_dedup_graph.py as ``ngram_jaccard_pairs_fullindex``, a
    test reference only: its candidate volume grows with posting-list
    size squared (the Zipf head of common shingles), i.e. effectively
    quadratic in corpus size; the prefix plan's candidates scale with
    duplicate-cluster sizes — the inherent output complexity of
    all-pairs dedup — and the identity test there proves the two
    plans return identical pairs."""
    return ngram_jaccard_pairs_prefix(sf_dir, threshold=threshold, k=k,
                                      coarse_buckets=coarse_buckets)


def ngram_jaccard_pairs_prefix(sf_dir: str, threshold: float = 0.5,
                               k: int = 3, coarse_buckets: int = 64):
    """EXACT all-pairs Jaccard via PREFIX FILTERING — the published
    scale path past a full inverted shingle index
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


# ------------------------------------------- Gopher quality gates

_BULLET = ("-", "*", "•")


def _gopher_batch(batch: pa.Table, max_dup_line_frac: float,
                  max_symbol_ratio: float, max_bullet_frac: float,
                  n_words: np.ndarray) -> pa.Table:
    """Repetition/format signals from the Gopher data-quality rules
    (Rae et al. 2021, arXiv:2112.11446 A1.1), the subset expressible
    over plain text lines: duplicate-line fraction, symbol-to-word
    ratio (# and ... marks), bullet-line fraction. ``n_words`` is the
    per-doc token count the caller already has from its one
    tokenize of the batch.

    Whole-batch Arrow form: one ``split_pattern`` on newlines, the
    blank-line filter by ``utf8_trim_whitespace``, distinct lines per
    doc from one dictionary encoding of the kept lines,
    ``count_substring`` for the marks (non-overlapping, like
    ``str.count``) and ``starts_with`` after
    ``utf8_ltrim_whitespace`` for the bullets. Arrow's whitespace is
    Python's ``str.isspace``, so every column equals the per-doc
    rules (identity-tested against them in
    tests/test_textops_vectorized.py)."""
    text = _text_array(batch["text"])
    nd = len(text)
    lines = pc.split_pattern(text, "\n")
    flat = pc.list_flatten(lines)
    nonblank = pc.not_equal(pc.utf8_trim_whitespace(flat), "")
    doc = np.repeat(np.arange(nd, dtype=np.int64),
                    pc.list_value_length(lines)
                    .to_numpy(zero_copy_only=False))[
        nonblank.to_numpy(zero_copy_only=False)]
    kept = flat.filter(nonblank)
    n_lines = np.bincount(doc, minlength=nd)
    enc = kept.dictionary_encode()
    nv = len(enc.dictionary)
    pair = np.unique(doc * nv + enc.indices.to_numpy(
        zero_copy_only=False).astype(np.int64))
    n_distinct = np.bincount(pair // max(nv, 1), minlength=nd)
    lead = pc.utf8_ltrim_whitespace(kept)
    bullet_hit = np.zeros(len(kept), dtype=bool)
    for mark in _BULLET:
        bullet_hit |= pc.starts_with(lead, mark) \
            .to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(doc[bullet_hit], minlength=nd)
    n_marks = (pc.count_substring(text, "#").to_numpy(zero_copy_only=False)
               + pc.count_substring(text, "...")
               .to_numpy(zero_copy_only=False))

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(nd), where=den > 0)

    dup = np.where(n_lines > 0, 1.0 - ratio(n_distinct, n_lines), 0.0)
    sym = ratio(n_marks, n_words)
    bullet = ratio(n_bullet, n_lines)
    return pa.table({
        "doc_id": batch["doc_id"],
        "dup_line_frac": _round_half_away(dup),
        "symbol_ratio": _round_half_away(sym),
        "bullet_frac": _round_half_away(bullet),
        "gopher_pass": (dup <= max_dup_line_frac)
        & (sym <= max_symbol_ratio) & (bullet <= max_bullet_frac)})


# --------------------------------------------- test-set decontamination
#
# GPT-3 / The-Pile style benchmark decontamination: flag training docs
# that share token n-grams with an evaluation set. The benchmark side
# is tiny by definition (eval suites are ~10^6-10^7 n-grams even at
# 100 TB of training data), so it is the canonical broadcast side: one
# sorted uint64 hash array `ray.put` once, zero-copy views in every
# task, one `np.searchsorted` membership probe per distinct n-gram of
# each batch inside the curation pipeline's fused map.


def _ngram_windows(fl: pa.Array, ntok: np.ndarray, n: int):
    """Token n-grams of a tokenized batch (``_flat_tokens_arrow``
    output) -> (uh, gram, doc): ``uh`` holds the 64-bit
    ``pd.util.hash_array`` hashes of the batch's DISTINCT n-gram
    strings, window w is n-gram ``uh[gram[w]]`` of doc ``doc[w]``. A
    doc with fewer than n tokens has no window. The n-gram strings
    are built C++-side (a ``take`` per position, one
    ``binary_join_element_wise`` with a space) and only the distinct
    ones reach Python, so each hash is that of
    ``" ".join(words[i:i + n])``, byte for byte."""
    nd = len(ntok)
    nw = np.maximum(ntok - (n - 1), 0)
    doc = np.repeat(np.arange(nd, dtype=np.int64), nw)
    if len(doc) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64), doc
    starts = np.zeros(nd, dtype=np.int64)
    np.cumsum(ntok[:-1], out=starts[1:])
    first = np.repeat(starts, nw) + _seg_arange(nw)
    grams = pc.binary_join_element_wise(
        *[fl.take(pa.array(first + j)) for j in range(n)], " ")
    enc = grams.dictionary_encode()
    uh = pd.util.hash_array(enc.dictionary.to_numpy(zero_copy_only=False))
    return (uh, enc.indices.to_numpy(zero_copy_only=False)
            .astype(np.int64), doc)


def _contaminated(fl: pa.Array, ntok: np.ndarray, n: int,
                  bench: np.ndarray) -> np.ndarray:
    """Per-doc decontamination flag of a tokenized batch: does any of
    the doc's token n-grams hash into the sorted eval-set array
    ``bench``? One probe per distinct n-gram of the batch; the hits
    go back to their docs by ``bincount``."""
    uh, gram, doc = _ngram_windows(fl, ntok, n)
    if len(uh) == 0 or len(bench) == 0:
        return np.zeros(len(ntok), dtype=bool)
    pos = np.minimum(np.searchsorted(bench, uh), len(bench) - 1)
    hit = (bench[pos] == uh)[gram]
    return np.bincount(doc[hit], minlength=len(ntok)) > 0


def benchmark_ngram_hashes(texts, n: int = 3,
                           max_tokens: int | None = None) -> np.ndarray:
    """Sorted uint64 hash array of every token n-gram in ``texts``
    (the evaluation set; any form ``_text_array`` takes). Truncates
    each text to ``max_tokens`` tokens first when given (a
    segmented-arange mask over the batch's flat tokens). One batch
    tokenize and ``_ngram_windows`` — the hashes the fused curation
    map probes. Driver-side helper: the result is what you
    ``ray.put`` and hand to :func:`curate_corpus_ds`."""
    fl, ntok = _flat_tokens_arrow(texts)
    if max_tokens is not None:
        fl = fl.filter(pa.array(_seg_arange(ntok) < max_tokens))
        ntok = np.minimum(ntok, max_tokens)
    return np.unique(_ngram_windows(fl, ntok, n)[0])


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
# The whole chain stays SQL-checkable (CURATE_CORPUS_FULL_SQL).


def _curate_rows(docs, ref, min_tokens: int, max_dup_line_frac: float,
                 max_symbol_ratio: float, max_bullet_frac: float,
                 n: int, num_buckets: int):
    """Pass A (fused map over Arrow batches) -> slim
    (doc_id, content hash h, gate_pass, contaminated, __b) rows.

    Each batch is tokenized once (``_flat_tokens_arrow``); the token
    counts feed the length gate and ``_gopher_batch``, the flat tokens
    feed ``_contaminated``. Every step is a fixed number of Arrow /
    numpy calls per batch; the only per-doc Python is the md5 of the
    content hash. The output is a metadata-free Arrow table: Ray
    Data hashes block schemas to deduplicate them, and a schema with
    pandas metadata is unhashable."""
    import ray as _ray

    def fused(batch: pa.Table) -> pa.Table:
        bench = _ray.get(ref)
        text = _text_array(batch["text"])
        fl, ntok = _flat_tokens_arrow(text)
        gop = _gopher_batch(batch, max_dup_line_frac, max_symbol_ratio,
                            max_bullet_frac, ntok)["gopher_pass"]
        h = np.frombuffer(b"".join(
            hashlib.md5(s).digest()[:8]
            for s in text.cast(pa.binary()).to_pylist()), dtype=np.uint64)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "h": h,
            "gate_pass": (ntok >= min_tokens) & gop.to_numpy(),
            "contaminated": _contaminated(fl, ntok, n, bench),
            "__b": (pd.util.hash_array(h) % num_buckets)
            .astype(np.int64)})

    return docs.map_batches(fused, batch_format="pyarrow",
                            zero_copy_batch=True)


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
    an ObjectRef to them), as :func:`benchmark_ngram_hashes` builds
    them."""
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
    curate_corpus_full oracle form, the curate job without ``--bench``
    and the exact-curation test reference (tests/text_references.py)
    share — diverging copies would silently decontaminate them
    against different eval sets."""
    def bench_part(b: pa.Table) -> pa.Table:
        donor = pa.array(b["doc_id"].to_numpy() % bench_mod == 0)
        return pa.table({"h": benchmark_ngram_hashes(
            b["text"].filter(donor), n=n, max_tokens=bench_tokens)})

    rows = docs.map_batches(bench_part, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    return np.unique(rows["h"].to_numpy(dtype=np.uint64))


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

    Every join input is produced by an Arrow stage and pinned — ``sh``
    (all docs), the kept ids and ``sh_kept`` (kept docs; the semi join
    keeps its binary shingles), and inside the pair chain the
    candidates, the shingle table and the first verify join — so no
    join probes a schema and every shuffle runs once. The pair set, the
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
    # an Arrow stage (binary shingles), pinned: the semi join reads
    # its schema as metadata; n_tok rides along so keep-longest needs
    # NO extra corpus scan
    sh = coalesce_slim(docs.map_batches(
        functools.partial(_shingle_batch, k=k, with_ntok=True),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1024).materialize())
    sh_kept = hash_partition_join(sh, kept_arrow, on="doc_id",
                                  how="semi").materialize()
    pairs = _prefix_pairs_from_shingles(sh_kept, threshold,
                                        coarse_buckets).to_pandas()
    if pairs.empty:
        return no_losers
    comp = min_label_components(pairs["doc_a"], pairs["doc_b"]).rename(
        columns={"vertex": "doc_id"})
    # token counts come off the pinned kept-doc shingle table (slim
    # columns, cluster members only) — the tokenization happened in
    # the shingle pass; no third read of the corpus text
    members = pa.array(np.unique(comp["doc_id"]), pa.int64())
    tc = (sh_kept.map_batches(
        lambda b: b.select(["doc_id", "n_tok"]).filter(
            pc.is_in(b["doc_id"], value_set=members)),
        batch_format="pyarrow").to_pandas()
        .rename(columns={"n_tok": "n_tokens"}))
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
    by :func:`_derive_bench`)."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n = kw.get("n", 3)

    bench = _derive_bench(docs, bench_mod, bench_tokens, n)
    import ray as _ray
    out = curate_corpus_full_ds(docs, _ray.put(bench), **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# The exact-curation stages (gates, decontamination, exact dedup) +
# the exact near-dup chain over the exact-dedup survivors:
# trigram-Jaccard pairs (string shingles == the engine's 64-bit hash
# shingles absent collisions), recursive min-label components,
# keep-LONGEST per component (ties to smaller doc_id), losers
# re-labeled near_duplicate.
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
    not luck. Output rows are (vec_id, embedding, y)."""
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


# about the most training rows the classifier collects to the driver
# (a doc_id modulus sample, so the count varies with how the ids
# spread); above the 5 000 documents of sf0.1, so a corpus of that
# size trains on every row
_QC_TRAIN_ROWS = 8192


def trained_quality_classifier(sf_dir: str, d: int = 512,
                               iters: int = 400,
                               lr: float = 5.0, l2: float = 0.0):
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
    deterministic sample (``doc_id % sample_mod == 0``, the modulus
    worked out from the feature table's row count so that about
    ``_QC_TRAIN_ROWS`` rows reach the driver; classifiers need
    thousands of examples, not the corpus) fit locally in
    microseconds per epoch, and the CORPUS is scored by one
    streaming matvec pass against the broadcast weights. Rows-only
    driver check (iterative training is not SQL-expressible);
    agreement == 1.0 with the gate it distills is asserted in
    tests."""
    import functools
    from .vectors import logreg_fit_local, logreg_predict_ds
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    feats = docs.map_batches(
        functools.partial(_hashed_features_batch, d=d),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=2048).materialize()
    sample_mod = max(1, -(-feats.count() // _QC_TRAIN_ROWS))
    train = feats.map_batches(
        lambda b: (b[(b["vec_id"].to_numpy(np.int64)
                      & 0x7FFFFFFF) % sample_mod == 0]
                   if sample_mod > 1 else b),
        batch_format="pandas").to_pandas()
    if train.empty or train["y"].nunique() < 2:
        raise ValueError(
            f"training sample is degenerate ({len(train)} rows, "
            f"{train['y'].nunique() if len(train) else 0} classes, "
            f"doc_id modulus {sample_mod}) — the classifier needs "
            f"both label classes in its training rows")
    m = np.stack(train["embedding"].to_numpy()).astype(np.float64)
    fit = logreg_fit_local(m, train["y"].to_numpy(np.float64),
                           iters=iters, lr=lr, l2=l2)
    out = logreg_predict_ds(feats, fit["w"], fit["b"]).to_pandas()
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
    (CORPUS_SPLIT_ASSIGN_SQL)."""
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
