"""Unigram-LM tokenizer (SentencePiece, Kudo 2018) trained distributed.

The subword-vocabulary complement of ``pipelines/bpe.py``: where BPE
grows a vocabulary bottom-up by greedy merges, the unigram model starts
from a LARGE seed vocabulary and prunes it down, scoring segmentations
by a piece-unigram language model. Same scaling argument as BPE: the
corpus is read ONCE into the word-TYPE frequency table (vocab-bounded —
~10^7 rows at 100 TB while the corpus is ~10^11 words); every training
round runs over the slim type table only.

Distributed shape per stage:

- seeding: per-batch substring counts of word types (each DISTINCT
  substring of a type counted once, weighted by the type's corpus
  frequency) -> bucketed ``grouped_agg`` fold -> per-block partial
  top-k so only blocks x k rows reach the driver; single characters
  are force-included (coverage guarantee — every word stays
  encodable).
- EM round (hard EM / Viterbi counts — the deterministic variant;
  full forward-backward E-steps differ only in the expected-count
  weighting): piece log-probs broadcast once via ``ray.put``, each
  batch Viterbi-segments its word types and emits weighted
  piece-count partials, ``grouped_agg`` folds them, the driver
  normalizes O(vocab) rows. Zero-count survivors get a floor count
  of 0.5 (never -inf: single chars must stay usable).
- pruning: between EM blocks the lowest-probability multi-char
  pieces drop (``shrink_frac`` at a time, (count ASC, piece ASC)
  deterministic order) until ``vocab_size`` remain; single chars
  never drop.

Viterbi tie rule (pinned, shared by trainer/encoder/tests): among
equal-score segmentations the SHORTER last piece wins (candidates
scanned by increasing piece length; strict > replaces). Encoding
broadcasts the model once with a per-worker word->pieces memo,
exactly like ``bpe_encode_ds``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
import ray

from ..functions.aggregates import grouped_agg
from .bpe import word_type_table
from .textops import _tokens


def viterbi_segment(word: str, logp: dict, max_len: int) -> list[str]:
    """Best segmentation of ``word`` into vocabulary pieces under the
    unigram model. Pieces absent from ``logp`` are unusable; a word
    containing a character outside the vocabulary keeps that char as
    an <unk> piece with a -100 penalty (SentencePiece's unk score)."""
    n = len(word)
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        for length in range(1, min(max_len, i) + 1):
            piece = word[i - length:i]
            lp = logp.get(piece)
            if lp is None:
                if length > 1:
                    continue
                lp = -100.0  # unk char fallback keeps coverage total
            s = best[i - length] + lp
            if s > best[i]:
                best[i] = s
                back[i] = i - length
    out = []
    i = n
    while i > 0:
        j = int(back[i])
        out.append(word[j:i])
        i = j
    out.reverse()
    return out


def seed_pieces(types, max_piece_len: int = 6, seed_size: int = 512,
                num_buckets: int = 32) -> pd.DataFrame:
    """Candidate vocabulary from the word-type Dataset: all substrings
    up to ``max_piece_len`` (distinct per type, weighted by type
    count), folded distributed; the driver sees per-block partial
    top-k rows plus the forced single-character set."""
    def subs(batch: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        chars: Counter = Counter()
        for w, n in zip(batch["word"], batch["n"]):
            n = int(n)
            seen = set()
            for L in range(1, min(max_piece_len, len(w)) + 1):
                for i in range(len(w) - L + 1):
                    seen.add(w[i:i + L])
            for s in seen:
                cnt[s] += n
            for c in set(w):
                chars[c] += n
        rows = list(cnt.items())
        return pd.DataFrame({
            "piece": [r[0] for r in rows],
            "n": pd.Series([r[1] for r in rows], dtype="int64"),
            "is_char": [len(r[0]) == 1 for r in rows]})

    folded = grouped_agg(
        types.map_batches(subs, batch_format="pandas"),
        ["piece", "is_char"], {"n": ("n", "sum")},
        num_buckets=num_buckets)

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        # chars always survive; multi-char pieces pre-trim per block
        # so only blocks x seed_size rows reach the driver
        multi = b[~b["is_char"]].sort_values(
            ["n", "piece"], ascending=[False, True]).head(seed_size)
        return pd.concat([b[b["is_char"]], multi], ignore_index=True)

    rows = folded.map_batches(topk, batch_format="pandas").to_pandas()
    chars = rows[rows["is_char"]]
    multi = (rows[~rows["is_char"]]
             .sort_values(["n", "piece"], ascending=[False, True])
             .head(seed_size))
    out = pd.concat([chars, multi], ignore_index=True)
    return (out[["piece", "n", "is_char"]]
            .sort_values("piece").reset_index(drop=True))


def _em_counts(types, logp: dict, max_piece_len: int,
               num_buckets: int = 32) -> pd.DataFrame:
    """One hard-EM E-step over the type table: Viterbi piece counts
    weighted by type frequency, folded distributed."""
    ref = ray.put(logp)

    def estep(batch: pd.DataFrame) -> pd.DataFrame:
        lp = ray.get(ref)
        cnt: Counter = Counter()
        for w, n in zip(batch["word"], batch["n"]):
            for p in viterbi_segment(w, lp, max_piece_len):
                cnt[p] += int(n)
        rows = list(cnt.items())
        return pd.DataFrame({
            "piece": [r[0] for r in rows],
            "c": pd.Series([r[1] for r in rows], dtype="int64")})

    return grouped_agg(
        types.map_batches(estep, batch_format="pandas"),
        ["piece"], {"c": ("c", "sum")},
        num_buckets=num_buckets).to_pandas()


def _normalize(pieces: pd.DataFrame, counts: pd.DataFrame
               ) -> pd.DataFrame:
    """M-step: counts -> log-probs over the CURRENT vocabulary.
    Unused survivors floor at 0.5 so chars never become -inf."""
    m = pieces.merge(counts, on="piece", how="left")
    c = m["c"].fillna(0.0).to_numpy(np.float64)
    c = np.where(c <= 0, 0.5, c)
    total = c.sum()
    m["count"] = c
    m["logp"] = np.log(c) - math.log(total)
    return m[["piece", "is_char", "count", "logp"]]


def unigram_train(docs, vocab_size: int = 96,
                  max_piece_len: int = 6, seed_size: int = 512,
                  em_rounds: int = 2, shrink_frac: float = 0.25,
                  num_buckets: int = 32) -> pd.DataFrame:
    """Train on a (doc_id, text) Dataset -> model DataFrame
    (piece, logp), sorted by piece. ``vocab_size`` counts ALL pieces
    including the forced single characters; if chars alone exceed it
    the char set is the final vocabulary (coverage beats the cap)."""
    if not 0.0 < shrink_frac <= 1.0:
        # shrink_frac=0 keeps n_multi unchanged every round: the
        # prune-to-target loop would never progress (a silent hang
        # burning cluster time, not an error)
        raise ValueError(f"shrink_frac={shrink_frac} must be in (0, 1]")
    types = word_type_table(docs).materialize()
    seed = seed_pieces(types, max_piece_len, seed_size, num_buckets)
    model = seed.rename(columns={"n": "count"}).copy()
    c = model["count"].to_numpy(np.float64)
    model["logp"] = np.log(c) - math.log(c.sum())

    while True:
        for _ in range(em_rounds):
            lp = dict(zip(model["piece"], model["logp"]))
            counts = _em_counts(types, lp, max_piece_len, num_buckets)
            model = _normalize(model[["piece", "is_char"]], counts)
        n_multi = int((~model["is_char"]).sum())
        n_chars = int(model["is_char"].sum())
        target_multi = max(vocab_size - n_chars, 0)
        if n_multi <= target_multi:
            break
        keep = max(target_multi,
                   int(n_multi * (1.0 - shrink_frac)))
        multi = (model[~model["is_char"]]
                 .sort_values(["count", "piece"],
                              ascending=[False, True])
                 .head(keep))
        model = pd.concat([model[model["is_char"]], multi],
                          ignore_index=True)
    return (model[["piece", "logp"]]
            .sort_values("piece").reset_index(drop=True))


# per-worker caches, keyed by the broadcast ref so two models never
# collide (same scheme as bpe._RANK_CACHE)
_MODEL_CACHE: dict[str, dict] = {}
_SEG_MEMO: dict[tuple, list] = {}


def _segment_cached(word: str, lp: dict, max_len: int,
                    key: str) -> list[str]:
    k = (key, word)
    hit = _SEG_MEMO.get(k)
    if hit is None:
        hit = viterbi_segment(word, lp, max_len)
        if len(_SEG_MEMO) > 1 << 18:
            _SEG_MEMO.clear()
        _SEG_MEMO[k] = hit
    return hit


def unigram_encode_ds(docs, model: pd.DataFrame,
                      max_piece_len: int = 6):
    """Streaming form: (doc_id, text) -> (doc_id, n_words, n_pieces,
    mean_logp, pieces_md5). Model broadcast once; per-worker
    word->pieces memo across batches."""
    import hashlib
    mref = ray.put(model[["piece", "logp"]])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        key = mref.hex()
        lp = _MODEL_CACHE.get(key)
        if lp is None:  # once per worker process
            m = ray.get(mref)
            lp = dict(zip(m["piece"], m["logp"]))
            _MODEL_CACHE[key] = lp
        out = {"doc_id": batch["doc_id"].to_numpy().astype(np.int64),
               "n_words": [], "n_pieces": [], "mean_logp": [],
               "pieces_md5": []}
        for text in batch["text"]:
            words = _tokens(text)
            pieces = []
            for w in words:
                pieces.extend(
                    _segment_cached(w, lp, max_piece_len, key))
            tot = sum(lp.get(p, -100.0) for p in pieces)
            out["n_words"].append(len(words))
            out["n_pieces"].append(len(pieces))
            out["mean_logp"].append(
                tot / len(pieces) if pieces else 0.0)
            out["pieces_md5"].append(hashlib.md5(
                "\x1f".join(pieces).encode()).hexdigest())
        return pd.DataFrame(out).astype({"n_words": "int64",
                                         "n_pieces": "int64"})

    return docs.map_batches(f, batch_format="pandas")


