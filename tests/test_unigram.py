"""Unigram-LM (SentencePiece-style) tokenizer vs a local reference."""

import math
from collections import Counter

import pytest

import numpy as np
import pandas as pd
import ray.data as rd

from osm_sidewalkreator_ray.pipelines import unigram as U
from osm_sidewalkreator_ray.pipelines.textops import _read_docs, _tokens

SF_DIR = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------
# independent sequential reference: same declared rules (distinct
# substrings per type weighted by type count; hard EM with the
# shorter-last-piece tie rule; (count DESC, piece ASC) keep order;
# 0.5 floor), implemented with its own Viterbi loop.


def _ref_viterbi(word, logp, max_len):
    n = len(word)
    best = [-math.inf] * (n + 1)
    best[0] = 0.0
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        for L in range(1, min(max_len, i) + 1):
            p = word[i - L:i]
            lp = logp.get(p)
            if lp is None:
                if L > 1:
                    continue
                lp = -100.0
            s = best[i - L] + lp
            if s > best[i]:
                best[i], back[i] = s, i - L
    out, i = [], n
    while i > 0:
        out.append(word[back[i]:i])
        i = back[i]
    return out[::-1]


def _ref_train(texts, vocab_size, max_piece_len=6, seed_size=512,
               em_rounds=2, shrink_frac=0.25):
    wc = Counter()
    for t in texts:
        wc.update(_tokens(t))
    sub = Counter()
    chars = set()
    for w, n in wc.items():
        seen = set()
        for L in range(1, min(max_piece_len, len(w)) + 1):
            for i in range(len(w) - L + 1):
                seen.add(w[i:i + L])
        for s in seen:
            sub[s] += n
        chars |= set(w)
    multi = sorted((p for p in sub if len(p) > 1),
                   key=lambda p: (-sub[p], p))[:seed_size]
    pieces = {p: float(sub[p]) for p in multi}
    pieces.update({c: float(sub[c]) for c in chars})
    total = sum(pieces.values())
    logp = {p: math.log(c) - math.log(total)
            for p, c in pieces.items()}
    count = dict(pieces)
    while True:
        for _ in range(em_rounds):
            cnt = Counter()
            for w, n in wc.items():
                for p in _ref_viterbi(w, logp, max_piece_len):
                    cnt[p] += n
            count = {p: (float(cnt[p]) if cnt[p] > 0 else 0.5)
                     for p in logp}
            tot = sum(count.values())
            logp = {p: math.log(c) - math.log(tot)
                    for p, c in count.items()}
        n_chars = sum(1 for p in logp if len(p) == 1)
        multi = [p for p in logp if len(p) > 1]
        target = max(vocab_size - n_chars, 0)
        if len(multi) <= target:
            break
        keep = max(target, int(len(multi) * (1.0 - shrink_frac)))
        kept = sorted(multi, key=lambda p: (-count[p], p))[:keep]
        keep_set = set(kept) | {p for p in logp if len(p) == 1}
        logp = {p: v for p, v in logp.items() if p in keep_set}
        count = {p: v for p, v in count.items() if p in keep_set}
    return pd.DataFrame(
        {"piece": sorted(logp), "logp": [logp[p] for p in sorted(logp)]})


TEXTS = ["the sorting sorter sorts the tables",
         "a sorted table sorts faster than an unsorted table",
         "sort the table then scan the sorted table",
         "scanners scan the scanned tables"] * 3


class TestUnigramTrain:
    def test_equals_local_reference(self):
        docs = rd.from_pandas(pd.DataFrame(
            {"doc_id": np.arange(len(TEXTS), dtype=np.int64),
             "text": TEXTS}))
        got = U.unigram_train(docs, vocab_size=40, seed_size=64)
        want = _ref_train(TEXTS, vocab_size=40, seed_size=64)
        assert got["piece"].tolist() == want["piece"].tolist()
        np.testing.assert_allclose(got["logp"], want["logp"],
                                   rtol=0, atol=1e-9)

    def test_partitioning_invariance(self):
        df = pd.DataFrame(
            {"doc_id": np.arange(len(TEXTS), dtype=np.int64),
             "text": TEXTS})
        a = U.unigram_train(rd.from_pandas(df).repartition(1),
                            vocab_size=40, seed_size=64)
        b = U.unigram_train(rd.from_pandas(df).repartition(7),
                            vocab_size=40, seed_size=64)
        assert a["piece"].tolist() == b["piece"].tolist()
        np.testing.assert_allclose(a["logp"], b["logp"], atol=1e-9)

    def test_vocab_size_binding_and_chars_kept(self):
        docs = rd.from_pandas(pd.DataFrame(
            {"doc_id": np.arange(len(TEXTS), dtype=np.int64),
             "text": TEXTS}))
        model = U.unigram_train(docs, vocab_size=30, seed_size=128)
        assert len(model) == 30
        chars = {c for t in TEXTS for w in _tokens(t) for c in w}
        assert chars <= set(model["piece"])


class TestUnigramEncode:
    def test_reconstruction_and_oov(self):
        model = _ref_train(TEXTS, vocab_size=40, seed_size=64)
        lp = dict(zip(model["piece"], model["logp"]))
        for w in ["sorting", "tablesort", "zebra!", "x"]:
            seg = U.viterbi_segment(w, lp, 6)
            assert "".join(seg) == w  # total coverage incl. OOV chars
        assert U.viterbi_segment("", lp, 6) == []

    def test_encode_ds_matches_local(self):
        docs_df = pd.DataFrame(
            {"doc_id": np.arange(len(TEXTS), dtype=np.int64),
             "text": TEXTS})
        model = _ref_train(TEXTS, vocab_size=40, seed_size=64)
        lp = dict(zip(model["piece"], model["logp"]))
        got = (U.unigram_encode_ds(rd.from_pandas(docs_df), model)
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        n_pieces = []
        for t in TEXTS:
            n_pieces.append(sum(len(_ref_viterbi(w, lp, 6))
                                for w in _tokens(t)))
        assert got["n_pieces"].tolist() == n_pieces
        assert (got["mean_logp"] < 0).all()

    def test_real_table_drive(self):
        docs = _read_docs(SF_DIR, ["doc_id", "text"])
        model = U.unigram_train(docs, vocab_size=64, seed_size=256)
        assert len(model) == 64
        enc = U.unigram_encode_ds(docs, model).to_pandas()
        assert len(enc) == docs.count()
        nonempty = enc[enc["n_words"] > 0]
        assert (nonempty["n_pieces"] >= nonempty["n_words"]).all()


@pytest.mark.usefixtures("ray_session")
def test_pipeline_threads_max_piece_len():
    """Regression: a model trained with max_piece_len but encoded with
    the default 6 never used its longer trained pieces; encoding must
    honour the window it is given."""
    from osm_sidewalkreator_ray.pipelines.unigram import (
        unigram_encode_ds, viterbi_segment)
    lp = {"abcdefgh": -1.0, **{c: -10.0 for c in "abcdefgh"}}
    assert viterbi_segment("abcdefgh", lp, 8) == ["abcdefgh"]
    assert viterbi_segment("abcdefgh", lp, 6) == list("abcdefgh")
    # encode respects the passed window
    import ray.data as rd
    model = pd.DataFrame({"piece": list(lp), "logp": list(lp.values())})
    docs = rd.from_pandas(pd.DataFrame({"doc_id": [1],
                                        "text": ["abcdefgh"]}))
    enc8 = unigram_encode_ds(docs, model, max_piece_len=8).to_pandas()
    enc6 = unigram_encode_ds(docs, model, max_piece_len=6).to_pandas()
    assert enc8["n_pieces"].iloc[0] == 1
    assert enc6["n_pieces"].iloc[0] == 8


def test_train_rejects_zero_shrink_frac():
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines.unigram import unigram_train
    docs = rd.from_pandas(pd.DataFrame({"doc_id": [1],
                                        "text": ["ab ab"]}))
    with pytest.raises(ValueError, match="shrink_frac"):
        unigram_train(docs, shrink_frac=0.0)
