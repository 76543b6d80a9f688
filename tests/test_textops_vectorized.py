"""Identity tests for the whole-batch vectorized text kernels.

The hot-path batch forms (`_flat_tokens_arrow`, `_shingle_hashes_batch`,
`MinHasher.__call__`, the Arrow-native scorers) must be BYTE-IDENTICAL
to the per-doc reference forms (`_tokens`, `_shingle_hashes`,
`signature_from_shingles`, the original Series.map semantics) — the
golden fixtures and the DuckDB oracles assume the hash values never
change.
"""

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import osm_sidewalkreator_ray.pipelines.textops as T

# every structural edge: empty, whitespace-only, below-k token counts,
# exactly-k, internal runs, unicode whitespace, repeated tokens (shingle
# dedup), long docs
EDGE_TEXTS = [
    "",
    "   ",
    "\t\n",
    "one",
    "one two",
    "one two three",
    "a a a a a a",
    "  lead and trail  ",
    "tab\tsep\nand newline",
    "x   y",          # NBSP between tokens
    " thin space ",
    "the quick brown fox jumps over the lazy dog " * 20,
    "repeat repeat repeat repeat",
]

_WS = re.compile(r"\s+")


def _ref_tokens(t: str) -> list[str]:
    t = t.strip()
    return _WS.split(t) if t else []


def _md5_shingle_hashes(words: list[str], k: int = 3) -> np.ndarray:
    """``_shingle_hashes`` over the md5-derived token hash with the
    rotation mix — every step exactly reproducible in DuckDB SQL
    (see MINHASH_DEDUP_SQL), which is what buys the MinHash family
    its full oracle."""
    return T._shingle_hashes(words, k, hash_fn=T._md5_token_hashes,
                             mix=T._rotmix)


class TestFlatTokens:
    def test_matches_per_doc_regex(self):
        fl, counts = T._flat_tokens_arrow(EDGE_TEXTS)
        fl = fl.to_pylist()
        off = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=off[1:])
        for i, t in enumerate(EDGE_TEXTS):
            assert list(fl[off[i]:off[i + 1]]) == _ref_tokens(t), t

    def test_accepts_series_and_arrow(self):
        for form in (pd.Series(EDGE_TEXTS),
                     pa.array(EDGE_TEXTS),
                     pa.chunked_array([EDGE_TEXTS[:4], EDGE_TEXTS[4:]])):
            fl, counts = T._flat_tokens_arrow(form)
            assert int(counts.sum()) == len(fl)
            assert counts[0] == 0 and counts[3] == 1

    def test_nulls_are_empty_docs(self):
        fl, counts = T._flat_tokens_arrow(pa.array(["a b", None, "c"]))
        assert list(counts) == [2, 0, 1]
        assert fl.to_pylist() == ["a", "b", "c"]


class TestShingleBatchIdentity:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_byte_identical_to_per_doc(self, k):
        flat, counts = T._shingle_hashes_batch(EDGE_TEXTS, k)
        off = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=off[1:])
        for i, t in enumerate(EDGE_TEXTS):
            ref = np.sort(T._shingle_hashes(_ref_tokens(t), k))
            assert np.array_equal(flat[off[i]:off[i + 1]], ref), (i, t)

    def test_on_documents_table(self):
        sf_dir_small = "/root/testdata/sf0.001"
        import pyarrow.parquet as pq
        tbl = pq.read_table(f"{sf_dir_small}/documents.parquet",
                            columns=["doc_id", "text"])
        flat, counts = T._shingle_hashes_batch(tbl["text"], 3)
        off = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=off[1:])
        texts = tbl["text"].to_pylist()
        for i, t in enumerate(texts):
            ref = np.sort(T._shingle_hashes(_ref_tokens(t), 3))
            assert np.array_equal(flat[off[i]:off[i + 1]], ref)


class TestMinHasherIdentity:
    @pytest.mark.parametrize("token_hash", ["md5"])
    def test_call_matches_per_doc_loop(self, token_hash):
        h = T.MinHasher(num_perm=32, k=3, seed=7)
        batch = pd.DataFrame({"doc_id": np.arange(len(EDGE_TEXTS)),
                              "text": EDGE_TEXTS})
        out = h(batch)
        assert (out["thash"] == token_hash).all()
        for i, t in enumerate(EDGE_TEXTS):
            sh = _md5_shingle_hashes(_ref_tokens(t), 3)
            assert out["shingles"].iloc[i] == np.sort(sh).tobytes()
            assert out["sig"].iloc[i] == \
                h.signature_from_shingles(sh).tobytes()

    def test_md5_batch_matches_per_doc(self):
        flat, counts = T._shingle_hashes_batch(
            EDGE_TEXTS, 3, hash_fn=T._md5_token_hashes, mix=T._rotmix)
        off = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        for i, t in enumerate(EDGE_TEXTS):
            ref = np.sort(_md5_shingle_hashes(_ref_tokens(t), 3))
            got = flat[off[i]:off[i + 1]]
            assert np.array_equal(got, ref), t


class TestScorerIdentity:
    def _table(self):
        return pa.table({"doc_id": pa.array(range(len(EDGE_TEXTS)),
                                            pa.int64()),
                         "text": pa.array(EDGE_TEXTS)})

    def test_quality(self):
        got = T._quality_batch(self._table()).to_pandas()
        stop = T.STOPWORDS["en"]
        for i, t in enumerate(EDGE_TEXTS):
            ws = _ref_tokens(t)
            ml = float(np.mean([len(w) for w in ws])) if ws else 0.0
            sr = sum(w in stop for w in ws) / len(ws) if ws else 0.0
            assert got["n_tokens"].iloc[i] == len(ws)
            # half-away-from-zero (DuckDB ROUND semantics), not
            # Python's banker's round — ties like 65/128 must match
            # the SQL oracles bit-for-bit
            assert got["mean_token_len"].iloc[i] == \
                float(T._round_half_away(ml))
            assert got["stop_ratio"].iloc[i] == \
                float(T._round_half_away(sr))

    def test_lang_id(self):
        texts = ["the cat sat of the mat", "de o que e um dia",
                 "el la de y un dos", "", "neutral words only"]
        tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                        "text": pa.array(texts)})
        got = T._lang_id_batch(tbl).to_pandas()
        assert list(got["lang_pred"]) == ["en", "pt", "es", "en", "en"]

    def test_fingerprint(self):
        # corpus whitespace is ASCII (space/tab/newline); on that
        # domain the Arrow RE2 normalization == the Python \s+ one
        texts = [t for t in EDGE_TEXTS if t.isascii()]
        tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                        "text": pa.array(texts)})
        got = T._fingerprint_batch(tbl).to_pandas()
        for i, t in enumerate(texts):
            want = hashlib.md5(
                _WS.sub(" ", t.strip()).encode()).hexdigest()
            assert got["fingerprint"].iloc[i] == want
