"""Banded exact hamming near-neighbor search over 64-bit signatures.

Generic form of the SimHash pair search (Charikar '02 signatures;
banded exact-match tables per Manku/Jain/Sarma WWW'07), shared by the
text SimHash near-dup and the image perceptual-hash near-dup: any
64-bit signature column works. Recall is EXACT (pigeonhole: a pair
within hamming distance bands-1 shares at least one identical band
chunk); the plan is slim throughout — (id, sig) rows -> `bands` band
rows each -> coarse-bucketed groupby where pairs are generated AND
verified in-bucket with one vectorized XOR-popcount -> global pair
dedup by pair-hash bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

_POP8 = np.array([bin(i).count("1") for i in range(256)],
                 dtype=np.uint8)


def popcount64(u: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy<2 has no
    bitwise_count): byte-table lookup summed over the 8 bytes."""
    return _POP8[u.view(np.uint8).reshape(u.shape + (8,))] \
        .sum(axis=-1).astype(np.int64)


def banded_hamming_pairs(sigs, id_col: str, sig_col: str,
                         max_hamming: int = 3, bands: int = 4,
                         coarse_buckets: int = 64,
                         out_a: str = "doc_a", out_b: str = "doc_b"):
    """Dataset of (out_a, out_b, hamming) — every id pair whose
    signatures differ in <= max_hamming bits, each emitted once with
    out_a < out_b. ``sigs`` holds one row per id: (id_col int64,
    sig_col int64 bit-view of the uint64 signature)."""
    assert bands > max_hamming, "pigeonhole needs bands > max_hamming"
    width = 64 // bands

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        sim = batch[sig_col].to_numpy().view(np.uint64)
        chunks = np.empty((n, bands), dtype=np.uint64)
        mask = np.uint64((1 << width) - 1)
        for b in range(bands):
            chunks[:, b] = (sim >> np.uint64(b * width)) & mask
        band = np.tile(np.arange(bands, dtype=np.int64), n)
        bval = chunks.reshape(-1)
        # fold (band, value) to one key; bucket on its hash
        key = (bval * np.uint64(0x9E3779B97F4A7C15)
               + (band.view(np.uint64) + np.uint64(1)))
        return pd.DataFrame({
            "bkey": (key >> np.uint64(1)).view(np.int64),
            "__id": np.repeat(batch[id_col].to_numpy(), bands),
            "__sig": np.repeat(sim, bands).view(np.int64),
            "__cb": (key % np.uint64(coarse_buckets))
            .astype(np.int64)})

    exploded = sigs.map_batches(explode, batch_format="pandas")

    def verified_pairs(g: pd.DataFrame) -> pd.DataFrame:
        from .pairgen import pairs_sharing_key
        ids = g["__id"].to_numpy()
        a, b = pairs_sharing_key(g["bkey"].to_numpy(), ids)
        empty = pd.DataFrame({
            out_a: pd.Series([], dtype="int64"),
            out_b: pd.Series([], dtype="int64"),
            "hamming": pd.Series([], dtype="int64"),
            "__pb": pd.Series([], dtype="int64")})
        if len(a) == 0:
            return empty
        pairs = pd.DataFrame({out_a: a, out_b: b}).drop_duplicates()
        u, first = np.unique(ids, return_index=True)
        sims = g["__sig"].to_numpy().view(np.uint64)
        sa = sims[first[np.searchsorted(u, pairs[out_a].to_numpy())]]
        sb = sims[first[np.searchsorted(u, pairs[out_b].to_numpy())]]
        ham = popcount64(sa ^ sb)
        keep = ham <= max_hamming
        if not keep.any():
            return empty
        out = pairs.loc[keep].copy()
        out["hamming"] = ham[keep]
        ph = (pd.util.hash_array(out[out_a].to_numpy())
              ^ pd.util.hash_array(out[out_b].to_numpy()))
        out["__pb"] = (ph % 32).astype(np.int64)
        return out

    cand = exploded.groupby("__cb").map_groups(verified_pairs,
                                               batch_format="pandas")
    # a groupby with no group yields no block: the typed empty block
    # keeps the pair schema when no pair survives
    return cand.groupby("__pb").map_groups(
        lambda g: g.drop_duplicates([out_a, out_b])
        [[out_a, out_b, "hamming"]], batch_format="pandas").union(
        rd.from_pandas(pd.DataFrame({
            c: pd.Series([], dtype="int64")
            for c in (out_a, out_b, "hamming")})))
