"""Mergeable sketches for corpus-scale statistics, next to the
HyperLogLog in ``aggregates.py``:

- **Misra-Gries heavy hitters** (Misra/Gries 1982; merge rule from
  Agarwal et al., "Mergeable Summaries", PODS'12): bounded-memory
  frequent-item counts. The exact ``token_topk`` groupby is the right
  call when the vocabulary fits a shuffle; at 10^12 documents the
  vocabulary itself is shuffle-sized, and an MG summary of k counters
  guarantees every item with count > n/(k+1) survives with count
  under-estimated by at most the tracked ``err``.
- **Count-Min** (Cormode & Muthukrishnan 2005): fixed-size point
  frequency sketch, the complement to Misra-Gries for items outside
  the head.

Scale shape for both: one small partial row per batch (k counters /
a depth x width counter matrix), merge of O(#batches) partials —
nothing proportional to row count or cardinality ever moves.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


# ---------------------------------------------------- Misra-Gries

def _mg_compress(values: np.ndarray, counts: np.ndarray, k: int
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Keep the k largest counters, subtracting the (k+1)-th count
    from the survivors (the MG decrement step, batched). Returns
    (values, counts, err_added) — err_added bounds the additional
    under-count of any item introduced by this compression."""
    if len(values) <= k:
        return values, counts, 0
    order = np.argsort(-counts, kind="stable")
    cut = int(counts[order[k]])
    keep = order[:k]
    new_counts = counts[keep] - cut
    pos = new_counts > 0
    return values[keep][pos], new_counts[pos], cut


def mg_heavy_hitters(ds, column: str, k_counters: int = 64,
                     topk: int = 10, split_tokens: bool = False
                     ) -> pd.DataFrame:
    """Distributed Misra-Gries top frequent values of ``column``
    (or of its whitespace tokens with ``split_tokens``). Per batch:
    exact in-batch counts -> MG-compressed to ``k_counters`` slim
    (value, count) rows + one err row; driver: sum counters, compress
    once more, report ``topk`` with [count_low, count_high] bounds
    (high = low + accumulated err). Guarantee: any value with true
    count > total/(k_counters+1) appears."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        col = b[column]
        if split_tokens:
            col = col.str.split().explode()
        vc = col.value_counts()
        v, c, err = _mg_compress(vc.index.to_numpy(dtype=object),
                                 vc.to_numpy(dtype=np.int64), k_counters)
        return pd.DataFrame({"value": np.append(v, [None]),
                             "count": np.append(c, [0]).astype(np.int64),
                             "err": np.int64(err),
                             "n": np.int64(int(vc.sum()))})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    # one (err, n) pair per batch rode every row; each batch contributes
    # exactly one value=None marker row carrying its totals
    markers = parts[parts["value"].isna()]
    total_err = int(markers["err"].sum())
    total_n = int(markers["n"].sum())
    merged = (parts.dropna(subset=["value"])
              .groupby("value", sort=False)["count"].sum())
    v, c, err2 = _mg_compress(merged.index.to_numpy(dtype=object),
                              merged.to_numpy(dtype=np.int64), k_counters)
    total_err += err2
    order = np.lexsort((np.asarray(v, dtype=object), -c))[:topk]
    return pd.DataFrame({
        "value": np.asarray(v, dtype=object)[order],
        "count_low": c[order],
        "count_high": c[order] + total_err,
        "n_total": np.int64(total_n),
    }).reset_index(drop=True)


def mg_heavy_hitters_by(ds, key: str, column: str, k_counters: int = 64,
                        topk: int = 5, split_tokens: bool = False,
                        num_buckets: int = 32) -> pd.DataFrame:
    """Per-``key`` Misra-Gries heavy hitters (e.g. top tokens per
    language) — the grouped form on the bucketed-combine shape: MG
    partials per (key, batch) -> hash-bucketed groupby -> per-key
    counter sum + one more compression. Shuffle volume:
    (#keys x #batches x k_counters) slim rows."""
    empty = pd.DataFrame({key: pd.Series([], dtype=object),
                          "value": pd.Series([], dtype=object),
                          "count": pd.Series([], dtype=np.int64),
                          "err": pd.Series([], dtype=np.int64),
                          "__b": pd.Series([], dtype=np.int64)})

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            # Ray Data can deliver zero-row blocks (e.g. downstream of
            # a filter); pd.concat([]) would raise
            return empty
        out = []
        for k, g in b.groupby(key, dropna=False, sort=False):
            col = g[column]
            if split_tokens:
                col = col.str.split().explode()
            vc = col.value_counts()
            v, c, err = _mg_compress(vc.index.to_numpy(dtype=object),
                                     vc.to_numpy(dtype=np.int64),
                                     k_counters)
            out.append(pd.DataFrame({
                key: k, "value": np.append(v, [None]),
                "count": np.append(c, [0]).astype(np.int64),
                "err": np.int64(err)}))
        o = pd.concat(out, ignore_index=True)
        o["__b"] = (pd.util.hash_array(o[key].to_numpy(dtype=object))
                    % num_buckets).astype(np.int64)
        return o

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, gg in g.groupby(key, dropna=False, sort=False):
            err = int(gg.loc[gg["value"].isna(), "err"].sum())
            merged = (gg.dropna(subset=["value"])
                      .groupby("value", sort=False)["count"].sum())
            v, c, e2 = _mg_compress(merged.index.to_numpy(dtype=object),
                                    merged.to_numpy(dtype=np.int64),
                                    k_counters)
            err += e2
            order = np.lexsort((np.asarray(v, dtype=object), -c))[:topk]
            rows.append(pd.DataFrame({
                key: k, "value": np.asarray(v, dtype=object)[order],
                "count_low": c[order], "count_high": c[order] + err}))
        return pd.concat(rows, ignore_index=True)

    out = (ds.map_batches(partial, batch_format="pandas")
           .groupby("__b").map_groups(combine, batch_format="pandas")
           .to_pandas())
    return (out.sort_values([key, "count_low"],
                            ascending=[True, False])
            .reset_index(drop=True))


# ------------------------------------------------ Count-Min sketch

_CM_SEEDS = np.array([0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F,
                      0x165667B1], dtype=np.uint64)


def _cm_rows(values: np.ndarray, width: int) -> np.ndarray:
    """(depth, len(values)) column indices — Kirsch-Mitzenmacher
    double hashing off one 64-bit base hash, like the Bloom filter."""
    h = pd.util.hash_array(values)
    return np.stack([((h + s * h // np.uint64(2 ** 17 + 1)) * s
                      % np.uint64(width)).astype(np.int64)
                     for s in _CM_SEEDS])


def count_min(ds, column: str, width: int = 16384,
              depth: int = 5) -> np.ndarray:
    """Count-Min sketch (Cormode-Muthukrishnan, J.Alg 2005) of a key
    column: (depth, width) uint64 counter matrix. Per-batch partials
    are the SAME fixed-size matrix and merge by entrywise ADD (exactly
    like HLL's max-merge) — nothing cardinality-proportional moves;
    point estimates overcount by at most eps*N (eps ~ e/width) with
    probability 1-delta (delta ~ exp(-depth)). The point-frequency
    complement to Misra-Gries (which only tracks the head)."""
    depth = min(depth, len(_CM_SEEDS))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = np.zeros((depth, width), dtype=np.uint64)
        v = np.asarray(b[column])
        rows = _cm_rows(v, width)[:depth]
        for d in range(depth):
            np.add.at(m[d], rows[d], 1)
        return pd.DataFrame({"cm": [m.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    acc = np.zeros((depth, width), dtype=np.uint64)
    for blob in parts.get("cm", []):
        acc += np.frombuffer(blob, dtype=np.uint64) \
            .reshape(depth, width)
    return acc


def cm_estimate(sketch: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Point-frequency estimates (min over rows) for ``values``."""
    depth, width = sketch.shape
    rows = _cm_rows(np.asarray(values), width)[:depth]
    return np.min(np.stack([sketch[d, rows[d]]
                            for d in range(depth)]), axis=0) \
        .astype(np.int64)


