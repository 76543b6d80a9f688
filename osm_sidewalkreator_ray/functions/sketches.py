"""Mergeable sketch for corpus-scale statistics, next to the
HyperLogLog in ``aggregates.py``: **Misra-Gries heavy hitters**
(Misra/Gries 1982; merge rule from Agarwal et al., "Mergeable
Summaries", PODS'12), bounded-memory frequent-item counts. The exact
``token_topk`` groupby is the right call when the vocabulary fits a
shuffle; at 10^12 documents the vocabulary itself is shuffle-sized,
and an MG summary of k counters guarantees every item with count >
n/(k+1) survives with count under-estimated by at most the tracked
``err``.

Scale shape: one small partial row of k counters per batch, merge of
O(#batches) partials — nothing proportional to row count or
cardinality ever moves.
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
