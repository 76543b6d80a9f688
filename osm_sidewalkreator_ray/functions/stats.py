"""Pipeline introspection: partition- and key-skew diagnostics for a
Dataset (``skew_report``), read before choosing a shuffle key.
"""

from __future__ import annotations

import pandas as pd


def skew_report(ds, key: str | None = None, k_counters: int = 64,
                topk: int = 5) -> dict:
    """Partition- and key-skew diagnostics for a Dataset — the thing
    to run BEFORE choosing a shuffle key. One streaming pass over
    whole blocks (``batch_size=None``, pyarrow zero-copy) collects a
    slim (rows, bytes) row per block; with ``key`` given, a
    Misra-Gries pass estimates the hottest key values and their corpus
    share (a key holding >1/num_partitions of all rows will straddle
    any hash shuffle — salt it). Returns a dict:

    - ``blocks``: one-row DataFrame (n_blocks, rows_total, rows_min/
      median/max, bytes_min/median/max, row_skew = max/median).
    - ``hot_keys``: top values with count bounds and share (None
      when no key was given).
    """
    import numpy as np
    import pyarrow as pa

    def per_block(b: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({"rows": [b.num_rows],
                             "bytes": [b.nbytes]})

    bl = ds.map_batches(per_block, batch_format="pyarrow",
                        batch_size=None).to_pandas()
    if bl.empty:
        blocks = pd.DataFrame({"n_blocks": [0], "rows_total": [0]})
    else:
        med = float(bl["rows"].median())
        blocks = pd.DataFrame({
            "n_blocks": [len(bl)],
            "rows_total": [int(bl["rows"].sum())],
            "rows_min": [int(bl["rows"].min())],
            "rows_median": [med],
            "rows_max": [int(bl["rows"].max())],
            "bytes_min": [int(bl["bytes"].min())],
            "bytes_median": [float(bl["bytes"].median())],
            "bytes_max": [int(bl["bytes"].max())],
            "row_skew": [round(float(bl["rows"].max())
                               / max(med, 1.0), 3)]})

    hot = None
    if key is not None:
        from .sketches import mg_heavy_hitters
        hot = mg_heavy_hitters(ds, key, k_counters=k_counters,
                               topk=topk)
        total = int(hot["n_total"].iloc[0]) if len(hot) else 0
        if total:
            hot = hot.assign(share=np.round(
                hot["count_high"].to_numpy() / total, 4))
    return {"blocks": blocks, "hot_keys": hot}
