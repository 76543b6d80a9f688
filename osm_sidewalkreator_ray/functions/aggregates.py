"""Partial pre-aggregation: combine inside map_batches, shuffle partials.

A bare ``groupby(key).aggregate(...)`` shuffles every row AND (in this
Ray version) merges per group in Python — at 10^5 groups that is the
bottleneck, measured at ~1.5 ms/group. This helper therefore:

1. computes per-batch partials (sum/count/min/max per key) inside
   ``map_batches`` — only one row per (key, batch) crosses the shuffle
   (the combiner pattern SURVEY.md §4.2 mandates for A1/A3/A7/A8), and
2. merges the partials with a *bucketed* shuffle: partials are hashed
   into ``num_buckets`` partitions and each bucket is combined by ONE
   vectorized pandas groupby inside ``map_groups`` — Python-call count
   is O(buckets), not O(groups).

Spec format: ``{out_name: (column, kind)}`` with kind in
{"sum", "count", "min", "max", "mean"}.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_BUCKET = "__abucket"


def _round_half_away(x, nd: int = 6):
    """Round half-away-from-zero at ``nd`` decimals — matching
    DuckDB's ROUND(), where Python's round() and np.round() are
    half-to-even. Exactly-representable half cases (e.g. jaccard
    65/128 = 0.5078125) would otherwise diverge from every SQL
    oracle by one ulp of the last kept digit. Sign-symmetric (log
    scores are negative)."""
    m = 10.0 ** nd
    v = np.asarray(x, dtype=np.float64) * m
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)) / m


def grouped_agg(ds, keys: list[str], spec: dict[str, tuple[str | None, str]],
                batch_size: int = 65536, num_buckets: int = 32):
    partial_spec: dict[str, tuple[str | None, str]] = {}
    for out, (col, kind) in spec.items():
        if kind == "mean":
            partial_spec[f"__{out}_s"] = (col, "sum")
            partial_spec[f"__{out}_c"] = (col, "count")
        else:
            partial_spec[out] = (col, kind)
    merge_kind = {out: ("sum" if kind in ("sum", "count") else kind)
                  for out, (_, kind) in partial_spec.items()}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, sort=False, dropna=False)
        cols = {}
        for out, (col, kind) in partial_spec.items():
            if kind == "count":
                cols[out] = g[col].count() if col else g.size()
            else:
                cols[out] = getattr(g[col], kind)()
        p = pd.DataFrame(cols).reset_index()
        h = np.zeros(len(p), dtype=np.uint64)
        for k in keys:
            h ^= pd.util.hash_array(np.asarray(p[k]))
        p[_BUCKET] = (h % num_buckets).astype(np.int64)
        return p

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(keys, sort=False, dropna=False)
        cols = {out: getattr(g[out], mk)() for out, mk in merge_kind.items()}
        out_df = pd.DataFrame(cols).reset_index()
        for out, (_, kind) in spec.items():
            if kind == "mean":
                out_df[out] = out_df[f"__{out}_s"] / out_df[f"__{out}_c"]
                out_df = out_df.drop(columns=[f"__{out}_s", f"__{out}_c"])
        return out_df[keys + list(spec.keys())]

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)
    return partials.groupby(_BUCKET).map_groups(combine,
                                                batch_format="pandas")


# ----------------------------------------------------------- sketches

def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros for nonzero uint64 (6
    shift passes; no float round-trip — float64 log2 rounds values
    within half-ULP of a power of two across the boundary)."""
    n = np.zeros(x.shape, dtype=np.int64)
    cur = x.copy()
    for sft in (32, 16, 8, 4, 2, 1):
        hi_zero = (cur >> np.uint64(64 - sft)) == 0
        n[hi_zero] += sft
        cur[hi_zero] <<= np.uint64(sft)
    return n


def _hll_rank_idx(values: np.ndarray, b: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) arrays for a batch of values."""
    h = pd.util.hash_array(values).astype(np.uint64)
    idx = (h >> np.uint64(64 - b)).astype(np.int64)
    # the OR'd sentinel bit guarantees rest != 0 and caps the rank
    rest = (h << np.uint64(b)) | (np.uint64(1) << np.uint64(b - 1))
    rank = (_clz64(rest) + 1).astype(np.uint8)
    return idx, rank


def _hll_registers(values: np.ndarray, b: int) -> np.ndarray:
    """HyperLogLog register array (2^b uint8) for a batch of values —
    fully vectorized: one hash pass, exact integer leading-zero rank,
    per-register max via np.maximum.at."""
    idx, rank = _hll_rank_idx(values, b)
    regs = np.zeros(1 << b, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction (Flajolet et al. '07)."""
    return float(_hll_estimate_rows(regs[None, :])[0])


def _hll_estimate_rows(regs: np.ndarray) -> np.ndarray:
    """Estimator over a (groups, m) register matrix.

    The register sum Σ 2^-reg is accumulated as the EXACT integer
    Σ 2^(64-reg) (a Python int ≤ m·2^64 — ranks are ≤ 64) and rounded
    to float ONCE at the final division, so the estimate is
    deterministic regardless of summation order — which is what lets
    the SQL oracle (relational.APPROX_USERS_BY_TYPE_SQL) reproduce it
    bit-for-bit with a HUGEINT SUM. Per group the work is one
    65-bin bincount, not O(m) floats."""
    m = regs.shape[1]
    alpha = 0.7213 / (1 + 1.079 / m)
    n_g = regs.shape[0]
    est = np.empty(n_g, dtype=np.float64)
    zeros = (regs == 0).sum(axis=1)
    for g in range(n_g):
        cnt = np.bincount(regs[g], minlength=65)
        s = 0
        for r in np.flatnonzero(cnt):
            s += int(cnt[r]) << (64 - int(r))
        est[g] = alpha * m * m / (s / float(1 << 64))
    small = (est <= 2.5 * m) & (zeros > 0)
    with np.errstate(divide="ignore"):
        lc = m * np.log(m / np.maximum(zeros, 1))
    return np.where(small, lc, est)


def hll_distinct(ds, column: str, b: int = 12) -> float:
    """Distributed approximate COUNT(DISTINCT column) via HyperLogLog:
    each batch reduces to ONE 2^b-byte register row; registers merge
    by elementwise max on the driver (mergeability is exact, the only
    approximation is the sketch itself — std err ~ 1.04/sqrt(2^b),
    ~1.6% at b=12). Scale shape: per-batch partial -> tiny fixed-size
    rows -> driver max-merge; nothing proportional to cardinality or
    row count ever moves."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "regs": [_hll_registers(batch[column].to_numpy(), b).tobytes()]})

    rows = ds.map_batches(partial, batch_format="pandas").to_pandas()
    m = 1 << b
    regs = np.zeros(m, dtype=np.uint8)
    for blob in rows["regs"]:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
    return _hll_estimate(regs)


def hll_distinct_by(ds, key: str, column: str, b: int = 12,
                    num_buckets: int = 32) -> pd.DataFrame:
    """Per-``key`` approximate COUNT(DISTINCT column): the grouped form
    of ``hll_distinct``. Partial = one register row per (key, batch);
    combine = hash-bucketed groupby where each key's registers
    max-merge (vectorized ``np.maximum.reduce`` over the stacked
    rows). Shuffle volume: (#keys x #batches) fixed-size rows —
    independent of both row count and per-key cardinality."""
    m = 1 << b

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # one hash pass for the whole batch; per-key registers filled
        # by ONE 2-D np.maximum.at scatter — no per-key Python loop.
        # factorize keeps null keys as their own group (use_na_sentinel
        # =False), matching grouped_agg's dropna=False semantics.
        codes, uniques = pd.factorize(batch[key], use_na_sentinel=False)
        idx, rank = _hll_rank_idx(batch[column].to_numpy(), b)
        regs2d = np.zeros((len(uniques), m), dtype=np.uint8)
        np.maximum.at(regs2d, (codes, idx), rank)
        out = pd.DataFrame({key: uniques,
                            "regs": [r.tobytes() for r in regs2d]})
        out[_BUCKET] = (pd.util.hash_array(
            out[key].to_numpy(dtype=object)) % num_buckets).astype(np.int64)
        return out

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        codes, uniques = pd.factorize(g[key], use_na_sentinel=False)
        stacked = np.frombuffer(b"".join(g["regs"]),
                                dtype=np.uint8).reshape(len(g), m)
        merged = np.zeros((len(uniques), m), dtype=np.uint8)
        # elementwise per-group max: rows with the same code reduce
        # into one register row
        np.maximum.at(merged, codes, stacked)
        ests = _round_half_away(_hll_estimate_rows(merged), 1)
        return pd.DataFrame({key: uniques, "approx_distinct": ests})

    out = (ds.map_batches(partial, batch_format="pandas")
           .groupby(_BUCKET).map_groups(combine, batch_format="pandas")
           .to_pandas())
    return out.sort_values(key).reset_index(drop=True)
