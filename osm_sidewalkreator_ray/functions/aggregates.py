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


def hll_sketch(ds, column: str, b: int = 12) -> np.ndarray:
    """The register array itself (2^b uint8) — a mergeable, storable
    set sketch. Same plan as hll_distinct; use with hll_union_count /
    hll_intersection_count for cross-dataset set arithmetic without
    re-reading either side."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "regs": [_hll_registers(batch[column].to_numpy(),
                                    b).tobytes()]})

    rows = ds.map_batches(partial, batch_format="pandas").to_pandas()
    regs = np.zeros(1 << b, dtype=np.uint8)
    for blob in rows["regs"]:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
    return regs


def hll_union_count(*sketches: np.ndarray) -> float:
    """|A ∪ B ∪ ...| estimate: register-wise max is EXACTLY the
    sketch of the union (no extra error beyond the base sketch)."""
    regs = sketches[0]
    for r in sketches[1:]:
        regs = np.maximum(regs, r)
    return _hll_estimate(regs)


def hll_intersection_count(a: np.ndarray, b: np.ndarray) -> float:
    """|A ∩ B| estimate by inclusion-exclusion:
    |A| + |B| - |A ∪ B|. Unlike union this COMPOUNDS the sketch
    error (difference of same-scale estimates), so the relative error
    blows up when the intersection is much smaller than either side —
    use for overlap RATIOS of comparable sets, clamped at >= 0."""
    return max(_hll_estimate(a) + _hll_estimate(b)
               - hll_union_count(a, b), 0.0)


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


def grouped_convex_hull(ds, group_col: str, x_col: str, y_col: str,
                        num_buckets: int = 32,
                        vertices: bool = False) -> pd.DataFrame:
    """Per-group convex hull over a point Dataset — the combiner
    pattern applied to a GEOMETRIC aggregate: the hull is algebraic
    (hull(A u B) = hull(hull(A) u hull(B))), so each batch reduces a
    group's points to its partial hull vertices (typically O(log n)
    of them) BEFORE the shuffle, and only those rim points cross the
    wire; a bucketed merge then finishes each group with one final
    chain walk. Returns one row per group: (group_col, n_vertices,
    hull_area, hull_perimeter), or the CCW vertex rows (group_col,
    seq, x, y) when ``vertices=True``. Degenerate groups (<3 distinct
    or collinear points) report area 0.
    """
    from ..geom.core import convex_hull_xy, ring_signed_area

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for g, sub in b.groupby(group_col, sort=False):
            h = convex_hull_xy(
                np.column_stack([sub[x_col].to_numpy(np.float64),
                                 sub[y_col].to_numpy(np.float64)]))
            out.append(pd.DataFrame({group_col: g, "x": h[:, 0],
                                     "y": h[:, 1]}))
        if not out:
            return pd.DataFrame({group_col: pd.Series([], dtype="int64"),
                                 "x": pd.Series([], dtype="float64"),
                                 "y": pd.Series([], dtype="float64")})
        res = pd.concat(out, ignore_index=True)
        res["__hb"] = (pd.util.hash_array(np.asarray(res[group_col]))
                       % num_buckets).astype(np.int64)
        return res

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, sub in g.groupby(group_col, sort=False):
            h = convex_hull_xy(np.column_stack(
                [sub["x"].to_numpy(), sub["y"].to_numpy()]))
            if vertices:
                rows.append(pd.DataFrame({
                    group_col: key,
                    "seq": np.arange(len(h), dtype=np.int64),
                    "x": h[:, 0], "y": h[:, 1]}))
                continue
            if len(h) >= 3:
                ring = np.vstack([h, h[:1]])
                area = abs(ring_signed_area(ring))
                per = float(np.linalg.norm(np.diff(ring, axis=0),
                                           axis=1).sum())
            else:
                area = 0.0
                per = (2.0 * float(np.linalg.norm(h[1] - h[0]))
                       if len(h) == 2 else 0.0)
            rows.append(pd.DataFrame({
                group_col: [key],
                "n_vertices": np.array([len(h)], dtype=np.int64),
                "hull_area": [round(area, 9)],
                "hull_perimeter": [round(per, 9)]}))
        return pd.concat(rows, ignore_index=True)

    out = (ds.map_batches(partial, batch_format="pandas")
           .groupby("__hb")
           .map_groups(lambda g: finalize(g.drop(columns="__hb")),
                       batch_format="pandas").to_pandas())
    sort_cols = [group_col, "seq"] if vertices else [group_col]
    return out.sort_values(sort_cols).reset_index(drop=True)


# --------------------------------------- incremental view maintenance
#
# A grouped aggregate maintained across corpus APPENDS without ever
# re-reading history: ``agg_state_ds`` reduces a Dataset to one
# algebraic STATE row per key (mean kept as sum+count so states stay
# mergeable), ``merge_agg_states`` folds yesterday's state with a new
# delta's state (slim state-vs-state bucketed combine — cost scales
# with |keys touched|, not corpus size), ``finalize_agg_state``
# projects the user-facing values. The insert-only counterpart to
# joins.merge_into (which maintains the BASE table; this maintains a
# downstream aggregate).


def _state_spec(spec: dict) -> dict:
    out = {}
    for name, (col, kind) in spec.items():
        if kind == "mean":
            out[f"__{name}_s"] = (col, "sum")
            out[f"__{name}_c"] = (col, "count")
        else:
            out[name] = (col, kind)
    return out


def agg_state_ds(ds, keys: list[str], spec: dict,
                 num_buckets: int = 32):
    """Dataset -> mergeable state Dataset (one row per key group)."""
    return grouped_agg(ds, keys, _state_spec(spec),
                       num_buckets=num_buckets)


def merge_agg_states(state_a, state_b, keys: list[str], spec: dict,
                     num_buckets: int = 32):
    """Fold two state Datasets into one (sum/count add, min/max
    fold). Both inputs must come from agg_state_ds with the SAME
    keys/spec."""
    sspec = _state_spec(spec)
    merge_kind = {out: ("sum" if kind in ("sum", "count") else kind)
                  for out, (_, kind) in sspec.items()}

    def bucketed(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        h = np.zeros(len(b), dtype=np.uint64)
        for k in keys:
            h ^= pd.util.hash_array(np.asarray(b[k]))
        b[_BUCKET] = (h % num_buckets).astype(np.int64)
        return b

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(keys, sort=False, dropna=False)
        cols = {out: getattr(gb[out], mk)()
                for out, mk in merge_kind.items()}
        return pd.DataFrame(cols).reset_index()[
            keys + list(sspec.keys())]

    return (state_a.union(state_b)
            .map_batches(bucketed, batch_format="pandas")
            .groupby(_BUCKET)
            .map_groups(lambda g: fold(g.drop(columns=_BUCKET)),
                        batch_format="pandas"))


def finalize_agg_state(state, keys: list[str], spec: dict
                       ) -> pd.DataFrame:
    """State Dataset/DataFrame -> final values (mean = sum/count)."""
    df = state.to_pandas() if not isinstance(state, pd.DataFrame) \
        else state.copy()
    for name, (_, kind) in spec.items():
        if kind == "mean":
            df[name] = df[f"__{name}_s"] / df[f"__{name}_c"]
            df = df.drop(columns=[f"__{name}_s", f"__{name}_c"])
    df = df[keys + list(spec.keys())]
    return df.sort_values(keys).reset_index(drop=True)


def _local_skyline_keep(vals: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Boolean keep-mask of the Pareto frontier of ``vals`` (n, d),
    maximizing every dimension. A row is dominated iff some other row
    is >= on ALL dims and > on at least one; exact duplicates dominate
    nothing and are all kept. Chunked pairwise numpy — no Python loop
    over rows."""
    n = len(vals)
    keep = np.ones(n, dtype=bool)
    for s in range(0, n, chunk):
        blk = vals[s:s + chunk]
        ge = (vals[:, None, :] >= blk[None, :, :]).all(axis=-1)
        gt = (vals[:, None, :] > blk[None, :, :]).any(axis=-1)
        keep[s:s + chunk] &= ~(ge & gt).any(axis=0)
    return keep


def skyline(ds, cols: list[str], maximize: list[bool] | None = None,
            batch_size: int = 4096,
            max_collect: int = 200_000) -> pd.DataFrame:
    """Pareto frontier (skyline) of a Dataset over ``cols``: rows not
    dominated by any other row. ``maximize[i]`` flips dimension i to
    a minimize objective when False (default: maximize everything).
    NULL in any skyline column drops the row (SQL NOT EXISTS oracle
    semantics with >= comparisons).

    Physical plan: the local skyline is a COMBINER — a row dominated
    within its batch is dominated globally, so each batch forwards
    only its own frontier. The surviving candidates (typically
    O(log^d n) for independent dims) collect to the driver for the
    final exact pass; if the corpus is adversarially frontier-heavy
    and candidates exceed ``max_collect``, this raises loud rather
    than silently truncating."""
    if maximize is None:
        maximize = [True] * len(cols)
    if len(maximize) != len(cols):
        raise ValueError("maximize must align with cols")
    sign = np.array([1.0 if m else -1.0 for m in maximize])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[cols].notna().all(axis=1)]
        if not len(b):
            return b
        vals = b[cols].to_numpy(np.float64) * sign
        return b[_local_skyline_keep(vals)]

    cand = (ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
            .to_pandas())
    if len(cand) > max_collect:
        raise RuntimeError(
            f"skyline candidate set ({len(cand)} rows) exceeds "
            f"max_collect={max_collect}; the frontier itself is "
            "corpus-sized — raise max_collect or reduce dimensions")
    if not len(cand):
        return cand.reset_index(drop=True)
    vals = cand[cols].to_numpy(np.float64) * sign
    return (cand[_local_skyline_keep(vals)]
            .sort_values(cols).reset_index(drop=True))


def corr_by(ds, by: str, x_col: str, y_col: str,
            num_buckets: int = 32) -> pd.DataFrame:
    """Per-group Pearson correlation of two numeric columns —
    SQL ``corr(x, y) GROUP BY key`` as an ALGEBRAIC aggregate: six
    sufficient statistics per (group, batch) ride the slim
    ``grouped_agg`` shuffle, the division happens once per group.
    Rows with NULL in either column are excluded pairwise (SQL corr
    semantics); groups with < 2 rows or zero variance yield NaN."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[x_col].notna() & b[y_col].notna()]
        x = b[x_col].to_numpy(np.float64)
        y = b[y_col].to_numpy(np.float64)
        return pd.DataFrame({by: b[by].to_numpy(),
                             "x": x, "y": y, "xx": x * x,
                             "yy": y * y, "xy": x * y})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"), [by],
                    {"n": (None, "count"), "sx": ("x", "sum"),
                     "sy": ("y", "sum"), "sxx": ("xx", "sum"),
                     "syy": ("yy", "sum"), "sxy": ("xy", "sum")},
                    num_buckets=num_buckets)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(np.float64)
        sx, sy = b["sx"].to_numpy(), b["sy"].to_numpy()
        num = n * b["sxy"].to_numpy() - sx * sy
        vx = n * b["sxx"].to_numpy() - sx * sx
        vy = n * b["syy"].to_numpy() - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where((vx > 0) & (vy > 0) & (n > 1),
                         num / np.sqrt(vx * vy), np.nan)
        return pd.DataFrame({by: b[by].to_numpy(), "corr": r,
                             "n_rows": b["n"].to_numpy(np.int64)})

    return (g.map_batches(fin, batch_format="pandas").to_pandas()
            .sort_values(by).reset_index(drop=True))
