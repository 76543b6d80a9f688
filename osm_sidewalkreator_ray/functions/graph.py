"""Connected components over (src, dst) int64 edges, distributed and
in-process.

The distributed form's one keyed exchange is ``_cogroup``: each input
side is a Dataset plus the key column(s) it is keyed on; a row goes to
bucket ``hash(key) % num_buckets`` (a composite key such as (source,
vertex) XORs its columns' hashes, so (s, v) rows on one side meet
(s, w) rows on another), one groupby by bucket brings every side's
rows of a bucket together, and a per-bucket pandas function gets each
side as its own frame with its own columns. No step holds the full
edge or vertex set in one process, and the label loop keeps its
per-round state as a Dataset (re-bounded by ``_bound_blocks``).

``connected_components``: min-label propagation (the HCC/"hash-to-min"
family: Kang et al. PEGASUS, ICDM'09; Rastogi et al., ICDE'13) — the
canonical way to turn near-dup PAIRS into dedup DECISIONS (keep one
representative per duplicate cluster). It converges in O(component
diameter) rounds (near-dup clusters are shallow — 2-4 rounds in
practice). ``min_label_components`` is the same labelling, in
process, for edge arrays already collected.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data.dataset import MaterializedDataset

_EDGE = {"src": "int64", "dst": "int64"}
_LABEL = {"vertex": "int64", "label": "int64"}


def _to_edge_ds(edges) -> "rd.Dataset":
    if isinstance(edges, pd.DataFrame):
        return rd.from_pandas(edges[["src", "dst"]])
    return edges


def _typed(df: pd.DataFrame, schema: dict) -> pd.DataFrame:
    """``df`` cut to exactly the ``schema`` {column: dtype} columns, in
    that order and with those dtypes; an empty ``df`` may lack them."""
    return pd.DataFrame({c: (df[c].to_numpy(t) if len(df)
                             else np.empty(0, t))
                         for c, t in schema.items()})


def _cogroup(sides, fn, num_buckets: int, out: dict) -> "rd.Dataset":
    """Bucketed co-group: the module's one keyed exchange.

    ``sides`` is a sequence of (Dataset, key, cols) — ``key`` one
    column or a tuple of columns (hashed with XOR), ``cols`` the
    side's own {column: dtype}. Rows are tagged with their side and
    their bucket and laid out from ``cols`` alone, so no input schema
    is ever read (reading one re-runs a lazy input's upstream
    shuffles). One groupby by bucket then calls
    ``fn(frame_0, frame_1, ...)`` per bucket: each frame holds that
    side's rows under its own columns and dtypes, and is empty but
    typed where the side has no row in the bucket. ``fn``'s result is
    cast to ``out`` {column: dtype}. When every side is a materialized
    empty Dataset (a metadata-only check) the result is a typed empty
    Dataset; a lazy input that turns out empty gives no block, since
    a typed empty block joined to every result would add a block to
    each downstream shuffle (measured on a multi-round loop: 1.7x
    slower)."""
    side_cols = [cols for _, _, cols in sides]
    layout = [(i, c, np.dtype(t)) for i, cols in enumerate(side_cols)
              for c, t in cols.items()]

    def tag(b: pd.DataFrame, i: int, key) -> pd.DataFrame:
        keys = (key,) if isinstance(key, str) else key
        h = functools.reduce(np.bitwise_xor, (
            pd.util.hash_array(b[k].to_numpy(np.int64)) for k in keys))
        n = len(b)
        row = {"__b": (h % num_buckets).astype(np.int64),
               "__s": np.full(n, i, dtype=np.int8)}
        for j, c, t in layout:
            row[f"{j}.{c}"] = b[c].to_numpy(t) if j == i else np.zeros(n, t)
        return pd.DataFrame(row)

    def run(g: pd.DataFrame) -> pd.DataFrame:
        s = g["__s"].to_numpy()
        frames = [pd.DataFrame({c: g[f"{i}.{c}"].to_numpy()[s == i]
                                for c in cols})
                  for i, cols in enumerate(side_cols)]
        return _typed(fn(*frames), out)

    if all(isinstance(ds, MaterializedDataset) and ds.count() == 0
           for ds, _, _ in sides):
        # no bucket would run, so no block would carry the schema
        return rd.from_pandas(_typed(pd.DataFrame(), out))
    tagged = [ds.map_batches(functools.partial(tag, i=i, key=key),
                             batch_format="pandas")
              for i, (ds, key, _) in enumerate(sides)]
    rows = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return rows.groupby("__b").map_groups(run, batch_format="pandas")


def _both_ways(b: pd.DataFrame) -> pd.DataFrame:
    """Both orientations of every (src, dst) edge row of a batch."""
    s = b["src"].to_numpy(np.int64)
    d = b["dst"].to_numpy(np.int64)
    return pd.DataFrame({"src": np.concatenate([s, d]),
                         "dst": np.concatenate([d, s])})


def _vertices_of(edges) -> "rd.Dataset":
    """Distinct endpoints of an edge Dataset/DataFrame as a
    materialized (vertex) Dataset (native groupby, no Python/row)."""
    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                      b["dst"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    return (_to_edge_ds(edges).map_batches(endpoints,
                                           batch_format="pandas")
            .groupby("vertex").count()
            .map_batches(lambda b: pd.DataFrame(
                {"vertex": b["vertex"].to_numpy(np.int64)}),
                batch_format="pandas").materialize())


def _own_labels(vertices) -> "rd.Dataset":
    """(vertex, label = vertex) for a (vertex) Dataset, materialized."""
    return vertices.map_batches(
        lambda b: pd.DataFrame({"vertex": b["vertex"].to_numpy(np.int64),
                                "label": b["vertex"].to_numpy(np.int64)}),
        batch_format="pandas").materialize()


def _bound_blocks(ds, num_buckets: int):
    """Re-bound a materialized per-round dataset to ``num_buckets``
    blocks when its block count drifts past 2x that (metadata-only
    check, so free when nothing is wrong).

    The label loop rebuilds round state as
    co-group(static edges, last round's state) -> materialize, and a
    groupby's output block count tracks its INPUT block count — so
    state blocks grow by the edge block count every round (and
    multiplicatively when a round unions several state-derived sets:
    measured 3 -> 15 -> 63 -> 255 -> 1023 blocks across 5 rounds
    before this guard existed). Unbounded block counts stall
    the scheduler on per-block fixed costs long before data volume
    matters — at any scale, because the blocks are mostly empty."""
    if ds.num_blocks() > 2 * num_buckets:
        return ds.repartition(num_buckets).materialize()
    return ds


def _multiset_sig(ds, cols: tuple) -> tuple:
    """Order-insensitive signature of a Dataset's rows over ``cols``:
    (row count, wrapped mod-2^64 sum of avalanche row hashes). Used as
    the fixpoint test of the min-label loop. A missed change
    requires the hash-sum delta to be exactly 0 mod 2^64 (~2^-64 per
    round) — unlike a raw label-value sum, which collides
    DETERMINISTICALLY on structured values (four labels dropping
    from 2^62 to 0 shift the sum by exactly 2^64, reading as
    'converged' while labels still move)."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(b[cols[0]].to_numpy(np.int64))
        for i, c in enumerate(cols[1:], 1):
            hc = pd.util.hash_array(b[c].to_numpy(np.int64))
            r = np.uint64(i)
            h = h ^ ((hc << r) | (hc >> (np.uint64(64) - r)))
        # signed-int64 VIEW of the wrapped uint64 sum: a raw uint64
        # partial above 2^63 would make Ray harmonize mixed
        # int64/uint64 blocks to float64, silently rounding the
        # signature and making it partitioning-dependent
        s = h.sum(dtype=np.uint64).astype(np.int64)
        return pd.DataFrame({"n": [len(b)], "s": [int(s)]})

    mm = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if mm.empty:
        return (0, 0)
    return (int(mm["n"].sum()),
            sum(int(v) for v in mm["s"]) % (1 << 64))


def _minlabel_fixpoint(edge_rows, labels, num_buckets: int,
                       max_iters: int):
    """Min-label propagation along the DIRECTED (src, dst) edge rows
    from a materialized (vertex, label) Dataset covering every vertex:
    each round relabels every dst with the min over its in-neighbors'
    labels and its own. Returns the fixpoint labels, or None when
    ``max_iters`` rounds do not reach it."""
    def propagate(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        cand = (e.merge(lab, left_on="src", right_on="vertex")
                .groupby("dst", as_index=False)["label"].min()
                .rename(columns={"dst": "vertex"}))
        return pd.concat([lab, cand], ignore_index=True)

    def as_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vertex": b["vertex"].to_numpy().astype(np.int64),
            "label": b["min(label)"].to_numpy().astype(np.int64)})

    prev = None
    for _ in range(max_iters):
        # candidate labels for a vertex arrive from every bucket its
        # in-neighbors hash to — a native keyed min makes them global
        # (not a Python fn per vertex group: one call per vertex)
        labels = _bound_blocks(
            _cogroup([(edge_rows, "src", _EDGE),
                      (labels, "vertex", _LABEL)],
                     propagate, num_buckets, _LABEL)
            .groupby("vertex").min("label")
            .map_batches(as_labels, batch_format="pandas")
            .materialize(), num_buckets)
        s = _multiset_sig(labels, ("vertex", "label"))
        if s == prev:
            return labels
        prev = s
    return None


def connected_components_ds(edges, num_buckets: int = 32,
                            max_iters: int = 50) -> "rd.Dataset":
    """Edges (src, dst int64 Dataset or DataFrame) -> components, as a
    streaming DATASET of one row per vertex: (vertex, component) with
    ``component = min vertex id of its connected component``. At
    corpus scale the per-vertex result is itself corpus-sized (one
    row per document in a dedup closure), so it must compose into the
    next stage — a keep-representative join, a parquet write — without
    a driver collect; ``connected_components`` is the thin collecting
    wrapper for small graphs and the SQL oracles.

    Each round co-groups the slim (vertex, label) rows with the
    undirected edge list keyed on its source endpoint; the
    order-insensitive ``_multiset_sig`` of the labels (labels only
    ever decrease) detects the fixpoint.
    """
    edge_rows = _to_edge_ds(edges).map_batches(
        _both_ways, batch_format="pandas").materialize()
    if edge_rows.count() == 0:
        return rd.from_pandas(pd.DataFrame(
            {"vertex": pd.Series([], dtype="int64"),
             "component": pd.Series([], dtype="int64")}))

    labels = _minlabel_fixpoint(edge_rows,
                                _own_labels(_vertices_of(edge_rows)),
                                num_buckets, max_iters)
    if labels is None:
        # min-label propagation needs O(diameter) rounds; silently
        # returning here would SPLIT any component whose diameter
        # exceeds max_iters (e.g. a >max_iters-long chain of templated
        # near-dup pages) into several keep-representatives. Fail loud;
        # callers with pathological chains should raise max_iters (or
        # switch to a hash-to-min / pointer-doubling variant, Rastogi
        # et al. ICDE'13, whose rounds scale with log diameter).
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "iterations (component diameter exceeds max_iters); "
            "raise max_iters")
    return labels.map_batches(
        lambda b: b.rename(columns={"label": "component"}),
        batch_format="pandas")


def connected_components(edges, num_buckets: int = 32,
                         max_iters: int = 50) -> pd.DataFrame:
    """Collecting wrapper over ``connected_components_ds`` (sorted by
    vertex) — for small graphs, tests and the DuckDB oracles; corpus-
    scale callers compose the Dataset form instead."""
    ds = connected_components_ds(edges, num_buckets=num_buckets,
                                 max_iters=max_iters)
    df = ds.to_pandas()
    if df.empty:  # to_pandas of an all-empty Dataset has no columns
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "component": pd.Series([], dtype="int64")})
    return df.sort_values("vertex").reset_index(drop=True)


def min_label_components(src, dst) -> pd.DataFrame:
    """In-process ``connected_components`` for edge arrays ALREADY on
    the driver (e.g. collected near-dup pairs): same (vertex,
    component = min vertex id) frame, sorted by vertex. Min-label
    hooking over the edge arrays plus one pointer jump per round, on
    dense vertex indices (ascending, so min index == min id) — no
    shuffle, no Ray execution."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    verts, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    a, b = idx[:len(src)], idx[len(src):]
    lab = np.arange(len(verts))
    while True:
        m = np.minimum(lab[a], lab[b])
        new = lab.copy()
        np.minimum.at(new, a, m)
        np.minimum.at(new, b, m)
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    return pd.DataFrame({"vertex": verts, "component": verts[lab]})
