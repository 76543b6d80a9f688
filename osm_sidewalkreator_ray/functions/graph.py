"""Distributed iterative graph operators.

``connected_components``: min-label propagation over an edge Dataset
(the HCC/"hash-to-min" family: Kang et al. PEGASUS, ICDM'09;
Rastogi et al., ICDE'13) —
the canonical way to turn near-dup PAIRS into dedup DECISIONS (keep
one representative per duplicate cluster). Each iteration is one
bucketed shuffle of slim (vertex, label) rows; no step ever holds the
full edge set or label set in one process, so the op scales with the
cluster, and converges in O(component diameter) rounds (near-dup
clusters are shallow — 2-4 rounds in practice).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import ray
import ray.data as rd


def _to_edge_ds(edges) -> "rd.Dataset":
    if isinstance(edges, pd.DataFrame):
        return rd.from_pandas(edges[["src", "dst"]])
    return edges


def _bound_blocks(ds, num_buckets: int):
    """Re-bound a materialized per-round dataset to ``num_buckets``
    blocks when its block count drifts past 2x that (metadata-only
    check, so free when nothing is wrong).

    Every iterative loop here rebuilds round state as
    union(static edges, last round's state) -> groupby -> materialize,
    and a groupby's output block count tracks its INPUT block count —
    so state blocks grow by the edge block count every round (and
    multiplicatively when a round unions several state-derived sets:
    measured 3 -> 15 -> 63 -> 255 -> 1023 blocks across 5 coloring
    rounds before this guard existed). Unbounded block counts stall
    the scheduler on per-block fixed costs long before data volume
    matters — at any scale, because the blocks are mostly empty."""
    if ds.num_blocks() > 2 * num_buckets:
        return ds.repartition(num_buckets).materialize()
    return ds


def _multiset_sig(ds, cols: tuple) -> tuple:
    """Order-insensitive signature of a Dataset's rows over ``cols``:
    (row count, wrapped mod-2^64 sum of avalanche row hashes). Used as
    the fixpoint test of the iterative label loops. A missed change
    requires the hash-sum delta to be exactly 0 mod 2^64 (~2^-64 per
    round) — unlike a raw label-value sum, which collides
    DETERMINISTICALLY on structured values (four vertices dropping
    from the 2^62 INF sentinel to label 0 shift the sum by exactly
    2^64, reading as 'converged' while labels still move)."""
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

    Physical plan per iteration: labels are bucketed by
    ``hash(vertex) % B``; the (undirected) edge list is bucketed the
    same way ON ITS SOURCE endpoint once, up front. One groupby brings
    a bucket's labels and edges together, where a vectorized pandas
    merge relabels each destination with the min over incoming source
    labels. A driver-side sum of labels (one tiny aggregate; labels
    only ever decrease) detects the fixpoint.
    """
    edges = _to_edge_ds(edges)

    def undirect(b: pd.DataFrame) -> pd.DataFrame:
        src = np.concatenate([b["src"].to_numpy(), b["dst"].to_numpy()])
        dst = np.concatenate([b["dst"].to_numpy(), b["src"].to_numpy()])
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(src) % num_buckets)
            .astype(np.int64),
            "src": src.astype(np.int64), "dst": dst.astype(np.int64),
            "label": np.full(len(src), -1, dtype=np.int64),
            "is_edge": np.ones(len(src), dtype=bool)})

    edge_rows = edges.map_batches(undirect,
                                  batch_format="pandas").materialize()
    if edge_rows.count() == 0:
        return rd.from_pandas(pd.DataFrame(
            {"vertex": pd.Series([], dtype="int64"),
             "component": pd.Series([], dtype="int64")}))

    def init_labels(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(),
                                      b["dst"].to_numpy()]))
        return pd.DataFrame({"vertex": v, "label": v})

    def _as_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vertex": b["vertex"].to_numpy().astype(np.int64),
            "label": b["min(label)"].to_numpy().astype(np.int64)})

    # native vectorized groupby-min (NOT map_groups: that would cost
    # one Python call per vertex)
    labels = (edge_rows.map_batches(init_labels, batch_format="pandas")
              .groupby("vertex").min("label")
              .map_batches(_as_labels, batch_format="pandas")
              .materialize())

    def tag_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(b["vertex"].to_numpy())
                       % num_buckets).astype(np.int64),
            "src": b["vertex"].to_numpy(),
            "dst": np.full(len(b), -1, dtype=np.int64),
            "label": b["label"].to_numpy(),
            "is_edge": np.zeros(len(b), dtype=bool)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lab = g.loc[~g["is_edge"], ["src", "label"]] \
            .rename(columns={"src": "vertex"})
        e = g.loc[g["is_edge"], ["src", "dst"]]
        prop = e.merge(lab, left_on="src", right_on="vertex")
        cand = (prop.groupby("dst", as_index=False)["label"].min()
                .rename(columns={"dst": "vertex"}))
        return pd.concat([lab, cand], ignore_index=True)

    prev_sum = None
    converged = False
    for _ in range(max_iters):
        tagged = labels.map_batches(tag_labels, batch_format="pandas")
        merged = (edge_rows.union(tagged).groupby("bucket")
                  .map_groups(propagate, batch_format="pandas"))
        # candidate labels for a vertex arrive from every bucket its
        # neighbors hash to — a second keyed min makes them global
        labels = _bound_blocks(
            merged.groupby("vertex").min("label")
            .map_batches(_as_labels, batch_format="pandas")
            .materialize(), num_buckets)
        s = _multiset_sig(labels, ("vertex", "label"))
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
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
    if df.empty:  # from_pandas of an empty frame drops the schema
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


def pagerank_ds(edges, damping: float = 0.85, iters: int = 20,
                num_buckets: int = 32, weight_col: str | None = None,
                personalization: dict | None = None) -> "rd.Dataset":
    """Distributed PageRank over a directed edge Dataset/DataFrame
    (src, dst int64) — the canonical iterative graph op beside
    ``connected_components`` (PEGASUS, Kang et al. ICDM'09: PR as
    repeated sparse matvec). Returns a streaming DATASET of
    (vertex, rank) rows (ranks sum to 1) — per-vertex output is
    host-count-sized at web scale, so it composes into a join or a
    parquet write without a driver collect; ``pagerank`` is the
    collecting wrapper.

    Physical plan: edge rows carry ``w = 1/outdeg(src)`` and are
    bucketed by ``hash(src) % B`` ONCE up front; each iteration is
    exactly TWO shuffles: (a) co-group current (vertex, rank) rows
    into the edge buckets and emit per-bucket PRE-SUMMED
    (dst, contrib) partials, (b) union those with static per-vertex
    ZERO rows (so every vertex — including ones with no in-edges —
    appears in the result) and run one grouped sum by dst; the new
    rank is then a plain streaming map over that vertex-sized slim
    aggregate, (1-d)/N + d*(in_sum + dangling/N) — no third co-group.
    The dangling mass needs NO flags or extra pass: outgoing mass
    conservation gives dangling = sum(ranks) - sum(contribs), a
    scalar the driver reads from one tiny aggregate over rows it
    already materialized. Per-iteration driver state is O(1);
    shuffled rows are always slim (id, float) pairs, never the edge
    payload.

    ``weight_col`` names an edge-weight column: contributions become
    w/Σw_out(src) instead of 1/outdeg. ``personalization`` is a small
    {vertex: mass} restart distribution (normalized here; seed sets
    are small by nature, so it broadcasts as one ``ray.put`` dict):
    teleport AND dangling mass land on the seeds instead of uniformly
    — personalized PageRank (Jeh-Widom WWW'03 random-walk-with-
    restart semantics)."""
    edges = _to_edge_ds(edges)

    def tag_edges(b: pd.DataFrame) -> pd.DataFrame:
        src = b["src"].to_numpy(np.int64)
        w = (b[weight_col].to_numpy(np.float64) if weight_col
             else np.ones(len(b), dtype=np.float64))
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(src) % num_buckets)
            .astype(np.int64),
            "src": src, "dst": b["dst"].to_numpy(np.int64),
            "val": w,
            "is_edge": np.ones(len(b), dtype=bool)})

    edge_rows = edges.map_batches(tag_edges,
                                  batch_format="pandas").materialize()
    if edge_rows.count() == 0:
        return rd.from_pandas(pd.DataFrame(
            {"vertex": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="float64")}))

    # out-weight sums -> edge factor w/Σw, attached once (static)
    def partial_deg(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["bucket", "src"], as_index=False) \
            .agg(deg=("val", "sum"))
        return g

    def fold_deg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("src", as_index=False)["deg"].sum() \
            .assign(bucket=g["bucket"].iloc[0])

    degs = (edge_rows.map_batches(partial_deg, batch_format="pandas")
            .groupby("bucket").map_groups(fold_deg,
                                          batch_format="pandas"))

    def weight_edges(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["is_edge"]]
        d = g.loc[~g["is_edge"], ["src", "val"]] \
            .rename(columns={"val": "inv"})
        out = e.merge(d, on="src")
        out["val"] = out["val"].to_numpy(np.float64) \
            * out["inv"].to_numpy(np.float64)
        return out[["bucket", "src", "dst", "val", "is_edge"]]

    deg_rows = degs.map_batches(
        lambda b: pd.DataFrame({
            "bucket": b["bucket"].to_numpy(np.int64),
            "src": b["src"].to_numpy(np.int64),
            "dst": np.full(len(b), -1, dtype=np.int64),
            "val": 1.0 / b["deg"].to_numpy(np.float64),
            "is_edge": np.zeros(len(b), dtype=bool)}),
        batch_format="pandas")
    weighted = (edge_rows.union(deg_rows).groupby("bucket")
                .map_groups(weight_edges,
                            batch_format="pandas").materialize())

    # vertex set = distinct endpoints (native groupby, no Python/row)
    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                      b["dst"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    vertices = (edge_rows.map_batches(endpoints, batch_format="pandas")
                .groupby("vertex").count()
                .map_batches(lambda b: pd.DataFrame(
                    {"vertex": b["vertex"].to_numpy(np.int64)}),
                    batch_format="pandas").materialize())
    n = vertices.count()

    if personalization:
        tot = float(sum(personalization.values()))
        sk = np.sort(np.array(list(personalization), dtype=np.int64))
        sv = np.array([float(personalization[int(k)]) / tot
                       for k in sk])
        p_ref = ray.put((sk, sv))
    else:
        p_ref = None

    def _seed_mass(v: np.ndarray) -> np.ndarray:
        # vectorized sparse lookup: sorted seed keys + searchsorted
        sk_, sv_ = ray.get(p_ref)
        idx = np.searchsorted(sk_, v).clip(0, len(sk_) - 1)
        return np.where(sk_[idx] == v, sv_[idx], 0.0)

    def init_rank(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        r = (_seed_mass(v) if p_ref is not None
             else np.full(len(v), 1.0 / n, dtype=np.float64))
        return pd.DataFrame({"vertex": v, "rank": r})

    ranks = vertices.map_batches(init_rank,
                                 batch_format="pandas").materialize()

    def tag_ranks(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "src": v, "dst": np.full(len(b), -1, dtype=np.int64),
            "val": b["rank"].to_numpy(np.float64),
            "is_edge": np.zeros(len(b), dtype=bool)})

    def contribute(g: pd.DataFrame) -> pd.DataFrame:
        r = g.loc[~g["is_edge"], ["src", "val"]] \
            .rename(columns={"val": "r"})
        e = g.loc[g["is_edge"], ["src", "dst", "val"]]
        m = e.merge(r, on="src")
        m["c"] = m["val"] * m["r"]
        # pre-sum inside the bucket: one slim row per dst leaves it
        return m.groupby("dst", as_index=False)["c"].sum()

    from .aggregates import grouped_agg

    # static zero rows: every vertex appears in each iteration's
    # grouped sum even with no in-edges, so the re-rank is a plain
    # map (no vertex/contrib co-group)
    zero_rows = vertices.map_batches(
        lambda b: pd.DataFrame({
            "dst": b["vertex"].to_numpy(np.int64),
            "c": np.zeros(len(b), dtype=np.float64)}),
        batch_format="pandas").materialize()

    for _ in range(iters):
        tagged = ranks.map_batches(tag_ranks, batch_format="pandas")
        insums = _bound_blocks(grouped_agg(
            weighted.union(tagged).groupby("bucket")
            .map_groups(contribute, batch_format="pandas")
            .union(zero_rows),
            ["dst"], {"c": ("c", "sum")}).materialize(), num_buckets)
        total_in = insums.sum("c") if insums.count() else 0.0
        dangling = max(0.0, 1.0 - float(total_in))

        def new_rank(b: pd.DataFrame, _n=n, _d=damping,
                     _dang=dangling, _p=p_ref) -> pd.DataFrame:
            v = b["dst"].to_numpy(np.int64)
            base = (_seed_mass(v) if _p is not None
                    else np.full(len(v), 1.0 / _n))
            return pd.DataFrame({
                "vertex": v,
                "rank": (1.0 - _d) * base
                + _d * (b["c"].to_numpy(np.float64) + _dang * base)})

        ranks = insums.map_batches(new_rank, batch_format="pandas")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vertex": b["vertex"].to_numpy(np.int64),
            "rank": b["rank"].to_numpy(np.float64)})

    return ranks.map_batches(finish, batch_format="pandas")


def pagerank(edges, damping: float = 0.85, iters: int = 20,
             num_buckets: int = 32, weight_col: str | None = None,
             personalization: dict | None = None) -> pd.DataFrame:
    """Collecting wrapper over ``pagerank_ds`` (sorted by vertex) —
    for small graphs, tests and oracles."""
    ds = pagerank_ds(edges, damping=damping, iters=iters,
                     num_buckets=num_buckets, weight_col=weight_col,
                     personalization=personalization)
    df = ds.to_pandas()
    if df.empty:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="float64")})
    return df.sort_values("vertex").reset_index(drop=True)


# ------------------------------------- label propagation communities
#
# Synchronous LPA (Raghavan et al. 2007, Phys. Rev. E 76): every
# vertex simultaneously adopts the most frequent label among its
# neighbors, ties to the SMALLEST label — fully deterministic, so the
# distributed run equals a local reference under any partitioning
# (async scan-order LPA is not reproducible; fixed synchronous rounds
# are the distributed convention). Each round is the pagerank shuffle
# shape: labels co-group into hash(src)-bucketed adjacency, per-bucket
# PRE-COUNTED (dst, label, n) partials, one grouped argmax by dst.
# Isolated vertices keep their own id as label.


def label_propagation_ds(edges, iters: int = 5,
                         num_buckets: int = 32) -> "rd.Dataset":
    """(vertex, community) after ``iters`` synchronous rounds over the
    UNDIRECTED view of (src, dst) edges, as a streaming DATASET (the
    per-vertex community map is corpus-sized at web scale;
    ``label_propagation`` is the collecting wrapper).

    Known synchronous-LPA property (Raghavan §IV): bipartite-ish
    structures — e.g. an isolated edge pair — oscillate (the two
    endpoints swap labels each round) and never merge; that is the
    correct fixed-round synchronous semantics, pinned by the
    local-reference equality test. For pure merge-connected semantics
    use ``connected_components``; LPA's value is density-based
    community splits inside connected structures."""
    edges = _to_edge_ds(edges)

    def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        src = np.concatenate([s, d])
        dst = np.concatenate([d, s])
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(src) % num_buckets)
            .astype(np.int64),
            "src": src, "dst": dst,
            "label": np.zeros(len(src), dtype=np.int64),
            "is_edge": np.ones(len(src), dtype=bool)})

    edge_rows = edges.map_batches(both_dirs,
                                  batch_format="pandas").materialize()
    labels = edge_rows.map_batches(
        lambda b: (lambda v: pd.DataFrame({"vertex": v, "label": v}))(
            np.unique(np.concatenate(
                [b["src"].to_numpy(np.int64),
                 b["dst"].to_numpy(np.int64)]))),
        batch_format="pandas").groupby("vertex").min("label")
    labels = labels.map_batches(
        lambda b: pd.DataFrame({"vertex": b["vertex"].to_numpy(np.int64),
                                "label": b["min(label)"]
                                .to_numpy(np.int64)}),
        batch_format="pandas").materialize()

    for _ in range(iters):
        def lab_rows_of(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": (pd.util.hash_array(v) % num_buckets)
                .astype(np.int64),
                "src": v, "dst": np.zeros(len(v), dtype=np.int64),
                "label": b["label"].to_numpy(np.int64),
                "is_edge": np.zeros(len(v), dtype=bool)})

        lab_rows = labels.map_batches(lab_rows_of,
                                      batch_format="pandas")

        def contribs(g: pd.DataFrame) -> pd.DataFrame:
            e = g[g["is_edge"]]
            l = g[~g["is_edge"]]
            m = e.merge(l[["src", "label"]], on="src",
                        suffixes=("", "_cur"))
            out = (m.groupby(["dst", "label_cur"], sort=False)
                   .size().reset_index(name="n"))
            return out.rename(columns={"label_cur": "label"})

        cnt = (edge_rows.union(lab_rows).groupby("bucket")
               .map_groups(contribs, batch_format="pandas"))

        # fallback n=0 rows: a vertex with no neighbor contribution
        # (isolated / filtered) keeps its CURRENT label — loses every
        # tie against a real neighbor count, so semantics unchanged.
        # Driver state stays O(1): labels never leave the cluster.
        fallback = labels.map_batches(
            lambda b: pd.DataFrame({
                "dst": b["vertex"].to_numpy(np.int64),
                "label": b["label"].to_numpy(np.int64),
                "n": np.zeros(len(b), dtype=np.int64)}),
            batch_format="pandas")

        def fold(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__vb"] = (pd.util.hash_array(
                b["dst"].to_numpy(np.int64))
                % num_buckets).astype(np.int64)
            return b

        def argmax(g: pd.DataFrame) -> pd.DataFrame:
            s = (g.groupby(["dst", "label"], sort=False)["n"].sum()
                 .reset_index())
            s = s.sort_values(["dst", "n", "label"],
                              ascending=[True, False, True],
                              kind="mergesort")
            top = s.groupby("dst", sort=False).head(1)
            return pd.DataFrame({
                "vertex": top["dst"].to_numpy(np.int64),
                "label": top["label"].to_numpy(np.int64)})

        labels = _bound_blocks(
            cnt.union(fallback)
            .map_batches(fold, batch_format="pandas")
            .groupby("__vb")
            .map_groups(lambda g: argmax(g.drop(columns="__vb")),
                        batch_format="pandas").materialize(),
            num_buckets)

    return labels.map_batches(
        lambda b: b.rename(columns={"label": "community"}),
        batch_format="pandas")


def label_propagation(edges, iters: int = 5,
                      num_buckets: int = 32) -> pd.DataFrame:
    """Collecting wrapper over ``label_propagation_ds`` (sorted by
    vertex) — for small graphs, tests and oracles."""
    df = label_propagation_ds(edges, iters=iters,
                              num_buckets=num_buckets).to_pandas()
    if df.empty:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "community": pd.Series([], dtype="int64")})
    return df.sort_values("vertex").reset_index(drop=True)


def coreness(edges, num_buckets: int = 32,
             max_iters: int = 100) -> pd.DataFrame:
    """k-core decomposition: the CORENESS of every vertex of an
    undirected simple graph (self-loops dropped, parallel edges
    deduped) — core(v) = the largest k such that v belongs to a
    subgraph where every vertex has degree >= k.

    Distributed as the h-index fixpoint (Lu, Chen, Zhou, Zhang,
    "The H-index of a network node and its relation to degree and
    coreness", Nature Communications 2016): c_0(v) = deg(v), then
    c_{t+1}(v) = H({c_t(u) : u in N(v)}) — the largest h such that
    >= h neighbors currently hold value >= h. The sequence is
    pointwise non-increasing and converges exactly to the coreness,
    so the fixpoint test is one scalar (the value sum) per round.

    Physical plan mirrors ``pagerank``: the directed both-ways edge
    list is bucketed by hash(src) ONCE; each round is exactly two
    slim shuffles — (a) co-group current values into the edge buckets
    and emit (dst, c_src) int pairs, (b) one hash(dst) co-group
    computing the h-index per vertex with a sort-free prefix-count
    (values sorted desc within the group; h = #positions with
    c_i >= rank_i). Static zero rows keep self-loop-only vertices in
    the output (an extra 0 never changes an h-index >= 1). Driver
    state per round is O(1); vertex values stay a Dataset.
    """
    edges = _to_edge_ds(edges)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.concatenate([np.minimum(s, d), np.maximum(s, d)])
        v = np.concatenate([np.maximum(s, d), np.minimum(s, d)])
        df = pd.DataFrame({"src": u, "dst": v}).drop_duplicates()
        df["__b"] = (pd.util.hash_array(df["src"].to_numpy(np.int64))
                     % num_buckets).astype(np.int64)
        df["__kind"] = np.int8(0)
        return df

    # block-local dedup above; exact dedup happens inside the first
    # bucketed co-group below (all copies of an edge share hash(src))
    edir = edges.map_batches(canon, batch_format="pandas").materialize()

    all_verts = (edges.map_batches(
        lambda b: pd.DataFrame(
            {"vertex": np.unique(np.concatenate(
                [b["src"].to_numpy(np.int64),
                 b["dst"].to_numpy(np.int64)]))}),
        batch_format="pandas")
        .groupby("vertex").count()
        .map_batches(lambda b: pd.DataFrame(
            {"vertex": b["vertex"].to_numpy(np.int64)}),
            batch_format="pandas").materialize())

    if all_verts.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "coreness": pd.Series([], dtype="int64")})

    def dedup_and_degree(g: pd.DataFrame) -> pd.DataFrame:
        e = g.drop_duplicates(["src", "dst"])
        deg = e.groupby("src").size()
        return pd.DataFrame({"vertex": deg.index.to_numpy(np.int64),
                             "c": deg.to_numpy(np.int64)})

    values = (edir.groupby("__b")
              .map_groups(dedup_and_degree, batch_format="pandas")
              .materialize())
    if values.count() == 0:
        # only self-loops survive canon: every vertex has coreness 0
        av = all_verts.to_pandas().sort_values("vertex")
        return pd.DataFrame({
            "vertex": av["vertex"].to_numpy(np.int64),
            "coreness": np.zeros(len(av), np.int64)})

    # vertices with no surviving edge (self-loop-only) -> coreness 0
    zeros = all_verts.map_batches(
        lambda b: pd.DataFrame({"vertex": b["vertex"].to_numpy(np.int64),
                                "c": np.zeros(len(b), np.int64)}),
        batch_format="pandas")

    def val_sum(ds) -> tuple:
        st = ds.map_batches(
            lambda b: pd.DataFrame({"n": [len(b)],
                                    "s": [int(b["c"].sum())]}),
            batch_format="pandas").to_pandas()
        return int(st["n"].sum()), int(st["s"].sum())

    def tag_values(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["src"] = b["vertex"].to_numpy(np.int64)
        b["dst"] = np.int64(-1)
        b["__b"] = (pd.util.hash_array(b["src"].to_numpy(np.int64))
                    % num_buckets).astype(np.int64)
        b["__kind"] = np.int8(1)
        return b[["src", "dst", "__b", "__kind", "c"]]

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[g["__kind"] == 1]
        mp = pd.Series(vals["c"].to_numpy(np.int64),
                       index=vals["src"].to_numpy(np.int64))
        e = g[g["__kind"] == 0].drop_duplicates(["src", "dst"])
        c = mp.reindex(e["src"].to_numpy(np.int64)).to_numpy()
        return pd.DataFrame({"dst": e["dst"].to_numpy(np.int64),
                             "c": c.astype(np.int64)})

    def hindex(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dst", "c"], ascending=[True, False])
        rank = g.groupby("dst").cumcount().to_numpy() + 1
        ok = g["c"].to_numpy(np.int64) >= rank
        h = (pd.DataFrame({"dst": g["dst"].to_numpy(np.int64),
                           "ok": ok})
             .groupby("dst")["ok"].sum())
        return pd.DataFrame({"vertex": h.index.to_numpy(np.int64),
                             "c": h.to_numpy(np.int64)})

    prev = val_sum(values)
    converged = False
    for _ in range(max_iters):
        ec = (edir.union(values.map_batches(tag_values,
                                            batch_format="pandas"))
              .groupby("__b").map_groups(attach, batch_format="pandas"))
        contrib = ec.union(zeros.map_batches(
            lambda b: pd.DataFrame(
                {"dst": b["vertex"].to_numpy(np.int64),
                 "c": b["c"].to_numpy(np.int64)}),
            batch_format="pandas"))
        bucketed = contrib.map_batches(
            lambda b: b.assign(
                __b=(pd.util.hash_array(b["dst"].to_numpy(np.int64))
                     % num_buckets).astype(np.int64)),
            batch_format="pandas")
        values = _bound_blocks(
            bucketed.groupby("__b")
            .map_groups(lambda g: hindex(g.drop(columns="__b")),
                        batch_format="pandas").materialize(),
            num_buckets)
        cur = val_sum(values)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        raise RuntimeError(
            f"coreness did not converge in {max_iters} rounds")
    df = values.to_pandas()
    return (pd.DataFrame({"vertex": df["vertex"].to_numpy(np.int64),
                          "coreness": df["c"].to_numpy(np.int64)})
            .sort_values("vertex").reset_index(drop=True))


def hits(edges, iters: int = 20, num_buckets: int = 32) -> pd.DataFrame:
    """HITS hubs & authorities (Kleinberg, JACM'99) over a directed
    edge Dataset/DataFrame (src, dst int64): power iteration of
    a = normalize(A'h), h = normalize(A a) on the 0/1 adjacency
    (parallel edges deduped; self-loops kept — they are legal in
    the model). Returns (vertex, hub, authority) as a pandas
    DataFrame, each column L1-normalized (sums to 1, the same
    normalization applied every half-step, so scores are directly
    comparable across graphs).

    Physical plan (the `pagerank` matvec shape, twice per round):
    the deduped edge set is bucketed ONCE in each direction —
    hash(src) buckets drive the authority update a[dst] += h[src],
    hash(dst) buckets drive the hub update h[src] += a[dst]. Each
    half-step co-groups the current vertex-sized slim (vertex,
    score) rows into the edge buckets, emits per-bucket PRE-SUMMED
    (out, contrib) partials, folds them with one grouped sum (static
    zero rows keep score-less vertices present), and L1-normalizes
    with a scalar the driver reads from one tiny aggregate —
    per-iteration driver state is O(1); shuffled rows are always
    slim (id, float) pairs, never the edge payload."""
    edges = _to_edge_ds(edges)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": b["src"].to_numpy(np.int64),
                            "dst": b["dst"].to_numpy(np.int64)}) \
            .drop_duplicates()
        out["__b"] = ((pd.util.hash_array(out["src"].to_numpy())
                       ^ pd.util.hash_array(out["dst"].to_numpy()))
                      % num_buckets).astype(np.int64)
        return out

    simple = (edges.map_batches(canon, batch_format="pandas")
              .groupby("__b").map_groups(
                  lambda g: g.drop_duplicates(["src", "dst"]),
                  batch_format="pandas").materialize())
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "hub": pd.Series([], dtype="float64"),
                             "authority": pd.Series([], dtype="float64")})

    def directed(key: str, out: str):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            k = b[key].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": (pd.util.hash_array(k) % num_buckets)
                .astype(np.int64),
                "key": k, "out": b[out].to_numpy(np.int64),
                "s": np.ones(len(b), dtype=np.float64),
                "is_edge": np.ones(len(b), dtype=bool)})
        return f

    e_fwd = simple.map_batches(directed("src", "dst"),
                               batch_format="pandas").materialize()
    e_rev = simple.map_batches(directed("dst", "src"),
                               batch_format="pandas").materialize()

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                      b["dst"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    vertices = (simple.map_batches(endpoints, batch_format="pandas")
                .groupby("vertex").count()
                .map_batches(lambda b: pd.DataFrame(
                    {"vertex": b["vertex"].to_numpy(np.int64)}),
                    batch_format="pandas").materialize())
    n = vertices.count()

    zero_rows = vertices.map_batches(
        lambda b: pd.DataFrame({
            "out": b["vertex"].to_numpy(np.int64),
            "c": np.zeros(len(b), dtype=np.float64)}),
        batch_format="pandas").materialize()

    def tag_scores(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "key": v, "out": np.full(len(b), -1, dtype=np.int64),
            "s": b["score"].to_numpy(np.float64),
            "is_edge": np.zeros(len(b), dtype=bool)})

    def contribute(g: pd.DataFrame) -> pd.DataFrame:
        r = g.loc[~g["is_edge"], ["key", "s"]] \
            .rename(columns={"s": "r"})
        e = g.loc[g["is_edge"], ["key", "out"]]
        m = e.merge(r, on="key")
        m["c"] = m["r"]
        return m.groupby("out", as_index=False)["c"].sum()

    from .aggregates import grouped_agg

    def matvec(scores, edge_rows):
        tagged = scores.map_batches(tag_scores, batch_format="pandas")
        sums = _bound_blocks(grouped_agg(
            edge_rows.union(tagged).groupby("bucket")
            .map_groups(contribute, batch_format="pandas")
            .union(zero_rows),
            ["out"], {"c": ("c", "sum")}).materialize(), num_buckets)
        total = float(sums.sum("c"))
        if total <= 0.0:  # unreachable on a nonempty edge set
            raise RuntimeError("HITS mass vanished")
        return sums.map_batches(
            lambda b, _t=total: pd.DataFrame({
                "vertex": b["out"].to_numpy(np.int64),
                "score": b["c"].to_numpy(np.float64) / _t}),
            batch_format="pandas")

    hubs = vertices.map_batches(
        lambda b: pd.DataFrame({
            "vertex": b["vertex"].to_numpy(np.int64),
            "score": np.full(len(b), 1.0 / n)}),
        batch_format="pandas").materialize()

    auths = hubs
    for _ in range(iters):
        auths = matvec(hubs, e_fwd)
        hubs = matvec(auths, e_rev)

    hd = hubs.to_pandas().rename(columns={"score": "hub"})
    ad = auths.to_pandas().rename(columns={"score": "authority"})
    df = hd.merge(ad, on="vertex")
    df["vertex"] = df["vertex"].astype("int64")
    return df.sort_values("vertex").reset_index(drop=True)


def _mis_round_state(simple, num_buckets: int):
    """Shared state for the Luby-family loops: both-direction edge
    rows bucketed by hash of the ATTACH endpoint (so neighbor
    attributes co-group without re-bucketing), plus the vertex set."""
    def both(b: pd.DataFrame) -> pd.DataFrame:
        u = b["u"].to_numpy(np.int64)
        v = b["v"].to_numpy(np.int64)
        a = np.concatenate([u, v])
        bb = np.concatenate([v, u])
        return pd.DataFrame({
            "a": a, "b": bb,
            "bucket": (pd.util.hash_array(bb) % num_buckets)
            .astype(np.int64)})

    adj = simple.map_batches(both, batch_format="pandas").materialize()

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["u"].to_numpy(np.int64),
                                      b["v"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    vertices = (simple.map_batches(endpoints, batch_format="pandas")
                .groupby("vertex").count()
                .map_batches(lambda b: pd.DataFrame(
                    {"vertex": b["vertex"].to_numpy(np.int64)}),
                    batch_format="pandas").materialize())
    return adj, vertices


def _prio(v: np.ndarray, rnd: int, seed: int) -> np.ndarray:
    """Deterministic per-(vertex, round) priority — identical on every
    worker for the same inputs, fresh each round so a stalled hash
    tie (neither endpoint joins under strict <) resolves next round."""
    salt = np.uint64(((rnd + 1) * 0x9E3779B97F4A7C15 + seed)
                     % (1 << 64))
    return pd.util.hash_array(
        np.ascontiguousarray(v, dtype=np.int64).view(np.uint64)
        ^ salt)


def maximal_independent_set(edges, num_buckets: int = 32,
                            max_iters: int = 100,
                            seed: int = 0) -> pd.DataFrame:
    """Maximal independent set of the undirected simple graph spanned
    by (src, dst) — Luby's algorithm (SIAM J. Comput. 1986) with
    deterministic hash priorities: each round, an undecided vertex
    joins the MIS iff its priority is STRICTLY below every undecided
    neighbor's (hash ties stall that edge one round and re-draw);
    neighbors of joiners leave the graph. Self-loops are dropped (a
    self-adjacent vertex has no consistent MIS semantics; this
    matches computing the MIS of the underlying simple graph minus
    loop vertices' loops). Returns (vertex, in_mis) for every vertex,
    deterministic for a given seed regardless of partitioning.

    Each round is a constant number of slim bucketed co-groups
    (attach neighbor priorities + grouped min, winner test, dominate
    neighbors, shrink the undecided set) — no step holds the vertex
    or edge set in one process; O(log n) expected rounds."""
    edges = _to_edge_ds(edges)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        out = pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()
        out["__b"] = ((pd.util.hash_array(out["u"].to_numpy())
                       ^ pd.util.hash_array(out["v"].to_numpy()))
                      % num_buckets).astype(np.int64)
        return out

    simple = (edges.map_batches(canon, batch_format="pandas")
              .groupby("__b").map_groups(
                  lambda g: g.drop_duplicates(["u", "v"]),
                  batch_format="pandas").materialize())
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "in_mis": pd.Series([], dtype=bool)})

    adj, vertices = _mis_round_state(simple, num_buckets)
    undec = vertices
    in_parts: list[pd.DataFrame] = []  # O(|MIS|) driver rows total

    from .aggregates import grouped_agg

    for rnd in range(max_iters):
        n_undec = undec.count()
        if n_undec == 0:
            break

        def tag_prio(b: pd.DataFrame, _r=rnd) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": (pd.util.hash_array(v) % num_buckets)
                .astype(np.int64),
                "b": v, "p": _prio(v, _r, seed)})

        prio_rows = undec.map_batches(tag_prio,
                                      batch_format="pandas") \
            .materialize()

        # min undecided-neighbor priority per vertex (matvec-min)
        def nbr_min(g: pd.DataFrame) -> pd.DataFrame:
            pr = g.loc[~g["is_edge"], ["b", "p"]]
            e = g.loc[g["is_edge"], ["a", "b"]]
            m = e.merge(pr, on="b")
            if not len(m):
                return pd.DataFrame({
                    "vertex": pd.Series([], dtype="int64"),
                    "mn": pd.Series([], dtype="uint64")})
            r = m.groupby("a", as_index=False)["p"].min()
            return pd.DataFrame({
                "vertex": r["a"].to_numpy(np.int64),
                "mn": r["p"].to_numpy(np.uint64)})

        def pad_edge(b: pd.DataFrame) -> pd.DataFrame:
            b = b[["bucket", "a", "b"]].copy()
            b["p"] = np.uint64(0)
            b["is_edge"] = True
            return b

        def pad_prio(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"bucket": b["bucket"],
                                 "a": np.int64(0),
                                 "b": b["b"], "p": b["p"],
                                 "is_edge": np.zeros(len(b),
                                                     dtype=bool)})

        mins = grouped_agg(
            adj.map_batches(pad_edge, batch_format="pandas")
            .union(prio_rows.map_batches(pad_prio,
                                         batch_format="pandas"))
            .groupby("bucket").map_groups(nbr_min,
                                          batch_format="pandas"),
            ["vertex"], {"mn": ("mn", "min")},
            num_buckets=num_buckets)

        # winner test: own prio strictly below the neighbor min;
        # vertices with NO undecided neighbor join unconditionally
        def tag_min(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": (pd.util.hash_array(v) % num_buckets)
                .astype(np.int64),
                "b": v, "p": b["mn"].to_numpy(np.uint64),
                "is_min": np.ones(len(b), dtype=bool)})

        def decide(g: pd.DataFrame, _r=rnd) -> pd.DataFrame:
            own = g.loc[~g["is_min"], ["b", "p"]]
            mn = g.loc[g["is_min"], ["b", "p"]] \
                .rename(columns={"p": "mn"})
            m = own.merge(mn, on="b", how="left")
            win = m["mn"].isna() | (m["p"] < m["mn"])
            return pd.DataFrame({
                "vertex": m.loc[win, "b"].to_numpy(np.int64)})

        winners = _bound_blocks(prio_rows.map_batches(
            lambda b: b.assign(is_min=False), batch_format="pandas")
            .union(mins.map_batches(tag_min, batch_format="pandas"))
            .groupby("bucket").map_groups(decide,
                                          batch_format="pandas")
            .materialize(), num_buckets)
        w_df = winners.to_pandas()  # per-round driver rows; the final
        # return is vertex-sized pandas anyway (repo convention for
        # per-vertex graph results)
        if not len(w_df):
            continue  # full-round hash-tie stall: re-draw next round
        in_parts.append(w_df)

        # dominate: neighbors of winners leave; winners leave too
        def tag_w(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": (pd.util.hash_array(v) % num_buckets)
                .astype(np.int64),
                "a": np.int64(0), "b": v, "p": np.uint64(1),
                "is_edge": np.zeros(len(b), dtype=bool)})

        def dominated(g: pd.DataFrame) -> pd.DataFrame:
            wv = g.loc[~g["is_edge"], ["b"]]
            e = g.loc[g["is_edge"], ["a", "b"]]
            m = e.merge(wv, on="b")
            v = np.unique(m["a"].to_numpy(np.int64))
            return pd.DataFrame({"vertex": v})

        gone = (adj.map_batches(pad_edge, batch_format="pandas")
                .union(winners.map_batches(tag_w,
                                           batch_format="pandas"))
                .groupby("bucket").map_groups(dominated,
                                              batch_format="pandas")
                .union(winners)
                .map_batches(lambda b: pd.DataFrame({
                    "vertex": b["vertex"].to_numpy(np.int64),
                    "g": np.ones(len(b), dtype=bool),
                    "bucket": (pd.util.hash_array(
                        b["vertex"].to_numpy(np.int64)) % num_buckets)
                    .astype(np.int64)}), batch_format="pandas"))

        def shrink(g: pd.DataFrame) -> pd.DataFrame:
            dead = g.loc[g["g"], "vertex"]
            alive = g.loc[~g["g"], "vertex"]
            keep = alive[~alive.isin(dead)]
            return pd.DataFrame({
                "vertex": keep.to_numpy(np.int64)})

        undec = _bound_blocks(undec.map_batches(lambda b: pd.DataFrame({
            "vertex": b["vertex"].to_numpy(np.int64),
            "g": np.zeros(len(b), dtype=bool),
            "bucket": (pd.util.hash_array(
                b["vertex"].to_numpy(np.int64)) % num_buckets)
            .astype(np.int64)}), batch_format="pandas")
            .union(gone)
            .groupby("bucket").map_groups(shrink,
                                          batch_format="pandas")
            .materialize(), num_buckets)
    else:
        if undec.count() > 0:
            raise RuntimeError(
                f"MIS did not converge in {max_iters} rounds")

    mis = (pd.concat(in_parts)["vertex"].to_numpy(np.int64)
           if in_parts else np.array([], dtype=np.int64))
    vd = vertices.to_pandas()
    vd["vertex"] = vd["vertex"].astype("int64")
    vd["in_mis"] = vd["vertex"].isin(mis)
    return vd.sort_values("vertex").reset_index(drop=True)


def greedy_coloring(edges, num_buckets: int = 32,
                    max_iters: int = 200, seed: int = 0) -> pd.DataFrame:
    """Proper vertex coloring of the undirected simple graph spanned
    by (src, dst) — Jones-Plassmann (SIAM J. Sci. Comput. 1993): with
    ONE fixed deterministic hash priority per vertex, a vertex colors
    itself the round its priority strictly exceeds every UNCOLORED
    neighbor's, taking the smallest color its colored neighbors
    don't use (mex). Equals sequential greedy processed in descending
    priority order, so <= maxdeg+1 colors; O(log n / log log n)
    expected rounds. Self-loops are dropped (no proper coloring
    exists under a loop; matches coloring the simple graph).
    Returns (vertex, color) for every vertex, deterministic for a
    given seed regardless of partitioning.

    Each round: one co-group over the edge buckets attaches neighbor
    state (uncolored priorities -> per-vertex max partial; colored
    colors -> deduped (vertex, color) rows), then one decide co-group
    computes winners + their mex AND the surviving uncolored set in
    the same group (all rows for a vertex share its hash bucket), so
    a round is exactly TWO shuffles. Colored-neighbor rows re-ship
    each round (bounded by edge count; an incremental used-color
    sidecar is the at-scale refinement and would not change results).
    Derived sets are re-bounded to ``num_buckets`` blocks whenever
    their block count drifts past 2x that (a metadata-only check) —
    without the bound, each round's groupby inherits the union of its
    inputs' blocks and the block count grows EXPONENTIALLY with the
    round number (measured: 3 -> 15 -> 63 -> 255 -> 1023 on a
    5-clique), which stalls the scheduler long before data size
    matters."""
    edges = _to_edge_ds(edges)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        out = pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()
        out["__b"] = ((pd.util.hash_array(out["u"].to_numpy())
                       ^ pd.util.hash_array(out["v"].to_numpy()))
                      % num_buckets).astype(np.int64)
        return out

    simple = (edges.map_batches(canon, batch_format="pandas")
              .groupby("__b").map_groups(
                  lambda g: g.drop_duplicates(["u", "v"]),
                  batch_format="pandas").materialize())
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "color": pd.Series([], dtype="int64")})

    adj, vertices = _mis_round_state(simple, num_buckets)
    uncolored = vertices
    colored = None  # Dataset (vertex, color), grown by union

    # neighbor-state rows share one layout:
    #   kind 0 = edge (a, b) / 1 = uncolored prio on b / 2 = color on b
    def pad_edge(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket": b["bucket"],
                             "a": b["a"], "b": b["b"],
                             "p": np.uint64(0),
                             "c": np.int64(-1),
                             "kind": np.int8(0)})

    def tag_unc(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "a": np.int64(0), "b": v, "p": _prio(v, 0, seed),
            "c": np.int64(-1), "kind": np.int8(1)})

    def tag_col(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "a": np.int64(0), "b": v, "p": np.uint64(0),
            "c": b["color"].to_numpy(np.int64),
            "kind": np.int8(2)})

    def nbr_state(g: pd.DataFrame) -> pd.DataFrame:
        """Per ATTACH vertex a: max uncolored-neighbor prio partials
        (is_col False) and deduped colored-neighbor colors (True)."""
        e = g.loc[g["kind"] == 0, ["a", "b"]]
        unc = g.loc[g["kind"] == 1, ["b", "p"]]
        col = g.loc[g["kind"] == 2, ["b", "c"]]
        outs = []
        m = e.merge(unc, on="b")
        if len(m):
            r = m.groupby("a", as_index=False)["p"].max()
            outs.append(pd.DataFrame({
                "vertex": r["a"].to_numpy(np.int64),
                "p": r["p"].to_numpy(np.uint64),
                "c": np.int64(-1),
                "is_col": np.zeros(len(r), dtype=bool)}))
        mc = e.merge(col, on="b")[["a", "c"]].drop_duplicates()
        if len(mc):
            outs.append(pd.DataFrame({
                "vertex": mc["a"].to_numpy(np.int64),
                "p": np.uint64(0),
                "c": mc["c"].to_numpy(np.int64),
                "is_col": np.ones(len(mc), dtype=bool)}))
        if not outs:
            return pd.DataFrame({
                "vertex": pd.Series([], dtype="int64"),
                "p": pd.Series([], dtype="uint64"),
                "c": pd.Series([], dtype="int64"),
                "is_col": pd.Series([], dtype=bool)})
        return pd.concat(outs, ignore_index=True)

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        """Winners = own prio strictly above the uncolored-neighbor
        max (or no uncolored neighbor); color = mex of neighbor
        colors, vectorized over the whole group. Emits EVERY own
        vertex: winners with their color, survivors with color -1 —
        the survivor rows ARE next round's uncolored set, so no
        separate shrink shuffle is needed."""
        own = g.loc[g["kind"] == 1, ["b", "p"]] \
            .rename(columns={"b": "vertex"})
        mx = g.loc[g["kind"] == 3, ["b", "p"]] \
            .rename(columns={"b": "vertex", "p": "mx"})
        if len(mx):
            mx = mx.groupby("vertex", as_index=False)["mx"].max()
        m = own.merge(mx, on="vertex", how="left")
        win = (m["mx"].isna() | (m["p"] > m["mx"])).to_numpy()
        w = m.loc[win, ["vertex"]]
        if len(w):
            nc = g.loc[g["kind"] == 4, ["b", "c"]] \
                .rename(columns={"b": "vertex"}) \
                .merge(w, on="vertex").drop_duplicates() \
                .sort_values(["vertex", "c"])
            if len(nc):
                nc["k"] = nc.groupby("vertex").cumcount()
                # mex = first k where the sorted distinct colors skip k
                bad = nc.loc[nc["c"] != nc["k"]] \
                    .groupby("vertex", as_index=False)["k"].min() \
                    .rename(columns={"k": "mex"})
                size = nc.groupby("vertex", as_index=False).size() \
                    .rename(columns={"size": "n"})
                mex = size.merge(bad, on="vertex", how="left")
                mex["color"] = mex["mex"].fillna(mex["n"]) \
                    .astype("int64")
                w = w.merge(mex[["vertex", "color"]], on="vertex",
                            how="left")
                w["color"] = w["color"].fillna(0)
            else:
                w = w.assign(color=np.int64(0))
        else:
            w = w.assign(color=pd.Series([], dtype="int64"))
        out = m[["vertex"]].merge(w, on="vertex", how="left")
        return pd.DataFrame({
            "vertex": out["vertex"].to_numpy(np.int64),
            "color": out["color"].fillna(-1).to_numpy(np.int64)})

    # re-bucket neighbor state by the OWNING vertex and co-group
    # with own priorities: kind 3 = nbr prio max, 4 = nbr color
    def tag_state(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "a": np.int64(0), "b": v,
            "p": b["p"].to_numpy(np.uint64),
            "c": b["c"].to_numpy(np.int64),
            "kind": np.where(b["is_col"], np.int8(4),
                             np.int8(3))})

    def _bound(ds):
        return _bound_blocks(ds, num_buckets)

    for _ in range(max_iters):
        if uncolored.count() == 0:
            break

        unc_rows = uncolored.map_batches(tag_unc,
                                         batch_format="pandas") \
            .materialize()
        sides = adj.map_batches(pad_edge, batch_format="pandas") \
            .union(unc_rows)
        if colored is not None:
            sides = sides.union(colored.map_batches(
                tag_col, batch_format="pandas"))
        state = sides.groupby("bucket") \
            .map_groups(nbr_state, batch_format="pandas")

        decided = (unc_rows.union(
            state.map_batches(tag_state, batch_format="pandas"))
            .groupby("bucket").map_groups(decide,
                                          batch_format="pandas")
            .materialize())

        winners = _bound(decided.map_batches(
            lambda b: b.loc[b["color"] >= 0],
            batch_format="pandas").materialize())
        uncolored = _bound(decided.map_batches(
            lambda b: b.loc[b["color"] < 0, ["vertex"]],
            batch_format="pandas").materialize())
        if winners.count() == 0:
            continue  # full-round hash-tie stall (re-draws don't
            # apply here — fixed priorities — but distinct hash ties
            # across an edge are ~impossible; bounded by max_iters)

        colored = _bound(winners if colored is None
                         else colored.union(winners).materialize())
    else:
        if uncolored.count() > 0:
            raise RuntimeError(
                f"coloring did not converge in {max_iters} rounds")

    df = colored.to_pandas()
    df["vertex"] = df["vertex"].astype("int64")
    df["color"] = df["color"].astype("int64")
    return df.sort_values("vertex").reset_index(drop=True)


# --------------------------------- strongly connected components
#
# The "coloring" SCC algorithm (Orzan 2004; the Pregel formulation
# benchmarked in Salihoglu & Widom, VLDB 2014), with the standard
# trim step from FW-BW-Trim (McLendon et al., J. Parallel Distrib.
# Comput. 2005): per outer round over the still-unassigned subgraph,
#   trim    vertices with no in- or no out-edge are singleton SCCs;
#   color   forward min-id propagation to a fixpoint: color(v) =
#           min active id that reaches v;
#   mark    roots are vertices with color(v)==v; a backward sweep
#           over ONLY the edges whose endpoints share a color marks
#           every v that reaches its root — marked vertices form
#           exactly SCC(root), for ALL roots simultaneously;
#   shrink  assigned vertices and their edges leave the graph.
# Every root's SCC is assigned each round, so progress is
# guaranteed; a pure path graph still needs O(n) rounds (the family's
# known worst case — same honesty note as connected_components).

_SCC_INF = np.int64(2**62)


def _dir_minlabel(edge_rows, labels0, num_buckets: int,
                  max_iters: int, what: str):
    """Min-label propagation along DIRECTED bucketed edge rows
    (bucket, src, dst, label, is_edge) to a fixpoint; labels0 is a
    (vertex, label) Dataset covering every active vertex. The
    connected_components loop, minus the undirection."""

    def tag_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(b["vertex"].to_numpy())
                       % num_buckets).astype(np.int64),
            "src": b["vertex"].to_numpy(np.int64),
            "dst": np.full(len(b), -1, dtype=np.int64),
            "label": b["label"].to_numpy(np.int64),
            "is_edge": np.zeros(len(b), dtype=bool)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lab = g.loc[~g["is_edge"], ["src", "label"]] \
            .rename(columns={"src": "vertex"})
        e = g.loc[g["is_edge"], ["src", "dst"]]
        prop = e.merge(lab, left_on="src", right_on="vertex")
        cand = (prop.groupby("dst", as_index=False)["label"].min()
                .rename(columns={"dst": "vertex"}))
        return pd.concat([lab[["vertex", "label"]],
                          cand[["vertex", "label"]]],
                         ignore_index=True)

    def _as_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vertex": b["vertex"].to_numpy().astype(np.int64),
            "label": b["min(label)"].to_numpy().astype(np.int64)})

    labels = labels0.materialize()
    prev = None
    for _ in range(max_iters):
        tagged = labels.map_batches(tag_labels, batch_format="pandas")
        labels = _bound_blocks(
            edge_rows.union(tagged).groupby("bucket")
            .map_groups(propagate, batch_format="pandas")
            .groupby("vertex").min("label")
            .map_batches(_as_labels, batch_format="pandas")
            .materialize(), num_buckets)
        s = _multiset_sig(labels, ("vertex", "label"))
        if s == prev:
            return labels
        prev = s
    raise RuntimeError(
        f"SCC {what} propagation did not converge in {max_iters} "
        "rounds (active-subgraph diameter exceeds max_iters)")


def strongly_connected_components(edges, num_buckets: int = 32,
                                  max_outer: int = 50,
                                  max_inner: int = 100
                                  ) -> pd.DataFrame:
    """SCCs of the directed graph of (src, dst) rows. Returns one row
    per vertex: (vertex, scc) with ``scc = min vertex id of its
    strongly connected component``; deterministic and
    partitioning-invariant. Self-loops are irrelevant (a vertex is
    always in its own SCC); parallel edges are deduped up front."""
    edges = _to_edge_ds(edges)

    def canon(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "src": b["src"].to_numpy(np.int64),
            "dst": b["dst"].to_numpy(np.int64)}).drop_duplicates()
        out = out.loc[out["src"] != out["dst"]]
        out["__b"] = ((pd.util.hash_array(out["src"].to_numpy())
                       ^ pd.util.hash_array(out["dst"].to_numpy()))
                      % num_buckets).astype(np.int64)
        return out

    fe = (edges.map_batches(canon, batch_format="pandas")
          .groupby("__b").map_groups(
              lambda g: g.drop_duplicates(["src", "dst"]),
              batch_format="pandas")
          .map_batches(lambda b: b[["src", "dst"]],
                       batch_format="pandas").materialize())

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                      b["dst"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    act = (_to_edge_ds(edges).map_batches(
        lambda b: endpoints(pd.DataFrame({
            "src": b["src"].to_numpy(np.int64),
            "dst": b["dst"].to_numpy(np.int64)})),
        batch_format="pandas")
        .groupby("vertex").count()
        .map_batches(lambda b: pd.DataFrame(
            {"vertex": b["vertex"].to_numpy(np.int64)}),
            batch_format="pandas").materialize())
    if act.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "scc": pd.Series([], dtype="int64")})

    def vb(v: np.ndarray) -> np.ndarray:
        return (pd.util.hash_array(np.ascontiguousarray(v, np.int64))
                % num_buckets).astype(np.int64)

    def edge_rows_of(fe_ds, reverse: bool):
        def mk(b: pd.DataFrame) -> pd.DataFrame:
            s = b["dst" if reverse else "src"].to_numpy(np.int64)
            d = b["src" if reverse else "dst"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": vb(s), "src": s, "dst": d,
                "label": np.full(len(s), -1, dtype=np.int64),
                "is_edge": np.ones(len(s), dtype=bool)})
        return fe_ds.map_batches(mk, batch_format="pandas")

    def drop_incident(fe_ds, gone_ds):
        """Remove edges with either endpoint in gone — one cogroup
        per endpoint."""
        out = fe_ds
        for col in ("src", "dst"):
            def tag_e(b: pd.DataFrame, _c=col) -> pd.DataFrame:
                return pd.DataFrame({
                    "bucket": vb(b[_c].to_numpy(np.int64)),
                    "src": b["src"].to_numpy(np.int64),
                    "dst": b["dst"].to_numpy(np.int64),
                    "is_edge": np.ones(len(b), dtype=bool)})

            def tag_g(b: pd.DataFrame) -> pd.DataFrame:
                v = b["vertex"].to_numpy(np.int64)
                return pd.DataFrame({
                    "bucket": vb(v), "src": v,
                    "dst": np.full(len(v), -1, dtype=np.int64),
                    "is_edge": np.zeros(len(v), dtype=bool)})

            def keep(g: pd.DataFrame, _c=col) -> pd.DataFrame:
                dead = g.loc[~g["is_edge"], "src"]
                e = g.loc[g["is_edge"], ["src", "dst"]]
                return e.loc[~e[_c].isin(dead)]

            out = _bound_blocks(
                out.map_batches(tag_e, batch_format="pandas")
                .union(gone_ds.map_batches(tag_g,
                                           batch_format="pandas"))
                .groupby("bucket").map_groups(keep,
                                              batch_format="pandas")
                .materialize(), num_buckets)
        return out

    assigned: list[pd.DataFrame] = []

    for _ in range(max_outer):
        if act.count() == 0:
            break

        # ---- trim: active vertices missing from src- or dst-side
        def tag_v(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({"bucket": vb(v), "v": v,
                                 "kind": np.int8(0)})

        def tag_end(b: pd.DataFrame, col: str, k: int) -> pd.DataFrame:
            v = b[col].to_numpy(np.int64)
            return pd.DataFrame({"bucket": vb(v), "v": v,
                                 "kind": np.int8(k)})

        def trivial(g: pd.DataFrame) -> pd.DataFrame:
            verts = g.loc[g["kind"] == 0, "v"]
            has_out = set(g.loc[g["kind"] == 1, "v"].unique())
            has_in = set(g.loc[g["kind"] == 2, "v"].unique())
            t = verts[~verts.isin(has_out) | ~verts.isin(has_in)]
            return pd.DataFrame({"vertex": t.to_numpy(np.int64)})

        triv = (act.map_batches(tag_v, batch_format="pandas")
                .union(fe.map_batches(
                    functools.partial(tag_end, col="src", k=1),
                    batch_format="pandas"))
                .union(fe.map_batches(
                    functools.partial(tag_end, col="dst", k=2),
                    batch_format="pandas"))
                .groupby("bucket").map_groups(trivial,
                                              batch_format="pandas")
                .materialize())
        t_df = triv.to_pandas()
        if len(t_df):
            assigned.append(pd.DataFrame({
                "vertex": t_df["vertex"].astype("int64"),
                "scc": t_df["vertex"].astype("int64")}))
            fe = drop_incident(fe, triv)
            act = _shrink_vertices(act, triv, num_buckets)
            continue  # re-trim until the periphery is gone

        # ---- color: forward min-id propagation over active edges
        labels0 = act.map_batches(
            lambda b: pd.DataFrame({
                "vertex": b["vertex"].to_numpy(np.int64),
                "label": b["vertex"].to_numpy(np.int64)}),
            batch_format="pandas")
        fwd_rows = edge_rows_of(fe, reverse=False).materialize()
        colors = _dir_minlabel(fwd_rows, labels0, num_buckets,
                               max_inner, "color")

        # ---- mark: backward reachability of each root inside its
        # color region; rev edges filtered to equal-color endpoints
        # uniform row layout for the color-annotation cogroups:
        # (bucket, src, dst, carry, label, is_edge) — carry holds
        # the already-attached src color while the dst color attaches
        def tag_col_v(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            return pd.DataFrame({
                "bucket": vb(v), "src": v,
                "dst": np.full(len(v), -1, dtype=np.int64),
                "carry": np.full(len(v), -1, dtype=np.int64),
                "label": b["label"].to_numpy(np.int64),
                "is_edge": np.zeros(len(v), dtype=bool)})

        def attach_color(g: pd.DataFrame, key: str) -> pd.DataFrame:
            cols = g.loc[~g["is_edge"], ["src", "label"]] \
                .rename(columns={"src": key, "label": "__c"})
            e = g.loc[g["is_edge"],
                      ["src", "dst", "carry"]].merge(cols, on=key)
            return pd.DataFrame({
                "src": e["src"].to_numpy(np.int64),
                "dst": e["dst"].to_numpy(np.int64),
                "carry": e["__c"].to_numpy(np.int64),
                "prev": e["carry"].to_numpy(np.int64)})

        # reversed edges, bucketed on src; attach src color (carry)
        r1 = (fe.map_batches(
            lambda b: pd.DataFrame({
                "bucket": vb(b["dst"].to_numpy(np.int64)),
                "src": b["dst"].to_numpy(np.int64),
                "dst": b["src"].to_numpy(np.int64),
                "carry": np.full(len(b), -1, dtype=np.int64),
                "label": np.full(len(b), -1, dtype=np.int64),
                "is_edge": np.ones(len(b), dtype=bool)}),
            batch_format="pandas")
            .union(colors.map_batches(tag_col_v,
                                      batch_format="pandas"))
            .groupby("bucket")
            .map_groups(functools.partial(attach_color, key="src"),
                        batch_format="pandas"))
        # rebucket on dst; attach dst color; keep equal-color edges
        rev_cc = (r1.map_batches(
            lambda b: pd.DataFrame({
                "bucket": vb(b["dst"].to_numpy(np.int64)),
                "src": b["src"].to_numpy(np.int64),
                "dst": b["dst"].to_numpy(np.int64),
                "carry": b["carry"].to_numpy(np.int64),
                "label": np.full(len(b), -1, dtype=np.int64),
                "is_edge": np.ones(len(b), dtype=bool)}),
            batch_format="pandas")
            .union(colors.map_batches(tag_col_v,
                                      batch_format="pandas"))
            .groupby("bucket")
            .map_groups(functools.partial(attach_color, key="dst"),
                        batch_format="pandas")
            .map_batches(
                lambda b: (lambda m: pd.DataFrame({
                    "bucket": vb(b.loc[m, "src"].to_numpy(np.int64)),
                    "src": b.loc[m, "src"].to_numpy(np.int64),
                    "dst": b.loc[m, "dst"].to_numpy(np.int64),
                    "label": np.full(int(m.sum()), -1,
                                     dtype=np.int64),
                    "is_edge": np.ones(int(m.sum()), dtype=bool)}))(
                    b["prev"] == b["carry"]),
                batch_format="pandas").materialize())

        # roots seed their own id; everyone else seeds +inf — after
        # the fixpoint, marked iff label == color
        marks0 = colors.map_batches(
            lambda b: pd.DataFrame({
                "vertex": b["vertex"].to_numpy(np.int64),
                "label": np.where(
                    b["vertex"].to_numpy(np.int64)
                    == b["label"].to_numpy(np.int64),
                    b["vertex"].to_numpy(np.int64), _SCC_INF)}),
            batch_format="pandas")
        marks = _dir_minlabel(rev_cc, marks0, num_buckets,
                              max_inner, "mark")

        # join colors + marks per vertex, split assigned vs surviving
        def tag_cm(ds, k: int):
            return ds.map_batches(
                lambda b, _k=k: pd.DataFrame({
                    "bucket": vb(b["vertex"].to_numpy(np.int64)),
                    "vertex": b["vertex"].to_numpy(np.int64),
                    "label": b["label"].to_numpy(np.int64),
                    "kind": np.int8(_k)}),
                batch_format="pandas")

        def classify(g: pd.DataFrame) -> pd.DataFrame:
            c = g.loc[g["kind"] == 0, ["vertex", "label"]] \
                .rename(columns={"label": "color"})
            m = g.loc[g["kind"] == 1, ["vertex", "label"]] \
                .rename(columns={"label": "mark"})
            j = c.merge(m, on="vertex")
            return pd.DataFrame({
                "vertex": j["vertex"].to_numpy(np.int64),
                "scc": j["color"].to_numpy(np.int64),
                "done": j["mark"].to_numpy(np.int64)
                == j["color"].to_numpy(np.int64)})

        cm = (tag_cm(colors, 0).union(tag_cm(marks, 1))
              .groupby("bucket").map_groups(classify,
                                            batch_format="pandas")
              .materialize())
        done = cm.map_batches(lambda b: b.loc[b["done"],
                                              ["vertex", "scc"]],
                              batch_format="pandas").materialize()
        d_df = done.to_pandas()
        assigned.append(pd.DataFrame({
            "vertex": d_df["vertex"].astype("int64"),
            "scc": d_df["scc"].astype("int64")}))
        gone = done.map_batches(lambda b: b[["vertex"]],
                                batch_format="pandas").materialize()
        fe = drop_incident(fe, gone)
        act = _bound_blocks(cm.map_batches(
            lambda b: b.loc[~b["done"], ["vertex"]],
            batch_format="pandas").materialize(), num_buckets)
    else:
        if act.count() > 0:
            raise RuntimeError(
                f"SCC did not converge in {max_outer} outer rounds "
                "(long SCC-DAG chain); raise max_outer")

    out = (pd.concat(assigned, ignore_index=True) if assigned
           else pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                              "scc": pd.Series([], dtype="int64")}))
    return out.sort_values("vertex").reset_index(drop=True)


def _shrink_vertices(act, gone, num_buckets: int):
    """act minus gone via one bucketed cogroup."""
    def tag(ds, g: bool):
        return ds.map_batches(
            lambda b, _g=g: pd.DataFrame({
                "bucket": (pd.util.hash_array(
                    b["vertex"].to_numpy(np.int64)) % num_buckets)
                .astype(np.int64),
                "vertex": b["vertex"].to_numpy(np.int64),
                "g": np.full(len(b), _g)}),
            batch_format="pandas")

    def shrink(g: pd.DataFrame) -> pd.DataFrame:
        dead = g.loc[g["g"], "vertex"]
        alive = g.loc[~g["g"], "vertex"]
        return pd.DataFrame({
            "vertex": alive[~alive.isin(dead)].to_numpy(np.int64)})

    return _bound_blocks(
        tag(act, False).union(tag(gone, True))
        .groupby("bucket").map_groups(shrink, batch_format="pandas")
        .materialize(), num_buckets)


# ------------------------- batched BFS / betweenness / closeness
#
# Exact multi-source BFS with shortest-path counts, run for ALL
# sources in one level-synchronous sweep (state rows are keyed by
# (source, vertex), so k sources cost one pass with k x frontier
# rows, not k passes). On top of it: Brandes' dependency
# accumulation (Brandes, J. Math. Sociol. 2001) batched over the
# source set — with a sampled source set this is the Brandes-Pich
# (2007) betweenness approximation, scaled by n/k; harmonic
# closeness (Boldi-Vigna 2014) falls out of the distance table.


def _sv_bucket(s: np.ndarray, v: np.ndarray,
               num_buckets: int) -> np.ndarray:
    return ((pd.util.hash_array(np.ascontiguousarray(s, np.int64))
             ^ pd.util.hash_array(np.ascontiguousarray(v, np.int64)))
            % num_buckets).astype(np.int64)


def multi_source_bfs(edges, sources, *, directed: bool = False,
                     num_buckets: int = 32,
                     max_iters: int = 100) -> pd.DataFrame:
    """Exact BFS distance AND shortest-path count from every source
    to every reachable vertex, all sources in one batched sweep.
    Returns (source, vertex, dist, sigma) — one row per reachable
    pair; unreachable pairs are absent. Level-synchronous: sigma of
    a level-(L+1) vertex sums the final sigmas of its level-L
    predecessors, so counts are exact (Brandes' forward phase)."""
    edges = _to_edge_ds(edges)

    def mk_edges(b: pd.DataFrame) -> pd.DataFrame:
        u = b["src"].to_numpy(np.int64)
        w = b["dst"].to_numpy(np.int64)
        keep = u != w
        u, w = u[keep], w[keep]
        if not directed:
            u, w = np.concatenate([u, w]), np.concatenate([w, u])
        out = pd.DataFrame({"u": u, "w": w}).drop_duplicates()
        out["__b"] = ((pd.util.hash_array(out["u"].to_numpy())
                       ^ pd.util.hash_array(out["w"].to_numpy()))
                      % num_buckets).astype(np.int64)
        return out

    edge_rows = (edges.map_batches(mk_edges, batch_format="pandas")
                 .groupby("__b").map_groups(
                     lambda g: g.drop_duplicates(["u", "w"]),
                     batch_format="pandas")
                 .map_batches(lambda b: pd.DataFrame({
                     "bucket": (pd.util.hash_array(
                         b["u"].to_numpy(np.int64)) % num_buckets)
                     .astype(np.int64),
                     "s": np.full(len(b), -1, dtype=np.int64),
                     "v": b["u"].to_numpy(np.int64),
                     "w": b["w"].to_numpy(np.int64),
                     "sig": np.zeros(len(b), dtype=np.int64),
                     "kind": np.zeros(len(b), dtype=np.int8)}),
                     batch_format="pandas").materialize())

    src_arr = np.unique(np.asarray(list(sources), dtype=np.int64))
    if edge_rows.count() == 0 or not len(src_arr):
        return pd.DataFrame({"source": pd.Series([], dtype="int64"),
                             "vertex": pd.Series([], dtype="int64"),
                             "dist": pd.Series([], dtype="int64"),
                             "sigma": pd.Series([], dtype="int64")})

    init = pd.DataFrame({"s": src_arr, "v": src_arr,
                         "d": np.zeros(len(src_arr), dtype=np.int64),
                         "sig": np.ones(len(src_arr),
                                        dtype=np.int64)})
    settled = rd.from_pandas(init).materialize()
    frontier = settled  # level-0 rows (d column ignored on frontier)

    def tag_front(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(b["v"].to_numpy(np.int64))
                       % num_buckets).astype(np.int64),
            "s": b["s"].to_numpy(np.int64),
            "v": b["v"].to_numpy(np.int64),
            "w": np.full(len(b), -1, dtype=np.int64),
            "sig": b["sig"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["kind"] == 0, ["v", "w"]]
        f = g.loc[g["kind"] == 1, ["s", "v", "sig"]]
        m = e.merge(f, on="v")
        if not len(m):
            return pd.DataFrame({"s": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64"),
                                 "sig": pd.Series([], dtype="int64")})
        r = m.groupby(["s", "w"], as_index=False)["sig"].sum()
        return pd.DataFrame({"s": r["s"].to_numpy(np.int64),
                             "v": r["w"].to_numpy(np.int64),
                             "sig": r["sig"].to_numpy(np.int64)})

    def settle(g: pd.DataFrame) -> pd.DataFrame:
        """candidates (kind 1) minus already-settled pairs (kind 0),
        sigma partials summed globally (all partials for a pair hash
        to this bucket)."""
        cand = g.loc[g["kind"] == 1, ["s", "v", "sig"]]
        if not len(cand):
            return pd.DataFrame({"s": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64"),
                                 "sig": pd.Series([], dtype="int64")})
        summed = cand.groupby(["s", "v"], as_index=False)["sig"].sum()
        have = g.loc[g["kind"] == 0, ["s", "v"]]
        m = summed.merge(have.assign(__h=True), on=["s", "v"],
                         how="left")
        new = m.loc[m["__h"].isna(), ["s", "v", "sig"]]
        return pd.DataFrame({"s": new["s"].to_numpy(np.int64),
                             "v": new["v"].to_numpy(np.int64),
                             "sig": new["sig"].to_numpy(np.int64)})

    def tag_sv(ds, k: int, cols=("s", "v", "sig")):
        def f(b: pd.DataFrame, _k=k) -> pd.DataFrame:
            return pd.DataFrame({
                "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                     b["v"].to_numpy(np.int64),
                                     num_buckets),
                "s": b["s"].to_numpy(np.int64),
                "v": b["v"].to_numpy(np.int64),
                "sig": (b["sig"].to_numpy(np.int64) if "sig" in b
                        else np.zeros(len(b), dtype=np.int64)),
                "kind": np.full(len(b), _k, dtype=np.int8)})
        return ds.map_batches(f, batch_format="pandas")

    level = 0
    for _ in range(max_iters):
        cand = (edge_rows.union(frontier.map_batches(
            tag_front, batch_format="pandas"))
            .groupby("bucket").map_groups(expand,
                                          batch_format="pandas"))
        new = _bound_blocks(
            tag_sv(cand, 1).union(tag_sv(settled, 0))
            .groupby("bucket").map_groups(settle,
                                          batch_format="pandas")
            .materialize(), num_buckets)
        level += 1
        if new.count() == 0:
            break
        lvl = level

        def with_d(b: pd.DataFrame, _d=lvl) -> pd.DataFrame:
            return pd.DataFrame({
                "s": b["s"].to_numpy(np.int64),
                "v": b["v"].to_numpy(np.int64),
                "d": np.full(len(b), _d, dtype=np.int64),
                "sig": b["sig"].to_numpy(np.int64)})

        nf = new.map_batches(with_d, batch_format="pandas") \
            .materialize()
        settled = _bound_blocks(settled.union(nf).materialize(),
                                num_buckets)
        frontier = nf
    else:
        raise RuntimeError(
            f"multi_source_bfs did not converge in {max_iters} "
            "rounds (eccentricity exceeds max_iters)")

    df = settled.to_pandas()
    out = pd.DataFrame({"source": df["s"].astype("int64"),
                        "vertex": df["v"].astype("int64"),
                        "dist": df["d"].astype("int64"),
                        "sigma": df["sig"].astype("int64")})
    return out.sort_values(["source", "vertex"]) \
        .reset_index(drop=True)


def harmonic_closeness(edges, *, k_sources: int | None = None,
                       sources=None, seed: int = 0,
                       directed: bool = False, num_buckets: int = 32,
                       max_iters: int = 100) -> pd.DataFrame:
    """Harmonic centrality H(v) = sum over sources s != v of
    1/d(s, v) (Boldi-Vigna 2014). With ``k_sources`` the source set
    is a deterministic hash-sample of the vertex set and the sum is
    scaled by n/k — the standard sampled estimator; pass ``sources``
    for the exact restricted sum."""
    bfs, src_arr, n = _bfs_from_sample(edges, k_sources, sources,
                                       seed, directed, num_buckets,
                                       max_iters)
    body = bfs.loc[bfs["dist"] > 0]
    h = body.assign(h=1.0 / body["dist"].to_numpy(np.float64)) \
        .groupby("vertex", as_index=False)["h"].sum()
    scale = (n / len(src_arr)) if k_sources is not None else 1.0
    got = pd.DataFrame({
        "vertex": h["vertex"].astype("int64"),
        "harmonic": h["h"].to_numpy(np.float64) * scale})
    # emit EVERY graph vertex, harmonic=0 for ones unreachable from
    # all sources — same row-set contract as betweenness_centrality
    # (silently absent rows broke downstream all-vertex joins)
    verts = _vertices_of(_to_edge_ds(edges), num_buckets).to_pandas()
    out = (verts.astype({"vertex": "int64"})
           .merge(got, on="vertex", how="left"))
    out["harmonic"] = out["harmonic"].fillna(0.0)
    return out.sort_values("vertex").reset_index(drop=True)


def _vertices_of(edges, num_buckets: int):
    edges = _to_edge_ds(edges)

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                      b["dst"].to_numpy(np.int64)]))
        return pd.DataFrame({"vertex": v})

    return (edges.map_batches(endpoints, batch_format="pandas")
            .groupby("vertex").count()
            .map_batches(lambda b: pd.DataFrame(
                {"vertex": b["vertex"].to_numpy(np.int64)}),
                batch_format="pandas").materialize())


def _bfs_from_sample(edges, k_sources, sources, seed, directed,
                     num_buckets, max_iters):
    edges = _to_edge_ds(edges).materialize()
    verts = _vertices_of(edges, num_buckets)
    n = verts.count()
    if sources is not None:
        src_arr = np.unique(np.asarray(list(sources), dtype=np.int64))
    else:
        k = min(int(k_sources), n)
        # deterministic hash-ranked sample of the vertex set,
        # computed distributed: per-block top-k by hash, driver fold
        def rank(b: pd.DataFrame) -> pd.DataFrame:
            v = b["vertex"].to_numpy(np.int64)
            h = _prio(v, 0, seed)
            o = np.argsort(h, kind="stable")[:k]
            return pd.DataFrame({"vertex": v[o], "h": h[o]})

        tops = verts.map_batches(rank, batch_format="pandas") \
            .to_pandas()
        tops = tops.sort_values(["h", "vertex"]).head(k)
        src_arr = np.unique(tops["vertex"].to_numpy(np.int64))
    bfs = multi_source_bfs(edges, src_arr, directed=directed,
                           num_buckets=num_buckets,
                           max_iters=max_iters)
    return bfs, src_arr, n


def betweenness_centrality(edges, *, k_sources: int | None = None,
                           sources=None, seed: int = 0,
                           directed: bool = False,
                           num_buckets: int = 32,
                           max_iters: int = 100) -> pd.DataFrame:
    """(Approximate) betweenness centrality by Brandes' dependency
    accumulation batched over a source set. With ``k_sources`` the
    estimate is scaled by n/k (Brandes-Pich 2007); with an explicit
    ``sources`` list the raw partial sums are returned (exact
    betweenness when sources = all vertices). Undirected scores are
    halved per convention. Returns (vertex, betweenness) for every
    vertex of the graph.

    Fully distributed: after the batched forward BFS, shortest-path
    DAG edges are materialized by attaching (dist, sigma) of both
    endpoints per source (two bucketed co-groups, the SCC
    attach-color shape) and keeping dist_w == dist_u + 1; the
    backward sweep runs one LEVEL at a time (deepest first) — a
    level's deltas are final when computed, so each level is two
    slim co-groups (successor contributions pre-summed per
    (source, pred), then merged into the state) and nothing
    cardinality-proportional touches the driver until the final
    per-vertex fold."""
    edges_ds = _to_edge_ds(edges).materialize()
    bfs, src_arr, n = _bfs_from_sample(edges_ds, k_sources, sources,
                                       seed, directed, num_buckets,
                                       max_iters)
    verts = _vertices_of(edges_ds, num_buckets).to_pandas()
    empty_out = pd.DataFrame({
        "vertex": verts["vertex"].astype("int64"),
        "betweenness": np.zeros(len(verts))}) \
        .sort_values("vertex").reset_index(drop=True)
    if not len(bfs):
        return empty_out

    # state rows (s, v, d, sig, delta) as a Dataset
    st0 = bfs.rename(columns={"source": "s", "vertex": "v",
                              "dist": "d", "sigma": "sig"})
    st0["delta"] = 0.0
    st = rd.from_pandas(st0).materialize()
    lmax = int(st0["d"].max())

    def dir_edges(b: pd.DataFrame) -> pd.DataFrame:
        u = b["src"].to_numpy(np.int64)
        w = b["dst"].to_numpy(np.int64)
        keep = u != w
        u, w = u[keep], w[keep]
        if not directed:
            u, w = np.concatenate([u, w]), np.concatenate([w, u])
        return pd.DataFrame({"u": u, "w": w}).drop_duplicates()

    # ---- attach (d, sig) of the u side: bucket state by (s, v) and
    # edges by v=u; every source's state meets every edge at u
    def tag_state_v(b: pd.DataFrame) -> pd.DataFrame:
        v = b["v"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(v) % num_buckets)
            .astype(np.int64),
            "s": b["s"].to_numpy(np.int64), "u": v,
            "w": np.full(len(b), -1, dtype=np.int64),
            "d": b["d"].to_numpy(np.int64),
            "sig": b["sig"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    def tag_edge_u(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": (pd.util.hash_array(b["u"].to_numpy(np.int64))
                       % num_buckets).astype(np.int64),
            "s": np.full(len(b), -1, dtype=np.int64),
            "u": b["u"].to_numpy(np.int64),
            "w": b["w"].to_numpy(np.int64),
            "d": np.zeros(len(b), dtype=np.int64),
            "sig": np.zeros(len(b), dtype=np.int64),
            "kind": np.zeros(len(b), dtype=np.int8)})

    def attach_u(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["kind"] == 0, ["u", "w"]]
        stt = g.loc[g["kind"] == 1, ["s", "u", "d", "sig"]]
        m = e.merge(stt, on="u")
        return pd.DataFrame({
            "s": m["s"].to_numpy(np.int64),
            "u": m["u"].to_numpy(np.int64),
            "w": m["w"].to_numpy(np.int64),
            "d_u": m["d"].to_numpy(np.int64),
            "sig_u": m["sig"].to_numpy(np.int64)})

    # global dedup of the directed edge list (a reverse duplicate in
    # another block would otherwise double-count its contributions)
    canon_edges = (edges_ds.map_batches(dir_edges,
                                        batch_format="pandas")
                   .map_batches(lambda b: b.assign(
                       __b=((pd.util.hash_array(
                           b["u"].to_numpy(np.int64))
                           ^ pd.util.hash_array(
                               b["w"].to_numpy(np.int64)))
                           % num_buckets).astype(np.int64)),
                       batch_format="pandas")
                   .groupby("__b").map_groups(
                       lambda g: g.drop_duplicates(["u", "w"])
                       [["u", "w"]],
                       batch_format="pandas").materialize())

    half = (canon_edges.map_batches(tag_edge_u,
                                    batch_format="pandas")
            .union(st.map_batches(tag_state_v,
                                  batch_format="pandas"))
            .groupby("bucket").map_groups(attach_u,
                                          batch_format="pandas"))

    # ---- attach the w side by (s, w) and keep DAG edges
    def tag_half(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                 b["w"].to_numpy(np.int64),
                                 num_buckets),
            "s": b["s"].to_numpy(np.int64),
            "u": b["u"].to_numpy(np.int64),
            "w": b["w"].to_numpy(np.int64),
            "d_u": b["d_u"].to_numpy(np.int64),
            "sig_u": b["sig_u"].to_numpy(np.int64),
            "kind": np.zeros(len(b), dtype=np.int8)})

    def tag_state_sv(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                 b["v"].to_numpy(np.int64),
                                 num_buckets),
            "s": b["s"].to_numpy(np.int64),
            "u": np.full(len(b), -1, dtype=np.int64),
            "w": b["v"].to_numpy(np.int64),
            "d_u": b["d"].to_numpy(np.int64),
            "sig_u": b["sig"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    def attach_w(g: pd.DataFrame) -> pd.DataFrame:
        e = g.loc[g["kind"] == 0]
        stt = g.loc[g["kind"] == 1, ["s", "w", "d_u", "sig_u"]] \
            .rename(columns={"d_u": "d_w", "sig_u": "sig_w"})
        m = e.merge(stt, on=["s", "w"])
        m = m.loc[m["d_w"] == m["d_u"] + 1]
        return pd.DataFrame({
            "s": m["s"].to_numpy(np.int64),
            "u": m["u"].to_numpy(np.int64),
            "w": m["w"].to_numpy(np.int64),
            "sig_u": m["sig_u"].to_numpy(np.int64),
            "sig_w": m["sig_w"].to_numpy(np.int64),
            "d_w": m["d_w"].to_numpy(np.int64)})

    dag = (half.map_batches(tag_half, batch_format="pandas")
           .union(st.map_batches(tag_state_sv,
                                 batch_format="pandas"))
           .groupby("bucket").map_groups(attach_w,
                                         batch_format="pandas")
           .materialize())

    # ---- backward sweep, one level at a time (deltas of a level
    # are final before the level below reads them)
    for lev in range(lmax, 0, -1):
        def tag_dag_w(b: pd.DataFrame, _l=lev) -> pd.DataFrame:
            b = b.loc[b["d_w"] == _l]
            return pd.DataFrame({
                "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                     b["w"].to_numpy(np.int64),
                                     num_buckets),
                "s": b["s"].to_numpy(np.int64),
                "u": b["u"].to_numpy(np.int64),
                "w": b["w"].to_numpy(np.int64),
                "x": b["sig_u"].to_numpy(np.float64)
                / b["sig_w"].to_numpy(np.float64),
                "kind": np.zeros(len(b), dtype=np.int8)})

        def tag_st_lev(b: pd.DataFrame, _l=lev) -> pd.DataFrame:
            b = b.loc[b["d"] == _l]
            return pd.DataFrame({
                "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                     b["v"].to_numpy(np.int64),
                                     num_buckets),
                "s": b["s"].to_numpy(np.int64),
                "u": np.full(len(b), -1, dtype=np.int64),
                "w": b["v"].to_numpy(np.int64),
                "x": b["delta"].to_numpy(np.float64),
                "kind": np.ones(len(b), dtype=np.int8)})

        def contribs(g: pd.DataFrame) -> pd.DataFrame:
            e = g.loc[g["kind"] == 0, ["s", "u", "w", "x"]]
            dl = g.loc[g["kind"] == 1, ["s", "w", "x"]] \
                .rename(columns={"x": "delta_w"})
            m = e.merge(dl, on=["s", "w"])
            if not len(m):
                return pd.DataFrame({
                    "s": pd.Series([], dtype="int64"),
                    "v": pd.Series([], dtype="int64"),
                    "c": pd.Series([], dtype="float64")})
            m["c"] = m["x"] * (1.0 + m["delta_w"])
            r = m.groupby(["s", "u"], as_index=False)["c"].sum()
            return pd.DataFrame({"s": r["s"].to_numpy(np.int64),
                                 "v": r["u"].to_numpy(np.int64),
                                 "c": r["c"].to_numpy(np.float64)})

        contrib = (dag.map_batches(tag_dag_w, batch_format="pandas")
                   .union(st.map_batches(tag_st_lev,
                                         batch_format="pandas"))
                   .groupby("bucket").map_groups(
                       contribs, batch_format="pandas"))

        def tag_contrib(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                     b["v"].to_numpy(np.int64),
                                     num_buckets),
                "s": b["s"].to_numpy(np.int64),
                "v": b["v"].to_numpy(np.int64),
                "d": np.zeros(len(b), dtype=np.int64),
                "sig": np.zeros(len(b), dtype=np.int64),
                "delta": b["c"].to_numpy(np.float64),
                "kind": np.ones(len(b), dtype=np.int8)})

        def tag_st_all(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "bucket": _sv_bucket(b["s"].to_numpy(np.int64),
                                     b["v"].to_numpy(np.int64),
                                     num_buckets),
                "s": b["s"].to_numpy(np.int64),
                "v": b["v"].to_numpy(np.int64),
                "d": b["d"].to_numpy(np.int64),
                "sig": b["sig"].to_numpy(np.int64),
                "delta": b["delta"].to_numpy(np.float64),
                "kind": np.zeros(len(b), dtype=np.int8)})

        def merge_delta(g: pd.DataFrame) -> pd.DataFrame:
            base = g.loc[g["kind"] == 0,
                         ["s", "v", "d", "sig", "delta"]]
            add = g.loc[g["kind"] == 1, ["s", "v", "delta"]] \
                .groupby(["s", "v"], as_index=False)["delta"].sum() \
                .rename(columns={"delta": "c"})
            m = base.merge(add, on=["s", "v"], how="left")
            m["delta"] = m["delta"] + m["c"].fillna(0.0)
            return m.drop(columns=["c"])

        st = _bound_blocks(
            st.map_batches(tag_st_all, batch_format="pandas")
            .union(contrib.map_batches(tag_contrib,
                                       batch_format="pandas"))
            .groupby("bucket").map_groups(merge_delta,
                                          batch_format="pandas")
            .materialize(), num_buckets)

    from .aggregates import grouped_agg
    b = grouped_agg(
        st.map_batches(
            lambda bb: bb.loc[bb["s"] != bb["v"], ["v", "delta"]]
            .rename(columns={"v": "vertex"}),
            batch_format="pandas"),
        ["vertex"], {"delta": ("delta", "sum")},
        num_buckets=num_buckets).to_pandas()
    out = verts.merge(b, on="vertex", how="left")
    out["delta"] = out["delta"].fillna(0.0)
    scale = (n / len(src_arr)) if k_sources is not None else 1.0
    if not directed:
        scale *= 0.5
    return pd.DataFrame({
        "vertex": out["vertex"].astype("int64"),
        "betweenness": out["delta"].to_numpy(np.float64) * scale}) \
        .sort_values("vertex").reset_index(drop=True)


def approx_diameter(edges, *, directed: bool = False, seed: int = 0,
                    num_buckets: int = 32,
                    max_iters: int = 100) -> dict:
    """Double-sweep diameter lower bound (Magnien, Latapy, Habib,
    ACM JEA 2009): BFS from a hash-picked start vertex, then BFS
    from the farthest vertex found — the second eccentricity is a
    lower bound that is exact on trees and empirically tight on web
    graphs. Returns {"diameter_lb": int, "periphery_vertex": id,
    "eccentricity_estimates": 2}; -1 on an empty graph. Two BFS
    passes total — O(diameter) rounds each, slim label rows only."""
    edges = _to_edge_ds(edges).materialize()
    verts = _vertices_of(edges, num_buckets)
    n = verts.count()
    if n == 0:
        return {"diameter_lb": -1, "periphery_vertex": -1,
                "eccentricity_estimates": 0}

    def pick_min_hash(b: pd.DataFrame) -> pd.DataFrame:
        v = b["vertex"].to_numpy(np.int64)
        h = _prio(v, 0, seed)
        i = int(np.argmin(h))
        return pd.DataFrame({"vertex": [v[i]], "h": [h[i]]})

    cand = verts.map_batches(pick_min_hash,
                             batch_format="pandas").to_pandas()
    start = int(cand.sort_values(["h", "vertex"]).iloc[0]["vertex"])

    def far(bfs: pd.DataFrame) -> tuple[int, int]:
        i = bfs["dist"].idxmax()
        return int(bfs.loc[i, "vertex"]), int(bfs.loc[i, "dist"])

    b1 = multi_source_bfs(edges, [start], directed=directed,
                          num_buckets=num_buckets,
                          max_iters=max_iters)
    v1, _ = far(b1)
    b2 = multi_source_bfs(edges, [v1], directed=directed,
                          num_buckets=num_buckets,
                          max_iters=max_iters)
    v2, ecc2 = far(b2)
    return {"diameter_lb": ecc2, "periphery_vertex": v2,
            "eccentricity_estimates": 2}


