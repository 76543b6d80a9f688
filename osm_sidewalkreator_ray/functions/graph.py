"""Distributed iterative graph operators over (src, dst) int64 edges.

Every exchange in this module goes through one helper, ``_cogroup``:
each input side is a Dataset plus the key column(s) it is keyed on;
a row goes to bucket ``hash(key) % num_buckets`` (a composite key such
as (source, vertex) XORs its columns' hashes, so (s, v) rows on one
side meet (s, w) rows on another), one groupby by bucket brings every
side's rows of a bucket together, and a per-bucket pandas function
gets each side as its own frame with its own columns. No step holds
the full edge or vertex set in one process, and every iterative loop
keeps its per-round state as a Dataset (re-bounded by
``_bound_blocks``). The edge preparation is shared too:
``_simple_edges`` is the one deduplicating canonicaliser (directed or
undirected, with or without self-loops) and ``_vertices_of`` the one
vertex set.

``connected_components``: min-label propagation (the HCC/"hash-to-min"
family: Kang et al. PEGASUS, ICDM'09; Rastogi et al., ICDE'13) — the
canonical way to turn near-dup PAIRS into dedup DECISIONS (keep one
representative per duplicate cluster). It converges in O(component
diameter) rounds (near-dup clusters are shallow — 2-4 rounds in
practice).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

_EDGE = {"src": "int64", "dst": "int64"}
_VERTEX = {"vertex": "int64"}
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
    each downstream shuffle (measured: MIS 1.7x slower)."""
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


def _simple_edges(edges, num_buckets: int, *, directed: bool,
                  loops: bool = False) -> "rd.Dataset":
    """The one edge canonicaliser: globally deduplicated (src, dst)
    rows, materialized. Directed edges are kept as given; undirected
    ones come out as both orientations of each {u, v}. Self-loops
    survive only with ``loops`` (a directed-graph option). Dedup is
    block-local first, then exact in one co-group on (src, dst)."""
    def orient(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy(np.int64)
        d = b["dst"].to_numpy(np.int64)
        if not loops:
            keep = s != d
            s, d = s[keep], d[keep]
        if not directed:
            s, d = np.minimum(s, d), np.maximum(s, d)
        return pd.DataFrame({"src": s, "dst": d}).drop_duplicates()

    simple = _cogroup([(_to_edge_ds(edges).map_batches(
        orient, batch_format="pandas"), ("src", "dst"), _EDGE)],
        lambda e: e.drop_duplicates(), num_buckets, _EDGE)
    if not directed:
        simple = simple.map_batches(_both_ways, batch_format="pandas")
    return simple.materialize()


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

    Every iterative loop here rebuilds round state as
    co-group(static edges, last round's state) -> materialize, and a
    groupby's output block count tracks its INPUT block count — so
    state blocks grow by the edge block count every round (and
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

    Edge rows carry ``w = 1/outdeg(src)``, attached once. Each
    iteration is exactly TWO shuffles: (a) co-group current
    (vertex, rank) rows with the edges keyed on src and emit
    per-bucket PRE-SUMMED (dst, contrib) partials, (b) union those
    with static per-vertex ZERO rows (so every vertex — including ones
    with no in-edges — appears in the result) and run one grouped sum
    by dst; the new rank is then a plain streaming map over that
    vertex-sized slim aggregate, (1-d)/N + d*(in_sum + dangling/N).
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
    wedge = {"src": "int64", "dst": "int64", "val": "float64"}
    deg = {"src": "int64", "deg": "float64"}

    def with_weight(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": b["src"].to_numpy(np.int64),
            "dst": b["dst"].to_numpy(np.int64),
            "val": (b[weight_col].to_numpy(np.float64) if weight_col
                    else np.ones(len(b), dtype=np.float64))})

    edge_rows = edges.map_batches(with_weight,
                                  batch_format="pandas").materialize()
    if edge_rows.count() == 0:
        return rd.from_pandas(pd.DataFrame(
            {"vertex": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="float64")}))

    # out-weight sums -> edge factor w/Σw, attached once (static)
    degs = _cogroup(
        [(edge_rows.map_batches(
            lambda b: b.groupby("src", as_index=False)
            .agg(deg=("val", "sum")), batch_format="pandas"),
          "src", deg)],
        lambda d: d.groupby("src", as_index=False)["deg"].sum(),
        num_buckets, deg)

    def weight_edges(e: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        out = e.merge(d, on="src")
        out["val"] = out["val"].to_numpy(np.float64) \
            * (1.0 / out["deg"].to_numpy(np.float64))
        return out

    weighted = _cogroup([(edge_rows, "src", wedge), (degs, "src", deg)],
                        weight_edges, num_buckets, wedge).materialize()

    vertices = _vertices_of(edge_rows)
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

    def contribute(e: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        m = e.merge(r, left_on="src", right_on="vertex")
        m["c"] = m["val"] * m["rank"]
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
        insums = _bound_blocks(grouped_agg(
            _cogroup([(weighted, "src", wedge),
                      (ranks, "vertex",
                       {"vertex": "int64", "rank": "float64"})],
                     contribute, num_buckets,
                     {"dst": "int64", "c": "float64"})
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
# shape: labels co-group with the adjacency keyed on src, per-bucket
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
    edge_rows = _to_edge_ds(edges).map_batches(
        _both_ways, batch_format="pandas").materialize()
    labels = _own_labels(_vertices_of(edge_rows))
    counts = {"dst": "int64", "label": "int64", "n": "int64"}

    def contribs(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        m = e.merge(lab, left_on="src", right_on="vertex")
        return (m.groupby(["dst", "label"], sort=False)
                .size().reset_index(name="n"))

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby(["dst", "label"], sort=False)["n"].sum()
             .reset_index())
        s = s.sort_values(["dst", "n", "label"],
                          ascending=[True, False, True],
                          kind="mergesort")
        top = s.groupby("dst", sort=False).head(1)
        return pd.DataFrame({"vertex": top["dst"], "label": top["label"]})

    for _ in range(iters):
        cnt = _cogroup([(edge_rows, "src", _EDGE),
                        (labels, "vertex", _LABEL)],
                       contribs, num_buckets, counts)

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

        labels = _bound_blocks(
            _cogroup([(cnt.union(fallback), "dst", counts)], argmax,
                     num_buckets, _LABEL).materialize(),
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
    so the fixpoint test is the values' ``_multiset_sig``.

    Each round is exactly two slim co-groups — (a) current values
    with the both-ways edge list keyed on src, emitting (dst, c_src)
    int pairs, (b) those pairs with the vertex set keyed on the
    vertex, computing the h-index per vertex with a sort-free
    prefix-count (values sorted desc within the vertex; h = #positions
    with c_i >= rank_i); a vertex with no surviving edge (self-loop
    only) gets h = 0. Driver state per round is O(1); vertex values
    stay a Dataset.
    """
    all_verts = _vertices_of(edges)
    if all_verts.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "coreness": pd.Series([], dtype="int64")})
    edir = _simple_edges(edges, num_buckets, directed=False)
    val = {"vertex": "int64", "c": "int64"}

    def degree(e: pd.DataFrame) -> pd.DataFrame:
        deg = e.groupby("src").size()
        return pd.DataFrame({"vertex": deg.index, "c": deg.to_numpy()})

    values = _cogroup([(edir, "src", _EDGE)], degree, num_buckets,
                      val).materialize()
    if values.count() == 0:
        # only self-loops in the input: every vertex has coreness 0
        av = all_verts.to_pandas().sort_values("vertex")
        return pd.DataFrame({
            "vertex": av["vertex"].to_numpy(np.int64),
            "coreness": np.zeros(len(av), np.int64)})

    def attach(e: pd.DataFrame, v: pd.DataFrame) -> pd.DataFrame:
        return e.merge(v, left_on="src", right_on="vertex")

    def hindex(nc: pd.DataFrame, v: pd.DataFrame) -> pd.DataFrame:
        nc = nc.sort_values(["dst", "c"], ascending=[True, False])
        rank = nc.groupby("dst").cumcount().to_numpy() + 1
        ok = nc["c"].to_numpy(np.int64) >= rank
        h = (pd.DataFrame({"dst": nc["dst"].to_numpy(np.int64),
                           "ok": ok})
             .groupby("dst")["ok"].sum())
        return pd.DataFrame({
            "vertex": v["vertex"],
            "c": h.reindex(v["vertex"].to_numpy(), fill_value=0)
            .to_numpy(np.int64)})

    prev = _multiset_sig(values, ("vertex", "c"))
    for _ in range(max_iters):
        nbr = _cogroup([(edir, "src", _EDGE), (values, "vertex", val)],
                       attach, num_buckets, {"dst": "int64", "c": "int64"})
        values = _bound_blocks(
            _cogroup([(nbr, "dst", {"dst": "int64", "c": "int64"}),
                      (all_verts, "vertex", _VERTEX)],
                     hindex, num_buckets, val).materialize(),
            num_buckets)
        cur = _multiset_sig(values, ("vertex", "c"))
        if cur == prev:
            break
        prev = cur
    else:
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

    The `pagerank` matvec shape, twice per round: the authority
    update a[dst] += h[src] co-groups the scores with the edges keyed
    on src, the hub update h[src] += a[dst] keys them on dst. Each
    half-step emits per-bucket PRE-SUMMED (out, contrib) partials,
    folds them with one grouped sum (static zero rows keep score-less
    vertices present), and L1-normalizes with a scalar the driver
    reads from one tiny aggregate — per-iteration driver state is
    O(1); shuffled rows are always slim (id, float) pairs, never the
    edge payload."""
    simple = _simple_edges(edges, num_buckets, directed=True,
                           loops=True)
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "hub": pd.Series([], dtype="float64"),
                             "authority": pd.Series([], dtype="float64")})

    vertices = _vertices_of(simple)
    n = vertices.count()
    score = {"vertex": "int64", "score": "float64"}

    zero_rows = vertices.map_batches(
        lambda b: pd.DataFrame({
            "out": b["vertex"].to_numpy(np.int64),
            "c": np.zeros(len(b), dtype=np.float64)}),
        batch_format="pandas").materialize()

    def contribute(e: pd.DataFrame, r: pd.DataFrame, key: str,
                   out: str) -> pd.DataFrame:
        m = e.merge(r, left_on=key, right_on="vertex")
        return (m.groupby(out, as_index=False)["score"].sum()
                .rename(columns={out: "out", "score": "c"}))

    from .aggregates import grouped_agg

    def matvec(scores, key: str, out: str):
        sums = _bound_blocks(grouped_agg(
            _cogroup([(simple, key, _EDGE), (scores, "vertex", score)],
                     functools.partial(contribute, key=key, out=out),
                     num_buckets, {"out": "int64", "c": "float64"})
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
        auths = matvec(hubs, "src", "dst")
        hubs = matvec(auths, "dst", "src")

    hd = hubs.to_pandas().rename(columns={"score": "hub"})
    ad = auths.to_pandas().rename(columns={"score": "authority"})
    df = hd.merge(ad, on="vertex")
    df["vertex"] = df["vertex"].astype("int64")
    return df.sort_values("vertex").reset_index(drop=True)


def _shrink_vertices(act, gone, num_buckets: int):
    """act minus gone (both (vertex) Datasets) via one co-group."""
    return _bound_blocks(_cogroup(
        [(act, "vertex", _VERTEX), (gone, "vertex", _VERTEX)],
        lambda a, g: a.loc[~a["vertex"].isin(g["vertex"])],
        num_buckets, _VERTEX).materialize(), num_buckets)


def _prio(v: np.ndarray, rnd: int, seed: int) -> np.ndarray:
    """Deterministic per-(vertex, round) priority — identical on every
    worker for the same inputs, fresh each round so a stalled hash
    tie (neither endpoint joins under strict <) resolves next round."""
    salt = np.uint64(((rnd + 1) * 0x9E3779B97F4A7C15 + seed)
                     % (1 << 64))
    return pd.util.hash_array(
        np.ascontiguousarray(v, dtype=np.int64).view(np.uint64)
        ^ salt)


_PRIO = {"vertex": "int64", "p": "uint64"}


def _with_prio(vertices, rnd: int, seed: int) -> "rd.Dataset":
    """(vertex, p = _prio) rows for a (vertex) Dataset, materialized."""
    return vertices.map_batches(
        lambda b: pd.DataFrame({
            "vertex": b["vertex"].to_numpy(np.int64),
            "p": _prio(b["vertex"].to_numpy(np.int64), rnd, seed)}),
        batch_format="pandas").materialize()


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

    Each round is a constant number of slim co-groups (attach
    neighbor priorities + grouped min, winner test, dominate
    neighbors, shrink the undecided set) — no step holds the vertex
    or edge set in one process; O(log n) expected rounds. Neighbor
    attributes attach through the both-ways edge list keyed on dst:
    a (src, dst) row carries dst's attribute to src."""
    simple = _simple_edges(edges, num_buckets, directed=False)
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "in_mis": pd.Series([], dtype=bool)})

    vertices = _vertices_of(simple)
    undec = vertices
    in_parts: list[pd.DataFrame] = []  # O(|MIS|) driver rows total

    from .aggregates import grouped_agg

    # min undecided-neighbor priority per vertex (matvec-min)
    def nbr_min(e: pd.DataFrame, pr: pd.DataFrame) -> pd.DataFrame:
        r = (e.merge(pr, left_on="dst", right_on="vertex")
             .groupby("src", as_index=False)["p"].min())
        return pd.DataFrame({"vertex": r["src"], "mn": r["p"]})

    # winner test: own prio strictly below the neighbor min;
    # vertices with NO undecided neighbor join unconditionally
    def decide(own: pd.DataFrame, mn: pd.DataFrame) -> pd.DataFrame:
        m = own.merge(mn, on="vertex", how="left")
        return m.loc[m["mn"].isna() | (m["p"] < m["mn"])]

    def dominated(e: pd.DataFrame, w: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"vertex": np.unique(
            e.loc[e["dst"].isin(w["vertex"]), "src"]
            .to_numpy(np.int64))})

    for rnd in range(max_iters):
        n_undec = undec.count()
        if n_undec == 0:
            break

        prio_rows = _with_prio(undec, rnd, seed)
        mins = grouped_agg(
            _cogroup([(simple, "dst", _EDGE),
                      (prio_rows, "vertex", _PRIO)],
                     nbr_min, num_buckets,
                     {"vertex": "int64", "mn": "uint64"}),
            ["vertex"], {"mn": ("mn", "min")},
            num_buckets=num_buckets)

        winners = _bound_blocks(_cogroup(
            [(prio_rows, "vertex", _PRIO),
             (mins, "vertex", {"vertex": "int64", "mn": "uint64"})],
            decide, num_buckets, _VERTEX).materialize(), num_buckets)
        w_df = winners.to_pandas()  # per-round driver rows; the final
        # return is vertex-sized pandas anyway (repo convention for
        # per-vertex graph results)
        if not len(w_df):
            continue  # full-round hash-tie stall: re-draw next round
        in_parts.append(w_df)

        # dominate: neighbors of winners leave; winners leave too
        gone = _cogroup([(simple, "dst", _EDGE),
                         (winners, "vertex", _VERTEX)],
                        dominated, num_buckets, _VERTEX).union(winners)
        undec = _shrink_vertices(undec, gone, num_buckets)
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

    Each round: one co-group over the both-ways edge list keyed on
    dst attaches neighbor state (uncolored priorities -> per-vertex
    max partial; colored colors -> deduped (vertex, color) rows), then
    one decide co-group computes winners + their mex AND the
    surviving uncolored set in the same group (all rows for a vertex
    share its hash bucket), so a round is exactly TWO shuffles.
    Colored-neighbor rows re-ship each round (bounded by edge count;
    an incremental used-color sidecar is the at-scale refinement and
    would not change results)."""
    simple = _simple_edges(edges, num_buckets, directed=False)
    if simple.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "color": pd.Series([], dtype="int64")})

    uncolored = _vertices_of(simple)
    colored = None  # Dataset (vertex, color), grown by union
    color = {"vertex": "int64", "color": "int64"}
    state = {"vertex": "int64", "p": "uint64", "c": "int64",
             "is_col": "bool"}

    def nbr_state(e: pd.DataFrame, unc: pd.DataFrame,
                  col: pd.DataFrame | None = None) -> pd.DataFrame:
        """Per src vertex: max uncolored-neighbor prio partials
        (is_col False) and deduped colored-neighbor colors (True)."""
        r = (e.merge(unc, left_on="dst", right_on="vertex")
             .groupby("src", as_index=False)["p"].max())
        outs = [pd.DataFrame({"vertex": r["src"], "p": r["p"],
                              "c": np.int64(-1), "is_col": False})]
        if col is not None:
            mc = e.merge(col, left_on="dst", right_on="vertex")[
                ["src", "color"]].drop_duplicates()
            outs.append(pd.DataFrame({"vertex": mc["src"],
                                      "p": np.uint64(0),
                                      "c": mc["color"],
                                      "is_col": True}))
        return pd.concat(outs, ignore_index=True)

    def decide(own: pd.DataFrame, st: pd.DataFrame) -> pd.DataFrame:
        """Winners = own prio strictly above the uncolored-neighbor
        max (or no uncolored neighbor); color = mex of neighbor
        colors, vectorized over the whole group. Emits EVERY own
        vertex: winners with their color, survivors with color -1 —
        the survivor rows ARE next round's uncolored set, so no
        separate shrink shuffle is needed."""
        mx = st.loc[~st["is_col"], ["vertex", "p"]] \
            .rename(columns={"p": "mx"})
        if len(mx):
            mx = mx.groupby("vertex", as_index=False)["mx"].max()
        m = own.merge(mx, on="vertex", how="left")
        win = (m["mx"].isna() | (m["p"] > m["mx"])).to_numpy()
        w = m.loc[win, ["vertex"]]
        if len(w):
            nc = st.loc[st["is_col"], ["vertex", "c"]] \
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
        out["color"] = out["color"].fillna(-1)
        return out

    def _bound(ds):
        return _bound_blocks(ds, num_buckets)

    for _ in range(max_iters):
        if uncolored.count() == 0:
            break

        unc_rows = _with_prio(uncolored, 0, seed)
        sides = [(simple, "dst", _EDGE), (unc_rows, "vertex", _PRIO)]
        if colored is not None:
            sides.append((colored, "vertex", color))
        nbr = _cogroup(sides, nbr_state, num_buckets, state)

        decided = _cogroup([(unc_rows, "vertex", _PRIO),
                            (nbr, "vertex", state)],
                           decide, num_buckets, color).materialize()

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


def strongly_connected_components(edges, num_buckets: int = 32,
                                  max_outer: int = 50,
                                  max_inner: int = 100
                                  ) -> pd.DataFrame:
    """SCCs of the directed graph of (src, dst) rows. Returns one row
    per vertex: (vertex, scc) with ``scc = min vertex id of its
    strongly connected component``; deterministic and
    partitioning-invariant. Self-loops are irrelevant (a vertex is
    always in its own SCC); parallel edges are deduped up front."""
    fe = _simple_edges(edges, num_buckets, directed=True)
    act = _vertices_of(edges)
    if act.count() == 0:
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                             "scc": pd.Series([], dtype="int64")})

    def drop_incident(fe_ds, gone_ds):
        """Remove edges with either endpoint in gone — one co-group
        per endpoint."""
        out = fe_ds
        for col in ("src", "dst"):
            out = _bound_blocks(_cogroup(
                [(out, col, _EDGE), (gone_ds, "vertex", _VERTEX)],
                lambda e, g, _c=col: e.loc[~e[_c].isin(g["vertex"])],
                num_buckets, _EDGE).materialize(), num_buckets)
        return out

    def fixpoint(edge_rows, labels0, what: str):
        labels = _minlabel_fixpoint(edge_rows, labels0, num_buckets,
                                    max_inner)
        if labels is None:
            raise RuntimeError(
                f"SCC {what} propagation did not converge in "
                f"{max_inner} rounds (active-subgraph diameter exceeds "
                "max_iters)")
        return labels

    # ---- trim: active vertices missing from src- or dst-side
    def trivial(v: pd.DataFrame, out_e: pd.DataFrame,
                in_e: pd.DataFrame) -> pd.DataFrame:
        return v.loc[~v["vertex"].isin(out_e["src"])
                     | ~v["vertex"].isin(in_e["dst"])]

    # ---- mark: an edge keeps its dst's color in cd until its src's
    # color attaches; equal-color edges survive, reversed
    def dst_color(e: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        return e.merge(c, left_on="dst", right_on="vertex") \
            .rename(columns={"label": "cd"})

    def same_color_rev(e: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
        m = e.merge(c, left_on="src", right_on="vertex")
        m = m.loc[m["label"] == m["cd"]]
        return pd.DataFrame({"src": m["dst"], "dst": m["src"]})

    def classify(c: pd.DataFrame, mk: pd.DataFrame) -> pd.DataFrame:
        j = c.merge(mk, on="vertex", suffixes=("", "_mark"))
        return pd.DataFrame({"vertex": j["vertex"], "scc": j["label"],
                             "done": j["label_mark"] == j["label"]})

    assigned: list[pd.DataFrame] = []

    for _ in range(max_outer):
        if act.count() == 0:
            break

        triv = _cogroup([(act, "vertex", _VERTEX),
                         (fe, "src", {"src": "int64"}),
                         (fe, "dst", {"dst": "int64"})],
                        trivial, num_buckets, _VERTEX).materialize()
        t_df = triv.to_pandas()
        if len(t_df):
            assigned.append(pd.DataFrame({
                "vertex": t_df["vertex"].astype("int64"),
                "scc": t_df["vertex"].astype("int64")}))
            fe = drop_incident(fe, triv)
            act = _shrink_vertices(act, triv, num_buckets)
            continue  # re-trim until the periphery is gone

        # ---- color: forward min-id propagation over active edges
        colors = fixpoint(fe, _own_labels(act), "color")

        # ---- mark: backward reachability of each root inside its
        # color region, over reversed equal-color edges
        with_cd = _cogroup([(fe, "dst", _EDGE), (colors, "vertex", _LABEL)],
                           dst_color, num_buckets,
                           {"src": "int64", "dst": "int64", "cd": "int64"})
        rev_cc = _cogroup(
            [(with_cd, "src", {"src": "int64", "dst": "int64",
                               "cd": "int64"}),
             (colors, "vertex", _LABEL)],
            same_color_rev, num_buckets, _EDGE).materialize()

        # roots seed their own id; everyone else seeds +inf — after
        # the fixpoint, marked iff label == color
        marks0 = colors.map_batches(
            lambda b: pd.DataFrame({
                "vertex": b["vertex"].to_numpy(np.int64),
                "label": np.where(
                    b["vertex"].to_numpy(np.int64)
                    == b["label"].to_numpy(np.int64),
                    b["vertex"].to_numpy(np.int64), _SCC_INF)}),
            batch_format="pandas").materialize()
        marks = fixpoint(rev_cc, marks0, "mark")

        # join colors + marks per vertex, split assigned vs surviving
        cm = _cogroup([(colors, "vertex", _LABEL),
                       (marks, "vertex", _LABEL)],
                      classify, num_buckets,
                      {"vertex": "int64", "scc": "int64",
                       "done": "bool"}).materialize()
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


def multi_source_bfs(edges, sources, *, directed: bool = False,
                     num_buckets: int = 32,
                     max_iters: int = 100) -> pd.DataFrame:
    """Exact BFS distance AND shortest-path count from every source
    to every reachable vertex, all sources in one batched sweep.
    Returns (source, vertex, dist, sigma) — one row per reachable
    pair; unreachable pairs are absent. Level-synchronous: sigma of
    a level-(L+1) vertex sums the final sigmas of its level-L
    predecessors, so counts are exact (Brandes' forward phase)."""
    edge_rows = _simple_edges(edges, num_buckets, directed=directed)

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
    svs = {"s": "int64", "v": "int64", "sig": "int64"}

    def expand(e: pd.DataFrame, f: pd.DataFrame) -> pd.DataFrame:
        r = (e.merge(f, left_on="src", right_on="v")
             .groupby(["s", "dst"], as_index=False)["sig"].sum())
        return r.rename(columns={"dst": "v"})

    def settle(cand: pd.DataFrame, have: pd.DataFrame) -> pd.DataFrame:
        """candidates minus already-settled pairs, sigma partials
        summed globally (all partials for a pair hash to this
        bucket)."""
        summed = cand.groupby(["s", "v"], as_index=False)["sig"].sum()
        m = summed.merge(have.assign(__h=True), on=["s", "v"],
                         how="left")
        return m.loc[m["__h"].isna()]

    level = 0
    for _ in range(max_iters):
        cand = _cogroup([(edge_rows, "src", _EDGE),
                         (frontier, "v", svs)],
                        expand, num_buckets, svs)
        new = _bound_blocks(_cogroup(
            [(cand, ("s", "v"), svs),
             (settled, ("s", "v"), {"s": "int64", "v": "int64"})],
            settle, num_buckets, svs).materialize(), num_buckets)
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
    verts = _vertices_of(edges).to_pandas()
    out = (verts.astype({"vertex": "int64"})
           .merge(got, on="vertex", how="left"))
    out["harmonic"] = out["harmonic"].fillna(0.0)
    return out.sort_values("vertex").reset_index(drop=True)


def _bfs_from_sample(edges, k_sources, sources, seed, directed,
                     num_buckets, max_iters):
    edges = _to_edge_ds(edges).materialize()
    verts = _vertices_of(edges)
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
    endpoints per source (two co-groups, keyed on u, then on (s, w))
    and keeping dist_w == dist_u + 1; the backward sweep runs one
    LEVEL at a time (deepest first) — a level's deltas are final when
    computed, so each level is two slim co-groups (successor
    contributions pre-summed per (source, pred), then merged into the
    state) and nothing cardinality-proportional touches the driver
    until the final per-vertex fold."""
    edges_ds = _to_edge_ds(edges).materialize()
    bfs, src_arr, n = _bfs_from_sample(edges_ds, k_sources, sources,
                                       seed, directed, num_buckets,
                                       max_iters)
    verts = _vertices_of(edges_ds).to_pandas()
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
    state = {"s": "int64", "v": "int64", "d": "int64", "sig": "int64"}
    half = {"s": "int64", "u": "int64", "w": "int64", "d_u": "int64",
            "sig_u": "int64"}
    dag_cols = {"s": "int64", "u": "int64", "w": "int64",
                "sig_u": "int64", "sig_w": "int64", "d_w": "int64"}
    full = dict(state, delta="float64")
    sv_c = {"s": "int64", "v": "int64", "c": "float64"}

    # ---- attach (d, sig) of the u side: every source's state meets
    # every edge at u
    def attach_u(e: pd.DataFrame, stt: pd.DataFrame) -> pd.DataFrame:
        m = e.merge(stt, left_on="src", right_on="v")
        return m.rename(columns={"src": "u", "dst": "w", "d": "d_u",
                                 "sig": "sig_u"})

    # ---- attach the w side by (s, w) and keep DAG edges
    def attach_w(h: pd.DataFrame, stt: pd.DataFrame) -> pd.DataFrame:
        m = h.merge(stt.rename(columns={"v": "w", "d": "d_w",
                                        "sig": "sig_w"}), on=["s", "w"])
        return m.loc[m["d_w"] == m["d_u"] + 1]

    # global dedup of the directed edge list (a reverse duplicate in
    # another block would otherwise double-count its contributions)
    canon_edges = _simple_edges(edges_ds, num_buckets, directed=directed)
    half_ds = _cogroup([(canon_edges, "src", _EDGE), (st, "v", state)],
                       attach_u, num_buckets, half)
    dag = _cogroup([(half_ds, ("s", "w"), half), (st, ("s", "v"), state)],
                   attach_w, num_buckets, dag_cols).materialize()

    def contribs(e: pd.DataFrame, dl: pd.DataFrame) -> pd.DataFrame:
        m = e.merge(dl.rename(columns={"v": "w", "delta": "delta_w"}),
                    on=["s", "w"])
        m["c"] = m["x"] * (1.0 + m["delta_w"])
        return (m.groupby(["s", "u"], as_index=False)["c"].sum()
                .rename(columns={"u": "v"}))

    def merge_delta(base: pd.DataFrame, add: pd.DataFrame) -> pd.DataFrame:
        m = base.merge(add.groupby(["s", "v"], as_index=False)["c"].sum(),
                       on=["s", "v"], how="left")
        m["delta"] = m["delta"] + m["c"].fillna(0.0)
        return m

    # ---- backward sweep, one level at a time (deltas of a level
    # are final before the level below reads them)
    for lev in range(lmax, 0, -1):
        def dag_level(b: pd.DataFrame, _l=lev) -> pd.DataFrame:
            b = b.loc[b["d_w"] == _l]
            return pd.DataFrame({
                "s": b["s"], "u": b["u"], "w": b["w"],
                "x": b["sig_u"].to_numpy(np.float64)
                / b["sig_w"].to_numpy(np.float64)})

        contrib = _cogroup(
            [(dag.map_batches(dag_level, batch_format="pandas"),
              ("s", "w"), {"s": "int64", "u": "int64", "w": "int64",
                           "x": "float64"}),
             (st.map_batches(lambda b, _l=lev: b.loc[b["d"] == _l],
                             batch_format="pandas"),
              ("s", "v"), {"s": "int64", "v": "int64",
                           "delta": "float64"})],
            contribs, num_buckets, sv_c)
        st = _bound_blocks(_cogroup(
            [(st, ("s", "v"), full), (contrib, ("s", "v"), sv_c)],
            merge_delta, num_buckets, full).materialize(), num_buckets)

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
    verts = _vertices_of(edges)
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
