"""Vector/similarity operators over the ``embeddings`` table.

- brute-force cosine top-k against a broadcast query matrix (numpy
  matmul per batch, partial top-k per batch, tiny driver-side merge)
- kNN self-join for a sample of query vectors
- approximate top-k: an IVF probe (``ivf_topk``) and a navigable
  small-world graph per IVF list (``nsw_topk``)
- exact embedding near-duplicate pairs, scored block pair by block pair
- distributed k-means with the in-context document order built on
  it, and the logistic-regression fit/scorer of the trained quality
  classifier
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd


def _read_emb(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=columns)


def _batch_matrix(batch: pd.DataFrame) -> np.ndarray:
    return np.stack(batch["embedding"].to_numpy()).astype(np.float64)


def embedding_norms(sf_dir: str):
    """vec_id -> L2 norm (vectorized per batch)."""
    ds = _read_emb(sf_dir, ["vec_id", "embedding"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        m = _batch_matrix(batch)
        return pd.DataFrame({"vec_id": batch["vec_id"],
                             "l2_norm": np.linalg.norm(m, axis=1).round(6)})

    out = ds.map_batches(f, batch_format="pandas")
    return out.to_pandas().sort_values("vec_id").reset_index(drop=True)


NORMS_SQL = """
SELECT vec_id,
       ROUND(sqrt(list_dot_product(embedding::DOUBLE[], embedding::DOUBLE[])), 6)
         AS l2_norm
FROM embeddings ORDER BY vec_id
"""


# per-worker-process cache of resolved query matrices: stateless tasks
# get actor-style fetch-once behavior without paying actor-pool
# spin-up per query call (and without Ray's fragile
# constructor-args-in-object-store actor-restart path)
_Q_CACHE: dict[str, np.ndarray] = {}


def _resolve_q(q_ref) -> np.ndarray:
    key = q_ref.hex()
    q = _Q_CACHE.pop(key, None)  # pop+reinsert = LRU move-to-end
    if q is None:
        q = ray.get(q_ref)
        if len(_Q_CACHE) >= 16:
            _Q_CACHE.pop(next(iter(_Q_CACHE)))
    _Q_CACHE[key] = q
    return q


def _cosine_topk_batch(batch: pd.DataFrame, q_ref, k: int) -> pd.DataFrame:
    """(nq, d) unit-normalized query matrix vs a batch: partial top-k
    per query — only k rows per (batch, query) leave the task."""
    q = _resolve_q(q_ref)
    m = _batch_matrix(batch)
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    sims = mn @ q.T  # (batch, nq)
    out = {"query_id": [], "vec_id": [], "cosine_sim": []}
    ids = batch["vec_id"].to_numpy()
    kk = min(k, len(ids))
    for qi in range(q.shape[0]):
        s = sims[:, qi]
        top = np.argpartition(-s, kk - 1)[:kk]
        out["query_id"].extend([qi] * kk)
        out["vec_id"].extend(ids[top])
        out["cosine_sim"].extend(s[top])
    return pd.DataFrame(out)


def ann_topk(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k vs the vec_id=0 embedding: per-batch
    partial top-k, merged on the driver (only k rows per batch move)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put(q)
    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    import functools
    partial = ds.map_batches(
        functools.partial(_cosine_topk_batch, q_ref=q_ref, k=k),
        batch_format="pandas", batch_size=4096)
    df = partial.to_pandas()
    df["cosine_sim"] = df["cosine_sim"].astype(float)
    df = df.sort_values(["cosine_sim", "vec_id"],
                        ascending=[False, True]).head(k)
    df["cosine_sim"] = df["cosine_sim"].round(6)
    return df[["vec_id", "cosine_sim"]].reset_index(drop=True)


ANN_TOPK_SQL = """
SELECT e.vec_id,
       ROUND(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]), 6)
         AS cosine_sim
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]) DESC,
         e.vec_id
LIMIT 10
"""


def knn_join_sample(sf_dir: str, n_queries: int = 5, k: int = 3):
    """For vec_id 0..n_queries-1: top-k nearest (excluding self)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n_queries)])
    order = np.argsort(t["vec_id"].to_numpy())
    q = np.stack([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"].to_pylist()])[order]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put(q)
    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    import functools
    partial = ds.map_batches(
        functools.partial(_cosine_topk_batch, q_ref=q_ref, k=k + 1),
        batch_format="pandas", batch_size=4096)
    df = partial.to_pandas()
    df = df[df["query_id"] != df["vec_id"]]
    df = (df.sort_values(["query_id", "cosine_sim", "vec_id"],
                         ascending=[True, False, True])
            .groupby("query_id").head(k))
    df["cosine_sim"] = df["cosine_sim"].astype(float).round(6)
    return df[["query_id", "vec_id", "cosine_sim"]].reset_index(drop=True)


KNN_SQL = """
SELECT q.vec_id AS query_id, e.vec_id,
       ROUND(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]), 6)
         AS cosine_sim
FROM embeddings e, embeddings q
WHERE q.vec_id < 5 AND e.vec_id != q.vec_id
QUALIFY row_number() OVER (
  PARTITION BY q.vec_id
  ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]) DESC,
           e.vec_id) <= 3
ORDER BY query_id, cosine_sim DESC, e.vec_id
"""


def _train_coarse(sample: np.ndarray, n_clusters: int,
                  rng: np.random.RandomState,
                  iters: int = 5) -> np.ndarray:
    """Unit-norm coarse centroids via cosine Lloyd on the sample."""
    cent = sample[rng.choice(len(sample), n_clusters,
                             replace=False)].copy()
    for _ in range(iters):
        lab = (sample @ cent.T).argmax(axis=1)
        for c in range(n_clusters):
            sel = sample[lab == c]
            if len(sel):
                v = sel.mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    return cent


def ivf_topk(sf_dir: str, k: int = 10, n_clusters: int = 16,
             n_probe: int = 4, seed: int = 42):
    """IVF-style ANN (the scale path next to brute force): deterministic
    mini-kmeans centroids (fixed 5 Lloyd iterations over a driver-side
    sample), vectors bucketed by nearest centroid via map_batches, and
    the query probes only ``n_probe`` inverted lists. Rows-only check
    (approximate by construction); recall vs the exact oracle is
    asserted in tests."""
    import pyarrow.parquet as pq
    # train centroids on a Ray-side sample: only 2048 rows ever reach
    # the driver, not the whole table
    sample_df = (_read_emb(sf_dir, ["embedding"]).limit(2048)).to_pandas()
    sample = np.stack([np.asarray(v, dtype=np.float64)
                       for v in sample_df["embedding"]])
    sample = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    cent = _train_coarse(sample, n_clusters,
                         np.random.RandomState(seed))
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    q = q / np.linalg.norm(q)
    probes = np.argsort(-(cent @ q))[:n_probe]
    cent_ref = ray.put(cent)
    probe_ref = ray.put(np.asarray(probes))
    q_ref = ray.put(q[None, :])

    def bucket_and_score(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cent_ref)
        pr = ray.get(probe_ref)
        qv = ray.get(q_ref)
        m = _batch_matrix(batch)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        lab = (m @ c.T).argmax(axis=1)
        keep = np.isin(lab, pr)
        sims = (m[keep] @ qv.T)[:, 0]
        return pd.DataFrame({"vec_id": batch["vec_id"].to_numpy()[keep],
                             "cosine_sim": sims})

    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    df = ds.map_batches(bucket_and_score, batch_format="pandas").to_pandas()
    df = df.sort_values(["cosine_sim", "vec_id"],
                        ascending=[False, True]).head(k)
    df["cosine_sim"] = df["cosine_sim"].round(6)
    return df.reset_index(drop=True)


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                         "vec_b": pd.Series([], dtype="int64"),
                         "cosine_sim": pd.Series([], dtype="float64")})


@ray.remote
def _block_pair_sims(blk_a, blk_b, same_block: bool,
                     sim_threshold: float) -> pd.DataFrame:
    """Cosine all-pairs between two embedding blocks; only pairs at or
    above the threshold leave the task. ``same_block`` restricts to the
    upper triangle so each unordered pair is emitted exactly once."""
    def mat(blk):
        df = blk.to_pandas() if not isinstance(blk, pd.DataFrame) else blk
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        return df["vec_id"].to_numpy().astype(np.int64), m / n[:, None]

    ids_a, m_a = mat(blk_a)
    if same_block:
        ids_b, m_b = ids_a, m_a
    else:
        ids_b, m_b = mat(blk_b)
    sims = m_a @ m_b.T
    ia, ib = np.nonzero(sims >= sim_threshold)
    va, vb = ids_a[ia], ids_b[ib]
    if same_block:
        # both orientations (and the diagonal) are present; keep each
        # unordered pair exactly once
        m = va < vb
    else:
        m = np.ones(len(va), dtype=bool)  # blocks partition vec_ids
    out_a = np.minimum(va, vb)[m]
    out_b = np.maximum(va, vb)[m]
    s = sims[ia, ib][m]
    if len(out_a) == 0:
        return _empty_pairs()
    return pd.DataFrame({"vec_a": out_a, "vec_b": out_b,
                         "cosine_sim": np.round(s, 6)})


def embedding_near_dups_exact(sf_dir: str, sim_threshold: float = 0.4,
                              target_block_rows: int = 4096):
    """EXACT embedding-cosine near-dup pairs (every pair at or above
    ``sim_threshold``).

    Physical plan: the embeddings table is repartitioned into B blocks;
    B(B+1)/2 raw Ray tasks each score one block pair (same-block tasks
    take the upper triangle), emitting only pairs >= threshold. Block
    object refs are taken from the Dataset's ref bundles — the table is
    never materialized on the driver; only the (small) surviving pairs
    are. Raw tasks are used because the Dataset API has no cartesian
    self-join; the O(N^2/B) flops per task is inherent to the exact
    semantics.
    """
    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    n = ds.count()
    nblocks = max(1, -(-n // target_block_rows))
    refs = [r for bundle in ds.repartition(nblocks).iter_internal_ref_bundles()
            for r in bundle.block_refs]
    futs = []
    for i in range(len(refs)):
        futs.append(_block_pair_sims.remote(refs[i], None, True,
                                            sim_threshold))
        for j in range(i + 1, len(refs)):
            futs.append(_block_pair_sims.remote(refs[i], refs[j], False,
                                                sim_threshold))
    parts = [p for p in ray.get(futs) if len(p)]
    if not parts:
        return _empty_pairs()
    df = pd.concat(parts, ignore_index=True)
    return (df.drop_duplicates(["vec_a", "vec_b"])
            .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))


EMBEDDING_NEAR_DUPS_EXACT_SQL = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[],
                                    b.embedding::DOUBLE[]), 6)
         AS cosine_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
      >= 0.4
ORDER BY vec_a, vec_b
"""


# ------------------------------------------------- distributed k-means
#
# Lloyd's algorithm as the canonical distributed iterative operator
# (semantic clustering for data curation at corpus scale). Per
# iteration: centroids broadcast once (`ray.put`, zero-copy numpy
# views in every task); each batch does ONE matmul assignment +
# ONE scatter-add and emits a single packed partial row (k x d sums,
# k counts, batch inertia); partials fold through a <=32-bucket groupby
# so the driver sees O(buckets) rows of O(k*d) floats, never vectors.
# The corpus itself STREAMS through each epoch — no materialization of
# the input, which is the 100 TB shape (one read pass per iteration).


def _assign(m: np.ndarray, cents: np.ndarray):
    """Nearest-centroid assignment: ||x-c||^2 via the expanded form,
    one (B,k) matmul per batch. Returns (labels, squared distances)."""
    x2 = np.einsum("ij,ij->i", m, m)
    c2 = np.einsum("ij,ij->i", cents, cents)
    d2 = x2[:, None] - 2.0 * (m @ cents.T) + c2[None, :]
    lab = np.argmin(d2, axis=1)
    return lab, np.maximum(d2[np.arange(len(lab)), lab], 0.0)


def _kmeans_init(ds, k: int) -> np.ndarray:
    """Deterministic init: the embeddings of the k smallest vec_ids
    (per-batch partial min-k, tiny driver merge — k rows per block)."""
    def part(b: pd.DataFrame) -> pd.DataFrame:
        return b.nsmallest(k, "vec_id")[["vec_id", "embedding"]]
    top = ds.map_batches(part, batch_format="pandas").to_pandas()
    top = top.nsmallest(k, "vec_id")
    return np.stack(top.sort_values("vec_id")["embedding"]
                    .map(np.asarray).to_list()).astype(np.float64)


def kmeans_fit_ds(ds, k: int = 8, iters: int = 10,
                  n_fold_buckets: int = 32) -> dict:
    """Fit k-means over an embeddings Dataset (vec_id, embedding).
    Returns {"centroids": (k,d) float64, "counts": (k,), "inertia":
    [per-iteration SSE]}. Empty clusters keep their previous centroid.
    Driver state is O(k*d) + O(n_fold_buckets) partial rows."""
    cents = _kmeans_init(ds, k)
    inertia_hist: list[float] = []
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(iters):
        ref = ray.put(cents)

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(ref)
            m = _batch_matrix(batch).astype(np.float64)
            lab, d2 = _assign(m, c)
            sums = np.zeros_like(c)
            np.add.at(sums, lab, m)
            cnt = np.bincount(lab, minlength=len(c)).astype(np.int64)
            return pd.DataFrame({
                "sums": [sums.ravel()], "counts": [cnt],
                "inertia": [float(d2.sum())],
                "__b": [int(pd.util.hash_array(
                    np.asarray([batch["vec_id"].iloc[0]]))[0]
                    % n_fold_buckets)]})

        def combine(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "sums": [np.sum(np.stack(g["sums"].to_list()), axis=0)],
                "counts": [np.sum(np.stack(g["counts"].to_list()),
                                  axis=0)],
                "inertia": [float(g["inertia"].sum())],
                "__b": [int(g["__b"].iloc[0])]})

        folded = (ds.map_batches(partial, batch_format="pandas")
                  .groupby("__b").map_groups(combine,
                                             batch_format="pandas")
                  .to_pandas())
        sums = np.sum(np.stack(folded["sums"].map(np.asarray).to_list()),
                      axis=0).reshape(k, -1)
        counts = np.sum(np.stack(folded["counts"].map(np.asarray)
                                 .to_list()), axis=0).astype(np.int64)
        inertia_hist.append(float(folded["inertia"].sum()))
        nz = counts > 0
        new = cents.copy()
        new[nz] = sums[nz] / counts[nz, None]
        cents = new
    return {"centroids": cents, "counts": counts,
            "inertia": inertia_hist}


# --------------------------- in-context pretraining document order

def incontext_order_ds(emb_ds, centroids: np.ndarray):
    """In-context pretraining ordering (Shi et al. '23,
    arXiv:2310.10638): place semantically related documents ADJACENT
    in the training stream — cluster by embedding, then chain nearest
    neighbors greedily within each cluster. Returns one row per doc:
    (vec_id, cluster, pos); the concatenation order is (cluster, pos).

    Physical plan: streaming nearest-centroid assign (broadcast
    centroid matrix; the label rides the SAME batch as the vector —
    no join) -> ONE cluster shuffle of (vec_id, cluster, embedding)
    rows -> per-cluster greedy chain as a map_groups task (start at
    the smallest vec_id, repeatedly jump to the nearest unvisited
    member — one vectorized distance row per step, O(m²) flops
    confined to the task). Partitioning assumption: a single
    cluster's members fit one task; pick k so corpus/k does, re-split
    skewed clusters with a second k-means level. Deterministic: ties
    in the per-step argmin resolve to the smallest vec_id (members are
    pre-sorted by vec_id)."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(ref)
        lab, _ = _assign(_batch_matrix(batch).astype(np.float64), c)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].to_numpy().astype(np.int64),
            "cluster": lab.astype(np.int64),
            "embedding": batch["embedding"].to_numpy()})

    pairs = emb_ds.map_batches(tag, batch_format="pandas")

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        m = _batch_matrix(g).astype(np.float64)
        n = len(ids)
        order = np.empty(n, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cur = 0
        x2 = np.einsum("ij,ij->i", m, m)
        for step in range(n):
            order[step] = cur
            visited[cur] = True
            if step + 1 == n:
                break
            d2 = x2 - 2.0 * (m @ m[cur]) + x2[cur]
            d2[visited] = np.inf
            cur = int(np.argmin(d2))  # first index = smallest vec_id
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        return pd.DataFrame({
            "vec_id": ids,
            "cluster": g["cluster"].to_numpy(np.int64),
            "pos": pos})

    return pairs.groupby("cluster").map_groups(
        chain, batch_format="pandas")


def incontext_order(sf_dir: str, k: int = 8, iters: int = 5):
    """Collecting form: fit k-means over the embeddings table, then
    the within-cluster nearest-neighbor chain. Rows-only driver check
    (greedy/iterative); the permutation property, chain optimality on
    a line, and adjacent-similarity lift over a shuffled baseline are
    tested."""
    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    fit = kmeans_fit_ds(ds, k=k, iters=iters)
    df = incontext_order_ds(ds, fit["centroids"]).to_pandas()
    return df.sort_values(["cluster", "pos"]).reset_index(drop=True)


# ------------------------------------------------ logistic regression
#
# Full-batch gradient-descent logistic regression — the learned-filter
# trainer of ``textops.trained_quality_classifier``: the fit runs in
# one process over a driver-sized training sample, and the corpus is
# scored by one streaming matvec pass against the broadcast weights.
# Full-batch GD is deterministic, unlike minibatch SGD whose result
# depends on sample order.


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logreg_fit_local(m: np.ndarray, y: np.ndarray, iters: int = 50,
                     lr: float = 0.5, l2: float = 0.0) -> dict:
    """Fit P(y=1|x) = sigmoid(w.x + b) over the rows of ``m``.
    Returns {"w": (d,), "b": float, "loss": [per-epoch mean
    log-loss]}."""
    wb = np.zeros(m.shape[1] + 1, dtype=np.float64)
    loss_hist = []
    for _ in range(iters):
        p = _sigmoid(m @ wb[:-1] + wb[-1])
        r = p - y
        q = np.clip(p, 1e-12, 1 - 1e-12)
        loss_hist.append(float(-np.mean(y * np.log(q)
                                        + (1 - y) * np.log(1 - q))))
        grad = np.concatenate([r @ m, [r.sum()]]) / len(y)
        grad[:-1] += l2 * wb[:-1]
        wb = wb - lr * grad
    return {"w": wb[:-1], "b": float(wb[-1]), "loss": loss_hist}


def logreg_predict_ds(ds, w: np.ndarray, b: float,
                      threshold: float = 0.5):
    """Streaming scorer: (vec_id, proba, pred) — one matvec per batch
    against the broadcast weights."""
    ref = ray.put(np.asarray(w, dtype=np.float64))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(ref)
        p = _sigmoid(_batch_matrix(batch).astype(np.float64) @ v + b)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].to_numpy().astype(np.int64),
            "proba": np.round(p, 6),
            "pred": (p >= threshold).astype(np.int64)})

    return ds.map_batches(f, batch_format="pandas")


# ------------------------------------ graph ANN: NSW per IVF list
#
# The retrieval-industry default complement to IVF: a navigable
# small-world graph (Malkov et al., "Approximate nearest neighbor
# algorithm based on navigable small world graphs", Inf. Systems '14;
# the layered variant is HNSW, TPAMI'18). True HNSW insertion is
# inherently sequential; the DISTRIBUTED construction here follows the
# verdict's partitioned recipe: build an independent two-layer NSW per
# IVF coarse list, so every graph build is a bounded dense problem
# ((N / n_clusters)^2 within one task) and lists build in parallel via
# groupby(list_id).map_groups. Query = probe the n_probe nearest
# lists (the IVF routing step) and run greedy ef-search inside each
# probed list's graph, seeded through its hub layer — the search
# touches O(ef * M) vectors instead of the probed lists' full scan
# that ``ivf_topk`` does.


def _nsw_list_graph(g: pd.DataFrame, n_neighbors: int,
                    hub_stride: int) -> pd.DataFrame:
    """One coarse list -> NSW rows (vec_id, list_id, neighbors,
    hub_neighbors, is_entry, vec float32 bytes). Layer 0: each node
    links to its n_neighbors nearest in-list nodes (exact, dense).
    Layer 1 (hubs): every hub_stride-th node by id order also links
    to its nearest hubs — the long-range lattice greedy descent
    enters through. Entry = the node nearest the list mean."""
    ids = g["vec_id"].to_numpy(np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    mm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in g["embedding"].to_numpy()[order]])
    mm = mm / np.maximum(np.linalg.norm(mm, axis=1, keepdims=True),
                         1e-12)
    n = len(ids)
    m_eff = min(n_neighbors, n - 1)
    sims = mm @ mm.T
    np.fill_diagonal(sims, -np.inf)
    if m_eff > 0:
        nbr_idx = np.argpartition(-sims, m_eff - 1,
                                  axis=1)[:, :m_eff]
        # deterministic: order each row's links by sim desc
        row_s = np.take_along_axis(sims, nbr_idx, axis=1)
        ordr = np.argsort(-row_s, kind="stable", axis=1)
        nbr_idx = np.take_along_axis(nbr_idx, ordr, axis=1)
        neighbors = [ids[r].tolist() for r in nbr_idx]
    else:
        neighbors = [[] for _ in range(n)]
    hubs = np.zeros(n, dtype=bool)
    hubs[::hub_stride] = True
    hub_pos = np.flatnonzero(hubs)
    hub_nbrs = [[] for _ in range(n)]
    if len(hub_pos) > 1:
        hs = sims[np.ix_(hub_pos, hub_pos)]
        hm = min(m_eff if m_eff > 0 else 1, len(hub_pos) - 1)
        hidx = np.argpartition(-hs, hm - 1, axis=1)[:, :hm]
        row_s = np.take_along_axis(hs, hidx, axis=1)
        ordr = np.argsort(-row_s, kind="stable", axis=1)
        hidx = np.take_along_axis(hidx, ordr, axis=1)
        for i, p in enumerate(hub_pos):
            hub_nbrs[p] = ids[hub_pos[hidx[i]]].tolist()
    centroid = mm.mean(axis=0)
    entry_pos = int(np.argmax(mm @ centroid))
    is_entry = np.zeros(n, dtype=bool)
    # the entry must sit on the hub layer so descent starts there
    if not hubs[entry_pos]:
        entry_pos = int(hub_pos[np.argmax(mm[hub_pos] @ centroid)])
    is_entry[entry_pos] = True
    return pd.DataFrame({
        "vec_id": ids,
        "list_id": np.full(n, int(g["list_id"].iloc[0]),
                           dtype=np.int64),
        "neighbors": neighbors,
        "hub_neighbors": hub_nbrs,
        "is_hub": hubs,
        "is_entry": is_entry,
        "vec": [mm[i].astype(np.float32).tobytes() for i in range(n)]})


def nsw_build(sf_dir: str, n_clusters: int = 16, n_neighbors: int = 8,
              hub_stride: int = 8, seed: int = 42,
              sample_n: int = 2048):
    """Distributed NSW construction: coarse quantizer trained on a
    driver sample (the ``ivf_topk`` recipe), corpus assigned to lists
    in one map_batches pass, one bounded dense graph build per list
    via groupby(list_id).map_groups. Returns (graph Dataset, coarse
    centroids). List count should grow ~sqrt(N) at scale (same sizing
    rule as IVF) so the per-task (N/L)^2 stays bounded."""
    sample_df = (_read_emb(sf_dir, ["embedding"]).limit(sample_n)
                 ).to_pandas()
    x = np.stack([np.asarray(v, dtype=np.float64)
                  for v in sample_df["embedding"]])
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    rng = np.random.RandomState(seed)
    coarse = _train_coarse(x, n_clusters, rng)
    cref = ray.put(coarse)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        mn = _batch_matrix(batch)
        mn = mn / np.maximum(np.linalg.norm(mn, axis=1, keepdims=True),
                             1e-12)
        return pd.DataFrame({
            "vec_id": batch["vec_id"].to_numpy(np.int64),
            "list_id": (mn @ c.T).argmax(axis=1).astype(np.int64),
            "embedding": batch["embedding"]})

    ds = _read_emb(sf_dir, ["vec_id", "embedding"])
    assigned = ds.map_batches(assign, batch_format="pandas")
    import functools
    graph = assigned.groupby("list_id").map_groups(
        functools.partial(_nsw_list_graph, n_neighbors=n_neighbors,
                          hub_stride=hub_stride),
        batch_format="pandas")
    return graph, coarse


def _nsw_search_rows(rows: pd.DataFrame, q: np.ndarray,
                     ef: int) -> list[tuple[float, int]]:
    """Greedy best-first ef-search over ONE probed list's graph rows:
    descend the hub layer from the entry, then refine on layer 0.
    Returns [(sim, vec_id)] of the <= ef best visited nodes."""
    import heapq
    d = q.shape[0]
    ids = rows["vec_id"].to_numpy(np.int64)
    vecs = np.frombuffer(b"".join(rows["vec"]),
                         dtype=np.float32).reshape(len(ids), d)
    sim_all = vecs @ q.astype(np.float32)
    pos = {int(v): i for i, v in enumerate(ids)}
    nbrs = rows["neighbors"].to_numpy()
    hnbrs = rows["hub_neighbors"].to_numpy()

    def search(adj, seeds, budget):
        visited = set(seeds)
        cand = [(-float(sim_all[pos[s]]), s) for s in seeds]
        heapq.heapify(cand)
        best = [(float(sim_all[pos[s]]), s) for s in seeds]
        heapq.heapify(best)
        while cand:
            negs, v = heapq.heappop(cand)
            if len(best) >= budget and -negs < best[0][0]:
                break
            for u in adj[pos[v]]:
                u = int(u)
                if u in visited:
                    continue
                visited.add(u)
                s = float(sim_all[pos[u]])
                if len(best) < budget or s > best[0][0]:
                    heapq.heappush(best, (s, u))
                    if len(best) > budget:
                        heapq.heappop(best)
                    heapq.heappush(cand, (-s, u))
        return best

    entry = int(ids[rows["is_entry"].to_numpy(bool)][0])
    # layer 1: cheap hub descent to find good layer-0 seeds
    hub_best = search(hnbrs, [entry], max(4, ef // 8))
    seeds = [v for _, v in hub_best]
    return search(nbrs, seeds, ef)


def nsw_topk(sf_dir: str, k: int = 10, n_clusters: int = 16,
             n_neighbors: int = 8, n_probe: int = 4, ef: int = 50,
             seed: int = 42, _graph=None, _coarse=None):
    """Graph-ANN top-k for the standard probe query (vec_id 0, the
    ``ann_topk`` oracle's query): IVF routing to ``n_probe`` lists,
    greedy NSW ef-search inside each, exact float64 rerank of the
    fused shortlist via a pushed-down ``vec_id IN`` parquet fetch.
    Candidate budget = ef per probed list; recall is measured
    against the exact ``ann_topk`` set."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if _graph is None:
        _graph, _coarse = nsw_build(sf_dir, n_clusters=n_clusters,
                                    n_neighbors=n_neighbors, seed=seed)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    q = q / np.linalg.norm(q)
    probes = set(np.argsort(-(_coarse @ q))[:n_probe].tolist())

    probed = _graph.map_batches(
        lambda b: b[b["list_id"].isin(probes)],
        batch_format="pandas").to_pandas()
    found: list[tuple[float, int]] = []
    for _, rows in probed.groupby("list_id"):
        found.extend(_nsw_search_rows(rows, q, ef))
    if not found:
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                             "cosine_sim": pd.Series([], dtype="float64")})
    ids = np.unique(np.array([v for _, v in found], dtype=np.int64))
    rer = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id").isin(pa.array(ids, pa.int64())))
    mm = np.stack([np.asarray(v, dtype=np.float64)
                   for v in rer["embedding"].to_pylist()])
    mm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
    df = pd.DataFrame({"vec_id": rer["vec_id"].to_numpy(),
                       "cosine_sim": mm @ q})
    df = df.sort_values(["cosine_sim", "vec_id"],
                        ascending=[False, True]).head(k)
    df["cosine_sim"] = df["cosine_sim"].round(6)
    return df.reset_index(drop=True)
