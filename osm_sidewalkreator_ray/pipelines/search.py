"""Inverted-index build + boolean search over the ``documents`` table.

The search-engine-shaped pair of operators a corpus platform needs
next to its dedup/quality stack:

- :func:`build_inverted_index` — explode docs to slim (term, doc_id,
  tf) rows, co-locate by term-hash bucket, and write one posting row
  per term (doc_ids sorted, parallel tf list) as parquet PARTITIONED
  BY BUCKET. The bucket count is the only partitioning knob: at
  100 TB pick it so one bucket's postings fit a task.
- :func:`search_index` — boolean AND/OR over query terms. Reads ONLY
  the partitions holding the query terms' buckets (hive partition
  pruning at the parquet read — the "prune at the read" rule), then
  intersects/unions the postings vectorized.

Postings store doc_ids ascending so intersections are linear merges
(np.intersect1d on sorted input).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from .textops import _tokens


def _bucket_of(terms: np.ndarray, num_buckets: int) -> np.ndarray:
    return (pd.util.hash_array(terms) % num_buckets).astype(np.int64)


def _explode_terms(batch: pd.DataFrame,
                   num_buckets: int) -> pd.DataFrame:
    """(doc_id, text) batch -> long (term, doc_id, tf, b) rows — ONE
    shared definition for build and incremental update, so the two
    can never bucket or tokenize differently (divergence would
    corrupt partition pruning)."""
    terms, ids, tfs = [], [], []
    for did, text in zip(batch["doc_id"], batch["text"]):
        cnt = Counter(_tokens(text))
        terms.extend(cnt.keys())
        tfs.extend(cnt.values())
        ids.extend([did] * len(cnt))
    t = np.asarray(terms, dtype=object)
    out = pd.DataFrame({
        "term": t,
        "doc_id": pd.Series(ids, dtype="int64"),
        "tf": pd.Series(tfs, dtype="int64")})
    out["b"] = _bucket_of(t, num_buckets) if len(out) else \
        pd.Series([], dtype="int64")
    return out


def build_inverted_index(docs, out_dir: str, num_buckets: int = 32):
    """documents Dataset (doc_id, text) -> hive-partitioned parquet
    index at ``out_dir`` (b=<bucket>/...), one row per term:
    (term, df, doc_ids list asc, tfs list aligned)."""
    def postings(g: pd.DataFrame) -> pd.DataFrame:
        # whole bucket at once: one sort, one groupby-agg (vectorized)
        g = g.sort_values(["term", "doc_id"], kind="mergesort")
        agg = g.groupby("term", sort=True)
        n = agg.ngroups
        return pd.DataFrame({
            "term": list(agg.groups.keys()),
            "df": agg["doc_id"].count().to_numpy(np.int64),
            "doc_ids": agg["doc_id"].agg(list).to_numpy(object),
            "tfs": agg["tf"].agg(list).to_numpy(object),
            # generation 0 at build; update_inverted_index bumps it so
            # readers can break df ties toward the newest row
            "gen": np.zeros(n, dtype=np.int64),
            "b": agg["b"].first().to_numpy(np.int64)})

    # materialize the slim long rows once: the postings shuffle AND
    # the BM25 doc-length sidecar both read them, so the corpus is
    # tokenized exactly once (deriving dl = sum(tf) from these rows
    # replaces a second full tokenize pass over the documents)
    rows = docs.map_batches(
        lambda b: _explode_terms(b, num_buckets),
        batch_format="pandas").materialize()
    idx = rows.groupby("b").map_groups(postings, batch_format="pandas")
    idx.write_parquet(out_dir, partition_cols=["b"])
    _write_format_marker(out_dir)
    _write_doclens_from_rows(rows, out_dir)
    return out_dir


INDEX_FORMAT_VERSION = 2


def _write_format_marker(index_dir: str) -> None:
    """``_format.json`` records the index layout version (underscore
    prefix keeps it out of pyarrow dataset discovery). v2 = postings
    carry a ``gen`` column and the BM25 sidecars are derived from the
    exploded rows (zero-token docs excluded from n_docs/avgdl) with
    idempotent, content-addressed writes. A dir WITHOUT the marker
    predates v2: its sidecar semantics differ, so v2 updates refuse
    to append to it (mixing both in one _meta read would skew idf)."""
    import json
    import os
    path = os.path.join(index_dir, "_format.json")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"version": INDEX_FORMAT_VERSION,
                       "sidecars": "dl-from-rows",
                       "postings": "gen-column"}, f)
        os.rename(tmp, path)


def _index_format_version(index_dir: str) -> int:
    import json
    import os
    path = os.path.join(index_dir, "_format.json")
    if not os.path.exists(path):
        return 1
    with open(path) as f:
        return int(json.load(f).get("version", 1))


def _load_postings(index_dir: str, terms: list[str],
                   num_buckets: int = 32) -> dict[str, np.ndarray]:
    """Read postings for ``terms`` only — the parquet read is pruned
    to the terms' hash buckets (hive partition filter) and then to the
    term rows (row filter pushdown)."""
    import pyarrow.dataset as pads
    t = np.asarray(sorted(set(terms)), dtype=object)
    buckets = sorted(set(_bucket_of(t, num_buckets).tolist()))
    ds = pads.dataset(index_dir, partitioning="hive")
    expr = (pads.field("b").isin(buckets)
            & pads.field("term").isin(list(map(str, t))))
    cols = ["term", "df", "doc_ids"]
    has_gen = "gen" in ds.schema.names
    if has_gen:
        cols.append("gen")
    tbl = ds.to_table(columns=cols, filter=expr)
    # a crash window in update_inverted_index can leave a stale file
    # next to the merged one; keep the newest generation's row (df
    # breaks remaining ties for pre-gen v1 indexes, where the merged
    # row's postings are a superset of the stale one's)
    out: dict[str, np.ndarray] = {}
    best: dict[str, tuple] = {}
    gens = (tbl["gen"].to_pylist() if has_gen
            else [0] * tbl.num_rows)
    for term, df, ids, gen in zip(tbl["term"].to_pylist(),
                                  tbl["df"].to_pylist(),
                                  tbl["doc_ids"].to_pylist(), gens):
        key = (gen, df)
        if term not in best or key > best[term]:
            best[term] = key
            out[term] = np.asarray(ids, dtype=np.int64)
    return out


def search_index(index_dir: str, terms: list[str], mode: str = "and",
                 num_buckets: int = 32) -> pd.DataFrame:
    """Boolean search: doc_ids matching ALL (``and``) or ANY (``or``)
    of ``terms``. Returns a (doc_id) DataFrame sorted ascending."""
    post = _load_postings(index_dir, terms, num_buckets=num_buckets)
    lists = [post.get(t, np.empty(0, dtype=np.int64))
             for t in dict.fromkeys(terms)]  # unique, order-stable
    if not lists:
        hits = np.empty(0, dtype=np.int64)
    elif mode == "and":
        hits = lists[0]
        for p in lists[1:]:
            hits = np.intersect1d(hits, p, assume_unique=True)
    elif mode == "or":
        hits = np.unique(np.concatenate(lists))
    else:
        raise ValueError(f"mode must be and/or, got {mode!r}")
    return pd.DataFrame({"doc_id": pd.Series(hits, dtype="int64")})


def update_inverted_index(new_docs, index_dir: str,
                          num_buckets: int = 32) -> list[int]:
    """INCREMENTAL index maintenance: fold a batch of NEW documents
    (doc_id, text — ids must not already be indexed; dedup
    upstream) into an existing
    ``build_inverted_index`` directory. Only the term-hash buckets
    that actually receive new postings are rewritten — every other
    partition's files are untouched, so repeated ingests stay
    proportional to the DELTA, not the corpus (the same
    partitioned-resume contract as the join checkpoints). Returns the
    touched bucket ids.

    Per touched bucket (one Ray task each): read that partition's
    postings, explode ONLY the terms that gained docs back to long
    rows, merge with the new rows, re-aggregate, write a fresh file
    and drop the old ones (temp + rename for the new file, so a crash
    mid-bucket leaves the old postings readable).

    CONVERGENT under crashes and Ray task retries — for postings AND
    sidecars: the merge dedupes (term, doc_id) pairs, so re-merging a
    bucket whose directory already holds the merged file (a retry, or
    a crash between rename and old-file removal) is a no-op on
    content; merged rows carry ``gen = max(old gens) + 1``, so
    readers resolve the transient old+merged coexistence by keeping
    the newest generation's row per term (deterministic even when a
    contract-violating re-ingest leaves df tied with different tfs);
    and the ``_doclens``/``_meta`` sidecar writes are
    content-addressed (deterministic update id, write-once), so a
    crashed-then-retried update never double-counts dl or meta rows.

    Requires a v2 (``_format.json``) index: v1 dirs predate the
    row-derived sidecar semantics, and appending v2 meta rows to them
    would skew BM25 idf/avgdl — rebuild instead."""
    import os
    import uuid

    if _index_format_version(index_dir) < INDEX_FORMAT_VERSION:
        raise ValueError(
            f"{index_dir} is a v1 index (no _format.json): its "
            "sidecar semantics predate row-derived doclens; rebuild "
            "with build_inverted_index before incremental updates")

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        import pyarrow as pa
        b = int(g["b"].iloc[0])
        part_dir = os.path.join(index_dir, f"b={b}")
        new_terms = set(g["term"])
        keep_rows, long_rows = [], [g[["term", "doc_id", "tf"]]]
        old_files = []
        max_gen = 0
        if os.path.isdir(part_dir):
            for fn in sorted(os.listdir(part_dir)):
                if not fn.endswith(".parquet"):
                    continue
                old_files.append(os.path.join(part_dir, fn))
                old = pq.read_table(
                    os.path.join(part_dir, fn)).to_pandas()
                if "gen" not in old.columns:
                    old = old.assign(gen=np.int64(0))
                max_gen = max(max_gen, int(old["gen"].max())
                              if len(old) else 0)
                hit = old["term"].isin(new_terms)
                keep_rows.append(old[~hit])
                aff = old[hit]
                if len(aff):
                    long_rows.append(pd.DataFrame({
                        "term": np.repeat(
                            aff["term"].to_numpy(object),
                            aff["df"].to_numpy(np.int64)),
                        "doc_id": np.concatenate(
                            [np.asarray(x, dtype=np.int64)
                             for x in aff["doc_ids"]]),
                        "tf": np.concatenate(
                            [np.asarray(x, dtype=np.int64)
                             for x in aff["tfs"]])}))
        # (term, doc_id) dedup makes the merge IDEMPOTENT: on a retry
        # the new rows are already inside the exploded old postings
        # and fold to the same lists instead of duplicating doc_ids
        merged = (pd.concat(long_rows, ignore_index=True)
                  .drop_duplicates(["term", "doc_id"])
                  .sort_values(["term", "doc_id"], kind="mergesort"))
        agg = merged.groupby("term", sort=True)
        n_fresh = agg.ngroups
        fresh = pd.DataFrame({
            "term": list(agg.groups.keys()),
            "df": agg["doc_id"].count().to_numpy(np.int64),
            "doc_ids": agg["doc_id"].agg(list).to_numpy(object),
            "tfs": agg["tf"].agg(list).to_numpy(object),
            # newest generation wins any reader-side tie-break
            "gen": np.full(n_fresh, max_gen + 1, dtype=np.int64)})
        kept = [k[["term", "df", "doc_ids", "tfs", "gen"]]
                for k in keep_rows if len(k)]
        out = pd.concat([fresh] + kept, ignore_index=True)
        # old + merged files can coexist after a crash window; their
        # untouched terms are identical rows — keep the newest gen
        out = (out.sort_values(["term", "gen", "df"],
                               ascending=[True, False, False])
               .drop_duplicates("term", keep="first"))
        os.makedirs(part_dir, exist_ok=True)
        tmp = os.path.join(part_dir, f".tmp-{uuid.uuid4().hex}")
        final = os.path.join(part_dir,
                             f"upd-{uuid.uuid4().hex}.parquet")
        pq.write_table(pa.Table.from_pandas(out, preserve_index=False),
                       tmp)
        os.rename(tmp, final)
        for f in old_files:
            os.remove(f)
        return pd.DataFrame({"b": [b]})

    rows = new_docs.map_batches(
        lambda b: _explode_terms(b, num_buckets),
        batch_format="pandas").materialize()
    touched = (rows.groupby("b").map_groups(merge_bucket,
                                            batch_format="pandas")
               .to_pandas())
    _write_doclens_from_rows(rows, index_dir)  # append-only sidecars
    return sorted(int(x) for x in touched.get("b", []))


# --------------------------------------------------- BM25 ranking

def _write_doclens_from_rows(rows, index_dir: str) -> None:
    """Content-addressed (doc_id, dl) sidecar under ``_doclens/``
    plus a (n_docs, total_len) row under ``_meta/`` — underscore
    prefixes keep pyarrow's hive loader from mixing them into the
    postings. Each update contributes one ``upd-<uid>`` unit where
    ``uid`` is a DETERMINISTIC order-independent hash of the
    (doc_id, dl) rows, and both the doclens directory and the meta
    file are write-once (tmp + atomic rename; skip when the target
    already exists) — so a crashed-then-retried update can never
    duplicate dl rows or inflate n_docs/total_len. The reader still
    just sums the meta rows.

    ``rows`` is the already-exploded (term, doc_id, tf) table: a
    doc's length is exactly sum(tf), so the sidecar costs one slim
    grouped aggregation instead of a SECOND full tokenize pass over
    the corpus. Zero-token docs have no rows and so no dl entry —
    they can never be a BM25 hit, and they carry 0 into total_len
    either way; n_docs likewise counts docs with at least one term
    (consistent between build and update by construction; the
    ``_format.json`` v2 marker records this semantics boundary)."""
    import os
    import shutil
    import uuid
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..functions.aggregates import grouped_agg as _gagg

    for sub in ("_doclens", "_meta"):
        os.makedirs(os.path.join(index_dir, sub), exist_ok=True)
    # the (doc_id, dl) table is corpus-sized: never collect it to the
    # driver; read the meta scalars and the deterministic update id
    # off tiny aggregates and let write_parquet fan the files out
    # from the workers
    dl_ds = _gagg(rows.select_columns(["doc_id", "tf"]),
                  ["doc_id"], {"dl": ("tf", "sum")}).materialize()
    n_docs = dl_ds.count()
    total_len = int(dl_ds.sum("dl")) if n_docs else 0

    def _hash_partial(b: pd.DataFrame) -> pd.DataFrame:
        # commutative mix: per-row 64-bit mix summed mod 2^64, so the
        # uid is independent of row order / partitioning
        with np.errstate(over="ignore"):
            h = (b["doc_id"].to_numpy(np.uint64)
                 * np.uint64(0x9E3779B185EBCA87)
                 ^ b["dl"].to_numpy(np.uint64)
                 * np.uint64(0xC2B2AE3D27D4EB4F))
        return pd.DataFrame({"h": [np.uint64(h.sum(dtype=np.uint64))]})

    parts = dl_ds.map_batches(_hash_partial,
                              batch_format="pandas").to_pandas()
    with np.errstate(over="ignore"):
        uid = f"{int(parts['h'].to_numpy(np.uint64).sum(dtype=np.uint64)):016x}-{n_docs}"

    dl_final = os.path.join(index_dir, "_doclens", f"upd-{uid}")
    if not os.path.exists(dl_final):
        tmp = os.path.join(index_dir, "_doclens",
                           f".tmp-{uuid.uuid4().hex}")
        dl_ds.write_parquet(tmp)
        try:
            os.rename(tmp, dl_final)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # lost the race

    meta_final = os.path.join(index_dir, "_meta",
                              f"part-{uid}.parquet")
    if not os.path.exists(meta_final):
        meta = pa.table({"n_docs": pa.array([n_docs], pa.int64()),
                         "total_len": pa.array([total_len],
                                               pa.int64())})
        mtmp = os.path.join(index_dir, "_meta",
                            f".tmp-{uuid.uuid4().hex}.parquet")
        pq.write_table(meta, mtmp)
        os.rename(mtmp, meta_final)


def bm25_search(index_dir: str, terms: list[str], k: int = 10,
                k1: float = 1.5, b: float = 0.75,
                num_buckets: int = 32) -> pd.DataFrame:
    """Okapi BM25 top-k over the inverted index (Robertson/Walker,
    Lucene's idf = ln(1 + (N - df + 0.5)/(df + 0.5))): postings (ids,
    tfs, df) come from the PRUNED partition read; doc lengths come
    from the ``_doclens`` sidecar with a pushed-down ``doc_id IN
    hits`` row filter, so scoring reads O(|hits|) rows of each store,
    never the corpus. Requires the index to have been built/updated
    by code that writes the sidecars."""
    import os
    import pyarrow.dataset as pads
    import pyarrow.compute as pc
    import pyarrow as pa

    t = np.asarray(sorted(set(terms)), dtype=object)
    buckets = sorted(set(_bucket_of(t, num_buckets).tolist()))
    dset = pads.dataset(index_dir, partitioning="hive")
    cols = ["term", "df", "doc_ids", "tfs"]
    has_gen = "gen" in dset.schema.names
    if has_gen:
        cols.append("gen")
    tbl = dset.to_table(
        columns=cols,
        filter=(pads.field("b").isin(buckets)
                & pads.field("term").isin(list(map(str, t)))))
    if tbl.num_rows == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    # stale+merged coexistence tolerance (see update_inverted_index):
    # keep the newest generation's row per term (df breaks remaining
    # ties for pre-gen v1 indexes)
    tdf = tbl.to_pandas()
    if not has_gen:
        tdf = tdf.assign(gen=np.int64(0))
    tdf = tdf.sort_values(["term", "gen", "df"],
                          ascending=[True, False, False]) \
        .drop_duplicates("term", keep="first") \
        .drop(columns=["gen"])
    tbl = pa.Table.from_pandas(tdf, preserve_index=False)

    meta = pads.dataset(
        os.path.join(index_dir, "_meta")).to_table().to_pandas()
    n_docs = int(meta["n_docs"].sum())
    avg_dl = float(meta["total_len"].sum()) / max(n_docs, 1)

    ids_all = [np.asarray(x, dtype=np.int64)
               for x in tbl["doc_ids"].to_pylist()]
    hits = np.unique(np.concatenate(ids_all))
    dl_tbl = pads.dataset(
        os.path.join(index_dir, "_doclens")).to_table(
        filter=pc.field("doc_id").isin(
            pa.array(hits, type=pa.int64()))).to_pandas()
    dl_ids = dl_tbl["doc_id"].to_numpy(np.int64)
    order = np.argsort(dl_ids)
    dl_sorted, dlv = dl_ids[order], \
        dl_tbl["dl"].to_numpy(np.float64)[order]

    acc_ids = hits
    acc = np.zeros(len(hits), dtype=np.float64)
    for df_, ids, tfs in zip(tbl["df"].to_pylist(), ids_all,
                             tbl["tfs"].to_pylist()):
        tf = np.asarray(tfs, dtype=np.float64)
        dl = dlv[np.searchsorted(dl_sorted, ids)]
        idf = np.log(1.0 + (n_docs - df_ + 0.5) / (df_ + 0.5))
        s = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avg_dl))
        acc[np.searchsorted(acc_ids, ids)] += s
    take = np.lexsort((acc_ids, -acc))[:k]
    return pd.DataFrame({
        "doc_id": acc_ids[take],
        "score": np.round(acc[take], 6)})
