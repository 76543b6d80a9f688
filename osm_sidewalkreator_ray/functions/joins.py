"""Join strategies for Ray Data datasets.

Two physical plans, chosen by the caller (SURVEY.md §2.4):

- ``broadcast_join``: the small side is ``ray.put`` once and merged into
  every batch of the big side inside ``map_batches`` — zero shuffle.
  This is the plan for dimension tables (region/nation/supplier/part,
  AOI polygons, width tables). The object ref is resolved once per
  actor, not re-shipped per batch.
- ``hash_partition_join``: both sides large — pad each side to a shared
  Arrow schema, tag with ``bucket = hash(key) % B`` and a side marker,
  union, ``groupby(bucket)`` and merge the two sides per bucket inside
  ``map_groups``. One explicit all-to-all; B controls partition
  granularity; hot keys can be salted by the caller before entry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

_BUCKET = "__jbucket"
_SIDE = "__jside"
# rows bundled per tag task ahead of the join shuffle: coarse enough
# that the sort's per-block scheduler overhead is negligible, small
# enough that a slim tagged batch always fits a worker heap
_TAG_BATCH_ROWS = 262144


# per-worker-process cache of resolved broadcast tables: the small
# side is ray.put once and unpickled once per WORKER PROCESS (workers
# are pooled and reused across stages), so plain tasks get the same
# resolve-once behavior an actor pool gave — without paying pool
# spin-up (~2-3 s at 32 CPUs) on every join call
_SMALL_CACHE: dict[str, pd.DataFrame] = {}
_SMALL_CACHE_MAX = 16


def _resolve_small(ref) -> pd.DataFrame:
    key = ref.hex()
    v = _SMALL_CACHE.pop(key, None)  # pop+reinsert = LRU move-to-end
    if v is None:
        v = ray.get(ref)
        if len(_SMALL_CACHE) >= _SMALL_CACHE_MAX:
            _SMALL_CACHE.pop(next(iter(_SMALL_CACHE)))
    _SMALL_CACHE[key] = v
    return v


def broadcast_join(big, small_df: pd.DataFrame, left_on: str,
                   right_on: str | None = None, how: str = "inner",
                   concurrency=None, batch_size: int = 65536,
                   suffix: str = "_r",
                   max_small_rows: int | None = 2_000_000):
    """Join a Dataset against a small pandas table without a shuffle.

    Runs as stateless tasks; the broadcast ref resolves through a
    process-level cache (``concurrency`` is accepted for backward
    compatibility and caps the task parallelism if given).
    ``max_small_rows`` RAISES when the "small" side is too big to
    ship to every worker (use ``hash_partition_join`` there — the
    same gate q3 applies); pass None to disable.
    """
    if max_small_rows is not None and len(small_df) > max_small_rows:
        raise ValueError(
            f"small side has {len(small_df)} rows > max_small_rows="
            f"{max_small_rows}; use hash_partition_join")
    ref = ray.put(small_df)
    r_on = right_on or left_on

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        small = _resolve_small(ref)
        out = batch.merge(small, how=how, left_on=left_on,
                          right_on=r_on, suffixes=("", suffix))
        if r_on != left_on and r_on in out.columns:
            out = out.drop(columns=[r_on])
        return out

    kw = {}
    if concurrency is not None:
        kw["concurrency"] = (concurrency if isinstance(concurrency, int)
                             else concurrency[-1])
    return big.map_batches(merge, batch_format="pandas",
                           batch_size=batch_size, **kw)


def _stable_bucket(values: pd.Series, num_buckets: int) -> np.ndarray:
    h = pd.util.hash_array(np.asarray(values))
    return (h % num_buckets).astype(np.int64)


def _arrow_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset, tolerating pandas-block datasets
    (object dtype maps to string — adequate for the engine's tables)."""
    s = ds.schema()
    base = s.base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(s.names, base.types):
        if typ == np.dtype("O"):
            fields.append(pa.field(name, pa.string()))
        else:
            fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
    return pa.schema(fields)


def _bloom_hash_idx(values, n_bits: int, n_hashes: int) -> np.ndarray:
    """(len, n_hashes) bit indices via double hashing of the stable
    64-bit key hash (Kirsch/Mitzenmacher: h1 + i*h2 preserves the
    standard Bloom FPR)."""
    h = pd.util.hash_array(np.asarray(values))
    h1 = h % np.uint64(n_bits)
    h2 = ((h * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1))
    i = np.arange(n_hashes, dtype=np.uint64)[None, :]
    return ((h1[:, None] + i * (h2[:, None] % np.uint64(n_bits)))
            % np.uint64(n_bits)).astype(np.int64)


def build_key_bloom(ds, on: str, n_bits: int = 1 << 20,
                    n_hashes: int = 4,
                    key_type: pa.DataType | None = None) -> bytes:
    """Distributed Bloom filter of a key column: each batch sets its
    bits in a fixed-size packed bitmap (n_bits/8 bytes — 128 KiB at
    2^20, independent of row count), the driver ORs the partials.
    FPR ~ (1 - e^(-kn/m))^k; size n_bits to ~10 bits/distinct key for
    ~1-2%. No false negatives ever — PROVIDED the probe side hashes
    the same representation: ``pd.util.hash_array`` is dtype-sensitive
    (int64 vs float64 of the same value hash differently), so the key
    column is cast to ``key_type`` (default: this dataset's own key
    type) before hashing, and probes must cast to the same type."""
    nbytes = n_bits // 8
    ktype = key_type or _arrow_schema(ds).field(on).type

    def partial(t: pa.Table) -> pd.DataFrame:
        vals = t[on].cast(ktype).to_pandas()
        idx = _bloom_hash_idx(vals, n_bits, n_hashes).ravel()
        bits = np.zeros(nbytes, dtype=np.uint8)
        masks = (np.uint16(1) << np.arange(8, dtype=np.uint16)
                 ).astype(np.uint8)
        np.bitwise_or.at(bits, idx >> 3, masks[idx & 7])
        return pd.DataFrame({"bits": [bits.tobytes()]})

    def or_fold(b: pd.DataFrame) -> pd.DataFrame:
        acc0 = np.zeros(nbytes, dtype=np.uint8)
        for blob in b["bits"]:
            acc0 |= np.frombuffer(blob, dtype=np.uint8)
        return pd.DataFrame({"bits": [acc0.tobytes()]})

    # coarse partials (one bitmap per ~256k rows, not per default-1024
    # batch) + two streaming 64-way OR-fold levels keep the driver
    # collect bounded (~#partials/4096 rows) instead of linear in
    # batch count — a 1B-row build side would otherwise ship ~976k
    # 128-KiB partials (~120 GB) to the driver
    rows = (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=_TAG_BATCH_ROWS)
            .map_batches(or_fold, batch_format="pandas", batch_size=64)
            .map_batches(or_fold, batch_format="pandas", batch_size=64)
            .to_pandas())
    acc = np.zeros(nbytes, dtype=np.uint8)
    for blob in rows["bits"]:
        acc |= np.frombuffer(blob, dtype=np.uint8)
    return acc.tobytes()


def _bloom_contains(values, bloom: bytes, n_hashes: int = 4) -> np.ndarray:
    bits = np.frombuffer(bloom, dtype=np.uint8)
    idx = _bloom_hash_idx(values, len(bits) * 8, n_hashes)
    hit = (bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
    return hit.all(axis=1)


def bloom_prefilter(big, keys_side, on: str, n_bits: int = 1 << 20,
                    n_hashes: int = 4):
    """Drop ``big`` rows whose key cannot match any ``keys_side`` key,
    BEFORE a shuffle — the classic runtime-filter pushdown for an
    inner hash join with a selective side. ``keys_side`` is scanned
    once to build the bitmap (materialize it first if it is also a
    join input); survivors are a superset of the true matches (Bloom
    FPR only adds rows, never removes), so join output is unchanged.

    Both sides hash the key CAST to the build side's Arrow type
    (mirroring ``hash_partition_join``'s shared-schema key cast): a
    probe side arriving as float64 after an upstream null-padded join
    would otherwise hash differently from the int64 build keys and
    silently drop true matches."""
    ktype = _arrow_schema(keys_side).field(on).type
    bloom = build_key_bloom(keys_side, on, n_bits, n_hashes,
                            key_type=ktype)
    bloom_ref = ray.put(bloom)

    def keep(t: pa.Table) -> pa.Table:
        b = ray.get(bloom_ref)
        return t.filter(pa.array(_bloom_contains(
            t[on].cast(ktype).to_pandas(), b, n_hashes)))

    return big.map_batches(keep, batch_format="pyarrow")


def detect_hot_keys(ds, on: str, frac: float = 0.05,
                    k_counters: int = 256) -> set:
    """Keys carrying more than ``frac`` of the rows, found with one
    Misra-Gries pass (bounded memory — never a full count groupby).
    MG guarantees every key above total/(k_counters+1) is a candidate;
    count_low is an under-estimate, so the frac test is conservative
    (missing a borderline-hot key costs balance, never correctness)."""
    from .sketches import mg_heavy_hitters
    hh = mg_heavy_hitters(ds, on, k_counters=k_counters,
                          topk=k_counters)
    total = int(hh["n_total"].iloc[0]) if len(hh) else 0
    return {v for v, c in zip(hh["value"], hh["count_low"])
            if total and c > frac * total}


def _auto_buckets(left, right, target_bytes: int = 256 << 20) -> int:
    """Metadata-only bucket count for a partitioned join: a FIXED
    bucket count is the quiet 100 TB bug — 32 buckets over 100 TB is
    ~3 TB per reduce group (must fit one worker's heap) and caps
    reduce parallelism at 32 regardless of cluster size. Scale with
    the cluster (2 buckets/CPU floor, so a 256-node cluster fans out
    natively) and with any side whose byte size is FREE to read
    (materialized inputs only — a lazy Dataset is never executed to
    ask; callers who know their size pass ``num_buckets``
    explicitly). Clamped to [8, 4096]: below 8 loses salting headroom,
    above 4096 the per-bucket scheduler overhead dominates."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    n = cpus * 2
    from ray.data.dataset import MaterializedDataset
    known = sum((s.size_bytes() or 0) for s in (left, right)
                if isinstance(s, MaterializedDataset))
    if known:
        n = max(n, (known + target_bytes - 1) // target_bytes)
    return int(min(4096, max(8, n)))


def hash_partition_join(left, right, on: str | list[str],
                        num_buckets: int | None = 32,
                        how: str = "inner", group_fn=None,
                        hot_keys: set | None = None, n_salts: int = 8):
    """Large-large equi-join via an explicit partitioned hash join.

    Both inputs are Datasets sharing the key column(s) ``on`` (a name
    or a list for COMPOSITE keys — every key's rows still land in one
    bucket, via a rotate-combined per-column hash so (a, b) and (b, a)
    bucket independently); other column names must be disjoint.
    Null-padded to a common schema so the tagged union is one
    homogeneous Dataset. Composite keys support the four equality
    hows only — 'semi'/'anti' membership and hot-key salting are
    defined on a single column (raise otherwise).

    ``group_fn``: optional aggregate pushdown — applied to each
    bucket's merged frame INSIDE the join stage. Because the bucket
    holds every key's full row set, any per-``on``-key group aggregate
    is exact here, and running it in-bucket removes the follow-up
    groupby shuffle a caller would otherwise need. (With ``hot_keys``
    a hot key's rows span its salts, so a pushed-down aggregate must
    be re-combinable by the caller — partial sums/counts are, top-k
    per key is not.)

    ``how``: 'inner' / 'left' / 'right' / 'outer' (pandas-merge
    semantics per bucket — exact because every row of a key lands in
    one bucket), plus 'semi' / 'anti' (left-semi / left-anti with SQL
    EXISTS / NOT EXISTS null semantics: a NULL left key never matches,
    so semi drops it and anti keeps it — unlike the equality hows,
    which inherit pandas' NaN==NaN join behavior). Without
    ``group_fn``, semi/anti emit the filtered left rows as Arrow, so
    every left column keeps its exact type (binary stays binary).

    ``hot_keys`` (skew handling, the brief's "salt hot keys"): each
    listed key gets ``n_salts`` DEDICATED buckets; its left rows
    round-robin across the salts and its right rows are REPLICATED
    into every salt, so one zipf-head key no longer serializes behind
    a single reducer. Inner/left/semi/anti only (an unmatched right
    hot row would surface once per salt under right/outer semantics;
    semi/anti are safe because each salt sees the full replicated
    right key set and emits only left rows). Use ``detect_hot_keys``
    for the one-pass sketch that finds them.

    Both input schemas are read ON THE DRIVER before the join is
    built. On a materialized input that is metadata; on a lazy input
    ``Dataset.schema()`` runs a ``limit(1)`` execution of its plan,
    which re-runs any shuffle upstream of it. Callers therefore hand
    in inputs materialized with their exact Arrow schema (an
    Arrow-producing stage, then ``materialize()``); an input with no
    rows has no schema and fails here, so callers check a pinned
    input's count first.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    if num_buckets is None:
        num_buckets = _auto_buckets(left, right)
    if hot_keys and how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            "salted join supports how='inner'/'left'/'semi'/'anti' only")
    keys = [on] if isinstance(on, str) else list(on)
    if len(keys) > 1 and (how in ("semi", "anti") or hot_keys):
        raise ValueError(
            "composite keys support how='inner'/'left'/'right'/'outer' "
            "only, without hot_keys")
    hot_idx = {k: i for i, k in enumerate(sorted(hot_keys))} \
        if hot_keys else {}
    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    fields = list(lschema)
    lnames = set(lschema.names)
    for f in rschema:
        if f.name not in lnames:
            fields.append(f)
    combined = pa.schema(fields)
    lcols = list(lschema.names)
    rcols = list(rschema.names)

    key_types = {k: combined.field(k).type for k in keys}

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            arrays, names = [], []
            for field in combined:
                names.append(field.name)
                if field.name in t.column_names:
                    arrays.append(t[field.name].cast(field.type))
                else:
                    arrays.append(pa.nulls(len(t), field.type))
            # bucket on the key(s) CAST to the shared schema type:
            # hashing the raw column would bucket int64 keys
            # differently from the same keys arriving as float64
            # (e.g. null-padded through an upstream join), silently
            # dropping ~(B-1)/B of the matches. Composite keys
            # rotate-combine per-column hashes so column order matters
            # and (a, b) never collides with (b, a) by construction.
            h = None
            for i, k in enumerate(keys):
                key = t[k].cast(key_types[k]).to_pandas()
                hk = pd.util.hash_array(np.asarray(key))
                if h is None:
                    h = hk.copy()
                else:
                    r = np.uint64(i % 63 + 1)
                    h ^= (hk << r) | (hk >> (np.uint64(64) - r))
            b = (h % num_buckets).astype(np.int64)
            if hot_idx:
                hot_pos = key.map(hot_idx).to_numpy(dtype=np.float64)
                is_hot = ~np.isnan(hot_pos)
                base = num_buckets + hot_pos[is_hot].astype(np.int64) \
                    * n_salts
                if side == 0:
                    # left rows of a hot key round-robin its salts
                    b[is_hot] = base + (np.arange(int(is_hot.sum()))
                                        % n_salts)
                else:
                    # right rows of a hot key replicate into EVERY salt
                    cold = pa.table(
                        [a.filter(pa.array(~is_hot)) for a in arrays]
                        + [pa.array(b[~is_hot]),
                           pa.array(np.full(int((~is_hot).sum()), side,
                                            dtype=np.int8))],
                        names=names + [_BUCKET, _SIDE])
                    reps = []
                    hot_tbl = pa.table(
                        [a.filter(pa.array(is_hot)) for a in arrays],
                        names=names)
                    for s in range(n_salts):
                        reps.append(hot_tbl.append_column(
                            _BUCKET, pa.array(base + s)).append_column(
                            _SIDE, pa.array(np.full(len(hot_tbl), side,
                                                    dtype=np.int8))))
                    return pa.concat_tables([cold] + reps)
            names += [_BUCKET, _SIDE]
            arrays += [pa.array(b), pa.array(np.full(len(t), side, dtype=np.int8))]
            return pa.table(arrays, names=names)
        return f

    # the groupby shuffle below pays ~3 scheduler round-trips per input
    # block; fine-grained upstream stages would feed it hundreds of tiny
    # blocks and the driver overhead would dominate the join (measured
    # 3.2 s wall vs 0.7 s remote work at sf0.1). Instead of pinning the
    # whole tagged union with materialize()+repartition (an extra copy
    # epoch of BOTH join sides — a scale-killer at 100 TB), a large
    # ``batch_size`` on the tag stage makes the streaming executor
    # BUNDLE tiny input blocks into coarse ~256k-row output blocks
    # before the all-to-all: same coarse-block effect, zero barrier,
    # the join input streams straight into the shuffle.
    unioned = (left.map_batches(tag(0), batch_format="pyarrow",
                                batch_size=_TAG_BATCH_ROWS)
               .union(right.map_batches(tag(1), batch_format="pyarrow",
                                        batch_size=_TAG_BATCH_ROWS)))

    def merge(group: pa.Table) -> pd.DataFrame:
        # side split in Arrow, NOT pandas: the null-padded union keeps
        # each side's int columns as true Arrow ints (nulls belong to
        # the OTHER side), so converting each filtered side separately
        # never round-trips ints through float64 — int32/uint64 widths
        # and int64 values above 2^53 survive chained joins exactly
        import pyarrow.compute as pc
        l = group.filter(pc.equal(group[_SIDE], 0)).select(lcols)
        r = group.filter(pc.equal(group[_SIDE], 1)).select(rcols)
        if how in ("semi", "anti"):
            # membership against the de-nulled right key set: identical
            # under salting (the right side is replicated per salt) and
            # a left NULL key is never a member (SQL EXISTS semantics)
            rkeys = pc.unique(pc.drop_null(r[keys[0]]))
            hit = pc.fill_null(pc.is_in(l[keys[0]], value_set=rkeys),
                               False)
            kept = l.filter(hit if how == "semi" else pc.invert(hit))
            if group_fn is None:
                return kept
            out = kept.to_pandas()
        else:
            out = l.to_pandas().merge(r.to_pandas(), on=keys, how=how)
        return group_fn(out) if group_fn is not None else out

    return unioned.groupby(_BUCKET).map_groups(merge, batch_format="pyarrow")


def join(left, right, on: str | list[str], how: str = "inner",
         num_buckets: int | None = None,
         broadcast_max_rows: int = 2_000_000,
         runtime_filter: str = "auto", hot_keys=None, n_salts: int = 8,
         group_fn=None, plan_out: dict | None = None):
    """Unified equi-join facade: picks the physical plan from input
    SHAPE METADATA only — it never executes, collects, or pins a lazy
    Dataset to decide (the q3 lesson: a driver-side collect that is
    fine at sf0.1 is a multi-GB broadcast at 100x).

    Decision table, checked in order (``plan_out['strategy']`` records
    the choice for tests/EXPLAIN):

    1. ``broadcast`` — one side is a pandas DataFrame, or a
       MaterializedDataset whose row count (free metadata on a
       materialized input) is <= ``broadcast_max_rows``: ship it once
       via ``ray.put`` and merge per batch, zero shuffle. Taken only
       when ``how`` keeps the small side on the non-preserved side of
       the merge ('inner' always; 'left' needs the small side on the
       right, 'right' the mirror; 'semi'/'anti' need a small RIGHT
       side — they become an in-batch ``isin`` mask). A LAZY Dataset
       is never counted (count() would execute it) and so never
       broadcasts — at scale an un-materialized input is presumed big.
    2. ``bloom + hash_partition`` — ``runtime_filter='auto'``, ``how``
       'inner' or 'semi', single-column key, and exactly one side is
       already materialized: the lazy side streams through a
       fixed-128-KiB Bloom of the materialized side's keys before the
       shuffle, so rows that cannot match never enter the all-to-all
       (FPR only lets extra rows THROUGH to the exact join — output
       identical). ``runtime_filter='off'`` disables; ``'force'``
       requires it (raises if shape doesn't allow).
    3. ``hash_partition`` — everything else: the explicit bucketed
       shuffle join, streaming on both sides, ``num_buckets=None`` =
       metadata-auto (scales with cluster CPUs and any materialized
       side's byte size — see ``_auto_buckets``). ``hot_keys`` passes
       through; ``hot_keys='detect'`` runs the bounded-memory
       Misra-Gries pass over the LEFT side's key column first — an
       explicit opt-in because it costs one extra read of the left
       input (fine on a materialized side, a second scan on a lazy
       one).

    pandas inputs are converted with ``ray.data.from_pandas`` when a
    shuffle plan is chosen, so every (left, right) type combination
    accepts every ``how`` of ``hash_partition_join``.
    """
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    if runtime_filter not in ("auto", "off", "force"):
        raise ValueError(f"runtime_filter={runtime_filter!r}")
    plan = plan_out if plan_out is not None else {}
    single_key = isinstance(on, str)

    def _small_df(side):
        """The side as a pandas frame if provably small, else None."""
        if isinstance(side, pd.DataFrame):
            return side if len(side) <= broadcast_max_rows else None
        if isinstance(side, MaterializedDataset) \
                and side.count() <= broadcast_max_rows:
            return side.to_pandas()
        return None

    # 1. broadcast (small side must sit opposite the preserved side;
    # a broadcastable side also means skew is moot, so 'detect' is
    # satisfied trivially here)
    if single_key and (hot_keys is None or hot_keys == "detect") \
            and group_fn is None:
        r_small = _small_df(right)
        if r_small is not None and how in ("inner", "left",
                                           "semi", "anti"):
            plan["strategy"] = "broadcast_right"
            if how in ("semi", "anti"):
                keys = pd.unique(r_small[on].dropna())
                ref = ray.put(keys)
                big = left if not isinstance(left, pd.DataFrame) \
                    else rd.from_pandas(left)

                def mask(b: pd.DataFrame) -> pd.DataFrame:
                    hit = b[on].isin(_resolve_small(ref)) \
                        & b[on].notna()
                    return b[hit if how == "semi" else ~hit]

                return big.map_batches(mask, batch_format="pandas")
            big = left if not isinstance(left, pd.DataFrame) \
                else rd.from_pandas(left)
            return broadcast_join(big, r_small, on, how=how,
                                  max_small_rows=None)
        l_small = _small_df(left)
        if l_small is not None and how in ("inner", "right"):
            # mirror: broadcast the left frame into the right stream;
            # 'right' preserves every right row, which a per-batch
            # merge with how='left' from the right side's view does
            plan["strategy"] = "broadcast_left"
            big = right if not isinstance(right, pd.DataFrame) \
                else rd.from_pandas(right)
            ref = ray.put(l_small)

            def merge(b: pd.DataFrame) -> pd.DataFrame:
                # per-batch merge FROM the small left side keeps left
                # columns first (same layout as hash_partition_join);
                # how='right' preserves every right-batch row
                return _resolve_small(ref).merge(b, how=how, on=on)

            return big.map_batches(merge, batch_format="pandas")

    ldset = left if not isinstance(left, pd.DataFrame) \
        else rd.from_pandas(left)
    rdset = right if not isinstance(right, pd.DataFrame) \
        else rd.from_pandas(right)

    # hot-key detection runs BEFORE any bloom wrapping so the MG pass
    # scans the raw left input once, not the prefiltered chain twice
    if hot_keys == "detect":
        if not single_key or how not in ("inner", "left",
                                         "semi", "anti"):
            raise ValueError("hot_keys='detect' needs a single-column "
                             "key and a salt-safe how")
        hot_keys = detect_hot_keys(ldset, on) or None
        plan["hot_keys"] = sorted(hot_keys) if hot_keys else []

    # 2. Bloom runtime filter ahead of the shuffle
    if runtime_filter != "off" and single_key and how in ("inner",
                                                          "semi"):
        l_mat = isinstance(ldset, MaterializedDataset)
        r_mat = isinstance(rdset, MaterializedDataset)
        if r_mat and not l_mat:
            plan["strategy"] = "bloom+hash_partition"
            ldset = bloom_prefilter(ldset, rdset, on)
        elif l_mat and not r_mat and how == "inner":
            plan["strategy"] = "bloom+hash_partition"
            rdset = bloom_prefilter(rdset, ldset, on)
        elif runtime_filter == "force":
            raise ValueError(
                "runtime_filter='force' needs exactly one materialized "
                f"side, single-column key, how in inner/semi (got "
                f"how={how!r})")
    elif runtime_filter == "force":
        raise ValueError("runtime_filter='force' incompatible with "
                         f"how={how!r} or composite key")
    plan.setdefault("strategy", "hash_partition")

    if num_buckets is None:
        num_buckets = _auto_buckets(ldset, rdset)
    plan["num_buckets"] = num_buckets

    return hash_partition_join(ldset, rdset, on,
                               num_buckets=num_buckets, how=how,
                               group_fn=group_fn, hot_keys=hot_keys,
                               n_salts=n_salts)


_EARTH_R_M = 6371008.8  # IUGG mean Earth radius


def haversine_m(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Great-circle distance in meters (vectorized haversine)."""
    la, lb = np.radians(np.asarray(lat_a, np.float64)), \
        np.radians(np.asarray(lat_b, np.float64))
    dlat = lb - la
    dlon = np.radians(np.asarray(lon_b, np.float64)) \
        - np.radians(np.asarray(lon_a, np.float64))
    a = (np.sin(dlat / 2) ** 2
         + np.cos(la) * np.cos(lb) * np.sin(dlon / 2) ** 2)
    return 2 * _EARTH_R_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def merge_into(base, updates, on: str, delete_col: str | None = None,
               num_buckets: int = 32):
    """Lakehouse MERGE INTO / CDC apply: fold a changeset into a
    snapshot by key — an update row REPLACES the base row with its
    key, a new key INSERTS, and (with ``delete_col``) a truthy delete
    marker REMOVES the key. Exactly ONE bucketed co-group of slim
    rows; both sides stream, nothing collects. Schemas must match on
    every non-marker column. The changeset must hold ONE row per key:
    Ray block order is not a stable CDC sequence, so "last wins"
    cannot be decided here — pre-dedup the changeset (e.g. a grouped
    max on a version column) before applying."""
    cols = [f.name for f in _arrow_schema(base)]

    def tag(side):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            if side == 1 and delete_col is not None:
                d = b[delete_col].fillna(False).astype(bool)
                b = b.drop(columns=[delete_col])
                b["__del"] = d.to_numpy()
            else:
                b["__del"] = False
            b["__side"] = np.int8(side)
            b["__b"] = _stable_bucket(b[on], num_buckets)
            return b[cols + ["__del", "__side", "__b"]]
        return f

    tagged = (base.map_batches(tag(0), batch_format="pandas")
              .union(updates.map_batches(tag(1),
                                         batch_format="pandas")))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        upd = g.loc[g["__side"] == 1]
        bse = g.loc[g["__side"] == 0]
        upd_keys = set(upd[on])
        keep_base = bse[~bse[on].isin(upd_keys)]
        inserts = upd.loc[~upd["__del"]]
        out = pd.concat([keep_base, inserts], ignore_index=True)
        return out[cols]

    return tagged.groupby("__b").map_groups(fold,
                                            batch_format="pandas")
