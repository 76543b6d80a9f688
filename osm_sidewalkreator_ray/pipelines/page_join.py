"""The web-scale graft: page corpus -> HTML->text -> geotags -> cell
encode -> per-cell point-in-polygon + kNN join against sidewalk tiles.

This is the flagship shuffle (SURVEY.md J7/J8): geotag rows are
grouped by ``(h3_cell, salt)`` — the explicit groupby-on-cell the
north_rule mandates — and each partition joins against a SHARDED tile
index (round 2; replaces round 1's single driver-built ``ray.put``):

- the feature side is exploded by distributed tasks into slim
  (shard, target_cell, wkb) rows — tiles registered under every cell
  their bbox covers (J7 border correctness), sidewalk lines under
  their own cell plus its k-ring(1) (the J8 kNN spill radius) — and
  one ``groupby(shard)`` builds a per-shard index object
  (``ray.put`` inside the build task). A shard covers 2x2 cells, so
  no object anywhere in the plan is proportional to the total tile
  count, and the driver only ever holds {shard: ObjectRef} + the
  distinct-cell scope (O(#cells)).
- each join partition fetches exactly its shard (object-store read,
  shared by all groups of the shard on a node); only the SLIM page
  rows move through the shuffle — tile geometry never does.
- skew: pages are salted ``hash(url) % page_salts`` for every cell
  (``salt_all``, the scale default — the shard index is read-shared,
  so salting costs nothing on the feature side). The measured
  hot-cell mode (pre-count, salt only hot cells) is kept behind
  ``cfg.salt_all=False``.
- semi-join prune: only geotags in cells that could match (indexed
  target cells) enter the shuffle; the long tail of pages nowhere
  near a sidewalk finishes in a stateless map.
- every (cell, salt) partition emits a metrics row (pages_joined,
  exact_matches, spills) — the A8 lineage requirement.

Within a shard entry, tiles and sidewalks are sorted by feature_id so
the join is deterministic regardless of build-task arrival order.

Ownership note: shard index objects are ``ray.put(_owner=...)`` into a
named driver-owned holder actor (``_IndexHolder``), so they outlive
the transient Ray Data build workers but die with the driver session;
refs are tracked per index generation (``release_before`` frees
superseded generations in long-lived services).
"""

from __future__ import annotations

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .. import cells
from ..config import DEFAULT_CONFIG, PipelineConfig
from ..geom import core, wkb
from ..geom.grid_index import SegmentGrid
from ..geom import project
from ..sources import synthetic as SYN
from ..stages.geotags import page_geotag_batch
from . import sidewalks as SW


def extract_geotags(pages, cfg: PipelineConfig = DEFAULT_CONFIG):
    """pages -> (url, lat, lon, h3_cell): one fused stage
    (html -> text -> geotag regex; wide binary rows, small batches,
    html and text never leave the stage — SURVEY.md §7.4), then
    vectorized Arrow-native cell encode.

    Runs as stateless TASKS, not an actor pool: the stage's only state
    is two compiled regexes (module-level), and at 32 CPUs the actor
    pool's spin-up dominated the stage (4.4 s -> 1.7 s measured)."""
    tags = pages.map_batches(
        page_geotag_batch, batch_format="pandas",
        batch_size=cfg.batch_size_html)

    def encode(t: pa.Table) -> pa.Table:
        cell = cells.latlng_to_cell(t["lat"].to_numpy(),
                                    t["lon"].to_numpy(), cfg.cell_res)
        return t.append_column(
            "h3_cell", pa.array(np.asarray(cell, dtype=np.int64)))

    return tags.map_batches(encode, batch_format="pyarrow")


def _hot_cells(geotags, cfg: PipelineConfig) -> dict[int, int]:
    """Hot-cell mode only (cfg.salt_all=False): bucketed combiner over
    the (already slim) geotag rows; the hot filter runs distributed so
    ONLY hot-cell rows (by definition few) reach the driver — never
    one row per (cell, batch)."""
    from ..functions.aggregates import grouped_agg
    counts = grouped_agg(geotags, ["h3_cell"], {"n": (None, "count")})
    def hot_f(b: pd.DataFrame) -> pd.DataFrame:
        if "n" not in b.columns:  # empty upstream block
            return pd.DataFrame({"h3_cell": pd.Series([], dtype="int64")})
        return b.loc[b["n"] > cfg.hot_cell_threshold, ["h3_cell"]]

    hot = counts.map_batches(hot_f, batch_format="pandas").to_pandas()
    if "h3_cell" not in hot.columns:  # no hot cells anywhere
        return {}
    return {int(c): cfg.page_salts for c in hot["h3_cell"]}


# --------------------------------------------------- sharded tile index

_SIDE_TILE, _SIDE_SW = 1, 2
# one shard = 2x2 cells: at sf0.1 the 4x4 sharding left only ~6 shards,
# so the per-shard prepare (local-frame projection + SegmentGrid build)
# ran on 6 cores; 2x2 gives ~4x the build parallelism while a shard
# object stays far below object-store block size
_SHARD_SHIFT = 1

_EXPLODE_SCHEMA = pa.schema([
    ("shard", pa.int64()),
    ("h3_cell", pa.int64()),      # target (join) cell
    ("side", pa.int8()),
    ("feature_id", pa.int64()),
    ("orig_cell", pa.int64()),    # feature's owning cell (spill metric)
    ("geometry_wkb", pa.binary()),
])


def _shard_of(cell_arr):
    ix, iy = cells.cell_ixy(np.asarray(cell_arr, dtype=np.int64))
    return ((ix >> _SHARD_SHIFT) << 29) | (iy >> _SHARD_SHIFT)


@ray.remote(num_cpus=0)
class _IndexHolder:
    """Owns the shard-index objects (``ray.put(_owner=holder)``), so
    they outlive the short-lived Ray Data build workers that create
    them. The holder is a named DRIVER-OWNED actor (not detached): it
    — and every ref it pins — dies with the driver session, so nothing
    leaks across driver runs on a shared cluster. Within a process,
    refs are tracked per index GENERATION; a long-lived service that
    rebuilds the index repeatedly calls ``release_before(gen)`` once
    older joins have drained to free superseded generations."""

    def __init__(self):
        self._refs: dict[int, list] = {}
        self._gen = 0

    def new_generation(self) -> int:
        self._gen += 1
        self._refs[self._gen] = []
        return self._gen

    def hold(self, gen: int, refs) -> bool:
        self._refs.setdefault(gen, []).extend(refs)
        return True

    def release_before(self, gen: int) -> int:
        old = [g for g in self._refs if g < gen]
        for g in old:
            del self._refs[g]
        return len(old)


# the holder handle MUST outlive every join that reads its objects: a
# named non-detached actor is ref-counted by handles, so a
# function-local handle would let Ray kill the actor (and reclaim
# every shard object it owns) as soon as _prepare_index returns —
# observed as OwnerDiedError/RpcError in back-to-back runs. A
# module-level handle pins the actor for the driver session, which is
# exactly the intended lifetime.
_HOLDER_HANDLE = None


def _index_holder():
    global _HOLDER_HANDLE
    if _HOLDER_HANDLE is None:
        import ray
        # the name is scoped to THIS driver's job: on a shared cluster
        # a fixed global name would make a second driver attach to the
        # first driver's holder, whose shard objects die with their
        # owner mid-join (OwnerDiedError)
        job = ray.get_runtime_context().get_job_id()
        _HOLDER_HANDLE = _IndexHolder.options(
            name=f"sidewalkreator_index_holder_{job}",
            get_if_exists=True).remote()
    return _HOLDER_HANDLE


def _empty_explode_table() -> pa.Table:
    return pa.table({f.name: pa.array([], f.type) for f in _EXPLODE_SCHEMA},
                    schema=_EXPLODE_SCHEMA)


def _explode_targets(features, cfg: PipelineConfig):
    """Distributed feature-side explode: one slim row per
    (feature, target cell). Tiles cover their bbox cells; sidewalk
    lines cover their own cell's k-ring(1)."""
    res = cfg.cell_res

    def f(b: pd.DataFrame) -> pa.Table:
        if "kind" not in b.columns or len(b) == 0:
            return _empty_explode_table()
        tcell_l, fid_l, orig_l, wkb_l, side_l = [], [], [], [], []
        tiles = b[b["kind"] == "tile"]
        if len(tiles):
            mnx, mny, mxx, mxy = wkb.decode_bboxes(
                tiles["geometry_wkb"].tolist())
            ridx, cell = cells.cover_bboxes(mnx, mny, mxx, mxy, res)
            tcell_l.append(cell)
            fid_l.append(tiles["feature_id"].to_numpy()[ridx])
            orig_l.append(tiles["h3_cell"].to_numpy()[ridx])
            wkb_l.append(tiles["geometry_wkb"].to_numpy()[ridx])
            side_l.append(np.full(len(ridx), _SIDE_TILE, dtype=np.int8))
        sws = b[b["kind"] == "sidewalk"]
        if len(sws):
            sw_orig = sws["h3_cell"].to_numpy()
            for c in np.unique(sw_orig):
                ring = cells.k_ring(int(c), 1)
                sel = np.nonzero(sw_orig == c)[0]
                ridx = np.repeat(sel, len(ring))
                tcell_l.append(np.tile(ring, len(sel)))
                fid_l.append(sws["feature_id"].to_numpy()[ridx])
                orig_l.append(sw_orig[ridx])
                wkb_l.append(sws["geometry_wkb"].to_numpy()[ridx])
                side_l.append(np.full(len(ridx), _SIDE_SW, dtype=np.int8))
        if not tcell_l:
            return _empty_explode_table()
        tcell = np.concatenate(tcell_l).astype(np.int64)
        return pa.table({
            "shard": pa.array(_shard_of(tcell)),
            "h3_cell": pa.array(tcell),
            "side": pa.array(np.concatenate(side_l)),
            "feature_id": pa.array(np.concatenate(fid_l).astype(np.int64)),
            "orig_cell": pa.array(np.concatenate(orig_l).astype(np.int64)),
            "geometry_wkb": pa.array(list(np.concatenate(wkb_l)),
                                     pa.binary()),
        }, schema=_EXPLODE_SCHEMA)

    return features.map_batches(f, batch_format="pandas")


def _build_shard(g: pd.DataFrame, holder, gen: int, cfg: PipelineConfig
                 ) -> pd.DataFrame:
    """Build one shard's FULLY PREPARED index and ray.put it (owned by
    the holder actor); returns (shard, ref, h3_cell) rows — one per
    indexed cell (the scope).

    Per cell the entry holds join-ready state in the cell's local
    frame (built ONCE here, shared read-only by every salt group):
    ``tiles``: [(fid, local_ring, bbox)], ``grid``: prebuilt
    SegmentGrid over the cell+ring-1 sidewalk segments, ``sid``:
    per-segment sidewalk ids, ``spill``: ring-1 line count (metrics)."""
    shard = int(g["shard"].iloc[0])
    raw: dict[int, dict] = {}
    tiles = g[g["side"] == _SIDE_TILE].sort_values("feature_id",
                                                   kind="stable")
    if len(tiles):
        coords, ro, po, part = wkb.decode_polygons(
            tiles["geometry_wkb"].tolist())
        fids = tiles["feature_id"].to_numpy()
        tcells = tiles["h3_cell"].to_numpy()
        for j in range(len(po) - 1):
            i = part[j]
            r0 = po[j]
            ring = coords[ro[r0]:ro[r0 + 1]]
            e = raw.setdefault(int(tcells[i]), {"tiles": [], "sw": []})
            e["tiles"].append((int(fids[i]), ring))
    sws = g[g["side"] == _SIDE_SW].sort_values("feature_id", kind="stable")
    if len(sws):
        coords, offs, part = wkb.decode_lines(sws["geometry_wkb"].tolist())
        fids = sws["feature_id"].to_numpy()
        tcells = sws["h3_cell"].to_numpy()
        origs = sws["orig_cell"].to_numpy()
        for j in range(len(offs) - 1):
            i = part[j]
            e = raw.setdefault(int(tcells[i]), {"tiles": [], "sw": []})
            e["sw"].append((int(fids[i]), coords[offs[j]:offs[j + 1]],
                            int(origs[i])))
    index: dict[int, dict] = {}
    for cell, e in raw.items():
        frame = project.frame_for_cell(cell)
        prepped_tiles = []
        for fid, ring_ll in e["tiles"]:
            ring = project.coords_to_local(ring_ll, frame)
            mnx, mny = ring.min(axis=0)
            mxx, mxy = ring.max(axis=0)
            prepped_tiles.append((fid, ring, (mnx, mny, mxx, mxy)))
        grid = None
        sid = np.empty(0, dtype=np.int64)
        spill = 0
        if e["sw"]:
            seg0s, seg1s, segids = [], [], []
            for fid, coords_ll, orig in e["sw"]:
                if orig != cell:
                    spill += 1
                loc = project.coords_to_local(coords_ll, frame)
                seg0s.append(loc[:-1])
                seg1s.append(loc[1:])
                segids.append(np.full(len(loc) - 1, fid, dtype=np.int64))
            s0 = np.concatenate(seg0s); s1 = np.concatenate(seg1s)
            sid = np.concatenate(segids)
            grid = SegmentGrid(s0, s1, cell=cfg.knn_max_dist)
        index[cell] = {"tiles": prepped_tiles, "grid": grid, "sid": sid,
                       "spill": spill}
    ref = ray.put(index, _owner=holder)
    # the owner must register the ref before this task's local ref
    # goes out of scope, else the object is reclaimed
    ray.get(holder.hold.remote(gen, [ref]))
    cell_list = sorted(index)
    return pd.DataFrame({
        "shard": np.full(len(cell_list), shard, dtype=np.int64),
        "ref": [ref] * len(cell_list),
        "h3_cell": np.asarray(cell_list, dtype=np.int64)})


def _prepare_index(features, cfg: PipelineConfig):
    """(shard_map_ref, scope): {shard: ObjectRef} broadcast + the
    distinct indexed cells (semi-join prune set). Only O(#cells) rows
    ever reach the driver — never geometry."""
    holder = _index_holder()
    # the holder must be scheduled before any ray.put(_owner=holder);
    # the generation id scopes this build's refs for later release
    gen = ray.get(holder.new_generation.remote())
    # coalesce the slim exploded rows before the keyed shuffle — the
    # upstream feature pipeline leaves O(100) tiny blocks and the sort
    # pays per-block constants otherwise
    rows = (_explode_targets(features, cfg)
            .repartition(16)
            .groupby("shard").map_groups(
                lambda g: _build_shard(g, holder, gen, cfg),
                batch_format="pandas")
            .to_pandas())
    if rows.empty or "h3_cell" not in rows.columns:
        return ray.put({}), np.empty(0, np.int64)
    scope = np.unique(rows["h3_cell"].to_numpy()).astype(np.int64)
    shard_map = {int(s): r for s, r in zip(rows["shard"], rows["ref"])}
    return ray.put(shard_map), scope


# ------------------------------------------------------------ join fn

# per-worker-process deserialization cache: shard objects are immutable
# and read by every (cell, salt) group of the shard that lands on this
# worker — without the cache each group call re-unpickles the shard
_OBJ_CACHE: dict[str, object] = {}
_OBJ_CACHE_MAX = 64


def _get_cached(ref):
    key = ref.hex()
    v = _OBJ_CACHE.pop(key, None)  # pop+reinsert = LRU move-to-end
    if v is None:
        v = ray.get(ref)
        if len(_OBJ_CACHE) >= _OBJ_CACHE_MAX:
            _OBJ_CACHE.pop(next(iter(_OBJ_CACHE)))
    _OBJ_CACHE[key] = v
    return v


def _join_group(g: pd.DataFrame, shard_map_ref, cfg: PipelineConfig
                ) -> pd.DataFrame:
    cell = int(g["h3_cell"].iloc[0])
    salt = int(g["salt"].iloc[0])
    shard_map = _get_cached(shard_map_ref)
    ref = shard_map.get(int(_shard_of(cell)))
    entry = _get_cached(ref).get(cell) if ref is not None else None
    frame = project.frame_for_cell(cell)
    px, py = project.to_local(g["lon"].to_numpy(), g["lat"].to_numpy(),
                              frame)
    pts = np.column_stack((px, py))
    n = len(pts)
    tile_id = np.full(n, -1, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    # ---- PIP against the cell's prepared tile polygons (J7) ----
    if entry:
        for tid, ring, (mnx, mny, mxx, mxy) in entry["tiles"]:
            cand = ((px >= mnx) & (px <= mxx) & (py >= mny) & (py <= mxy)
                    & ~inside)
            if not cand.any():
                continue
            idx = np.nonzero(cand)[0]
            hit = core.points_in_ring(px[idx], py[idx], ring)
            inside[idx[hit]] = True
            tile_id[idx[hit]] = tid
    # ---- kNN vs the prepared segment grid (J8; ring-1 rows were
    # replicated in by the index explode) ----
    near_id = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, -1.0)
    spill_rows = 0
    if entry and entry["grid"] is not None:
        spill_rows = entry["spill"]
        d, si = entry["grid"].nearest(pts, max_dist=cfg.knn_max_dist)
        ok = si >= 0
        near_id[ok] = entry["sid"][si[ok]]
        dist[ok] = np.round(d[ok], 3)
    met = {"pages_joined": n, "exact_matches": int(inside.sum()),
           "spill_rows": spill_rows}
    out = pd.DataFrame({
        "url": g["url"].to_numpy(),
        "lat": g["lat"].to_numpy(),
        "lon": g["lon"].to_numpy(),
        "h3_cell": np.full(n, cell, dtype=np.int64),
        "tile_id": tile_id, "inside_tile": inside,
        "nearest_sidewalk_id": near_id, "dist_m": dist,
        "is_metrics": np.zeros(n, dtype=bool)})
    return pd.concat([out, _join_metrics_frame(cell, salt, met)],
                     ignore_index=True)


def _join_metrics_frame(cell: int, salt: int, met: dict) -> pd.DataFrame:
    """Lineage/metrics side row per (cell, salt) partition (A8).
    Typed channel: ``is_metrics=True`` tags the row; the url string is a
    human-readable label only (nothing scans it)."""
    return pd.DataFrame({
        "url": [f"__metrics__/{cell}/{salt}"],
        "lat": [float(met["pages_joined"])],
        "lon": [float(met["exact_matches"])],
        "h3_cell": [np.int64(cell)],
        "tile_id": [np.int64(met["spill_rows"])],
        "inside_tile": [False],
        "nearest_sidewalk_id": [np.int64(-1)],
        "dist_m": [-1.0],
        "is_metrics": [True]})


def _salt_pages(geotags, salts_ref, cfg: PipelineConfig):
    """Arrow-native page-side salting (zero-copy batches)."""
    def f(t: pa.Table) -> pa.Table:
        salts = ray.get(salts_ref)
        n = len(t)
        cell = t["h3_cell"].to_numpy()
        if salts == "all":
            h = pd.util.hash_array(t["url"].to_numpy(zero_copy_only=False))
            salt = (h % cfg.page_salts).astype(np.int64)
        else:
            salt = np.zeros(n, dtype=np.int64)
            if salts:
                hot = np.isin(cell, np.fromiter(salts, dtype=np.int64))
                if hot.any():
                    h = pd.util.hash_array(
                        t["url"].to_numpy(zero_copy_only=False)[hot])
                    salt[hot] = (h % cfg.page_salts).astype(np.int64)
        return t.append_column("salt", pa.array(salt))

    return geotags.map_batches(f, batch_format="pyarrow")


def _split_scope(geotags, scope_ref):
    def in_scope_f(t: pa.Table) -> pa.Table:
        s = ray.get(scope_ref)
        return t.filter(pa.array(np.isin(t["h3_cell"].to_numpy(), s)))

    def out_scope_f(t: pa.Table) -> pd.DataFrame:
        s = ray.get(scope_ref)
        keep = ~np.isin(t["h3_cell"].to_numpy(), s)
        n = int(keep.sum())
        out = pd.DataFrame({
            "url": t["url"].to_numpy(zero_copy_only=False)[keep],
            "lat": t["lat"].to_numpy()[keep],
            "lon": t["lon"].to_numpy()[keep],
            "h3_cell": t["h3_cell"].to_numpy()[keep].astype(np.int64),
            "tile_id": np.full(n, -1, dtype=np.int64),
            "inside_tile": np.zeros(n, dtype=bool),
            "nearest_sidewalk_id": np.full(n, -1, dtype=np.int64),
            "dist_m": np.full(n, -1.0),
            "is_metrics": np.zeros(n, dtype=bool)})
        if n == 0:
            return out
        met = _join_metrics_frame(-1, 0, {"pages_joined": n,
                                          "exact_matches": 0,
                                          "spill_rows": 0})
        met["url"] = f"__metrics__/far/{uuid.uuid4().hex}"
        return pd.concat([out, met], ignore_index=True)

    return (geotags.map_batches(in_scope_f, batch_format="pyarrow"),
            geotags.map_batches(out_scope_f, batch_format="pyarrow"))


def _salting_plan(geotags, cfg: PipelineConfig):
    return "all" if cfg.salt_all else _hot_cells(geotags, cfg)


# measured here: 25-40 s -> 5.4 s for the 4M-page join at 8 CPUs
# (256 extraction blocks coalesced to 16 before the sort shuffle)
from ..functions.blocks import coalesce_slim as _coalesce_slim


def _join_with_prepared(geotags, prepared, cfg: PipelineConfig):
    """The join shuffle against an already-prepared sharded index.
    ``geotags`` must be materialized (the scope split reads it twice)."""
    geotags = _coalesce_slim(geotags)
    shard_map_ref, scope = prepared
    scope_ref = ray.put(scope)
    salts_ref = ray.put(_salting_plan(geotags, cfg))
    in_scope, far = _split_scope(geotags, scope_ref)
    salted = _salt_pages(in_scope, salts_ref, cfg)

    def jf(g: pd.DataFrame) -> pd.DataFrame:
        return _join_group(g, shard_map_ref, cfg)

    joined = salted.groupby(["h3_cell", "salt"]).map_groups(
        jf, batch_format="pandas")
    return joined.union(far)


class _SideThread:
    """Run ``fn`` on a thread; ``result()`` joins and RE-RAISES any
    exception (a bare dict hand-off would surface a failed feature
    side as ``KeyError: 'v'`` and bury the real traceback)."""

    def __init__(self, fn):
        import threading
        self._out: dict = {}

        def run():
            try:
                self._out["v"] = fn()
            except BaseException as e:  # noqa: BLE001 - re-raised below
                self._out["e"] = e

        self._th = threading.Thread(target=run)
        self._th.start()

    def result(self):
        self._th.join()
        if "e" in self._out:
            raise self._out["e"]
        return self._out["v"]


def split_metrics(assign_df: pd.DataFrame):
    """(assignments, metrics) split on the typed ``is_metrics`` column
    (boolean mask, no per-row string scan). The flag column is dropped
    from the assignment half — it is all-False by construction."""
    m = assign_df["is_metrics"].to_numpy(dtype=bool)
    real = assign_df[~m].drop(columns=["is_metrics"]).reset_index(drop=True)
    return real, assign_df[m].reset_index(drop=True)


def checkpointed_join(geotags, features, out_dir: str,
                      cfg: PipelineConfig = DEFAULT_CONFIG,
                      skip_keys: set[tuple] | None = None) -> pd.DataFrame:
    """The join with per-(cell, salt) checkpointing: each partition's
    assignments land in ``out_dir/part/h3_cell=<c>/salt=<s>/`` with a
    manifest row; a re-run (same out_dir) filters completed partitions
    out of the input before the shuffle and only computes the rest
    (north_rule resume semantics). Returns this run's manifest rows."""
    from ..state.checkpoint import run_partitioned

    th = _SideThread(lambda: _prepare_index(features, cfg))
    geotags = geotags.materialize()
    shard_map_ref, scope = th.result()
    geotags = _coalesce_slim(geotags)
    scope_ref = ray.put(scope)
    salts_ref = ray.put(_salting_plan(geotags, cfg))
    in_scope, _far = _split_scope(geotags, scope_ref)
    salted = _salt_pages(in_scope, salts_ref, cfg)
    return run_partitioned(salted, ["h3_cell", "salt"],
                           lambda g: _join_group(g, shard_map_ref, cfg),
                           out_dir,
                           config_hash=__import__("hashlib").sha1(
                               cfg.to_json().encode()).hexdigest(),
                           skip_keys=skip_keys)


def checkpointed_geotags(pages, out_dir: str,
                         cfg: PipelineConfig = DEFAULT_CONFIG,
                         n_shards: int = 64,
                         skip_shards: set[tuple] | None = None):
    """Checkpoint the extraction stage UPSTREAM of the join: pages are
    deterministically sharded on ``hash(url) % n_shards``; each shard's
    (url, lat, lon, h3_cell) geotag rows are committed atomically under
    ``out_dir/part/gshard=<k>/`` with a manifest row (same machinery as
    the join partitions). Resume filters committed shards out of the
    input pre-shuffle; once EVERY shard is committed the pages input is
    not consumed at all — a resumed join does ZERO HTML parsing
    (round 2 left ~4 s of re-extraction on resume, BASELINE.md).

    Returns the geotag Dataset backed by the checkpoint directory."""
    import hashlib
    import os

    from ..state.checkpoint import completed_keys, run_partitioned

    cfg_hash = hashlib.sha1(
        (cfg.to_json() + f"|geotag_shards={n_shards}").encode()).hexdigest()
    done = completed_keys(out_dir) if os.path.isdir(out_dir) else set()
    if len(done) < n_shards or skip_shards:
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_array(b["url"].to_numpy(dtype=object))
            out = b.copy()
            out["gshard"] = (h % n_shards).astype(np.int64)
            return out

        def shard_fn(g: pd.DataFrame) -> pd.DataFrame:
            t = page_geotag_batch(g)
            cell = cells.latlng_to_cell(t["lat"].to_numpy(),
                                        t["lon"].to_numpy(), cfg.cell_res)
            t["h3_cell"] = np.asarray(cell, dtype=np.int64)
            return t

        run_partitioned(pages.map_batches(tag, batch_format="pandas"),
                        ["gshard"], shard_fn, out_dir,
                        config_hash=cfg_hash, skip_keys=skip_shards)
    import glob
    files = sorted(glob.glob(os.path.join(out_dir, "part", "**",
                                          "part.parquet"), recursive=True))
    return rd.read_parquet(files)


def checkpointed_pipeline(pages, features, out_dir: str,
                          cfg: PipelineConfig = DEFAULT_CONFIG,
                          skip_keys: set[tuple] | None = None,
                          skip_shards: set[tuple] | None = None,
                          n_shards: int = 64) -> pd.DataFrame:
    """Fully-resumable flagship: geotag extraction checkpointed under
    ``out_dir/geotags`` (per url-shard), the join under
    ``out_dir/join`` (per (cell, salt)). A re-submit recomputes only
    the partitions missing from either manifest."""
    import os
    # the join stage must see COMPLETE geotag input: a join partition
    # computed from a partial shard set would be committed to the join
    # manifest and a later resume would skip it permanently, silently
    # dropping the late shards' rows for that (cell, salt). A real
    # crash aborts before the join; the only way to reach it with
    # partial geotags is the skip_shards fault-injection knob — which
    # is therefore confined to checkpointed_geotags and refused here.
    if skip_shards:
        raise ValueError(
            "skip_shards is a geotag-stage fault-injection knob; "
            "combining it with the join stage would commit join "
            "partitions built from partial geotag input (use "
            "checkpointed_geotags directly to inject geotag faults, "
            "then resume the full pipeline)")
    geotags = checkpointed_geotags(pages, os.path.join(out_dir, "geotags"),
                                   cfg, n_shards=n_shards)
    return checkpointed_join(geotags, features,
                             os.path.join(out_dir, "join"), cfg,
                             skip_keys=skip_keys)


# ------------------------------------------------------------ flagship

def flagship_entry(sf_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG,
                   n_pages: int | None = None,
                   pages_path: str | None = None,
                   collect: str = "dataset"):
    """The driver's entry(): synthetic corpus + street grid scaled from
    sf_dir -> sidewalk tiles -> page join -> assignments.
    ``pages_path`` reads a pre-materialized parquet corpus (the bench
    path — pages arrive as parquet per the input_hint); otherwise the
    corpus is generated distributed on the fly.

    ``collect`` picks the consume:
    - 'dataset' (DEFAULT, the streaming path): the assignments
      Dataset, metrics rows filtered — nothing is collected on the
      driver; consume with write_parquet / iter_batches / aggregates
    - 'count': stream-aggregate to (n_assignments, n_inside) (bench)
    - 'sorted_df': driver-side DataFrame, globally sorted — ORACLE
      ONLY (small sf comparisons); never the default at scale"""
    if pages_path:
        pages = rd.read_parquet(pages_path,
                                columns=["url", "html"])  # prune at read
    elif n_pages:
        pages = SYN.pages_dataset(n_pages)
    else:
        pages = SYN.pages_dataset_for_sf(sf_dir)
    streets = rd.from_arrow(SYN.grid_for_sf(sf_dir))
    # the ENTIRE feature side (street graph -> raster tiles ->
    # crossings -> sharded index) is independent of the page side —
    # run it in a background thread so build_features' eager
    # materialize points overlap the HTML/geotag extraction instead of
    # serializing in front of it
    def _feature_side():
        # join-relevant kinds only (tile, sidewalk): stage C
        # (crossings) is dead work for the join and stays off the
        # critical path
        features = SW.build_join_features(streets, cfg)
        return _prepare_index(features, cfg)

    th = _SideThread(_feature_side)
    geotags = extract_geotags(pages, cfg).materialize()
    assignments = _join_with_prepared(geotags, th.result(), cfg)
    if collect == "count":
        # bench/scale path: consume the stream, never collect on the
        # driver; returns (n_assignments, n_inside) only
        agg = assignments.map_batches(
            lambda b: pd.DataFrame({
                "n": [int((~b["is_metrics"]).sum())],
                "inside": [int(b["inside_tile"].sum())]}),
            batch_format="pandas").to_pandas()
        return int(agg["n"].sum()), int(agg["inside"].sum())
    if collect == "dataset":
        # streaming default: hand back the lazy Dataset — metric rows
        # dropped by a boolean column mask (no per-batch string scan),
        # flag column dropped (all-False downstream)
        return assignments.map_batches(
            lambda b: b[~b["is_metrics"]].drop(columns=["is_metrics"]),
            batch_format="pandas")
    df = assignments.to_pandas()  # collect='sorted_df': oracle only
    out, _metrics = split_metrics(df)
    return out.sort_values(["url", "lat", "lon"]).reset_index(drop=True)
