"""Multi-resolution tile-pyramid rollup — the map-tile aggregation half
of the tiling engine (cells.py is the index half).

Reference parity: the reference renders its sidewalk/crossing layers as
per-neighborhood summaries (osm_sidewalkreator generic_functions
`get_from_aoi` + per-AOI statistics); a web-scale deployment serves the
same numbers as a zoom pyramid — every map tile at every zoom carries
the aggregate of the points inside it. This module computes the WHOLE
pyramid in ONE shuffle:

1. ``map_batches`` partial: quantize each row to the FINEST cell and
   pre-aggregate in-batch (count/sum/min/max are all algebraic), so
   only one slim row per (cell, batch) survives;
2. replicate each slim partial row to its ancestors with pure integer
   arithmetic (``cells.cell_parent`` — an ``ix >> k`` shift, exact);
   levels is small (<= ~15) and input shrinks 4x per level, so the
   explode is ~1.33x the finest-level partials, not L x raw rows;
3. one bucketed hash combine keyed by cell id (which encodes its
   resolution), identical to functions/aggregates.grouped_agg's merge.

At 100 TB the only all-to-all is over per-batch partials — for a
10^12-row corpus at res 13 that is bounded by (distinct cells x
batches), orders of magnitude below the row count — and the pyramid's
coarser levels ride in the same exchange instead of L separate
groupbys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..cells import (cell_bounds, cell_ixy, cell_parent, cell_res,
                     cover_bboxes, latlng_to_cell)

_BUCKET = "__tbucket"


def tile_pyramid(ds, lat_col: str, lon_col: str, res: int,
                 min_res: int = 0, value_col: str | None = None,
                 batch_size: int = 65536, num_buckets: int = 32):
    """Aggregate points into every tile at resolutions min_res..res.

    Returns a Dataset with one row per non-empty tile per level:
    ``res, cell, ix, iy, n`` plus ``sum_v/min_v/max_v/mean_v`` when
    ``value_col`` is given. Cell ids follow cells.py's
    ``(r << 58) | (ix << 29) | iy`` layout.
    """
    if not 0 <= min_res <= res:
        raise ValueError("need 0 <= min_res <= res")
    parent_resolutions = list(range(min_res, res))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = ["cell", "n"] + (
            ["sum_v", "min_v", "max_v"] if value_col else [])
        if len(batch) == 0:
            p = pd.DataFrame({c: pd.Series(dtype=np.int64)
                              if c in ("cell", "n")
                              else pd.Series(dtype=np.float64)
                              for c in cols})
            p[_BUCKET] = pd.Series(dtype=np.int64)
            return p
        cell = latlng_to_cell(batch[lat_col].to_numpy(np.float64),
                              batch[lon_col].to_numpy(np.float64), res)
        df = pd.DataFrame({"cell": cell})
        if value_col:
            df["v"] = batch[value_col].to_numpy(np.float64)
            g = df.groupby("cell", sort=False)["v"]
            p = g.agg(n="size", sum_v="sum", min_v="min", max_v="max")
            p = p.reset_index()
        else:
            p = df.groupby("cell", sort=False).size().rename("n")
            p = p.reset_index()
        # replicate slim partials up the pyramid (exact integer shifts)
        frames = [p]
        for r in parent_resolutions:
            q = p.copy()
            q["cell"] = cell_parent(p["cell"].to_numpy(), r)
            frames.append(q)
        out = pd.concat(frames, ignore_index=True)
        h = pd.util.hash_array(out["cell"].to_numpy())
        out[_BUCKET] = (h % num_buckets).astype(np.int64)
        return out[cols + [_BUCKET]]

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("cell", sort=False)
        cols = {"n": g["n"].sum()}
        if value_col:
            cols.update(sum_v=g["sum_v"].sum(), min_v=g["min_v"].min(),
                        max_v=g["max_v"].max())
        out = pd.DataFrame(cols).reset_index()
        cells = out["cell"].to_numpy()
        out.insert(0, "res", cell_res(cells))
        ix, iy = cell_ixy(cells)
        out["ix"] = ix
        out["iy"] = iy
        if value_col:
            out["mean_v"] = out["sum_v"] / out["n"]
        return out

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)
    return partials.groupby(_BUCKET).map_groups(combine,
                                                batch_format="pandas")


# --- deterministic pytest-oracle wrapper -------------------------------

_PYR_RES, _PYR_MIN_RES = 9, 5


def _events_points(batch: pd.DataFrame) -> pd.DataFrame:
    """Deterministic (lat, lon) from user_id — int64 arithmetic only,
    reproducible verbatim in DuckDB (see tests/test_tiles.py)."""
    uid = batch["user_id"].to_numpy(np.int64)
    return pd.DataFrame({
        "lat": ((uid * 48271) % 18000) / 100.0 - 90.0,
        "lon": ((uid * 69621) % 36000) / 100.0 - 180.0,
        "v": batch["value"].to_numpy(np.float64),
    })


def tile_pyramid_query(sf_dir: str) -> pd.DataFrame:
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "value"])
    pyr = tile_pyramid(ds.map_batches(_events_points,
                                      batch_format="pandas"),
                       "lat", "lon", res=_PYR_RES, min_res=_PYR_MIN_RES,
                       value_col="v")
    out = pyr.to_pandas()
    return (out.sort_values(["res", "cell"])
            .reset_index(drop=True)
            [["res", "cell", "ix", "iy", "n",
              "sum_v", "min_v", "max_v", "mean_v"]])


TILE_PYRAMID_SQL = f"""
WITH pts AS (
    SELECT ((user_id * 48271) % 18000) / 100.0 - 90.0 AS lat,
           ((user_id * 69621) % 36000) / 100.0 - 180.0 AS lon,
           value AS v
    FROM events
), fine AS (
    SELECT CAST(floor((lon + 180.0) / (180.0 / {1 << _PYR_RES})) AS BIGINT) AS ix,
           CAST(floor((lat + 90.0) / (180.0 / {1 << _PYR_RES})) AS BIGINT) AS iy,
           v
    FROM pts
), lv AS (
    SELECT unnest(generate_series({_PYR_MIN_RES}, {_PYR_RES})) AS r
), cells AS (
    SELECT r, ix >> ({_PYR_RES} - r) AS ix, iy >> ({_PYR_RES} - r) AS iy, v
    FROM fine, lv
)
SELECT CAST(r AS BIGINT) AS res,
       (CAST(r AS BIGINT) << 58) | (ix << 29) | iy AS cell,
       ix, iy,
       count(*) AS n, sum(v) AS sum_v, min(v) AS min_v, max(v) AS max_v,
       sum(v) / count(*) AS mean_v
FROM cells
GROUP BY 1, 2, 3, 4
ORDER BY res, cell
"""


# --- vector tiles: geometry sliced per cell -----------------------------

MAX_COVER_CELLS = 4096  # per feature; as interval_overlap_join's cap


def _check_cover(mnx, mny, mxx, mxy, res: int) -> None:
    """Raise (never silently explode) when one feature's bbox covers
    more than MAX_COVER_CELLS tiles — a continent-sized geometry at a
    street-level res multiplies output by its cover count; the caller
    should slice at a coarser res or split the feature first."""
    d = 180.0 / (1 << res)
    nx = np.floor((np.asarray(mxx) + 180.0) / d) - np.floor(
        (np.asarray(mnx) + 180.0) / d) + 1
    ny = np.floor((np.asarray(mxy) + 90.0) / d) - np.floor(
        (np.asarray(mny) + 90.0) / d) + 1
    worst = (nx * ny).max() if len(np.atleast_1d(nx)) else 0
    if worst > MAX_COVER_CELLS:
        raise ValueError(
            f"a feature covers {int(worst)} cells at res {res} "
            f"(cap {MAX_COVER_CELLS}); slice at a coarser res or "
            f"split the feature")


def slice_lines_to_tiles(batch: pd.DataFrame, wkb_col: str, id_col: str,
                         res: int, simplify_tol: float = 0.0
                         ) -> pd.DataFrame:
    """One batch of LineString/MultiLineString rows -> per-tile slices.

    Pure numpy: decode once, bbox-cover each line (cells.cover_bboxes),
    Liang-Barsky clip every (line, cell) pair in one pair-axis pass
    (geom/clip.clip_lines_rect), re-encode pieces. Emits one row per
    piece: (cell, id, piece_idx, wkb). Boundary-covering cells whose
    intersection is empty (bbox overlap but no geometry inside) emit
    nothing.
    """
    from ..geom.clip import clip_lines_rect
    from ..geom.wkb import bbox_of_lines, decode_lines, encode_lines

    empty = pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                          id_col: pd.Series(dtype=batch[id_col].dtype
                                            if len(batch)
                                            else np.int64),
                          "piece_idx": pd.Series(dtype=np.int64),
                          "wkb": pd.Series(dtype=object)})
    if len(batch) == 0:
        return empty
    coords, offsets, part_of = decode_lines(batch[wkb_col].tolist())
    mnx, mny, mxx, mxy = bbox_of_lines(coords, offsets)
    _check_cover(mnx, mny, mxx, mxy, res)
    line_idx, cell = cover_bboxes(mnx, mny, mxx, mxy, res)
    lo_x, lo_y, hi_x, hi_y = cell_bounds(cell)
    boxes = np.column_stack((lo_x, lo_y, hi_x, hi_y))
    pcoords, poffsets, piece_pair = clip_lines_rect(
        coords, offsets, line_idx, boxes)
    if len(piece_pair) == 0:
        return empty
    ids = batch[id_col].to_numpy()[part_of[line_idx[piece_pair]]]
    pc = cell[piece_pair]
    # piece_idx: rank within (id, cell); pieces of one pair are
    # contiguous in clip output order
    first = np.ones(len(piece_pair), dtype=bool)
    first[1:] = piece_pair[1:] != piece_pair[:-1]
    head = np.maximum.accumulate(
        np.where(first, np.arange(len(piece_pair)), 0))
    piece_idx = np.arange(len(piece_pair)) - head
    if simplify_tol > 0.0:
        # per-zoom generalization (every tile server ships simplified
        # geometry at coarse zooms): DP per piece, endpoints kept so
        # pieces still meet at tile boundaries
        from ..geom.raster import simplify_line
        pieces = [simplify_line(pcoords[poffsets[i]:poffsets[i + 1]],
                                simplify_tol)
                  for i in range(len(poffsets) - 1)]
        pcoords = np.concatenate(pieces)
        poffsets = np.concatenate(
            ([0], np.cumsum([len(s) for s in pieces]))).astype(np.int64)
    return pd.DataFrame({"cell": pc, id_col: ids,
                         "piece_idx": piece_idx,
                         "wkb": encode_lines(pcoords, poffsets)})


def export_vector_tiles(ds, out_dir: str, wkb_col: str = "wkb",
                        id_col: str = "feature_id", res: int = 13,
                        dir_res: int = 5, batch_size: int = 4096,
                        geometry: str = "line",
                        simplify_tol: float = 0.0,
                        encoding: str = "wkb"):
    """Write line features as a hive-partitioned vector-tile layout.

    Partition dirs are the DIR_RES ancestor of each tile cell
    (`tile_group=<cell>/`), so a map viewport read opens only the
    partitions its bbox covers — spatially-local, bounded dir count
    (4**dir_res worst case), and resumable per partition. The slice
    stage is embarrassingly parallel (no shuffle); the only data
    movement is the partitioned write.

    ``encoding='geoarrow'`` stores the sliced geometry as a GeoArrow
    nested-list column (``geometry``) instead of opaque WKB bytes
    (SURVEY.md §1.3's follow-on): read-side consumers get the ragged
    coordinate layout zero-copy from the column buffers, skipping the
    per-feature WKB parse (geom/wkb.py GeoArrow section).
    """
    if dir_res > res:
        raise ValueError("dir_res must be <= res")
    if geometry not in ("line", "polygon"):
        raise ValueError("geometry must be 'line' or 'polygon'")
    if encoding not in ("wkb", "geoarrow"):
        raise ValueError("encoding must be 'wkb' or 'geoarrow'")
    if geometry == "line":
        def slicer(b):
            return slice_lines_to_tiles(b, wkb_col, id_col, res,
                                        simplify_tol=simplify_tol)
    else:
        if simplify_tol:
            raise ValueError("simplify_tol is line-only (polygon "
                             "simplification would break shared "
                             "boundaries)")

        def slicer(b):
            return slice_polygons_to_tiles(b, wkb_col, id_col, res)

    def stage(batch: pd.DataFrame) -> pd.DataFrame:
        out = slicer(batch)
        out["tile_group"] = cell_parent(out["cell"].to_numpy(np.int64),
                                        dir_res)
        return out

    sliced = ds.map_batches(stage, batch_format="pandas",
                            batch_size=batch_size)
    if encoding == "geoarrow":
        from ..geom import wkb as _wkb
        conv = (_wkb.wkb_lines_to_geoarrow if geometry == "line"
                else _wkb.wkb_polygons_to_geoarrow)

        def to_geoarrow(b: pd.DataFrame) -> pa.Table:
            cols = {c: pa.array(b[c]) for c in b.columns
                    if c != "wkb"}
            cols["geometry"] = conv(list(b["wkb"]))
            return pa.table(cols)

        sliced = sliced.map_batches(to_geoarrow, batch_format="pandas")
    sliced.write_parquet(out_dir, partition_cols=["tile_group"])
    return out_dir


def read_vector_tiles(out_dir: str, min_lon: float, min_lat: float,
                      max_lon: float, max_lat: float, dir_res: int = 5):
    """Viewport read: open only partitions whose dir-cell intersects
    the bbox (directory selection — no data or footer byte is touched
    for pruned partitions), then exact cell-level filter inside
    them."""
    import os

    import ray.data as rd

    from ..cells import cover_bbox
    groups = set(cover_bbox(min_lon, min_lat, max_lon, max_lat,
                            dir_res).tolist())
    files = [os.path.join(out_dir, d, f)
             for d in sorted(os.listdir(out_dir))
             if d.startswith("tile_group=")
             and int(d.split("=", 1)[1]) in groups
             for f in sorted(os.listdir(os.path.join(out_dir, d)))
             if f.endswith(".parquet")]
    if not files:
        return rd.from_items([])
    return rd.read_parquet(files).map_batches(
        cells_in_bbox, batch_format="pyarrow",
        fn_args=(min_lon, min_lat, max_lon, max_lat))


def cells_in_bbox(batch: pa.Table, min_lon: float, min_lat: float,
                  max_lon: float, max_lat: float) -> pa.Table:
    """Rows whose cell overlaps the bbox (an empty result stays typed)."""
    lo_x, lo_y, hi_x, hi_y = cell_bounds(
        np.asarray(batch["cell"], dtype=np.int64))
    keep = ((lo_x < max_lon) & (hi_x > min_lon)
            & (lo_y < max_lat) & (hi_y > min_lat))
    return batch.filter(pa.array(keep))


def slice_polygons_to_tiles(batch: pd.DataFrame, wkb_col: str,
                            id_col: str, res: int) -> pd.DataFrame:
    """Polygon/MultiPolygon rows -> per-tile clipped polygons.

    Batched Sutherland-Hodgman (geom/clip.clip_rings_rect): every
    (ring, covering-cell) pair clips in four vectorized half-plane
    passes. Shells and holes clip independently against the same cell
    (valid under even-odd fill for a convex window); a polygon whose
    shell misses a cell emits nothing there.
    """
    from ..geom.clip import clip_rings_rect
    from ..geom.wkb import decode_polygons, encode_polygons

    empty = pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                          id_col: pd.Series(dtype=batch[id_col].dtype
                                            if len(batch)
                                            else np.int64),
                          "piece_idx": pd.Series(dtype=np.int64),
                          "wkb": pd.Series(dtype=object)})
    if len(batch) == 0:
        return empty
    coords, ring_offsets, poly_offsets, part_of = decode_polygons(
        batch[wkb_col].tolist())
    n_poly = len(poly_offsets) - 1
    # per-polygon bbox: polygon vertex spans are contiguous, so one
    # reduceat at each span start covers exactly that polygon
    s = np.asarray(ring_offsets[poly_offsets[:-1]], dtype=np.intp)
    mnx = np.minimum.reduceat(coords[:, 0], s)
    mny = np.minimum.reduceat(coords[:, 1], s)
    mxx = np.maximum.reduceat(coords[:, 0], s)
    mxy = np.maximum.reduceat(coords[:, 1], s)
    _check_cover(mnx, mny, mxx, mxy, res)
    poly_idx, cell = cover_bboxes(mnx, mny, mxx, mxy, res)
    if len(poly_idx) == 0:
        return empty
    lo_x, lo_y, hi_x, hi_y = cell_bounds(cell)
    boxes_pair = np.column_stack((lo_x, lo_y, hi_x, hi_y))
    # ring-level pairs: every ring of the polygon vs the pair's box
    rings_per_poly = np.diff(poly_offsets)
    rp = rings_per_poly[poly_idx]
    pair_of_ring = np.repeat(np.arange(len(poly_idx), dtype=np.int64),
                             rp)
    starts = np.concatenate(([0], np.cumsum(rp)[:-1]))
    rrank = (np.arange(rp.sum(), dtype=np.int64)
             - np.repeat(starts, rp))
    ring_idx = (np.asarray(poly_offsets)[poly_idx][pair_of_ring]
                + rrank)
    oc, oo, okept = clip_rings_rect(coords, ring_offsets, ring_idx,
                                    boxes_pair[pair_of_ring])
    if len(okept) == 0:
        return empty
    kept_pair = pair_of_ring[okept]
    kept_rank = rrank[okept]
    # a hole can only survive if its shell does (hole subset of shell);
    # polys whose shell (rank 0) was dropped emit nothing
    ok = np.isin(kept_pair, kept_pair[kept_rank == 0])
    if not ok.all():
        keep_rows = np.nonzero(ok)[0]
        sel = np.repeat(ok, np.diff(oo))
        oc = oc[sel]
        oo = np.concatenate(([0], np.cumsum(np.diff(oo)[keep_rows])))
        kept_pair = kept_pair[keep_rows]
    # group consecutive rings of one pair into a polygon
    new_poly = np.ones(len(kept_pair), dtype=bool)
    new_poly[1:] = kept_pair[1:] != kept_pair[:-1]
    out_poly_offsets = np.concatenate(
        (np.nonzero(new_poly)[0], [len(kept_pair)])).astype(np.int64)
    pair_of_poly = kept_pair[new_poly]
    wkbs = encode_polygons(oc, oo, out_poly_offsets)
    return pd.DataFrame({
        "cell": cell[pair_of_poly],
        id_col: batch[id_col].to_numpy()[part_of[poly_idx[pair_of_poly]]],
        "piece_idx": np.zeros(len(wkbs), dtype=np.int64),
        "wkb": wkbs})


# --- raster tiles: density grids + raster->vector contours --------------

def rasterize_tiles(ds, lat_col: str, lon_col: str, res: int,
                    px: int = 256, value_col: str | None = None,
                    batch_size: int = 65536, num_buckets: int = 32):
    """Per-tile density raster (the heatmap tile-server shape).

    One row per non-empty tile: ``cell, res, px, n, grid`` where
    ``grid`` is a little-endian float64[px*px] binary payload (row
    y*px + x, y up from the tile's south edge). The exchange carries
    SPARSE per-batch (cell, pixel, weight) partials — a dense px*px
    grid is only materialized once per tile in the combiner, so object
    sizes are O(occupied pixels) until the very last stage.
    """
    pix_n = px * px

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "pix": pd.Series(dtype=np.int64),
                                 "w": pd.Series(dtype=np.float64),
                                 _BUCKET: pd.Series(dtype=np.int64)})
        lat = batch[lat_col].to_numpy(np.float64)
        lon = batch[lon_col].to_numpy(np.float64)
        cell = latlng_to_cell(lat, lon, res)
        lo_x, lo_y, hi_x, hi_y = cell_bounds(cell)
        d = hi_x - lo_x
        cx = np.clip(((lon - lo_x) / d * px).astype(np.int64), 0, px - 1)
        cy = np.clip(((lat - lo_y) / d * px).astype(np.int64), 0, px - 1)
        df = pd.DataFrame({"cell": cell, "pix": cy * px + cx,
                           "w": (batch[value_col].to_numpy(np.float64)
                                 if value_col else 1.0)})
        p = (df.groupby(["cell", "pix"], sort=False)["w"].sum()
             .reset_index())
        h = pd.util.hash_array(p["cell"].to_numpy())
        p[_BUCKET] = (h % num_buckets).astype(np.int64)
        return p

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        g = (bucket.groupby(["cell", "pix"], sort=True)["w"].sum()
             .reset_index())
        rows = []
        for cell, sub in g.groupby("cell", sort=True):
            grid = np.zeros(pix_n, dtype=np.float64)
            grid[sub["pix"].to_numpy()] = sub["w"].to_numpy()
            rows.append({"cell": int(cell), "res": res, "px": px,
                         "n": float(sub["w"].sum()),
                         "grid": grid.astype("<f8").tobytes()})
        if not rows:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "res": pd.Series(dtype=np.int64),
                                 "px": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.float64),
                                 "grid": pd.Series(dtype=object)})
        return pd.DataFrame(rows)

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)
    return partials.groupby(_BUCKET).map_groups(combine,
                                                batch_format="pandas")


def density_contours(tiles_ds, threshold: float):
    """Raster -> vector: iso-region polygons of ``grid >= threshold``
    per tile (geom/raster.trace_contours — exact pixel boundaries,
    4-connectivity). Holes are assigned to the shell that contains
    them. Embarrassingly parallel: each tile's raster is local.
    """
    from ..geom.core import points_in_ring
    from ..geom.raster import trace_contours
    from ..geom.wkb import encode_polygon

    def stage(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"cell": [], "poly_idx": [], "area": [], "wkb": []}
        # per-TILE loop (each row carries a whole raster), not per-point
        for row in batch.itertuples(index=False):
            px = int(row.px)
            grid = np.frombuffer(row.grid, dtype="<f8").reshape(px, px)
            lo_x, lo_y, hi_x, _ = cell_bounds(np.int64(row.cell))
            step = (hi_x - lo_x) / px
            rings = trace_contours(grid >= threshold,
                                   (float(lo_x), float(lo_y)), step)
            shells = [(r, a) for r, a in rings if a > 0]
            holes = [(r, a) for r, a in rings if a < 0]
            polys = [[s] for s, _ in shells]
            for h, _ in holes:
                for j, (s, _) in enumerate(shells):
                    if points_in_ring(h[:1, 0], h[:1, 1], s)[0]:
                        polys[j].append(h)
                        break
            for j, rings_j in enumerate(polys):
                area = (abs(_ring_area(rings_j[0]))
                        - sum(abs(_ring_area(r)) for r in rings_j[1:]))
                out["cell"].append(int(row.cell))
                out["poly_idx"].append(j)
                out["area"].append(area)
                out["wkb"].append(encode_polygon(rings_j))
        if not out["cell"]:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "poly_idx": pd.Series(dtype=np.int64),
                                 "area": pd.Series(dtype=np.float64),
                                 "wkb": pd.Series(dtype=object)})
        return pd.DataFrame(out)

    return tiles_ds.map_batches(stage, batch_format="pandas",
                                batch_size=16)


def _ring_area(ring: np.ndarray) -> float:
    from ..geom.core import ring_signed_area
    return ring_signed_area(ring)


# --- zonal statistics: per-polygon aggregation of a point stream --------

def build_zone_index(zones_df: pd.DataFrame, wkb_col: str,
                     zone_id_col: str, res: int) -> dict:
    """Cell -> candidate-zone index for a (small) polygon layer.

    Built once on the driver and broadcast via ``ray.put``; candidate
    lookup is bbox-cover at ``res``, the exact PIP runs streaming in
    the tasks. For zone layers too large to broadcast, use the sharded
    index path (`page_join._prepare_index`) instead.
    """
    from ..geom.wkb import decode_polygons

    coords, ring_offsets, poly_offsets, part_of = decode_polygons(
        zones_df[wkb_col].tolist())
    s = np.asarray(ring_offsets[poly_offsets[:-1]], dtype=np.intp)
    mnx = np.minimum.reduceat(coords[:, 0], s)
    mny = np.minimum.reduceat(coords[:, 1], s)
    mxx = np.maximum.reduceat(coords[:, 0], s)
    mxy = np.maximum.reduceat(coords[:, 1], s)
    _check_cover(mnx, mny, mxx, mxy, res)
    poly_idx, cell = cover_bboxes(mnx, mny, mxx, mxy, res)
    order = np.argsort(cell, kind="stable")
    cells_sorted = cell[order]
    polys_sorted = poly_idx[order]
    uq, starts = np.unique(cells_sorted, return_index=True)
    by_cell = {int(c): polys_sorted[starts[i]:
                                    (starts[i + 1] if i + 1 < len(starts)
                                     else len(polys_sorted))]
               for i, c in enumerate(uq)}
    return {"by_cell": by_cell, "coords": coords,
            "ring_offsets": np.asarray(ring_offsets),
            "poly_offsets": np.asarray(poly_offsets),
            "zone_ids": zones_df[zone_id_col].to_numpy()[part_of]}


def zonal_stats(points_ds, zones_df: pd.DataFrame, lat_col: str,
                lon_col: str, res: int = 10,
                zone_id_col: str = "zone_id", wkb_col: str = "wkb",
                value_col: str | None = None, batch_size: int = 65536,
                num_buckets: int = 32):
    """Per-zone aggregates of a streaming point table (raster-free
    zonal statistics). The zone layer is broadcast ONCE (`ray.put`);
    points never shuffle — each batch quantizes to cells, PIP-tests
    only the zones whose bbox covers that cell, and emits slim
    (zone, n, sum/min/max) partials into the standard bucketed
    combine. A point inside k overlapping zones counts in each.
    """
    import ray

    from ..geom.core import points_in_polygon

    index_ref = ray.put(build_zone_index(zones_df, wkb_col,
                                         zone_id_col, res))
    use_value = value_col is not None
    cols = ["zone_id", "n"] + (["sum_v", "min_v", "max_v"]
                               if use_value else [])

    def _empty() -> pd.DataFrame:
        p = pd.DataFrame({c: pd.Series(dtype=np.float64)
                          for c in cols})
        p["zone_id"] = p["zone_id"].astype(object)
        p["n"] = p["n"].astype(np.int64)
        p[_BUCKET] = pd.Series(dtype=np.int64)
        return p

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return _empty()
        idx = ray.get(index_ref)  # plasma-cached per worker
        lat = batch[lat_col].to_numpy(np.float64)
        lon = batch[lon_col].to_numpy(np.float64)
        w = (batch[value_col].to_numpy(np.float64) if use_value
             else None)
        cell = latlng_to_cell(lat, lon, res)
        order = np.argsort(cell, kind="stable")
        cs = cell[order]
        uq, starts = np.unique(cs, return_index=True)
        starts = np.append(starts, len(cs))
        zid_out, n_out, s_out, mn_out, mx_out = [], [], [], [], []
        po = idx["poly_offsets"]
        for i, c in enumerate(uq):
            cands = idx["by_cell"].get(int(c))
            if cands is None:
                continue
            rows = order[starts[i]:starts[i + 1]]
            px, py = lon[rows], lat[rows]
            for z in cands:
                hit = points_in_polygon(px, py, idx["coords"],
                                        idx["ring_offsets"],
                                        int(po[z]), int(po[z + 1]))
                k = int(hit.sum())
                if not k:
                    continue
                zid_out.append(idx["zone_ids"][z])
                n_out.append(k)
                if use_value:
                    wv = w[rows[hit]]
                    s_out.append(wv.sum())
                    mn_out.append(wv.min())
                    mx_out.append(wv.max())
        if not zid_out:
            return _empty()
        p = pd.DataFrame({"zone_id": zid_out,
                          "n": np.asarray(n_out, dtype=np.int64)})
        if use_value:
            p["sum_v"] = s_out
            p["min_v"] = mn_out
            p["max_v"] = mx_out
        h = pd.util.hash_array(p["zone_id"].to_numpy())
        p[_BUCKET] = (h % num_buckets).astype(np.int64)
        return p

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("zone_id", sort=False)
        agg = {"n": g["n"].sum()}
        if use_value:
            agg.update(sum_v=g["sum_v"].sum(), min_v=g["min_v"].min(),
                       max_v=g["max_v"].max())
        out = pd.DataFrame(agg).reset_index()
        if use_value:
            out["mean_v"] = out["sum_v"] / out["n"]
        return out

    partials = points_ds.map_batches(partial, batch_format="pandas",
                                     batch_size=batch_size)
    return partials.groupby(_BUCKET).map_groups(combine,
                                                batch_format="pandas")


# --- origin-destination tile flows ---------------------------------------

_OD_RES = 7


def events_od_matrix(sf_dir: str, res: int = _OD_RES):
    """Tile-to-tile flow matrix: per-user consecutive event transitions
    counted between the cells of the two event locations (the OD
    aggregation a mobility tile service serves).

    Event locations derive deterministically from event_id (same
    int64-only recipe as the pyramid oracle). Plan: one user-hash
    bucket shuffle, ONE sorted vectorized pandas pass per bucket
    (consecutive-pair shift, no per-user Python), slim
    (cell_from, cell_to, n) partials folded by grouped_agg.
    """
    import ray.data as rd

    from ..functions.aggregates import grouped_agg
    from .relational import _bucket_by_user

    ds = _bucket_by_user(rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id"]))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        uid = g["user_id"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        lat = ((eid * 48271) % 18000) / 100.0 - 90.0
        lon = ((eid * 69621) % 36000) / 100.0 - 180.0
        cell = latlng_to_cell(lat, lon, res)
        same = uid[:-1] == uid[1:]
        df = pd.DataFrame({"cell_from": cell[:-1][same],
                           "cell_to": cell[1:][same]})
        return (df.groupby(["cell_from", "cell_to"], sort=False)
                .size().reset_index(name="n"))

    part = (ds.groupby("__ubucket")
            .map_groups(lambda g: pairs(g.drop(columns="__ubucket")),
                        batch_format="pandas"))
    out = grouped_agg(part, ["cell_from", "cell_to"],
                      {"n": ("n", "sum")}).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    return (out.sort_values(["cell_from", "cell_to"])
            .reset_index(drop=True))


EVENTS_OD_MATRIX_SQL = f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         CAST(floor(((((event_id * 69621) % 36000) / 100.0 - 180.0)
              + 180.0) / (180.0 / {1 << _OD_RES})) AS BIGINT) AS ix,
         CAST(floor(((((event_id * 48271) % 18000) / 100.0 - 90.0)
              + 90.0) / (180.0 / {1 << _OD_RES})) AS BIGINT) AS iy
  FROM events
), w AS (
  SELECT (CAST({_OD_RES} AS BIGINT) << 58) | (ix << 29) | iy
             AS cell_from,
         LEAD((CAST({_OD_RES} AS BIGINT) << 58) | (ix << 29) | iy)
             OVER u AS cell_to
  FROM pts
  WINDOW u AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT cell_from, cell_to, COUNT(*) AS n
FROM w WHERE cell_to IS NOT NULL
GROUP BY cell_from, cell_to
ORDER BY cell_from, cell_to
"""


# --- spatial autocorrelation over tile aggregates ------------------------

def _tile_neighbor_sums(cells_ds, num_buckets: int = 32):
    """(cell, x) -> (cell, x, nbr_sum, nbr_cnt) with queen (8-way)
    adjacency over OBSERVED cells. One exchange: every cell's value
    replicates to its 8 neighbor ids (pure ix/iy integer shifts, no
    wraparound), a bucketed combine sums per target, and the original
    rows ride the SAME exchange (side tag) so the join back costs no
    second shuffle. Cells whose neighbor doesn't exist contribute
    nothing there — binary weights on the observed lattice.
    """
    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "x": pd.Series(dtype=np.float64),
                                 "side": pd.Series(dtype=np.int8),
                                 _BUCKET: pd.Series(dtype=np.int64)})
        cell = batch["cell"].to_numpy(np.int64)
        x = batch["x"].to_numpy(np.float64)
        res = cell_res(cell)
        ix, iy = cell_ixy(cell)
        nx = (np.int64(2) << res)
        ny = (np.int64(1) << res)
        frames = [pd.DataFrame({"cell": cell, "x": x,
                                "side": np.int8(0)})]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                jx, jy = ix + dx, iy + dy
                ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
                tgt = (res[ok] << 58) | (jx[ok] << 29) | jy[ok]
                frames.append(pd.DataFrame({"cell": tgt, "x": x[ok],
                                            "side": np.int8(1)}))
        out = pd.concat(frames, ignore_index=True)
        h = pd.util.hash_array(out["cell"].to_numpy())
        out[_BUCKET] = (h % num_buckets).astype(np.int64)
        return out

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        own = bucket[bucket["side"] == 0]
        nbr = (bucket[bucket["side"] == 1]
               .groupby("cell")["x"].agg(nbr_sum="sum", nbr_cnt="size"))
        out = pd.DataFrame({
            "cell": own["cell"].to_numpy(),
            "x": own["x"].to_numpy()}).join(nbr, on="cell")
        out["nbr_sum"] = out["nbr_sum"].fillna(0.0)
        out["nbr_cnt"] = (out["nbr_cnt"].fillna(0)
                          .astype(np.int64))
        return out

    return (cells_ds.map_batches(explode, batch_format="pandas")
            .groupby(_BUCKET)
            .map_groups(combine, batch_format="pandas"))


def morans_i(cells_ds) -> pd.DataFrame:
    """Global Moran's I of value ``x`` over a (cell, x) tile table with
    queen adjacency (binary weights, observed cells only). Returns one
    row (i, w, n_cells). All reductions are algebraic — two streaming
    aggregates plus the single neighbor exchange."""
    enriched = _tile_neighbor_sums(cells_ds)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(np.float64)
        return pd.DataFrame({
            "n": [len(b)], "sx": [x.sum()], "sxx": [(x * x).sum()],
            "w": [b["nbr_cnt"].to_numpy(np.int64).sum()],
            "sxnb": [(x * b["nbr_sum"].to_numpy(np.float64)).sum()],
            "sxnc": [(x * b["nbr_cnt"].to_numpy(np.float64)).sum()],
            "snb": [b["nbr_sum"].to_numpy(np.float64).sum()],
            "snc": [b["nbr_cnt"].to_numpy(np.float64).sum()]})

    agg = (enriched.map_batches(partial, batch_format="pandas")
           .to_pandas().sum())
    n, w = float(agg["n"]), float(agg["w"])
    if n < 2 or w == 0:
        return pd.DataFrame({"i": [np.nan], "w": [w], "n_cells": [n]})
    mean = agg["sx"] / n
    # sum_i (x_i - m)(nbr_sum_i - cnt_i m)
    num = (agg["sxnb"] - mean * agg["sxnc"] - mean * agg["snb"]
           + mean * mean * agg["snc"])
    den = agg["sxx"] - n * mean * mean
    return pd.DataFrame({"i": [(n / w) * num / den], "w": [w],
                         "n_cells": [int(n)]})


def getis_gi_star(cells_ds) -> "object":
    """Per-cell Getis-Ord Gi* hotspot z-score (star = self included)
    over a (cell, x) tile table, queen adjacency on observed cells.
    Returns a Dataset (cell, x, gi_star)."""
    enriched = _tile_neighbor_sums(cells_ds)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(np.float64)
        return pd.DataFrame({"n": [len(b)], "sx": [x.sum()],
                             "sxx": [(x * x).sum()]})

    m = enriched.map_batches(moments, batch_format="pandas").to_pandas()
    m = m.sum()
    n = float(m["n"])
    mean = m["sx"] / n
    s = np.sqrt(m["sxx"] / n - mean * mean)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(np.float64)
        wsum = b["nbr_sum"].to_numpy(np.float64) + x   # star: + self
        wi = b["nbr_cnt"].to_numpy(np.float64) + 1.0
        denom = s * np.sqrt((n * wi - wi * wi) / (n - 1.0))
        return pd.DataFrame({"cell": b["cell"].to_numpy(np.int64),
                             "x": x,
                             "gi_star": (wsum - mean * wi) / denom})

    return enriched.map_batches(score, batch_format="pandas")


_MORAN_RES = 4


def events_cells_ds(sf_dir: str, res: int = _MORAN_RES):
    """(cell, x=count) tile table of deterministic EVENT-level points
    (event_id-derived, like events_od_matrix — one location per event,
    dense enough at res 4 for a connected adjacency lattice)."""
    import ray.data as rd

    def pts(batch: pd.DataFrame) -> pd.DataFrame:
        eid = batch["event_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "lat": ((eid * 48271) % 18000) / 100.0 - 90.0,
            "lon": ((eid * 69621) % 36000) / 100.0 - 180.0})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id"])
    pyr = tile_pyramid(ds.map_batches(pts, batch_format="pandas"),
                       "lat", "lon", res=res, min_res=res)
    return pyr.map_batches(
        lambda b: pd.DataFrame({"cell": b["cell"].to_numpy(np.int64),
                                "x": b["n"].to_numpy(np.float64)}),
        batch_format="pandas")


def raster_pyramid(tiles_ds, min_res: int, num_buckets: int = 32):
    """Zoom-out levels for rasterize_tiles output: each parent tile's
    grid is the 2x2 sum-pool of its (<= 4) children placed into the
    matching quadrant — total mass per tile is conserved, so any
    threshold/contour run on a coarser level sees the same density
    field at lower resolution. One bucketed shuffle per level; level
    inputs shrink 4x, so the whole pyramid costs ~1.33x the finest
    level's exchange.
    """
    # materialize each level: the output union's branches would
    # otherwise re-execute the shared upstream (finest level O(L)
    # times); levels shrink 4x so the pinned footprint is ~1.33x the
    # finest level
    tiles_ds = tiles_ds.materialize()
    levels = [tiles_ds]
    cur = tiles_ds

    def to_parent(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            b = batch.copy()
            b["quad"] = pd.Series(dtype=np.int64)
            b[_BUCKET] = pd.Series(dtype=np.int64)
            return b
        cell = batch["cell"].to_numpy(np.int64)
        r = int(cell_res(cell)[0])
        parent = cell_parent(cell, r - 1)
        ix, iy = cell_ixy(cell)
        out = batch.copy()
        out["cell"] = parent
        out["quad"] = ((iy & 1) << 1 | (ix & 1)).astype(np.int64)
        h = pd.util.hash_array(parent)
        out[_BUCKET] = (h % num_buckets).astype(np.int64)
        return out

    def pool(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for cell, sub in bucket.groupby("cell", sort=True):
            px = int(sub["px"].iloc[0])
            half = px // 2
            grid = np.zeros((px, px), dtype=np.float64)
            for row in sub.itertuples(index=False):
                child = np.frombuffer(row.grid,
                                      dtype="<f8").reshape(px, px)
                # 2x2 sum-pool down to half-size
                pooled = child.reshape(half, 2, half, 2).sum(axis=(1, 3))
                qx, qy = int(row.quad) & 1, int(row.quad) >> 1
                grid[qy * half:(qy + 1) * half,
                     qx * half:(qx + 1) * half] = pooled
            rows.append({"cell": int(cell),
                         "res": int(cell_res(np.int64(cell))),
                         "px": px, "n": float(sub["n"].sum()),
                         "grid": grid.astype("<f8").tobytes()})
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"cell": pd.Series(dtype=np.int64),
             "res": pd.Series(dtype=np.int64),
             "px": pd.Series(dtype=np.int64),
             "n": pd.Series(dtype=np.float64),
             "grid": pd.Series(dtype=object)})

    first = tiles_ds.take(1)
    top_res = int(first[0]["res"]) if first else min_res
    if first and int(first[0]["px"]) % 2:
        raise ValueError("raster_pyramid needs an even px")
    for _ in range(top_res - min_res):
        cur = (cur.map_batches(to_parent, batch_format="pandas")
               .groupby(_BUCKET)
               .map_groups(pool, batch_format="pandas")
               .materialize())
        levels.append(cur)
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


# --- space-time cube ------------------------------------------------------

_STC_RES = 5


def spacetime_cube(ds, lat_col: str, lon_col: str, ts_col: str,
                   res: int, freq: str = "W",
                   value_col: str | None = None,
                   batch_size: int = 65536, num_buckets: int = 32):
    """(cell, period) rollup — the space-time cube under hotspot
    trend analysis. Same single-exchange combiner as ``tile_pyramid``:
    per-batch partials keyed by (cell, period_start), bucketed hash
    combine. ``freq`` is a pandas offset alias ('D', 'W', 'M', ...);
    periods are calendar-aligned via Period.start_time, so the SQL
    oracle is date_trunc.
    """
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cols = ["cell", "period", "n"] + (
            ["sum_v"] if value_col else [])
        if len(batch) == 0:
            p = pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                              "period":
                              pd.Series(dtype="datetime64[us]"),
                              "n": pd.Series(dtype=np.int64)})
            if value_col:
                p["sum_v"] = pd.Series(dtype=np.float64)
            p[_BUCKET] = pd.Series(dtype=np.int64)
            return p
        cell = latlng_to_cell(batch[lat_col].to_numpy(np.float64),
                              batch[lon_col].to_numpy(np.float64), res)
        period = (pd.to_datetime(batch[ts_col])
                  .dt.to_period(freq).dt.start_time)
        df = pd.DataFrame({"cell": cell, "period": period.to_numpy()})
        if value_col:
            df["v"] = batch[value_col].to_numpy(np.float64)
            p = (df.groupby(["cell", "period"], sort=False)["v"]
                 .agg(n="size", sum_v="sum").reset_index())
        else:
            p = (df.groupby(["cell", "period"], sort=False).size()
                 .reset_index(name="n"))
        h = (pd.util.hash_array(p["cell"].to_numpy())
             ^ pd.util.hash_array(p["period"].to_numpy()))
        p[_BUCKET] = (h % num_buckets).astype(np.int64)
        return p[cols + [_BUCKET]]

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["cell", "period"], sort=False)
        agg = {"n": g["n"].sum()}
        if value_col:
            agg["sum_v"] = g["sum_v"].sum()
        return pd.DataFrame(agg).reset_index()

    return (ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
            .groupby(_BUCKET).map_groups(combine,
                                         batch_format="pandas"))


def events_spacetime_cube(sf_dir: str) -> pd.DataFrame:
    """Weekly (cell, period) event counts + value sums at res 5,
    event-id-derived locations — green DuckDB oracle below."""
    import ray.data as rd

    def pts(batch: pd.DataFrame) -> pd.DataFrame:
        eid = batch["event_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "lat": ((eid * 48271) % 18000) / 100.0 - 90.0,
            "lon": ((eid * 69621) % 36000) / 100.0 - 180.0,
            "ts": batch["ts"].to_numpy(),
            "v": batch["value"].to_numpy(np.float64)})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "value"])
    cube = spacetime_cube(ds.map_batches(pts, batch_format="pandas"),
                          "lat", "lon", "ts", res=_STC_RES, freq="W",
                          value_col="v")
    out = cube.to_pandas()
    return (out.sort_values(["cell", "period"])
            .reset_index(drop=True))


EVENTS_SPACETIME_CUBE_SQL = f"""
WITH pts AS (
  SELECT CAST(floor(((((event_id * 69621) % 36000) / 100.0 - 180.0)
         + 180.0) / (180.0 / {1 << _STC_RES})) AS BIGINT) AS ix,
         CAST(floor(((((event_id * 48271) % 18000) / 100.0 - 90.0)
         + 90.0) / (180.0 / {1 << _STC_RES})) AS BIGINT) AS iy,
         -- pandas 'W' periods are MON-anchored: date_trunc('week')
         ts, value
  FROM events
)
SELECT (CAST({_STC_RES} AS BIGINT) << 58) | (ix << 29) | iy AS cell,
       CAST(date_trunc('week', ts) AS TIMESTAMP) AS period,
       count(*) AS n, sum(value) AS sum_v
FROM pts
GROUP BY 1, 2
ORDER BY cell, period
"""


# --- isochrones -----------------------------------------------------------

def isochrone_polygons(dists, threshold: float, dir_k: int = 6,
                       num_buckets: int = 32):
    """Reachability polygons from network distances: cells whose
    shortest-path distance (functions/graph.sssp_weighted over a
    cell-node street graph) is <= ``threshold`` become a binary mask,
    contoured per DIR-tile (ancestor at res - dir_k) with exact
    cell-boundary rings. Output rows: (tile, poly_idx, area, wkb).

    The only exchange groups the SURVIVING cells by their dir-tile;
    tracing is tile-local (2^dir_k square grid per task).
    """
    import ray.data as rd

    from ..geom.core import points_in_ring
    from ..geom.raster import trace_contours
    from ..geom.wkb import encode_polygon

    if isinstance(dists, pd.DataFrame):
        dists = rd.from_pandas(dists)
    side = 1 << dir_k

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["dist"].to_numpy(np.float64) <= threshold
        cell = batch["vertex"].to_numpy(np.int64)[m]
        if len(cell) == 0:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "tile": pd.Series(dtype=np.int64),
                                 _BUCKET: pd.Series(dtype=np.int64)})
        res = cell_res(cell)
        if np.any(res < dir_k):
            raise ValueError("cell res must be >= dir_k")
        if np.unique(res).size != 1:
            # mixed resolutions would silently alias onto wrong mask
            # pixels (the tile grid assumes exactly dir_k levels below
            # the tile); the cell-node street graph is single-res by
            # construction, so fail loud instead
            raise ValueError(
                "isochrone_polygons: cells must share ONE resolution "
                f"(got {sorted(np.unique(res).tolist())})")
        tile = cell_parent(cell, int(res[0]) - dir_k)
        h = pd.util.hash_array(tile)
        return pd.DataFrame({"cell": cell, "tile": tile,
                             _BUCKET: (h % num_buckets)
                             .astype(np.int64)})

    def trace(bucket: pd.DataFrame) -> pd.DataFrame:
        out = {"tile": [], "poly_idx": [], "area": [], "wkb": []}
        for tile, sub in bucket.groupby("tile", sort=True):
            cells = sub["cell"].to_numpy(np.int64)
            ix, iy = cell_ixy(cells)
            mask = np.zeros((side, side), dtype=bool)
            mask[iy & (side - 1), ix & (side - 1)] = True
            lo_x, lo_y, hi_x, _ = cell_bounds(np.int64(tile))
            step = (float(hi_x) - float(lo_x)) / side
            rings = trace_contours(mask,
                                   (float(lo_x), float(lo_y)), step)
            shells = [(r, a) for r, a in rings if a > 0]
            holes = [(r, a) for r, a in rings if a < 0]
            polys = [[s] for s, _ in shells]
            for h_ring, _ in holes:
                for j, (s, _) in enumerate(shells):
                    if points_in_ring(h_ring[:1, 0], h_ring[:1, 1],
                                      s)[0]:
                        polys[j].append(h_ring)
                        break
            for j, rings_j in enumerate(polys):
                area = (abs(_ring_area(rings_j[0]))
                        - sum(abs(_ring_area(r))
                              for r in rings_j[1:]))
                out["tile"].append(int(tile))
                out["poly_idx"].append(j)
                out["area"].append(area)
                out["wkb"].append(encode_polygon(rings_j))
        if not out["tile"]:
            return pd.DataFrame({"tile": pd.Series(dtype=np.int64),
                                 "poly_idx":
                                 pd.Series(dtype=np.int64),
                                 "area": pd.Series(dtype=np.float64),
                                 "wkb": pd.Series(dtype=object)})
        return pd.DataFrame(out)

    return (dists.map_batches(keep, batch_format="pandas")
            .groupby(_BUCKET)
            .map_groups(lambda g: trace(g.drop(columns=_BUCKET)),
                        batch_format="pandas"))
