"""Map-tile operators — the aggregation half of the tiling engine
(cells.py is the index half): the multi-resolution tile-pyramid rollup,
vector tiles (geometry sliced per cell) and raster tiles (density grids
and their contours).

Reference parity: the reference renders its sidewalk/crossing layers as
per-neighborhood summaries (osm_sidewalkreator generic_functions
`get_from_aoi` + per-AOI statistics); a web-scale deployment serves the
same numbers as a zoom pyramid — every map tile at every zoom carries
the aggregate of the points inside it. ``tile_pyramid`` computes the
WHOLE pyramid in ONE shuffle:

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


# --- vector tiles: geometry sliced per cell -----------------------------

MAX_COVER_CELLS = 4096  # tiles one feature's bbox may cover


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
    from ..geom.core import points_in_ring, ring_signed_area
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
                area = (abs(ring_signed_area(rings_j[0]))
                        - sum(abs(ring_signed_area(r))
                              for r in rings_j[1:]))
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
