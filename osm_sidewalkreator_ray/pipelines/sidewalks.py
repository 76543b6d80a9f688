"""Street centerlines -> sidewalk tiles / lines / protoblocks /
crossings / kerbs, as one Ray Data pipeline.

Physical plan (SURVEY.md §4.3), three stages so the expensive raster
work parallelizes per PROTOBLOCK, not per cell (a dense cell would
otherwise serialize hundreds of blocks behind one task — the skew
SURVEY.md §7.4 warns about):

  A. read -> width assign (M3/M4, Arrow) -> cell-cover explode (M17)
     -> groupby(h3_cell).map_groups(cell_graph):      # shuffle 1
        node + prune + polygonize (G2/G3/G1); emits
        - protoblock rows (owned faces only -> exact-dedup by
          construction, A5)
        - packed per-protoblock work rows (face ring + nearby noded
          segments + exclusion zones, in the cell's local frame)
        - one packed graph row per cell (noded segments + widths, for
          the crossing stage)
        - per-cell metrics row (A8)
  B. map_batches over work rows (stateless tasks, small batches):
     distance-field + morphology + contour tile extraction (M6-M10) +
     exclusion-zone arcs (M12) -> tile + sidewalk rows
  C. union(graph rows, sidewalk rows).groupby(h3_cell)   # shuffle 2
     -> crossings + kerbs (G5 headless clone,
        full_sidewalkreator_bbox_algorithm.py:515-936)

Geometry semantics notes are on the individual helpers; the raster
kernel replaces GEOS buffer->dissolve->open/close->difference
(reference osm_sidewalkreator.py:1897-1943,
sidewalk_generation_logic.py:297-421) with identical downstream
semantics at fixed resolution.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import cells
from ..config import DEFAULT_CONFIG, PipelineConfig
from ..geom import core, polygonize as pg, project, raster, wkb
from ..geom.grid_index import SegmentGrid

# margin added to street bboxes when computing covering cells, so a
# face straddling a cell border still sees all its boundary streets
COVER_MARGIN_DEG = 0.003

FEATURE_COLUMNS = ["kind", "h3_cell", "feature_id", "parent_id",
                   "geometry_wkb", "length_m", "area_m2"]


def _stable_id(*parts) -> np.int64:
    h = hashlib.sha1("|".join(str(p) for p in parts).encode()).digest()
    return np.int64(int.from_bytes(h[:8], "little") >> 1)


# ------------------------------------------------------- width assign

def assign_widths(streets, cfg: PipelineConfig = DEFAULT_CONFIG):
    """M3+M4: width_m = valid numeric tag || default_widths[highway] ||
    fallback 6.0, capped at MAX_SIDEWALK_WIDTH; rows with width < 0.5 m
    (ignored classes) are dropped. Vectorized Arrow kernels; the width
    table rides inside the task closure (it is a constant)."""
    widths = cfg.default_widths
    fallback = cfg.fallback_width
    min_w = cfg.min_valid_width
    max_w = cfg.max_sidewalk_width
    # class-width lookup table as Arrow arrays (index_in + take, no
    # per-row Python); last slot is the fallback for unknown classes
    cls_keys = pa.array(list(widths.keys()), pa.string())
    cls_vals = pa.array(list(widths.values()) + [fallback], pa.float64())

    def f(t: pa.Table) -> pa.Table:
        # an all-null column arrives as Arrow null type — normalize;
        # trim before casting (Arrow rejects surrounding whitespace)
        width_col = pc.utf8_trim_whitespace(
            pc.coalesce(t["width"].cast(pa.string()), pa.scalar("")))
        tag_w = pc.cast(
            pc.if_else(
                pc.match_substring_regex(width_col, r"^\d+(\.\d+)?$"),
                width_col, pa.scalar(None, pa.string())),
            pa.float64())
        idx = pc.fill_null(
            pc.index_in(t["highway"].cast(pa.string()), value_set=cls_keys),
            len(widths))
        cls_w = pc.take(cls_vals, idx)
        w = pc.coalesce(tag_w, cls_w)
        w = pc.min_element_wise(w, pa.scalar(float(max_w)))
        t = t.append_column("width_m", w)
        return t.filter(pc.greater_equal(t["width_m"], pa.scalar(float(min_w))))

    return streets.map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------- cell explode

def encode_cells(streets, cfg: PipelineConfig = DEFAULT_CONFIG):
    """M17: one output row per (street, covering cell)."""
    res = cfg.cell_res

    def f(t: pa.Table) -> pa.Table:
        geoms = t["geometry_wkb"].to_pylist()
        mnx, mny, mxx, mxy = wkb.decode_bboxes(geoms)
        row_idx, cell = cells.cover_bboxes(
            mnx - COVER_MARGIN_DEG, mny - COVER_MARGIN_DEG,
            mxx + COVER_MARGIN_DEG, mxy + COVER_MARGIN_DEG, res)
        out = t.take(pa.array(row_idx))
        return out.append_column("h3_cell", pa.array(cell))

    return streets.map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------- pack helpers

def _pack_arrays(*arrays: np.ndarray) -> bytes:
    parts = [np.int64(len(arrays)).tobytes()]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        shape = np.asarray(a.shape, dtype=np.int64)
        parts.append(np.int64(a.ndim).tobytes())
        parts.append(shape.tobytes())
        parts.append(a.tobytes())
    return b"".join(parts)


def _unpack_arrays(blob: bytes) -> list[np.ndarray]:
    out = []
    n = int(np.frombuffer(blob, dtype=np.int64, count=1)[0])
    off = 8
    for _ in range(n):
        ndim = int(np.frombuffer(blob, dtype=np.int64, count=1, offset=off)[0])
        off += 8
        shape = np.frombuffer(blob, dtype=np.int64, count=ndim, offset=off)
        off += 8 * ndim
        cnt = int(np.prod(shape)) if ndim else 0
        a = np.frombuffer(blob, dtype=np.float64, count=cnt, offset=off)
        off += 8 * cnt
        out.append(a.reshape(shape))
    return out


def _norm_tag(v) -> str:
    if v is None:
        return ""
    s = str(v).strip().lower()
    return "" if s in ("none", "nan") else s


def _tag_zones(n0, n1, seg_width, seg_sidewalk, seg_left, seg_right,
               seg_both, cfg):
    """M12 exclusion + sure zones as arrays: rows
    (ax, ay, bx, by, radius, side); side 0=both, -1=left of direction,
    +1=right. Reference tag dispatch over BOTH the ``sidewalk=`` value
    form and the separate ``sidewalk:left/right/both`` key form
    (headless elif chain sidewalk_generation_logic.py:493-574; GUI
    osm_sidewalkreator.py:1999-2090 — the GUI swaps sides for the
    ``sidewalk:left=yes``/``sidewalk:right=yes`` sure zones, a quirk we
    do NOT replicate; headless side semantics are used):

    - sidewalk=no or sidewalk:both=no          -> exclusion both sides
    - sidewalk=left or sidewalk:left=yes       -> sure left,  excl right
    - sidewalk=right or sidewalk:right=yes     -> sure right, excl left
    - sidewalk:left=no                         -> exclusion left
    - sidewalk:right=no                        -> exclusion right
    - sidewalk=yes/both or sidewalk:both=yes   -> sure zone both sides

    Untagged streets emit nothing (GUI semantics; the headless default
    full-buffer sure zone per untagged street would be O(corpus) noise).
    Returns (exclusion_rows, sure_rows)."""
    excl, sure = [], []
    for i in range(len(n0)):
        tag = _norm_tag(seg_sidewalk[i])
        lt = _norm_tag(seg_left[i])
        rt = _norm_tag(seg_right[i])
        bt = _norm_tag(seg_both[i])
        if not (tag or lt or rt or bt):
            continue
        radius = (seg_width[i] + cfg.d_to_add_to_each_side + 1.0) / 2.0 + 0.5
        row = (n0[i, 0], n0[i, 1], n1[i, 0], n1[i, 1], radius)
        if tag == "no" or bt == "no":
            excl.append(row + (0.0,))
        elif tag == "left" or lt == "yes":
            sure.append(row + (-1.0,))
            excl.append(row + (1.0,))
        elif tag == "right" or rt == "yes":
            sure.append(row + (1.0,))
            excl.append(row + (-1.0,))
        elif lt == "no":
            excl.append(row + (-1.0,))
            if rt == "yes":  # parity branch (covered by the elif above)
                sure.append(row + (1.0,))
        elif rt == "no":
            excl.append(row + (1.0,))
            if lt == "yes":  # parity branch (covered by the elif above)
                sure.append(row + (-1.0,))
        elif tag in ("yes", "both") or bt == "yes":
            sure.append(row + (0.0,))
    return (np.asarray(excl, dtype=np.float64).reshape(-1, 6),
            np.asarray(sure, dtype=np.float64).reshape(-1, 6))


def _zone_polygon(zone: np.ndarray) -> np.ndarray:
    """Flat-capped (one- or two-sided) rectangle for one zone row."""
    ax, ay, bx, by, r, side = zone
    a = np.array([ax, ay]); b = np.array([bx, by])
    d = b - a
    ln = np.linalg.norm(d)
    if ln == 0:
        return np.vstack([a, a, a, a])
    nl = np.array([-d[1], d[0]]) / ln  # left normal
    if side == 0:
        ring = [a + nl * r, b + nl * r, b - nl * r, a - nl * r]
    elif side < 0:  # left side
        ring = [a, b, b + nl * r, a + nl * r]
    else:  # right side
        ring = [a, b, b - nl * r, a - nl * r]
    ring.append(ring[0])
    return np.vstack(ring)


def _metrics_row(cell: int, metrics: dict) -> dict:
    payload = "|".join(f"{k}={v}" for k, v in sorted(metrics.items()))
    return {"kind": "metrics", "h3_cell": cell,
            "feature_id": np.int64(metrics.get("n_protoblocks", 0)),
            "parent_id": np.int64(metrics.get("n_segments", 0)),
            "geometry_wkb": payload.encode(),
            "length_m": 0.0, "area_m2": 0.0}


# --------------------------------------------------------- stage A

def cell_graph(group: pd.DataFrame, cfg: PipelineConfig) -> pd.DataFrame:
    """Per-cell graph stage: noding, pruning, polygonization; emits
    protoblocks + packed per-protoblock work + packed graph row."""
    cell = int(group["h3_cell"].iloc[0])
    frame = project.frame_for_cell(cell)
    cmnx, cmny, cmxx, cmxy = (float(v) for v in cells.cell_bounds(cell))

    coords, offsets, part = wkb.decode_lines(group["geometry_wkb"].tolist())
    local = project.coords_to_local(coords, frame)
    widths = group["width_m"].to_numpy()[part]

    def _tag_col(name: str) -> np.ndarray:
        return (group[name].to_numpy()[part] if name in group
                else np.array([None] * len(part), dtype=object))

    sidewalk_tags = _tag_col("sidewalk")
    left_tags = _tag_col("sidewalk_left")
    right_tags = _tag_col("sidewalk_right")
    both_tags = _tag_col("sidewalk_both")

    s0, s1, li = pg.explode_segments(local, offsets)
    metrics = {"n_streets": len(group), "n_segments": 0, "n_protoblocks": 0}
    if len(s0) == 0:
        return pd.DataFrame([_metrics_row(cell, metrics)])
    n0, n1, parent = pg.node_segments(s0, s1, li, snap_tol=1e-6)
    if cfg.dead_end_iterations == 0 and cfg.protect_culdesacs:
        # GUI semantics at 0 iterations: one pass protecting culs-de-
        # sac inside faces (faces are unchanged by dead-end removal,
        # so the pre-prune polygonization is the checker geometry)
        pre_faces = pg.polygonize_faces(n0, n1)
        n0, n1, parent = pg.prune_dead_ends_protected(
            n0, n1, parent, pre_faces, buffer=cfg.protoblocks_buffer)
    else:
        n0, n1, parent = pg.prune_dead_ends(n0, n1, parent,
                                            cfg.dead_end_iterations)
    metrics["n_segments"] = len(n0)
    if len(n0) == 0:
        return pd.DataFrame([_metrics_row(cell, metrics)])

    halfw = widths[parent] / 2.0 + cfg.d_to_add_to_each_side / 2.0
    zones, sure_zones = _tag_zones(n0, n1, widths[parent],
                                   sidewalk_tags[parent],
                                   left_tags[parent], right_tags[parent],
                                   both_tags[parent], cfg)

    def owns(x: float, y: float) -> bool:
        lon, lat = project.to_lonlat(x, y, frame)
        return (cmnx <= lon < cmxx) and (cmny <= lat < cmxy)

    out_rows: list[dict] = []
    faces = pg.polygonize_faces(n0, n1)
    seg_grid = SegmentGrid(n0, n1, cell=64.0)
    max_pad = float(widths.max()) / 2 + cfg.curve_radius + 2.0

    for face in faces:
        cx, cy = face[:-1].mean(axis=0)
        if not owns(cx, cy):
            continue
        area = core.ring_signed_area(face)
        perim = core.line_lengths(face, np.array([0, len(face)]))[0]
        pb_id = _stable_id(cell, "pb", round(cx, 2), round(cy, 2))
        metrics["n_protoblocks"] += 1
        out_rows.append({
            "kind": "protoblock", "h3_cell": cell, "feature_id": pb_id,
            "parent_id": np.int64(-1),
            "geometry_wkb": wkb.encode_polygon(
                [project.coords_to_lonlat(face, frame)]),
            "length_m": float(perim), "area_m2": float(area)})
        fmnx, fmny = face.min(axis=0) - max_pad
        fmxx, fmxy = face.max(axis=0) + max_pad
        cand = seg_grid.query_bbox(fmnx, fmny, fmxx, fmxy)
        segs = np.column_stack((n0[cand], n1[cand], halfw[cand]))
        if len(zones):
            zin = np.zeros(len(zones), dtype=bool)
            for zi in range(len(zones)):
                zin[zi] = not (zones[zi, [0, 2]].max() < fmnx
                               or zones[zi, [0, 2]].min() > fmxx
                               or zones[zi, [1, 3]].max() < fmny
                               or zones[zi, [1, 3]].min() > fmxy)
            fzones = zones[zin]
        else:
            fzones = zones
        out_rows.append({
            "kind": "pbwork", "h3_cell": cell, "feature_id": pb_id,
            "parent_id": np.int64(-1),
            "geometry_wkb": _pack_arrays(face, segs, fzones),
            "length_m": 0.0, "area_m2": 0.0})

    # sure-zone polygons (M12 positive half): a first-class output
    # layer like the reference's sure_zones (osm_sidewalkreator.py:
    # 2105-2120 — rendered, not subtracted); ownership by midpoint
    for zi in range(len(sure_zones)):
        z = sure_zones[zi]
        mx, my = (z[0] + z[2]) / 2.0, (z[1] + z[3]) / 2.0
        if not owns(mx, my):
            continue
        ring = _zone_polygon(z)
        area = abs(core.ring_signed_area(ring))
        out_rows.append({
            "kind": "sure_zone", "h3_cell": cell,
            "feature_id": _stable_id(cell, "sz", round(mx, 2), round(my, 2),
                                     round(float(z[5]), 1)),
            "parent_id": np.int64(-1),
            "geometry_wkb": wkb.encode_polygon(
                [project.coords_to_lonlat(ring, frame)]),
            "length_m": 0.0, "area_m2": float(area)})

    # packed graph row for the crossing stage (G5 needs noded segments)
    out_rows.append({
        "kind": "graph", "h3_cell": cell, "feature_id": np.int64(0),
        "parent_id": np.int64(0),
        "geometry_wkb": _pack_arrays(n0, n1, widths[parent]),
        "length_m": 0.0, "area_m2": 0.0})
    out_rows.append(_metrics_row(cell, metrics))
    return pd.DataFrame(out_rows)[FEATURE_COLUMNS]


# --------------------------------------------------------- stage B

def _points_in_zone(pts: np.ndarray, zone: np.ndarray) -> np.ndarray:
    ax, ay, bx, by, radius, side = zone
    d = core.point_segment_dist(pts[:, 0], pts[:, 1], ax, ay, bx, by)
    mask = d <= radius
    if side != 0:
        cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        mask &= (cross > 0) if side < 0 else (cross < 0)
    return mask


def _ring_to_arcs(ring: np.ndarray, drop_mask: np.ndarray) -> list[np.ndarray]:
    n = len(ring) - 1
    if not drop_mask.any():
        return [ring]
    if drop_mask.all():
        return []
    keep = ~drop_mask
    start = int(np.argmin(keep))
    order = (np.arange(n) + start) % n
    arcs, cur = [], []
    for idx in order:
        if keep[idx]:
            cur.append(ring[idx])
        else:
            if len(cur) >= 2:
                arcs.append(np.asarray(cur))
            cur = []
    if len(cur) >= 2:
        arcs.append(np.asarray(cur))
    return arcs


# per-protoblock raster pixel budget: above this the face is re-run at
# the coarsest resolution that fits (never silently dropped)
MAX_RASTER_PIXELS = 16_000_000


def extract_tiles(batch: pd.DataFrame, cfg: PipelineConfig) -> pd.DataFrame:
    """Stage B: per-protoblock raster -> tile polygon + sidewalk arcs:
    face pixels (a scanline parity fill, ``core.grid_in_ring``) outside
    the street buffer, opened by the curve radius, then traced."""
    res = cfg.raster_res_m
    out_rows: list[dict] = []
    for _, r in batch.iterrows():
        cell = int(r["h3_cell"])
        pb_id = np.int64(r["feature_id"])
        frame = project.frame_for_cell(cell)
        face, segs, zones = _unpack_arrays(r["geometry_wkb"])
        if len(segs) == 0:
            continue
        n0 = segs[:, 0:2]; n1 = segs[:, 2:4]; halfw = segs[:, 4]
        pad = float(halfw.max()) + cfg.curve_radius + 2 * res
        fmnx, fmny = face.min(axis=0) - pad
        fmxx, fmxy = face.max(axis=0) + pad
        res_eff = res
        nx = int((fmxx - fmnx) / res_eff) + 1
        ny = int((fmxy - fmny) / res_eff) + 1
        if nx * ny > MAX_RASTER_PIXELS:
            # degenerate giant face: NOT silently dropped ("no silent
            # caps") — retry at the coarsest resolution that fits the
            # pixel budget and emit a metrics row recording the
            # fallback so lineage shows which protoblock was coarsened
            factor = int(np.ceil(np.sqrt(nx * ny / MAX_RASTER_PIXELS)))
            res_eff = res * factor
            out_rows.append(_metrics_row(cell, {
                "giant_face_pb": int(pb_id), "px_requested": nx * ny,
                "res_factor": factor}))
            nx = int((fmxx - fmnx) / res_eff) + 1
            ny = int((fmxy - fmny) / res_eff) + 1
        k_px_eff = max(1, int(round(cfg.curve_radius / res_eff)))
        field = raster.distance_field(n0, n1, halfw, (fmnx, fmny), (ny, nx),
                                      res_eff)
        gx = fmnx + (np.arange(nx) + 0.5) * res_eff
        gy = fmny + (np.arange(ny) + 0.5) * res_eff
        inside = core.grid_in_ring(gx, gy, face)
        mask = inside & (field > 0)
        mask = raster.open_mask(mask, k_px_eff)
        if not mask.any():
            continue
        rings = raster.trace_contours(mask, (fmnx, fmny), res_eff)
        tile_idx = 0
        for ring, sarea in rings:
            if sarea <= 0:
                continue
            ring = raster.simplify_ring(ring, res_eff)
            r_perim = core.line_lengths(ring, np.array([0, len(ring)]))[0]
            if r_perim <= 0 or sarea / r_perim < cfg.min_area_perimeter_ratio:
                continue  # M10
            tcx, tcy = ring[:-1].mean(axis=0)
            tile_id = _stable_id(cell, "tile", round(tcx, 2), round(tcy, 2),
                                 tile_idx)
            tile_idx += 1
            out_rows.append({
                "kind": "tile", "h3_cell": cell, "feature_id": tile_id,
                "parent_id": pb_id,
                "geometry_wkb": wkb.encode_polygon(
                    [project.coords_to_lonlat(ring, frame)]),
                "length_m": float(r_perim), "area_m2": float(sarea)})
            drop = np.zeros(len(ring) - 1, dtype=bool)
            for z in zones:
                drop |= _points_in_zone(ring[:-1], z)
            for ai, arc in enumerate(_ring_to_arcs(ring, drop)):
                alen = core.line_lengths(arc, np.array([0, len(arc)]))[0]
                if alen < cfg.tiny_segments_tol:
                    continue  # M13
                sw_id = _stable_id(cell, "sw", tile_id, ai)
                out_rows.append({
                    "kind": "sidewalk", "h3_cell": cell, "feature_id": sw_id,
                    "parent_id": tile_id,
                    "geometry_wkb": wkb.encode_line(
                        project.coords_to_lonlat(arc, frame)),
                    "length_m": float(alen), "area_m2": 0.0})
    if not out_rows:
        return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in zip(
            FEATURE_COLUMNS,
            ["str", "int64", "int64", "int64", object, "float64", "float64"])})
    return pd.DataFrame(out_rows)[FEATURE_COLUMNS]


# --------------------------------------------------------- stage C

def cell_crossings(group: pd.DataFrame, cfg: PipelineConfig) -> pd.DataFrame:
    """G5 headless clone per cell, co-grouping the packed street graph
    with the generated sidewalk lines."""
    cell = int(group["h3_cell"].iloc[0])
    graph = group[group["kind"] == "graph"]
    sw = group[group["kind"] == "sidewalk"]
    empty = pd.DataFrame({c: pd.Series([], dtype=t) for c, t in zip(
        FEATURE_COLUMNS,
        ["str", "int64", "int64", "int64", object, "float64", "float64"])})
    if len(graph) == 0 or len(sw) == 0:
        return empty
    frame = project.frame_for_cell(cell)
    cmnx, cmny, cmxx, cmxy = (float(v) for v in cells.cell_bounds(cell))

    def owns(x, y):
        lon, lat = project.to_lonlat(x, y, frame)
        return (cmnx <= lon < cmxx) and (cmny <= lat < cmxy)

    n0, n1, seg_width = _unpack_arrays(graph["geometry_wkb"].iloc[0])
    coords, offs, _ = wkb.decode_lines(sw["geometry_wkb"].tolist())
    loc = project.coords_to_local(coords, frame)
    ls0, ls1, _li = pg.explode_segments(loc, offs)
    if cfg.crossing_mode == "gui":
        crossings = _gui_crossings_for_cell(n0, n1, seg_width, ls0, ls1,
                                            cfg, owns)
    else:
        crossings = _crossings_for_cell(n0, n1, seg_width, ls0, ls1, cfg,
                                        owns)
    out_rows = []
    for pts, clen in crossings:
        cr_id = _stable_id(cell, "cr", round(pts[2, 0], 2),
                           round(pts[2, 1], 2))
        out_rows.append({
            "kind": "crossing", "h3_cell": cell, "feature_id": cr_id,
            "parent_id": np.int64(-1),
            "geometry_wkb": wkb.encode_line(
                project.coords_to_lonlat(pts, frame)),
            "length_m": float(clen), "area_m2": 0.0})
        for kb in (pts[1], pts[3]):  # kerbs at B and D (G8)
            kb_id = _stable_id(cell, "kb", cr_id, round(kb[0], 2),
                               round(kb[1], 2))
            lon, lat = project.to_lonlat(kb[0], kb[1], frame)
            out_rows.append({
                "kind": "kerb", "h3_cell": cell, "feature_id": kb_id,
                "parent_id": cr_id,
                "geometry_wkb": wkb.encode_point(float(lon), float(lat)),
                "length_m": 0.0, "area_m2": 0.0})
    if not out_rows:
        return empty
    return pd.DataFrame(out_rows)[FEATURE_COLUMNS]


def _crossings_for_cell(n0, n1, seg_width, sw0, sw1, cfg, owns):
    """G5 semantics (full_..._bbox_algorithm.py:515-936): endpoint with
    >=1 other segment within 2 m; center interpolated inward by
    max_w/2 + curve_radius + d_to_add (capped at 10% length); ray-cast
    perpendicular both ways to the nearest sidewalk line; 5-point
    A-B-C-D-E crossing; kerbs at 25% (line :906); min segment 20 m;
    max crossing 100 m (parameters.py:172)."""
    out = []
    seglen = np.linalg.norm(n1 - n0, axis=1)
    nodes, deg, aid, bid = pg.node_degrees(n0, n1, tol=2.0)
    for i in range(len(n0)):
        L = seglen[i]
        if L < cfg.min_seg_len_for_crossing:
            continue
        for endpoint_type, end_id, pA, pB_ in (("P0", aid[i], n0[i], n1[i]),
                                               ("PF", bid[i], n1[i], n0[i])):
            n_other = deg[end_id] - 1
            if n_other < 1:
                continue
            shared = (aid == end_id) | (bid == end_id)
            shared[i] = False
            max_w = seg_width[shared].max() if shared.any() else seg_width[i]
            d = max_w * 0.5 + cfg.curve_radius + cfg.d_to_add_to_each_side
            if d > 0.5 * L:
                d = L * 0.1
            seg_dir = (pB_ - pA) / L
            center = pA + seg_dir * d
            dir_pt = pA + seg_dir * min(d + 1.0, L)
            dvec = dir_pt - center
            nrm = np.linalg.norm(dvec)
            if nrm == 0:
                continue
            perp = np.array([-dvec[1], dvec[0]]) / nrm
            half_span = max_w * 0.5 + cfg.curve_radius \
                + cfg.d_to_add_to_each_side + 0.5
            tA, iA = core.ray_segments_first_hit(center, -perp, sw0, sw1,
                                                 max_t=half_span * 2)
            tE, iE = core.ray_segments_first_hit(center, perp, sw0, sw1,
                                                 max_t=half_span * 2)
            if iA < 0 or iE < 0:
                continue
            ptA = center - perp * tA
            ptE = center + perp * tE
            clen = tA + tE
            if clen > cfg.abs_max_crossing_len:
                continue
            if not owns(center[0], center[1]):
                continue
            kerb_perc = 0.25
            ptB = ptA + (center - ptA) * kerb_perc
            ptD = ptE + (center - ptE) * kerb_perc
            out.append((np.vstack((ptA, ptB, center, ptD, ptE)), clen))
    return out


# ----------------------------------------------------- G5 GUI fidelity

def _major_dif_signed(w: float, others: dict, tol: float = 0.5) -> float:
    """generic_functions.py:1026-1059: among the other incident
    streets' widths, take the one with the largest SIGNED difference
    (ignoring widths within ``tol`` of our own); fall back to our own
    width when every other street is equally wide."""
    diffs = {k: float(v) - w for k, v in others.items()
             if abs(float(v) - w) > tol}
    if diffs:
        k = max(diffs, key=diffs.get)
        return w + diffs[k]
    return w


def _in_any_face(pt: np.ndarray, faces: list) -> bool:
    for face in faces:
        if core.points_in_ring(pt[0:1], pt[1:2], face)[0]:
            return True
    return False


def _gui_raycast(vec: np.ndarray, C: np.ndarray, pA: np.ndarray,
                 u: np.ndarray, L: float, curr, w: float,
                 cfg: PipelineConfig, sw0, sw1):
    """two_intersections_byvector_with_sidewalks
    (osm_sidewalkreator.py:3034-3175): cast both sides of ``vec`` from
    the center, DOUBLING the reach each failed iteration; when both
    sides hit, validate the crossing length against
    ``(d_to_add + width) * (1 + tol%)`` and re-center 0.5 m inward
    (``increment_inward``) up to ``max_crossings_iterations``; reject
    outright above ``abs_max_crossing_len``. ``curr=None`` (the
    interpolation already passed 40% of the street) disables both the
    length check and re-centering, exactly as in the reference."""
    vlen = float(np.linalg.norm(vec))
    if vlen == 0:
        return None
    vunit = vec / vlen
    max_len = (cfg.gui_d_to_add + w) * (1 + cfg.perc_tol_crossings / 100.0)
    coefA = coefB = 1.0
    okA = okB = False
    Cnew = None
    center = C.copy()
    ptA = ptE = None
    it = 0
    while not (okA and okB):
        tA, iA = core.ray_segments_first_hit(center, vunit, sw0, sw1,
                                             max_t=vlen * coefA)
        tB, iB = core.ray_segments_first_hit(center, -vunit, sw0, sw1,
                                             max_t=vlen * coefB)
        okA = iA >= 0
        okB = iB >= 0
        if okA:
            ptA = center + vunit * tA
        if okB:
            ptE = center - vunit * tB
        if not okA:
            coefA *= 2.0
        if not okB:
            coefB *= 2.0
        not_max_iters = it < cfg.max_crossings_iterations
        if okA and okB and curr is not None and not_max_iters:
            clen = float(np.linalg.norm(ptA - ptE))
            if clen > cfg.abs_max_crossing_len:
                return None
            if clen > max_len:
                curr += cfg.increment_inward
                if curr < L / 2.0:
                    okA = okB = False
                    Cnew = pA + u * curr
                    center = Cnew
        it += 1
        if it > cfg.max_crossings_iterations:
            return None
    return ptA, ptE, Cnew


def _gui_crossings_for_cell(n0, n1, seg_width, sw0, sw1, cfg, owns):
    """draw_crossings fidelity (osm_sidewalkreator.py:1186-1812), per
    cell in the local frame. Semantics replicated exactly, with dialog
    defaults (osm_sidewalkreator_dialog_base.ui):

    - endpoint eligible when >2 segments touch it (0.1 m tolerance)
      and the street segment is >= min_seg_len (20 m)
    - inward distance = major-dif width/2 + curve_radius +
      d_to_add_inward(2); capped at 40% length (then no length checks
      — ``inward_distances[id] = None``, :1360-1363)
    - direction: min-angle pick over the other incident streets'
      1 m-circle intersections (generic_functions.py:1184-1238) — but
      ONLY for segment-end (PF) endpoints: for P0 endpoints the
      reference indexes the candidate list with a QgsGeometry
      (:1411-1417), the except path fires, and the perpendicular
      fallback is used every time. That quirk is replicated: P0 is
      always perpendicular.
    - crossing-center eligibility: the 1 m disk around the center must
      be inside the dissolved protoblocks (:1536-1550); implemented as
      both 0.5 m side-offsets of the center falling inside faces
    - ray-cast/validation: see _gui_raycast
    - kerbs B, D at perc_draw_kerbs=30% along A->C / E->C (:1622-1625)
    - above-tolerance crossings are kept (flagged) unless
      cfg.remove_above_tol, mirroring ch_remove_abovetol unchecked
    """
    out = []
    seglen = np.linalg.norm(n1 - n0, axis=1)
    nodes, deg, aid, bid = pg.node_degrees(n0, n1, tol=0.1)
    inc: dict[int, list[int]] = {}
    for i in range(len(n0)):
        inc.setdefault(int(aid[i]), []).append(i)
        inc.setdefault(int(bid[i]), []).append(i)
    faces = pg.polygonize_faces(n0, n1)
    for i in range(len(n0)):
        L = float(seglen[i])
        if L <= 0 or L < cfg.min_seg_len_for_crossing:
            continue
        w = float(seg_width[i])
        for is_begin, end_id, pA, pB_ in ((True, int(aid[i]), n0[i], n1[i]),
                                          (False, int(bid[i]), n1[i], n0[i])):
            if deg[end_id] <= 2:
                continue
            others = [j for j in inc.get(end_id, []) if j != i]
            tr = _major_dif_signed(w, {j: seg_width[j] for j in others})
            d = tr * 0.5 + cfg.curve_radius + cfg.d_to_add_inward
            curr = d
            if d > 0.5 * L:
                d = L * cfg.perc_to_interpolate
                curr = None
            u = (pB_ - pA) / L
            C = pA + u * d
            vec_len = w + cfg.gui_d_to_add
            dirvec = None
            if cfg.use_parallel_crossings and not is_begin:
                best, best_angle = None, None
                v1 = C - pA
                a1 = np.arctan2(v1[1], v1[0])
                for j in others:
                    q0, q1 = ((n0[j], n1[j]) if int(aid[j]) == end_id
                              else (n1[j], n0[j]))
                    lj = float(np.linalg.norm(q1 - q0))
                    if lj < 1.0:
                        continue  # segment inside the unit circle
                    cand = q0 + (q1 - q0) / lj
                    v2 = cand - pA
                    ang = abs(np.degrees(
                        np.arctan2(v2[1], v2[0]) - a1)) % 360.0
                    if ang > 180.0:
                        ang = 360.0 - ang
                    if best_angle is None or ang < best_angle:
                        best_angle, best = ang, cand
                if best is not None:
                    dv = best - pA
                    nrm = float(np.linalg.norm(dv))
                    if nrm > 0:
                        dirvec = dv / nrm * vec_len
            if dirvec is None:
                sv = C - pA
                nrm = float(np.linalg.norm(sv))
                if nrm == 0:
                    continue
                sv = sv / nrm * vec_len
                dirvec = np.array([-sv[1], sv[0]])
            pn = np.array([-u[1], u[0]])
            if not (_in_any_face(C + pn * 0.5, faces)
                    and _in_any_face(C - pn * 0.5, faces)):
                continue
            res = _gui_raycast(dirvec, C, pA, u, L, curr, w, cfg, sw0, sw1)
            if res is None:
                continue
            ptA, ptE, Cnew = res
            C_eff = Cnew if Cnew is not None else C
            if not owns(C_eff[0], C_eff[1]):
                continue
            clen = (float(np.linalg.norm(ptA - C_eff))
                    + float(np.linalg.norm(ptE - C_eff)))
            ortholen = cfg.gui_d_to_add + w
            above_tol = clen > ortholen * (1 + cfg.perc_tol_crossings / 100.0)
            if cfg.remove_above_tol and above_tol:
                continue
            kp = cfg.perc_draw_kerbs / 100.0
            ptB = ptA + (C_eff - ptA) * kp
            ptD = ptE + (C_eff - ptE) * kp
            out.append((np.vstack((ptA, ptB, C_eff, ptD, ptE)), clen))
    return out


# ------------------------------------------------- G7 snap / G8 alt

def _finalize_cell(group: pd.DataFrame, cfg: PipelineConfig) -> pd.DataFrame:
    """Topological cleanup (G7 head) + ALT_SCHEMA (G8), per cell.

    snap_rounds replays the reference's three sequential snap rounds
    (osm_sidewalkreator.py:1087-1119): dup-vertex removal (0.1 m) ->
    sidewalks self-snapped (snap_disjointed_tol+0.01 = 0.51 m) ->
    crossing ENDpoints snapped to sidewalks (0.1 m, behavior 5) ->
    sidewalk vertices snapped to crossings (0.1 m, behavior 1).

    alt_schema additionally splits every surviving 5-point crossing
    into two sidewalk-tagged end segments [A,B] / [D,E] and one
    crossing-tagged center [B,C,D] (osm_sidewalkreator.py:3592-3667).
    Kerbs (crossing vertices B, D) are untouched by endpoint snapping,
    so kerb regeneration is a pass-through here."""
    from ..geom import snap as gsnap
    cell = int(group["h3_cell"].iloc[0])
    frame = project.frame_for_cell(cell)
    sws = group[group["kind"] == "sidewalk"]
    crs = group[group["kind"] == "crossing"]
    out_rows: list[dict] = []

    arcs = []
    for b in sws["geometry_wkb"]:
        coords, _, _ = wkb.decode_lines([b])
        arcs.append(project.coords_to_local(coords, frame))
    cr_lines = []
    for b in crs["geometry_wkb"]:
        coords, _, _ = wkb.decode_lines([b])
        cr_lines.append(project.coords_to_local(coords, frame))

    if cfg.snap_rounds:
        arcs = [core.remove_repeated_points(a, cfg.duplicate_points_tol)
                for a in arcs]
        arcs = gsnap.snap_lines_mutual(arcs, cfg.snap_disjointed_tol + 0.01)
        if arcs:
            s0 = np.concatenate([a[:-1] for a in arcs])
            s1 = np.concatenate([a[1:] for a in arcs])
            snapped_cr = []
            for ln in cr_lines:
                ends = gsnap.snap_line_to_segments(
                    ln[[0, -1]], s0, s1, 0.1)
                ln = ln.copy()
                ln[0] = ends[0]
                ln[-1] = ends[1]
                snapped_cr.append(ln)
            cr_lines = snapped_cr
        if cr_lines:
            c0 = np.concatenate([c[:-1] for c in cr_lines])
            c1 = np.concatenate([c[1:] for c in cr_lines])
            arcs = [gsnap.snap_line_to_segments(a, c0, c1, 0.1)
                    for a in arcs]

    for (_, r), arc in zip(sws.iterrows(), arcs):
        alen = core.line_lengths(arc, np.array([0, len(arc)]))[0]
        row = r.to_dict()
        row["geometry_wkb"] = wkb.encode_line(
            project.coords_to_lonlat(arc, frame))
        row["length_m"] = round(float(alen), 6)
        out_rows.append(row)
    for (_, r), ln in zip(crs.iterrows(), cr_lines):
        clen = core.line_lengths(ln, np.array([0, len(ln)]))[0]
        row = r.to_dict()
        row["geometry_wkb"] = wkb.encode_line(
            project.coords_to_lonlat(ln, frame))
        row["length_m"] = round(float(clen), 6)
        out_rows.append(row)
        if cfg.alt_schema and len(ln) == 5:
            cr_id = np.int64(r["feature_id"])
            for kind, pts, ki in (
                    ("crossing_end", ln[[0, 1]], 0),
                    ("crossing_end", ln[[3, 4]], 1),
                    ("crossing_center", ln[[1, 2, 3]], 2)):
                seg_len = core.line_lengths(
                    pts, np.array([0, len(pts)]))[0]
                out_rows.append({
                    "kind": kind, "h3_cell": cell,
                    "feature_id": _stable_id(cell, kind, cr_id, ki),
                    "parent_id": cr_id,
                    "geometry_wkb": wkb.encode_line(
                        project.coords_to_lonlat(pts, frame)),
                    "length_m": round(float(seg_len), 6), "area_m2": 0.0})
    if not out_rows:
        return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in zip(
            FEATURE_COLUMNS,
            ["str", "int64", "int64", "int64", object, "float64",
             "float64"])})
    return pd.DataFrame(out_rows)[FEATURE_COLUMNS]


# ------------------------------------------------------------ pipeline

def _stages_ab(streets, cfg: PipelineConfig):
    """Stages A (cell graph) + B (per-protoblock raster) -> pinned
    (graphs, tiles) Datasets. ``tiles`` holds exactly the tile +
    sidewalk rows."""
    ds = assign_widths(streets, cfg)
    ds = encode_cells(ds, cfg)

    # the sort shuffle's downstream parallelism tracks its INPUT block
    # count: a single-block street table (from_arrow / one parquet
    # fragment) serializes the per-cell graph UDFs behind one SortMap
    # task (measured 1.5 s -> 0.35 s at sf0.1 by fanning out to
    # ~CPU/2 blocks). Only fan out when the input is under-split —
    # at corpus scale reads arrive already multi-block and this is a
    # no-op.
    import ray as _ray
    _target = max(8, int(_ray.cluster_resources().get("CPU", 8)) // 2)
    ds = ds.materialize()
    if ds.num_blocks() < _target:
        ds = ds.repartition(_target)

    graphs = ds.groupby("h3_cell").map_groups(
        lambda g: cell_graph(g, cfg), batch_format="pandas")
    # stage-A output is compact packed geometry — pin it so the
    # consumers below don't re-run the graph shuffle
    graphs = graphs.materialize()

    # stage-A groups produce one block per cell; re-split so the raster
    # stage parallelizes per protoblock across every CPU, not per cell.
    # 2x CPUs blocks of up to 16 protoblocks measured fastest (4x/b4
    # spent the win on per-task scheduling constants: ~20 CPU-s of
    # raster work across 400 tiny tasks took 4.1 s wall; 64/b16 -> 1.7 s)
    import ray as _ray
    nsplit = max(8, int(_ray.cluster_resources().get("CPU", 8)) * 2)
    work = graphs.filter(expr="kind == 'pbwork'").repartition(nsplit)
    tiles = work.map_batches(lambda b: extract_tiles(b, cfg),
                             batch_format="pandas", batch_size=16)
    return graphs, tiles.materialize()


def build_join_features(streets, cfg: PipelineConfig = DEFAULT_CONFIG):
    """The page-join feature side: tile + sidewalk rows ONLY. Skips
    stage C (crossings) when the config doesn't move sidewalk geometry
    — the join never reads crossings, so computing them on the join's
    critical path is dead work. Identical rows to filtering
    ``build_features`` output down to kinds (tile, sidewalk)."""
    if cfg.snap_rounds or cfg.alt_schema:
        # snap/ALT move sidewalk lines in finalize — need full build;
        # drop the M11 attribute columns so both paths ship the same
        # slim schema into the join
        return (build_features(streets, cfg)
                .filter(expr="kind == 'tile' or kind == 'sidewalk'")
                .select_columns(FEATURE_COLUMNS))
    _graphs, tiles = _stages_ab(streets, cfg)
    return tiles


def build_features(streets, cfg: PipelineConfig = DEFAULT_CONFIG):
    """streets Dataset -> tall features Dataset (kind-tagged rows:
    protoblock / tile / sidewalk / crossing / kerb / metrics)."""
    graphs, tiles = _stages_ab(streets, cfg)

    graph_rows = graphs.filter(expr="kind == 'graph'")
    crossing_in = graph_rows.union(tiles.filter(expr="kind == 'sidewalk'"))
    crossings = crossing_in.groupby("h3_cell").map_groups(
        lambda g: cell_crossings(g, cfg), batch_format="pandas")

    static = graphs.filter(
        expr="kind == 'protoblock' or kind == 'metrics' "
             "or kind == 'sure_zone'")
    full = static.union(tiles).union(crossings)
    if cfg.snap_rounds or cfg.alt_schema:
        moving = full.filter(
            expr="kind == 'sidewalk' or kind == 'crossing'")
        rest = full.filter(
            expr="kind != 'sidewalk' and kind != 'crossing'")
        moved = moving.groupby("h3_cell").map_groups(
            lambda g: _finalize_cell(g, cfg), batch_format="pandas")
        full = rest.union(moved)
    # M11 output attributes ride every exported feature row; the join
    # side (build_join_features) skips them to keep its shuffle slim
    return add_ratio_columns(full)


def _add_ratio_columns(batch: pd.DataFrame) -> pd.DataFrame:
    """M11 output attributes (reference osm_sidewalkreator.py:2144-2190):
    norm_ratio = perimeter / sqrt(area), simple_ratio = perimeter / area
    for polygonal rows (tile, protoblock); 0.0 for zero-area rows
    (lines, points, metrics). Vectorized, zero extra state."""
    area = batch["area_m2"].to_numpy(dtype=np.float64, copy=False)
    perim = batch["length_m"].to_numpy(dtype=np.float64, copy=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(area > 0, perim / np.sqrt(np.abs(area)), 0.0)
        simple = np.where(area > 0, perim / area, 0.0)
    out = batch.copy()
    out["norm_ratio"] = norm
    out["simple_ratio"] = simple
    return out


def add_ratio_columns(features):
    """Dataset form of the M11 ratio attributes (streaming map_batches)."""
    return features.map_batches(_add_ratio_columns, batch_format="pandas")
