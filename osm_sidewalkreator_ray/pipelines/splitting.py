"""Sidewalk splitting (G6) and small-stretch merge (G7).

- G6c split by max length / N divisions with the reference's
  float-safety epsilon (osm_sidewalkreator.py:3443-3491,
  split_lines_by_max_len generic_functions.py:108-121)
- G6a split at protoblock-corner vertices: a vertex whose interior
  angle falls outside the 160-200 deg near-collinear band is a corner
  (select_vertex_pol_nodes generic_functions.py:1348-1387)
- G6b POI/Voronoi splitting: each sidewalk vertex is labeled with its
  nearest POI (building centroid / address point); the arc is split
  where the label changes — exactly the boundary of the POI Voronoi
  cells restricted to the sidewalk line (voronoi_splitting
  osm_sidewalkreator.py:3493-3557) without needing a Voronoi
  tessellation library
- G7 merge stretches shorter than ``min_stretch_size`` (7 m,
  parameters.py:169) into a touching neighbor
  (try_to_merge_small_stretches osm_sidewalkreator.py:3940-4068)

Splitting is a stateless ``map_batches`` over sidewalk rows; the POI
variant and the merge are per-cell ``map_groups`` (they need the
cell's POIs / the touching-neighbor graph).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..geom import core, project, wkb
from . import sidewalks as SW

EPS = 1e-9


def split_arc_by_max_len(arc: np.ndarray, max_len: float) -> list[np.ndarray]:
    total = core.line_lengths(arc, np.array([0, len(arc)]))[0]
    if total <= max_len + EPS:
        return [arc]
    n = int(np.ceil(total / max_len - EPS))
    piece = total / n
    return [core.substring(arc, i * piece, min((i + 1) * piece, total))
            for i in range(n)]


def split_arc_at_corners(arc: np.ndarray, band=(160.0, 200.0)
                         ) -> list[np.ndarray]:
    if len(arc) <= 2:
        return [arc]
    # angle_at folds to [0,180]; the reference keeps vertices in the
    # 160-200 deg near-collinear band -> a corner is angle < 160
    cuts = [i for i in range(1, len(arc) - 1)
            if core.angle_at(arc[i - 1], arc[i], arc[i + 1]) < band[0]]
    if not cuts:
        return [arc]
    pieces = []
    prev = 0
    for c in cuts:
        pieces.append(arc[prev:c + 1])
        prev = c
    pieces.append(arc[prev:])
    return [p for p in pieces if len(p) >= 2]


def split_arc_by_pois(arc: np.ndarray, pois: np.ndarray) -> list[np.ndarray]:
    if len(pois) == 0 or len(arc) < 2:
        return [arc]
    d = np.linalg.norm(arc[:, None, :] - pois[None, :, :], axis=2)
    label = d.argmin(axis=1)
    cuts = np.nonzero(np.diff(label))[0] + 1
    if len(cuts) == 0:
        return [arc]
    pieces = []
    prev = 0
    for c in cuts:
        pieces.append(arc[prev:c + 1])
        prev = c
    pieces.append(arc[prev:])
    return [p for p in pieces if len(p) >= 2]


# Arrow schema of the feature rows (``SW.FEATURE_COLUMNS``). The split
# UDFs return its empty table for a batch or group with no pieces:
# Ray Data sizes every output block, and an empty pandas frame with
# object columns makes that log "Error calculating size".
_FEATURE_ARROW = pa.schema([
    ("kind", pa.string()), ("h3_cell", pa.int64()),
    ("feature_id", pa.int64()), ("parent_id", pa.int64()),
    ("geometry_wkb", pa.binary()), ("length_m", pa.float64()),
    ("area_m2", pa.float64())])


def split_sidewalks(features, cfg: PipelineConfig = DEFAULT_CONFIG,
                    method: str = "length", max_len: float = 50.0,
                    pois=None, minimum_pois: int = 4):
    """sidewalk rows -> split sidewalk rows (kind='sidewalk_piece').

    method: 'length' (G6c) or 'corner' (G6a) run stateless; 'poi'
    (G6b) labels each arc vertex with its nearest POI among the POIs
    CONTAINED in the arc's protoblock, splitting where the label
    changes (the Voronoi-restriction equivalence) — and only when the
    protoblock holds MORE than ``minimum_pois`` POIs (the reference's
    minimum_pois_box gate, default 4, osm_sidewalkreator.py:3516);
    otherwise the arc is left whole.
    """
    sw = features.filter(expr="kind == 'sidewalk'")

    def _emit_pieces(rows: list, cell: int, frame, fid: int,
                     pieces: list) -> None:
        for pi, p in enumerate(pieces):
            plen = core.line_lengths(p, np.array([0, len(p)]))[0]
            if plen < cfg.tiny_segments_tol:
                continue  # M13
            rows.append({
                "kind": "sidewalk_piece", "h3_cell": cell,
                "feature_id": SW._stable_id(cell, "swp", fid, pi),
                "parent_id": np.int64(fid),
                "geometry_wkb": wkb.encode_line(
                    project.coords_to_lonlat(p, frame)),
                "length_m": float(plen), "area_m2": 0.0})

    def split_batch(batch: pd.DataFrame) -> pd.DataFrame | pa.Table:
        rows = []
        for _, r in batch.iterrows():
            cell = int(r["h3_cell"])
            frame = project.frame_for_cell(cell)
            coords, offs, _ = wkb.decode_lines([r["geometry_wkb"]])
            arc = project.coords_to_local(coords, frame)
            if method == "length":
                pieces = split_arc_by_max_len(arc, max_len)
            elif method == "corner":
                pieces = split_arc_at_corners(arc)
            else:
                raise ValueError(method)
            _emit_pieces(rows, cell, frame, int(r["feature_id"]), pieces)
        if not rows:
            return _FEATURE_ARROW.empty_table()
        return pd.DataFrame(rows)[SW.FEATURE_COLUMNS]

    if method != "poi":
        return sw.map_batches(split_batch, batch_format="pandas")

    # POI variant (G6b): POIs are assigned to the PROTOBLOCK containing
    # them (reference voronoi_splitting intersects POIs per protoblock,
    # :3507-3516). Round 2 built that map DRIVER-side from a to_pandas
    # of the whole feature table; now POIs ride the SAME
    # groupby(h3_cell) shuffle as everything else (the tagged-union
    # pattern of enrich.protoblock_coverage): POI points are
    # cell-encoded with a cover margin (a protoblock reaching over its
    # owner cell's edge still sees its POIs), tagged kind='poi', and
    # resolved per cell inside map_groups — nothing feature-sized ever
    # reaches the driver.
    import ray.data as rd
    from .. import cells
    from .sidewalks import COVER_MARGIN_DEG

    if pois is None:
        poi_ds = rd.from_items([])
    elif hasattr(pois, "map_batches"):
        poi_ds = pois
    elif isinstance(pois, pa.Table):
        poi_ds = rd.from_arrow(pois)
    else:
        poi_ds = rd.from_pandas(pois)

    def poi_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _FEATURE_ARROW.empty_table()
        pts = wkb.decode_points(t["geometry_wkb"].to_pylist())
        pids = t["poi_id"].to_numpy() if "poi_id" in t.column_names \
            else np.arange(t.num_rows, dtype=np.int64)
        row_idx, cell = cells.cover_bboxes(
            pts[:, 0] - COVER_MARGIN_DEG, pts[:, 1] - COVER_MARGIN_DEG,
            pts[:, 0] + COVER_MARGIN_DEG, pts[:, 1] + COVER_MARGIN_DEG,
            cfg.cell_res)
        n = len(row_idx)
        return pa.table({
            "kind": pa.array(["poi"] * n),
            "h3_cell": pa.array(cell.astype(np.int64)),
            "feature_id": pa.array(pids[row_idx].astype(np.int64)),
            "parent_id": pa.array(np.full(n, -1, dtype=np.int64)),
            "geometry_wkb": pa.array(
                [wkb.encode_point(*pts[i]) for i in row_idx], pa.binary()),
            "length_m": pa.array(np.zeros(n)),
            "area_m2": pa.array(np.zeros(n))}).cast(_FEATURE_ARROW)

    # normalize BOTH union sides to arrow blocks: the feature side is
    # pandas-block (map_groups output) and a mixed-block union breaks
    # the groupby sort's block builder
    tagged = (features.filter(
        expr="kind == 'sidewalk' or kind == 'protoblock' or kind == 'tile'")
        .map_batches(lambda t: t.select(SW.FEATURE_COLUMNS)
                     .cast(_FEATURE_ARROW),
                     batch_format="pyarrow")
        .union(poi_ds.map_batches(poi_rows, batch_format="pyarrow")))

    def poi_group(g: pd.DataFrame) -> pd.DataFrame | pa.Table:
        cell = int(g["h3_cell"].iloc[0])
        frame = project.frame_for_cell(cell)
        sws = g[g["kind"] == "sidewalk"]
        if sws.empty:
            return _FEATURE_ARROW.empty_table()
        pg = g[g["kind"] == "poi"]
        loc = (project.coords_to_local(
            wkb.decode_points(pg["geometry_wkb"].tolist()), frame)
            if len(pg) else np.empty((0, 2)))
        # POIs per protoblock (PIP against this cell's owned rings)
        pb_pts: dict[int, np.ndarray] = {}
        if len(loc):
            for _, pb in g[g["kind"] == "protoblock"].iterrows():
                coords, ro, po, _ = wkb.decode_polygons([pb["geometry_wkb"]])
                ring = project.coords_to_local(coords[ro[0]:ro[1]], frame)
                inside = core.points_in_ring(loc[:, 0], loc[:, 1], ring)
                if inside.any():
                    pb_pts[int(pb["feature_id"])] = loc[inside]
        tiles = g[g["kind"] == "tile"]
        tile_pb = dict(zip(tiles["feature_id"].astype(np.int64),
                           tiles["parent_id"].astype(np.int64)))
        rows: list = []
        for _, r in sws.iterrows():
            coords, offs, _ = wkb.decode_lines([r["geometry_wkb"]])
            arc = project.coords_to_local(coords, frame)
            pts = pb_pts.get(int(tile_pb.get(int(r["parent_id"]), -1)),
                             np.empty((0, 2)))
            pieces = (split_arc_by_pois(arc, pts)
                      if len(pts) > minimum_pois else [arc])
            _emit_pieces(rows, cell, frame, int(r["feature_id"]), pieces)
        if not rows:
            return _FEATURE_ARROW.empty_table()
        return pd.DataFrame(rows)[SW.FEATURE_COLUMNS]

    return tagged.groupby("h3_cell").map_groups(poi_group,
                                                batch_format="pandas")


def merge_small_stretches(features, cfg: PipelineConfig = DEFAULT_CONFIG,
                          kind: str = "sidewalk_piece"):
    """G7: per cell, stretches shorter than ``min_stretch_size`` are
    merged into a touching neighbor (shared endpoint within
    ``duplicate_points_tol``) via union-find; output rows carry the
    merged length and the concatenated geometry of each component."""
    sw = features.filter(expr=f"kind == '{kind}'")

    def grp(g: pd.DataFrame) -> pd.DataFrame:
        cell = int(g["h3_cell"].iloc[0])
        frame = project.frame_for_cell(cell)
        arcs = []
        for b in g["geometry_wkb"]:
            coords, offs, _ = wkb.decode_lines([b])
            arcs.append(project.coords_to_local(coords, frame))
        lens = np.array([core.line_lengths(a, np.array([0, len(a)]))[0]
                         for a in arcs])
        n = len(arcs)
        tol = cfg.duplicate_points_tol
        # endpoint adjacency
        ends = np.array([[a[0], a[-1]] for a in arcs])  # (n, 2, 2)
        parentu = list(range(n))

        def find(x):
            while parentu[x] != x:
                parentu[x] = parentu[parentu[x]]
                x = parentu[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parentu[rb] = ra

        flat = ends.reshape(-1, 2)
        for i in range(n):
            if lens[i] >= cfg.min_stretch_size:
                continue
            # merge the short stretch into any touching neighbor
            d = np.linalg.norm(flat[None, :, :] - ends[i][:, None, :],
                               axis=2)
            js = np.unique(np.nonzero(d <= tol)[1] // 2)
            for j in js:
                if j != i:
                    union(i, int(j))
        comp: dict[int, list[int]] = {}
        for i in range(n):
            comp.setdefault(find(i), []).append(i)
        rows = []
        fids = g["feature_id"].to_numpy()
        for ci, members in sorted(comp.items()):
            total = float(lens[members].sum())
            if len(members) == 1:
                geom = wkb.encode_line(
                    project.coords_to_lonlat(arcs[members[0]], frame))
            else:
                # mergeLines fidelity (osm_sidewalkreator.py:3940-4068):
                # when the component's arcs chain end-to-end the merge
                # emits ONE LineString; only genuinely branching
                # components fall back to a MultiLineString
                chained = _chain_arcs([arcs[m] for m in members], tol)
                if chained is not None:
                    geom = wkb.encode_line(
                        project.coords_to_lonlat(chained, frame))
                else:
                    coords = np.concatenate([arcs[m] for m in members])
                    offs = np.concatenate(
                        ([0], np.cumsum([len(arcs[m]) for m in members])))
                    geom = _multiline(coords, offs, frame)
            rows.append({
                "kind": "sidewalk_merged", "h3_cell": cell,
                "feature_id": SW._stable_id(cell, "swm", int(fids[ci])),
                "parent_id": np.int64(fids[ci]),
                "geometry_wkb": geom,
                "length_m": round(total, 3), "area_m2": 0.0})
        return pd.DataFrame(rows)[SW.FEATURE_COLUMNS]

    return sw.groupby("h3_cell").map_groups(grp, batch_format="pandas")


def _chain_arcs(arcs: list, tol: float):
    """Order arcs into one open path by matching endpoints within
    ``tol`` (flipping as needed). Returns the concatenated coords
    (shared endpoints deduplicated) or None when the component
    branches / is disconnected — i.e. cannot form a single chain."""
    pending = list(range(1, len(arcs)))
    chain = [np.asarray(arcs[0])]
    progressed = True
    while pending and progressed:
        progressed = False
        head, tail = chain[0][0], chain[-1][-1]
        for k, j in enumerate(pending):
            a = np.asarray(arcs[j])
            if np.linalg.norm(a[0] - tail) <= tol:
                chain.append(a)
            elif np.linalg.norm(a[-1] - tail) <= tol:
                chain.append(a[::-1])
            elif np.linalg.norm(a[-1] - head) <= tol:
                chain.insert(0, a)
            elif np.linalg.norm(a[0] - head) <= tol:
                chain.insert(0, a[::-1])
            else:
                continue
            pending.pop(k)
            progressed = True
            break
    if pending:
        return None
    return np.concatenate([chain[0]] + [c[1:] for c in chain[1:]])


def _multiline(coords_local, offs, frame) -> bytes:
    """MultiLineString WKB from ragged local coords."""
    import struct
    ll = project.coords_to_lonlat(coords_local, frame)
    parts = wkb.encode_lines(ll, offs)
    return (b"\x01\x05\x00\x00\x00" + struct.pack("<I", len(parts))
            + b"".join(parts))
