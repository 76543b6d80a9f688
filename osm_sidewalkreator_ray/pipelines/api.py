"""User-facing pipeline API — the reference's Processing-algorithm
surface (SURVEY.md §2.11) re-expressed over Ray Datasets:

- ``generate_protoblocks``            <- generateprotoblocksfromosm /
                                         generateprotoblocksfrombbox
  (protoblock_algorithm.py:114, protoblock_bbox_algorithm.py:117)
- ``full_sidewalkreator_from_polygon`` <- fullsidewalkreatorfrompolygon
  (full_sidewalkreator_polygon_algorithm.py:149)
- ``full_sidewalkreator_from_bbox``    <- osm_sidewalkreator_full_bbox
  (full_sidewalkreator_bbox_algorithm.py:2124)

Inputs are street/building Datasets in the engine schema (a user of
the reference would feed the same OSM extract, parsed by
``sources.osm_xml.OsmXmlParser``); the AOI polygon (M1 clip) ships as
one broadcast WKB. Outputs are a dict of Datasets keyed by feature
kind. J4 (drop sidewalks disjoint from protoblocks) holds by
construction here: tiles are carved from protoblock faces, so every
sidewalk belongs to a protoblock.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..geom import clip as gclip
from ..geom import wkb
from . import sidewalks as SW


def clip_streets(streets, aoi_wkb: bytes,
                 cfg: PipelineConfig = DEFAULT_CONFIG):
    """M1: exact clip of street polylines to the AOI polygon; the AOI
    ships once via ray.put and is decoded once per task.

    Scan-stage shape: the whole batch is decoded once and triaged with
    one vectorized point-in-polygon + segment×edge sweep
    (``geom.clip.classify_parts``); fully-inside parts pass through,
    fully-outside parts drop, and only the boundary-crossing minority
    runs the exact per-part clip loop.
    """
    ref = ray.put(aoi_wkb)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return batch
        coords, ro, po, _ = wkb.decode_polygons([ray.get(ref)])
        lo, hi = int(po[0]), int(po[1])
        lcoords, offs, part_of = wkb.decode_lines(
            batch["geometry_wkb"].tolist())
        all_in, any_in, crosses = gclip.classify_parts(
            lcoords, offs, coords, ro, lo, hi)
        keep_whole = all_in & ~crosses
        drop = ~any_in & ~crosses
        rows_idx: list[int] = []
        wkbs: list[bytes] = []
        for p in range(len(offs) - 1):
            if drop[p]:
                continue
            part = lcoords[offs[p]:offs[p + 1]]
            if keep_whole[p]:
                rows_idx.append(int(part_of[p]))
                wkbs.append(wkb.encode_line(part))
                continue
            for piece in gclip.clip_polyline(part, coords, ro, lo, hi):
                rows_idx.append(int(part_of[p]))
                wkbs.append(wkb.encode_line(piece))
        if not rows_idx:
            return batch.iloc[0:0].copy()
        out = batch.iloc[np.asarray(rows_idx)].copy()
        out["geometry_wkb"] = wkbs
        return out.reset_index(drop=True)

    return streets.map_batches(f, batch_format="pandas")


def bbox_polygon_wkb(min_lon: float, min_lat: float, max_lon: float,
                     max_lat: float) -> bytes:
    ring = np.array([[min_lon, min_lat], [max_lon, min_lat],
                     [max_lon, max_lat], [min_lon, max_lat],
                     [min_lon, min_lat]])
    return wkb.encode_polygon([ring])


def generate_protoblocks(streets, aoi_wkb: bytes | None = None,
                         cfg: PipelineConfig = DEFAULT_CONFIG):
    """Protoblocks-only pipeline: (clip ->) width/class filter -> cell
    graph -> polygonized faces. Returns the protoblock Dataset."""
    if aoi_wkb is not None:
        streets = clip_streets(streets, aoi_wkb, cfg)
    features = SW.build_features(streets, cfg)
    return features.filter(expr="kind == 'protoblock'")


def full_sidewalkreator_from_polygon(streets, aoi_wkb: bytes,
                                     buildings=None,
                                     cfg: PipelineConfig = DEFAULT_CONFIG
                                     ) -> dict:
    """The full pipeline: clip -> (building width shrink) -> sidewalk
    tiles/lines -> crossings/kerbs -> per-kind Datasets."""
    streets = clip_streets(streets, aoi_wkb, cfg)
    if buildings is not None:
        from .enrich import shrink_widths_near_buildings
        adj = shrink_widths_near_buildings(streets, buildings,
                                           cfg).to_pandas()
        if len(adj):
            # shrink output has one row per (street, covering cell):
            # reduce deterministically (min across cells) before
            # building the map, so border streets get a stable width
            agg = adj.groupby("way_id")["adjusted_width_m"].min()
            shrink = {int(k): float(v) for k, v in agg.items()}
            ref = ray.put(shrink)

            def apply_shrink(batch: pd.DataFrame) -> pd.DataFrame:
                m = ray.get(ref)
                batch = batch.copy()
                batch["width"] = [
                    str(m.get(int(w), None)) if int(w) in m else orig
                    for w, orig in zip(batch["way_id"], batch["width"])]
                return batch

            streets = streets.map_batches(apply_shrink,
                                          batch_format="pandas")
    features = SW.build_features(streets, cfg).materialize()
    return {kind: features.filter(expr=f"kind == '{kind}'")
            for kind in ("protoblock", "tile", "sidewalk", "crossing",
                         "kerb", "sure_zone", "metrics")}


def full_sidewalkreator_from_bbox(streets, min_lon, min_lat, max_lon,
                                  max_lat, buildings=None,
                                  cfg: PipelineConfig = DEFAULT_CONFIG
                                  ) -> dict:
    return full_sidewalkreator_from_polygon(
        streets, bbox_polygon_wkb(min_lon, min_lat, max_lon, max_lat),
        buildings=buildings, cfg=cfg)


def write_outputs(outputs: dict, out_dir: str) -> dict[str, int]:
    """S4/S6 sink: one partitioned parquet directory per kind
    (resumable layout — partition per cell prefix)."""
    counts = {}
    for kind, ds in outputs.items():
        path = f"{out_dir}/{kind}"
        ds.write_parquet(path)
        counts[kind] = ds.count()
    return counts
