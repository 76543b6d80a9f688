"""Geospatial queries for the driver contract (rows-only checks).

These are not SQL-expressible (planar polygonization, distance-field
buffering, PIP/kNN joins), so the driver records rows-only checks.
Each callable derives a deterministic synthetic fixture from the
``sf_dir`` scale (sources/synthetic.py) — same sf, same bytes — and
runs the real Ray pipeline.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..config import DEFAULT_CONFIG
from ..sources import synthetic as SYN
from ..stages.html_text import HtmlExtractor
from . import page_join as PJ
from . import sidewalks as SW


def _features_df(sf_dir: str) -> pd.DataFrame:
    streets = rd.from_arrow(SYN.grid_for_sf(sf_dir))
    return SW.build_features(streets, DEFAULT_CONFIG).to_pandas()


def _kind_summary(df: pd.DataFrame, kind: str) -> pd.DataFrame:
    sel = df[df["kind"] == kind].copy()
    cols = ["h3_cell", "feature_id", "parent_id", "length_m", "area_m2"]
    # M11 ratio attributes (present on build_features output)
    ratio_cols = [c for c in ("norm_ratio", "simple_ratio") if c in sel]
    out = sel[cols + ratio_cols].copy()
    out["length_m"] = out["length_m"].round(2)
    out["area_m2"] = out["area_m2"].round(2)
    for c in ratio_cols:
        out[c] = out[c].round(4)
    return out.sort_values(["h3_cell", "feature_id"]).reset_index(drop=True)


def sidewalk_features_query(sf_dir: str) -> pd.DataFrame:
    """Protoblocks (G1) + sidewalk tiles (M6-M10) + sure zones (M12
    positive half, incl. the sidewalk:left/right/both key form) in ONE
    export — one ``build_features`` run, tagged by ``kind`` (the
    driver caps the checked-query count, so the three per-kind views
    of the same build are folded together)."""
    df = _features_df(sf_dir)
    frames = []
    for kind in ("protoblock", "tile", "sure_zone"):
        s = _kind_summary(df, kind)
        s.insert(0, "kind", kind)
        frames.append(s)
    return pd.concat(frames, ignore_index=True)


def crossings_kerbs_query(sf_dir: str) -> pd.DataFrame:
    """G5 both modes in one export: the headless clone
    (full_sidewalkreator_bbox_algorithm.py:515-936) AND GUI fidelity
    (draw_crossings osm_sidewalkreator.py:1186: min-angle direction
    pick, doubling ray-cast, 20-iter re-centering, kerbs at 30%),
    tagged by ``mode``."""
    import dataclasses
    frames = []
    for mode in ("headless", "gui"):
        cfg = dataclasses.replace(DEFAULT_CONFIG, crossing_mode=mode)
        streets = rd.from_arrow(SYN.grid_for_sf(sf_dir))
        df = SW.build_features(streets, cfg).to_pandas()
        for kind in ("crossing", "kerb"):
            s = _kind_summary(df, kind)
            s.insert(0, "mode", mode)
            s.insert(1, "kind", kind)
            frames.append(s)
    return pd.concat(frames, ignore_index=True)


def page_text_extract_query(sf_dir: str) -> pd.DataFrame:
    """Byte-identity invariant through the Ray actor-pool path: one row
    per url with the match flag vs the corpus reference text column."""
    pages = SYN.pages_dataset_for_sf(sf_dir)
    out = pages.map_batches(HtmlExtractor, batch_format="pandas",
                            batch_size=DEFAULT_CONFIG.batch_size_html,
                            concurrency=(1, 2))

    def compare(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": batch["url"],
            "n_chars": batch["extracted_text"].str.len().astype("int64"),
            "byte_identical": [a == b for a, b in
                               zip(batch["extracted_text"], batch["text"])]})

    df = out.map_batches(compare, batch_format="pandas").to_pandas()
    return df.sort_values("url").reset_index(drop=True)


def page_geotags_query(sf_dir: str) -> pd.DataFrame:
    pages = SYN.pages_dataset_for_sf(sf_dir)
    tags = PJ.extract_geotags(pages, DEFAULT_CONFIG).to_pandas()
    tags["lat"] = tags["lat"].round(6)
    tags["lon"] = tags["lon"].round(6)
    return tags.sort_values(["url", "lat", "lon"]).reset_index(drop=True)


def page_tile_join_query(sf_dir: str) -> pd.DataFrame:
    # the driver compares row values, so this query opts into the
    # collecting variant; the flagship DEFAULT is the streaming Dataset
    return PJ.flagship_entry(sf_dir, collect="sorted_df")


def width_shrink_query(sf_dir: str) -> pd.DataFrame:
    """M5 building-overlap width shrink over the sf-scaled grid."""
    from . import enrich as EN
    n = _grid_n(sf_dir)
    streets = rd.from_arrow(SYN.streets_grid(n=n, m=n))
    buildings = rd.from_arrow(SYN.buildings_grid(n=n, m=n))
    out = EN.shrink_widths_near_buildings(streets, buildings,
                                          DEFAULT_CONFIG).to_pandas()
    out["width_m"] = out["width_m"].round(3)
    out["adjusted_width_m"] = out["adjusted_width_m"].round(3)
    return out.sort_values(["h3_cell", "way_id"]).reset_index(drop=True)


def protoblock_coverage_query(sf_dir: str) -> pd.DataFrame:
    """J1 incidence join + A7 coverage-ratio filter: existing footway
    rows of the grid fixture vs generated protoblocks."""
    from . import enrich as EN
    import pyarrow.compute as pc
    n = _grid_n(sf_dir)
    tbl = SYN.streets_grid(n=n, m=n)
    streets = rd.from_arrow(tbl)
    features = SW.build_features(streets, DEFAULT_CONFIG).materialize()
    existing = rd.from_arrow(
        tbl.filter(pc.equal(pc.coalesce(tbl["highway"], ""), "footway")))
    out = EN.protoblock_coverage(features, existing,
                                 DEFAULT_CONFIG).to_pandas()
    return out.sort_values(["h3_cell", "protoblock_id"]).reset_index(drop=True)


def crossing_spacing_query(sf_dir: str) -> pd.DataFrame:
    """J5 crossing-center kNN spacing attribute."""
    from . import enrich as EN
    out = EN.crossing_spacing(
        SW.build_features(rd.from_arrow(SYN.grid_for_sf(sf_dir)),
                          DEFAULT_CONFIG),
        DEFAULT_CONFIG).to_pandas()
    return out.sort_values(["h3_cell", "crossing_id"]).reset_index(drop=True)


def sidewalk_split_query(sf_dir: str) -> pd.DataFrame:
    """G6c length splitting + G7 small-stretch merge."""
    from . import splitting as SP
    features = SW.build_features(rd.from_arrow(SYN.grid_for_sf(sf_dir)),
                                 DEFAULT_CONFIG)
    pieces = SP.split_sidewalks(features, DEFAULT_CONFIG, method="length",
                                max_len=50.0).materialize()
    merged = SP.merge_small_stretches(pieces, DEFAULT_CONFIG).to_pandas()
    out = merged[["h3_cell", "feature_id", "parent_id", "length_m"]].copy()
    out["length_m"] = out["length_m"].round(2)
    return out.sort_values(["h3_cell", "feature_id"]).reset_index(drop=True)


def osm_xml_parse_query(sf_dir: str) -> pd.DataFrame:
    """S3 OSM-XML parser through the Ray stage: the grid fixture is
    serialized to .osm XML, parsed back, and summarized."""
    from ..sources.osm_xml import OsmXmlParser
    n = _grid_n(sf_dir)
    tbl = SYN.streets_grid(n=n, m=n)
    # serialize fixture -> OSM XML (deterministic)
    from ..geom import wkb as _wkb
    parts = ["<osm>"]
    nid = {}
    for i, b in enumerate(tbl["geometry_wkb"].to_pylist()):
        coords, offs, _ = _wkb.decode_lines([b])
        for x, y in coords:
            key = (round(x, 7), round(y, 7))
            if key not in nid:
                nid[key] = len(nid) + 1
                parts.append(
                    f'<node id="{nid[key]}" lat="{y:.7f}" lon="{x:.7f}"/>')
    rows = tbl.to_pylist()
    for r in rows:
        coords, offs, _ = _wkb.decode_lines([r["geometry_wkb"]])
        parts.append(f'<way id="{r["way_id"]}">')
        for x, y in coords:
            parts.append(f'<nd ref="{nid[(round(x,7), round(y,7))]}"/>')
        parts.append(f'<tag k="highway" v="{r["highway"]}"/>')
        if r["width"]:
            parts.append(f'<tag k="width" v="{r["width"]}"/>')
        parts.append("</way>")
    parts.append("</osm>")
    xml = "".join(parts).encode()
    ds = rd.from_items([{"osm_xml": xml}])
    out = ds.map_batches(OsmXmlParser, batch_format="pandas",
                         concurrency=(1, 2)).to_pandas()
    out = out[["way_id", "highway", "width"]].fillna({"width": ""})
    lines = out.sort_values("way_id").reset_index(drop=True)
    # fold in the multipolygons/points layers + POI builder (S3/G6b) —
    # one export per parser, tagged by layer (driver query-count cap)
    pois = osm_buildings_pois_query(sf_dir)
    combined = pd.concat([
        pd.DataFrame({"layer": "lines", "id": lines["way_id"],
                      "attr": lines["highway"],
                      "attr2": lines["width"].astype(str),
                      "lon": np.nan, "lat": np.nan}),
        pd.DataFrame({"layer": "pois", "id": pois["poi_id"],
                      "attr": pois["housenumber"], "attr2": "",
                      "lon": pois["lon"], "lat": pois["lat"]}),
    ], ignore_index=True)
    return combined


_CURITIBA_OSM = "/root/reference/test/data/curitiba_sample.osm"


def osm_buildings_pois_query(sf_dir: str) -> pd.DataFrame:
    """S3 multipolygons/points layers + the G6b POI builder, through
    the Ray parser stage (building relations assembled; centroids +
    addr nodes merged) over the reference's own Curitiba extract;
    raises FileNotFoundError when that extract is missing."""
    import os
    from ..sources.osm_xml import OsmXmlParser, build_pois
    from ..geom import wkb as _wkb
    import pyarrow as pa
    if not os.path.exists(_CURITIBA_OSM):
        raise FileNotFoundError(
            f"osm_buildings_pois_query needs the reference Curitiba "
            f"extract at {_CURITIBA_OSM}")
    with open(_CURITIBA_OSM, "rb") as fh:
        raw = fh.read()
    ds = rd.from_items([{"osm_xml": raw}])
    bld = pa.Table.from_pandas(
        ds.map_batches(OsmXmlParser, fn_constructor_args=("multipolygons",),
                       batch_format="pandas", concurrency=(1, 2)).to_pandas())
    pts = pa.Table.from_pandas(
        ds.map_batches(OsmXmlParser, fn_constructor_args=("points",),
                       batch_format="pandas", concurrency=(1, 2)).to_pandas())
    pois = build_pois(bld, pts).to_pandas()
    xy = _wkb.decode_points(pois["geometry_wkb"].tolist())
    out = pd.DataFrame({
        "poi_id": pois["poi_id"].astype("int64"),
        "housenumber": pois["housenumber"],
        "lon": np.round(xy[:, 0], 7), "lat": np.round(xy[:, 1], 7)})
    return out.sort_values(["poi_id", "lon"]).reset_index(drop=True)


def ivf_topk_query(sf_dir: str) -> pd.DataFrame:
    from . import vectors as V
    return V.ivf_topk(sf_dir)


def media_features_query(sf_dir: str) -> pd.DataFrame:
    """Multimodal decode stage (stubbed codecs, real Ray plumbing)."""
    from ..stages.multimodal import media_features
    n = max(100, int(20_000 * SYN.sf_from_dir(sf_dir)))
    return media_features(n=n)


def intersections_voronoi_query(sf_dir: str) -> pd.DataFrame:
    """G9: per-cell Voronoi of street intersection points (validation
    aid, osm_sidewalkreator.py:836-845) — raster tessellation."""
    from ..geom import polygonize as pg, project, voronoi, wkb
    streets = rd.from_arrow(SYN.grid_for_sf(sf_dir))
    ds = SW.encode_cells(SW.assign_widths(streets, DEFAULT_CONFIG),
                         DEFAULT_CONFIG)

    def grp(g: pd.DataFrame) -> pd.DataFrame:
        cell = int(g["h3_cell"].iloc[0])
        frame = project.frame_for_cell(cell)
        coords, offs, _ = wkb.decode_lines(g["geometry_wkb"].tolist())
        loc = project.coords_to_local(coords, frame)
        s0, s1, _li = pg.explode_segments(loc, offs)
        pts = pg.intersection_points(s0, s1)
        empty = pd.DataFrame({"h3_cell": pd.Series([], dtype="int64"),
                              "site": pd.Series([], dtype="int64"),
                              "area_m2": pd.Series([], dtype="float64")})
        if len(pts) < 2:
            return empty
        pad = 50.0
        cells_v = voronoi.voronoi_polygons(
            pts, (loc[:, 0].min() - pad, loc[:, 1].min() - pad,
                  loc[:, 0].max() + pad, loc[:, 1].max() + pad), res=2.0)
        if not cells_v:
            return empty
        return pd.DataFrame({
            "h3_cell": np.full(len(cells_v), cell, dtype=np.int64),
            "site": np.array([s for s, _r, _a in cells_v], dtype=np.int64),
            "area_m2": np.round([a for _s, _r, a in cells_v], 1)})

    out = ds.groupby("h3_cell").map_groups(grp, batch_format="pandas")
    return (out.to_pandas().sort_values(["h3_cell", "site"])
            .reset_index(drop=True))


def _grid_n(sf_dir: str) -> int:
    import numpy as np
    return max(3, int(round(3 * np.sqrt(SYN.sf_from_dir(sf_dir) / 0.001))))
