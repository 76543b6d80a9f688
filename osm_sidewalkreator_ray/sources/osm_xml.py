"""OSM source: the OSM-XML parser (S3).

At scale the input is Parquet; the Overpass fetch/retry loop (S1/S2)
is subsumed by Ray task retries (SURVEY.md §2.1).

S3 replaces the reference's GDAL-OGR OSM driver + HSTORE flattening
(osm_fetch.py:203-305) with a stdlib ``xml.etree`` parser exposed as a
stateful actor-pool stage: raw ``.osm`` XML bytes in, flat street rows
(way_id, highway, width, sidewalk, footway, tags-json, geometry_wkb)
out. The hot OSM keys are promoted to top-level columns exactly like
the reference's flattening; the long tail stays in a JSON ``tags``
column (the map<string,string> of SURVEY.md §1.3).
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geom import wkb

HOT_KEYS = ("highway", "width", "sidewalk", "sidewalk:left",
            "sidewalk:right", "sidewalk:both", "footway")


def parse_osm_xml(xml_bytes: bytes, layer: str = "lines") -> pa.Table:
    """One .osm document -> rows of one GDAL-style layer (the
    reference selects the OGR OSM driver layer by geometry type,
    osm_fetch.py:203-305):

    - ``lines``: ways with a highway tag -> street rows
    - ``multipolygons``: closed building ways AND type=multipolygon
      relations (assembled outer/inner rings from member ways —
      buildings are often relations, reference buildings fetch
      osm_sidewalkreator.py:2800-2898)
    - ``points``: tagged nodes (addr:housenumber etc.)
    """
    root = ET.fromstring(xml_bytes)
    nodes: dict[str, tuple[float, float]] = {}
    node_tags: dict[str, dict] = {}
    for nd in root.iter("node"):
        nid = nd.get("id")
        nodes[nid] = (float(nd.get("lon")), float(nd.get("lat")))
        tags = {t.get("k"): t.get("v") for t in nd.findall("tag")}
        if tags:
            node_tags[nid] = tags
    if layer == "points":
        rows = {"node_id": [], "housenumber": [], "tags": [],
                "geometry_wkb": []}
        for nid, tags in node_tags.items():
            rows["node_id"].append(int(nid))
            rows["housenumber"].append(tags.get("addr:housenumber"))
            rows["tags"].append(json.dumps(dict(sorted(tags.items())),
                                           sort_keys=True))
            rows["geometry_wkb"].append(wkb.encode_point(*nodes[nid]))
        return pa.table({
            "node_id": pa.array(rows["node_id"], pa.int64()),
            "housenumber": pa.array(rows["housenumber"], pa.string()),
            "tags": pa.array(rows["tags"], pa.string()),
            "geometry_wkb": pa.array(rows["geometry_wkb"], pa.binary())})

    way_coords: dict[str, list] = {}
    way_tags: dict[str, dict] = {}
    for way in root.iter("way"):
        wid = way.get("id")
        way_coords[wid] = [nodes[nd.get("ref")] for nd in way.findall("nd")
                           if nd.get("ref") in nodes]
        way_tags[wid] = {t.get("k"): t.get("v") for t in way.findall("tag")}

    if layer == "lines":
        rows = {"way_id": [], "highway": [], "width": [], "sidewalk": [],
                "sidewalk_left": [], "sidewalk_right": [],
                "sidewalk_both": [], "footway": [], "tags": [],
                "geometry_wkb": []}
        for wid, tags in way_tags.items():
            if "highway" not in tags:
                continue
            coords = way_coords[wid]
            if len(coords) < 2:
                continue
            rows["way_id"].append(int(wid))
            rows["highway"].append(tags.get("highway"))
            rows["width"].append(tags.get("width"))
            rows["sidewalk"].append(tags.get("sidewalk"))
            rows["sidewalk_left"].append(tags.get("sidewalk:left"))
            rows["sidewalk_right"].append(tags.get("sidewalk:right"))
            rows["sidewalk_both"].append(tags.get("sidewalk:both"))
            rows["footway"].append(tags.get("footway"))
            rows["tags"].append(json.dumps(
                {k: v for k, v in sorted(tags.items())
                 if k not in HOT_KEYS},
                sort_keys=True))
            rows["geometry_wkb"].append(
                wkb.encode_line(np.asarray(coords, dtype=np.float64)))
        return pa.table(rows)

    if layer != "multipolygons":
        raise ValueError(f"unknown layer {layer!r}")

    rows = {"building_id": [], "building": [], "housenumber": [],
            "tags": [], "geometry_wkb": []}

    def emit(fid: int, tags: dict, rings: list):
        rows["building_id"].append(fid)
        rows["building"].append(tags.get("building"))
        rows["housenumber"].append(tags.get("addr:housenumber"))
        rows["tags"].append(json.dumps(
            {k: v for k, v in sorted(tags.items())
             if k not in ("building", "addr:housenumber")},
            sort_keys=True))
        rows["geometry_wkb"].append(wkb.encode_polygon(
            [np.asarray(r, dtype=np.float64) for r in rings]))

    # closed ways carrying an area tag
    for wid, tags in way_tags.items():
        coords = way_coords[wid]
        if ("building" in tags and len(coords) >= 4
                and coords[0] == coords[-1]):
            emit(int(wid), tags, [coords])

    # type=multipolygon relations: assemble member ways into rings by
    # chaining shared endpoints (roles outer/inner)
    for rel in root.iter("relation"):
        tags = {t.get("k"): t.get("v") for t in rel.findall("tag")}
        if tags.get("type") != "multipolygon" or "building" not in tags:
            continue
        by_role: dict[str, list[list]] = {"outer": [], "inner": []}
        for m in rel.findall("member"):
            if m.get("type") != "way":
                continue
            coords = way_coords.get(m.get("ref"))
            if not coords or len(coords) < 2:
                continue
            by_role.setdefault(m.get("role") or "outer", []).append(
                list(coords))
        outers = _assemble_rings(by_role.get("outer", []))
        inners = _assemble_rings(by_role.get("inner", []))
        if not outers:
            continue
        if len(outers) == 1:
            emit(int(rel.get("id")), tags, outers + inners)
        else:
            # multiple outer rings = a true MULTIPOLYGON (e.g. a
            # multi-building complex). The engine's polygon WKB is
            # single-polygon (ring 0 = shell, rest = holes), so emit
            # one row per outer ring — mirroring the GDAL driver's
            # per-part geometry — assigning each inner ring to the
            # outer that contains its first vertex. Relation parts get
            # a NEGATIVE id space (-(rid<<12 | part)-1) so they can
            # never collide with a plain closed-way building id.
            from ..geom import core as _core
            rid = int(rel.get("id"))
            for pi, outer in enumerate(outers):
                ring_np = np.asarray(outer, dtype=np.float64)
                mine = [inn for inn in inners
                        if _core.points_in_ring(
                            np.asarray([inn[0][0]]),
                            np.asarray([inn[0][1]]), ring_np)[0]]
                emit(-((rid << 12) | (pi & 0xFFF)) - 1, tags,
                     [outer] + mine)

    return pa.table({
        "building_id": pa.array(rows["building_id"], pa.int64()),
        "building": pa.array(rows["building"], pa.string()),
        "housenumber": pa.array(rows["housenumber"], pa.string()),
        "tags": pa.array(rows["tags"], pa.string()),
        "geometry_wkb": pa.array(rows["geometry_wkb"], pa.binary())})


def _assemble_rings(ways: list[list]) -> list[list]:
    """Chain open member ways into closed rings by matching endpoints
    (the GDAL OSM driver's multipolygon assembly)."""
    pending = [list(w) for w in ways if len(w) >= 2]
    rings = []
    while pending:
        ring = pending.pop(0)
        progressed = True
        while ring[0] != ring[-1] and progressed:
            progressed = False
            for k, w in enumerate(pending):
                if w[0] == ring[-1]:
                    ring.extend(w[1:])
                elif w[-1] == ring[-1]:
                    ring.extend(reversed(w[:-1]))
                elif w[-1] == ring[0]:
                    ring[0:0] = w[:-1]
                elif w[0] == ring[0]:
                    ring[0:0] = list(reversed(w[1:]))
                else:
                    continue
                pending.pop(k)
                progressed = True
                break
        if ring[0] == ring[-1] and len(ring) >= 4:
            rings.append(ring)
    return rings


class OsmXmlParser:
    """Actor-pool stage (T1): map_batches over rows with an
    ``osm_xml: binary`` column; emits flat rows of one layer
    (lines / multipolygons / points). The ET parser has no per-actor
    state to build, but the class form keeps the stage shape identical
    to the reference's parser stage (S3)."""

    def __init__(self, layer: str = "lines"):
        self.layer = layer

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        tables = [parse_osm_xml(x, self.layer) for x in batch["osm_xml"]]
        if not tables:
            return parse_osm_xml(b"<osm></osm>", self.layer).to_pandas()
        return pa.concat_tables(tables).to_pandas()


def build_pois(buildings: pa.Table | None = None,
               points: pa.Table | None = None) -> pa.Table:
    """G6b POI table: building centroids merged with addr:housenumber
    nodes (reference osm_sidewalkreator.py:2908-2931). Returns
    (poi_id, housenumber, geometry_wkb point)."""
    ids, house, geoms = [], [], []
    if buildings is not None and buildings.num_rows:
        coords, ro, po, part = wkb.decode_polygons(
            buildings["geometry_wkb"].to_pylist())
        bid = buildings["building_id"].to_pylist()
        hn = buildings["housenumber"].to_pylist()
        for j in range(len(po) - 1):
            shell = coords[ro[po[j]]:ro[po[j] + 1]]
            # polygon (shoelace) centroid of the shell ring
            x0, y0 = shell[:-1, 0], shell[:-1, 1]
            x1, y1 = shell[1:, 0], shell[1:, 1]
            cross = x0 * y1 - x1 * y0
            a = cross.sum() / 2.0
            if abs(a) < 1e-12:
                cx, cy = shell[:-1].mean(axis=0)
            else:
                cx = ((x0 + x1) * cross).sum() / (6.0 * a)
                cy = ((y0 + y1) * cross).sum() / (6.0 * a)
            i = part[j]
            ids.append(int(bid[i]))
            house.append(hn[i])
            geoms.append(wkb.encode_point(float(cx), float(cy)))
    if points is not None and points.num_rows:
        mask = [h is not None for h in points["housenumber"].to_pylist()]
        sel = points.filter(pa.array(mask))
        ids.extend(int(v) for v in sel["node_id"].to_pylist())
        house.extend(sel["housenumber"].to_pylist())
        geoms.extend(sel["geometry_wkb"].to_pylist())
    return pa.table({
        "poi_id": pa.array(ids, pa.int64()),
        "housenumber": pa.array(house, pa.string()),
        "geometry_wkb": pa.array(geoms, pa.binary())})
