"""M5 width shrink, J1/A7 coverage, J5 spacing, G6 splitting, G7 merge,
S1/S3 OSM sources, S4/S5 GeoJSON."""

import json

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.geom import core, wkb
from osm_sidewalkreator_ray.pipelines import enrich as EN
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.pipelines import splitting as SP
from osm_sidewalkreator_ray.sources import geojson as GJ
from osm_sidewalkreator_ray.sources import osm_xml as OX
from osm_sidewalkreator_ray.sources import synthetic as SYN
import spatial_references as SR


def test_osm_xml_parser():
    xml = b"""<osm>
      <node id="1" lat="0.0" lon="0.0"/><node id="2" lat="0.0" lon="0.001"/>
      <node id="3" lat="0.001" lon="0.001"/>
      <way id="10"><nd ref="1"/><nd ref="2"/>
        <tag k="highway" v="residential"/><tag k="width" v="7"/>
        <tag k="name" v="Rua A"/></way>
      <way id="11"><nd ref="2"/><nd ref="3"/>
        <tag k="building" v="yes"/></way>
    </osm>"""
    t = OX.parse_osm_xml(xml)
    assert t.num_rows == 1  # building way skipped
    row = t.to_pylist()[0]
    assert row["way_id"] == 10 and row["highway"] == "residential"
    assert row["width"] == "7"
    assert json.loads(row["tags"]) == {"name": "Rua A"}
    coords, offs, _ = wkb.decode_lines([row["geometry_wkb"]])
    assert len(coords) == 2


def test_geojson_roundtrip(tmp_path):
    df = pd.DataFrame({
        "feature_id": [1, 2],
        "geometry_wkb": [wkb.encode_point(1.0, 2.0),
                         wkb.encode_line(np.array([[0, 0], [1, 1]]))]})
    p1 = str(tmp_path / "a.geojson")
    GJ.write_geojson(df, p1)
    gj = json.load(open(p1))
    assert gj["type"] == "FeatureCollection" and len(gj["features"]) == 2
    assert gj["features"][0]["geometry"]["type"] == "Point"
    p2 = str(tmp_path / "merged.geojson")
    GJ.merge_geojsons([p1, p1], p2)
    assert len(json.load(open(p2))["features"]) == 4


def test_split_by_max_len():
    arc = np.array([[0.0, 0.0], [100.0, 0.0]])
    pieces = SP.split_arc_by_max_len(arc, 30.0)
    assert len(pieces) == 4
    total = sum(core.line_lengths(p, np.array([0, len(p)]))[0]
                for p in pieces)
    assert total == pytest.approx(100.0)


def test_split_at_corners():
    arc = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [20.0, 10.0]])
    pieces = SP.split_arc_at_corners(arc)
    assert len(pieces) == 3  # two 90-degree corners


def test_split_by_pois():
    arc = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    pois = np.array([[5.0, 5.0], [25.0, 5.0]])
    pieces = SP.split_arc_by_pois(arc, pois)
    assert len(pieces) == 2


class _UdfRecorder:
    """Stands in for a Dataset: keeps the UDFs ``split_sidewalks``
    hands to ``map_batches`` / ``map_groups`` so they can run
    in-process."""

    def __init__(self):
        self.udfs = []

    def filter(self, **_):
        return self

    def union(self, _):
        return self

    def groupby(self, _):
        return self

    def map_batches(self, fn, **_):
        self.udfs.append(fn)
        return self

    map_groups = map_batches


def test_split_udfs_emit_typed_empty_blocks():
    """A batch or group with no sidewalk pieces comes back as the
    empty feature table. Ray Data sizes every output block in the
    worker; an empty pandas frame with object columns makes that log
    "Error calculating size for column ...", so each empty output is
    sized here with a handler on the ``ray.data`` logger (it does not
    propagate, so ``caplog`` cannot see it)."""
    import logging

    from ray.data.block import BlockAccessor

    from osm_sidewalkreator_ray import cells

    cfg = PipelineConfig()
    by_length = _UdfRecorder()
    SP.split_sidewalks(by_length, cfg, method="length")
    by_poi = _UdfRecorder()
    SP.split_sidewalks(by_poi, cfg, method="poi", pois=by_poi)
    split_batch, poi_group = by_length.udfs[-1], by_poi.udfs[-1]
    cell = int(cells.latlng_to_cell(SYN.ORIGIN_LAT, SYN.ORIGIN_LON,
                                    cfg.cell_res))
    no_rows = pd.DataFrame({c: [] for c in SW.FEATURE_COLUMNS})
    # a cell whose group holds a POI but no sidewalk
    no_sidewalk = pd.DataFrame({
        "kind": ["poi"], "h3_cell": [cell], "feature_id": [7],
        "parent_id": [-1],
        "geometry_wkb": [wkb.encode_point(SYN.ORIGIN_LON,
                                          SYN.ORIGIN_LAT)],
        "length_m": [0.0], "area_m2": [0.0]})
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        outs = [split_batch(no_rows), poi_group(no_sidewalk)]
        for out in outs:
            BlockAccessor.for_block(out).size_bytes()
    finally:
        logger.removeHandler(handler)
    assert not [r for r in records
                if "Error calculating size" in r.getMessage()]
    for out in outs:
        acc = BlockAccessor.for_block(out)
        assert acc.num_rows() == 0
        assert acc.to_arrow().schema == SP._FEATURE_ARROW
        assert acc.to_arrow().column_names == SW.FEATURE_COLUMNS


@pytest.mark.usefixtures("ray_session")
class TestEnrichPipelines:
    @pytest.fixture(scope="class")
    def cfg(self):
        return PipelineConfig()

    @pytest.fixture(scope="class")
    def features(self, cfg):
        streets = rd.from_arrow(SYN.streets_grid(n=3, m=3, spacing_m=120.0))
        return SW.build_features(streets, cfg).materialize()

    def test_width_shrink(self, cfg):
        streets = rd.from_arrow(SYN.streets_grid(n=3, m=3, spacing_m=120.0))
        buildings = rd.from_arrow(SYN.buildings_grid(n=3, m=3,
                                                     spacing_m=120.0))
        out = EN.shrink_widths_near_buildings(streets, buildings,
                                              cfg).to_pandas()
        assert len(out) > 0
        assert (out["adjusted_width_m"] <= out["width_m"] + 1e-9).all()
        assert (out["adjusted_width_m"] >= cfg.minimal_buffer - 1e-9).all()
        # the inset-1m buildings must shrink at least one street
        assert (out["adjusted_width_m"] < out["width_m"] - 1e-9).any()

    def test_coverage_filter(self, features, cfg):
        # synthesize 'existing sidewalks' densely covering one block
        frame_rows = []
        import pyarrow as pa
        ring = [(10.0, 10.0), (110.0, 10.0), (110.0, 110.0), (10.0, 110.0)]
        lines = []
        for k in range(40):
            y = 10 + k * 2.5
            lon0, lat0 = SYN._m_to_lonlat(np.array([12.0]), np.array([y]))
            lon1, lat1 = SYN._m_to_lonlat(np.array([108.0]), np.array([y]))
            lines.append(wkb.encode_line(np.array(
                [[lon0[0], lat0[0]], [lon1[0], lat1[0]]])))
        ex = pa.table({"sw_id": pa.array(np.arange(len(lines)),
                                         pa.int64()),
                       "geometry_wkb": pa.array(lines, pa.binary())})
        out = EN.protoblock_coverage(features, rd.from_arrow(ex),
                                     cfg).to_pandas()
        assert len(out) == 9
        assert out["covered"].sum() >= 1
        assert (out.loc[out["covered"], "sidewalks_ratio"]
                > cfg.cutoff_percent_protoblock).all()

    def test_crossing_spacing(self, features, cfg):
        out = EN.crossing_spacing(features, cfg).to_pandas()
        assert len(out) > 0
        valid = out[out["nearest_centerpoint"] >= 0]
        assert (valid["nearest_centerpoint"] <= cfg.knn_max_dist).all()

    def test_split_and_merge(self, features, cfg):
        pieces = SP.split_sidewalks(features, cfg, method="length",
                                    max_len=30.0).materialize()
        pdf = pieces.to_pandas()
        assert (pdf["length_m"] <= 30.0 + 1e-6).all()
        total_before = features.to_pandas().query(
            "kind == 'sidewalk'")["length_m"].sum()
        assert pdf["length_m"].sum() == pytest.approx(total_before, rel=1e-3)
        merged = SP.merge_small_stretches(pieces, cfg).to_pandas()
        assert len(merged) <= len(pdf)
        assert merged["length_m"].sum() == pytest.approx(total_before,
                                                         rel=1e-3)

    def test_merge_chainable_component_is_single_linestring(self, cfg):
        """G7 mergeLines fidelity (osm_sidewalkreator.py:3940-4068): a
        component whose arcs chain end-to-end merges into ONE
        LineString, not a MultiLineString."""
        import struct
        from osm_sidewalkreator_ray import cells
        from osm_sidewalkreator_ray.geom import project
        cell = int(cells.latlng_to_cell(SYN.ORIGIN_LAT, SYN.ORIGIN_LON,
                                        cfg.cell_res))
        frame = project.frame_for_cell(cell)
        # three collinear 5 m segments sharing endpoints (< 7 m each)
        rows = []
        for i in range(3):
            seg = np.array([[i * 5.0, 0.0], [(i + 1) * 5.0, 0.0]])
            rows.append({
                "kind": "sidewalk_piece", "h3_cell": cell,
                "feature_id": i + 1, "parent_id": 0,
                "geometry_wkb": wkb.encode_line(
                    project.coords_to_lonlat(seg, frame)),
                "length_m": 5.0, "area_m2": 0.0})
        pieces = rd.from_pandas(pd.DataFrame(rows))
        merged = SP.merge_small_stretches(pieces, cfg).to_pandas()
        assert len(merged) == 1
        geom = merged.iloc[0]["geometry_wkb"]
        wkb_type = struct.unpack_from("<I", geom, 1)[0]
        assert wkb_type == 2  # LineString, not MultiLineString (5)
        assert merged.iloc[0]["length_m"] == pytest.approx(15.0, rel=1e-3)

    def test_chain_arcs_branching_returns_none(self):
        """A T-junction component cannot chain -> stays multi-part."""
        a = np.array([[0.0, 0.0], [5.0, 0.0]])
        b = np.array([[5.0, 0.0], [10.0, 0.0]])
        c = np.array([[5.0, 0.0], [5.0, 5.0]])
        assert SP._chain_arcs([a, b, c], tol=0.1) is None
        chained = SP._chain_arcs([b[::-1], a], tol=0.1)
        assert chained is not None and len(chained) == 3
        assert np.allclose(chained[0], [0, 0]) or \
            np.allclose(chained[-1], [0, 0])

    def test_split_by_poi_pipeline(self, features, cfg):
        pois = SR.building_pois(SYN.buildings_grid(n=3, m=3,
                                                    spacing_m=120.0))
        pieces = SP.split_sidewalks(features, cfg, method="poi",
                                    pois=pois.to_pandas()).to_pandas()
        assert len(pieces) >= len(
            features.to_pandas().query("kind == 'sidewalk'"))


@pytest.mark.usefixtures("ray_session")
def test_width_shrink_multilinestring_street():
    """Regression (round-2 advice): MultiLineString streets flatten
    into several decoded lines; width/adjusted arrays must be indexed
    via the part mapping, with min across a street's parts."""
    import struct
    from osm_sidewalkreator_ray.sources.synthetic import (
        STREET_SCHEMA, _m_to_lonlat)
    import pyarrow as pa

    def ml_wkb(parts):
        body = b"".join(wkb.encode_line(p) for p in parts)
        return struct.pack("<BII", 1, 5, len(parts)) + body

    def line_m(a, b):
        lon, lat = _m_to_lonlat(np.array([a[0], b[0]], dtype=float),
                                np.array([a[1], b[1]], dtype=float))
        return np.column_stack((lon, lat))

    # street 1: a MultiLineString with one part far from the building
    # and one part adjacent to it; street 2: plain far-away line
    streets = pa.table({
        "way_id": [1, 2],
        "highway": ["residential", "residential"],
        "width": [None, None], "sidewalk": [None, None],
        "sidewalk_left": [None, None], "sidewalk_right": [None, None],
        "sidewalk_both": [None, None],
        "footway": [None, None],
        "geometry_wkb": [
            ml_wkb([line_m((500.0, 0.0), (560.0, 0.0)),
                    line_m((0.0, 0.0), (60.0, 0.0))]),
            wkb.encode_line(line_m((500.0, 300.0), (560.0, 300.0)))],
    }, schema=STREET_SCHEMA)
    # building hugging street 1's SECOND part
    bx = np.array([10.0, 50.0, 50.0, 10.0, 10.0])
    by = np.array([2.0, 2.0, 6.0, 6.0, 2.0])
    blon, blat = _m_to_lonlat(bx, by)
    bld = pa.table({
        "building_id": pa.array([1], pa.int64()),
        "geometry_wkb": [wkb.encode_polygon([np.column_stack((blon, blat))])],
    })
    cfg = PipelineConfig()
    out = EN.shrink_widths_near_buildings(
        rd.from_arrow(streets), rd.from_arrow(bld), cfg).to_pandas()
    out = out.groupby("way_id").agg(
        w=("width_m", "min"), adj=("adjusted_width_m", "min"))
    # street 1 must be shrunk (its 2nd part touches the building);
    # street 2 untouched
    assert out.loc[1, "adj"] < out.loc[1, "w"]
    assert out.loc[2, "adj"] == out.loc[2, "w"]


@pytest.mark.usefixtures("ray_session")
def test_assign_widths_whitespace_tag():
    """Regression (round-2 advice): a width tag like ' 7 ' must not
    abort the Arrow cast — trim then cast."""
    import pyarrow as pa
    tbl = SR.streets_unit_square()
    tbl = tbl.set_column(tbl.schema.get_field_index("width"), "width",
                         pa.array([" 7 ", "8.5", "junk", None]))
    out = SW.assign_widths(rd.from_arrow(tbl),
                           PipelineConfig()).to_pandas()
    got = dict(zip(out["way_id"], out["width_m"]))
    assert got[1] == 7.0 and got[2] == 8.5
    assert got[3] == got[4]  # junk -> class default, same as None
