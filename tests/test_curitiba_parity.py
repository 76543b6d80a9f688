"""E2E parity on the reference's own fixtures (SURVEY.md §5):

- ``assets/test_data/osm_roads_sample_bbox.geojson`` — the synthetic
  Curitiba street sample the reference's preloaded full-bbox test uses
  (test_full_bbox_preloaded.py:36-80)
- ``test/data/curitiba_sample.osm`` — a real Overpass extract; the
  reference's tag-flattening fixture (test_osm_fetch.py:22-30)

Assertions mirror the reference's own (structural: non-empty sidewalks,
kerbs consistent with crossings, count/validity — the reference has no
golden byte comparison either, SURVEY.md §5).
"""

import os

import numpy as np
import pytest
import pyarrow as pa
import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.geom import wkb
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.sources.osm_xml import parse_osm_xml

GEOJSON = "/root/reference/assets/test_data/osm_roads_sample_bbox.geojson"
OSM = "/root/reference/test/data/curitiba_sample.osm"
# the fixtures live in a reference checkout that a host may not have;
# each test is gated on exactly the files it reads
needs_geojson = pytest.mark.skipif(not os.path.exists(GEOJSON),
                                   reason=f"{GEOJSON} not present")
needs_osm = pytest.mark.skipif(not os.path.exists(OSM),
                               reason=f"{OSM} not present")


from osm_sidewalkreator_ray.sources.geojson import \
    read_streets_geojson as _streets_from_geojson  # noqa: E402


@needs_geojson
@pytest.mark.usefixtures("ray_session")
class TestCuritibaSample:
    @pytest.fixture(scope="class")
    def features(self):
        streets = rd.from_arrow(_streets_from_geojson(GEOJSON))
        return SW.build_features(streets,
                                 PipelineConfig(dead_end_iterations=0)
                                 ).to_pandas()

    def test_sidewalks_exist(self, features):
        # reference asserts the run produces sidewalks
        # (test_full_bbox_preloaded.py:70s)
        assert len(features[features["kind"] == "tile"]) > 0
        assert len(features[features["kind"] == "sidewalk"]) > 0

    def test_protoblocks_from_grid(self, features):
        # the sample is a 4x3-intersection street grid -> interior blocks
        pbs = features[features["kind"] == "protoblock"]
        assert len(pbs) >= 4
        assert (pbs["area_m2"] > 0).all()

    def test_kerbs_consistent_with_crossings(self, features):
        # reference invariant: kerbs exist iff crossings exist, 2 per
        # crossing (kerb regeneration G8, osm_sidewalkreator.py:3592)
        ncr = len(features[features["kind"] == "crossing"])
        nkb = len(features[features["kind"] == "kerb"])
        assert nkb == 2 * ncr

    @needs_osm
    def test_count_parity_band_both_crossing_modes(self):
        """Recorded count band for G5 on the reference's own fixtures
        (VERDICT r2 #6). The reference itself cannot run here (QGIS is
        not in the container), so the band pins THIS engine's counts
        at the round-3 HEAD for both crossing modes — any constant
        drift in the GUI port (min-angle pick, doubling ray-cast,
        re-center iterations, kerb fraction) moves these counts and
        fails loud. Structural invariants (kerbs = 2x crossings,
        non-empty sidewalks) mirror the reference's own preloaded-bbox
        assertions (test_full_bbox_preloaded.py:36-80)."""
        from osm_sidewalkreator_ray.sources.osm_xml import parse_osm_xml
        BAND = {
            # (fixture, mode) -> {kind: (lo, hi)}; +-20% on crossing
            # counts (raster/noding jitter), exact on graph-side counts
            ("bbox", "headless"): {"protoblock": (6, 6), "tile": (6, 6),
                                   "crossing": (11, 17)},
            ("bbox", "gui"): {"protoblock": (6, 6), "tile": (6, 6),
                              "crossing": (11, 17)},
            ("osm", "headless"): {"protoblock": (22, 22),
                                  "tile": (18, 18),
                                  "crossing": (30, 44)},
            ("osm", "gui"): {"protoblock": (22, 22), "tile": (18, 18),
                             "crossing": (18, 26)},
        }
        inputs = {
            "bbox": (_streets_from_geojson(GEOJSON),
                     {"dead_end_iterations": 0}),
            "osm": (parse_osm_xml(open(OSM, "rb").read()), {}),
        }
        for (fix, mode), band in BAND.items():
            tbl, kw = inputs[fix]
            cfg = PipelineConfig(crossing_mode=mode, **kw)
            f = SW.build_features(rd.from_arrow(tbl), cfg).to_pandas()
            counts = f["kind"].value_counts().to_dict()
            for kind, (lo, hi) in band.items():
                got = counts.get(kind, 0)
                assert lo <= got <= hi, \
                    f"{fix}/{mode}/{kind}: {got} outside [{lo}, {hi}]"
            # the reference's structural invariants
            assert counts.get("kerb", 0) == 2 * counts.get("crossing", 0)
            assert counts.get("sidewalk", 0) > 0

    def test_geometries_within_sample_bbox(self, features):
        # extent -49.3050,-25.5185,-49.3020,-25.5156 (+ buffer widths)
        tiles = features[features["kind"] == "tile"]
        for b in tiles["geometry_wkb"]:
            coords, ro, po, _ = wkb.decode_polygons([b])
            assert coords[:, 0].min() > -49.306 and coords[:, 0].max() < -49.301
            assert coords[:, 1].min() > -25.520 and coords[:, 1].max() < -25.514


@needs_osm
@pytest.mark.usefixtures("ray_session")
class TestCuritibaOsmExtract:
    def test_parse_real_overpass_extract(self):
        t = parse_osm_xml(open(OSM, "rb").read())
        assert t.num_rows > 20  # dozens of highway ways in the sample
        highs = set(t["highway"].to_pylist())
        assert "residential" in highs or "secondary" in highs
        # every geometry decodes and has >= 2 points
        coords, offs, part = wkb.decode_lines(t["geometry_wkb"].to_pylist())
        assert (np.diff(offs) >= 2).all()

    def test_full_pipeline_on_real_extract(self):
        t = parse_osm_xml(open(OSM, "rb").read())
        feats = SW.build_features(rd.from_arrow(t),
                                  PipelineConfig()).to_pandas()
        # a real city block structure: protoblocks and sidewalk tiles
        assert len(feats[feats["kind"] == "protoblock"]) >= 5
        assert len(feats[feats["kind"] == "tile"]) >= 3
        ncr = len(feats[feats["kind"] == "crossing"])
        assert len(feats[feats["kind"] == "kerb"]) == 2 * ncr


@needs_geojson
@pytest.mark.usefixtures("ray_session")
class TestGuiCrossings:
    """G5 GUI fidelity (draw_crossings) on the reference's own
    Curitiba fixture — mirrors the structural assertions of
    test_full_bbox_preloaded.py:36-80 and pins the GUI semantics
    (kerbs at 30%, A-B-C-D-E collinear, length caps) that differ from
    the headless clone."""

    @pytest.fixture(scope="class")
    def both(self):
        import dataclasses
        streets = rd.from_arrow(_streets_from_geojson(GEOJSON))
        cfg_h = PipelineConfig(dead_end_iterations=0)
        cfg_g = dataclasses.replace(cfg_h, crossing_mode="gui")
        fh = SW.build_features(rd.from_arrow(_streets_from_geojson(GEOJSON)),
                               cfg_h).to_pandas()
        fg = SW.build_features(streets, cfg_g).to_pandas()
        return fh, fg

    def test_gui_crossings_exist_and_consistent(self, both):
        _, fg = both
        ncr = len(fg[fg["kind"] == "crossing"])
        nkb = len(fg[fg["kind"] == "kerb"])
        assert ncr > 0
        assert nkb == 2 * ncr

    def test_gui_count_comparable_to_headless(self, both):
        # the two modes pick direction/centering differently but must
        # agree on the order of magnitude on the same street grid
        fh, fg = both
        nh = len(fh[fh["kind"] == "crossing"])
        ng = len(fg[fg["kind"] == "crossing"])
        assert nh > 0 and ng > 0
        assert 0.2 * nh <= ng <= 5 * nh

    def test_gui_crossing_geometry_invariants(self, both):
        _, fg = both
        crs = fg[fg["kind"] == "crossing"]
        for b in crs["geometry_wkb"]:
            coords, offs, _ = wkb.decode_lines([b])
            assert len(coords) == 5  # A-B-C-D-E
            A, B, C, D, E = coords
            # kerbs at 30% along A->C and E->C (GUI perc_draw_kerbs)
            assert np.allclose(B, A + (C - A) * 0.30, atol=1e-6)
            assert np.allclose(D, E + (C - E) * 0.30, atol=1e-6)
        assert (crs["length_m"] <= 100.0).all()  # abs_max_crossing_len


@pytest.mark.usefixtures("ray_session")
class TestOsmLayers:
    """S3 relation/multipolygon + points layers and the POI pipeline
    (reference osm_fetch.py:203-305 GDAL layers; POI merge
    osm_sidewalkreator.py:2908-2931)."""

    def test_multipolygon_relation_assembly(self):
        xml = b"""<osm>
          <node id="1" lat="0.0" lon="0.0"/><node id="2" lat="0.0" lon="0.001"/>
          <node id="3" lat="0.001" lon="0.001"/><node id="4" lat="0.001" lon="0.0"/>
          <node id="5" lat="0.0003" lon="0.0003"/><node id="6" lat="0.0003" lon="0.0006"/>
          <node id="7" lat="0.0006" lon="0.0006"/><node id="8" lat="0.0006" lon="0.0003"/>
          <way id="10"><nd ref="1"/><nd ref="2"/><nd ref="3"/></way>
          <way id="11"><nd ref="3"/><nd ref="4"/><nd ref="1"/></way>
          <way id="12"><nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/></way>
          <relation id="100">
            <member type="way" ref="10" role="outer"/>
            <member type="way" ref="11" role="outer"/>
            <member type="way" ref="12" role="inner"/>
            <tag k="type" v="multipolygon"/><tag k="building" v="yes"/>
          </relation>
        </osm>"""
        from osm_sidewalkreator_ray.sources.osm_xml import parse_osm_xml
        t = parse_osm_xml(xml, layer="multipolygons")
        assert t.num_rows == 1
        assert t["building_id"][0].as_py() == 100
        coords, ro, po, _ = wkb.decode_polygons([t["geometry_wkb"][0].as_py()])
        assert po[1] - po[0] == 2  # shell + hole
        shell = coords[ro[0]:ro[1]]
        assert np.allclose(shell[0], shell[-1])  # closed

    @needs_osm
    def test_curitiba_buildings_and_pois(self):
        from osm_sidewalkreator_ray.sources.osm_xml import (build_pois,
                                                            parse_osm_xml)
        raw = open(OSM, "rb").read()
        bld = parse_osm_xml(raw, layer="multipolygons")
        assert bld.num_rows >= 5  # building ways in the sample
        pts = parse_osm_xml(raw, layer="points")
        assert pts.num_rows > 100  # hundreds of addr nodes
        pois = build_pois(bld, pts)
        # centroids + housenumber nodes
        assert pois.num_rows > bld.num_rows
        xy = wkb.decode_points(pois["geometry_wkb"].to_pylist())
        assert (xy[:, 0] > -49.4).all() and (xy[:, 0] < -49.2).all()

    @needs_osm
    def test_width_shrink_on_parsed_buildings(self):
        """M5 runs on real parsed building footprints, not synthetic."""
        from osm_sidewalkreator_ray.pipelines import enrich as EN
        from osm_sidewalkreator_ray.sources.osm_xml import parse_osm_xml
        raw = open(OSM, "rb").read()
        streets = parse_osm_xml(raw, layer="lines")
        bld = parse_osm_xml(raw, layer="multipolygons")
        out = EN.shrink_widths_near_buildings(
            rd.from_arrow(streets), rd.from_arrow(bld),
            PipelineConfig()).to_pandas()
        assert len(out) > 0
        assert (out["adjusted_width_m"] <= out["width_m"]).all()

    def test_poi_voronoi_gate(self):
        """G6b minimum_pois=4 gate: protoblocks with <=4 POIs keep
        whole arcs; >4 POIs split them."""
        from osm_sidewalkreator_ray.pipelines import splitting as SP
        from osm_sidewalkreator_ray.sources import synthetic as SYN
        import pyarrow as pa
        streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=200.0))
        features = SW.build_features(streets, PipelineConfig()).materialize()
        pbs = features.filter(expr="kind == 'protoblock'").to_pandas()
        assert len(pbs) > 0
        # plant 6 POIs inside the first protoblock
        coords, ro, po, _ = wkb.decode_polygons(
            [pbs.iloc[0]["geometry_wkb"]])
        ring = coords[ro[0]:ro[1]]
        c = ring[:-1].mean(axis=0)
        verts = ring[:-1][np.arange(6) % (len(ring) - 1)]
        jitter = (np.arange(6)[:, None] + 1) / 8.0
        pts = c + (verts - c) * 0.25 * jitter  # 6 distinct interior pts
        pois = pa.table({
            "poi_id": pa.array(np.arange(6), pa.int64()),
            "housenumber": pa.array(["1"] * 6, pa.string()),
            "geometry_wkb": pa.array(
                [wkb.encode_point(float(x), float(y)) for x, y in pts],
                pa.binary())})
        split = SP.split_sidewalks(features, PipelineConfig(),
                                   method="poi", pois=pois.to_pandas(),
                                   minimum_pois=4).to_pandas()
        unsplit = SP.split_sidewalks(features, PipelineConfig(),
                                     method="poi", pois=pois.to_pandas(),
                                     minimum_pois=99).to_pandas()
        assert len(split) > len(unsplit)  # gate passed -> more pieces
        # with the high gate nothing splits: one piece per arc
        assert len(unsplit) == features.filter(
            expr="kind == 'sidewalk'").count()


def _fallback_buildings_osm() -> bytes:
    """Deterministic little extract with a closed building way, a
    2-outer multipolygon relation, and tagged addr nodes — needs no
    reference checkout."""
    return b"""<osm>
<node id="1" lat="0.0000" lon="0.0000"/><node id="2" lat="0.0000" lon="0.0010"/>
<node id="3" lat="0.0010" lon="0.0010"/><node id="4" lat="0.0010" lon="0.0000"/>
<node id="11" lat="0.0020" lon="0.0000"/><node id="12" lat="0.0020" lon="0.0010"/>
<node id="13" lat="0.0030" lon="0.0010"/><node id="14" lat="0.0030" lon="0.0000"/>
<node id="21" lat="0.0040" lon="0.0000"/><node id="22" lat="0.0040" lon="0.0010"/>
<node id="23" lat="0.0050" lon="0.0010"/><node id="24" lat="0.0050" lon="0.0000"/>
<node id="31" lat="0.0005" lon="0.0005">
  <tag k="addr:housenumber" v="12"/></node>
<node id="32" lat="0.0025" lon="0.0005">
  <tag k="addr:housenumber" v="34"/></node>
<way id="100"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/>
  <nd ref="1"/><tag k="building" v="yes"/>
  <tag k="addr:housenumber" v="7"/></way>
<way id="101"><nd ref="11"/><nd ref="12"/><nd ref="13"/><nd ref="14"/>
  <nd ref="11"/></way>
<way id="102"><nd ref="21"/><nd ref="22"/><nd ref="23"/><nd ref="24"/>
  <nd ref="21"/></way>
<relation id="200"><tag k="type" v="multipolygon"/>
  <tag k="building" v="yes"/>
  <member type="way" ref="101" role="outer"/>
  <member type="way" ref="102" role="outer"/></relation>
</osm>"""


@pytest.mark.usefixtures("ray_session")
class TestMultiOuterRelations:
    def test_two_outer_rings_become_two_buildings(self):
        t = parse_osm_xml(_fallback_buildings_osm(),
                          layer="multipolygons").to_pandas()
        # 1 closed way + 2 parts of the 2-outer relation
        assert len(t) == 3
        # relation parts live in a disjoint NEGATIVE id space
        # (-(rid<<12 | part)-1) so they can never collide with way ids
        rel_parts = t[t["building_id"] < 0]
        assert len(rel_parts) == 2
        assert set(rel_parts["building_id"]) == {-(200 << 12) - 1,
                                                 -((200 << 12) | 1) - 1}
        # each part decodes as a simple polygon (shell only, no
        # phantom hole made from the sibling outer)
        from osm_sidewalkreator_ray.geom import wkb
        for b in rel_parts["geometry_wkb"]:
            coords, ring_offs, poly_offs, _ = wkb.decode_polygons([b])
            assert len(ring_offs) - 1 == 1  # exactly one ring

    def test_fallback_pois_pipeline(self):
        from osm_sidewalkreator_ray.sources.osm_xml import build_pois
        bld = parse_osm_xml(_fallback_buildings_osm(), layer="multipolygons")
        pts = parse_osm_xml(_fallback_buildings_osm(), layer="points")
        pois = build_pois(bld, pts).to_pandas()
        assert len(pois) >= 3  # way centroid + addr nodes
