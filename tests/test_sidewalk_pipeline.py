"""End-to-end sidewalk pipeline on the reference-mirroring fixtures."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.sources import synthetic as SYN
from osm_sidewalkreator_ray.geom import wkb
import spatial_references as SR


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig(dead_end_iterations=3)


@pytest.mark.usefixtures("ray_session")
class TestUnitSquare:
    """Reference fixture semantics (test_processing_algorithms.py:128-133):
    the 4-segment square loop yields exactly 1 protoblock, 1 sidewalk
    ring, 0 crossings (all nodes are degree 2)."""

    @pytest.fixture(scope="class")
    def features(self, cfg):
        streets = rd.from_arrow(SR.streets_unit_square(side_m=120.0))
        return SW.build_features(streets, cfg).to_pandas()

    def test_one_protoblock(self, features):
        pbs = features[features["kind"] == "protoblock"]
        assert len(pbs) == 1
        # ~120m x ~120m block
        assert abs(pbs["area_m2"].iloc[0] - 120 * 120) < 500

    def test_one_tile_inset(self, features):
        tiles = features[features["kind"] == "tile"]
        assert len(tiles) == 1
        # residential width 6 -> halfwidth 3 + d_to_add/2 0.5 -> inset 3.5
        expect = (120 - 7.0) ** 2
        assert abs(tiles["area_m2"].iloc[0] - expect) < 900

    def test_sidewalk_lines_exist(self, features):
        sw = features[features["kind"] == "sidewalk"]
        assert len(sw) >= 1
        assert sw["length_m"].sum() > 4 * (120 - 7.0) * 0.8

    def test_no_crossings_on_degree2(self, features):
        assert len(features[features["kind"] == "crossing"]) == 0
        assert len(features[features["kind"] == "kerb"]) == 0

    def test_metrics_row(self, features):
        m = features[features["kind"] == "metrics"]
        assert len(m) >= 1
        assert m["feature_id"].sum() == 1  # n_protoblocks across cells


@pytest.mark.usefixtures("ray_session")
class TestGrid:
    @pytest.fixture(scope="class")
    def features(self, cfg):
        streets = rd.from_arrow(SYN.streets_grid(n=3, m=3, spacing_m=120.0))
        return SW.build_features(streets, cfg).to_pandas()

    def test_protoblock_count(self, features):
        pbs = features[features["kind"] == "protoblock"]
        assert len(pbs) == 9  # 3x3 blocks

    def test_tiles_one_per_block(self, features):
        tiles = features[features["kind"] == "tile"]
        assert len(tiles) == 9
        assert (tiles["area_m2"] > 0).all()

    def test_crossings_at_interior_nodes(self, features):
        # 3x3 grid: interior nodes have degree 4 -> crossings exist
        crossings = features[features["kind"] == "crossing"]
        assert len(crossings) > 0
        kerbs = features[features["kind"] == "kerb"]
        assert len(kerbs) == 2 * len(crossings)  # G8 invariant

    def test_crossing_geometry_is_5pt(self, features):
        crossings = features[features["kind"] == "crossing"]
        coords, offs, _ = wkb.decode_lines(crossings["geometry_wkb"].tolist())
        assert all(np.diff(offs) == 5)
        # lengths bounded by abs_max_crossing_len
        assert (crossings["length_m"] <= 100.0).all()
        assert (crossings["length_m"] > 0).all()

    def test_deterministic(self, cfg):
        streets = rd.from_arrow(SYN.streets_grid(n=3, m=3, spacing_m=120.0))
        f1 = SW.build_features(streets, cfg).to_pandas()
        streets2 = rd.from_arrow(SYN.streets_grid(n=3, m=3, spacing_m=120.0))
        f2 = SW.build_features(streets2, cfg).to_pandas()
        k1 = f1.sort_values(["kind", "feature_id"]).reset_index(drop=True)
        k2 = f2.sort_values(["kind", "feature_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(k1, k2)


@pytest.mark.usefixtures("ray_session")
class TestWidthAssign:
    def test_width_semantics(self):
        import pyarrow as pa
        t = pa.table({
            "way_id": [1, 2, 3, 4, 5],
            "highway": ["residential", "secondary", "footway", "motorway",
                        "unknownclass"],
            "width": [None, "12.5", None, "junk", None],
            "sidewalk": [None] * 5,
            "footway": [None] * 5,
            "geometry_wkb": [wkb.encode_line(np.array([[0, 0], [1, 1]]))] * 5,
        })
        out = SW.assign_widths(rd.from_arrow(t)).to_pandas()
        got = dict(zip(out["way_id"], out["width_m"]))
        # footway class width 0 -> dropped (M3)
        assert 3 not in got
        assert got[1] == 6.0          # default residential
        assert got[2] == 12.5         # numeric tag wins (M4)
        assert got[4] == 22.0         # junk tag -> class default
        assert got[5] == 6.0          # unknown class -> fallback


@pytest.mark.usefixtures("ray_session")
def test_tag_zone_sides_match_reference():
    """M12 dispatch parity (osm_sidewalkreator.py:1999-2090, QGIS
    BufferSide Left=0/Right=1): sidewalk=left -> SURE left + exclusion
    RIGHT; sidewalk=right -> sure right + exclusion left; no ->
    exclusion both; yes/both -> sure both."""
    import numpy as np
    from osm_sidewalkreator_ray.pipelines.sidewalks import _tag_zones
    from osm_sidewalkreator_ray.config import PipelineConfig
    n0 = np.zeros((4, 2))
    n1 = np.tile([100.0, 0.0], (4, 1))  # all pointing +x: left is +y
    w = np.full(4, 6.0)
    tags = np.array(["left", "right", "no", "yes"], dtype=object)
    none4 = np.array([None] * 4, dtype=object)
    excl, sure = _tag_zones(n0, n1, w, tags, none4, none4, none4,
                            PipelineConfig())
    # rows are (ax, ay, bx, by, radius, side); side -1=left, +1=right
    assert len(excl) == 2 + 1  # left->1, right->1, no->1
    assert len(sure) == 2 + 1  # left->1, right->1, yes->1
    # sidewalk=left: sure LEFT (-1), exclusion RIGHT (+1)
    assert sure[0][5] == -1.0 and excl[0][5] == 1.0
    # sidewalk=right: sure RIGHT (+1), exclusion LEFT (-1)
    assert sure[1][5] == 1.0 and excl[1][5] == -1.0
    # sidewalk=no: exclusion both (0)
    assert excl[2][5] == 0.0
    # sidewalk=yes: sure both (0)
    assert sure[2][5] == 0.0


def test_tag_zone_key_dispatch():
    """M12 key form (sidewalk_generation_logic.py:493-574): the
    separate sidewalk:left/right/both KEYS dispatch like the value
    form — a street tagged ONLY sidewalk:left=yes gets a left sure
    zone + right exclusion; sidewalk:both=no excludes both sides;
    sidewalk:left=no excludes only the left."""
    import numpy as np
    from osm_sidewalkreator_ray.pipelines.sidewalks import _tag_zones
    from osm_sidewalkreator_ray.config import PipelineConfig
    n = 5
    n0 = np.zeros((n, 2))
    n1 = np.tile([100.0, 0.0], (n, 1))
    w = np.full(n, 6.0)
    none = np.array([None] * n, dtype=object)
    lt = np.array(["yes", None, "no", None, None], dtype=object)
    rt = np.array([None, "yes", None, "no", None], dtype=object)
    bt = np.array([None, None, None, None, "no"], dtype=object)
    excl, sure = _tag_zones(n0, n1, w, none, lt, rt, bt, PipelineConfig())
    # row 0: left=yes -> sure LEFT (-1) + exclusion RIGHT (+1)
    # row 1: right=yes -> sure RIGHT (+1) + exclusion LEFT (-1)
    # row 2: left=no -> exclusion LEFT only
    # row 3: right=no -> exclusion RIGHT only
    # row 4: both=no -> exclusion both sides (0)
    assert len(sure) == 2 and len(excl) == 5
    assert sure[0][5] == -1.0 and excl[0][5] == 1.0
    assert sure[1][5] == 1.0 and excl[1][5] == -1.0
    assert excl[2][5] == -1.0
    assert excl[3][5] == 1.0
    assert excl[4][5] == 0.0


@pytest.mark.usefixtures("ray_session")
def test_sidewalk_left_key_survives_end_to_end():
    """A street tagged ONLY sidewalk:left=yes (no sidewalk= value)
    produces a one-sided sure zone through the whole build — the
    round-2 parser/dispatch gap (VERDICT r2 finding #1)."""
    import ray.data as rd
    import pyarrow as pa
    from osm_sidewalkreator_ray.sources import synthetic as SYN
    from osm_sidewalkreator_ray.pipelines import sidewalks as SW
    from osm_sidewalkreator_ray.config import PipelineConfig
    tbl = SYN.streets_grid(n=3, m=3, spacing_m=150.0, tagged_frac=0.0)
    lt = tbl["sidewalk_left"].to_pylist()
    lt[0] = "yes"
    tbl = tbl.set_column(tbl.schema.get_field_index("sidewalk_left"),
                         "sidewalk_left", pa.array(lt, pa.string()))
    feats = SW.build_features(rd.from_arrow(tbl),
                              PipelineConfig()).to_pandas()
    sz = feats[feats["kind"] == "sure_zone"]
    assert len(sz) >= 1
    assert (sz["area_m2"] > 0).all()


def test_parser_emits_sidewalk_key_columns():
    """S3: sidewalk:left/right/both survive parse_osm_xml as columns
    (round 2 dropped them entirely)."""
    from osm_sidewalkreator_ray.sources.osm_xml import parse_osm_xml
    xml = (b'<osm>'
           b'<node id="1" lat="0.0" lon="0.0"/>'
           b'<node id="2" lat="0.0" lon="0.001"/>'
           b'<way id="10"><nd ref="1"/><nd ref="2"/>'
           b'<tag k="highway" v="residential"/>'
           b'<tag k="sidewalk:left" v="yes"/>'
           b'<tag k="sidewalk:right" v="no"/></way>'
           b'<way id="11"><nd ref="1"/><nd ref="2"/>'
           b'<tag k="highway" v="tertiary"/>'
           b'<tag k="sidewalk:both" v="no"/>'
           b'<tag k="surface" v="asphalt"/></way>'
           b'</osm>')
    t = parse_osm_xml(xml, "lines").to_pandas().set_index("way_id")
    assert t.loc[10, "sidewalk_left"] == "yes"
    assert t.loc[10, "sidewalk_right"] == "no"
    assert t.loc[11, "sidewalk_both"] == "no"
    # key tags are columns, NOT duplicated into the tags json
    assert "sidewalk" not in t.loc[11, "tags"]
    assert "surface" in t.loc[11, "tags"]


@pytest.mark.usefixtures("ray_session")
def test_sure_zone_features_emitted():
    """Grid fixture with tagged streets must yield sure-zone polygon
    rows (M12 positive half) with positive areas."""
    import ray.data as rd
    from osm_sidewalkreator_ray.sources import synthetic as SYN
    from osm_sidewalkreator_ray.pipelines import sidewalks as SW
    from osm_sidewalkreator_ray.config import PipelineConfig
    import pyarrow as pa
    tbl = SYN.streets_grid(n=4, m=4, spacing_m=150.0)
    # force some positive tags (the generator only plants no/left/right/both)
    sw_col = tbl["sidewalk"].to_pylist()
    sw_col[0] = "yes"
    sw_col[1] = "both"
    tbl = tbl.set_column(tbl.schema.get_field_index("sidewalk"),
                         "sidewalk", pa.array(sw_col))
    feats = SW.build_features(rd.from_arrow(tbl),
                              PipelineConfig()).to_pandas()
    sz = feats[feats["kind"] == "sure_zone"]
    assert len(sz) > 0
    assert (sz["area_m2"] > 0).all()


def test_prune_dead_ends_protected_culdesac():
    """G3 culs-de-sac variant: a dead-end inside a block survives the
    protected pass; one outside the block is removed."""
    import numpy as np
    from osm_sidewalkreator_ray.geom import polygonize as pg
    # unit-square loop (one face) + inner spur + outer spur
    sq = np.array([[0, 0], [100, 0], [100, 100], [0, 100]], float)
    n0 = [sq[0], sq[1], sq[2], sq[3],
          np.array([50.0, 0.0]), np.array([100.0, 50.0])]
    n1 = [sq[1], sq[2], sq[3], sq[0],
          np.array([50.0, 40.0]),     # inner spur (inside the face)
          np.array([160.0, 50.0])]    # outer spur (outside)
    n0 = np.array(n0); n1 = np.array(n1)
    # node the loop edges so the spur bases connect
    parent = np.arange(len(n0))
    nn0, nn1, par = pg.node_segments(n0, n1, parent, snap_tol=1e-6)
    faces = pg.polygonize_faces(nn0, nn1)
    assert len(faces) == 1
    k0, k1, kp = pg.prune_dead_ends_protected(nn0, nn1, par, faces)
    # plain prune would drop both spurs
    p0, p1, pp = pg.prune_dead_ends(nn0, nn1, par, 3)
    assert len(k0) == len(p0) + 1  # the inner spur survived
    mids = (k0 + k1) / 2
    assert any(np.allclose(m, [50.0, 20.0]) for m in mids)


def test_giant_face_coarsens_instead_of_dropping(monkeypatch):
    """A protoblock whose raster exceeds the pixel budget is retried at
    a coarser resolution (with a lineage metrics row), not silently
    dropped."""
    from osm_sidewalkreator_ray import cells
    from osm_sidewalkreator_ray.pipelines.sidewalks import (
        _pack_arrays, extract_tiles)

    cell = int(cells.latlng_to_cell(-25.45, -49.25, 14))
    side = 120.0
    face = np.array([[0, 0], [side, 0], [side, side], [0, side], [0, 0]],
                    dtype=np.float64)
    # the four boundary segments, halfwidth 3.5
    n0 = face[:-1]
    n1 = face[1:]
    segs = np.column_stack((n0, n1, np.full(4, 3.5)))
    zones = np.zeros((0, 6), dtype=np.float64)
    batch = pd.DataFrame([{
        "kind": "pbwork", "h3_cell": cell, "feature_id": np.int64(7),
        "parent_id": np.int64(-1),
        "geometry_wkb": _pack_arrays(face, segs, zones),
        "length_m": 0.0, "area_m2": 0.0}])
    cfg = PipelineConfig()

    # budget far above the ~260x260 grid: normal path, no metrics row
    out_normal = extract_tiles(batch, cfg)
    assert (out_normal["kind"] == "tile").any()
    assert not (out_normal["kind"] == "metrics").any()

    # budget below the grid: fallback path must coarsen, not drop
    monkeypatch.setattr(
        "osm_sidewalkreator_ray.pipelines.sidewalks.MAX_RASTER_PIXELS",
        10_000)
    out = extract_tiles(batch, cfg)
    m = out[out["kind"] == "metrics"]
    assert len(m) == 1
    payload = m["geometry_wkb"].iloc[0].decode()
    assert "giant_face_pb=7" in payload and "res_factor=" in payload
    tiles = out[out["kind"] == "tile"]
    assert len(tiles) >= 1  # output is non-empty despite the cap
    # coarsened area still approximates the true inset tile
    expect = (side - 7.0) ** 2
    assert abs(tiles["area_m2"].iloc[0] - expect) < 0.15 * expect


@pytest.mark.usefixtures("ray_session")
def test_m11_ratio_columns():
    """M11 (reference osm_sidewalkreator.py:2144-2190): every polygonal
    feature row carries norm_ratio = P/sqrt(A) and simple_ratio = P/A."""
    streets = rd.from_arrow(SR.streets_unit_square(side_m=120.0))
    df = SW.build_features(streets, PipelineConfig()).to_pandas()
    assert {"norm_ratio", "simple_ratio"} <= set(df.columns)
    pb = df[df["kind"] == "protoblock"].iloc[0]
    # known square: P/sqrt(A) == 4, P/A == 4/side
    assert abs(pb["norm_ratio"] - pb["length_m"] / np.sqrt(pb["area_m2"])) < 1e-12
    assert abs(pb["norm_ratio"] - 4.0) < 0.05
    assert abs(pb["simple_ratio"] - 4.0 / 120.0) < 0.002
    # zero-area rows (lines/metrics) get 0.0, never inf/nan
    zero = df[df["area_m2"] <= 0]
    assert (zero["norm_ratio"] == 0.0).all()
    assert (zero["simple_ratio"] == 0.0).all()
    assert np.isfinite(df["norm_ratio"]).all()
