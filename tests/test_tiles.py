"""Tile-pyramid rollup vs a DuckDB oracle + cell parent/child kernels."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.cells import (cell_bounds, cell_parent,
                                          cell_res, latlng_to_cell)
from osm_sidewalkreator_ray.pipelines import tiles as T
from osm_sidewalkreator_ray.pipelines.tiles import _PYR_MIN_RES, _PYR_RES
import spatial_references as SR

SF = "/root/testdata/sf0.001"

# DuckDB reference for tiles.tile_pyramid_query: the same deterministic
# points, quantized at the finest res and shifted up to every level.
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


class TestCellHierarchy:
    def test_parent_contains_child(self):
        rng = np.random.default_rng(7)
        lat = rng.uniform(-89, 89, 500)
        lon = rng.uniform(-179, 179, 500)
        child = latlng_to_cell(lat, lon, 13)
        for pr in (12, 9, 4, 0):
            par = cell_parent(child, pr)
            assert np.all(cell_res(par) == pr)
            lo_x, lo_y, hi_x, hi_y = cell_bounds(par)
            c_lo_x, c_lo_y, c_hi_x, c_hi_y = cell_bounds(child)
            assert np.all(lo_x <= c_lo_x) and np.all(c_hi_x <= hi_x)
            assert np.all(lo_y <= c_lo_y) and np.all(c_hi_y <= hi_y)
            # parent == direct quantization of the point at parent res
            np.testing.assert_array_equal(par,
                                          latlng_to_cell(lat, lon, pr))

    def test_parent_same_res_identity_and_raise(self):
        c = latlng_to_cell(10.0, 20.0, 8)
        assert cell_parent(c, 8) == c
        with pytest.raises(ValueError):
            cell_parent(c, 9)

    def test_children_roundtrip(self):
        c = int(latlng_to_cell(-23.55, -46.63, 11))
        lo_x, lo_y, hi_x, hi_y = cell_bounds(c)
        # one point in each quadrant of c quantizes to its four children
        fx = np.array([0.25, 0.75, 0.25, 0.75])
        fy = np.array([0.25, 0.25, 0.75, 0.75])
        kids = latlng_to_cell(lo_y + fy * (hi_y - lo_y),
                              lo_x + fx * (hi_x - lo_x), 12)
        assert len(np.unique(kids)) == 4
        np.testing.assert_array_equal(cell_parent(kids, 11),
                                      np.full(4, c, dtype=np.int64))


@pytest.mark.usefixtures("ray_session")
class TestTilePyramidOracle:
    def test_pyramid_matches_duckdb(self):
        got = T.tile_pyramid_query(SF)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW events AS SELECT * "
                f"FROM '{SF}/events.parquet'")
        want = con.sql(TILE_PYRAMID_SQL).df()
        assert len(got) == len(want)
        assert list(got.columns) == list(want.columns)
        for c in ("res", "cell", "ix", "iy", "n"):
            np.testing.assert_array_equal(got[c].to_numpy(np.int64),
                                          want[c].to_numpy(np.int64), c)
        for c in ("sum_v", "min_v", "max_v", "mean_v"):
            np.testing.assert_allclose(got[c], want[c], atol=1e-9,
                                       err_msg=c)
        # every level present, level sizes shrink monotonically
        per_level = got.groupby("res").size()
        assert list(per_level.index) == list(range(_PYR_MIN_RES,
                                                   _PYR_RES + 1))
        assert (per_level.diff().dropna() >= 0).all()
        # count conservation: every level sums to the row count
        n_rows = pd.read_parquet(f"{SF}/events.parquet",
                                 columns=["user_id"]).shape[0]
        assert (got.groupby("res")["n"].sum() == n_rows).all()

    def test_pyramid_no_value_col_and_empty(self):
        import ray.data as rd

        from osm_sidewalkreator_ray.pipelines.tiles import tile_pyramid
        df = pd.DataFrame({"lat": [1.0, 1.0, 50.0],
                           "lon": [2.0, 2.0, 60.0]})
        out = tile_pyramid(rd.from_pandas(df), "lat", "lon",
                           res=6, min_res=6).to_pandas()
        assert sorted(out["n"].tolist()) == [1, 2]
        empty = tile_pyramid(
            rd.from_pandas(df).filter(lambda r: False),
            "lat", "lon", res=6, min_res=5)
        assert empty.count() == 0


def _line_len(c: np.ndarray) -> float:
    return float(np.sqrt(((c[1:] - c[:-1]) ** 2).sum(axis=1)).sum())


class TestClipLinesRect:
    def test_matches_general_polygon_clipper(self):
        from osm_sidewalkreator_ray.geom.clip import (clip_lines_rect,
                                                      clip_polyline)
        rng = np.random.default_rng(11)
        box = np.array([0.2, 0.3, 0.8, 0.9])
        ring = np.array([[box[0], box[1]], [box[2], box[1]],
                         [box[2], box[3]], [box[0], box[3]],
                         [box[0], box[1]]])
        ring_offsets = np.array([0, 5])
        for _ in range(20):
            line = rng.uniform(0, 1.1, size=(6, 2))
            off = np.array([0, 6])
            pc, po, pp = clip_lines_rect(line, off, np.array([0]),
                                         box[None, :])
            got = sorted(_line_len(pc[po[i]:po[i + 1]])
                         for i in range(len(po) - 1))
            want = sorted(_line_len(p) for p in
                          clip_polyline(line, ring, ring_offsets, 0, 1))
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_outside_and_touch(self):
        from osm_sidewalkreator_ray.geom.clip import clip_lines_rect
        lc = np.array([[2.0, 2.0], [3.0, 3.0],   # fully outside
                       [1.0, 0.0], [1.0, 1.0]])  # along the x=1 edge
        off = np.array([0, 2, 4])
        boxes = np.array([[0.0, 0, 1, 1], [0.0, 0, 1, 1]])
        pc, po, pp = clip_lines_rect(lc, off, np.array([0, 1]), boxes)
        assert len(pp) == 1 and pp[0] == 1  # edge-run kept, outside not
        np.testing.assert_allclose(pc, [[1, 0], [1, 1]])


@pytest.mark.usefixtures("ray_session")
class TestVectorTiles:
    RES = 7  # ~1.4 deg tiles

    def _lines(self, n=40, seed=3):
        from osm_sidewalkreator_ray.geom.wkb import encode_line
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n):
            start = rng.uniform([-20, -20], [20, 20])
            steps = rng.uniform(-2.5, 2.5, size=(rng.integers(2, 8), 2))
            coords = np.vstack([start, start + np.cumsum(steps, axis=0)])
            rows.append({"feature_id": i, "wkb": encode_line(coords),
                         "length": _line_len(coords)})
        return pd.DataFrame(rows)

    def test_slice_conserves_length_and_containment(self):
        from osm_sidewalkreator_ray.cells import cell_bounds
        from osm_sidewalkreator_ray.geom.wkb import decode_lines
        from osm_sidewalkreator_ray.pipelines.tiles import (
            slice_lines_to_tiles)
        df = self._lines()
        out = slice_lines_to_tiles(df, "wkb", "feature_id", self.RES)
        assert out["cell"].nunique() > 10  # really spans many tiles
        coords, offs, part_of = decode_lines(out["wkb"].tolist())
        piece_len = np.array([_line_len(coords[offs[i]:offs[i + 1]])
                              for i in range(len(offs) - 1)])
        got = (pd.DataFrame({"feature_id":
                             out["feature_id"].to_numpy()[part_of],
                             "len": piece_len})
               .groupby("feature_id")["len"].sum())
        want = df.set_index("feature_id")["length"]
        np.testing.assert_allclose(got.reindex(want.index), want,
                                   rtol=1e-9)
        # every piece stays inside its tile
        lo_x, lo_y, hi_x, hi_y = cell_bounds(
            out["cell"].to_numpy()[part_of])
        for i in range(len(offs) - 1):
            seg = coords[offs[i]:offs[i + 1]]
            eps = 1e-9
            assert (seg[:, 0] >= lo_x[i] - eps).all()
            assert (seg[:, 0] <= hi_x[i] + eps).all()
            assert (seg[:, 1] >= lo_y[i] - eps).all()
            assert (seg[:, 1] <= hi_y[i] + eps).all()
        # piece_idx is 0..k-1 within each (feature, cell)
        grp = out.groupby(["feature_id", "cell"])["piece_idx"]
        assert (grp.min() == 0).all()
        assert (grp.max() + 1 == grp.count()).all()

    def test_export_and_viewport_read(self, tmp_path):
        import ray.data as rd

        from osm_sidewalkreator_ray.cells import cell_bounds
        from osm_sidewalkreator_ray.pipelines.tiles import (
            export_vector_tiles, read_vector_tiles)
        df = self._lines()
        out_dir = str(tmp_path / "vtiles")
        export_vector_tiles(rd.from_pandas(df[["feature_id", "wkb"]]),
                            out_dir, res=self.RES, dir_res=3)
        full = rd.read_parquet(out_dir).to_pandas()
        vp = (-5.0, -5.0, 5.0, 5.0)
        got = read_vector_tiles(out_dir, *vp, dir_res=3).to_pandas()
        lo_x, lo_y, hi_x, hi_y = cell_bounds(full["cell"].to_numpy())
        m = ((lo_x < vp[2]) & (hi_x > vp[0])
             & (lo_y < vp[3]) & (hi_y > vp[1]))
        want = full[m]
        assert len(got) == m.sum() > 0
        assert (set(map(tuple, got[["feature_id", "cell",
                                    "piece_idx"]].to_numpy()))
                == set(map(tuple, want[["feature_id", "cell",
                                        "piece_idx"]].to_numpy())))

    def test_viewport_missing_every_row_stays_typed(self, tmp_path):
        import glob
        import logging

        import pyarrow.parquet as pq
        import ray.data as rd
        from ray.data.block import BlockAccessor

        from osm_sidewalkreator_ray.cells import cover_bbox
        from osm_sidewalkreator_ray.pipelines.tiles import (
            cells_in_bbox, export_vector_tiles, read_vector_tiles)
        df = self._lines()
        out_dir = str(tmp_path / "vtiles")
        export_vector_tiles(rd.from_pandas(df[["feature_id", "wkb"]]),
                            out_dir, res=self.RES, dir_res=3)
        # inside a written directory cell, clear of every tile cell
        vp = (-19.9, -19.9, -19.8, -19.8)
        group = int(cover_bbox(*vp, 3)[0])
        files = sorted(glob.glob(f"{out_dir}/tile_group={group}/*.parquet"))
        assert files
        ds = read_vector_tiles(out_dir, *vp, dir_res=3)
        assert ds.count() == 0
        assert ds.schema().names == ["cell", "feature_id", "piece_idx",
                                     "wkb", "tile_group"]
        # Ray Data sizes every output block; an untyped empty pandas
        # block makes that log "Error calculating size"
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("ray.data")
        logger.addHandler(handler)
        try:
            block = pq.read_table(files[0])
            out = cells_in_bbox(block, *vp)
            BlockAccessor.for_block(out).size_bytes()
        finally:
            logger.removeHandler(handler)
        assert not [r for r in records
                    if "Error calculating size" in r.getMessage()]
        assert out.num_rows == 0 < block.num_rows
        assert out.schema == block.schema


class TestPolygonTiles:
    RES = 6  # ~2.8 deg tiles

    @staticmethod
    def _star(cx, cy, r_out, r_in, n=7, rot=0.0):
        ang = rot + np.linspace(0, 2 * np.pi, 2 * n, endpoint=False)
        rad = np.where(np.arange(2 * n) % 2 == 0, r_out, r_in)
        ring = np.column_stack((cx + rad * np.cos(ang),
                                cy + rad * np.sin(ang)))
        return np.vstack([ring, ring[:1]])

    def _polys(self, n=25, seed=9):
        from osm_sidewalkreator_ray.geom.wkb import (decode_polygons,
                                                     encode_polygon)
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n):
            cx, cy = rng.uniform(-30, 30, 2)
            shell = self._star(cx, cy, rng.uniform(2, 8),
                               rng.uniform(0.8, 1.8),
                               n=int(rng.integers(5, 9)),
                               rot=rng.uniform(0, 3))
            rings = [shell]
            if i % 3 == 0:  # add a hole
                rings.append(self._star(cx, cy, 0.5, 0.25, n=4)[::-1])
            rows.append({"feature_id": i,
                         "wkb": encode_polygon(rings)})
        df = pd.DataFrame(rows)
        c, ro, po, _ = decode_polygons(df["wkb"].tolist())
        df["area"] = SR.polygon_areas(c, ro, po)
        return df

    def test_area_conservation_and_pip_equivalence(self):
        from osm_sidewalkreator_ray.cells import cell_bounds
        from osm_sidewalkreator_ray.geom.core import points_in_polygon
        from osm_sidewalkreator_ray.geom.wkb import decode_polygons
        from osm_sidewalkreator_ray.pipelines.tiles import (
            slice_polygons_to_tiles)
        df = self._polys()
        out = slice_polygons_to_tiles(df, "wkb", "feature_id", self.RES)
        assert out["cell"].nunique() > 8
        c, ro, po, part_of = decode_polygons(out["wkb"].tolist())
        piece_area = SR.polygon_areas(c, ro, po)
        got = (pd.DataFrame({"feature_id":
                             out["feature_id"].to_numpy()[part_of],
                             "a": piece_area})
               .groupby("feature_id")["a"].sum())
        want = df.set_index("feature_id")["area"]
        np.testing.assert_allclose(got.reindex(want.index), want,
                                   rtol=1e-9)
        # random-point even-odd equivalence on the densest feature
        fid = int(out.groupby("feature_id").size().idxmax())
        rng = np.random.default_rng(1)
        oc, oro, opo, _ = decode_polygons(
            df.loc[df.feature_id == fid, "wkb"].tolist())
        span = oc.min(axis=0), oc.max(axis=0)
        pts = rng.uniform(span[0], span[1], size=(3000, 2))
        in_orig = points_in_polygon(pts[:, 0], pts[:, 1], oc, oro,
                                    int(opo[0]), int(opo[1]))
        pieces = out[out.feature_id == fid]
        in_clip = np.zeros(len(pts), dtype=bool)
        for _, row in pieces.iterrows():
            lo_x, lo_y, hi_x, hi_y = cell_bounds(np.int64(row["cell"]))
            m = ((pts[:, 0] > lo_x) & (pts[:, 0] < hi_x)
                 & (pts[:, 1] > lo_y) & (pts[:, 1] < hi_y))
            cc, cro, cpo, _ = decode_polygons([row["wkb"]])
            hit = points_in_polygon(pts[m, 0], pts[m, 1], cc, cro,
                                    int(cpo[0]), int(cpo[1]))
            in_clip[np.nonzero(m)[0][hit]] = True
        # exclude points within eps of any cell boundary (bridge lines)
        d = 180.0 / (1 << self.RES)
        fx = np.abs((pts[:, 0] + 180) / d
                    - np.round((pts[:, 0] + 180) / d))
        fy = np.abs((pts[:, 1] + 90) / d
                    - np.round((pts[:, 1] + 90) / d))
        interior = (fx > 1e-6) & (fy > 1e-6)
        np.testing.assert_array_equal(in_clip[interior],
                                      in_orig[interior])

    def test_polygon_export_roundtrip(self, tmp_path):
        import ray.data as rd

        from osm_sidewalkreator_ray.geom.wkb import decode_polygons
        from osm_sidewalkreator_ray.pipelines.tiles import (
            export_vector_tiles)
        df = self._polys(n=10, seed=4)
        out_dir = str(tmp_path / "ptiles")
        export_vector_tiles(rd.from_pandas(df[["feature_id", "wkb"]]),
                            out_dir, res=self.RES, dir_res=2,
                            geometry="polygon")
        back = rd.read_parquet(out_dir).to_pandas()
        c, ro, po, part_of = decode_polygons(back["wkb"].tolist())
        got = (pd.DataFrame({"feature_id":
                             back["feature_id"].to_numpy()[part_of],
                             "a": SR.polygon_areas(c, ro, po)})
               .groupby("feature_id")["a"].sum())
        np.testing.assert_allclose(
            got.reindex(df["feature_id"]).to_numpy(),
            df["area"].to_numpy(), rtol=1e-9)


@pytest.mark.usefixtures("ray_session")
class TestRasterTiles:
    def test_rasterize_exact_pixels_and_totals(self):
        import ray.data as rd

        from osm_sidewalkreator_ray.cells import (cell_bounds,
                                                  latlng_to_cell)
        from osm_sidewalkreator_ray.pipelines.tiles import rasterize_tiles
        res, px = 6, 16
        cell = int(latlng_to_cell(10.0, 20.0, res))
        lo_x, lo_y, hi_x, hi_y = (float(v) for v in cell_bounds(cell))
        d = (hi_x - lo_x) / px
        # 3 points in pixel (2,5), 1 point in pixel (9,12), weighted
        pts = pd.DataFrame({
            "lat": [lo_y + 5.5 * d] * 3 + [lo_y + 12.5 * d],
            "lon": [lo_x + 2.5 * d] * 3 + [lo_x + 9.5 * d],
            "w": [1.0, 2.0, 4.0, 10.0]})
        out = rasterize_tiles(rd.from_pandas(pts), "lat", "lon", res,
                              px=px, value_col="w").to_pandas()
        assert len(out) == 1 and out["cell"].iloc[0] == cell
        grid = np.frombuffer(out["grid"].iloc[0],
                             dtype="<f8").reshape(px, px)
        assert grid[5, 2] == 7.0 and grid[12, 9] == 10.0
        assert grid.sum() == 17.0 == out["n"].iloc[0]

    def test_contours_reconstruct_mask(self):
        import ray.data as rd

        from osm_sidewalkreator_ray.cells import (cell_bounds,
                                                  latlng_to_cell)
        from osm_sidewalkreator_ray.geom.core import points_in_polygon
        from osm_sidewalkreator_ray.geom.wkb import decode_polygons
        from osm_sidewalkreator_ray.pipelines.tiles import (
            density_contours, rasterize_tiles)
        res, px = 6, 20
        cell = int(latlng_to_cell(-5.0, -5.0, res))
        lo_x, lo_y, hi_x, _ = (float(v) for v in cell_bounds(cell))
        d = (hi_x - lo_x) / px
        # donut pattern: ring of pixels with a hole in the middle
        yy, xx = np.mgrid[0:px, 0:px]
        rad = np.sqrt((xx - 9.5) ** 2 + (yy - 9.5) ** 2)
        mask = (rad < 8) & (rad > 3)
        ys, xs = np.nonzero(mask)
        pts = pd.DataFrame({"lat": lo_y + (ys + 0.5) * d,
                            "lon": lo_x + (xs + 0.5) * d})
        tiles = rasterize_tiles(rd.from_pandas(pts), "lat", "lon", res,
                                px=px)
        polys = density_contours(tiles, threshold=1.0).to_pandas()
        assert len(polys) >= 1
        # area equals pixel count x pixel area
        np.testing.assert_allclose(polys["area"].sum(),
                                   mask.sum() * d * d, rtol=1e-9)
        # even-odd containment of every pixel center == mask
        cc, cro, cpo, part_of = decode_polygons(polys["wkb"].tolist())
        centers_x = lo_x + (xx.ravel() + 0.5) * d
        centers_y = lo_y + (yy.ravel() + 0.5) * d
        got = np.zeros(px * px, dtype=bool)
        for i in range(len(cpo) - 1):
            got |= points_in_polygon(centers_x, centers_y, cc, cro,
                                     int(cpo[i]), int(cpo[i + 1]))
        np.testing.assert_array_equal(got.reshape(px, px), mask)


@pytest.mark.usefixtures("ray_session")
def test_tiles_job_cli(tmp_path):
    import contextlib
    import io
    import json

    from osm_sidewalkreator_ray.geom.wkb import encode_line

    from jobs.tiles_job import main
    rng = np.random.default_rng(5)
    pts = str(tmp_path / "pts.parquet")
    pd.DataFrame({"lat": rng.uniform(-60, 60, 500),
                  "lon": rng.uniform(-120, 120, 500),
                  "v": np.ones(500)}).to_parquet(pts)
    feats = str(tmp_path / "feats.parquet")
    rows = []
    for i in range(10):
        start = rng.uniform([-20, -20], [20, 20])
        coords = np.vstack([start,
                            start + np.cumsum(rng.uniform(-2, 2, (4, 2)),
                                              axis=0)])
        rows.append({"feature_id": i, "wkb": encode_line(coords)})
    pd.DataFrame(rows).to_parquet(feats)

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(args)
        assert rc == 0
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    pyr = run(["pyramid", "--data", pts, "--out",
               str(tmp_path / "pyr"), "--res", "6", "--min-res", "4",
               "--value", "v"])
    assert pyr["rows"] > 0
    vt = run(["vector", "--data", feats, "--out",
              str(tmp_path / "vt"), "--res", "7", "--dir-res", "3"])
    assert vt["pieces"] >= 10
    view = run(["view", "--out", str(tmp_path / "vt"),
                "--bbox=-20,-20,20,20", "--dir-res", "3"])
    assert 0 < view["pieces"] <= vt["pieces"]
    rt = run(["raster", "--data", pts, "--out", str(tmp_path / "rt"),
              "--res", "4", "--px", "32"])
    assert rt["tiles"] > 0
    ct = run(["raster", "--data", pts, "--out", str(tmp_path / "ct"),
              "--res", "2", "--px", "16", "--contour-threshold", "1"])
    assert ct["polygons"] > 0


def test_cover_cap_raises():
    from osm_sidewalkreator_ray.geom.wkb import encode_line
    from osm_sidewalkreator_ray.pipelines.tiles import (
        slice_lines_to_tiles)
    # a transcontinental line at street res would cover millions of
    # cells -> explicit raise, never a silent explosion
    df = pd.DataFrame({"feature_id": [0],
                       "wkb": [encode_line(np.array([[-170.0, -80.0],
                                                     [170.0, 80.0]]))]})
    with pytest.raises(ValueError, match="covers"):
        slice_lines_to_tiles(df, "wkb", "feature_id", 13)


@pytest.mark.usefixtures("ray_session")
def test_vector_tile_simplification():
    import ray.data as rd

    from osm_sidewalkreator_ray.geom.wkb import decode_lines, encode_line
    from osm_sidewalkreator_ray.pipelines.tiles import (
        export_vector_tiles, slice_lines_to_tiles)
    # a noisy near-straight line: DP at tol collapses the jitter
    t = np.linspace(0, 8.0, 200)
    rng = np.random.default_rng(2)
    coords = np.column_stack((t,
                              1.0 + 0.001 * rng.standard_normal(200)))
    df = pd.DataFrame({"feature_id": [0], "wkb": [encode_line(coords)]})
    plain = slice_lines_to_tiles(df, "wkb", "feature_id", 6)
    simp = slice_lines_to_tiles(df, "wkb", "feature_id", 6,
                                simplify_tol=0.01)
    assert len(simp) == len(plain)  # piece structure unchanged
    pc_p, off_p, _ = decode_lines(plain["wkb"].tolist())
    pc_s, off_s, _ = decode_lines(simp["wkb"].tolist())
    assert len(pc_s) < len(pc_p) / 3
    # endpoints of every piece preserved exactly
    for i in range(len(off_s) - 1):
        np.testing.assert_array_equal(pc_s[off_s[i]], pc_p[off_p[i]])
        np.testing.assert_array_equal(pc_s[off_s[i + 1] - 1],
                                      pc_p[off_p[i + 1] - 1])
    # max deviation from the simplified chord stays within tol
    assert np.abs(pc_s[:, 1] - 1.0).max() <= 0.01 + 1e-12
    # polygon mode rejects the knob
    with pytest.raises(ValueError, match="line-only"):
        export_vector_tiles(rd.from_pandas(df), "/tmp/never",
                            geometry="polygon", simplify_tol=0.01)


@pytest.mark.usefixtures("ray_session")
class TestGeoArrowEncoding:
    def test_roundtrip_codecs(self):
        from osm_sidewalkreator_ray.geom import wkb as W
        coords = np.array([[0, 0], [1, 0], [1, 1], [0, 0],
                           [5, 5], [6, 5]], float)
        off = np.array([0, 4, 6])
        ga = W.lines_to_geoarrow(coords, off)
        c2, o2 = SR.geoarrow_to_lines(ga)
        assert np.array_equal(coords, c2) and np.array_equal(off, o2)
        wk = W.encode_lines(coords, off)
        assert SR.geoarrow_lines_to_wkb(ga) == wk
        assert W.wkb_lines_to_geoarrow(wk).equals(ga)
        pc_ = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0],
                        [0.5, 0.5], [1, 0.5], [1, 1], [0.5, 0.5]],
                       float)
        ro, po = np.array([0, 5, 9]), np.array([0, 2])
        gp = W.polygons_to_geoarrow(pc_, ro, po)
        c3, r3, p3 = SR.geoarrow_to_polygons(gp)
        assert (np.array_equal(pc_, c3) and np.array_equal(ro, r3)
                and np.array_equal(po, p3))
        wkp = W.encode_polygons(pc_, ro, po)
        assert SR.geoarrow_polygons_to_wkb(gp) == wkp

    def test_export_geoarrow_equals_wkb_path(self, tmp_path):
        """The same export in both encodings carries IDENTICAL
        geometry: decoding the GeoArrow column back to WKB reproduces
        the WKB path byte-for-byte, per (feature_id, cell,
        piece_idx)."""
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines.tiles import \
            export_vector_tiles
        df = TestVectorTiles()._lines()
        wkb_dir = str(tmp_path / "wkb")
        ga_dir = str(tmp_path / "ga")
        export_vector_tiles(rd.from_pandas(df[["feature_id", "wkb"]]),
                            wkb_dir, res=TestVectorTiles.RES,
                            dir_res=3)
        export_vector_tiles(rd.from_pandas(df[["feature_id", "wkb"]]),
                            ga_dir, res=TestVectorTiles.RES,
                            dir_res=3, encoding="geoarrow")
        a = rd.read_parquet(wkb_dir).to_pandas()
        b = rd.read_parquet(ga_dir).to_pandas()
        key = ["feature_id", "cell", "piece_idx"]
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        assert a[key].equals(b[key])
        import pyarrow as pa
        ga_col = pa.array(
            [list(map(list, v)) for v in b["geometry"]],
            type=SR.GEOARROW_LINESTRING)
        back = SR.geoarrow_lines_to_wkb(ga_col)
        assert list(a["wkb"]) == back
