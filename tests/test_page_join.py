"""Graft pipeline tests: HTML byte-identity, geotags, PIP+kNN join."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.pipelines import page_join as PJ
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.sources import synthetic as SYN
from osm_sidewalkreator_ray.stages.html_text import HtmlExtractor, extract_text
import spatial_references as SR


def test_extract_text_deterministic():
    html = b"<html><body><script>x&amp;y</script><p>Hello &amp; world</p></body></html>"
    assert extract_text(html) == "Hello & world"
    assert extract_text(html) == extract_text(html)


@pytest.mark.usefixtures("ray_session")
class TestGraft:
    @pytest.fixture(scope="class")
    def cfg(self):
        return PipelineConfig()

    @pytest.fixture(scope="class")
    def pages_tbl(self):
        return SYN.pages_corpus(300)

    def test_byte_identity_through_ray(self, pages_tbl, cfg):
        pages = rd.from_arrow(pages_tbl)
        out = pages.map_batches(HtmlExtractor, batch_format="pandas",
                                batch_size=64, concurrency=(1, 2)).to_pandas()
        ref = pages_tbl.to_pandas().set_index("url")["text"]
        for _, r in out.iterrows():
            assert r["extracted_text"] == ref[r["url"]], r["url"]

    def test_geotags_extracted(self, pages_tbl, cfg):
        pages = rd.from_arrow(pages_tbl)
        tags = PJ.extract_geotags(pages, cfg).to_pandas()
        assert len(tags) > 0
        assert {"url", "lat", "lon", "h3_cell"} <= set(tags.columns)
        # out-of-AOI tags exist (lat ~40-50) and in-AOI (-25.5x)
        assert (tags["lat"] > 30).any()
        assert (tags["lat"] < -25).any()

    @pytest.fixture(scope="class")
    def joined(self, pages_tbl, cfg):
        pages = rd.from_arrow(pages_tbl)
        streets = rd.from_arrow(SYN.streets_grid(n=6, m=6, spacing_m=150.0))
        features = SW.build_features(streets, cfg)
        geotags = PJ.extract_geotags(pages, cfg)
        assignments = SR.join_pages_to_tiles(geotags, features, cfg)
        return PJ.split_metrics(assignments.to_pandas())

    def test_join_shapes(self, joined):
        out, metrics = joined
        assert len(out) > 0 and len(metrics) > 0
        assert (out["dist_m"] <= 50.0).all()  # knn_max_dist cap
        # inside_tile implies a tile id
        inside = out[out["inside_tile"]]
        if len(inside):
            assert (inside["tile_id"] != -1).all()
        outside = out[~out["inside_tile"]]
        assert (outside["tile_id"] == -1).all()

    def test_out_of_aoi_never_joins(self, joined):
        out, _ = joined
        far = out[out["lat"] > 30]
        if len(far):
            assert (~far["inside_tile"]).all()
            assert (far["nearest_sidewalk_id"] == -1).all()

    def test_metrics_account_for_pages(self, joined):
        out, metrics = joined
        assert metrics["lat"].sum() == len(out)  # pages_joined total

    def test_join_deterministic(self, pages_tbl, cfg):
        def run():
            pages = rd.from_arrow(SYN.pages_corpus(300))
            streets = rd.from_arrow(SYN.streets_grid(n=6, m=6, spacing_m=150.0))
            features = SW.build_features(streets, cfg)
            geotags = PJ.extract_geotags(pages, cfg)
            df = SR.join_pages_to_tiles(geotags, features, cfg).to_pandas()
            out, _ = PJ.split_metrics(df)
            return out.sort_values(["url", "lat", "lon"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(run(), run())


@pytest.mark.usefixtures("ray_session")
def test_salting_replicates_tiles():
    """Salting is a physical-plan change only: the unsalted run (hot
    mode, threshold never reached), the hot-cell-salted run, and the
    salt-all run must produce identical assignments."""
    cfg_plain = PipelineConfig(salt_all=False)
    cfg_hot = PipelineConfig(salt_all=False, hot_cell_threshold=1,
                             page_salts=4)
    cfg_all = PipelineConfig(salt_all=True, page_salts=4)
    pages = SYN.pages_corpus(200)

    def run(cfg):
        streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=150.0))
        features = SW.build_features(streets, cfg)
        geotags = PJ.extract_geotags(rd.from_arrow(pages), cfg)
        df = SR.join_pages_to_tiles(geotags, features, cfg).to_pandas()
        out, _ = PJ.split_metrics(df)
        return out.sort_values(["url", "lat", "lon"]).reset_index(drop=True)

    plain = run(cfg_plain)
    pd.testing.assert_frame_equal(plain, run(cfg_hot))
    pd.testing.assert_frame_equal(plain, run(cfg_all))


@pytest.mark.usefixtures("ray_session")
def test_join_with_no_tiles_anywhere():
    """Pages with geotags vs an EMPTY street network: everything comes
    back unjoined, nothing crashes (empty-batch schema path)."""
    import pyarrow as pa
    from osm_sidewalkreator_ray.sources.synthetic import (PAGES_SCHEMA,
                                                          STREET_SCHEMA)
    cfg = PipelineConfig()
    empty_streets = pa.table({k: [] for k in STREET_SCHEMA.names},
                             schema=STREET_SCHEMA)
    pages = pa.table({
        "url": ["https://example.test/x/1"],
        "warc_ts": pa.array([np.datetime64("2024-01-01", "us")]),
        "html": [b"<html><body><p>lat 10.1234 lon 20.5678</p></body></html>"],
        "text": ["x"], "lang": ["en"]}, schema=PAGES_SCHEMA)
    geotags = PJ.extract_geotags(rd.from_arrow(pages), cfg)
    feats = SW.build_features(rd.from_arrow(empty_streets), cfg)
    out = SR.join_pages_to_tiles(geotags, feats, cfg).to_pandas()
    real, _ = PJ.split_metrics(out)
    assert len(real) == 1
    assert (real["tile_id"] == -1).all()
    assert (real["nearest_sidewalk_id"] == -1).all()
