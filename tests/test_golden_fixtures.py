"""Golden regression fixtures (FIXTURES.md §5).

First run writes `fixtures/*.parquet` (committed to the repo); later
runs — including future build rounds — compare the engine's output
against them: counts exactly, geometry by normalized-WKB hash sets,
lengths/areas to 1e-6. Catches any silent drift in the geometry chain.
"""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.pipelines import page_join as PJ
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.sources import synthetic as SYN
import spatial_references as SR

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _geom_hash(b: bytes) -> str:
    return hashlib.sha1(b).hexdigest()[:16]


def _features_frame() -> pd.DataFrame:
    cfg = PipelineConfig()
    streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=120.0))
    df = SW.build_features(streets, cfg).to_pandas()
    df = df[df["kind"] != "metrics"].copy()
    df["geom_hash"] = df["geometry_wkb"].map(_geom_hash)
    df["length_m"] = df["length_m"].round(6)
    df["area_m2"] = df["area_m2"].round(6)
    df["norm_ratio"] = df["norm_ratio"].round(6)
    df["simple_ratio"] = df["simple_ratio"].round(6)
    return (df[["kind", "h3_cell", "feature_id", "parent_id", "geom_hash",
                "length_m", "area_m2", "norm_ratio", "simple_ratio"]]
            .sort_values(["kind", "feature_id"]).reset_index(drop=True))


def _assignments_frame() -> pd.DataFrame:
    cfg = PipelineConfig()
    streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=120.0))
    features = SW.build_features(streets, cfg)
    geotags = PJ.extract_geotags(rd.from_arrow(SYN.pages_corpus(500)), cfg)
    out = SR.join_pages_to_tiles(geotags, features, cfg).to_pandas()
    real, _ = PJ.split_metrics(out)
    real = real.copy()
    real["lat"] = real["lat"].round(6)
    real["lon"] = real["lon"].round(6)
    real["dist_m"] = real["dist_m"].round(3)
    return real.sort_values(["url", "lat", "lon"]).reset_index(drop=True)


def _check_or_write(df: pd.DataFrame, name: str):
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    path = os.path.join(FIXTURE_DIR, f"{name}.parquet")
    if not os.path.exists(path):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
        pytest.skip(f"golden fixture {name} written; rerun to compare")
    want = pq.read_table(path).to_pandas()
    assert len(df) == len(want), f"{name}: row count changed"
    assert list(df.columns) == list(want.columns)
    for c in df.columns:
        if pd.api.types.is_float_dtype(want[c]):
            assert np.allclose(df[c].astype(float),
                               want[c].astype(float),
                               atol=1e-6, equal_nan=True), f"{name}.{c}"
        else:
            assert df[c].astype(str).tolist() == \
                want[c].astype(str).tolist(), f"{name}.{c}"


@pytest.mark.usefixtures("ray_session")
def test_golden_features():
    _check_or_write(_features_frame(), "expected_features_grid4x4")


@pytest.mark.usefixtures("ray_session")
def test_golden_page_assignments():
    _check_or_write(_assignments_frame(), "expected_page_assignments_500")


@pytest.mark.usefixtures("ray_session")
def test_snap_rounds_and_alt_schema_deltas():
    """G7 snap rounds + G8 ALT_SCHEMA wired into build_features behind
    config flags: compare against the flag-off golden baseline."""
    from osm_sidewalkreator_ray.geom import wkb as _wkb
    from osm_sidewalkreator_ray.geom import project as _project

    streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=120.0))
    cfg = PipelineConfig(snap_rounds=True, alt_schema=True)
    df = SW.build_features(streets, cfg).to_pandas()
    base = _features_frame()  # flag-off baseline (golden-checked)

    # ALT_SCHEMA rows: 2 ends + 1 center per 5-pt crossing
    ncr = (df["kind"] == "crossing").sum()
    assert (df["kind"] == "crossing_end").sum() == 2 * ncr
    assert (df["kind"] == "crossing_center").sum() == ncr
    assert ncr == (base["kind"] == "crossing").sum()
    # sidewalk/tile/protoblock row counts unchanged by the finalize
    for kind in ("sidewalk", "tile", "protoblock"):
        assert (df["kind"] == kind).sum() == (base["kind"] == kind).sum()

    # snapped crossings: endpoints lie ON a sidewalk segment (the
    # behavior-5 round); verify distance ~0 after snapping
    sws = df[df["kind"] == "sidewalk"]
    crs = df[df["kind"] == "crossing"]
    from osm_sidewalkreator_ray.geom.grid_index import SegmentGrid
    by_cell = {}
    for cell, sub in sws.groupby("h3_cell"):
        frame = _project.frame_for_cell(int(cell))
        segs0, segs1 = [], []
        for b in sub["geometry_wkb"]:
            c, _, _ = _wkb.decode_lines([b])
            loc = _project.coords_to_local(c, frame)
            segs0.append(loc[:-1]); segs1.append(loc[1:])
        by_cell[int(cell)] = SegmentGrid(np.concatenate(segs0),
                                         np.concatenate(segs1), cell=1.0)
    checked = 0
    for _, r in crs.iterrows():
        grid = by_cell.get(int(r["h3_cell"]))
        if grid is None:
            continue
        frame = _project.frame_for_cell(int(r["h3_cell"]))
        c, _, _ = _wkb.decode_lines([r["geometry_wkb"]])
        loc = _project.coords_to_local(c, frame)
        d, idx = grid.nearest(loc[[0, -1]], max_dist=1.0)
        # endpoints that were within 0.1 m pre-snap are now exact
        close = d <= 0.11
        exact = d <= 1e-6
        assert (exact | ~close).all()
        checked += int(close.sum())
    assert checked > 0  # the snap actually moved something
