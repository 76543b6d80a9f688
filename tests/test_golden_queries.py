"""Golden regression fixtures for every rows-only driver query.

The driver's correctness gate records only a row count for queries with
no SQL oracle (geometry / approximate / multimodal ops). These are all
deterministic by construction (fixed seeds, synthetic fixtures derived
from sf_dir), so a refactor that drifts their VALUES would previously
still pass rows-only. This test freezes each query's full output at
sf0.01 as a parquet fixture: first run writes `fixtures/queries_sf001/
<name>.parquet` (committed), later runs compare row-for-row.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_sidewalkreator_ray.pipelines.geospatial import _CURITIBA_OSM

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "queries_sf001")
SF = "/root/testdata/sf0.01"
# osm_xml_parse folds in the POI layers of the reference's Curitiba
# extract; a host without a reference checkout cannot run it
_needs_curitiba = pytest.mark.skipif(
    not os.path.exists(_CURITIBA_OSM), reason=f"{_CURITIBA_OSM} not present")

# every query the driver records as `no_oracle` in CORRECTNESS_r03
NO_ORACLE_QUERIES = [
    "ivf_topk",
    "trained_quality_classifier",
    "incontext_order",
    "sidewalk_features",
    "crossings_kerbs",
    "page_text_extract",
    "page_geotags",
    "page_tile_join",
    "width_shrink",
    "protoblock_coverage",
    "crossing_spacing",
    "sidewalk_split",
    pytest.param("osm_xml_parse", marks=_needs_curitiba),
    "media_features",
    "intersections_voronoi",
]


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Column-name order + full row sort + float rounding + bytes->hex,
    so the comparison is order-insensitive and serialization-stable."""
    import hashlib
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(float).round(6)
        elif df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: hashlib.sha1(v).hexdigest()[:16]
                if isinstance(v, (bytes, bytearray)) else v)
    return (df.sort_values(list(df.columns), kind="mergesort")
            .reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", NO_ORACLE_QUERIES)
def test_golden_query(name):
    import __ray_entry__ as entry_mod
    fn = entry_mod.queries()[name]
    res = fn(SF)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    got = _normalize(pd.DataFrame(res))

    os.makedirs(FIXTURE_DIR, exist_ok=True)
    path = os.path.join(FIXTURE_DIR, f"{name}.parquet")
    if not os.path.exists(path):
        pq.write_table(pa.Table.from_pandas(got, preserve_index=False), path)
        pytest.skip(f"golden fixture {name} written; rerun to compare")
    want = pq.read_table(path).to_pandas()
    assert list(got.columns) == list(want.columns), f"{name}: schema drift"
    assert len(got) == len(want), f"{name}: row count drift"
    for c in got.columns:
        if pd.api.types.is_float_dtype(want[c]):
            assert np.allclose(got[c].astype(float), want[c].astype(float),
                               atol=1e-6, equal_nan=True), f"{name}.{c}"
        else:
            mism = (got[c].astype(str) != want[c].astype(str))
            assert not mism.any(), (
                f"{name}.{c}: {int(mism.sum())} rows drifted, first at "
                f"index {int(np.argmax(mism.to_numpy()))}")
