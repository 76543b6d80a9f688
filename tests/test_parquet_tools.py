"""Versioned (manifest) parquet tables: commits, time travel, merge,
vacuum, and the table job CLI."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


@pytest.mark.usefixtures("ray_session")
class TestVersionedTable:
    def test_append_time_travel_replace(self, tmp_path):
        import ray.data as rd
        from osm_sidewalkreator_ray.sources.parquet_tools import (
            commit_append, commit_replace, read_table_version,
            table_versions)
        t = str(tmp_path / "tbl")
        df1 = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                            "v": np.ones(100)})
        df2 = pd.DataFrame({"k": np.arange(100, 150,
                                           dtype=np.int64),
                            "v": np.zeros(50)})
        v1 = commit_append(rd.from_pandas(df1).repartition(2), t)
        v2 = commit_append(rd.from_pandas(df2), t)
        assert (v1, v2) == (1, 2)
        assert read_table_version(t, 1).count() == 100
        assert read_table_version(t).count() == 150  # latest
        # replace (compaction): new version, old still readable
        latest = read_table_version(t)
        v3 = commit_replace(latest, t)
        assert v3 == 3
        assert read_table_version(t, 3).count() == 150
        assert read_table_version(t, 1).count() == 100
        assert table_versions(t) == [1, 2, 3]
        # values preserved through the replace
        got = (read_table_version(t, 3).to_pandas()
               .sort_values("k").reset_index(drop=True))
        ref = (pd.concat([df1, df2]).sort_values("k")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, ref)

    def test_crash_before_publish_is_invisible(self, tmp_path):
        import os
        import ray.data as rd
        from osm_sidewalkreator_ray.sources.parquet_tools import (
            commit_append, read_table_version, table_versions)
        t = str(tmp_path / "tbl")
        commit_append(rd.from_pandas(
            pd.DataFrame({"k": np.arange(10, dtype=np.int64)})), t)
        # simulate a writer that died after data files, before
        # manifest publish: orphan parquet in data/
        orphan = os.path.join(t, "data", "block-deadbeef.parquet")
        pd.DataFrame({"k": np.arange(999, 1009,
                                     dtype=np.int64)}).to_parquet(
            orphan)
        assert table_versions(t) == [1]
        assert read_table_version(t).count() == 10  # orphan unseen


@pytest.mark.usefixtures("ray_session")
class TestVersionedMergeVacuum:
    def test_commit_merge_and_vacuum(self, tmp_path):
        import ray.data as rd
        from osm_sidewalkreator_ray.sources.parquet_tools import (
            commit_append, commit_merge, read_table_version,
            table_versions, vacuum_table)
        t = str(tmp_path / "tbl")
        base = pd.DataFrame({"k": np.arange(20, dtype=np.int64),
                             "v": np.arange(20, dtype=np.float64)})
        commit_append(rd.from_pandas(base).repartition(2), t)
        # changeset: update k=3, insert k=100, delete k=7
        ch = pd.DataFrame({"k": [3, 100, 7],
                           "v": [99.0, 1.0, 0.0],
                           "is_del": [False, False, True]})
        v2 = commit_merge(t, rd.from_pandas(ch), on="k",
                          delete_col="is_del")
        assert v2 == 2
        got = (read_table_version(t).to_pandas()
               .sort_values("k").reset_index(drop=True))
        assert 7 not in set(got["k"])
        assert got.loc[got["k"] == 3, "v"].iloc[0] == 99.0
        assert got.loc[got["k"] == 100, "v"].iloc[0] == 1.0
        assert len(got) == 20  # 20 - 1 delete + 1 insert
        # old version still intact pre-vacuum
        assert read_table_version(t, 1).count() == 20
        rep = vacuum_table(t, keep_versions=1)
        assert rep["versions_dropped"] == 1
        assert rep["files_deleted"] >= 1
        assert table_versions(t) == [2]
        got2 = (read_table_version(t).to_pandas()
                .sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(got2, got)


@pytest.mark.usefixtures("ray_session")
def test_table_job_cli(tmp_path):
    import io
    import contextlib
    import json
    from jobs.table_job import main
    base = str(tmp_path / "base.parquet")
    pd.DataFrame({"k": np.arange(30, dtype=np.int64),
                  "v": np.ones(30)}).to_parquet(base)
    ch = str(tmp_path / "ch.parquet")
    pd.DataFrame({"k": [1, 999], "v": [5.0, 7.0],
                  "is_del": [False, False]}).to_parquet(ch)
    t = str(tmp_path / "tbl")

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(args)
        assert rc == 0
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    assert run(["append", "--table", t, "--data", base])["version"] \
        == 1
    r = run(["merge", "--table", t, "--data", ch, "--on", "k",
             "--delete-col", "is_del"])
    assert r["version"] == 2
    info = run(["info", "--table", t])
    assert info["rows"] == 31 and info["versions"] == [1, 2]
    vac = run(["vacuum", "--table", t, "--keep", "1"])
    assert vac["versions"] == [2]


@pytest.mark.usefixtures("ray_session")
class TestContentHashCollision:
    def test_blocks_with_same_tail_buffer_do_not_collide(self, tmp_path):
        """Regression: the content-addressed block name used to hash
        only each column's LAST Arrow buffer, so ['ab','c'] and
        ['a','bc'] (same data buffer, different offsets) collided and
        one version's file silently overwrote the other's."""
        import ray.data as rd
        from osm_sidewalkreator_ray.sources.parquet_tools import (
            commit_replace, read_table_version)
        t = str(tmp_path / "tbl")
        df_a = pd.DataFrame({"s": ["ab", "c"]})
        df_b = pd.DataFrame({"s": ["a", "bc"]})
        v1 = commit_replace(rd.from_pandas(df_a), t)
        v2 = commit_replace(rd.from_pandas(df_b), t)
        # time travel must return each version's own rows
        got1 = sorted(read_table_version(t, v1).to_pandas()["s"])
        got2 = sorted(read_table_version(t, v2).to_pandas()["s"])
        assert got1 == ["ab", "c"]
        assert got2 == ["a", "bc"]

    def test_null_vs_zero_do_not_collide(self, tmp_path):
        import ray.data as rd
        import pyarrow as pa
        from osm_sidewalkreator_ray.sources.parquet_tools import (
            commit_replace, read_table_version)
        t = str(tmp_path / "tbl")
        v1 = commit_replace(rd.from_arrow(pa.table(
            {"x": pa.array([1, None], type=pa.int64())})), t)
        v2 = commit_replace(rd.from_arrow(pa.table(
            {"x": pa.array([1, 0], type=pa.int64())})), t)
        assert read_table_version(
            t, v1).to_pandas()["x"].isna().sum() == 1
        assert read_table_version(
            t, v2).to_pandas()["x"].isna().sum() == 0
