"""The `ray job submit` entrypoint: fresh run writes partitions +
prints the metrics line; an identical re-submit resumes from the
manifests and recomputes nothing."""

import json

import pytest

from jobs.flagship_job import main


@pytest.mark.usefixtures("ray_session")
def test_flagship_job_run_and_resume(tmp_path, capsys):
    out = str(tmp_path / "run1")
    sf = "/root/testdata/sf0.001"

    assert main(["--sf-dir", sf, "--out", out]) == 0
    m1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m1["metric"] == "flagship_job"
    assert m1["partitions"] > 0 and m1["join_rows"] > 0

    # identical re-submit: both manifests already complete
    assert main(["--sf-dir", sf, "--out", out]) == 0
    m2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m2["partitions"] == 0 and m2["join_rows"] == 0


@pytest.mark.usefixtures("ray_session")
def test_curate_job_partitions_and_counts(tmp_path, capsys):
    """The curation job writes status-partitioned parquet whose counts
    equal the metrics line and the oracle-path statuses."""
    from jobs.curate_job import main as curate_main
    import pyarrow.dataset as pads

    out = str(tmp_path / "curated")
    sf = "/root/testdata/sf0.001"
    assert curate_main(["--sf-dir", sf, "--out", out]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["metric"] == "curate_job"
    assert m["total"] == 500
    assert m["by_status"].get("kept", 0) > 0

    # on-disk partitioning mirrors the metrics
    ds = pads.dataset(out, partitioning="hive")
    tbl = ds.to_table(columns=["doc_id", "status"])
    import collections
    disk = collections.Counter(tbl["status"].to_pylist())
    assert dict(disk) == m["by_status"]

    # matches the collecting oracle form
    from text_references import curate_corpus
    want = curate_corpus(sf)
    got = (tbl.to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    assert got["status"].astype(str).tolist() == \
        want["status"].astype(str).tolist()


def test_index_job_cli_lifecycle(tmp_path):
    """build -> update -> bm25 search through the job entrypoint;
    BM25 scores must match a single full build."""
    import json
    import subprocess
    import sys
    ix = str(tmp_path / "ix")
    env = None
    r = subprocess.run(
        [sys.executable, "jobs/index_job.py", "build", "--index", ix,
         "--sf-dir", "/root/testdata/sf0.001"],
        capture_output=True, text=True, cwd="/root/repo", env=env,
        timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["mode"] == "build"
    r = subprocess.run(
        [sys.executable, "jobs/index_job.py", "search", "--index", ix,
         "--terms", "join", "scan", "--rank", "bm25", "-k", "3"],
        capture_output=True, text=True, cwd="/root/repo", env=env,
        timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["hits"] == 3 and m["top"][0]["doc_id"] == 389


@pytest.mark.usefixtures("ray_session")
def test_profile_job_cli(tmp_path, capsys):
    """profile/check/skew modes print one JSON report line; a failing
    rule suite exits nonzero."""
    from jobs.profile_job import main as pmain
    sf = "/root/testdata/sf0.001"

    assert pmain(["profile", "--data", f"{sf}/lineitem.parquet",
                  "--columns", "l_quantity", "l_returnflag"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["mode"] == "profile" and rep["rows"] > 0
    cols = {c["column"]: c for c in rep["columns"]}
    assert cols["l_quantity"]["nulls"] == 0

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([
        {"kind": "not_null", "column": "l_quantity"},
        {"kind": "in_range", "column": "l_quantity",
         "lo": 0, "hi": 3},  # fails: quantities go to 50
        {"kind": "foreign_key", "column": "l_orderkey",
         "parent_path": f"{sf}/orders.parquet",
         "parent_column": "o_orderkey"},
    ]))
    rc = pmain(["check", "--data", f"{sf}/lineitem.parquet",
                "--rules", str(rules)])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and rep["passed"] is False
    by = {r["rule"]: r for r in rep["rules"]}
    assert by["not_null"]["violations"] == 0
    assert by["in_range"]["violations"] > 0
    assert by["foreign_key"]["violations"] == 0

    assert pmain(["skew", "--data", f"{sf}/events.parquet",
                  "--key", "event_type"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["blocks"]["rows_total"] == 1000
    assert len(rep["hot_keys"]) > 0
