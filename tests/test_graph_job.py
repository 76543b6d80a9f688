"""graph_job CLI: the per-vertex components parquet and its JSON
report."""

import json

import pandas as pd
import pytest

from jobs.graph_job import main as gj_main

pytestmark = pytest.mark.usefixtures("ray_session")


def _edges(tmp_path):
    # two 2-cycles bridged + a pendant: one weak component
    el = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]
    p = str(tmp_path / "edges.parquet")
    pd.DataFrame(el, columns=["src", "dst"]).astype("int64").to_parquet(p)
    return p


def test_components_pagerank_coloring(tmp_path, capsys):
    # the name predates the components-only job; the components run
    # and its asserts are unchanged
    src = _edges(tmp_path)

    out = str(tmp_path / "cc")
    assert gj_main(["--edges", src, "--out", out,
                    "--num-buckets", "4"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["metric"] == "graph_job" and rep["rows"] == 5
    cc = pd.read_parquet(out)
    assert set(cc["component"]) == {0}  # one weak component


def test_out_required(tmp_path):
    src = _edges(tmp_path)
    with pytest.raises(SystemExit):
        gj_main(["--edges", src])
