"""Fixture-scale cross-check, run in its own process once per checkout
and per ``inputs.code_key()``.

    python3 perfbench/fixture_check.py SPEC_JSON

Runs the golden-fixture test ``tests/test_golden_queries.py`` for
``sidewalk_features`` (the sf0.01 street grid's features) and
``page_tile_join`` (the flagship join over its 10k-page corpus): each
output must match ``fixtures/queries_sf001/<name>.parquet`` (read
only) row for row. Both queries size their inputs from the sf name
alone, so no testdata directory is read. The join fixture must hold
6 422 rows, 2 744 of them inside a tile. Writes
{"ok": bool, "problems": [...]} to the result file.
"""

from __future__ import annotations

import json
import os
import sys

import pyarrow.parquet as pq

QUERIES = ("sidewalk_features", "page_tile_join")
JOIN_ROWS, JOIN_INSIDE = 6422, 2744


def main(spec: dict) -> None:
    import pytest
    import ray
    from tests import test_golden_queries as golden
    ray.init(num_cpus=spec["ray_cpus"], include_dashboard=False,
             logging_level="ERROR", _temp_dir=spec["ray_tmp"],
             object_store_memory=spec["object_store_bytes"],
             log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
    problems = []
    for name in QUERIES:
        try:
            golden.test_golden_query(name)
        except (Exception, pytest.skip.Exception) as e:  # noqa: BLE001
            problems.append(f"{name}: {type(e).__name__}: {e}")
    # the join output equals this fixture row for row, so these are the
    # output's counts as well
    join = pq.read_table(os.path.join(golden.FIXTURE_DIR,
                                      "page_tile_join.parquet"))
    rows = join.num_rows
    inside = int(join.column("inside_tile").to_numpy().sum())
    if (rows, inside) != (JOIN_ROWS, JOIN_INSIDE):
        problems.append(f"join fixture {rows} rows / {inside} inside != "
                        f"{JOIN_ROWS} / {JOIN_INSIDE}")
    ray.shutdown()
    with open(spec["result"], "w") as f:
        json.dump({"ok": not problems, "problems": problems}, f)


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    with open(sys.argv[1]) as f:
        main(json.load(f))
