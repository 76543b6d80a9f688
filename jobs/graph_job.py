"""Cluster job entrypoint for connected components:

    python jobs/graph_job.py --edges e.parquet --out /data/cc \\
        [--src src --dst dst --num-buckets 32]

Input parquet needs int64 (src, dst) — override with --src/--dst.
Writes one (vertex, component) row per vertex as parquet, with
``component`` the min vertex id of its component, and prints one JSON
report line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", required=True, help="edge parquet")
    ap.add_argument("--out", required=True,
                    help="output parquet directory")
    ap.add_argument("--src", default="src")
    ap.add_argument("--dst", default="dst")
    ap.add_argument("--num-buckets", type=int, default=32)
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)
    import pandas as pd
    import ray.data as rd
    from osm_sidewalkreator_ray.functions.graph import connected_components

    edges = rd.read_parquet(args.edges,
                            columns=[args.src, args.dst]) \
        .map_batches(lambda b: pd.DataFrame({
            "src": b[args.src].astype("int64"),
            "dst": b[args.dst].astype("int64")}),
            batch_format="pandas")
    t0 = time.time()
    out = connected_components(edges, num_buckets=args.num_buckets)
    rd.from_pandas(out).write_parquet(args.out)
    rep = {"metric": "graph_job", "out": args.out,
           "rows": int(len(out)), "sec": round(time.time() - t0, 3)}
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
