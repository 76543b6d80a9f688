"""Cluster job entrypoint for the graph-analytics family:

    # connected / strongly connected components
    python jobs/graph_job.py components --edges e.parquet --out /data/cc
    python jobs/graph_job.py scc --edges e.parquet --out /data/scc

    # ranking / centrality
    python jobs/graph_job.py pagerank --edges e.parquet --out /data/pr \\
        [--iters 20 --damping 0.85]
    python jobs/graph_job.py hits --edges e.parquet --out /data/hits
    python jobs/graph_job.py betweenness --edges e.parquet \\
        --out /data/bc --k-sources 16 [--directed]
    python jobs/graph_job.py closeness --edges e.parquet \\
        --out /data/hc --k-sources 16

    # structure
    python jobs/graph_job.py coreness --edges e.parquet --out /data/k
    python jobs/graph_job.py communities --edges e.parquet --out /data/lp
    python jobs/graph_job.py mis --edges e.parquet --out /data/mis
    python jobs/graph_job.py coloring --edges e.parquet --out /data/col
    python jobs/graph_job.py diameter --edges e.parquet

Input parquet needs int64 (src, dst) — override with --src/--dst.
Per-vertex results are written as parquet; one JSON report line per
invocation (the diameter mode reports inline, no output table).
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

MODES = ["components", "scc", "pagerank", "hits", "betweenness",
         "closeness", "coreness", "communities", "mis", "coloring",
         "diameter"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=MODES)
    ap.add_argument("--edges", required=True, help="edge parquet")
    ap.add_argument("--out", help="output parquet directory "
                    "(all modes except diameter)")
    ap.add_argument("--src", default="src")
    ap.add_argument("--dst", default="dst")
    ap.add_argument("--num-buckets", type=int, default=32)
    ap.add_argument("--iters", type=int, default=20)
    ap.add_argument("--damping", type=float, default=0.85)
    ap.add_argument("--k-sources", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--directed", action="store_true")
    args = ap.parse_args(argv)
    if args.mode != "diameter" and not args.out:
        ap.error(f"{args.mode} requires --out")

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)
    import pandas as pd
    import ray.data as rd
    from osm_sidewalkreator_ray.functions import graph as G

    edges = rd.read_parquet(args.edges,
                            columns=[args.src, args.dst]) \
        .map_batches(lambda b: pd.DataFrame({
            "src": b[args.src].astype("int64"),
            "dst": b[args.dst].astype("int64")}),
            batch_format="pandas")
    nb = args.num_buckets
    t0 = time.time()
    if args.mode == "components":
        out = G.connected_components(edges, num_buckets=nb)
    elif args.mode == "scc":
        out = G.strongly_connected_components(edges, num_buckets=nb)
    elif args.mode == "pagerank":
        out = G.pagerank(edges, damping=args.damping,
                         iters=args.iters, num_buckets=nb)
    elif args.mode == "hits":
        out = G.hits(edges, iters=args.iters, num_buckets=nb)
    elif args.mode == "betweenness":
        out = G.betweenness_centrality(
            edges, k_sources=args.k_sources, seed=args.seed,
            directed=args.directed, num_buckets=nb)
    elif args.mode == "closeness":
        out = G.harmonic_closeness(
            edges, k_sources=args.k_sources, seed=args.seed,
            directed=args.directed, num_buckets=nb)
    elif args.mode == "coreness":
        out = G.coreness(edges, num_buckets=nb)
    elif args.mode == "communities":
        out = G.label_propagation(edges, iters=args.iters,
                                  num_buckets=nb)
    elif args.mode == "mis":
        out = G.maximal_independent_set(edges, num_buckets=nb,
                                        seed=args.seed)
    elif args.mode == "coloring":
        out = G.greedy_coloring(edges, num_buckets=nb,
                                seed=args.seed)
    else:  # diameter
        rep = G.approx_diameter(edges, directed=args.directed,
                                seed=args.seed, num_buckets=nb)
        rep.update({"metric": "graph_job", "mode": "diameter",
                    "sec": round(time.time() - t0, 3)})
        print(json.dumps(rep))
        return 0

    rd.from_pandas(out).write_parquet(args.out)
    rep = {"metric": "graph_job", "mode": args.mode,
           "out": args.out, "rows": int(len(out)),
           "sec": round(time.time() - t0, 3)}
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
