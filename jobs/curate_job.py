"""Cluster job entrypoint for the corpus-curation pipeline:

    ray job submit --working-dir . -- \
        python jobs/curate_job.py --out /mnt/shared/curated \
            --docs s3://bucket/documents/ --bench s3://bucket/eval/

Runs the fused curation pass (token + Gopher gates -> benchmark
decontamination -> exact dedup; see
``textops.curate_corpus_ds``) over a documents parquet and writes the
per-doc (doc_id, status) verdicts as parquet partitioned by status —
so the kept set is one directory a downstream trainer reads directly,
and the drop reasons are auditable next to it. One JSON metrics line
(per-status counts) goes to stdout as the lineage record.

The eval set for decontamination comes from --bench (a parquet of
(text) rows); without it, the self-derived oracle benchmark is used
(``textops._derive_bench``: the first 50 tokens of the doc_id % 97
donors, as the curation oracles derive it), which is only meaningful
for smoke runs.
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
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1",
                    help="scale-factor dir holding documents.parquet "
                         "when --docs is not given")
    ap.add_argument("--docs", default=None,
                    help="parquet path/dir of the document corpus "
                         "(doc_id, text)")
    ap.add_argument("--bench", default=None,
                    help="parquet path/dir of eval-set texts (text "
                         "column) to decontaminate against")
    ap.add_argument("--out", required=True,
                    help="output root; parquet partitioned by status")
    ap.add_argument("--min-tokens", type=int, default=5)
    ap.add_argument("--near-dup", action="store_true",
                    help="fuse near-dedup: MinHash-shaped exact "
                         "prefix-Jaccard pairs -> components -> "
                         "keep-longest; losers get status "
                         "near_duplicate (curate_corpus_full_ds)")
    ap.add_argument("--checkpoint", action="store_true",
                    help="resumable mode: write per-bucket partitions "
                         "+ manifest (state/checkpoint layout); an "
                         "identical re-submit skips committed buckets")
    args = ap.parse_args(argv)

    import numpy as np
    import pyarrow as pa
    import ray
    if not ray.is_initialized():  # job server usually pre-initializes
        ray.init(include_dashboard=False)
    import ray.data as rd

    from osm_sidewalkreator_ray.pipelines import textops as T

    docs_path = args.docs or f"{args.sf_dir}/documents.parquet"
    docs = rd.read_parquet(docs_path, columns=["doc_id", "text"])

    if args.bench:
        bench_rows = (rd.read_parquet(args.bench, columns=["text"])
                      .map_batches(lambda b: pa.table({
                          "h": T.benchmark_ngram_hashes(b["text"])}),
                          batch_format="pyarrow").to_pandas())
        bench = np.unique(bench_rows["h"].to_numpy(dtype=np.uint64))
    else:
        bench = T._derive_bench(docs, 97, 50, 3)

    t0 = time.perf_counter()
    if args.checkpoint:
        from osm_sidewalkreator_ray.state.checkpoint import read_output
        if args.near_dup:
            T.curate_corpus_full_checkpointed(
                docs, ray.put(bench), args.out,
                min_tokens=args.min_tokens)
            out_df = read_output(os.path.join(args.out, "final"))
        else:
            T.curate_corpus_checkpointed(docs, ray.put(bench),
                                         args.out,
                                         min_tokens=args.min_tokens)
            out_df = read_output(args.out)
        wall = time.perf_counter() - t0
        by_status = out_df["status"].value_counts().to_dict() \
            if len(out_df) else {}
        by_status = {k: int(v) for k, v in by_status.items()}
    else:
        mk = (T.curate_corpus_full_ds if args.near_dup
              else T.curate_corpus_ds)
        verdicts = mk(docs, ray.put(bench),
                      min_tokens=args.min_tokens)
        verdicts.write_parquet(args.out, partition_cols=["status"])
        wall = time.perf_counter() - t0
        counts = (rd.read_parquet(args.out).groupby("status").count()
                  .to_pandas())
        by_status = dict(zip(counts["status"],
                             counts["count()"].astype(int))
                         ) if len(counts) else {}
    print(json.dumps({
        "metric": "curate_job", "out": args.out, "unit": "sec",
        "value": round(wall, 3), "bench_ngrams": int(len(bench)),
        "by_status": by_status,
        "total": int(sum(by_status.values())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
