"""Cluster job entrypoint for multimodal near-duplicate detection:

    # image perceptual-hash pairs over a media parquet dataset
    python jobs/media_job.py image --data /data/media --out /tmp/imgdups

    # audio spectral-fingerprint pairs
    python jobs/media_job.py audio --data /data/media --out /tmp/auddups

    # video temporal-dHash pairs
    python jobs/media_job.py video --data /data/media --out /tmp/viddups

The input is a MEDIA_SCHEMA parquet dataset (media_id, kind, width,
height, sample_rate, fps, payload). Each mode fingerprints ONLY its
modality (payloads drop at the hashing stage; slim (media_id, hash)
rows enter the exact-pigeonhole banded hamming search), writes the
pair table as parquet to --out, and prints one JSON report line —
the machine-readable artifact a dedup scheduler gates on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["image", "audio", "video"])
    ap.add_argument("--data", required=True,
                    help="MEDIA_SCHEMA parquet file/dir")
    ap.add_argument("--out", required=True,
                    help="output directory for the pair parquet")
    ap.add_argument("--max-hamming", type=int, default=6)
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)
    import ray.data as rd
    from osm_sidewalkreator_ray.stages.multimodal import (
        audio_near_dups_ds, phash_near_dups_ds, video_near_dups_ds)

    t0 = time.time()
    ds = rd.read_parquet(args.data)
    fn = {"image": phash_near_dups_ds, "audio": audio_near_dups_ds,
          "video": video_near_dups_ds}[args.mode]
    pairs = fn(ds, max_hamming=args.max_hamming)
    os.makedirs(args.out, exist_ok=True)
    # a retried/refreshed run must not double-count: it REPLACES the
    # previous run's parquet (write_parquet appends uniquely-named
    # files, it does not overwrite). Only OUR files may be replaced —
    # a previous run leaves a marker; parquet in an unmarked dir is
    # foreign data (e.g. --out mispointed at the input directory,
    # which the lazy pipeline has not read yet) and deleting it would
    # destroy it
    marker = os.path.join(args.out, "_media_job.json")
    existing_parquet = [f for f in os.listdir(args.out)
                        if f.endswith(".parquet")]
    if existing_parquet and not os.path.exists(marker):
        raise SystemExit(
            f"refusing to overwrite: {args.out} contains parquet "
            f"files but no _media_job.json marker — it is not a "
            f"previous run's output directory")
    # crash-safe refresh: write and count in a staging dir next to
    # --out (same filesystem, so the swap is renames); the previous
    # run's files and marker are touched only after both succeed, and
    # a failed run removes the staging dir
    out = os.path.abspath(args.out)
    staging = os.path.join(os.path.dirname(out),
                           f".{os.path.basename(out)}.staging")
    shutil.rmtree(staging, ignore_errors=True)
    try:
        # stream the pair Dataset straight to parquet — no driver
        # collect (pair volume is cluster-sized at 100 TB even though
        # it is tiny at test scale); count comes off the written files
        pairs.write_parquet(staging)
        os.makedirs(staging, exist_ok=True)
        # an all-empty Dataset writes ZERO files (and read_parquet on
        # an empty dir raises) — pin the typed empty file FIRST, then
        # count
        if not any(f.endswith(".parquet") for f in os.listdir(staging)):
            import pyarrow as pa
            import pyarrow.parquet as pq
            empty = pa.table({c: pa.array([], pa.int64())
                              for c in ("media_a", "media_b", "hamming")})
            pq.write_table(empty, os.path.join(staging,
                                               "pairs-empty.parquet"))
        n_pairs = rd.read_parquet(staging,
                                  file_extensions=["parquet"]).count()
        # marker first: a crash mid-swap leaves a dir a rerun may clear
        with open(marker, "w") as f:
            json.dump({"mode": args.mode, "pairs": int(n_pairs)}, f)
        for old in existing_parquet:
            os.unlink(os.path.join(args.out, old))
        for new in os.listdir(staging):
            os.replace(os.path.join(staging, new),
                       os.path.join(args.out, new))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(json.dumps({"mode": args.mode, "pairs": int(n_pairs),
                      "max_hamming": args.max_hamming,
                      "out": args.out,
                      "sec": round(time.time() - t0, 3)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
