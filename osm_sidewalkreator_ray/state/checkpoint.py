"""Per-partition checkpointing with a manifest (north_rule: "every
partition records lineage and tile-assignment metrics so the job
resumes from checkpoint").

Layout (SURVEY.md §4.2):

    out_dir/
      part/<key1>=<v1>/<key2>=<v2>/part.parquet   # written atomically
      _manifest.jsonl                             # one row per finished partition

A partition's parquet file is written to a temp name and renamed;
immediately after the rename the SAME worker writes the partition's
manifest row as an atomic sidecar (``<part dir>/manifest.json``, temp +
rename) — so a killed run leaves either a fully committed partition
(parquet + sidecar, skipped on resume) or no record (recomputed). A
consolidated ``_manifest.jsonl`` is additionally appended by the driver
at end of run (a convenience view; resume does not depend on it).
``load_manifest`` merges both, deduplicating by key. Resume filters
completed partitions out of the INPUT before the shuffle, so no work
is re-done for them.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _part_dir(out_dir: str, key_cols: list[str], key_vals) -> str:
    parts = "/".join(f"{k}={v}" for k, v in zip(key_cols, key_vals))
    return os.path.join(out_dir, "part", parts)


def load_manifest(out_dir: str) -> list[dict]:
    """All committed partition rows: per-partition sidecars (the
    authoritative record, written right after each partition's rename)
    merged with the driver's consolidated jsonl, deduplicated by key."""
    import glob
    rows: dict[tuple, dict] = {}
    path = os.path.join(out_dir, "_manifest.jsonl")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    rows[tuple(r["key"])] = r
    for p in glob.glob(os.path.join(out_dir, "part", "**", "manifest.json"),
                       recursive=True):
        with open(p) as f:
            r = json.load(f)
        rows[tuple(r["key"])] = r
    return list(rows.values())


def completed_keys(out_dir: str) -> set[tuple]:
    return {tuple(r["key"]) for r in load_manifest(out_dir)}


def _append_manifest(out_dir: str, rows: list[dict]) -> None:
    path = os.path.join(out_dir, "_manifest.jsonl")
    with open(path, "a") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True) + "\n")


def run_partitioned(ds, key_cols: list[str], group_fn, out_dir: str,
                    config_hash: str = "",
                    skip_keys: set[tuple] | None = None) -> pd.DataFrame:
    """Execute ``group_fn`` per key-partition of ``ds``, writing each
    partition's output parquet atomically and recording it in the
    manifest. Partitions already in the manifest are filtered OUT OF
    THE INPUT (pre-shuffle) and skipped. Returns the manifest rows of
    this run (lineage + metrics).

    ``skip_keys`` is fault injection for resume tests: those partitions
    are neither written nor recorded, exactly as if the job was killed
    before reaching them. Key columns must be integer-valued (hashes
    must agree across driver and workers; Python int hashing is
    unsalted).
    """
    os.makedirs(os.path.join(out_dir, "part"), exist_ok=True)
    prior = load_manifest(out_dir)
    # resume is only valid under the SAME config: a changed config can
    # change the partitioning itself (e.g. salting mode), and skipping
    # old-config partitions while computing new-config ones would
    # silently duplicate rows across partitions
    stale = {tuple(r["key"]) for r in prior
             if r.get("config_hash", "") != config_hash}
    if stale:
        raise ValueError(
            f"checkpoint dir {out_dir!r} holds {len(stale)} partitions "
            "written under a DIFFERENT config_hash; resuming would mix "
            "partitioning schemes. Use a fresh out_dir (or delete the "
            "stale partitions) to run with the new config.")
    done = {tuple(r["key"]) for r in prior}
    skip_keys = skip_keys or set()

    if done:
        # vectorized membership: resume filters the FULL input (at
        # scale, every page row), so a per-row Python hash loop here
        # would dominate the resumed run. MultiIndex.isin is exact
        # (tuple equality, no hash collisions) and runs in C. The
        # arrow mask keeps a fully filtered block typed.
        done_index = pd.MultiIndex.from_tuples(sorted(done),
                                               names=key_cols)

        def flt(batch: pa.Table) -> pa.Table:
            keys = pd.MultiIndex.from_arrays(
                [batch[k].to_numpy() for k in key_cols])
            return batch.filter(pa.array(~keys.isin(done_index)))

        ds = ds.map_batches(flt, batch_format="pyarrow")

    empty_manifest = pd.DataFrame({
        "key": pd.Series([], dtype="str"),
        "rows": pd.Series([], dtype="int64"),
        "fingerprint": pd.Series([], dtype="str"),
        "config_hash": pd.Series([], dtype="str")})

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        key = tuple(int(g[k].iloc[0]) for k in key_cols)
        if key in skip_keys:
            return empty_manifest
        out = group_fn(g)
        pdir = _part_dir(out_dir, key_cols, key)
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, f".tmp-{uuid.uuid4().hex}")
        pq.write_table(pa.Table.from_pandas(out, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(pdir, "part.parquet"))
        fp = hashlib.sha1(
            pd.util.hash_pandas_object(
                out.astype(str).sort_values(list(out.columns))
                .reset_index(drop=True)).values.tobytes()).hexdigest()
        # commit the partition's manifest row HERE (same worker, right
        # after the data rename) so a mid-run kill leaves a resumable
        # record for every finished partition
        row = {"key": list(key), "rows": int(len(out)), "fingerprint": fp,
               "config_hash": config_hash}
        mtmp = os.path.join(pdir, f".mtmp-{uuid.uuid4().hex}")
        with open(mtmp, "w") as f:
            json.dump(row, f, sort_keys=True)
        os.replace(mtmp, os.path.join(pdir, "manifest.json"))
        return pd.DataFrame({
            "key": [json.dumps(list(key))],
            "rows": [np.int64(len(out))],
            "fingerprint": [fp],
            "config_hash": [config_hash]})

    manifest_ds = ds.groupby(key_cols).map_groups(write_group,
                                                  batch_format="pandas")
    mrows = manifest_ds.to_pandas()
    rows = [{"key": json.loads(r["key"]), "rows": int(r["rows"]),
             "fingerprint": r["fingerprint"],
             "config_hash": r["config_hash"]}
            for _, r in mrows.iterrows()]
    _append_manifest(out_dir, rows)
    return mrows


def read_output(out_dir: str) -> pd.DataFrame:
    """All completed partitions' rows (driver-side; for big outputs use
    ray.data.read_parquet on out_dir/part)."""
    import glob
    files = sorted(glob.glob(os.path.join(out_dir, "part", "**",
                                          "part.parquet"), recursive=True))
    if not files:
        return pd.DataFrame()
    return pd.concat([pq.read_table(f).to_pandas() for f in files],
                     ignore_index=True)
