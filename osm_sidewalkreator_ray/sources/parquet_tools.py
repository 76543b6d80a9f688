"""Parquet dataset maintenance: a versioned (manifest) table.

``commit_append`` / ``commit_replace`` / ``commit_merge`` publish
snapshots, ``read_table_version`` reads any of them (time travel) and
``vacuum_table`` drops what no kept version lists.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


# ------------------------------------------- versioned table (manifest)
#
# Lakehouse-lite snapshot isolation: a table directory whose state is
# whatever the LATEST manifest lists — writers add data files then
# publish a new manifest atomically (temp + rename), so readers never
# see a half-commit and every historical version stays readable
# (time travel) until explicitly vacuumed. Appends reuse all prior
# files (commit cost = delta); a replace or merge publishes a rewritten
# file list as a NEW version without touching old manifests.


def _versions_dir(table_dir: str) -> str:
    d = os.path.join(table_dir, "_versions")
    os.makedirs(d, exist_ok=True)
    return d


def table_versions(table_dir: str) -> list[int]:
    d = _versions_dir(table_dir)
    return sorted(int(f[1:-5]) for f in os.listdir(d)
                  if f.startswith("v") and f.endswith(".json"))


def _read_manifest(table_dir: str, version: int) -> list[str]:
    import json
    with open(os.path.join(_versions_dir(table_dir),
                           f"v{version}.json")) as f:
        return json.load(f)["files"]


def _publish(table_dir: str, files: list[str]) -> int:
    import json
    vs = table_versions(table_dir)
    v = (vs[-1] + 1) if vs else 1
    path = os.path.join(_versions_dir(table_dir), f"v{v}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"version": v, "files": sorted(files)}, f)
    os.replace(tmp, path)
    return v


def commit_append(ds, table_dir: str) -> int:
    """Append ``ds`` as a new table version; returns the version id.
    Data files land under data/ first (content-addressed via the
    block writer — a block identical to an existing file REUSES it),
    the manifest publishes last: a crash before publish leaves the
    table at the previous version, orphan files only."""
    written = _write_parquet_blocks(ds,
                                    os.path.join(table_dir, "data"))
    vs = table_versions(table_dir)
    prev = _read_manifest(table_dir, vs[-1]) if vs else []
    rel = [os.path.join("data", os.path.basename(f))
           for f in written]
    return _publish(table_dir, sorted(set(prev) | set(rel)))


def commit_replace(ds, table_dir: str) -> int:
    """Publish a version whose file list is EXACTLY ``ds`` rewritten
    (compaction / overwrite); older versions keep reading their own
    files (content-identical blocks are shared between versions)."""
    written = _write_parquet_blocks(ds,
                                    os.path.join(table_dir, "data"))
    return _publish(table_dir,
                    sorted(os.path.join("data", os.path.basename(f))
                           for f in set(written)))


def read_table_version(table_dir: str, version: int | None = None,
                       columns: list[str] | None = None):
    """Dataset of the given (default: latest) version's rows."""
    vs = table_versions(table_dir)
    if not vs:
        raise FileNotFoundError(f"no versions in {table_dir}")
    v = vs[-1] if version is None else version
    files = [os.path.join(table_dir, f)
             for f in _read_manifest(table_dir, v)]
    return rd.read_parquet(files, columns=columns)


def _write_parquet_blocks(ds, out_dir: str) -> list[str]:
    """One parquet file per block, content-hash names + atomic
    rename (same resumable contract as write_orc/write_ipc).
    Returns the written/reused file paths."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame({"path": pd.Series(dtype=object)})
        # hash the full IPC serialization of the (chunk-normalized)
        # block: covers EVERY buffer — validity bitmaps, string
        # offsets, data — plus schema and row order. Hashing only one
        # buffer per column (the former scheme) let different contents
        # collide to one content-addressed name and silently overwrite
        # each other across versions.
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t.combine_chunks())
        tag = hashlib.sha1(sink.getvalue()).hexdigest()[:16]
        path = os.path.join(out_dir, f"block-{tag}.parquet")
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return pd.DataFrame({"path": [path]})

    rows = (ds.map_batches(write, batch_format="pyarrow",
                           batch_size=None).to_pandas())
    return [] if rows.empty else rows["path"].tolist()


def commit_merge(table_dir: str, changeset, on: str,
                 delete_col: str | None = None) -> int:
    """CDC commit: apply a changeset (Dataset; one row per key,
    optional truthy ``delete_col`` marker) to the LATEST version via
    ``functions.joins.merge_into`` and publish the result as a new
    version — upsert+delete with snapshot isolation; concurrent
    readers of older versions are untouched."""
    from ..functions.joins import merge_into

    base = read_table_version(table_dir)
    merged = merge_into(base, changeset, on=on,
                        delete_col=delete_col)
    return commit_replace(merged, table_dir)


def vacuum_table(table_dir: str, keep_versions: int = 1) -> dict:
    """Drop all but the newest ``keep_versions`` manifests and delete
    data files no kept version references. Returns {files_deleted,
    versions_dropped}. Time travel to dropped versions ends here —
    the explicit lifecycle boundary."""
    vs = table_versions(table_dir)
    keep = vs[-keep_versions:] if keep_versions > 0 else []
    drop = [v for v in vs if v not in keep]
    referenced = set()
    for v in keep:
        referenced.update(_read_manifest(table_dir, v))
    data_dir = os.path.join(table_dir, "data")
    deleted = 0
    if os.path.isdir(data_dir):
        for f in sorted(os.listdir(data_dir)):
            rel = os.path.join("data", f)
            if rel not in referenced and f.endswith(".parquet"):
                os.remove(os.path.join(data_dir, f))
                deleted += 1
    for v in drop:
        os.remove(os.path.join(_versions_dir(table_dir),
                               f"v{v}.json"))
    return {"files_deleted": deleted, "versions_dropped": len(drop)}
