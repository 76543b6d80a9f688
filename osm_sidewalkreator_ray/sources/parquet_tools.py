"""Parquet dataset maintenance: compaction + schema-harmonized ingest.

``compact_parquet`` fixes the small-files problem a streaming writer
leaves behind (thousands of KB-sized files make every later read
metadata-bound): it coalesces blocks WITHOUT a shuffle
(``repartition(shuffle=False)`` only concatenates adjacent blocks) and
rewrites the dataset at a target rows-per-file, into a temp directory
renamed over only on success so a crashed compaction never destroys
the input's readers.

``read_parquet_harmonized`` ingests several parquet sources whose
schemas drifted (a column added mid-crawl, an int32 that became int64)
into ONE dataset with a declared target schema: each source is read
with only the columns it actually has, per-batch cast/null-fill aligns
it (zero shuffle), and the sources union. The alternative — pyarrow's
unify_schemas at read time — cannot add missing columns per file
inside Ray's parquet reader.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def compact_parquet(in_dir: str, out_dir: str,
                    target_rows_per_file: int = 1_000_000) -> dict:
    """Rewrite ``in_dir`` (a parquet file or directory tree) into
    ``out_dir`` with ~target_rows_per_file rows per file. Shuffle-free
    (adjacent-block coalesce). Returns {rows, files_before,
    files_after}."""
    files_before = sum(
        1 for root, _, fs in os.walk(in_dir)
        for f in fs if f.endswith(".parquet")) \
        if os.path.isdir(in_dir) else 1
    ds = rd.read_parquet(in_dir)
    n = ds.count()
    blocks = max(1, -(-n // target_rows_per_file))
    tmp = out_dir.rstrip("/") + ".compacting"
    if os.path.exists(tmp):
        import shutil
        shutil.rmtree(tmp)
    ds.repartition(blocks, shuffle=False).write_parquet(tmp)
    os.rename(tmp, out_dir)
    files_after = sum(1 for _, _, fs in os.walk(out_dir)
                      for f in fs if f.endswith(".parquet"))
    return {"rows": int(n), "files_before": int(files_before),
            "files_after": int(files_after)}


def read_parquet_harmonized(paths: list[str],
                            schema: dict[str, pa.DataType]):
    """Read several parquet sources into one Dataset with the target
    ``schema`` (name -> pyarrow type, in output column order): missing
    columns fill with nulls, present columns cast. Raises if a source
    has a column that cannot cast."""
    cols = list(schema)
    parts = []
    for p in paths:
        have = set(pq.read_schema(
            p if not os.path.isdir(p) else os.path.join(
                p, sorted(f for f in os.listdir(p)
                          if f.endswith(".parquet"))[0])).names)
        use = [c for c in cols if c in have]

        def align(t: pa.Table, _use=tuple(use)) -> pa.Table:
            arrays = []
            for c in cols:
                if c in _use:
                    arrays.append(t[c].cast(schema[c]))
                else:
                    arrays.append(pa.nulls(t.num_rows, schema[c]))
            return pa.table(dict(zip(cols, arrays)))

        parts.append(rd.read_parquet(p, columns=use)
                     .map_batches(align, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


# ------------------------------------------------ zone-map file pruning
#
# File skipping for selective scans: ``build_zone_map`` collects one
# (path, min, max, null_count, rows) row per file per column from
# parquet FOOTER metadata only (no data pages read; row-group stats
# folded per file), persisted as a tiny manifest parquet.
# ``read_parquet_pruned`` consults the manifest and hands Ray's
# reader ONLY the files whose [min, max] range can satisfy the
# predicate — at 100 TB a selective predicate over a layout sorted or
# partitioned on the column skips almost every file before a single
# byte of data moves. Pruning is conservative (files lacking
# stats for the column are kept) and therefore always correct; an
# optional residual row filter finishes the job.


def _file_zones(path: str, columns: list[str]) -> list[dict]:
    """Footer-only (file, column) zone rows for one parquet file."""
    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
    rows = []
    for col in columns:
        if col not in idx:
            continue
        mins, maxs, nulls = [], [], 0
        ok = True
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx[col]).statistics
            if st is None or not st.has_min_max:
                ok = False
                break
            mins.append(st.min)
            maxs.append(st.max)
            nulls += st.null_count or 0
        rows.append({
            "path": path, "column": col,
            "vmin": min(mins) if ok else None,
            "vmax": max(maxs) if ok else None,
            "nulls": nulls if ok else -1,
            "rows": md.num_rows})
    return rows


def build_zone_map(in_dir: str, columns: list[str],
                   manifest_path: str | None = None) -> pd.DataFrame:
    """One row per (file, column): (path, column, vmin, vmax, nulls,
    rows) with NATIVE stat values (object dtype). Footer reads fan
    out as Ray tasks (one per file batch) — a million-file dataset's
    zone map builds at cluster width, not driver speed. The optional
    persisted manifest stringifies values for inspection and is NOT
    the pruning input (rebuilds are footer-only and cheap)."""
    names = sorted(f for f in os.listdir(in_dir)
                   if f.endswith(".parquet"))
    paths = [os.path.join(in_dir, n) for n in names]

    def zones(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for path in b["path"]:
            rows.extend(_file_zones(path, columns))
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"path": pd.Series(dtype=object),
             "column": pd.Series(dtype=object),
             "vmin": pd.Series(dtype=object),
             "vmax": pd.Series(dtype=object),
             "nulls": pd.Series(dtype="int64"),
             "rows": pd.Series(dtype="int64")})

    mf = (rd.from_pandas(pd.DataFrame({"path": paths}))
          .map_batches(zones, batch_format="pandas", batch_size=64)
          .to_pandas().sort_values(["path", "column"])
          .reset_index(drop=True))
    if manifest_path:
        disp = mf.copy()
        disp["vmin"] = disp["vmin"].map(repr)
        disp["vmax"] = disp["vmax"].map(repr)
        disp.to_parquet(manifest_path)
    return mf


def prune_files(manifest: pd.DataFrame, column: str,
                lo=None, hi=None) -> list[str]:
    """Paths whose [vmin, vmax] zone intersects [lo, hi] (either bound
    may be None = unbounded). Files without stats are conservatively
    kept."""
    all_paths = sorted(manifest["path"].unique())
    m = manifest[manifest["column"] == column]
    keep = set(all_paths) - set(m["path"])  # no zone row -> keep
    for _, r in m.iterrows():
        vmin, vmax = r["vmin"], r["vmax"]
        if vmin is None:
            keep.add(r["path"])
            continue
        if (lo is None or vmax >= lo) and (hi is None or vmin <= hi):
            keep.add(r["path"])
    return sorted(keep)


def read_parquet_pruned(in_dir: str, manifest: pd.DataFrame,
                        column: str, lo=None, hi=None,
                        columns: list[str] | None = None,
                        exact: bool = True):
    """Dataset of rows with lo <= column <= hi, reading ONLY the files
    the zone map cannot rule out. ``exact=True`` applies the residual
    per-batch filter (zone pruning alone admits whole surviving
    files)."""
    paths = prune_files(manifest, column, lo, hi)
    if not paths:
        sch = pq.read_schema(
            os.path.join(in_dir, sorted(
                f for f in os.listdir(in_dir)
                if f.endswith(".parquet"))[0]))
        if columns:
            sch = pa.schema([sch.field(c) for c in columns])
        return rd.from_arrow(sch.empty_table())
    ds = rd.read_parquet(paths, columns=columns)
    if not exact:
        return ds

    def residual(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = None
        if lo is not None:
            mask = pc.greater_equal(t[column], lo)
        if hi is not None:
            le = pc.less_equal(t[column], hi)
            mask = le if mask is None else pc.and_(mask, le)
        return t.filter(mask) if mask is not None else t

    return ds.map_batches(residual, batch_format="pyarrow")


# ------------------------------------------- versioned table (manifest)
#
# Lakehouse-lite snapshot isolation: a table directory whose state is
# whatever the LATEST manifest lists — writers add data files then
# publish a new manifest atomically (temp + rename), so readers never
# see a half-commit and every historical version stays readable
# (time travel) until explicitly vacuumed. Appends reuse all prior
# files (commit cost = delta); compaction publishes a rewritten file
# list as a NEW version without touching old manifests.


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
