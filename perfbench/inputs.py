"""Input synthesis for the benchmark, run in its own process so that it
stays outside every timed region and outside ``setup_s``.

    python3 perfbench/inputs.py {pages|docs|streets} N SEED OUT_DIR

Each input is a pure function of (kind, N, SEED) and of the sources
hashed by ``code_key()``, and is cached under ``OUT_DIR`` keyed by all
four; a ``_SUCCESS`` marker written last marks a complete entry, so an
interrupted synthesis is redone rather than read half-written. The
content of each input is fixed (``BASE_SEED`` or a committed file) and
SEED permutes its row order: every run does the same work, so the
run-to-run spread is the system's and the host's, not the inputs'.

- ``pages``: the package's Common-Crawl-style page corpus
  (``pages_corpus(N, BASE_SEED)``) as parquet, plus ``geotags.parquet``:
  the (url, lat, lon, h3_cell) rows the page kernels extract from it,
  computed here without Ray. Those rows are the reference count for
  the join's conservation checks.
- ``docs``: the first N rows of ``data/documents_sf0.1.parquet``, a
  byte-for-byte copy of the sf0.1 testdata ``documents.parquet`` that
  ``bench.py`` and ``jobs/curate_job.py`` read (5 000 documents).
- ``streets``: ``streets_grid(N, N, seed=BASE_SEED)`` as parquet.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BASE_SEED = 0
DOCUMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "documents_sf0.1.parquet")
# what every cached entry is derived from, relative to the checkout root
_KEYED_SOURCES = ("osm_sidewalkreator_ray/**/*.py", "perfbench/**/*.py",
                  "perfbench/data/*", "tests/test_golden_queries.py",
                  "fixtures/queries_sf001/sidewalk_features.parquet",
                  "fixtures/queries_sf001/page_tile_join.parquet")


@functools.lru_cache(maxsize=None)
def code_key() -> str:
    """Hash of the package sources, the benchmark's own files and the
    golden fixtures the cross-check reads. Every cached entry (inputs,
    the cross-check verdict, the join scope) is stored under this key,
    so an edit to any of them makes the next run recompute it."""
    h = hashlib.sha1()
    for pattern in _KEYED_SOURCES:
        for path in sorted(glob.glob(pattern, recursive=True)):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def entry_dir(root: str, kind: str, n: int, seed: int) -> str:
    return os.path.join(root, f"{kind}_n{n}_s{seed}_{code_key()}")


def is_complete(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_SUCCESS"))


def _permuted(table: pa.Table, seed: int) -> pa.Table:
    return table.take(np.random.default_rng(seed).permutation(len(table)))


def _write_pages(out: str, n: int, seed: int) -> None:
    from osm_sidewalkreator_ray import cells
    from osm_sidewalkreator_ray.config import DEFAULT_CONFIG
    from osm_sidewalkreator_ray.sources.synthetic import pages_corpus
    from osm_sidewalkreator_ray.stages.geotags import page_geotag_batch

    pages = _permuted(pages_corpus(n, BASE_SEED), seed)
    # several row groups so a parquet read splits into several blocks
    pq.write_table(pages, os.path.join(out, "pages.parquet"),
                   row_group_size=2048)
    tags = page_geotag_batch(pages.select(["url", "html"]).to_pandas())
    tags["h3_cell"] = np.asarray(cells.latlng_to_cell(
        tags["lat"].to_numpy(), tags["lon"].to_numpy(),
        DEFAULT_CONFIG.cell_res), dtype=np.int64)
    pq.write_table(pa.Table.from_pandas(tags, preserve_index=False),
                   os.path.join(out, "geotags.parquet"))


def synthesize(kind: str, n: int, seed: int, root: str) -> str:
    out = entry_dir(root, kind, n, seed)
    if is_complete(out):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if kind == "pages":
        _write_pages(out, n, seed)
    elif kind == "docs":
        pq.write_table(_permuted(pq.read_table(DOCUMENTS).slice(0, n),
                                 seed),
                       os.path.join(out, "documents.parquet"))
    elif kind == "streets":
        from osm_sidewalkreator_ray.sources.synthetic import streets_grid
        pq.write_table(_permuted(streets_grid(n=n, m=n, seed=BASE_SEED),
                                 seed),
                       os.path.join(out, "streets.parquet"))
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    with open(os.path.join(out, "_SUCCESS"), "w") as f:
        f.write("ok\n")
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    kind, n, seed, root = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), \
        sys.argv[4]
    print(synthesize(kind, n, seed, root))
