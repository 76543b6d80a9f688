"""Spatial cell index — the engine's partition key (H3/S2 stand-in).

No ``h3`` binding exists in this environment, so the engine uses a
deterministic quadtree-style lat/lon grid with an h3-like API. A cell at
resolution ``r`` is a square of ``180 / 2**r`` degrees; at the default
r=13 that is ~0.022 deg (~2.4 km N-S) — one cell covers roughly a
neighborhood, matching SURVEY.md §4.2's guidance (streets per cell
~10^2-10^3). Cell ids are int64: ``(r << 58) | (ix << 29) | iy``.

The id is a pure function of (lat, lon, r): everything derived from it
(local projection frame, neighbor rings, bounds) is deterministic and
partition-local — no global CRS object, exactly the property SURVEY.md
§1.3 requires of the custom-local-TM replacement.

All functions are numpy-vectorized and accept scalars or arrays.
"""

from __future__ import annotations

import numpy as np


def _delta(res: int) -> float:
    return 180.0 / (1 << res)


def latlng_to_cell(lat, lon, res: int):
    """Vectorized (lat, lon) -> int64 cell id at resolution ``res``."""
    d = _delta(res)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    ix = np.floor((lon + 180.0) / d).astype(np.int64)
    iy = np.floor((lat + 90.0) / d).astype(np.int64)
    nx = np.int64(2 << res)  # 360/d
    ny = np.int64(1 << res)  # 180/d
    ix = np.clip(ix, 0, nx - 1)
    iy = np.clip(iy, 0, ny - 1)
    cell = (np.int64(res) << 58) | (ix << 29) | iy
    return cell if cell.shape else np.int64(cell)


def cell_res(cell):
    return (np.asarray(cell, dtype=np.int64) >> 58) & 0x3F


def cell_ixy(cell):
    cell = np.asarray(cell, dtype=np.int64)
    ix = (cell >> 29) & ((1 << 29) - 1)
    iy = cell & ((1 << 29) - 1)
    return ix, iy


def cell_parent(cell, parent_res: int):
    """Vectorized ancestor cell at ``parent_res`` (quadtree containment).

    Parent indices are exact integer shifts of the child's (ix, iy) —
    NOT a re-quantization of the centroid — so parent/child containment
    is exact even where a float re-division of the coordinate would
    round across a cell boundary.
    """
    cell = np.asarray(cell, dtype=np.int64)
    k = cell_res(cell) - np.int64(parent_res)
    if np.any(k < 0):
        raise ValueError("parent_res must be <= the cell's resolution")
    ix, iy = cell_ixy(cell)
    out = (np.int64(parent_res) << 58) | ((ix >> k) << 29) | (iy >> k)
    return out if out.shape else np.int64(out)


def cell_bounds(cell):
    """cell -> (min_lon, min_lat, max_lon, max_lat), vectorized."""
    cell = np.asarray(cell, dtype=np.int64)
    res = cell_res(cell)
    d = 180.0 / (np.int64(1) << res).astype(np.float64)
    ix, iy = cell_ixy(cell)
    min_lon = ix * d - 180.0
    min_lat = iy * d - 90.0
    return min_lon, min_lat, min_lon + d, min_lat + d


def cell_center(cell):
    """cell -> (lat, lon) of the cell centroid (the local-frame origin)."""
    min_lon, min_lat, max_lon, max_lat = cell_bounds(cell)
    return (min_lat + max_lat) / 2.0, (min_lon + max_lon) / 2.0


def k_ring(cell: int, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k (incl. the cell itself)."""
    cell = int(cell)
    res = int(cell_res(cell))
    ix, iy = cell_ixy(cell)
    nx = 2 << res
    ny = 1 << res
    dx, dy = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
    jx = (int(ix) + dx.ravel()) % nx
    jy = np.clip(int(iy) + dy.ravel(), 0, ny - 1)
    out = (np.int64(res) << 58) | (jx.astype(np.int64) << 29) | jy.astype(np.int64)
    return np.unique(out)


def cover_bbox(min_lon, min_lat, max_lon, max_lat, res: int) -> np.ndarray:
    """All cells intersecting one bbox (small covers only — AOI-scale)."""
    d = _delta(res)
    ix0 = int(np.floor((min_lon + 180.0) / d))
    ix1 = int(np.floor((max_lon + 180.0) / d))
    iy0 = int(np.floor((min_lat + 90.0) / d))
    iy1 = int(np.floor((max_lat + 90.0) / d))
    jx, jy = np.meshgrid(np.arange(ix0, ix1 + 1), np.arange(iy0, iy1 + 1))
    return ((np.int64(res) << 58) | (jx.ravel().astype(np.int64) << 29)
            | jy.ravel().astype(np.int64))


def cover_bboxes(min_lon, min_lat, max_lon, max_lat, res: int):
    """Vectorized covering cells for N bboxes.

    Returns (row_idx, cell): one output row per (input geometry, cell)
    pair — the cell-cover duplication of SURVEY.md M17. ``is_primary``
    is decided by the caller via the bbox-center cell.
    """
    d = _delta(res)
    ix0 = np.floor((np.asarray(min_lon) + 180.0) / d).astype(np.int64)
    ix1 = np.floor((np.asarray(max_lon) + 180.0) / d).astype(np.int64)
    iy0 = np.floor((np.asarray(min_lat) + 90.0) / d).astype(np.int64)
    iy1 = np.floor((np.asarray(max_lat) + 90.0) / d).astype(np.int64)
    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    counts = (nx * ny).astype(np.int64)
    row_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # local rank within each geometry's cover
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
    gx = np.repeat(nx, counts)
    jx = ix0[row_idx] + rank % gx
    jy = iy0[row_idx] + rank // gx
    cell = (np.int64(res) << 58) | (jx << 29) | jy
    return row_idx, cell
