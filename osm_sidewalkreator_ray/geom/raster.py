"""Distance-field + binary-morphology + contour-tracing kernel.

This replaces the reference's GEOS buffer/dissolve/difference chain
(M6 variable buffer ``generic_functions.py:52-89``, M7 morphological
open/close ``osm_sidewalkreator.py:1909-1918``, M8 sidewalk extraction
by difference ``:1920-1943``) which is unavailable without GEOS. The
semantics are preserved at a fixed resolution (default 0.5 m,
``PipelineConfig.raster_res_m``):

- dissolved variable-width buffer == {x : min_i(dist(x, seg_i) - hw_i) <= 0}
  computed exactly per pixel (the distance field is analytic, not sampled
  from a rasterized line),
- morphological open/close by the curve radius == exact binary disk
  morphology on the mask, by row runs: the radius-k disk is 2k+1
  horizontal runs, so a dilation is O(log k) shifted ORs per run width
  plus 2k+1 row-shifted ORs, not one shifted OR per disk pixel,
- polygon extraction == boundary tracing of the mask (foreground kept on
  the left, 4-connectivity), vectorized over the boundary edges; rings
  simplified by collinear removal + Douglas-Peucker at one pixel.

Everything is deterministic: same inputs -> same mask -> same rings.
Work is bounded per (cell, protoblock): a city block at 0.5 m is a
couple hundred pixels across, which is what makes this kernel safe to
run inside ``map_groups`` at 100 TB scale.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ring_signed_area


def distance_field(s0: np.ndarray, s1: np.ndarray, halfwidth: np.ndarray,
                   origin: tuple[float, float], shape: tuple[int, int],
                   res: float, pad_dist: float = 0.0) -> np.ndarray:
    """Signed distance to the union of variable-width segment buffers.

    field[iy, ix] = min over segments of (dist(pixel center, seg) - hw).
    Only pixels within each segment's inflated bbox are updated, so cost
    is O(sum of inflated-bbox pixels), not O(n_seg * n_pixels).
    """
    ny, nx = shape
    field = np.full((ny, nx), np.inf, dtype=np.float64)
    if len(s0) == 0:
        return field
    ox, oy = origin
    xs = ox + (np.arange(nx) + 0.5) * res
    ys = oy + (np.arange(ny) + 0.5) * res
    for i in range(len(s0)):
        hw = halfwidth[i]
        pad = hw + pad_dist + 2 * res
        mnx = min(s0[i, 0], s1[i, 0]) - pad
        mxx = max(s0[i, 0], s1[i, 0]) + pad
        mny = min(s0[i, 1], s1[i, 1]) - pad
        mxy = max(s0[i, 1], s1[i, 1]) + pad
        ix0 = max(0, int((mnx - ox) / res)); ix1 = min(nx, int((mxx - ox) / res) + 1)
        iy0 = max(0, int((mny - oy) / res)); iy1 = min(ny, int((mxy - oy) / res) + 1)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        px = xs[ix0:ix1][None, :]
        py = ys[iy0:iy1][:, None]
        ax, ay = s0[i]; bx, by = s1[i]
        abx, aby = bx - ax, by - ay
        ab2 = abx * abx + aby * aby
        if ab2 > 0:
            t = np.clip(((px - ax) * abx + (py - ay) * aby) / ab2, 0.0, 1.0)
        else:
            t = 0.0
        dx = px - (ax + t * abx)
        dy = py - (ay + t * aby)
        d = np.sqrt(dx * dx + dy * dy) - hw
        np.minimum(field[iy0:iy1, ix0:ix1], d, out=field[iy0:iy1, ix0:ix1])
    return field


def binary_dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """Dilate by a disk of radius k pixels (exact): each row by its run
    of half-width isqrt(k^2 - dy^2), by doubling shifted ORs on a
    zero-padded copy, then the 2k+1 row-shifted runs ORed together."""
    if k <= 0:
        return mask.copy()
    ny, nx = mask.shape
    # run[:, i] = OR of padded[:, i:i + length]
    run = np.zeros((ny, nx + 2 * k), dtype=bool)
    run[:, k:k + nx] = mask
    length = 1
    out = np.zeros_like(mask)
    # rows shifted by ny or more fall off the array
    for dy in range(min(k, ny - 1), -1, -1):
        w = math.isqrt(k * k - dy * dy)
        while length < 2 * w + 1:
            step = min(length, 2 * w + 1 - length)
            run[:, :-step] |= run[:, step:]
            length += step
        row = run[:, k - w:k - w + nx]
        out[dy:] |= row[:ny - dy]
        if dy:
            out[:-dy] |= row[dy:]
    return out


def binary_erode(mask: np.ndarray, k: int) -> np.ndarray:
    """Erode by a disk of radius k pixels (border counts as background)."""
    if k <= 0:
        return mask.copy()
    # x eroded iff no background within the disk
    out = mask & ~binary_dilate(~mask, k)
    # pixels near the array border lose coverage -> treat outside as bg
    out[:k, :] = False; out[-k:, :] = False
    out[:, :k] = False; out[:, -k:] = False
    return out


def open_mask(mask: np.ndarray, k: int) -> np.ndarray:
    """Morphological opening (erode then dilate) — rounds convex corners,
    removes slivers thinner than 2k pixels. Equals the reference's
    closing of the buffer union viewed from the hole side (M7)."""
    return binary_dilate(binary_erode(mask, k), k)


# ------------------------------------------------------------- contours

def trace_contours(mask: np.ndarray, origin: tuple[float, float], res: float):
    """Boundary loops of the mask as coordinate rings.

    Returns a list of (ring[N,2] closed, signed_area): positive area =
    outer shell (CCW), negative = hole (CW). Foreground is kept on the
    left; diagonal pixel contact is traced as separate regions
    (4-connectivity), resolved by the leftmost-turn rule.

    Rings start at, and come in the order of, their loop's smallest
    (x, y) corner: successor array + pointer jumping over the edges.
    """
    ny, nx = mask.shape
    if not mask.any():
        return []
    ox, oy = origin
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask
    # directed boundary edges by dir code d (pad index = (y+1, x+1))
    d, ys, xs = np.nonzero(np.stack((
        mask & ~pad[:-2, 1:-1],     # 0 below: BL -> BR, +x
        mask & ~pad[1:-1, 2:],      # 1 right: BR -> TR, +y
        mask & ~pad[2:, 1:-1],      # 2 above: TR -> TL, -x
        mask & ~pad[1:-1, :-2])))   # 3 left: TL -> BL, -y
    n = len(d)
    # start corner keys, ordered by (x, y)
    sx = xs + np.array([0, 1, 1, 0])[d]
    sy = ys + np.array([0, 0, 1, 1])[d]
    start = sx * (ny + 1) + sy
    end = start + np.array([ny + 1, 1, -(ny + 1), -1])[d]
    # successor: the out edge at the end corner that turns left (two
    # out edges only where pixels touch diagonally), else the only one
    key = start * 4 + d
    order = np.argsort(key)
    skey = key[order]
    want = end * 4 + (d + 1) % 4
    i = np.minimum(np.searchsorted(skey, want), n - 1)
    succ = order[np.where(skey[i] == want, i,
                          np.searchsorted(skey, end * 4))]
    # each loop's smallest start corner, by pointer jumping
    lo, p, span = start, succ, 1
    while span < n:
        lo = np.minimum(lo, lo[p]); p = p[p]; span *= 2
    # a ring runs from the edge leaving that corner back to it
    first = start == lo
    last = first[succ]
    left = (~last).astype(np.int64)   # edges left after this one
    p = np.where(last, np.arange(n), succ)
    span = 1
    while span < n:
        left = left + left[p]; p = p[p]; span *= 2
    heads = np.flatnonzero(first)
    heads = heads[np.argsort(start[heads])]
    rank = np.empty(n, dtype=np.int64)
    rank[p[heads]] = np.arange(len(heads))
    walk = np.lexsort((-left, rank[p]))
    xy = np.column_stack((sx[walk], sy[walk])).astype(np.float64)
    xy[:, 0] = ox + xy[:, 0] * res
    xy[:, 1] = oy + xy[:, 1] * res
    rings = [np.vstack((part, part[:1])) for part in
             np.split(xy, np.cumsum(left[heads] + 1)[:-1])]
    return [(ring, ring_signed_area(ring)) for ring in rings]


def simplify_ring(ring: np.ndarray, tol: float) -> np.ndarray:
    """Collinear removal + iterative Douglas-Peucker on a closed ring."""
    if len(ring) <= 4:
        return ring
    open_part = ring[:-1]
    # split at the two extreme points to anchor DP on a closed curve
    i0 = int(np.argmin(open_part[:, 0] + open_part[:, 1]))
    rolled = np.roll(open_part, -i0, axis=0)
    pts = np.vstack((rolled, rolled[:1]))
    keep = _douglas_peucker(pts, tol)
    out = pts[keep]
    if len(out) < 4:
        return ring
    return out


def _douglas_peucker(pts: np.ndarray, tol: float) -> np.ndarray:
    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        a, b = pts[i], pts[j]
        ab = b - a
        seg = pts[i + 1:j] - a
        L2 = ab @ ab
        if L2 == 0:
            d = np.linalg.norm(seg, axis=1)
        else:
            d = np.abs(seg[:, 0] * ab[1] - seg[:, 1] * ab[0]) / np.sqrt(L2)
        k = int(np.argmax(d))
        if d[k] > tol:
            m = i + 1 + k
            keep[m] = True
            stack.append((i, m))
            stack.append((m, j))
    return np.nonzero(keep)[0]


def simplify_line(line: np.ndarray, tol: float) -> np.ndarray:
    """Douglas-Peucker on an OPEN polyline — endpoints always kept, max
    perpendicular deviation of dropped points <= tol."""
    if len(line) <= 2:
        return line
    return line[_douglas_peucker(np.asarray(line, dtype=np.float64),
                                 tol)]
