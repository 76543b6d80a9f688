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
  morphology on the mask,
- polygon extraction == boundary tracing of the mask (foreground kept on
  the left, 4-connectivity), rings simplified by collinear removal +
  Douglas-Peucker at one pixel.

Everything is deterministic: same inputs -> same mask -> same rings.
Work is bounded per (cell, protoblock): a city block at 0.5 m is a
couple hundred pixels across, which is what makes this kernel safe to
run inside ``map_groups`` at 100 TB scale.
"""

from __future__ import annotations

import numpy as np


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


def _disk_offsets(k: int) -> list[tuple[int, int]]:
    out = []
    for dx in range(-k, k + 1):
        for dy in range(-k, k + 1):
            if dx * dx + dy * dy <= k * k:
                out.append((dx, dy))
    return out


def _shift_or(dst: np.ndarray, src: np.ndarray, dx: int, dy: int, op) -> None:
    ny, nx = src.shape
    x0s, x1s = max(0, -dx), min(nx, nx - dx)
    y0s, y1s = max(0, -dy), min(ny, ny - dy)
    x0d, x1d = max(0, dx), min(nx, nx + dx)
    y0d, y1d = max(0, dy), min(ny, ny + dy)
    if x0s >= x1s or y0s >= y1s:
        return
    op(dst[y0d:y1d, x0d:x1d], src[y0s:y1s, x0s:x1s], out=dst[y0d:y1d, x0d:x1d])


def binary_dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """Dilate by a disk of radius k pixels (exact)."""
    if k <= 0:
        return mask.copy()
    out = mask.copy()
    for dx, dy in _disk_offsets(k):
        if dx == 0 and dy == 0:
            continue
        _shift_or(out, mask, dx, dy, np.logical_or)
    return out


def binary_erode(mask: np.ndarray, k: int) -> np.ndarray:
    """Erode by a disk of radius k pixels (border counts as background)."""
    if k <= 0:
        return mask.copy()
    out = mask.copy()
    inv = ~mask
    # x eroded iff no background within the disk
    bg_near = inv.copy()
    for dx, dy in _disk_offsets(k):
        if dx == 0 and dy == 0:
            continue
        _shift_or(bg_near, inv, dx, dy, np.logical_or)
    # pixels near the array border lose coverage -> treat outside as bg
    out &= ~bg_near
    out[:k, :] = False; out[-k:, :] = False
    out[:, :k] = False; out[:, -k:] = False
    return out


def open_mask(mask: np.ndarray, k: int) -> np.ndarray:
    """Morphological opening (erode then dilate) — rounds convex corners,
    removes slivers thinner than 2k pixels. Equals the reference's
    closing of the buffer union viewed from the hole side (M7)."""
    return binary_dilate(binary_erode(mask, k), k)


# ------------------------------------------------------------- contours

_VECS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def trace_contours(mask: np.ndarray, origin: tuple[float, float], res: float):
    """Boundary loops of the mask as coordinate rings.

    Returns a list of (ring[N,2] closed, signed_area): positive area =
    outer shell (CCW), negative = hole (CW). Foreground is kept on the
    left; diagonal pixel contact is traced as separate regions
    (4-connectivity), resolved by the leftmost-turn rule.
    """
    ny, nx = mask.shape
    if not mask.any():
        return []
    ox, oy = origin
    fg = mask
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = fg
    # boundary-edge masks, fully vectorized (pad index = (y+1, x+1))
    below = fg & ~pad[:-2, 1:-1]
    above = fg & ~pad[2:, 1:-1]
    left = fg & ~pad[1:-1, :-2]
    right = fg & ~pad[1:-1, 2:]
    # directed edges: start corner -> list of dir codes; only boundary
    # pixels enter the Python dict (O(perimeter), not O(area))
    edges: dict[tuple[int, int], list[int]] = {}

    def add_all(ys, xs, sx_off, sy_off, d):
        for x, y in zip(xs, ys):
            edges.setdefault((x + sx_off, y + sy_off), []).append(d)

    ys, xs = np.nonzero(below)
    add_all(ys, xs, 0, 0, 0)          # BL -> BR, +x
    ys, xs = np.nonzero(right)
    add_all(ys, xs, 1, 0, 1)          # BR -> TR, +y
    ys, xs = np.nonzero(above)
    add_all(ys, xs, 1, 1, 2)          # TR -> TL, -x
    ys, xs = np.nonzero(left)
    add_all(ys, xs, 0, 1, 3)          # TL -> BL, -y
    rings = []
    # deterministic iteration order
    for start in sorted(edges.keys()):
        while edges.get(start):
            d = edges[start].pop()
            ring = [start]
            cx, cy = start
            cd = d
            while True:
                vx, vy = _VECS[cd]
                cx, cy = cx + vx, cy + vy
                ring.append((cx, cy))
                if (cx, cy) == start:
                    break
                outs = edges.get((cx, cy))
                if not outs:
                    # dead end should not happen on a valid mask
                    break
                if len(outs) == 1:
                    cd = outs.pop()
                else:
                    # leftmost turn first: order candidates by (turn) where
                    # left turn = (cd+1)%4, straight = cd, right = (cd-1)%4
                    for cand in ((cd + 1) % 4, cd, (cd - 1) % 4):
                        if cand in outs:
                            outs.remove(cand)
                            cd = cand
                            break
                    else:
                        cd = outs.pop()
            if len(ring) < 4:
                continue
            arr = np.asarray(ring, dtype=np.float64)
            arr[:, 0] = ox + arr[:, 0] * res
            arr[:, 1] = oy + arr[:, 1] * res
            x_, y_ = arr[:, 0], arr[:, 1]
            area = 0.5 * float(np.sum(x_[:-1] * y_[1:] - x_[1:] * y_[:-1]))
            rings.append((arr, area))
    return rings


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
