"""Vectorized scalar/geometry kernels (reference §2.8 expression layer).

Everything here is pure numpy over the ragged layouts of ``wkb.py``.
These replace the reference's per-feature QgsGeometry calls
(``generic_functions.py``: lengths, areas, distances, interpolation,
angle tests, intersection points) with batch-vectorized equivalents.
"""

from __future__ import annotations

import numpy as np


# -------------------------------------------------------------- measures

def line_lengths(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-line euclidean length (local metric frame)."""
    n = len(offsets) - 1
    if n == 0:
        return np.empty(0, dtype=np.float64)
    d = np.linalg.norm(np.diff(coords, axis=0), axis=1)
    # zero out the jumps between consecutive lines
    cut = np.zeros(len(d), dtype=bool)
    cut[offsets[1:-1] - 1] = True
    d = np.where(cut, 0.0, d)
    out = np.add.reduceat(np.concatenate((d, [0.0])),
                          np.asarray(offsets[:-1], dtype=np.intp))
    # reduceat on an empty trailing slice repeats values; lines of 1 point -> 0
    sizes = np.diff(offsets)
    out[sizes <= 1] = 0.0
    return out[:n]


def ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area of one closed ring (CCW positive)."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


# -------------------------------------------------------- point-segment

def point_segment_dist(px, py, ax, ay, bx, by):
    """Distance from points (px,py) to segments (a->b). Broadcasting ok."""
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    ab2 = abx * abx + aby * aby
    t = np.where(ab2 > 0, (apx * abx + apy * aby) / np.where(ab2 > 0, ab2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dx = apx - t * abx
    dy = apy - t * aby
    return np.sqrt(dx * dx + dy * dy)


# -------------------------------------------------------------- P-I-P

def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized ray-crossing test: are points inside one closed ring?

    Boundary points are treated per the even-odd crossing rule
    (half-open edges) — deterministic, adequate for the join semantics.
    """
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    px = px[:, None]; py = py[:, None]
    cond = (y0[None, :] > py) != (y1[None, :] > py)
    dy = y1 - y0
    dy = np.where(dy == 0, 1.0, dy)
    xint = x0[None, :] + (py - y0[None, :]) * ((x1 - x0)[None, :] / dy[None, :])
    crossings = (cond & (px < xint)).sum(axis=1)
    return (crossings % 2).astype(bool)


def grid_in_ring(gx: np.ndarray, gy: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """``points_in_ring`` over the mesh of ascending ``gx`` x ``gy``, as a
    (len(gy), len(gx)) mask, by a scanline parity fill: a crossing at
    ``xint`` (the same expression) counts for the ``searchsorted(gx,
    xint)`` pixels left of it, so one toggle per crossing and a reversed
    XOR scan along x give the parity in O(pixels) bytes.
    """
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    rows, e = np.nonzero((y0[None, :] > gy[:, None])
                         != (y1[None, :] > gy[:, None]))
    xint = x0[e] + (gy[rows] - y0[e]) * ((x1[e] - x0[e]) / (y1[e] - y0[e]))
    n = np.searchsorted(gx, xint, side="left")
    toggles = np.zeros((len(gy), len(gx)), dtype=np.uint8)
    np.bitwise_xor.at(toggles, (rows[n > 0], n[n > 0] - 1), 1)
    parity = np.bitwise_xor.accumulate(toggles[:, ::-1], axis=1)
    return parity[:, ::-1].view(bool)


def points_in_polygon(px, py, coords, ring_offsets, poly_lo, poly_hi) -> np.ndarray:
    """Points inside one polygon (rings poly_lo..poly_hi; ring0 shell)."""
    inside = points_in_ring(px, py, coords[ring_offsets[poly_lo]:ring_offsets[poly_lo + 1]])
    for r in range(poly_lo + 1, poly_hi):
        hole = points_in_ring(px, py, coords[ring_offsets[r]:ring_offsets[r + 1]])
        inside &= ~hole
    return inside


# ------------------------------------------------- segment intersection

def segments_intersections(a0: np.ndarray, a1: np.ndarray,
                           b0: np.ndarray, b1: np.ndarray):
    """Pairwise proper+touching intersections of paired segment arrays.

    a0,a1,b0,b1: (N,2). Returns (mask, pts, ta, tb): for rows where the
    segments intersect at a single point, ``pts`` is the intersection
    and ``ta``/``tb`` are the parametric positions. Collinear overlaps
    are reported as non-intersecting (the noding pass snaps those).
    """
    d1 = a1 - a0
    d2 = b1 - b0
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    ok = np.abs(denom) > 1e-12
    denom_safe = np.where(ok, denom, 1.0)
    diff = b0 - a0
    ta = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / denom_safe
    tb = (diff[:, 0] * d1[:, 1] - diff[:, 1] * d1[:, 0]) / denom_safe
    eps = 1e-9
    mask = ok & (ta >= -eps) & (ta <= 1 + eps) & (tb >= -eps) & (tb <= 1 + eps)
    pts = a0 + d1 * np.clip(ta, 0, 1)[:, None]
    return mask, pts, ta, tb


def ray_segments_first_hit(origin: np.ndarray, direction: np.ndarray,
                           s0: np.ndarray, s1: np.ndarray,
                           max_t: float = np.inf):
    """First hit of ray origin+t*direction (t>eps) against M segments.

    Returns (t, idx): smallest positive t and the segment index, or
    (inf, -1) when nothing is hit within max_t. Used by the crossing
    ray-cast (reference two_intersections_byvector_with_sidewalks,
    osm_sidewalkreator.py:3034-3175) — vectorized over all sidewalk
    boundary segments at once instead of iterative buffer doubling.
    """
    d2 = s1 - s0
    denom = direction[0] * d2[:, 1] - direction[1] * d2[:, 0]
    ok = np.abs(denom) > 1e-12
    denom_safe = np.where(ok, denom, 1.0)
    diff = s0 - origin[None, :]
    t = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / denom_safe
    u = (diff[:, 0] * direction[1] - diff[:, 1] * direction[0]) / denom_safe
    eps = 1e-9
    hit = ok & (t > eps) & (t <= max_t) & (u >= -eps) & (u <= 1 + eps)
    if not hit.any():
        return np.inf, -1
    t = np.where(hit, t, np.inf)
    i = int(np.argmin(t))
    return float(t[i]), i


# ------------------------------------------------------------- interp

def interpolate_along(line: np.ndarray, dist: float) -> np.ndarray:
    """Point at ``dist`` meters along a polyline (clamped to ends).

    Reference: interpolate_by_percent generic_functions.py:1330-1335.
    """
    seg = np.diff(line, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seglen)))
    total = cum[-1]
    d = min(max(dist, 0.0), total)
    i = int(np.searchsorted(cum, d, side="right") - 1)
    i = min(i, len(seglen) - 1)
    if seglen[i] == 0:
        return line[i].copy()
    t = (d - cum[i]) / seglen[i]
    return line[i] + t * seg[i]


def substring(line: np.ndarray, d0: float, d1: float) -> np.ndarray:
    """Sub-polyline between arc-length d0..d1 (shapely.ops.substring)."""
    seg = np.diff(line, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seglen)))
    total = cum[-1]
    d0 = min(max(d0, 0.0), total); d1 = min(max(d1, 0.0), total)
    if d1 <= d0:
        p = interpolate_along(line, d0)
        return np.vstack((p, p))
    pts = [interpolate_along(line, d0)]
    inner = (cum > d0 + 1e-12) & (cum < d1 - 1e-12)
    pts.extend(line[i] for i in np.nonzero(inner)[0])
    pts.append(interpolate_along(line, d1))
    return np.asarray(pts)


def remove_repeated_points(line: np.ndarray, tol: float) -> np.ndarray:
    """Drop consecutive vertices closer than tol (M14, tol 0.1 m)."""
    if len(line) <= 2:
        return line
    keep = [0]
    for i in range(1, len(line)):
        if np.linalg.norm(line[i] - line[keep[-1]]) >= tol:
            keep.append(i)
    if keep[-1] != len(line) - 1:
        keep[-1] = len(line) - 1  # always keep the final endpoint
    return line[keep]


def angle_at(p_prev: np.ndarray, p: np.ndarray, p_next: np.ndarray) -> float:
    """Interior angle in degrees at vertex p (reference
    point_forms_minor_angle_w2 / select_vertex_pol_nodes semantics)."""
    v1 = p_prev - p
    v2 = p_next - p
    n1 = np.linalg.norm(v1); n2 = np.linalg.norm(v2)
    if n1 == 0 or n2 == 0:
        return 180.0
    c = np.clip(np.dot(v1, v2) / (n1 * n2), -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))
