"""Snapping operators (§2.7 near-dedup; reference ``snap_layers``
``generic_functions.py:230-305`` behaviors 0/1/5 and the three
sequential snap rounds at ``osm_sidewalkreator.py:1087-1119``).

All snapping is intra-cell by construction (tolerances 0.1-0.51 m are
orders of magnitude below the cell size), so these run inside the same
per-cell groups as the rest of the geometry chain.
"""

from __future__ import annotations

import numpy as np

from .grid_index import SegmentGrid


def snap_line_to_segments(line: np.ndarray, s0: np.ndarray, s1: np.ndarray,
                          tol: float) -> np.ndarray:
    """Behavior 'prefer closest point': move each vertex of ``line``
    onto the nearest point of the target segment set when within
    ``tol`` (reference behavior 0 — vertices only, no densification).
    Vectorized via the uniform segment grid."""
    if len(s0) == 0 or len(line) == 0:
        return line
    grid = SegmentGrid(s0, s1, cell=max(tol, 1e-9))
    d, idx = grid.nearest(line, max_dist=tol)
    out = line.copy()
    hit = idx >= 0
    if not hit.any():
        return out
    a = s0[idx[hit]]
    b = s1[idx[hit]]
    ab = b - a
    ab2 = (ab * ab).sum(axis=1)
    ab2[ab2 == 0] = 1.0
    t = np.clip(((line[hit] - a) * ab).sum(axis=1) / ab2, 0.0, 1.0)
    out[hit] = a + t[:, None] * ab
    return out


def snap_lines_mutual(lines: list[np.ndarray], tol: float
                      ) -> list[np.ndarray]:
    """Self-snap a set of polylines (reference round 2: sidewalks to
    themselves, tol 0.51 m): endpoints within tol collapse to their
    cluster representative (first-seen, deterministic)."""
    if not lines:
        return lines
    ends = np.array([[ln[0], ln[-1]] for ln in lines]).reshape(-1, 2)
    q = np.round(ends / tol).astype(np.int64)
    seen: dict[tuple[int, int], np.ndarray] = {}
    reps = np.empty_like(ends)
    for i, key in enumerate(map(tuple, q)):
        if key not in seen:
            seen[key] = ends[i]
        reps[i] = seen[key]
    out = []
    for i, ln in enumerate(lines):
        ln = ln.copy()
        ln[0] = reps[2 * i]
        ln[-1] = reps[2 * i + 1]
        out.append(ln)
    return out
