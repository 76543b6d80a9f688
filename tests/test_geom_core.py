"""Unit tests for the pure-numpy geometry kernels (no Ray needed)."""

import numpy as np
import pytest

from osm_sidewalkreator_ray.geom import core, wkb
from osm_sidewalkreator_ray.geom.grid_index import SegmentGrid
from osm_sidewalkreator_ray.geom import polygonize as pg
from osm_sidewalkreator_ray.geom import raster
import spatial_references as SR


def test_wkb_roundtrip_lines():
    coords = np.array([[0, 0], [1, 0], [1, 1], [5, 5], [6, 7]], dtype=float)
    offsets = np.array([0, 3, 5])
    bufs = wkb.encode_lines(coords, offsets)
    c2, o2, part = wkb.decode_lines(bufs)
    assert np.allclose(c2, coords)
    assert list(o2) == [0, 3, 5]
    assert list(part) == [0, 1]


def test_wkb_roundtrip_polygon_with_hole():
    shell = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], dtype=float)
    hole = np.array([[2, 2], [2, 4], [4, 4], [4, 2], [2, 2]], dtype=float)
    b = wkb.encode_polygon([shell, hole])
    coords, ro, po, part = wkb.decode_polygons([b])
    assert len(po) - 1 == 1 and po[1] - po[0] == 2
    areas = SR.polygon_areas(coords, ro, po)
    assert areas[0] == pytest.approx(100 - 4)
    perim = SR.polygon_perimeters(coords, ro, po)
    assert perim[0] == pytest.approx(40)


def test_wkb_points():
    pts = np.array([[1.5, -2.5], [3.0, 4.0]])
    bufs = SR.encode_points(pts)
    assert np.allclose(wkb.decode_points(bufs), pts)


def test_line_lengths():
    coords = np.array([[0, 0], [3, 4], [0, 0], [1, 0], [1, 1]], dtype=float)
    offsets = np.array([0, 2, 5])
    assert np.allclose(core.line_lengths(coords, offsets), [5.0, 2.0])


def test_point_in_ring():
    ring = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float)
    px = np.array([2.0, 5.0, -1.0, 3.9])
    py = np.array([2.0, 2.0, 2.0, 3.9])
    assert list(core.points_in_ring(px, py, ring)) == [True, False, False, True]


def test_points_in_polygon_with_hole():
    shell = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], dtype=float)
    hole = np.array([[4, 4], [4, 6], [6, 6], [6, 4], [4, 4]], dtype=float)
    coords = np.vstack((shell, hole))
    ro = np.array([0, 5, 10])
    inside = core.points_in_polygon(np.array([1.0, 5.0]), np.array([1.0, 5.0]),
                                    coords, ro, 0, 2)
    assert list(inside) == [True, False]


def test_segment_intersections():
    a0 = np.array([[0, 0]], dtype=float); a1 = np.array([[2, 2]], dtype=float)
    b0 = np.array([[0, 2]], dtype=float); b1 = np.array([[2, 0]], dtype=float)
    mask, pts, ta, tb = core.segments_intersections(a0, a1, b0, b1)
    assert mask[0] and np.allclose(pts[0], [1, 1])


def test_ray_cast():
    s0 = np.array([[5, -10], [20, -10]], dtype=float)
    s1 = np.array([[5, 10], [20, 10]], dtype=float)
    t, i = core.ray_segments_first_hit(np.array([0.0, 0.0]), np.array([1.0, 0.0]), s0, s1)
    assert t == pytest.approx(5.0) and i == 0
    t, i = core.ray_segments_first_hit(np.array([0.0, 0.0]), np.array([-1.0, 0.0]), s0, s1)
    assert np.isinf(t) and i == -1


def test_interpolate_substring():
    line = np.array([[0, 0], [10, 0], [10, 10]], dtype=float)
    assert np.allclose(core.interpolate_along(line, 15), [10, 5])
    sub = core.substring(line, 5, 15)
    assert np.allclose(sub, [[5, 0], [10, 0], [10, 5]])


def test_grid_index_nearest():
    s0 = np.array([[0, 0], [100, 100]], dtype=float)
    s1 = np.array([[10, 0], [100, 110]], dtype=float)
    g = SegmentGrid(s0, s1, cell=50.0)
    d, i = g.nearest(np.array([[5.0, 3.0], [99.0, 105.0], [500.0, 500.0]]), max_dist=50.0)
    assert d[0] == pytest.approx(3.0) and i[0] == 0
    assert d[1] == pytest.approx(1.0) and i[1] == 1
    assert np.isinf(d[2]) and i[2] == -1


def test_polygonize_unit_square():
    # the reference fixture: 4 segments forming the unit square ->
    # exactly 1 protoblock (test_processing_algorithms.py:128-133)
    n0 = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    n1 = np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    faces = pg.polygonize_faces(n0, n1)
    assert len(faces) == 1
    ring = faces[0]
    assert core.ring_signed_area(ring) == pytest.approx(1.0)


def test_polygonize_two_by_one_grid():
    # two adjacent unit squares sharing an edge -> 2 faces
    segs = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1)),
            ((2, 1), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0)),
            ((1, 0), (1, 1))]
    n0 = np.array([s[0] for s in segs], dtype=float)
    n1 = np.array([s[1] for s in segs], dtype=float)
    faces = pg.polygonize_faces(n0, n1)
    assert len(faces) == 2
    for f in faces:
        assert core.ring_signed_area(f) == pytest.approx(1.0)


def test_node_segments_cross():
    # X crossing: two segments -> 4 noded pieces
    s0 = np.array([[0, 0], [0, 2]], dtype=float)
    s1 = np.array([[2, 2], [2, 0]], dtype=float)
    li = np.array([0, 1])
    n0, n1, parent = pg.node_segments(s0, s1, li)
    assert len(n0) == 4
    pts = pg.intersection_points(s0, s1)
    assert len(pts) == 1 and np.allclose(pts[0], [1, 1])


def test_prune_dead_ends():
    # square with a dangling spur
    segs = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)),
            ((0, 1), (0, 0)), ((1, 1), (2, 2))]
    n0 = np.array([s[0] for s in segs], dtype=float)
    n1 = np.array([s[1] for s in segs], dtype=float)
    parent = np.arange(5)
    p0, p1, pp = pg.prune_dead_ends(n0, n1, parent, iterations=3)
    assert len(p0) == 4
    assert 4 not in pp


def test_degrees():
    segs = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (2, 0))]
    n0 = np.array([s[0] for s in segs], dtype=float)
    n1 = np.array([s[1] for s in segs], dtype=float)
    nodes, deg, a, b = pg.node_degrees(n0, n1)
    assert sorted(deg.tolist()) == [1, 1, 1, 3]


def test_raster_buffer_ring():
    # one straight street of width 6 -> buffered band; mask has no holes.
    s0 = np.array([[10, 50]], dtype=float)
    s1 = np.array([[90, 50]], dtype=float)
    hw = np.array([3.0])
    field = raster.distance_field(s0, s1, hw, origin=(0, 0), shape=(200, 200), res=0.5)
    mask = field <= 0
    # band area ~ 80*6 + pi*9 (round caps from distance metric)
    area = mask.sum() * 0.25
    assert abs(area - (80 * 6 + np.pi * 9)) < 20
    rings = raster.trace_contours(mask, origin=(0, 0), res=0.5)
    assert len(rings) == 1 and rings[0][1] > 0


def test_raster_square_loop_hole():
    # square street loop -> dissolved buffer has one interior hole (the block)
    pts = [(20, 20), (80, 20), (80, 80), (20, 80)]
    s0 = np.array(pts, dtype=float)
    s1 = np.array(pts[1:] + pts[:1], dtype=float)
    hw = np.full(4, 3.0)
    field = raster.distance_field(s0, s1, hw, origin=(0, 0), shape=(200, 200), res=0.5)
    mask = field <= 0
    rings = raster.trace_contours(mask, origin=(0, 0), res=0.5)
    pos = [r for r in rings if r[1] > 0]
    neg = [r for r in rings if r[1] < 0]
    assert len(pos) == 1 and len(neg) == 1
    # hole ~ (60-6)^2 interior square
    assert abs(abs(neg[0][1]) - 54 * 54) < 120


def test_morphology_open_removes_sliver():
    mask = np.zeros((60, 60), dtype=bool)
    mask[10:50, 10:50] = True
    mask[20, 50:58] = True  # 1-px sliver
    opened = raster.open_mask(mask, k=2)
    assert not opened[20, 55]
    assert opened[30, 30]


# -------------------------------------------- raster identity references
# The shift-OR disk morphology and the per-pixel edge walk that
# geom/raster.py replaced; the package kernels must match them bit for
# bit.

def _disk_offsets(k):
    return [(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
            if dx * dx + dy * dy <= k * k]


def _shift_or(dst, src, dx, dy):
    ny, nx = src.shape
    x0s, x1s = max(0, -dx), min(nx, nx - dx)
    y0s, y1s = max(0, -dy), min(ny, ny - dy)
    x0d, x1d = max(0, dx), min(nx, nx + dx)
    y0d, y1d = max(0, dy), min(ny, ny + dy)
    if x0s >= x1s or y0s >= y1s:
        return
    np.logical_or(dst[y0d:y1d, x0d:x1d], src[y0s:y1s, x0s:x1s],
                  out=dst[y0d:y1d, x0d:x1d])


def _ref_dilate(mask, k):
    out = mask.copy()
    if k <= 0:
        return out
    for dx, dy in _disk_offsets(k):
        if dx or dy:
            _shift_or(out, mask, dx, dy)
    return out


def _ref_erode(mask, k):
    if k <= 0:
        return mask.copy()
    inv = ~mask
    bg_near = inv.copy()
    for dx, dy in _disk_offsets(k):
        if dx or dy:
            _shift_or(bg_near, inv, dx, dy)
    out = mask & ~bg_near
    out[:k, :] = False; out[-k:, :] = False
    out[:, :k] = False; out[:, -k:] = False
    return out


def _ref_trace(mask, origin, res):
    ny, nx = mask.shape
    if not mask.any():
        return []
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask
    edges = {}
    for d, (nb, sx, sy) in enumerate(((pad[:-2, 1:-1], 0, 0),
                                      (pad[1:-1, 2:], 1, 0),
                                      (pad[2:, 1:-1], 1, 1),
                                      (pad[1:-1, :-2], 0, 1))):
        ys, xs = np.nonzero(mask & ~nb)
        for x, y in zip(xs, ys):
            edges.setdefault((x + sx, y + sy), []).append(d)
    vecs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    rings = []
    for start in sorted(edges):
        while edges[start]:
            cd = edges[start].pop()
            ring = [start]
            cx, cy = start
            while True:
                cx, cy = cx + vecs[cd][0], cy + vecs[cd][1]
                ring.append((cx, cy))
                if (cx, cy) == start:
                    break
                outs = edges[(cx, cy)]
                cd = next((c for c in ((cd + 1) % 4, cd, (cd - 1) % 4)
                           if c in outs), outs[-1])
                outs.remove(cd)
            arr = np.asarray(ring, dtype=np.float64)
            arr[:, 0] = origin[0] + arr[:, 0] * res
            arr[:, 1] = origin[1] + arr[:, 1] * res
            x_, y_ = arr[:, 0], arr[:, 1]
            rings.append((arr, 0.5 * float(np.sum(x_[:-1] * y_[1:]
                                                  - x_[1:] * y_[:-1]))))
    return rings


def _random_masks(seed):
    """Masks that touch the border, masks thinner than 2k, non-square
    shapes and speckle."""
    rng = np.random.default_rng(seed)
    out = [np.ones((5, 9), dtype=bool), np.zeros((7, 4), dtype=bool)]
    for _ in range(12):
        ny, nx = rng.integers(1, 40, size=2)
        out.append(rng.random((ny, nx)) < rng.uniform(0.05, 0.95))
    for _ in range(6):
        ny, nx = rng.integers(20, 60, size=2)
        m = np.zeros((ny, nx), dtype=bool)
        for _ in range(4):
            y0, x0 = rng.integers(0, ny), rng.integers(0, nx)
            m[y0:y0 + rng.integers(1, 4), x0:x0 + rng.integers(1, 30)] = True
            m[y0:y0 + rng.integers(1, 30), x0:x0 + rng.integers(1, 4)] = True
        out.append(m)
    return out


@pytest.mark.parametrize("k", range(9))
def test_row_run_morphology_matches_shift_or(k):
    for mask in _random_masks(k):
        assert np.array_equal(raster.binary_dilate(mask, k),
                              _ref_dilate(mask, k))
        assert np.array_equal(raster.binary_erode(mask, k),
                              _ref_erode(mask, k))
        assert np.array_equal(raster.open_mask(mask, k),
                              _ref_dilate(_ref_erode(mask, k), k))


def test_trace_contours_matches_edge_walk():
    # speckle has many diagonal contacts, loops that pass one corner
    # twice, and holes
    for seed in range(4):
        for mask in _random_masks(100 + seed):
            got = raster.trace_contours(mask, (1.5, -2.25), 0.5)
            want = _ref_trace(mask, (1.5, -2.25), 0.5)
            assert len(got) == len(want)
            for (ga, gs), (wa, ws) in zip(got, want):
                assert np.array_equal(ga, wa) and gs == ws


# ------------------------------------------------- scanline parity fill

def _dense_fill(gx, gy, ring):
    mx = np.broadcast_to(gx[None, :], (len(gy), len(gx))).ravel()
    my = np.broadcast_to(gy[:, None], (len(gy), len(gx))).ravel()
    return core.points_in_ring(mx, my, ring).reshape(len(gy), len(gx))


def _pixel_grid(lo, hi, res):
    nx, ny = (int(v) + 1 for v in (hi - lo) / res)
    return (lo[0] + (np.arange(nx) + 0.5) * res,
            lo[1] + (np.arange(ny) + 0.5) * res)


def test_grid_in_ring_matches_points_in_ring_on_concave_rings():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        rad = rng.uniform(2, 30, n)
        ring = np.column_stack((rad * np.cos(ang), rad * np.sin(ang)))
        ring = np.vstack((ring, ring[:1])) + rng.uniform(-50, 50, 2)
        gx, gy = _pixel_grid(ring.min(0) - 3, ring.max(0) + 3,
                             rng.uniform(0.3, 1.5))
        assert np.array_equal(core.grid_in_ring(gx, gy, ring),
                              _dense_fill(gx, gy, ring))


def test_grid_in_ring_on_pixel_centres():
    # vertices on pixel-centre rows and columns: horizontal edges, and
    # vertical edges whose crossing is exactly a pixel centre (px ==
    # xint does not count)
    gx = np.arange(20) + 0.5
    gy = np.arange(16) + 0.5
    stair = np.array([[1.5, 1.5], [12.5, 1.5], [12.5, 6.5], [8.5, 6.5],
                      [8.5, 11.5], [3.5, 11.5], [3.5, 4.5], [1.5, 4.5],
                      [1.5, 1.5]])
    diamond = np.array([[10.5, 0.5], [18.5, 7.5], [10.5, 14.5],
                        [2.5, 7.5], [10.5, 0.5]])
    for ring in (stair, diamond, stair[::-1], stair + [0.25, 0.0]):
        got = core.grid_in_ring(gx, gy, ring)
        assert np.array_equal(got, _dense_fill(gx, gy, ring))
    # the left column of a vertical edge through centres is outside, the
    # right one inside: only px < xint counts
    got = core.grid_in_ring(gx, gy, stair)
    assert got[3, 1] and not got[3, 12]


def test_grid_in_ring_degenerate_rings():
    gx = np.linspace(-2, 6, 17)
    gy = np.linspace(-1, 5, 13)
    for ring in ([[0, 0], [4, 4], [0, 0]],                 # 3 vertices
                 [[0, 0], [4, 0], [2, 3], [0, 0]],         # triangle
                 [[0, 0], [2, 2], [4, 4], [0, 0]],         # zero area
                 [[0, 1], [4, 1], [0, 1]],                 # horizontal
                 [[1, 1], [1, 1]]):
        ring = np.asarray(ring, dtype=float)
        assert np.array_equal(core.grid_in_ring(gx, gy, ring),
                              _dense_fill(gx, gy, ring))


def test_grid_in_ring_memory_is_per_pixel_bytes():
    import tracemalloc
    ang = np.linspace(0, 2 * np.pi, 51)
    rad = np.where(np.arange(51) % 2 == 0, 900.0, 500.0)
    ring = np.column_stack((1000 + rad * np.cos(ang),
                            1000 + rad * np.sin(ang)))
    ring[-1] = ring[0]
    gx = (np.arange(4000) + 0.5) * 0.5
    gy = (np.arange(4000) + 0.5) * 0.5
    tracemalloc.start()
    try:
        inside = core.grid_in_ring(gx, gy, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside.shape == (4000, 4000) and inside[2000, 2000]
    assert peak < 128 * 2 ** 20, peak


def test_simplify_ring():
    sq = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2], [0, 0]], dtype=float)
    out = raster.simplify_ring(sq, tol=0.01)
    assert len(out) <= len(sq)


def test_classify_parts_single_point_part():
    """ADVICE r2: degenerate single-point parts (0 segments) must not
    inherit the next part's crossing flag or raise IndexError when
    trailing."""
    import numpy as np
    from osm_sidewalkreator_ray.geom.clip import classify_parts
    # unit-square polygon
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)
    ring_offsets = np.array([0, 5])
    # part 0: single point inside; part 1: crossing line; part 2:
    # trailing single point outside
    lcoords = np.array([[5.0, 5.0],
                        [5.0, 5.0], [15.0, 5.0],
                        [20.0, 20.0]])
    offsets = np.array([0, 1, 3, 4])
    all_in, any_in, crosses = classify_parts(
        lcoords, offsets, sq, ring_offsets, 0, 1)
    assert list(crosses) == [False, True, False]
    assert list(all_in) == [True, False, False]
    assert list(any_in) == [True, True, False]
