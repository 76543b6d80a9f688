import numpy as np

from osm_sidewalkreator_ray.geom import snap, voronoi


def test_snap_line_to_segments():
    line = np.array([[0.0, 0.3], [5.0, 0.4], [9.0, 5.0]])
    s0 = np.array([[0.0, 0.0]]); s1 = np.array([[10.0, 0.0]])
    out = snap.snap_line_to_segments(line, s0, s1, tol=0.5)
    assert np.allclose(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [5.0, 0.0])
    assert np.allclose(out[2], [9.0, 5.0])  # beyond tol: untouched


def test_snap_lines_mutual():
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = np.array([[10.3, 0.2], [20.0, 0.0]])
    out = snap.snap_lines_mutual([a, b], tol=0.51)
    assert np.allclose(out[0][-1], out[1][0])


def test_voronoi_two_sites():
    pts = np.array([[25.0, 50.0], [75.0, 50.0]])
    cells = voronoi.voronoi_polygons(pts, (0, 0, 100, 100), res=1.0)
    assert len(cells) == 2
    areas = {s: a for s, _r, a in cells}
    # halves of the 100x100 box, ~5000 each
    assert abs(areas[0] - 5000) < 300 and abs(areas[1] - 5000) < 300


def test_voronoi_deterministic():
    rng = np.random.RandomState(7)
    pts = rng.uniform(0, 100, size=(12, 2))
    c1 = voronoi.voronoi_polygons(pts, (0, 0, 100, 100), res=1.0)
    c2 = voronoi.voronoi_polygons(pts, (0, 0, 100, 100), res=1.0)
    assert len(c1) == len(c2)
    for (s1, r1, a1), (s2, r2, a2) in zip(c1, c2):
        assert s1 == s2 and a1 == a2 and np.array_equal(r1, r2)
    total = sum(a for _s, _r, a in c1)
    assert abs(total - 10000) < 400  # tessellation covers the box
