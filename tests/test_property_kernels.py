"""Property-based tests (hypothesis) over the pure numpy kernels —
random inputs exercise edge geometry the fixture tests never reach.
No Ray session needed: these are the per-batch kernels themselves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osm_sidewalkreator_ray.geom import core as C
from osm_sidewalkreator_ray.geom import wkb as W
import spatial_references as SR

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 40),
                                    st.just(2)), elements=finite))
def test_wkb_line_roundtrip(coords):
    blob = W.encode_line(coords)
    out_coords, offsets, part_of = W.decode_lines([blob])
    np.testing.assert_allclose(out_coords, coords)
    assert list(offsets) == [0, len(coords)]
    assert list(part_of) == [0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_wkb_points_roundtrip(pts):
    xy = np.asarray(pts, dtype=np.float64)
    blobs = SR.encode_points(xy)
    back = W.decode_points(blobs)
    np.testing.assert_allclose(back, xy)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 30), st.just(2)),
              elements=finite))
def test_line_length_invariants(coords):
    offsets = np.array([0, len(coords)])
    ln = C.line_lengths(coords, offsets)[0]
    assert ln >= 0
    # invariance under translation and reversal
    ln_t = C.line_lengths(coords + 37.5, offsets)[0]
    ln_r = C.line_lengths(coords[::-1].copy(), offsets)[0]
    assert abs(ln - ln_t) < 1e-6 * max(1.0, ln)
    assert abs(ln - ln_r) < 1e-9 * max(1.0, ln)
    # triangle inequality vs straight chord
    chord = float(np.hypot(*(coords[-1] - coords[0])))
    assert ln >= chord - 1e-9 * max(1.0, chord)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.5, max_value=500, allow_nan=False),
       st.floats(min_value=0.5, max_value=500, allow_nan=False),
       finite, finite)
def test_rect_ring_area_and_pip(w, h, ox, oy):
    ring = np.array([[ox, oy], [ox + w, oy], [ox + w, oy + h],
                     [ox, oy + h], [ox, oy]])
    area = abs(C.ring_signed_area(ring))
    # shoelace cancellation grows with coordinate magnitude squared
    # (the engine reprojects to local frames for exactly this reason)
    m = max(1.0, abs(ox) + w, abs(oy) + h)
    tol = max(1e-6 * w * h, 64 * np.finfo(np.float64).eps * m * m)
    assert abs(area - w * h) < tol
    # centroid inside, far point outside
    inside = C.points_in_ring(np.array([ox + w / 2]),
                              np.array([oy + h / 2]), ring)
    outside = C.points_in_ring(np.array([ox - w]), np.array([oy - h]), ring)
    assert inside[0] and not outside[0]


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 20), st.just(2)),
              elements=finite),
       st.floats(min_value=0.0, max_value=1.0))
def test_interpolate_on_line(coords, frac):
    offsets = np.array([0, len(coords)])
    total = C.line_lengths(coords, offsets)[0]
    p = C.interpolate_along(coords, frac * total)
    # the interpolated point lies (numerically) on the polyline
    d = SR.points_to_polyline_dist(p[None, :], coords)[0]
    assert d < 1e-6 * max(1.0, total)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 20), st.just(2)),
              elements=finite),
       st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.05, max_value=1.0))
def test_substring_length(coords, f0, span):
    offsets = np.array([0, len(coords)])
    total = C.line_lengths(coords, offsets)[0]
    if total <= 0:
        return
    d0, d1 = f0 * total, min((f0 + span), 1.0) * total
    sub = C.substring(coords, d0, d1)
    ln = C.line_lengths(sub, np.array([0, len(sub)]))[0]
    assert abs(ln - (d1 - d0)) < 1e-5 * max(1.0, total)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(2, 60),
       st.integers(2, 60), st.integers(2, 60))
def test_resize_bilinear_range_and_identity(h, w, oh, ow):
    from osm_sidewalkreator_ray.stages.multimodal import resize_bilinear
    rng = np.random.RandomState(h * 61 + w)
    img = rng.randint(0, 256, size=(h, w), dtype=np.uint8)
    out = resize_bilinear(img, oh, ow)
    assert out.shape == (oh, ow)
    # convex interpolation: output range within input range
    assert out.min() >= img.min() and out.max() <= img.max()
    np.testing.assert_array_equal(resize_bilinear(img, h, w), img)


# ---------------------------------------- hamming / quantile kernels


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=2,
                max_size=40, unique=True),
       st.integers(0, 7))
def test_popcount_and_pigeonhole_recall(sigs, max_h):
    """popcount64 equals Python bit_count; banding with
    bands > max_hamming can NEVER miss a qualifying pair (pigeonhole)
    — checked structurally: every pair within max_h shares at least
    one of 8 8-bit bands."""
    from osm_sidewalkreator_ray.functions.hamming import popcount64
    u = np.array(sigs, dtype=np.uint64)
    for i in range(len(u)):
        d = popcount64(u ^ u[i])
        for j in range(len(u)):
            assert d[j] == int(sigs[i] ^ sigs[j]).bit_count()
            if i < j and d[j] <= max_h:
                shares = any(
                    ((sigs[i] >> (8 * b)) & 0xFF)
                    == ((sigs[j] >> (8 * b)) & 0xFF)
                    for b in range(8))
                assert shares  # bands=8 > max_h <= 7


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=300),
       st.floats(0.0, 1.0, allow_nan=False))
def test_histogram_quantile_matches_numpy(vals, q):
    """The cumulative-histogram interpolation equals numpy's 'linear'
    quantile on any multiset, ties included."""
    v = np.array(vals, dtype=np.float64)
    uniq, cnt = np.unique(v, return_counts=True)
    cum = np.cumsum(cnt)
    n = int(cum[-1])
    h = (n - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, n - 1)
    x_lo = uniq[np.searchsorted(cum, lo + 1)]
    x_hi = uniq[np.searchsorted(cum, hi + 1)]
    got = x_lo + (h - lo) * (x_hi - x_lo)
    assert np.isclose(got, np.quantile(v, q, method="linear"))
