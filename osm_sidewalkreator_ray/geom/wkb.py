"""WKB codec <-> ragged numpy coordinate arrays.

Geometry travels between Ray Data stages as a ``binary`` Arrow column of
little-endian ISO WKB (the reference's QgsGeometry equivalent, SURVEY.md
§1.3). Inside a batch it is decoded into flat ``(M, 2)`` float64 coord
arrays plus offset arrays — the layout every kernel in this package
consumes.

Ragged layouts:
- lines:    ``coords[M,2]``, ``offsets[N+1]`` (line i = coords[offsets[i]:offsets[i+1]])
- polygons: ``coords[M,2]``, ``ring_offsets[R+1]``, ``poly_offsets[N+1]``
  (polygon i owns rings poly_offsets[i]:poly_offsets[i+1]; ring 0 is the
  exterior shell, the rest are holes; rings are closed — first == last).

Multi* geometries are flattened on decode with a ``part_of`` index so
callers can re-aggregate per input row.
"""

from __future__ import annotations

import struct

import numpy as np

WKB_POINT = 1
WKB_LINESTRING = 2
WKB_POLYGON = 3
WKB_MULTIPOINT = 4
WKB_MULTILINESTRING = 5
WKB_MULTIPOLYGON = 6

_HDR = struct.Struct("<BI")


# ---------------------------------------------------------------- encode

def encode_lines(coords: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """Ragged lines -> LineString WKBs."""
    coords = np.asarray(coords, dtype=np.float64)
    out = []
    for i in range(len(offsets) - 1):
        seg = coords[offsets[i]:offsets[i + 1]]
        out.append(b"\x01\x02\x00\x00\x00" + struct.pack("<I", len(seg))
                   + seg.astype("<f8").tobytes())
    return out


def encode_polygons(coords: np.ndarray, ring_offsets: np.ndarray,
                    poly_offsets: np.ndarray) -> list[bytes]:
    """Ragged polygons (with holes) -> Polygon WKBs. Rings must be closed."""
    coords = np.asarray(coords, dtype=np.float64)
    out = []
    for i in range(len(poly_offsets) - 1):
        r0, r1 = poly_offsets[i], poly_offsets[i + 1]
        buf = [b"\x01\x03\x00\x00\x00", struct.pack("<I", r1 - r0)]
        for r in range(r0, r1):
            ring = coords[ring_offsets[r]:ring_offsets[r + 1]]
            buf.append(struct.pack("<I", len(ring)))
            buf.append(ring.astype("<f8").tobytes())
        out.append(b"".join(buf))
    return out


def encode_polygon(rings: list[np.ndarray]) -> bytes:
    """One polygon from a list of closed rings (ring 0 = shell)."""
    buf = [b"\x01\x03\x00\x00\x00", struct.pack("<I", len(rings))]
    for ring in rings:
        ring = np.asarray(ring, dtype=np.float64)
        buf.append(struct.pack("<I", len(ring)))
        buf.append(ring.astype("<f8").tobytes())
    return b"".join(buf)


def encode_line(coords: np.ndarray) -> bytes:
    coords = np.asarray(coords, dtype=np.float64)
    return (b"\x01\x02\x00\x00\x00" + struct.pack("<I", len(coords))
            + coords.astype("<f8").tobytes())


def encode_point(x: float, y: float) -> bytes:
    return b"\x01\x01\x00\x00\x00" + struct.pack("<dd", x, y)


# ---------------------------------------------------------------- decode

def _read_hdr(b: bytes, off: int) -> tuple[int, int]:
    order, typ = _HDR.unpack_from(b, off)
    if order != 1:
        raise ValueError("only little-endian WKB supported")
    return typ & 0xFF, off + 5


def decode_points(wkbs) -> np.ndarray:
    """Point WKBs -> (N,2). MultiPoint rows contribute their first point."""
    out = np.empty((len(wkbs), 2), dtype=np.float64)
    for i, b in enumerate(wkbs):
        typ, off = _read_hdr(b, 0)
        if typ == WKB_MULTIPOINT:
            _, off = _read_hdr(b, off + 4)  # count, then first point's header
        out[i] = struct.unpack_from("<dd", b, off)
    return out


def decode_lines(wkbs):
    """LineString / MultiLineString WKBs -> (coords, offsets, part_of).

    ``part_of[j]`` = input row index of output line j (MultiLineStrings
    flatten into several output lines).
    """
    chunks, counts, part_of = [], [], []
    for i, b in enumerate(wkbs):
        typ, off = _read_hdr(b, 0)
        if typ == WKB_LINESTRING:
            n = struct.unpack_from("<I", b, off)[0]
            arr = np.frombuffer(b, dtype="<f8", count=2 * n, offset=off + 4)
            chunks.append(arr.reshape(-1, 2))
            counts.append(n)
            part_of.append(i)
        elif typ == WKB_MULTILINESTRING:
            nparts = struct.unpack_from("<I", b, off)[0]
            off += 4
            for _ in range(nparts):
                _, off = _read_hdr(b, off)
                n = struct.unpack_from("<I", b, off)[0]
                arr = np.frombuffer(b, dtype="<f8", count=2 * n, offset=off + 4)
                chunks.append(arr.reshape(-1, 2))
                counts.append(n)
                part_of.append(i)
                off += 4 + 16 * n
        else:
            raise ValueError(f"not a line geometry: wkb type {typ}")
    coords = (np.concatenate(chunks) if chunks
              else np.empty((0, 2), dtype=np.float64))
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return coords, offsets, np.asarray(part_of, dtype=np.int64)


def _decode_one_polygon(b: bytes, off: int):
    nrings = struct.unpack_from("<I", b, off)[0]
    off += 4
    rings = []
    for _ in range(nrings):
        n = struct.unpack_from("<I", b, off)[0]
        arr = np.frombuffer(b, dtype="<f8", count=2 * n, offset=off + 4)
        rings.append(arr.reshape(-1, 2))
        off += 4 + 16 * n
    return rings, off


def decode_polygons(wkbs):
    """Polygon / MultiPolygon WKBs -> (coords, ring_offsets, poly_offsets, part_of)."""
    chunks, ring_counts, rings_per_poly, part_of = [], [], [], []
    for i, b in enumerate(wkbs):
        typ, off = _read_hdr(b, 0)
        if typ == WKB_POLYGON:
            rings, off = _decode_one_polygon(b, off)
            chunks.extend(rings)
            ring_counts.extend(len(r) for r in rings)
            rings_per_poly.append(len(rings))
            part_of.append(i)
        elif typ == WKB_MULTIPOLYGON:
            nparts = struct.unpack_from("<I", b, off)[0]
            off += 4
            for _ in range(nparts):
                _, off = _read_hdr(b, off)
                rings, off = _decode_one_polygon(b, off)
                chunks.extend(rings)
                ring_counts.extend(len(r) for r in rings)
                rings_per_poly.append(len(rings))
                part_of.append(i)
        else:
            raise ValueError(f"not a polygon geometry: wkb type {typ}")
    coords = (np.concatenate(chunks) if chunks
              else np.empty((0, 2), dtype=np.float64))
    ring_offsets = np.concatenate(([0], np.cumsum(ring_counts))).astype(np.int64)
    poly_offsets = np.concatenate(([0], np.cumsum(rings_per_poly))).astype(np.int64)
    return coords, ring_offsets, poly_offsets, np.asarray(part_of, dtype=np.int64)


def wkb_type(b: bytes) -> int:
    return _read_hdr(b, 0)[0]


def decode_bboxes(wkbs):
    """Per-geometry bboxes for mixed WKB (point/line/polygon/multi*).

    Returns (min_x, min_y, max_x, max_y) float64 arrays.
    """
    n = len(wkbs)
    mnx = np.empty(n); mny = np.empty(n); mxx = np.empty(n); mxy = np.empty(n)
    for i, b in enumerate(wkbs):
        typ = wkb_type(b)
        if typ in (WKB_POINT, WKB_MULTIPOINT):
            pts = decode_points([b])
        elif typ in (WKB_LINESTRING, WKB_MULTILINESTRING):
            pts, _, _ = decode_lines([b])
        else:
            pts, _, _, _ = decode_polygons([b])
        mnx[i], mny[i] = pts.min(axis=0)
        mxx[i], mxy[i] = pts.max(axis=0)
    return mnx, mny, mxx, mxy


def bbox_of_lines(coords, offsets):
    """Per-line bboxes -> (min_x, min_y, max_x, max_y) arrays.

    Lines must be non-empty (>=1 point each).
    """
    n = len(offsets) - 1
    if n == 0:
        e = np.empty(0, dtype=np.float64)
        return e, e.copy(), e.copy(), e.copy()
    x, y = coords[:, 0], coords[:, 1]
    starts = np.asarray(offsets[:-1], dtype=np.intp)
    return (np.minimum.reduceat(x, starts), np.minimum.reduceat(y, starts),
            np.maximum.reduceat(x, starts), np.maximum.reduceat(y, starts))


# ------------------------------------------------------- GeoArrow layout
#
# SURVEY.md §1.3's follow-on to WKB: the GeoArrow-native encoding
# (https://geoarrow.org, v0.1 interleaved layout) keeps coordinates as
# Arrow nested lists instead of opaque binary blobs, so read-side
# consumers get the ragged (coords, offsets) layout ZERO-COPY from the
# column buffers — no per-feature WKB parse. Types:
#   linestring: list<fixed_size_list<double>[2]>
#   polygon:    list<list<fixed_size_list<double>[2]>>  (ring 0 = shell)
# The encoders below map this package's ragged numpy layout (module
# docstring) onto those types.

import pyarrow as _pa


def lines_to_geoarrow(coords: np.ndarray,
                      offsets: np.ndarray) -> "_pa.Array":
    """Ragged lines -> GeoArrow linestring array (zero-copy over the
    interleaved coord buffer)."""
    flat = _pa.array(np.ascontiguousarray(
        coords, dtype=np.float64).reshape(-1), type=_pa.float64())
    verts = _pa.FixedSizeListArray.from_arrays(flat, 2)
    return _pa.ListArray.from_arrays(
        _pa.array(np.asarray(offsets, dtype=np.int32),
                  type=_pa.int32()), verts)


def polygons_to_geoarrow(coords: np.ndarray, ring_offsets: np.ndarray,
                         poly_offsets: np.ndarray) -> "_pa.Array":
    """Ragged polygons -> GeoArrow polygon array."""
    flat = _pa.array(np.ascontiguousarray(
        coords, dtype=np.float64).reshape(-1), type=_pa.float64())
    verts = _pa.FixedSizeListArray.from_arrays(flat, 2)
    rings = _pa.ListArray.from_arrays(
        _pa.array(np.asarray(ring_offsets, dtype=np.int32),
                  type=_pa.int32()), verts)
    return _pa.ListArray.from_arrays(
        _pa.array(np.asarray(poly_offsets, dtype=np.int32),
                  type=_pa.int32()), rings)


def wkb_lines_to_geoarrow(wkbs) -> "_pa.Array":
    """Convenience: LineString WKB column -> GeoArrow column (single-
    part lines only; MultiLineStrings must be flattened upstream)."""
    coords, offsets, part_of = decode_lines(wkbs)
    if len(part_of) != len(wkbs):
        raise ValueError("MultiLineString rows must be flattened "
                         "before GeoArrow encoding (1 row = 1 line)")
    return lines_to_geoarrow(coords, offsets)


def wkb_polygons_to_geoarrow(wkbs) -> "_pa.Array":
    """Polygon WKB column -> GeoArrow column (single-part polygons;
    MultiPolygons must be flattened upstream)."""
    coords, ring_off, poly_off, part_of = decode_polygons(wkbs)
    if len(part_of) != len(wkbs):
        raise ValueError("MultiPolygon rows must be flattened before "
                         "GeoArrow encoding (1 row = 1 polygon)")
    return polygons_to_geoarrow(coords, ring_off, poly_off)
