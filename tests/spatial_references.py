"""Geometry references and fixtures that only tests use.

The product code never measures polygon areas, decodes GeoArrow or
builds the square-loop street fixture; tests need them to check the
reachable kernels, encoders and pipelines against an independent
answer. Import them from here, not from the package.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from osm_sidewalkreator_ray.geom import core, wkb
from osm_sidewalkreator_ray.pipelines import page_join as PJ
from osm_sidewalkreator_ray.sources import synthetic as SYN


# ------------------------------------------------------------- measures

def ring_areas(coords: np.ndarray, ring_offsets: np.ndarray) -> np.ndarray:
    """Signed shoelace area per ring (vectorized over all rings)."""
    n = len(ring_offsets) - 1
    if n == 0:
        return np.empty(0, dtype=np.float64)
    x, y = coords[:, 0], coords[:, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    cut = np.zeros(len(cross), dtype=bool)
    cut[ring_offsets[1:-1] - 1] = True
    cross = np.where(cut, 0.0, cross)
    out = 0.5 * np.add.reduceat(np.concatenate((cross, [0.0])),
                                np.asarray(ring_offsets[:-1], dtype=np.intp))
    return out[:n]


def polygon_areas(coords, ring_offsets, poly_offsets) -> np.ndarray:
    """Area per polygon: |shell| - sum |holes| (M11 ``in_area``)."""
    ra = ring_areas(coords, ring_offsets)
    n = len(poly_offsets) - 1
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        rs = ra[poly_offsets[i]:poly_offsets[i + 1]]
        if len(rs):
            out[i] = abs(rs[0]) - np.abs(rs[1:]).sum()
    return out


def polygon_perimeters(coords, ring_offsets, poly_offsets) -> np.ndarray:
    """Exterior-shell perimeter per polygon (M11 ``perimeter``)."""
    lens = core.line_lengths(coords, ring_offsets)
    n = len(poly_offsets) - 1
    return np.array([lens[poly_offsets[i]] if poly_offsets[i + 1] > poly_offsets[i]
                     else 0.0 for i in range(n)])


def points_to_polyline_dist(points: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Min distance from each of N points to one polyline (M coords)."""
    if len(line) == 1:
        return np.linalg.norm(points - line[0], axis=1)
    px = points[:, 0:1]; py = points[:, 1:2]
    ax = line[:-1, 0][None, :]; ay = line[:-1, 1][None, :]
    bx = line[1:, 0][None, :]; by = line[1:, 1][None, :]
    return core.point_segment_dist(px, py, ax, ay, bx, by).min(axis=1)


# ------------------------------------------------------------- encoders

def encode_points(xy: np.ndarray) -> list[bytes]:
    """(N,2) -> N Point WKBs."""
    hdr = b"\x01\x01\x00\x00\x00"
    return [hdr + struct.pack("<dd", x, y)
            for x, y in np.asarray(xy, dtype=np.float64)]


# GeoArrow decoders: the inverse of ``wkb.lines_to_geoarrow`` /
# ``wkb.polygons_to_geoarrow``.

GEOARROW_LINESTRING = pa.list_(pa.list_(pa.float64(), 2))


def geoarrow_to_lines(arr) -> tuple[np.ndarray, np.ndarray]:
    """GeoArrow linestring array -> (coords (M,2), offsets (N+1)).
    Coordinate buffer is read zero-copy; offsets account for any
    array-level slice offset."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    coords = np.asarray(arr.values.values, dtype=np.float64) \
        .reshape(-1, 2)
    # normalize to a 0-based offset window over the used span
    coords = coords[offsets[0]:offsets[-1]]
    return coords, offsets - offsets[0]


def geoarrow_to_polygons(arr) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GeoArrow polygon array -> (coords, ring_offsets, poly_offsets)
    in the package's ragged layout."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    poly_off = np.asarray(arr.offsets, dtype=np.int64)
    rings = arr.values
    ring_off = np.asarray(rings.offsets, dtype=np.int64)
    coords = np.asarray(rings.values.values, dtype=np.float64) \
        .reshape(-1, 2)
    # window to the used span and rebase both offset levels
    ring_off = ring_off[poly_off[0]:poly_off[-1] + 1]
    coords = coords[ring_off[0]:ring_off[-1]]
    return (coords, ring_off - ring_off[0], poly_off - poly_off[0])


def geoarrow_lines_to_wkb(arr) -> list[bytes]:
    coords, offsets = geoarrow_to_lines(arr)
    return wkb.encode_lines(coords, offsets)


def geoarrow_polygons_to_wkb(arr) -> list[bytes]:
    coords, ring_off, poly_off = geoarrow_to_polygons(arr)
    return wkb.encode_polygons(coords, ring_off, poly_off)


# ------------------------------------------------------------- fixtures

def streets_unit_square(side_m: float = 100.0) -> pa.Table:
    """4 residential segments forming a closed square loop: the
    reference's square-loop fixture (test_processing_algorithms.py:
    62-89), 1 protoblock expected."""
    pts_m = np.array([[0, 0], [side_m, 0], [side_m, side_m], [0, side_m]])
    rows = {k: [] for k in SYN.STREET_SCHEMA.names}
    for i in range(4):
        a = pts_m[i]
        b = pts_m[(i + 1) % 4]
        lon, lat = SYN._m_to_lonlat(np.array([a[0], b[0]], dtype=float),
                                    np.array([a[1], b[1]], dtype=float))
        rows["way_id"].append(i + 1)
        rows["highway"].append("residential")
        rows["width"].append(None)
        rows["sidewalk"].append(None)
        rows["sidewalk_left"].append(None)
        rows["sidewalk_right"].append(None)
        rows["sidewalk_both"].append(None)
        rows["footway"].append(None)
        rows["geometry_wkb"].append(
            wkb.encode_line(np.column_stack((lon, lat))))
    return pa.table(rows, schema=SYN.STREET_SCHEMA)


def building_pois(buildings: pa.Table) -> pa.Table:
    """Building centroids + address points -> POI table for G6b
    (reference merges centroids and addr nodes,
    osm_sidewalkreator.py:2908-2931)."""
    coords, ro, po, part = wkb.decode_polygons(
        buildings["geometry_wkb"].to_pylist())
    pts = []
    for p in range(len(po) - 1):
        ring = coords[ro[po[p]]:ro[po[p] + 1]]
        pts.append(ring[:-1].mean(axis=0))
    pts = np.asarray(pts)
    return pa.table({
        "poi_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "geometry_wkb": pa.array(encode_points(pts), pa.binary()),
    })


def join_pages_to_tiles(geotags, features, cfg):
    """The page->tile join on already-built inputs: the sharded index
    of ``features`` joined with the materialized ``geotags``. Returns
    the assignments Dataset (metric rows tagged by ``is_metrics``)."""
    return PJ._join_with_prepared(geotags.materialize(),
                                  PJ._prepare_index(features, cfg), cfg)
