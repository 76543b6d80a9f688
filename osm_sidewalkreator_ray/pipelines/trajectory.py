"""Trajectory mining over (user, ts, lat, lon) point streams.

The geospatial companion to the event-stream operators in
``relational.py`` (sessionize/windows) and the tile rollups in
``tiles.py``: operators whose semantics need the ORDERED per-user
point sequence, not just per-point cell membership.

- ``trajectory_stats_ds`` — per-point step length / speed / bearing
  (one vectorized diff pass per user bucket).
- ``stay_points_ds`` — stay-point detection (Li et al., "Mining user
  similarity based on location history", ACM GIS 2008): maximal runs
  of consecutive points within ``radius_m`` of the run's anchor
  lasting >= ``min_duration_s`` collapse to their centroid.
- ``map_match_ds`` — HMM map-matching (Newson & Krumm, "Hidden Markov
  map matching through noise and sparseness", ACM GIS 2009): snap each
  trajectory point to one of a broadcast set of street/sidewalk
  segments, Viterbi-decoding the most likely segment SEQUENCE
  (Gaussian emission on point->segment distance, exponential
  transition penalty on |route step - great-circle step|).

Distribution plan shared by all three: users are hash-bucketed
(``num_buckets`` coarse partitions, many users per partition — Python
call count is O(buckets)); one groupby shuffle of slim point rows;
inside each bucket everything is numpy over the sorted (user, ts)
frame. Per-user state never crosses partitions because a user's rows
land in exactly one bucket — the same partitioning contract as
``relational.sessionize``. The segment side of map-matching is a
SMALL broadcast (one city's arcs, ``ray.put`` once, grid-indexed once
per worker process) while the trajectory side streams; at 100 TB the
trajectories are the big side, never collected.

Reference parity: the reference plugin has no trajectory mining —
these extend the engine's page-text/geotag surface (SURVEY.md §2.9's
"beyond-reference training-data operators") reusing its kernels
(``joins.haversine_m``, the cell grid of ``cells.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..functions.joins import _EARTH_R_M, haversine_m

_BUCKET = "__tbucket"


def _tag_bucket(user_col: str, num_buckets: int):
    def f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[_BUCKET] = (pd.util.hash_array(b[user_col].to_numpy())
                      % num_buckets).astype(np.int64)
        return b
    return f


def _sorted_runs(g: pd.DataFrame, user_col: str, ts_col: str):
    """Sort a bucket by (user, ts) and return (frame, run starts) —
    run i is rows [starts[i], starts[i+1]) of one user."""
    g = g.sort_values([user_col, ts_col], kind="stable",
                      ignore_index=True)
    u = g[user_col].to_numpy()
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    return g, np.r_[starts, len(g)]


# ---------------------------------------------------------------- stats


def trajectory_stats_ds(points, user_col: str = "user_id",
                        ts_col: str = "ts", lat_col: str = "lat",
                        lon_col: str = "lon", num_buckets: int = 32):
    """Per-point step metrics vs the user's PREVIOUS point: ``step_m``
    (great-circle), ``dt_s``, ``speed_mps`` and ``bearing_deg``
    (initial great-circle bearing, [0, 360)). Each user's first point
    gets NaN metrics. One bucketed shuffle; everything else is one
    vectorized diff over the sorted bucket."""
    def stats(g: pd.DataFrame) -> pd.DataFrame:
        g, starts = _sorted_runs(g, user_col, ts_col)
        n = len(g)
        lat = g[lat_col].to_numpy(np.float64)
        lon = g[lon_col].to_numpy(np.float64)
        ts = g[ts_col].to_numpy()
        step = np.full(n, np.nan)
        dt = np.full(n, np.nan)
        brg = np.full(n, np.nan)
        if n > 1:
            step[1:] = haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:])
            dt[1:] = (ts[1:] - ts[:-1]) / np.timedelta64(1, "s")
            la0 = np.radians(lat[:-1])
            la1 = np.radians(lat[1:])
            dl = np.radians(lon[1:] - lon[:-1])
            y = np.sin(dl) * np.cos(la1)
            x = (np.cos(la0) * np.sin(la1)
                 - np.sin(la0) * np.cos(la1) * np.cos(dl))
            brg[1:] = (np.degrees(np.arctan2(y, x)) + 360.0) % 360.0
        first = np.zeros(n, dtype=bool)
        first[starts[:-1]] = True
        step[first] = np.nan
        dt[first] = np.nan
        brg[first] = np.nan
        out = g.drop(columns=[_BUCKET])
        out["step_m"] = step
        out["dt_s"] = dt
        with np.errstate(divide="ignore", invalid="ignore"):
            out["speed_mps"] = np.where(dt > 0, step / dt, np.nan)
        out["bearing_deg"] = brg
        return out

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(stats, batch_format="pandas"))


# ----------------------------------------------------------- staypoints


def _stay_points_user(lat: np.ndarray, lon: np.ndarray,
                      ts: np.ndarray, radius_m: float,
                      min_duration_s: float) -> list[tuple]:
    """Li et al. 2008 sweep for ONE user (points pre-sorted by ts).
    Anchor at i; extend to the last consecutive j with
    dist(p_i, p_j) <= radius; if the dwell is long enough the run
    [i, j] collapses to its centroid. O(n) amortized in the common
    case (the anchor jumps past each emitted run); worst case O(n^2)
    on a dense non-dwelling trace — bounded by per-user row counts,
    never by the partition."""
    out = []
    n = len(lat)
    i = 0
    while i < n - 1:
        d = haversine_m(lat[i], lon[i], lat[i + 1:], lon[i + 1:])
        far = np.flatnonzero(d > radius_m)
        j = (i + 1 + far[0]) if len(far) else n  # first point OUTSIDE
        dwell = (ts[j - 1] - ts[i]) / np.timedelta64(1, "s")
        if dwell >= min_duration_s:
            out.append((float(lat[i:j].mean()), float(lon[i:j].mean()),
                        ts[i], ts[j - 1], j - i, float(dwell)))
            i = j
        else:
            i += 1
    return out


def stay_points_ds(points, user_col: str = "user_id",
                   ts_col: str = "ts", lat_col: str = "lat",
                   lon_col: str = "lon", radius_m: float = 200.0,
                   min_duration_s: float = 1800.0,
                   num_buckets: int = 32):
    """Stay points per user: (user, sp_seq, lat, lon centroid,
    t_start, t_end, n_points, duration_s). Bucketed by user; the
    per-user sweep is the published sequential algorithm (it cannot
    split across partitions, and per-user traces are small — the
    brief's groupby/map_groups escape hatch for order-dependent
    semantics)."""
    def detect(g: pd.DataFrame) -> pd.DataFrame:
        g, starts = _sorted_runs(g, user_col, ts_col)
        lat = g[lat_col].to_numpy(np.float64)
        lon = g[lon_col].to_numpy(np.float64)
        ts = g[ts_col].to_numpy()
        users = g[user_col].to_numpy()
        rows = []
        for s, e in zip(starts[:-1], starts[1:]):
            sps = _stay_points_user(lat[s:e], lon[s:e], ts[s:e],
                                    radius_m, min_duration_s)
            for k, (la, lo, t0, t1, np_, dw) in enumerate(sps):
                rows.append((users[s], k, la, lo, t0, t1, np_, dw))
        cols = [user_col, "sp_seq", "lat", "lon", "t_start", "t_end",
                "n_points", "duration_s"]
        if not rows:
            return pd.DataFrame({
                user_col: pd.Series([], dtype=g[user_col].dtype),
                "sp_seq": pd.Series([], dtype=np.int64),
                "lat": pd.Series([], dtype=np.float64),
                "lon": pd.Series([], dtype=np.float64),
                "t_start": pd.Series([], dtype=ts.dtype),
                "t_end": pd.Series([], dtype=ts.dtype),
                "n_points": pd.Series([], dtype=np.int64),
                "duration_s": pd.Series([], dtype=np.float64)})
        return pd.DataFrame(rows, columns=cols)

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(detect, batch_format="pandas"))


# ------------------------------------------------------------ resample


def resample_trajectory_ds(points, interval_s: float,
                           user_col: str = "user_id",
                           ts_col: str = "ts", lat_col: str = "lat",
                           lon_col: str = "lon",
                           max_gap_s: float | None = None,
                           num_buckets: int = 32):
    """Fixed-interval resampling: per user, linear lat/lon
    interpolation at ``interval_s`` ticks from the user's first point
    to the last (the uniform grid HMM map-matching and OD rollups
    want). Ticks inside a gap longer than ``max_gap_s`` (default: no
    limit) are DROPPED rather than interpolated across an outage.
    Output: (user, ts, lat, lon, interpolated). City-scale linear
    lat/lon interpolation is the standard approximation (exact
    great-circle slerp differs by <1e-6 at step lengths under a km).
    Vectorized per user with ``np.interp``; one bucketed shuffle."""
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    step = np.timedelta64(int(interval_s * 1_000_000), "us")

    def resample(g: pd.DataFrame) -> pd.DataFrame:
        g, starts = _sorted_runs(g, user_col, ts_col)
        lat = g[lat_col].to_numpy(np.float64)
        lon = g[lon_col].to_numpy(np.float64)
        ts = g[ts_col].to_numpy()
        users = g[user_col].to_numpy()
        out = []
        for s, e in zip(starts[:-1], starts[1:]):
            t = ts[s:e]
            # dedup equal timestamps (np.interp needs increasing x)
            keep = np.r_[True, t[1:] > t[:-1]]
            t, la, lo = t[keep], lat[s:e][keep], lon[s:e][keep]
            ticks = np.arange(t[0], t[-1] + step, step)
            ticks = ticks[ticks <= t[-1]]
            tf = (ticks - t[0]) / np.timedelta64(1, "s")
            xf = (t - t[0]) / np.timedelta64(1, "s")
            ila = np.interp(tf, xf, la)
            ilo = np.interp(tf, xf, lo)
            on_input = np.isin(ticks, t)
            if max_gap_s is not None and len(t) > 1:
                gap_ok_hi = np.searchsorted(xf, tf, "left")
                gap_ok_hi = np.clip(gap_ok_hi, 1, len(xf) - 1)
                gap = xf[gap_ok_hi] - xf[gap_ok_hi - 1]
                inside = (gap <= max_gap_s) | on_input
                ticks, ila, ilo, on_input = (ticks[inside],
                                             ila[inside], ilo[inside],
                                             on_input[inside])
            out.append(pd.DataFrame({
                user_col: users[s], ts_col: ticks, lat_col: ila,
                lon_col: ilo, "interpolated": ~on_input}))
        if not out:
            return pd.DataFrame({
                user_col: pd.Series([], dtype=g[user_col].dtype),
                ts_col: pd.Series([], dtype=ts.dtype),
                lat_col: pd.Series([], dtype=np.float64),
                lon_col: pd.Series([], dtype=np.float64),
                "interpolated": pd.Series([], dtype=bool)})
        return pd.concat(out, ignore_index=True)

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(resample,
                                         batch_format="pandas"))


# ------------------------------------------------------------ simplify


def simplify_trajectory_ds(points, tol_m: float,
                           user_col: str = "user_id",
                           ts_col: str = "ts", lat_col: str = "lat",
                           lon_col: str = "lon",
                           num_buckets: int = 32):
    """Douglas-Peucker trajectory thinning: keep the subset of each
    user's ordered points whose removal would displace the polyline by
    more than ``tol_m`` meters (endpoints always kept) — the standard
    pre-storage compaction for GPS traces. Rows are FILTERED, never
    rewritten, so every surviving row keeps its original timestamp and
    payload columns. Reuses the raster engine's DP kernel
    (`geom.raster._douglas_peucker`) in the per-user local
    equirectangular frame (meters), same approximation contract as
    ``map_match_ds``."""
    from ..geom.raster import _douglas_peucker

    def thin(g: pd.DataFrame) -> pd.DataFrame:
        g, starts = _sorted_runs(g, user_col, ts_col)
        lat = g[lat_col].to_numpy(np.float64)
        lon = g[lon_col].to_numpy(np.float64)
        keep = np.zeros(len(g), dtype=bool)
        for s, e in zip(starts[:-1], starts[1:]):
            ky = np.radians(1.0) * _EARTH_R_M
            kx = ky * np.cos(np.radians(lat[s:e].mean()))
            pts = np.column_stack([lon[s:e] * kx, lat[s:e] * ky])
            if len(pts) <= 2:
                keep[s:e] = True
            else:
                keep[s + _douglas_peucker(pts, tol_m)] = True
        return g.loc[keep].drop(columns=[_BUCKET])

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(thin, batch_format="pandas"))


# -------------------------------------------------------------- trips


def trips_from_stays_ds(points, user_col: str = "user_id",
                        ts_col: str = "ts", lat_col: str = "lat",
                        lon_col: str = "lon", radius_m: float = 200.0,
                        min_duration_s: float = 1800.0,
                        num_buckets: int = 32):
    """Trip segmentation: the movement between CONSECUTIVE stay points
    of one user is a trip. Output one row per trip — (user, trip_seq,
    t_start = origin stay's end, t_end = destination stay's start,
    o_lat/o_lon and d_lat/d_lon = the stay centroids, n_points =
    points strictly between the stays, length_m = great-circle path
    length over origin-exit -> between-points -> destination-entry).
    Users with fewer than two stay points emit nothing (an unbounded
    leading/trailing wander is not a trip). Same single user-bucketed
    shuffle as ``stay_points_ds`` — stays and trips are derived in one
    pass, never joined back."""
    def detect(g: pd.DataFrame) -> pd.DataFrame:
        g, starts = _sorted_runs(g, user_col, ts_col)
        lat = g[lat_col].to_numpy(np.float64)
        lon = g[lon_col].to_numpy(np.float64)
        ts = g[ts_col].to_numpy()
        users = g[user_col].to_numpy()
        rows = []
        for s, e in zip(starts[:-1], starts[1:]):
            sps = _stay_points_user(lat[s:e], lon[s:e], ts[s:e],
                                    radius_m, min_duration_s)
            for k in range(len(sps) - 1):
                a, b = sps[k], sps[k + 1]
                # indices of points strictly between stay a's last
                # point and stay b's first point
                i0 = s + int(np.searchsorted(ts[s:e], a[3], "right"))
                i1 = s + int(np.searchsorted(ts[s:e], b[2], "left"))
                path_lat = np.r_[a[0], lat[i0:i1], b[0]]
                path_lon = np.r_[a[1], lon[i0:i1], b[1]]
                length = float(haversine_m(path_lat[:-1], path_lon[:-1],
                                           path_lat[1:], path_lon[1:]
                                           ).sum())
                rows.append((users[s], k, a[3], b[2], a[0], a[1],
                             b[0], b[1], i1 - i0, length))
        cols = [user_col, "trip_seq", "t_start", "t_end", "o_lat",
                "o_lon", "d_lat", "d_lon", "n_points", "length_m"]
        if not rows:
            return pd.DataFrame({
                user_col: pd.Series([], dtype=g[user_col].dtype),
                "trip_seq": pd.Series([], dtype=np.int64),
                "t_start": pd.Series([], dtype=ts.dtype),
                "t_end": pd.Series([], dtype=ts.dtype),
                "o_lat": pd.Series([], dtype=np.float64),
                "o_lon": pd.Series([], dtype=np.float64),
                "d_lat": pd.Series([], dtype=np.float64),
                "d_lon": pd.Series([], dtype=np.float64),
                "n_points": pd.Series([], dtype=np.int64),
                "length_m": pd.Series([], dtype=np.float64)})
        return pd.DataFrame(rows, columns=cols)

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(detect, batch_format="pandas"))


# ---------------------------------------------------------- map match


class _SegmentIndex:
    """Grid-indexed segment set in a local equirectangular frame.

    Built ONCE per worker process from the broadcast segment table
    (cached by object-ref, like ``joins._resolve_small``): city-scale
    AOIs make the equirectangular projection about ``lat_ref`` exact
    to <0.1% over tens of km — the same local-frame assumption the
    sidewalk pipeline's ``geom.project`` documents."""

    def __init__(self, segs: pd.DataFrame, radius_m: float):
        self.seg_id = segs["seg_id"].to_numpy()
        lat_ref = float(np.mean([segs["lat0"].mean(),
                                 segs["lat1"].mean()]))
        self.lat_ref = lat_ref
        self.kx = np.radians(1.0) * _EARTH_R_M * np.cos(
            np.radians(lat_ref))
        self.ky = np.radians(1.0) * _EARTH_R_M
        self.x0 = segs["lon0"].to_numpy(np.float64) * self.kx
        self.y0 = segs["lat0"].to_numpy(np.float64) * self.ky
        self.x1 = segs["lon1"].to_numpy(np.float64) * self.kx
        self.y1 = segs["lat1"].to_numpy(np.float64) * self.ky
        self.w = float(radius_m)
        # each segment registers in every grid cell its bbox (padded
        # by nothing — the probe reads the 3x3 ring) touches
        cx0 = np.floor(np.minimum(self.x0, self.x1) / self.w).astype(np.int64)
        cx1 = np.floor(np.maximum(self.x0, self.x1) / self.w).astype(np.int64)
        cy0 = np.floor(np.minimum(self.y0, self.y1) / self.w).astype(np.int64)
        cy1 = np.floor(np.maximum(self.y0, self.y1) / self.w).astype(np.int64)
        self.cells: dict[tuple, np.ndarray] = {}
        tmp: dict[tuple, list] = {}
        for i in range(len(self.seg_id)):
            for cx in range(cx0[i], cx1[i] + 1):
                for cy in range(cy0[i], cy1[i] + 1):
                    tmp.setdefault((cx, cy), []).append(i)
        self.cells = {k: np.asarray(v, dtype=np.int64)
                      for k, v in tmp.items()}

    def to_xy(self, lat: np.ndarray, lon: np.ndarray):
        return lon * self.kx, lat * self.ky

    def candidates(self, x: float, y: float) -> np.ndarray:
        cx, cy = int(np.floor(x / self.w)), int(np.floor(y / self.w))
        parts = [self.cells.get((cx + dx, cy + dy))
                 for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        parts = [p for p in parts if p is not None]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def project(self, x: float, y: float, idx: np.ndarray):
        """Distance + projected point from (x, y) to segments idx."""
        ax, ay = self.x0[idx], self.y0[idx]
        bx, by = self.x1[idx], self.y1[idx]
        dx, dy = bx - ax, by - ay
        ll = dx * dx + dy * dy
        t = np.where(ll > 0, ((x - ax) * dx + (y - ay) * dy)
                     / np.where(ll > 0, ll, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        px, py = ax + t * dx, ay + t * dy
        d = np.hypot(x - px, y - py)
        return d, px, py


_INDEX_CACHE: dict[tuple, _SegmentIndex] = {}


def _resolve_index(ref, radius_m: float) -> _SegmentIndex:
    key = (ref.hex(), radius_m)
    idx = _INDEX_CACHE.get(key)
    if idx is None:
        if len(_INDEX_CACHE) >= 4:
            _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
        idx = _SegmentIndex(ray.get(ref), radius_m)
        _INDEX_CACHE[key] = idx
    return idx


def _viterbi_user(index: _SegmentIndex, x: np.ndarray, y: np.ndarray,
                  sigma_m: float, beta_m: float, radius_m: float):
    """Newson-Krumm decode for one user's ordered points. Returns
    (seg_id, dist_m, matched) arrays; points with no candidate within
    ``radius_m`` stay unmatched (seg_id -1) and BREAK the chain — the
    decode restarts after the gap, matching the paper's treatment of
    outages. Log domain throughout; transitions are vectorized K x K'
    numpy per step."""
    n = len(x)
    seg = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.nan)
    # per-point candidates
    cands, dists, pxs, pys = [], [], [], []
    for i in range(n):
        c = index.candidates(x[i], y[i])
        if len(c):
            d, px, py = index.project(x[i], y[i], c)
            keep = d <= radius_m
            c, d, px, py = c[keep], d[keep], px[keep], py[keep]
        if len(c) == 0:
            cands.append(None)
            dists.append(None)
            pxs.append(None)
            pys.append(None)
        else:
            cands.append(c)
            dists.append(d)
            pxs.append(px)
            pys.append(py)
    s = 0
    while s < n:
        if cands[s] is None:
            s += 1
            continue
        e = s
        while e + 1 < n and cands[e + 1] is not None:
            e += 1
        # Viterbi over run [s, e]
        logp = -0.5 * (dists[s] / sigma_m) ** 2
        back: list[np.ndarray] = []
        for t in range(s + 1, e + 1):
            gc = float(np.hypot(x[t] - x[t - 1], y[t] - y[t - 1]))
            # route-step approx: straight line between projections
            ddx = pxs[t][None, :] - pxs[t - 1][:, None]
            ddy = pys[t][None, :] - pys[t - 1][:, None]
            route = np.hypot(ddx, ddy)
            trans = -np.abs(route - gc) / beta_m
            emit = -0.5 * (dists[t] / sigma_m) ** 2
            score = logp[:, None] + trans
            bp = np.argmax(score, axis=0)
            logp = score[bp, np.arange(score.shape[1])] + emit
            back.append(bp)
        k = int(np.argmax(logp))
        for t in range(e, s - 1, -1):
            seg[t] = index.seg_id[cands[t][k]]
            dist[t] = dists[t][k]
            if t > s:
                k = int(back[t - s - 1][k])
        s = e + 1
    return seg, dist, seg >= 0


def map_match_ds(points, segments: pd.DataFrame,
                 user_col: str = "user_id", ts_col: str = "ts",
                 lat_col: str = "lat", lon_col: str = "lon",
                 sigma_m: float = 8.0, beta_m: float = 30.0,
                 radius_m: float = 60.0, num_buckets: int = 32):
    """HMM map-matching of trajectories onto segments.

    ``segments``: small pandas frame (seg_id, lat0, lon0, lat1, lon1)
    — one city's arcs, broadcast once; the trajectory Dataset streams
    through one user-bucketed shuffle. Output = input rows plus
    ``matched_seg`` (int64, -1 where no segment within ``radius_m``),
    ``match_dist_m`` (NaN when unmatched).

    Emission N(0, sigma_m) on point->segment distance; transition
    exp(-|route step - great-circle step|/beta_m) with the route step
    approximated by the straight line between consecutive projections
    (exact for the same segment and adjacent arcs at city scale —
    documented approximation vs the paper's shortest-path routing,
    which would need the full graph per pair)."""
    need = {"seg_id", "lat0", "lon0", "lat1", "lon1"}
    if not need.issubset(segments.columns):
        raise ValueError(f"segments needs columns {sorted(need)}")
    seg_ref = ray.put(segments[sorted(need)].reset_index(drop=True))

    def match(g: pd.DataFrame) -> pd.DataFrame:
        index = _resolve_index(seg_ref, radius_m)
        g, starts = _sorted_runs(g, user_col, ts_col)
        x, y = index.to_xy(g[lat_col].to_numpy(np.float64),
                           g[lon_col].to_numpy(np.float64))
        seg = np.full(len(g), -1, dtype=np.int64)
        dist = np.full(len(g), np.nan)
        for s, e in zip(starts[:-1], starts[1:]):
            sg, d, _ = _viterbi_user(index, x[s:e], y[s:e],
                                     sigma_m, beta_m, radius_m)
            seg[s:e] = sg
            dist[s:e] = d
        out = g.drop(columns=[_BUCKET])
        out["matched_seg"] = seg
        out["match_dist_m"] = dist
        return out

    return (points.map_batches(_tag_bucket(user_col, num_buckets),
                               batch_format="pandas")
            .groupby(_BUCKET).map_groups(match, batch_format="pandas"))


# --- deterministic events->points feed + bench wrapper -----------------
#
# The testdata has no GPS table; derive one from `events` the same way
# tiles.py's pyramid oracle does — row-local int64 arithmetic only, so
# the feed is reproducible verbatim in DuckDB and identical across
# batch boundaries / parallelism levels. Each user gets a stable home
# cell from user_id and each event jitters around it from event_id, so
# per-user traces are dense enough (~200 points/user at sf0.1) to
# exercise stay-point runs and step stats.


def events_trajectory_points(sf_dir: str, num_buckets: int = 32):
    """(user_id, ts, lat, lon) Dataset derived deterministically from
    ``events.parquet`` — columns pruned at the read."""
    import os

    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts"])

    def to_points(b: pd.DataFrame) -> pd.DataFrame:
        uid = b["user_id"].to_numpy(np.int64)
        eid = b["event_id"].to_numpy(np.int64)
        home_lat = ((uid * 48271) % 12000) / 100.0 - 60.0
        home_lon = ((uid * 69621) % 36000) / 100.0 - 180.0
        return pd.DataFrame({
            "user_id": uid,
            "ts": b["ts"].to_numpy(),
            "lat": home_lat + ((eid * 7919) % 2001 - 1000) * 1e-5,
            "lon": home_lon + ((eid * 104729) % 2001 - 1000) * 1e-5,
        })

    return ds.map_batches(to_points, batch_format="pandas")


def trajectory_stats_query(sf_dir: str) -> pd.DataFrame:
    """Bench/driver wrapper: step stats over the events-derived point
    stream, reduced to one per-user summary row (driver-sized output;
    the full per-point stream is the library form above)."""
    stats = trajectory_stats_ds(events_trajectory_points(sf_dir))

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("user_id", sort=False)
        return pd.DataFrame({
            "user_id": np.asarray(list(g.groups), dtype=np.int64),
            "n_points": g.size().to_numpy(np.int64),
            "sum_step_m": g["step_m"].sum().to_numpy(np.float64),
            "max_speed_mps": g["speed_mps"].max().to_numpy(np.float64),
        })

    # stats is already user-bucketed (a user never spans groups), so a
    # per-group summary is exact with no further shuffle
    out = (stats.map_batches(summarize, batch_size=None,
                             batch_format="pandas")
           .to_pandas())
    agg = out.groupby("user_id", as_index=False).agg(
        n_points=("n_points", "sum"), sum_step_m=("sum_step_m", "sum"),
        max_speed_mps=("max_speed_mps", "max"))
    agg["sum_step_m"] = agg["sum_step_m"].round(3)
    return agg.sort_values("user_id", ignore_index=True)
