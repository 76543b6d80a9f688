"""Trajectory operators vs independent references: stay-point
detection vs a plain-python reimplementation, per-point stats vs a
pandas groupby reference, and HMM map-matching vs a planted walk plus
an O(T*K^2) pure-loop Viterbi reference."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from osm_sidewalkreator_ray.functions.joins import _EARTH_R_M, haversine_m
from osm_sidewalkreator_ray.pipelines.trajectory import (
    trajectory_stats_ds, stay_points_ds, map_match_ds,
    trajectory_stats_query, _SegmentIndex)

pytestmark = pytest.mark.usefixtures("ray_session")


# ------------------------------------------------ per-point stats


def _walk(user, n, seed, lat0=-25.4, lon0=-49.2, step_deg=2e-4,
          start_ts="2026-01-01", dt_s=30):
    rng = np.random.RandomState(seed)
    lat = lat0 + np.cumsum(rng.uniform(-step_deg, step_deg, n))
    lon = lon0 + np.cumsum(rng.uniform(-step_deg, step_deg, n))
    ts = (np.datetime64(start_ts)
          + np.arange(n) * np.timedelta64(dt_s, "s"))
    return pd.DataFrame({"user_id": np.int64(user), "ts": ts,
                         "lat": lat, "lon": lon})


def test_trajectory_stats_matches_pandas_reference():
    df = pd.concat([_walk(u, 40 + u, seed=u) for u in range(6)],
                   ignore_index=True)
    shuffled = df.sample(frac=1.0, random_state=9)  # order-insensitive
    out = trajectory_stats_ds(rd.from_pandas(shuffled),
                              num_buckets=4).to_pandas()
    out = out.sort_values(["user_id", "ts"]).reset_index(drop=True)
    ref = df.sort_values(["user_id", "ts"]).reset_index(drop=True)
    g = ref.groupby("user_id")
    step = haversine_m(g["lat"].shift().to_numpy(),
                       g["lon"].shift().to_numpy(),
                       ref["lat"].to_numpy(), ref["lon"].to_numpy())
    first = g.cumcount().to_numpy() == 0
    step[first] = np.nan
    np.testing.assert_allclose(out["step_m"], step, equal_nan=True,
                               rtol=1e-12)
    dt = (ref["ts"] - g["ts"].shift()).dt.total_seconds().to_numpy()
    np.testing.assert_allclose(out["dt_s"], dt, equal_nan=True)
    np.testing.assert_allclose(out["speed_mps"], step / dt,
                               equal_nan=True, rtol=1e-12)
    b = out["bearing_deg"].to_numpy()
    assert np.isnan(b[first]).all()
    ok = ~np.isnan(b)
    assert ((b[ok] >= 0) & (b[ok] < 360)).all()


# ------------------------------------------------ stay points


def _stay_ref(df, radius_m, min_dur_s):
    """Independent plain-loop reimplementation of the Li et al. sweep."""
    rows = []
    for uid, g in df.sort_values(["user_id", "ts"]).groupby("user_id"):
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        ts = g["ts"].to_numpy()
        i, k = 0, 0
        while i < len(lat) - 1:
            j = i + 1
            while j < len(lat) and haversine_m(
                    lat[i], lon[i], lat[j], lon[j]) <= radius_m:
                j += 1
            dwell = (ts[j - 1] - ts[i]) / np.timedelta64(1, "s")
            if dwell >= min_dur_s:
                rows.append((uid, k, lat[i:j].mean(), lon[i:j].mean(),
                             ts[i], ts[j - 1], j - i, dwell))
                k += 1
                i = j
            else:
                i += 1
    return pd.DataFrame(rows, columns=[
        "user_id", "sp_seq", "lat", "lon", "t_start", "t_end",
        "n_points", "duration_s"])


def test_stay_points_match_reference_with_planted_dwells():
    parts = []
    for u in range(5):
        w = _walk(u, 30, seed=10 + u, step_deg=3e-3)  # moving fast
        # plant a dwell: 12 points jittering within ~20 m
        rng = np.random.RandomState(100 + u)
        dwell = pd.DataFrame({
            "user_id": np.int64(u),
            "ts": w["ts"].iloc[-1] + (1 + np.arange(12))
            * np.timedelta64(120, "s"),
            "lat": w["lat"].iloc[-1] + rng.uniform(-1e-4, 1e-4, 12),
            "lon": w["lon"].iloc[-1] + rng.uniform(-1e-4, 1e-4, 12)})
        tail = _walk(u, 10, seed=200 + u, step_deg=3e-3,
                     lat0=float(dwell["lat"].iloc[-1]) + 0.01,
                     lon0=float(dwell["lon"].iloc[-1]) + 0.01)
        tail["ts"] = dwell["ts"].iloc[-1] + (1 + np.arange(10)) \
            * np.timedelta64(60, "s")
        parts += [w, dwell, tail]
    df = pd.concat(parts, ignore_index=True)

    out = stay_points_ds(rd.from_pandas(df.sample(frac=1.0,
                                                  random_state=3)),
                         radius_m=200.0, min_duration_s=900.0,
                         num_buckets=4).to_pandas()
    ref = _stay_ref(df, 200.0, 900.0)
    assert len(ref) >= 5  # every planted dwell found by the reference
    out = out.sort_values(["user_id", "sp_seq"]).reset_index(drop=True)
    ref = ref.sort_values(["user_id", "sp_seq"]).reset_index(drop=True)
    assert len(out) == len(ref)
    assert (out["user_id"].to_numpy() == ref["user_id"].to_numpy()).all()
    assert (out["n_points"].to_numpy() == ref["n_points"].to_numpy()).all()
    np.testing.assert_allclose(out["lat"], ref["lat"], rtol=1e-12)
    np.testing.assert_allclose(out["lon"], ref["lon"], rtol=1e-12)
    np.testing.assert_allclose(out["duration_s"], ref["duration_s"])


# ------------------------------------------------ map matching


def _grid_segments(n=5, lat0=-25.44, lon0=-49.28, step=0.002):
    """n x n street grid: horizontal + vertical unit segments."""
    rows = []
    sid = 0
    for i in range(n):
        for j in range(n - 1):
            rows.append((sid, lat0 + i * step, lon0 + j * step,
                         lat0 + i * step, lon0 + (j + 1) * step))
            sid += 1
            rows.append((sid, lat0 + j * step, lon0 + i * step,
                         lat0 + (j + 1) * step, lon0 + i * step))
            sid += 1
    return pd.DataFrame(rows, columns=["seg_id", "lat0", "lon0",
                                       "lat1", "lon1"])


def _viterbi_ref(index, x, y, sigma, beta, radius):
    """O(T*K^2) pure-python Viterbi (independent of the vectorized
    production decode)."""
    T = len(x)
    cands = []
    for t in range(T):
        c = index.candidates(x[t], y[t])
        d, px, py = index.project(x[t], y[t], c) if len(c) else \
            (np.empty(0), np.empty(0), np.empty(0))
        keep = d <= radius
        cands.append((c[keep], d[keep], px[keep], py[keep]))
    assert all(len(c[0]) for c in cands), "test walk must stay covered"
    prev = [(-0.5 * (d / sigma) ** 2, None)
            for d in cands[0][1]]
    paths = [[k] for k in range(len(cands[0][0]))]
    for t in range(1, T):
        gc = np.hypot(x[t] - x[t - 1], y[t] - y[t - 1])
        nxt, npaths = [], []
        for k2 in range(len(cands[t][0])):
            best, arg = -np.inf, 0
            for k1 in range(len(cands[t - 1][0])):
                route = np.hypot(cands[t][2][k2] - cands[t - 1][2][k1],
                                 cands[t][3][k2] - cands[t - 1][3][k1])
                s = prev[k1][0] - abs(route - gc) / beta
                if s > best:
                    best, arg = s, k1
            nxt.append((best - 0.5 * (cands[t][1][k2] / sigma) ** 2,
                        arg))
            npaths.append(paths[arg] + [k2])
        prev, paths = nxt, npaths
    best = int(np.argmax([p[0] for p in prev]))
    return [index.seg_id[cands[t][0][paths[best][t]]]
            for t in range(T)]


def test_map_match_recovers_planted_walk_and_matches_reference():
    segs = _grid_segments()
    # walk along one horizontal street (row i=2) with ~5 m GPS noise
    lat_row = -25.44 + 2 * 0.002
    rng = np.random.RandomState(7)
    n = 25
    # start mid-block: a walk anchored exactly on an intersection is
    # legitimately ambiguous with the crossing vertical arc
    lon = -49.28 + 0.0004 + np.linspace(0, 0.0068, n)
    lat = np.full(n, lat_row) + rng.normal(0, 4.5e-5, n)
    df = pd.DataFrame({
        "user_id": np.int64(1),
        "ts": np.datetime64("2026-01-01")
        + np.arange(n) * np.timedelta64(15, "s"),
        "lat": lat, "lon": lon})

    out = map_match_ds(rd.from_pandas(df), segs, sigma_m=8.0,
                       beta_m=30.0, radius_m=60.0,
                       num_buckets=2).to_pandas()
    out = out.sort_values("ts").reset_index(drop=True)
    assert (out["matched_seg"] >= 0).all()
    # matches must lie on row 2: its horizontal arcs, or (at a
    # crossing) a vertical arc that touches the row — and the bulk of
    # the walk must sit on the horizontal street itself
    horiz = set(segs[(segs["lat0"] == segs["lat1"])
                     & np.isclose(segs["lat0"], lat_row)]["seg_id"])
    touch = set(segs[(segs["lon0"] == segs["lon1"])
                     & (segs["lat0"] <= lat_row + 1e-12)
                     & (segs["lat1"] >= lat_row - 1e-12)]["seg_id"])
    assert set(out["matched_seg"]) <= horiz | touch
    assert (out["matched_seg"].isin(list(horiz)).mean()) >= 0.8
    assert out["match_dist_m"].max() < 25.0

    # exact agreement with the independent O(T*K^2) reference decode
    index = _SegmentIndex(segs, 60.0)
    x, y = index.to_xy(df["lat"].to_numpy(), df["lon"].to_numpy())
    ref = _viterbi_ref(index, x, y, 8.0, 30.0, 60.0)
    assert list(out["matched_seg"]) == ref


def test_map_match_gap_restarts_chain():
    segs = _grid_segments()
    # two on-street bursts separated by a point far off the grid
    lat_row = -25.44
    good = pd.DataFrame({
        "user_id": np.int64(5),
        "ts": np.datetime64("2026-01-01")
        + np.arange(8) * np.timedelta64(10, "s"),
        "lat": lat_row, "lon": -49.28 + np.linspace(0, 0.004, 8)})
    off = pd.DataFrame({"user_id": np.int64(5),
                        "ts": [good["ts"].iloc[-1]
                               + np.timedelta64(10, "s")],
                        "lat": [lat_row + 0.5], "lon": [-49.28]})
    good2 = good.copy()
    good2["ts"] = off["ts"].iloc[0] + (1 + np.arange(8)) \
        * np.timedelta64(10, "s")
    df = pd.concat([good, off, good2], ignore_index=True)
    out = map_match_ds(rd.from_pandas(df), segs,
                       num_buckets=2).to_pandas()
    out = out.sort_values("ts").reset_index(drop=True)
    assert int(out["matched_seg"].iloc[8]) == -1
    assert np.isnan(out["match_dist_m"].iloc[8])
    assert (out["matched_seg"].drop(index=8) >= 0).all()


# ------------------------------------------------ trips


def test_trips_between_planted_stays():
    from osm_sidewalkreator_ray.pipelines.trajectory import (
        trips_from_stays_ds)
    rng = np.random.RandomState(42)

    def dwell(u, t0, lat_c, lon_c, n=10):
        return pd.DataFrame({
            "user_id": np.int64(u),
            "ts": t0 + (1 + np.arange(n)) * np.timedelta64(150, "s"),
            "lat": lat_c + rng.uniform(-5e-5, 5e-5, n),
            "lon": lon_c + rng.uniform(-5e-5, 5e-5, n)})

    t0 = np.datetime64("2026-01-01")
    a = dwell(1, t0, -25.44, -49.28)
    # fast transit: 6 points marching 0.02 deg away
    mid = pd.DataFrame({
        "user_id": np.int64(1),
        "ts": a["ts"].iloc[-1] + (1 + np.arange(6))
        * np.timedelta64(60, "s"),
        "lat": -25.44 + np.linspace(0.004, 0.02, 6),
        "lon": -49.28 + np.linspace(0.004, 0.02, 6)})
    b = dwell(1, mid["ts"].iloc[-1], -25.44 + 0.024, -49.28 + 0.024)
    df = pd.concat([a, mid, b], ignore_index=True)

    trips = trips_from_stays_ds(
        rd.from_pandas(df), radius_m=200.0, min_duration_s=900.0,
        num_buckets=2).to_pandas()
    assert len(trips) == 1
    t = trips.iloc[0]
    assert t["n_points"] == 6
    assert t["t_start"] == a["ts"].iloc[-1]
    assert t["t_end"] == b["ts"].iloc[0]
    np.testing.assert_allclose(t["o_lat"], a["lat"].mean(), rtol=1e-12)
    np.testing.assert_allclose(t["d_lon"], b["lon"].mean(), rtol=1e-12)
    # path length ~ straight-line origin->dest over the diagonal walk
    straight = haversine_m(t["o_lat"], t["o_lon"], t["d_lat"],
                           t["d_lon"])
    assert straight <= t["length_m"] <= 1.2 * straight


# ------------------------------------------------ resample


def test_resample_linear_interp_and_gap_policy():
    from osm_sidewalkreator_ray.pipelines.trajectory import (
        resample_trajectory_ds)
    t0 = np.datetime64("2026-01-01T00:00:00")
    # 0 s, 60 s, then a 540 s gap to 600 s
    df = pd.DataFrame({
        "user_id": np.int64(1),
        "ts": [t0, t0 + np.timedelta64(60, "s"),
               t0 + np.timedelta64(600, "s")],
        "lat": [0.0, 0.006, 0.06],
        "lon": [0.0, 0.012, 0.12]})

    out = resample_trajectory_ds(rd.from_pandas(df), 30.0,
                                 num_buckets=2).to_pandas()
    out = out.sort_values("ts").reset_index(drop=True)
    assert len(out) == 21  # 0..600 s step 30
    np.testing.assert_allclose(
        out["lat"].iloc[1], 0.003)          # midpoint of leg 1
    np.testing.assert_allclose(
        out["lat"].iloc[3], 0.006 + 0.054 * (30 / 540))
    assert not out["interpolated"].iloc[0]
    assert not out["interpolated"].iloc[2]
    assert out["interpolated"].iloc[1]
    assert out["interpolated"].iloc[10]

    # with max_gap_s=120 the ticks inside the 540 s outage disappear
    capped = resample_trajectory_ds(rd.from_pandas(df), 30.0,
                                    max_gap_s=120.0,
                                    num_buckets=2).to_pandas()
    capped = capped.sort_values("ts").reset_index(drop=True)
    assert len(capped) == 4  # 0, 30, 60 (+ the real 600 s point)
    assert capped["ts"].iloc[-1] == df["ts"].iloc[-1]
    assert not capped["interpolated"].iloc[-1]


# ------------------------------------------------ simplify


def test_simplify_trajectory_keeps_rows_within_tolerance():
    from osm_sidewalkreator_ray.pipelines.trajectory import (
        simplify_trajectory_ds)
    from osm_sidewalkreator_ray.functions.joins import _EARTH_R_M
    # an L: straight east leg with sub-meter jitter, right-angle turn,
    # straight north leg — DP at 5 m must keep the 3 corner-defining
    # points and drop the jitter
    n = 15
    lat0, lon0 = -25.44, -49.28
    rng = np.random.RandomState(5)
    east = pd.DataFrame({
        "user_id": np.int64(1),
        "lat": lat0 + rng.uniform(-4e-6, 4e-6, n),  # ~0.4 m jitter
        "lon": lon0 + np.linspace(0, 0.01, n)})
    north = pd.DataFrame({
        "user_id": np.int64(1),
        "lat": lat0 + np.linspace(0.0008, 0.01, n),
        "lon": lon0 + 0.01 + rng.uniform(-4e-6, 4e-6, n)})
    df = pd.concat([east, north], ignore_index=True)
    df["ts"] = np.datetime64("2026-01-01") \
        + np.arange(len(df)) * np.timedelta64(10, "s")

    out = simplify_trajectory_ds(rd.from_pandas(df), 5.0,
                                 num_buckets=2).to_pandas()
    out = out.sort_values("ts").reset_index(drop=True)
    assert 3 <= len(out) <= 6          # corner + endpoints survive
    assert out["ts"].iloc[0] == df["ts"].iloc[0]
    assert out["ts"].iloc[-1] == df["ts"].iloc[-1]
    # surviving rows are a SUBSET of input rows (filter, not rewrite)
    merged = out.merge(df, on=["user_id", "ts", "lat", "lon"])
    assert len(merged) == len(out)

    # the simplified polyline stays within tol of every input point
    ky = np.radians(1.0) * _EARTH_R_M
    kx = ky * np.cos(np.radians(df["lat"].mean()))
    px = df["lon"].to_numpy() * kx
    py = df["lat"].to_numpy() * ky
    sx = out["lon"].to_numpy() * kx
    sy = out["lat"].to_numpy() * ky
    worst = 0.0
    for x, y in zip(px, py):
        best = np.inf
        for i in range(len(sx) - 1):
            ax, ay, bx, by = sx[i], sy[i], sx[i + 1], sy[i + 1]
            dx, dy = bx - ax, by - ay
            t = np.clip(((x - ax) * dx + (y - ay) * dy)
                        / max(dx * dx + dy * dy, 1e-12), 0, 1)
            best = min(best, np.hypot(x - (ax + t * dx),
                                      y - (ay + t * dy)))
        worst = max(worst, best)
    assert worst <= 5.0 + 1e-6


@pytest.mark.usefixtures("ray_session")
def test_trajectory_stats_query_matches_duckdb():
    """The events-derived per-user summary is SQL-expressible: the
    deterministic point feed is row-local int64 arithmetic, and
    step_m is LAG + haversine within each user ordered by ts."""
    sf = "/root/testdata/sf0.001"
    got = trajectory_stats_query(sf)

    con = duckdb.connect()
    ref = con.sql(f"""
        WITH pts AS (
            SELECT user_id, ts,
                   ((user_id * 48271) % 12000) / 100.0 - 60.0
                     + ((event_id * 7919) % 2001 - 1000) * 1e-5 AS lat,
                   ((user_id * 69621) % 36000) / 100.0 - 180.0
                     + ((event_id * 104729) % 2001 - 1000) * 1e-5 AS lon
            FROM read_parquet('{sf}/events.parquet')),
        steps AS (
            SELECT user_id, ts, lat, lon,
                   LAG(lat) OVER w AS plat, LAG(lon) OVER w AS plon,
                   epoch(ts - LAG(ts) OVER w) AS dt_s
            FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        metr AS (
            -- explicit NULL guard: DuckDB's least() SKIPS NULLs, so
            -- least(1.0, sqrt(NULL)) = 1.0 and a user's first row
            -- would otherwise score asin(1) = half a circumference
            SELECT user_id,
                   CASE WHEN plat IS NULL THEN NULL ELSE
                   2 * {_EARTH_R_M} * asin(least(1.0, sqrt(
                       pow(sin(radians(lat - plat) / 2), 2)
                       + cos(radians(plat)) * cos(radians(lat))
                       * pow(sin(radians(lon - plon) / 2), 2)))) END
                   AS step_m,
                   dt_s
            FROM steps)
        SELECT user_id, count(*) AS n_points,
               sum(step_m) AS sum_step_m,
               max(step_m / nullif(dt_s, 0)) AS max_speed_mps
        FROM metr GROUP BY user_id ORDER BY user_id
    """).df()
    assert len(got) == len(ref) > 0
    assert (got["user_id"].to_numpy()
            == ref["user_id"].to_numpy(np.int64)).all()
    assert (got["n_points"].to_numpy()
            == ref["n_points"].to_numpy(np.int64)).all()
    np.testing.assert_allclose(got["sum_step_m"], ref["sum_step_m"],
                               rtol=1e-6, atol=1e-3)
    np.testing.assert_allclose(got["max_speed_mps"],
                               ref["max_speed_mps"], rtol=1e-9)


@pytest.mark.usefixtures("ray_session")
def test_trajectory_job_cli(tmp_path, capsys):
    """Job entrypoint: stats and stays modes write parquet + report."""
    import json as _json

    from jobs.trajectory_job import main as tj_main

    pts = pd.concat([_walk(u, 40, seed=u) for u in range(4)],
                    ignore_index=True)
    src = str(tmp_path / "pts.parquet")
    pts.to_parquet(src)

    out1 = str(tmp_path / "stats")
    assert tj_main(["stats", "--data", src, "--out", out1]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["metric"] == "trajectory_job" and rep["rows"] == len(pts)
    got = pd.read_parquet(out1)
    assert {"step_m", "speed_mps", "bearing_deg"} <= set(got.columns)

    out2 = str(tmp_path / "stays")
    assert tj_main(["stays", "--data", src, "--out", out2,
                    "--radius-m", "500", "--min-duration-s", "1"]) == 0
    rep2 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep2["rows"] == len(pd.read_parquet(out2))
