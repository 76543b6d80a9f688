"""Deterministic synthetic fixtures (FIXTURES.md; SURVEY.md §7.1-1).

- ``streets_grid(n, m)``   — parametric Manhattan grid near Curitiba
  (-49.30, -25.52) with seeded widths/tags, dangling spurs, sub-0.5 m
  classes: n*m protoblocks expected after cleaning.
- ``pages_corpus(n)``      — Common-Crawl-style page table exactly in the
  BASELINE.json ``input_hint`` shape (url, warc_ts, html, text, lang);
  html embeds 0-3 geotag mentions; ``text`` is derived by the canonical
  extractor so the byte-identity invariant is testable; ~30% of pages
  geotag inside the AOI, 5% outside (must not join), and one hot cell
  receives half the in-AOI geotags to exercise salting.

All generators are pure functions of (params, seed): rerunning yields
byte-identical tables. No external data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import wkb
from ..stages.html_text import extract_text

# Curitiba-like AOI origin (FIXTURES.md §2b)
ORIGIN_LON = -49.30
ORIGIN_LAT = -25.52
M_PER_DEG_LAT = 111_132.954
M_PER_DEG_LON = 111_319.491 * float(np.cos(np.radians(ORIGIN_LAT)))

STREET_SCHEMA = pa.schema([
    ("way_id", pa.int64()),
    ("highway", pa.string()),
    ("width", pa.string()),
    ("sidewalk", pa.string()),
    ("sidewalk_left", pa.string()),
    ("sidewalk_right", pa.string()),
    ("sidewalk_both", pa.string()),
    ("footway", pa.string()),
    ("geometry_wkb", pa.binary()),
])


def _m_to_lonlat(x_m: np.ndarray, y_m: np.ndarray):
    return (ORIGIN_LON + x_m / M_PER_DEG_LON,
            ORIGIN_LAT + y_m / M_PER_DEG_LAT)


def streets_grid(n: int = 4, m: int = 4, spacing_m: float = 100.0,
                 seed: int = 42, spur_frac: float = 0.05,
                 tagged_frac: float = 0.10,
                 key_tagged_frac: float = 0.0) -> pa.Table:
    """Manhattan grid: (n+1) N-S x (m+1) E-W streets split into
    segments; seeded highway classes/widths; dangling spurs; a couple
    of ignored-width classes (class filter coverage).

    ``key_tagged_frac`` > 0 additionally assigns the separate OSM key
    form (``sidewalk:left/right/both`` columns) to that fraction of the
    value-untagged segments, from an independent RNG stream so the base
    table stays byte-identical to ``key_tagged_frac=0`` runs."""
    rng = np.random.RandomState(seed)
    classes = ["residential", "tertiary", "secondary"]
    rows = {k: [] for k in STREET_SCHEMA.names}
    wid = 1

    def add_segment(a_m, b_m, highway, width=None, sidewalk=None, footway=None):
        nonlocal wid
        lon, lat = _m_to_lonlat(np.array([a_m[0], b_m[0]], dtype=float),
                                np.array([a_m[1], b_m[1]], dtype=float))
        rows["way_id"].append(wid)
        rows["highway"].append(highway)
        rows["width"].append(width)
        rows["sidewalk"].append(sidewalk)
        rows["sidewalk_left"].append(None)
        rows["sidewalk_right"].append(None)
        rows["sidewalk_both"].append(None)
        rows["footway"].append(footway)
        rows["geometry_wkb"].append(wkb.encode_line(np.column_stack((lon, lat))))
        wid += 1

    # vertical streets: segments between consecutive horizontals
    for i in range(n + 1):
        x = i * spacing_m
        for j in range(m):
            hw = classes[rng.randint(0, len(classes))]
            width = None
            if rng.rand() < 0.2:
                width = f"{rng.randint(4, 12)}"  # numeric OSM width tag
            elif rng.rand() < 0.05:
                width = "narrow"  # junk string -> fallback path
            sidewalk = None
            if rng.rand() < tagged_frac:
                sidewalk = rng.choice(["no", "left", "right", "both"])
            add_segment((x, j * spacing_m), (x, (j + 1) * spacing_m),
                        hw, width, sidewalk)
    # horizontal streets
    for j in range(m + 1):
        y = j * spacing_m
        for i in range(n):
            hw = classes[rng.randint(0, len(classes))]
            add_segment((i * spacing_m, y), ((i + 1) * spacing_m, y), hw)
    # dangling spurs (dead-end pruning fodder)
    n_spur = max(1, int(spur_frac * wid))
    for _ in range(n_spur):
        i = rng.randint(0, n + 1)
        j = rng.randint(0, m + 1)
        add_segment((i * spacing_m, j * spacing_m),
                    (i * spacing_m + 30.0, j * spacing_m + 45.0), "residential")
    # ignored classes (width 0 -> class filter must drop them)
    add_segment((10.0, 10.0), (40.0, 10.0), "footway")
    add_segment((15.0, 15.0), (15.0, 55.0), "service")
    if key_tagged_frac > 0:
        # separate key-form tags (sidewalk:left=yes etc.), the most
        # common real-OSM one-sided tagging — independent RNG stream
        rng2 = np.random.RandomState(seed + 13)
        combos = [("yes", None, None), (None, "yes", None),
                  ("no", None, None), (None, "no", None),
                  (None, None, "no"), (None, None, "yes"),
                  ("yes", "no", None)]
        for i in range(len(rows["way_id"])):
            draw = rng2.rand()
            if rows["sidewalk"][i] is not None or draw >= key_tagged_frac:
                continue
            lt, rt, bt = combos[rng2.randint(0, len(combos))]
            rows["sidewalk_left"][i] = lt
            rows["sidewalk_right"][i] = rt
            rows["sidewalk_both"][i] = bt
    return pa.table(rows, schema=STREET_SCHEMA)


# ------------------------------------------------------------ pages

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

_CITY_SLUGS = ["curitiba", "parana", "centro", "batel", "agua-verde"]
_LANGS = ["en", "pt", "es"]
_LANG_W = [0.6, 0.3, 0.1]
_FILLER = ("urban sidewalk accessibility mapping pedestrian "
           "infrastructure city walk street network open data").split()


def _page_html(rng: np.random.RandomState, url: str,
               geotags: list[tuple[float, float]]) -> bytes:
    words = rng.choice(_FILLER, size=rng.randint(20, 60))
    para1 = " ".join(words[: len(words) // 2])
    para2 = " ".join(words[len(words) // 2:])
    spans = "".join(
        f'<span class="geo">{lat:.4f}, {lon:.4f}</span> ' for lat, lon in geotags[:2])
    freetext = ""
    if len(geotags) > 2:
        lat, lon = geotags[2]
        freetext = f"<p>location lat {lat:.4f} lon {lon:.4f} nearby</p>"
    doc = (f"<html><head><title>{url}</title>"
           f"<style>body {{margin:0}}</style></head>"
           f"<body><h1>Page {url}</h1>"
           f"<script>var x = 1 &amp;&amp; 2;</script>"
           f"<p>{para1}</p>{spans}{freetext}<p>{para2}</p>"
           f"</body></html>")
    return doc.encode("utf-8")


BUILDING_SCHEMA = pa.schema([
    ("building_id", pa.int64()),
    ("addr_housenumber", pa.string()),
    ("geometry_wkb", pa.binary()),
])


def buildings_grid(n: int = 4, m: int = 4, spacing_m: float = 100.0,
                   seed: int = 42) -> pa.Table:
    """FIXTURES.md §3: one rectangle per grid block, inset 2-12 m
    (seeded) from the block edge; a few nearly touching the road
    corridor to exercise the min-width floor (M5); ~half carry an
    address tag (Voronoi-splitting POIs)."""
    rng = np.random.RandomState(seed + 1)
    rows = {k: [] for k in BUILDING_SCHEMA.names}
    bid = 1
    for i in range(n):
        for j in range(m):
            inset = rng.uniform(2.0, 12.0)
            if rng.rand() < 0.15:
                inset = 1.0  # close to the corridor -> width shrink path
            x0 = i * spacing_m + inset
            y0 = j * spacing_m + inset
            x1 = (i + 1) * spacing_m - inset
            y1 = (j + 1) * spacing_m - inset
            ring_m = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1],
                               [x0, y0]])
            lon, lat = _m_to_lonlat(ring_m[:, 0], ring_m[:, 1])
            rows["building_id"].append(bid)
            rows["addr_housenumber"].append(
                str(rng.randint(1, 999)) if rng.rand() < 0.5 else None)
            rows["geometry_wkb"].append(
                wkb.encode_polygon([np.column_stack((lon, lat))]))
            bid += 1
    return pa.table(rows, schema=BUILDING_SCHEMA)


AOI_BOUNDS = (-49.31, -25.53, -49.27, -25.50)
HOT_CENTER = (-49.292, -25.515)
_T0 = np.datetime64("2024-01-01T00:00:00", "us")


def _page_row(i: int, seed: int,
              aoi_bounds=AOI_BOUNDS, hot_center=HOT_CENTER) -> dict:
    """One page, a pure function of (i, seed) — so generation can run
    distributed (rd.range(n).map_batches) and still be byte-identical
    to the driver-side ``pages_corpus``."""
    rng = np.random.RandomState((seed * 1_000_003 + i) % (1 << 32))
    min_lon, min_lat, max_lon, max_lat = aoi_bounds
    slug = _CITY_SLUGS[i % len(_CITY_SLUGS)]
    url = f"https://example.test/{slug}/{i}"
    r = rng.rand()
    geotags: list[tuple[float, float]] = []
    if r < 0.30:
        k = rng.randint(1, 4)
        hot = rng.rand() < 0.5
        for _ in range(k):
            if hot:
                lat = hot_center[1] + rng.uniform(-0.002, 0.002)
                lon = hot_center[0] + rng.uniform(-0.002, 0.002)
            else:
                lat = rng.uniform(min_lat, max_lat)
                lon = rng.uniform(min_lon, max_lon)
            geotags.append((lat, lon))
    elif r < 0.35:
        # out-of-AOI coordinates: must never join
        geotags.append((rng.uniform(40.0, 50.0), rng.uniform(2.0, 10.0)))
    html = _page_html(rng, url, geotags)
    return {"url": url, "warc_ts": _T0 + np.timedelta64(i, "s"),
            "html": html, "text": extract_text(html),
            "lang": _LANGS[int(rng.choice(3, p=_LANG_W))]}


def _pages_table(ids, seed: int) -> pa.Table:
    rows = {k: [] for k in PAGES_SCHEMA.names}
    for i in ids:
        row = _page_row(int(i), seed)
        for k in rows:
            rows[k].append(row[k])
    return pa.table(rows, schema=PAGES_SCHEMA)


def pages_corpus(n_pages: int, seed: int = 42) -> pa.Table:
    """Driver-side corpus (tests, small scales)."""
    return _pages_table(range(n_pages), seed)


def pages_dataset(n_pages: int, seed: int = 42, parallelism: int = -1):
    """Distributed corpus generation: the scale path. Same bytes as
    ``pages_corpus`` for the same (n, seed)."""
    import ray.data as rd

    def gen(batch) -> pa.Table:
        return _pages_table(batch["id"], seed)

    return rd.range(n_pages, override_num_blocks=parallelism if parallelism > 0
                    else None).map_batches(gen, batch_format="pandas",
                                           batch_size=2048)


def sf_from_dir(sf_dir: str) -> float:
    """Parse the scale factor from a testdata dir name (sf0.01 -> 0.01)."""
    name = sf_dir.rstrip("/").rsplit("/", 1)[-1]
    if name.startswith("sf"):
        try:
            return float(name[2:])
        except ValueError:
            pass
    return 0.001


def n_pages_for_sf(sf_dir: str) -> int:
    return max(200, int(1_000_000 * sf_from_dir(sf_dir)))


def pages_dataset_for_sf(sf_dir: str):
    """Distributed corpus scaled to the testdata sf — the bench path."""
    return pages_dataset(n_pages_for_sf(sf_dir))


def grid_for_sf(sf_dir: str) -> pa.Table:
    """Street grid scaled to the testdata sf (4x4 blocks at sf0.001,
    growing with sqrt(sf) so cells stay neighborhood-sized). Includes
    the separate ``sidewalk:left/right/both`` key form on 5% of the
    value-untagged segments (M12 key dispatch coverage)."""
    sf = sf_from_dir(sf_dir)
    n = max(4, int(round(4 * np.sqrt(sf / 0.001))))
    return streets_grid(n=n, m=n, key_tagged_frac=0.05)
