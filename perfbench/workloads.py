"""The benchmark workloads: what each executes, how its output is
checked, which layer calls the traced run wraps in spans, and the
in-process replay of the layer kernels on the same inputs.

Every workload exposes:

- ``inputs``: the synthesized inputs it needs, {kind: size};
- ``execute()``: one timed execution from input to complete, consumed
  result; ``output(result)`` then summarizes it, untimed, into an
  ``Output`` (output rows + a summary);
- ``problems(outputs)``: the failed checks of each execution
  (conservation, agreement between executions, and the output digest
  recorded in ``expected.json``), run after the timed loop;
- ``hooks(tracer)`` / ``layer_metrics(tracer, out)``: the traced run.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

# ---------------------------------------------------------------- sizes
SIDEWALK_GRID = 8           # sidewalks: an 8x8 streets_grid
CKPT_PAGES = 2_000          # page_join_ckpt: pages against a 10x10 grid
CURATE_DOCS = 5_000         # curate: the sf0.1 documents
# grid_for_sf derives the street grid from the sf name: 4*sqrt(sf/0.001)
# blocks a side, so sf0.00625 is a 10x10 grid over the corpus hot spot
JOIN_SF_NAME = "sf0.00625"

STATUSES = {"gate_fail", "contaminated", "duplicate", "near_duplicate",
            "kept"}
_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Output:
    rows: int
    summary: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha1(json.dumps(self.summary, sort_keys=True)
                            .encode()).hexdigest()[:16]


def expected_digest(workload: str) -> str:
    """The output digest recorded for ``workload`` in ``expected.json``.
    The seed only permutes input rows, so it holds for every seed."""
    with open(os.path.join(_HERE, "expected.json")) as f:
        return json.load(f)["digests"][workload]


def _frame_digest(df: pd.DataFrame) -> str:
    df = df.sort_values(list(df.columns), kind="mergesort")
    return hashlib.sha1(pd.util.hash_pandas_object(
        df.reset_index(drop=True), index=False).values.tobytes()
        ).hexdigest()[:16]


class _Kernel:
    """Time and count calls of one kernel during the replay."""

    def __init__(self, obj, attr: str, count):
        self.obj, self.attr, self.count = obj, attr, count
        self.seconds = 0.0
        self.items = 0

    def __enter__(self):
        orig = self.orig = getattr(self.obj, self.attr)
        kernel = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                kernel.seconds += time.perf_counter() - t0
                kernel.items += kernel.count(*args, **kwargs)

        setattr(self.obj, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.obj, self.attr, self.orig)


def _geom_kernels():
    from osm_sidewalkreator_ray.geom import core
    from osm_sidewalkreator_ray.geom.grid_index import SegmentGrid
    pip = _Kernel(core, "points_in_ring", lambda px, py, ring: len(px))
    knn = _Kernel(SegmentGrid, "nearest",
                  lambda self, points, max_dist: len(points))
    return pip, knn


class Workload:
    name = ""
    inputs: dict[str, int] = {}

    def __init__(self, input_dirs: dict[str, str], scratch: str):
        from osm_sidewalkreator_ray.config import DEFAULT_CONFIG
        self.dirs = input_dirs
        self.scratch = scratch
        self.cfg = DEFAULT_CONFIG

    def execute(self):
        raise NotImplementedError

    def output(self, result) -> Output:
        raise NotImplementedError

    def invariants(self, out: Output) -> list[str]:
        return []

    def problems(self, outputs: list[Output | None]) -> list[list[str]]:
        """Per execution: the failed checks (empty when it passed)."""
        ref = next((o for o in outputs if o is not None), None)
        want = expected_digest(self.name)
        result = []
        for o in outputs:
            if o is None:
                result.append(["raised"])
                continue
            p = self.invariants(o)
            if o.summary != ref.summary:
                p.append("output differs between executions")
            if o.digest() != want:
                p.append(f"digest {o.digest()} != recorded {want}")
            result.append(p)
        return result

    def hooks(self, tracer) -> None:
        pass

    @staticmethod
    def _hook_read(tracer) -> None:
        """Span every parquet read, executed inside the span, with the
        bytes it produced."""
        import ray.data as rd

        def make_wrapper(orig):
            def read(*args, **kwargs):
                with tracer.span("sources.read") as rec:
                    ds = orig(*args, **kwargs).materialize()
                    rec["bytes"] = int(ds.size_bytes())
                return ds
            return read

        tracer.patch(rd, "read_parquet", make_wrapper)

    def layer_metrics(self, tracer, out: Output) -> dict[str, float]:
        return {}


def _grid():
    from osm_sidewalkreator_ray.sources import synthetic as SYN
    return SYN.grid_for_sf(JOIN_SF_NAME)


def replay_features(tracer, streets, cfg, stage_c: bool = False
                    ) -> tuple[dict, pd.DataFrame]:
    """Stages A (cell graph), B (protoblock raster) and optionally C
    (crossings) of the feature build, replayed in-process through the
    public per-cell kernels on the same streets. Returns the metrics
    and the replayed stage-B rows (tiles, sidewalks, metrics)."""
    import ray.data as rd
    from osm_sidewalkreator_ray.pipelines import sidewalks as SW
    with tracer.span("replay.prep"):
        by_cell = SW.encode_cells(SW.assign_widths(
            rd.from_arrow(streets), cfg), cfg).to_pandas()
    with tracer.span("sidewalks.stage_a") as a:
        graphs = pd.concat([SW.cell_graph(g, cfg) for _, g in
                            by_cell.groupby("h3_cell", sort=True)],
                           ignore_index=True)
    work = graphs[graphs["kind"] == "pbwork"]
    with tracer.span("sidewalks.stage_b") as b:
        tiles = pd.concat([SW.extract_tiles(work.iloc[i:i + 16], cfg)
                           for i in range(0, len(work), 16)],
                          ignore_index=True)
    met = tiles[tiles["kind"] == "metrics"]
    m = {"sidewalks.stage_a_s": a["end"] - a["start"],
         "sidewalks.stage_b_s": b["end"] - b["start"],
         "sidewalks.protoblocks": int((graphs["kind"] == "protoblock").sum()),
         "sidewalks.tiles": int((tiles["kind"] == "tile").sum()),
         "sidewalks.coarsened": int(sum(b"giant_face_pb" in bytes(w)
                                        for w in met["geometry_wkb"]))}
    if stage_c:
        cross_in = pd.concat([graphs[graphs["kind"] == "graph"],
                              tiles[tiles["kind"] == "sidewalk"]],
                             ignore_index=True)
        with tracer.span("sidewalks.stage_c") as c:
            crossings = pd.concat([SW.cell_crossings(g, cfg) for _, g in
                                   cross_in.groupby("h3_cell", sort=True)],
                                  ignore_index=True)
        m.update({"sidewalks.stage_c_s": c["end"] - c["start"],
                  "sidewalks.crossings": int(
                      (crossings["kind"] == "crossing").sum()),
                  "sidewalks.kerbs": int((crossings["kind"] == "kerb").sum())})
    return m, tiles


# ------------------------------------------------------------ sidewalks

class Sidewalks(Workload):
    """Full ``build_features`` (all kinds, headless crossings) over an
    8x8 street grid; no pages. Raster stage B is most of the kernel
    time."""
    name = "sidewalks"
    inputs = {"streets": SIDEWALK_GRID}

    def __init__(self, *a):
        super().__init__(*a)
        self.streets = pq.read_table(
            os.path.join(self.dirs["streets"], "streets.parquet"))

    def execute(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import sidewalks as SW
        return SW.build_features(rd.from_arrow(self.streets),
                                 self.cfg).to_pandas()

    def output(self, df) -> Output:
        counts = df["kind"].value_counts().to_dict()
        met = df[df["kind"] == "metrics"]
        feats = df.loc[df["kind"] != "metrics",
                       ["kind", "feature_id", "area_m2", "length_m"]].copy()
        feats["area_m2"] = feats["area_m2"].round(2)
        feats["length_m"] = feats["length_m"].round(2)
        return Output(rows=len(feats), summary={
            "kinds": {k: int(v) for k, v in sorted(counts.items())},
            "coarsened": int(sum(b"giant_face_pb" in bytes(w)
                                 for w in met["geometry_wkb"])),
            "features": _frame_digest(feats)})

    def invariants(self, out: Output) -> list[str]:
        k = out.summary["kinds"]
        blocks = SIDEWALK_GRID * SIDEWALK_GRID
        p = []
        if k.get("protoblock") != blocks:
            p.append(f"{k.get('protoblock')} protoblocks != {blocks} blocks")
        if k.get("tile", 0) < blocks:
            p.append(f"{k.get('tile')} tiles < {blocks} blocks")
        if k.get("kerb", 0) != 2 * k.get("crossing", 0):
            p.append("kerbs != 2 x crossings")
        return p

    def hooks(self, tracer) -> None:
        from osm_sidewalkreator_ray.pipelines import sidewalks as SW
        tracer.hook(SW, "build_features", "sidewalks.features",
                    materialize=True)

    def layer_metrics(self, tracer, out: Output) -> dict[str, float]:
        pip, knn = _geom_kernels()
        with pip, knn:
            m, _tiles = replay_features(tracer, self.streets, self.cfg,
                                        stage_c=True)
        k = out.summary["kinds"]
        replayed = (m["sidewalks.tiles"], m["sidewalks.crossings"],
                    m["sidewalks.kerbs"])
        m.update({"sidewalks.features_s": tracer.total("sidewalks.features"),
                  "geom.pip_s": pip.seconds, "geom.pip_tests": pip.items,
                  "geom.knn_s": knn.seconds, "geom.knn_queries": knn.items,
                  "replay.mismatches": int(replayed != (
                      k.get("tile", 0), k.get("crossing", 0),
                      k.get("kerb", 0)))})
        return m


# ------------------------------------------------------------ page join

class PageJoinCheckpointed(Workload):
    """``checkpointed_pipeline`` as ``jobs/flagship_job.py`` runs it:
    pages parquet -> html -> text -> geotags (64 url shards written
    with manifests) -> cells -> per-(cell, salt) PIP and kNN join
    against the tiles of a 10x10 grid, one parquet + manifest per
    partition, into a fresh directory."""
    name = "page_join_ckpt"
    inputs = {"pages": CKPT_PAGES}

    def __init__(self, *a):
        super().__init__(*a)
        d = self.dirs["pages"]
        self.pages_file = os.path.join(d, "pages.parquet")
        self.geotags = pd.read_parquet(os.path.join(d, "geotags.parquet"))
        self._runs = 0
        self.last_dir: str | None = None
        self._in_scope: int | None = None

    def execute(self):
        import ray.data as rd
        from osm_sidewalkreator_ray.pipelines import page_join as PJ
        from osm_sidewalkreator_ray.pipelines import sidewalks as SW
        self._runs += 1
        out_dir = os.path.join(self.scratch, f"ckpt{self._runs}")
        pages = rd.read_parquet(self.pages_file, columns=["url", "html"])
        features = SW.build_join_features(rd.from_arrow(_grid()), self.cfg)
        return out_dir, PJ.checkpointed_pipeline(pages, features, out_dir,
                                                 self.cfg)

    def output(self, result) -> Output:
        from osm_sidewalkreator_ray.state.checkpoint import load_manifest
        out_dir, manifest = result
        # only the latest output stays on disk (the traced run reads it)
        if self.last_dir:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.last_dir = out_dir
        geo_rows = sum(r["rows"] for r in
                       load_manifest(os.path.join(out_dir, "geotags")))
        files = sorted(glob.glob(os.path.join(out_dir, "join", "part", "**",
                                              "part.parquet"),
                                 recursive=True))
        joined = pd.concat([pq.read_table(f).to_pandas() for f in files],
                           ignore_index=True)
        data = joined[~joined["is_metrics"]]
        # one metrics row per (cell, salt) partition: lat = pages joined
        per_part = joined.loc[joined["is_metrics"], "lat"].to_numpy()
        summary = {"geotag_rows": int(geo_rows),
                   "manifest_rows": int(manifest["rows"].sum()),
                   "partitions": int(len(manifest)),
                   "partition_skew": float(per_part.max()
                                           / np.median(per_part)),
                   "rows": int(len(data)),
                   "inside": int(data["inside_tile"].sum()),
                   "join": _frame_digest(data[["url", "tile_id",
                                               "nearest_sidewalk_id"]])}
        return Output(rows=len(data), summary=summary)

    def invariants(self, out: Output) -> list[str]:
        s = out.summary
        p = []
        if s["geotag_rows"] != len(self.geotags):
            p.append(f"geotag manifest rows {s['geotag_rows']} != "
                     f"{len(self.geotags)} geotags")
        if s["manifest_rows"] != s["rows"] + s["partitions"]:
            p.append("join manifest rows != data rows + one metrics row "
                     "per partition")
        if s["rows"] != self.in_scope():
            p.append(f"join rows {s['rows']} != {self.in_scope()} "
                     "in-scope geotags")
        if not 0 < s["inside"] < s["rows"]:
            p.append(f"inside count {s['inside']} outside (0, {s['rows']})")
        return p

    def in_scope(self) -> int:
        """Geotags in a cell the feature index covers, counted from the
        features and the reference geotag rows (no join code). The
        covered cells depend on the street grid and the feature code
        only, so they are cached next to the inputs under
        ``inputs.code_key()``."""
        if self._in_scope is None:
            from perfbench.inputs import code_key
            name = f"join_scope_{JOIN_SF_NAME}_{code_key()}.json"
            path = os.path.join(os.path.dirname(self.dirs["pages"]), name)
            if not os.path.exists(path):
                import ray.data as rd
                from osm_sidewalkreator_ray.pipelines import sidewalks as SW
                feats = SW.build_join_features(rd.from_arrow(_grid()),
                                               self.cfg).to_pandas()
                scope = sorted(self._cell_index(feats))
                with open(path + ".tmp", "w") as f:
                    json.dump(scope, f)
                os.replace(path + ".tmp", path)
            with open(path) as f:
                scope = json.load(f)
            self._in_scope = int(self.geotags["h3_cell"].isin(scope).sum())
        return self._in_scope

    def hooks(self, tracer) -> None:
        from osm_sidewalkreator_ray.pipelines import page_join as PJ
        from osm_sidewalkreator_ray.pipelines import sidewalks as SW
        self._hook_read(tracer)
        tracer.hook(SW, "build_join_features", "sidewalks.features",
                    materialize=True)
        tracer.hook(PJ, "checkpointed_geotags", "checkpoint.geotags",
                    materialize=True)
        tracer.hook(PJ, "checkpointed_join", "checkpoint.join")
        tracer.hook(PJ, "_prepare_index", "page_join.index")

    def layer_metrics(self, tracer, out: Output) -> dict[str, float]:
        s = out.summary
        n_files, n_bytes = 0, 0
        for root, _dirs, names in os.walk(self.last_dir):
            for nm in names:
                n_files += 1
                n_bytes += os.path.getsize(os.path.join(root, nm))
        by_id = {x["id"]: x for x in tracer.spans}
        # the pages read; the geotag checkpoint's read-back is not a source
        reads = [x for x in tracer.spans if x["name"] == "sources.read"
                 and by_id.get(x["parent"], {}).get("name") !=
                 "checkpoint.geotags"]
        m = {"sources.read_s": sum(x["end"] - x["start"] for x in reads),
             "sources.bytes": sum(x.get("bytes", 0) for x in reads),
             "checkpoint.geotags_s": tracer.total("checkpoint.geotags"),
             "checkpoint.join_s": tracer.total("checkpoint.join"),
             "checkpoint.files": n_files, "checkpoint.bytes": n_bytes,
             "checkpoint.partitions": s["partitions"],
             "sidewalks.features_s": tracer.total("sidewalks.features"),
             "page_join.index_s": tracer.total("page_join.index"),
             "page_join.rows_in_scope": s["rows"],
             "page_join.rows_pruned": len(self.geotags) - s["rows"],
             "page_join.partitions": s["partitions"],
             "page_join.partition_skew": s["partition_skew"],
             "page_join.inside_ratio": s["inside"] / max(1, s["rows"])}
        m.update(self._replay_pages(tracer))
        feature_metrics, feats = replay_features(tracer, _grid(), self.cfg)
        m.update(feature_metrics)
        m.update(self._replay_join(tracer, feats))
        m["replay.mismatches"] = int(m.pop("replay.inside") != s["inside"])
        return m

    def _cell_index(self, feats: pd.DataFrame) -> dict[int, dict]:
        """Features registered per join cell: a tile under every cell
        its bbox covers, a sidewalk under its own cell's k-ring(1)."""
        from osm_sidewalkreator_ray import cells
        from osm_sidewalkreator_ray.geom import wkb
        res = self.cfg.cell_res
        index: dict[int, dict] = {}
        tiles = feats[feats["kind"] == "tile"]
        if len(tiles):
            mnx, mny, mxx, mxy = wkb.decode_bboxes(
                tiles["geometry_wkb"].tolist())
            ridx, tcell = cells.cover_bboxes(mnx, mny, mxx, mxy, res)
            coords, ro, po, part = wkb.decode_polygons(
                tiles["geometry_wkb"].tolist())
            fids = tiles["feature_id"].to_numpy()
            for i, c in zip(ridx, tcell):
                ring = coords[ro[po[i]]:ro[po[i] + 1]]
                index.setdefault(int(c), {"tiles": [], "sw": []})[
                    "tiles"].append((int(fids[i]), ring))
        sws = feats[feats["kind"] == "sidewalk"]
        if len(sws):
            coords, offs, part = wkb.decode_lines(sws["geometry_wkb"].tolist())
            own = sws["h3_cell"].to_numpy()
            fids = sws["feature_id"].to_numpy()
            for j in range(len(offs) - 1):
                i = part[j]
                line = coords[offs[j]:offs[j + 1]]
                for c in cells.k_ring(int(own[i]), 1):
                    index.setdefault(int(c), {"tiles": [], "sw": []})[
                        "sw"].append((int(fids[i]), line))
        return index

    def _replay_join(self, tracer, feats: pd.DataFrame) -> dict[str, float]:
        """Point-in-polygon and kNN of the join, replayed in-process
        per cell through ``core.points_in_ring`` and
        ``SegmentGrid.nearest`` on the same features and geotags."""
        from osm_sidewalkreator_ray.geom import core, project
        from osm_sidewalkreator_ray.geom.grid_index import SegmentGrid
        index = self._cell_index(feats)
        tags = self.geotags
        pip, knn = _geom_kernels()
        inside_total = 0
        with pip, knn, tracer.span("replay.join"):
            for cell, g in tags[tags["h3_cell"].isin(list(index))].groupby(
                    "h3_cell", sort=True):
                e = index[int(cell)]
                frame = project.frame_for_cell(int(cell))
                px, py = project.to_local(g["lon"].to_numpy(),
                                          g["lat"].to_numpy(), frame)
                inside = np.zeros(len(px), dtype=bool)
                for _fid, ring_ll in sorted(e["tiles"], key=lambda t: t[0]):
                    ring = project.coords_to_local(ring_ll, frame)
                    (mnx, mny), (mxx, mxy) = ring.min(0), ring.max(0)
                    cand = ((px >= mnx) & (px <= mxx) & (py >= mny)
                            & (py <= mxy) & ~inside)
                    if cand.any():
                        idx = np.nonzero(cand)[0]
                        inside[idx[core.points_in_ring(px[idx], py[idx],
                                                       ring)]] = True
                inside_total += int(inside.sum())
                if e["sw"]:
                    loc = [project.coords_to_local(l, frame)
                           for _f, l in e["sw"]]
                    grid = SegmentGrid(np.concatenate([l[:-1] for l in loc]),
                                       np.concatenate([l[1:] for l in loc]),
                                       cell=self.cfg.knn_max_dist)
                    grid.nearest(np.column_stack((px, py)),
                                 max_dist=self.cfg.knn_max_dist)
        return {"geom.pip_s": pip.seconds, "geom.pip_tests": pip.items,
                "geom.knn_s": knn.seconds, "geom.knn_queries": knn.items,
                "replay.inside": inside_total}

    def _replay_pages(self, tracer) -> dict[str, float]:
        """html -> text -> geotag -> cell, replayed in-process per page
        through the public kernels on the same corpus."""
        from osm_sidewalkreator_ray import cells
        from osm_sidewalkreator_ray.stages.geotags import GeotagExtractor
        from osm_sidewalkreator_ray.stages.html_text import extract_text
        pages = pq.read_table(self.pages_file, columns=["html"])
        htmls = pages["html"].to_pylist()
        with tracer.span("stages.html_text") as h:
            texts = [extract_text(b) for b in htmls]
        geo = GeotagExtractor()
        with tracer.span("stages.geotags") as g:
            tags = [geo.extract(t) for t in texts]
        lat = np.array([p[0] for t in tags for p in t], dtype=np.float64)
        lon = np.array([p[1] for t in tags for p in t], dtype=np.float64)
        with tracer.span("cells") as c:
            cells.latlng_to_cell(lat, lon, self.cfg.cell_res)
        useful = sum(1 for t in tags if t)
        return {"stages.html_text.busy_s": h["end"] - h["start"],
                "stages.geotags.busy_s": g["end"] - g["start"],
                "stages.geotags.pages": len(htmls),
                "stages.geotags.rows_out": len(lat),
                "stages.geotags.useful_ratio": useful / max(1, len(htmls)),
                "cells.busy_s": c["end"] - c["start"],
                "cells.points": len(lat)}


# --------------------------------------------------------------- curate

class Curate(Workload):
    """``curate_corpus_full``: quality gates, decontamination, exact
    dedup and near-dedup over the sf0.1 documents; no geometry."""
    name = "curate"
    inputs = {"docs": CURATE_DOCS}

    def execute(self):
        from osm_sidewalkreator_ray.pipelines import textops as T
        return T.curate_corpus_full(self.dirs["docs"])

    def output(self, df) -> Output:
        counts = df["status"].value_counts().to_dict()
        return Output(rows=len(df), summary={
            "statuses": {k: int(v) for k, v in sorted(counts.items())},
            "ids_ok": bool(np.array_equal(
                np.sort(df["doc_id"].to_numpy()), np.arange(CURATE_DOCS))),
            "verdicts": _frame_digest(df[["doc_id", "status"]])})

    def invariants(self, out: Output) -> list[str]:
        s = out.summary
        p = []
        if not s["ids_ok"]:
            p.append("doc ids are not each input doc exactly once")
        if not set(s["statuses"]) <= STATUSES:
            p.append(f"unknown statuses {set(s['statuses']) - STATUSES}")
        if sum(s["statuses"].values()) != CURATE_DOCS:
            p.append("status counts do not sum to the input docs")
        return p

    def hooks(self, tracer) -> None:
        from osm_sidewalkreator_ray.pipelines import textops as T
        self._hook_read(tracer)
        tracer.hook(T, "curate_corpus_ds", "textops.verdicts",
                    materialize=True)
        tracer.hook(T, "_near_dup_losers", "textops.near_dup")

    def layer_metrics(self, tracer, out: Output) -> dict[str, float]:
        s = out.summary["statuses"]
        reads = [x for x in tracer.spans if x["name"] == "sources.read"]
        return {"sources.read_s": sum(x["end"] - x["start"] for x in reads),
                "sources.bytes": sum(x.get("bytes", 0) for x in reads),
                "textops.verdicts_s": tracer.total("textops.verdicts"),
                "textops.near_dup_s": tracer.total("textops.near_dup"),
                "textops.kept": s.get("kept", 0),
                "textops.contaminated": s.get("contaminated", 0),
                "textops.duplicate": s.get("duplicate", 0),
                "textops.near_duplicate": s.get("near_duplicate", 0)}


WORKLOADS = {w.name: w for w in (Sidewalks, PageJoinCheckpointed,
                                 Curate)}
