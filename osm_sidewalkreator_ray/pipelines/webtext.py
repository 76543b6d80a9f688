"""URL-level webtext curation: parse / gate / per-domain aggregate.

These are the URL-side counterparts of the document-text gates in
``textops`` (C4's URL filtering, Raffel et al. 2020 §2.2; RefinedWeb's
URL dedup + filtering, Penedo et al. 2023 §3.1). At crawl scale the
cheapest tokens to drop are the ones you never fetch or parse, so URL
gates run BEFORE HTML extraction — each op here maps a Dataset with a
``url`` string column (the flagship pages corpus of
``sources/synthetic.py``, a crawl frontier, a WARC index) and stays a
Dataset, so it composes ahead of ``stages/html_text``.

Scale notes (100 TB): parsing is one compiled-regex pass per batch —
embarrassingly parallel, zero shuffle. Filtering broadcasts the
blocklists once (``ray.put`` for big lists — same contract as
``decontaminate_ds``); per-domain stats pre-aggregate inside each batch
via ``functions.aggregates.grouped_agg`` so only (domain, partial) rows
enter the one small shuffle.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray

# One pass, RFC-3986-shaped: scheme://[userinfo@]hostport[/path][?query][#frag]
_URL_RE = re.compile(
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
    r"(?:[^@/?#]*@)?"
    r"(?P<hostport>[^/?#]*)"
    r"(?P<path>[^?#]*)"
    r"(?:\?(?P<query>[^#]*))?"
)

# Common multi-label public suffixes (heuristic subset — the full
# Mozilla Public Suffix List is a data file; C4-style pipelines use
# exactly this kind of short table for grouping-by-site).
MULTI_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au",
    "com.br", "net.br", "org.br", "co.jp", "ne.jp", "or.jp", "com.cn",
    "net.cn", "org.cn", "co.in", "co.kr", "com.mx", "com.ar", "com.tr",
})


def _registered_domain(host: str) -> str:
    """eTLD+1 under the MULTI_SUFFIXES heuristic; '' for empty/IP-ish
    hosts (no dot → returned as-is: 'localhost' registers as itself)."""
    if not host:
        return ""
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in MULTI_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def parse_url_frame(urls: pd.Series) -> pd.DataFrame:
    """Vectorized URL decomposition (pure; shared by the Dataset stage
    and the tests' stdlib-urlparse cross-check). Non-matching strings
    (no ``scheme://``) yield empty scheme/host and NaN port.

    Columns: scheme, host (lowercased, trailing-dot stripped), port
    (float64, NaN = default), domain (eTLD+1 heuristic), tld,
    path_depth (non-empty '/'-segments), n_query_params (non-empty
    '&'-split), url_len.
    """
    s = urls.astype("string").fillna("")
    ext = s.str.extract(_URL_RE)
    scheme = ext["scheme"].fillna("").str.lower()
    hostport = ext["hostport"].fillna("")
    # split host:port — IPv6 brackets intentionally unsupported (rare
    # in web corpora; such hosts parse as-is with NaN port)
    hp = hostport.str.extract(r"^(?P<h>[^:]*)(?::(?P<p>\d+))?$")
    host = hp["h"].fillna(hostport).str.lower().str.rstrip(".")
    port = pd.to_numeric(hp["p"], errors="coerce")
    path = ext["path"].fillna("")
    query = ext["query"].fillna("")
    path_depth = path.str.split("/").map(
        lambda segs: sum(1 for x in segs if x), na_action="ignore")
    n_q = query.str.split("&").map(
        lambda segs: sum(1 for x in segs if x), na_action="ignore")
    domain = host.map(_registered_domain, na_action="ignore")
    tld = host.str.rsplit(".", n=1).str[-1].where(host.str.contains(
        r"\.", regex=True), other="")
    return pd.DataFrame({
        "scheme": scheme.astype(object).fillna("").astype(str),
        "host": host.astype(object).fillna("").astype(str),
        "port": port.astype("float64"),
        "domain": domain.astype(object).fillna("").astype(str),
        "tld": tld.astype(object).fillna("").astype(str),
        "path_depth": pd.Series(path_depth, dtype="float64").fillna(0)
                        .astype("int64"),
        "n_query_params": pd.Series(n_q, dtype="float64").fillna(0)
                            .astype("int64"),
        "url_len": s.str.len().fillna(0).astype("int64"),
    })


def url_parse_ds(ds, url_col: str = "url"):
    """Dataset stage: append parsed-URL columns to every row. One
    compiled-regex pass per batch, no shuffle, no state."""
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        parsed = parse_url_frame(batch[url_col])
        parsed.index = batch.index
        return pd.concat([batch, parsed], axis=1)
    return ds.map_batches(f, batch_format="pandas")


def url_filter_ds(parsed, blocked_hosts=frozenset(),
                  blocked_domains=frozenset(), blocked_tlds=frozenset(),
                  max_url_len: int = 2048, max_path_depth: int = 12,
                  max_query_params: int = 8,
                  allowed_schemes=("http", "https")):
    """C4-style URL gating over a ``url_parse_ds`` output: appends
    ``keep`` (bool) and ``drop_reason`` ('' when kept; else the first
    failing gate in ``checks`` order — the order is part of the
    contract, so reordering changes outputs).

    Blocklists may be plain sets (small; shipped in the task closure)
    or ``ray.ObjectRef`` s to frozensets (``ray.put`` once for
    million-host lists — each node then holds one shared copy, the
    ``decontaminate_ds`` contract).
    """
    refs = {k: (v if isinstance(v, ray.ObjectRef) else None)
            for k, v in (("h", blocked_hosts), ("d", blocked_domains),
                         ("t", blocked_tlds))}
    plain = {"h": blocked_hosts if refs["h"] is None else None,
             "d": blocked_domains if refs["d"] is None else None,
             "t": blocked_tlds if refs["t"] is None else None}
    schemes = frozenset(allowed_schemes)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bh = plain["h"] if refs["h"] is None else ray.get(refs["h"])
        bd = plain["d"] if refs["d"] is None else ray.get(refs["d"])
        bt = plain["t"] if refs["t"] is None else ray.get(refs["t"])
        n = len(batch)
        reason = np.full(n, "", dtype=object)
        checks = (
            ("bad_scheme", ~batch["scheme"].isin(schemes).to_numpy()),
            ("blocked_host", batch["host"].isin(bh).to_numpy()),
            ("blocked_domain", batch["domain"].isin(bd).to_numpy()),
            ("blocked_tld", batch["tld"].isin(bt).to_numpy()),
            ("too_long", (batch["url_len"] > max_url_len).to_numpy()),
            ("too_deep", (batch["path_depth"] > max_path_depth).to_numpy()),
            ("too_many_params",
             (batch["n_query_params"] > max_query_params).to_numpy()),
        )
        for name, mask in checks:  # later gates never overwrite earlier
            hit = mask & (reason == "")
            reason[hit] = name
        out = batch.copy()
        out["keep"] = reason == ""
        out["drop_reason"] = reason
        return out
    return parsed.map_batches(f, batch_format="pandas")


def host_stats_ds(parsed, num_buckets: int = 32):
    """Per registered-domain crawl stats over a ``url_parse_ds``
    output: (domain, n_pages, n_hosts, mean_path_depth,
    mean_url_len). Distinct-host counting stays exact by shuffling
    one slim (domain, host) row per DISTINCT pair per batch — the
    per-batch dedup is the combiner; the final per-domain nunique
    runs in the same bucket reducer as the sums.
    """
    from ..functions.aggregates import _BUCKET

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("domain", sort=False)
        agg = pd.DataFrame({
            "n_pages": g.size(),
            "s_depth": g["path_depth"].sum(),
            "s_len": g["url_len"].sum(),
        }).reset_index()
        hosts = (batch[["domain", "host"]].drop_duplicates()
                 .groupby("domain", sort=False)["host"]
                 .agg(lambda s: list(set(s))).reset_index()
                 .rename(columns={"host": "hosts"}))
        p = agg.merge(hosts, on="domain")
        h = pd.util.hash_array(p["domain"].to_numpy(dtype=object))
        p[_BUCKET] = (h % num_buckets).astype(np.int64)
        return p

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for dom, g in bucket.groupby("domain", sort=False):
            hosts = set()
            for lst in g["hosts"]:
                hosts.update(lst)
            n = int(g["n_pages"].sum())
            rows.append({"domain": dom, "n_pages": n,
                         "n_hosts": len(hosts),
                         "mean_path_depth": float(g["s_depth"].sum()) / n,
                         "mean_url_len": float(g["s_len"].sum()) / n})
        cols = ["domain", "n_pages", "n_hosts", "mean_path_depth",
                "mean_url_len"]
        if not rows:
            return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in
                                 zip(cols, [str, "int64", "int64",
                                            "float64", "float64"])})
        return pd.DataFrame(rows)[cols]

    return (parsed.map_batches(partial, batch_format="pandas")
            .groupby(_BUCKET)
            .map_groups(combine, batch_format="pandas"))


# ------------------------------------------- link graph / host rank
#
# The CommonCrawl-style curation chain: extract anchors -> resolve
# against the page URL -> collapse to a registered-domain link graph
# -> PageRank hosts (host-level centrality is the standard crawl
# prioritisation / quality prior; cf. the harmonic-centrality host
# ranks shipped with Common Crawl).

_HREF_RE = r"""<a\s[^>]*?href\s*=\s*["']([^"'#][^"']*)["']"""


def extract_links_ds(pages, url_col: str = "url", html_col: str = "html"):
    """pages Dataset -> one row per anchor: (url, href, dst_url).

    Extraction is one vectorized ``str.extractall`` per batch;
    resolution matches stdlib ``urllib.parse.urljoin`` exactly but
    runs once per DISTINCT (base, href) pair in the batch (anchors
    repeat heavily — nav bars, footers), not per anchor row.
    javascript:/mailto:/data: pseudo-links are dropped.
    """
    from urllib.parse import urljoin

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        html = batch[html_col].map(
            lambda b: b.decode("utf-8", "replace")
            if isinstance(b, (bytes, bytearray)) else str(b))
        hits = html.str.extractall(_HREF_RE, flags=re.IGNORECASE)
        cols = ["url", "href", "dst_url"]
        if hits.empty:
            return pd.DataFrame({c: pd.Series([], dtype=object)
                                 for c in cols})
        page_idx = hits.index.get_level_values(0)
        out = pd.DataFrame({
            "url": batch[url_col].to_numpy(object)[
                batch.index.get_indexer(page_idx)],
            "href": hits[0].to_numpy(object)})
        bad = out["href"].str.lower().str.match(
            r"(javascript|mailto|data|tel):")
        out = out[~bad.to_numpy()]
        if out.empty:
            return pd.DataFrame({c: pd.Series([], dtype=object)
                                 for c in cols})
        uniq = out.drop_duplicates(["url", "href"])
        resolved = {(u, h): urljoin(u, h)
                    for u, h in zip(uniq["url"], uniq["href"])}
        out["dst_url"] = [resolved[(u, h)]
                          for u, h in zip(out["url"], out["href"])]
        return out.reset_index(drop=True)[cols]

    return pages.map_batches(f, batch_format="pandas")


def host_link_graph_ds(links, drop_self: bool = True,
                       num_buckets: int = 32):
    """link rows (url, dst_url) -> weighted registered-domain edge
    list (src_domain, dst_domain, n_links). One `grouped_agg` shuffle
    of slim pre-counted rows; self-edges (intra-domain nav) dropped by
    default."""
    from ..functions.aggregates import grouped_agg

    def to_domains(batch: pd.DataFrame) -> pd.DataFrame:
        src = parse_url_frame(batch["url"])["domain"].to_numpy(object)
        dst = parse_url_frame(batch["dst_url"])["domain"].to_numpy(object)
        out = pd.DataFrame({"src_domain": src, "dst_domain": dst})
        out = out[(out["src_domain"] != "") & (out["dst_domain"] != "")]
        if drop_self:
            out = out[out["src_domain"] != out["dst_domain"]]
        return out.reset_index(drop=True)

    dom = links.map_batches(to_domains, batch_format="pandas")
    return grouped_agg(dom, ["src_domain", "dst_domain"],
                       {"n_links": (None, "count")},
                       num_buckets=num_buckets)


def _host_id(hosts: np.ndarray) -> np.ndarray:
    """Stable 63-bit id per host string (PageRank wants int64
    vertices). Collision odds at web scale (~10^8 hosts) are ~1e-11;
    the name<->id pairing rides the edge rows so no separate lookup
    shuffle is needed."""
    return (pd.util.hash_array(hosts.astype(object))
            >> np.uint64(1)).astype(np.int64)


def host_rank(pages, damping: float = 0.85, iters: int = 20,
              url_col: str = "url", html_col: str = "html"):
    """pages -> per-registered-domain PageRank: (domain, rank),
    rank desc. Composes extract_links_ds -> host_link_graph_ds ->
    functions.graph.pagerank (weighted by link multiplicity).
    The final name join happens on the HOST-cardinality rank result,
    never on page rows."""
    from ..functions.graph import pagerank
    graph = host_link_graph_ds(
        extract_links_ds(pages, url_col=url_col, html_col=html_col))

    def with_ids(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["src"] = _host_id(b["src_domain"].to_numpy(object))
        b["dst"] = _host_id(b["dst_domain"].to_numpy(object))
        return b

    edges = graph.map_batches(with_ids, batch_format="pandas")
    edges = edges.materialize()  # reused: name map + iterated PR input
    if edges.count() == 0:       # e.g. every link is intra-domain
        return pd.DataFrame({"domain": pd.Series([], dtype=object),
                             "rank": pd.Series([], dtype="float64")})
    names = (edges.map_batches(
        lambda b: pd.concat([
            pd.DataFrame({"vid": b["src"].to_numpy(np.int64),
                          "domain": b["src_domain"].to_numpy(object)}),
            pd.DataFrame({"vid": b["dst"].to_numpy(np.int64),
                          "domain": b["dst_domain"].to_numpy(object)}),
        ]).drop_duplicates("vid"), batch_format="pandas")
        .to_pandas().drop_duplicates("vid"))
    pr = pagerank(edges.map_batches(
        lambda b: b[["src", "dst", "n_links"]], batch_format="pandas"),
        damping=damping, iters=iters, weight_col="n_links")
    out = pr.merge(names, left_on="vertex", right_on="vid")
    return (out[["domain", "rank"]]
            .sort_values(["rank", "domain"], ascending=[False, True])
            .reset_index(drop=True))


# -------------------------------------------- URL normalize + dedup
#
# RefinedWeb's FIRST dedup stage (Penedo et al. 2023 §3.2) runs on
# URLs, before any content hashing: re-crawls and tracking-parameter
# variants of the same resource collapse for the cost of a string
# transform plus one slim shuffle.

TRACKING_PARAMS = frozenset({
    "utm_source", "utm_medium", "utm_campaign", "utm_term",
    "utm_content", "gclid", "fbclid", "msclkid", "ref", "mc_cid",
    "mc_eid", "igshid",
})


def normalize_url(url: str) -> str:
    """Canonical form: lowercase scheme+host, strip fragment, default
    ports (http:80/https:443), trailing host dot and trailing path
    slash (root kept), drop TRACKING_PARAMS, sort remaining query
    params bytewise. Non-URLs (no ``scheme://``) pass through
    unchanged. Pure function — the vectorized stage dedups repeats
    per batch before calling it."""
    m = _URL_RE.match(url)
    if m is None:
        return url
    scheme = m.group("scheme").lower()
    hostport = m.group("hostport")
    path = m.group("path") or ""
    query = m.group("query")
    host, port = hostport, ""
    if ":" in hostport:
        h, _, p = hostport.rpartition(":")
        if p.isdigit():
            host, port = h, p
    host = host.lower().rstrip(".")
    if (scheme, port) in (("http", "80"), ("https", "443")):
        port = ""
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"
    q = ""
    if query:
        parts = [kv for kv in query.split("&") if kv
                 and kv.split("=", 1)[0].lower() not in TRACKING_PARAMS]
        if parts:
            q = "?" + "&".join(sorted(parts))
    netloc = host + (f":{port}" if port else "")
    return f"{scheme}://{netloc}{path}{q}"


def normalize_urls_ds(pages, url_col: str = "url",
                      out_col: str = "norm_url"):
    """Append the canonical URL. Per batch the transform runs once
    per DISTINCT url (crawl frontiers repeat heavily); no shuffle."""
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch[url_col]
        mapping = {x: normalize_url(x) for x in pd.unique(u)}
        out = batch.copy()
        out[out_col] = u.map(mapping)
        return out
    return pages.map_batches(f, batch_format="pandas")


def url_dedup_ds(pages, url_col: str = "url", id_col: str = "warc_ts"):
    """URL-level dedup: one surviving row per canonical URL — the
    survivor is the row with the MINIMUM ``id_col`` (for the flagship
    pages corpus: the earliest ``warc_ts`` capture, matching
    keep-first-crawl semantics). Plan mirrors ``textops.exact_dedup``:
    only (norm_url, id) slim rows cross the coarse-bucketed shuffle;
    the full row set streams through a second pass that keeps members
    of the surviving (norm_url, id) set via an inner hash join.

    Output: the input rows (plus norm_url) of survivors, and n_dups =
    multiplicity of the canonical URL.
    """
    from ..functions.joins import hash_partition_join
    normed = normalize_urls_ds(pages, url_col=url_col).materialize()

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"norm_url": batch["norm_url"],
                            "__id": batch[id_col]})
        h = pd.util.hash_array(out["norm_url"].to_numpy(dtype=object))
        out["__b"] = (h % 256).astype(np.int64)
        return out

    def first(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("norm_url").agg(
            __id=("__id", "min"), n_dups=("__id", "size")).reset_index()
        out["n_dups"] = out["n_dups"].astype("int64")
        return out

    winners = (normed.map_batches(slim, batch_format="pandas")
               .groupby("__b").map_groups(first, batch_format="pandas"))
    # attach survivor rows: equi-join on (norm_url, id) — composite
    # keys keep capture-time ties exact instead of re-comparing ids
    keyed = winners.map_batches(
        lambda b: b.rename(columns={"__id": id_col}),
        batch_format="pandas")

    def pick_one(df: pd.DataFrame) -> pd.DataFrame:
        # two captures can share (norm_url, min id) — e.g. identical
        # warc_ts from a coarse-resolution source — and the equi-join
        # would emit BOTH as "survivors". Every candidate of a
        # norm_url shares its single winner key, hence one bucket, so
        # a per-bucket deterministic pick (sorted by raw url, stable)
        # is globally exact: exactly one row per canonical URL.
        df = df.sort_values(["norm_url", id_col, url_col],
                            kind="mergesort")
        return df.drop_duplicates(subset=["norm_url"], keep="first")

    return hash_partition_join(normed, keyed,
                               on=["norm_url", id_col], how="inner",
                               group_fn=pick_one)


# ------------------------------------------------ robots.txt filter
#
# Crawl-politeness compliance: drop pages whose URL a host's
# robots.txt disallows for the given user agent. The ruleset (host ->
# robots.txt TEXT) broadcasts once via ray.put; each worker parses a
# host's rules at most once (process-level memo keyed by (host, text
# hash) — stateful setup, not per-batch), and the per-batch check is
# one memoized-parser call per DISTINCT (host, path) pair. Hosts with
# no robots entry are allowed (the crawl-world default).

_ROBOTS_MEMO: dict = {}


def _robots_parser(host: str, text: str):
    import urllib.robotparser
    key = (host, hash(text))
    rp = _ROBOTS_MEMO.get(key)
    if rp is None:
        rp = urllib.robotparser.RobotFileParser()
        rp.parse(text.splitlines())
        _ROBOTS_MEMO[key] = rp
    return rp


def robots_filter_ds(pages, robots_map, url_col: str = "url",
                     agent: str = "*"):
    """Filter a pages Dataset to robots.txt-allowed rows.
    ``robots_map``: dict host -> robots.txt text, or an ObjectRef to
    one."""
    import ray as _ray
    from urllib.parse import urlsplit
    ref = (robots_map if isinstance(robots_map, _ray.ObjectRef)
           else _ray.put(robots_map))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        rules = _ray.get(ref)
        urls = b[url_col].to_numpy()
        uniq, inv = np.unique(urls, return_inverse=True)
        ok_u = np.ones(len(uniq), dtype=bool)
        for i, u in enumerate(uniq):
            host = urlsplit(u).netloc.lower()
            text = rules.get(host)
            if text is not None:
                ok_u[i] = _robots_parser(host, text).can_fetch(
                    agent, u)
        return b[ok_u[inv]]

    return pages.map_batches(keep, batch_format="pandas")
