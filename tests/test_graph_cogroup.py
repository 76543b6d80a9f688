"""The bucketed co-group behind connected components: exact int64
round-trips for ids above 2^53, and typed results when a side or every
side is empty."""

import numpy as np
import pandas as pd
import pytest

from osm_sidewalkreator_ray.functions.graph import _cogroup

pytestmark = pytest.mark.usefixtures("ray_session")

_PAIR = {"vertex": "int64", "label": "int64"}


def _ds(df):
    import ray.data as rd
    return rd.from_pandas(df)


def _attacher():
    # a closure, so Ray workers get it by value (they cannot import
    # this test module by name)
    def attach(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        return e.merge(lab, left_on="src", right_on="vertex")[
            ["src", "dst", "label"]]
    return attach


def test_ids_above_2_53_round_trip_exactly():
    inf = 2**62
    big = np.array([2**53 + 1, 2**53 + 3, inf - 1, inf, inf + 1,
                    2**63 - 1], dtype=np.int64)
    edges = pd.DataFrame({"src": big, "dst": big[::-1].copy()})
    labels = pd.DataFrame({"vertex": big, "label": big - 1})
    got = _cogroup([(_ds(edges), "src", {"src": "int64", "dst": "int64"}),
                    (_ds(labels), "vertex", _PAIR)],
                   _attacher(), 3,
                   {"src": "int64", "dst": "int64", "label": "int64"}) \
        .to_pandas().sort_values("src").reset_index(drop=True)
    assert got.dtypes.tolist() == [np.dtype("int64")] * 3
    assert got["src"].tolist() == [int(v) for v in big]
    assert got["dst"].tolist() == [int(v) for v in big[::-1]]
    assert got["label"].tolist() == [int(v) - 1 for v in big]


def test_composite_keys_meet_across_sides():
    # (s, v) on one side and (s, w) on the other hash to one bucket
    s = np.array([2**53 + 1, 7, 7], dtype=np.int64)
    a = pd.DataFrame({"s": s, "v": np.array([1, 2**62 + 5, 3],
                                            dtype=np.int64)})
    b = pd.DataFrame({"s": s, "w": a["v"].to_numpy(),
                      "x": np.array([10, 20, 30], dtype=np.int64)})
    sv = {"s": "int64", "v": "int64"}
    sw = {"s": "int64", "w": "int64", "x": "int64"}
    got = _cogroup(
        [(_ds(a), ("s", "v"), sv), (_ds(b), ("s", "w"), sw)],
        lambda l, r: l.merge(r, left_on=["s", "v"],
                             right_on=["s", "w"])[["s", "v", "x"]],
        5, {"s": "int64", "v": "int64", "x": "int64"}).to_pandas()
    assert sorted(map(tuple, got.to_numpy().tolist())) == sorted(
        zip(s.tolist(), a["v"].tolist(), [10, 20, 30]))


def test_one_side_empty_is_typed():
    edges = pd.DataFrame({"src": np.array([1, 2], dtype=np.int64),
                          "dst": np.array([2, 3], dtype=np.int64)})
    none = pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                         "label": pd.Series([], dtype="int64")})
    out = {"src": "int64", "dst": "int64", "label": "int64"}
    ds = _cogroup([(_ds(edges), "src", {"src": "int64", "dst": "int64"}),
                   (_ds(none), "vertex", _PAIR)], _attacher(), 2, out)
    assert ds.count() == 0
    assert ds.schema().names == list(out)
    assert [str(t) for t in ds.schema().types] == ["int64"] * 3


def test_all_sides_empty_is_typed():
    none_e = pd.DataFrame({"src": pd.Series([], dtype="int64"),
                           "dst": pd.Series([], dtype="int64")})
    none_l = pd.DataFrame({"vertex": pd.Series([], dtype="int64"),
                           "label": pd.Series([], dtype="int64")})
    out = {"vertex": "int64", "p": "uint64", "done": "bool"}
    ds = _cogroup([(_ds(none_e), "src", {"src": "int64", "dst": "int64"}),
                   (_ds(none_l), "vertex", _PAIR)],
                  lambda e, lab: pd.DataFrame(), 4, out)
    assert ds.count() == 0
    assert ds.schema().names == list(out)
    assert [str(t) for t in ds.schema().types] == ["int64", "uint64",
                                                   "bool"]

