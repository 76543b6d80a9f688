"""fastText-style hashed-BoW quality classifier (textops.trained_quality_classifier).

The demo task distills the stopword-density gate (stop_ratio >= 0.06)
into a linear model over hashed features — the boundary is a
thresholded sum of the stopword feature buckets, so a logistic
regression can realize it exactly and full agreement is the
correctness bar, not a hopeful accuracy number.
"""

import numpy as np
import pyarrow.parquet as pq
import pytest

from osm_sidewalkreator_ray.pipelines import textops as T

SF = "/root/testdata/sf0.001"


def _gate_labels(sf: str) -> np.ndarray:
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "text"])
    q = T._quality_batch(t).to_pandas().sort_values("doc_id")
    return (q["stop_ratio"].to_numpy() >= 0.06).astype(np.int64)


@pytest.mark.usefixtures("ray_session")
class TestQualityClassifier:
    def test_distills_the_gate_exactly(self):
        out = T.trained_quality_classifier(SF)
        y = _gate_labels(SF)
        assert len(out) == len(y)
        assert (out["pred"].to_numpy() == y).all()
        # probabilities are saturated, not borderline
        conf = np.where(y == 1, out["proba"], 1 - out["proba"])
        assert float(conf.min()) > 0.5

    def test_sampled_fit_is_deterministic_and_scores_all(self,
                                                        monkeypatch):
        from osm_sidewalkreator_ray.pipelines import vectors as V
        n = len(_gate_labels(SF))
        # a row cap of half the corpus makes the doc_id modulus 2
        monkeypatch.setattr(T, "_QC_TRAIN_ROWS", -(-n // 2))
        fit_rows = []
        fit_local = V.logreg_fit_local

        def spy(m, y, **kw):
            fit_rows.append(len(y))
            return fit_local(m, y, **kw)

        monkeypatch.setattr(V, "logreg_fit_local", spy)
        o1 = T.trained_quality_classifier(SF)
        o2 = T.trained_quality_classifier(SF)
        assert o1.equals(o2)
        assert fit_rows[0] == fit_rows[1] and fit_rows[0] < n
        assert len(o1) == n  # scores ALL docs

    def test_feature_batch_pandas_pyarrow_identical(self):
        t = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"]).slice(0, 64)
        fa = T._hashed_features_batch(t)
        fp = T._hashed_features_batch(t.to_pandas())
        assert (fa["vec_id"].to_numpy() == fp["vec_id"].to_numpy()).all()
        assert (fa["y"].to_numpy() == fp["y"].to_numpy()).all()
        ma = np.stack(fa["embedding"].to_numpy())
        mp = np.stack(fp["embedding"].to_numpy())
        assert np.array_equal(ma, mp)

    def test_fused_gate_equals_quality_batch(self):
        # _flat_token_hashes_stop's one-pass stop_ratio must equal
        # the standalone Arrow scorer's value bit-for-bit (the fused
        # form is what dsir_select and the classifier gate on)
        t = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"])
        th, ntok, sr = T._flat_token_hashes_stop(t["text"])
        q = T._quality_batch(t).to_pandas()
        assert np.array_equal(sr, q["stop_ratio"].to_numpy())
        th2, nt2 = T._flat_token_hashes(t["text"],
                                        T._md5_token_hashes)
        assert np.array_equal(th, th2)
        assert np.array_equal(ntok, nt2)

    def test_features_l1_scaled(self):
        t = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"]).slice(0, 32)
        f = T._hashed_features_batch(t)
        m = np.stack(f["embedding"].to_numpy())
        nz = m.sum(axis=1) > 0
        # proportions x 100 -> every non-empty row sums to 100
        assert np.allclose(m[nz].sum(axis=1), 100.0)
