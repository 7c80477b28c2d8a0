"""Chamfer distances, F-Score, batch evaluation, table emission."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from helpers import (chamfer_l1_oracle, chamfer_l2_oracle, evaluate_pair_three_pass_oracle,
                     fscore_oracle)

from duinnet import metrics
from duinnet.geometry import PointCloud


def _pair(rng, n=None, m=None):
    n = n or int(rng.integers(16, 97))
    m = m or int(rng.integers(16, 97))
    return rng.standard_normal((n, 3)), rng.standard_normal((m, 3))


# -- hand values --------------------------------------------------------------------


def test_chamfer_l1_identity_is_zero():
    pts = np.random.default_rng(0).standard_normal((32, 3))
    assert metrics.chamfer_l1(pts, pts) == 0.0


def test_chamfer_l1_single_pair_hand_value():
    assert metrics.chamfer_l1(np.array([[0.0, 0.0, 0.0]]),
                              np.array([[3.0, 4.0, 0.0]])) == pytest.approx(5.0)


def test_chamfer_l2_identity_is_zero():
    pts = np.random.default_rng(1).standard_normal((32, 3))
    assert metrics.chamfer_l2(pts, pts) == 0.0


def test_chamfer_l2_single_pair_hand_value():
    assert metrics.chamfer_l2(np.array([[0.0, 0.0, 0.0]]),
                              np.array([[1.0, 0.0, 0.0]])) == pytest.approx(2.0)


def test_fscore_identity():
    pts = np.random.default_rng(2).standard_normal((32, 3))
    assert metrics.fscore(pts, pts, 0.001) == (1.0, 1.0, 1.0)


def test_fscore_disjoint_clouds():
    p = np.zeros((5, 3))
    q = np.zeros((5, 3)) + 10.0
    assert metrics.fscore(p, q, 0.001) == (0.0, 0.0, 0.0)


def test_fscore_requires_positive_threshold():
    pts = np.zeros((2, 3))
    for d in (0.0, np.nan):
        with pytest.raises(ValueError, match="threshold d must be positive"):
            metrics.fscore(pts, pts, d)


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        metrics.chamfer_l1(np.zeros((0, 3)), np.zeros((3, 3)))


# -- oracle parity ------------------------------------------------------------------


def test_oracle_parity_small_batch():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = _pair(rng)
        assert metrics.chamfer_l1(p, q) == pytest.approx(chamfer_l1_oracle(p, q), rel=1e-9)
        assert metrics.chamfer_l2(p, q) == pytest.approx(chamfer_l2_oracle(p, q), rel=1e-9)
        assert metrics.fscore(p, q, 0.5) == pytest.approx(fscore_oracle(p, q, 0.5))


def test_fscore_plain_threshold_scale():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[0.05, 0.0, 0.0]])
    # the threshold is on the squared scale: 0.0025 >= 0.001 -> miss
    assert metrics.fscore(p, q, 0.001)[2] == 0.0


# -- properties ---------------------------------------------------------------------


def test_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p, q = _pair(rng)
        assert metrics.chamfer_l1(p, q) == pytest.approx(metrics.chamfer_l1(q, p))
        assert metrics.chamfer_l2(p, q) == pytest.approx(metrics.chamfer_l2(q, p))
        pr, rc, f = metrics.fscore(p, q, 0.3)
        pr2, rc2, f2 = metrics.fscore(q, p, 0.3)
        assert (pr, rc) == (rc2, pr2) and f == pytest.approx(f2)


def test_fscore_monotone_in_threshold():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p, q = _pair(rng)
        thresholds = sorted(rng.uniform(0.01, 4.0, size=5))
        scores = [metrics.fscore(p, q, d)[2] for d in thresholds]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (8, 3), elements=st.floats(-5, 5)),
       arrays(np.float64, (11, 3), elements=st.floats(-5, 5)))
def test_chamfer_nonnegative_and_symmetric_property(p, q):
    v = metrics.chamfer_l1(p, q)
    assert v >= 0
    assert v == pytest.approx(metrics.chamfer_l1(q, p))


# -- batch evaluation ---------------------------------------------------------------


def test_evaluate_pair_perfect_prediction():
    pts = np.random.default_rng(7).standard_normal((64, 3))
    rep = metrics.evaluate_pair(pts, pts)
    assert rep.cd_l1 == 0 and rep.cd_l2 == 0 and rep.fscore == 1


_CLOUD = st.integers(1, 24).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])
                     | st.floats(-2, 2)))


@settings(max_examples=80, deadline=None)
@given(_CLOUD, _CLOUD, st.data())
def test_evaluate_pair_equals_three_pass_oracle(p, q, data):
    """One nearest-neighbor pass each way gives every field of the former
    three-pass body exactly, also at a threshold equal to a distance."""
    dists = np.concatenate([metrics.nearest_sq_dists(p, q), metrics.nearest_sq_dists(q, p)])
    positive = dists[dists > 0]
    d = data.draw(st.sampled_from([0.001, 0.3] + sorted(set(positive.tolist()))))
    got = metrics.evaluate_pair(p, q, d)
    want = evaluate_pair_three_pass_oracle(p, q, d)
    assert got == want
    assert (metrics.chamfer_l1(p, q), metrics.chamfer_l2(p, q), metrics.fscore(p, q, d)) == \
        (want.cd_l1, want.cd_l2, (want.precision, want.recall, want.fscore))


def test_evaluate_pair_builds_two_trees(monkeypatch):
    built = []

    def counting_tree(pts):
        built.append(len(pts))
        return cKDTree(pts)

    monkeypatch.setattr(metrics, "cKDTree", counting_tree)
    p, q = _pair(np.random.default_rng(11), 20, 30)
    metrics.evaluate_pair(p, q)
    assert sorted(built) == [20, 30]


def test_evaluate_batch_two_pair_arithmetic():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    rep = metrics.evaluate_batch([a, a], [a, b], categories=["x", "x"])
    assert rep.cd_l1 == pytest.approx((0.0 + 5.0) / 2)


def test_evaluate_batch_equals_mean_of_pairs():
    rng = np.random.default_rng(8)
    preds = [rng.standard_normal((32, 3)) for _ in range(20)]
    gts = [rng.standard_normal((32, 3)) for _ in range(20)]
    batch = metrics.evaluate_batch(preds, gts)
    singles = [metrics.evaluate_pair(p, g) for p, g in zip(preds, gts)]
    assert batch.cd_l1 == pytest.approx(np.mean([r.cd_l1 for r in singles]))
    assert batch.cd_l2 == pytest.approx(np.mean([r.cd_l2 for r in singles]))
    assert batch.fscore == pytest.approx(np.mean([r.fscore for r in singles]))


def test_evaluate_batch_per_category_breakdown():
    rng = np.random.default_rng(9)
    preds = [PointCloud(rng.standard_normal((16, 3))) for _ in range(4)]
    gts = [PointCloud(rng.standard_normal((16, 3)), category=c)
           for c in ("chair", "chair", "desk", "desk")]
    rep = metrics.evaluate_batch(preds, gts)
    assert set(rep.per_category) == {"chair", "desk"}
    assert rep.per_category["chair"]["count"] == 2


def test_evaluate_batch_length_mismatch():
    pts = np.zeros((2, 3))
    with pytest.raises(ValueError):
        metrics.evaluate_batch([pts], [pts, pts])


def test_format_table_layout():
    rng = np.random.default_rng(10)
    preds = [PointCloud(rng.standard_normal((16, 3))) for _ in range(2)]
    gts = [PointCloud(rng.standard_normal((16, 3)), category=c) for c in ("bed", "sofa")]
    rep = metrics.evaluate_batch(preds, gts)
    table = metrics.format_table(rep, {"Mean(seen)": {"cd_l1": 1.0, "cd_l2": 2.0, "fscore": 0.5}})
    lines = table.splitlines()
    assert lines[0].split("\t") == ["category", "CD-l1(x1e-3)", "CD-l2(x1e-3)", "FS@0.001"]
    assert lines[1].startswith("bed\t") and lines[2].startswith("sofa\t")
    assert lines[-2].startswith("Mean(seen)\t")
    assert lines[-1].startswith("mean\t")
    # CD columns carry the x1e-3 scaling
    assert lines[1].split("\t")[1] == f"{rep.per_category['bed']['cd_l1'] * 1e3:.3f}"
