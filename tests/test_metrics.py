import math

import numpy as np
import pytest

from lfdepth.errors import EvaluationError, ShapeError, UsageError
from lfdepth.metrics import COLUMN_NAMES, MASK_EPS, DepthMetrics, aggregate, evaluate
from lfdepth.tensor import Tensor


def test_perfect_prediction_is_zero_error_full_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        gt = rng.uniform(0.1, 1.0, (1, 1, 8, 8))
        m = evaluate(gt.copy(), gt)
        assert m.row() == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_hand_oracle_two_pixels():
    # pixel 1: pred 1 vs gt 2; pixel 2: pred 2 vs gt 2
    m = evaluate(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
    assert m.rms == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert m.abs_rel == pytest.approx(0.25, rel=1e-12)
    assert m.sq_rel == pytest.approx(0.25, rel=1e-12)
    # ratios are 2.0 and 1.0; 2.0 clears no threshold (1.953125 at the widest)
    assert (m.d1, m.d2, m.d3) == (0.5, 0.5, 0.5)


def test_delta_thresholds_separate():
    # ratio 1.3: misses 1.25, fits 1.5625 and 1.953125
    m = evaluate(np.array([1.3]), np.array([1.0]))
    assert (m.d1, m.d2, m.d3) == (0.0, 1.0, 1.0)
    # ratio 1.6: misses the first two
    m = evaluate(np.array([1.6]), np.array([1.0]))
    assert (m.d1, m.d2, m.d3) == (0.0, 0.0, 1.0)


def test_delta_comparison_is_strict():
    m = evaluate(np.array([1.25]), np.array([1.0]))
    assert m.d1 == 0.0
    m = evaluate(np.array([1.25 - 1e-9]), np.array([1.0]))
    assert m.d1 == 1.0


def test_deltas_are_ordered():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred = rng.uniform(0.01, 2.0, 40)
        gt = rng.uniform(0.01, 2.0, 40)
        m = evaluate(pred, gt)
        assert m.d1 <= m.d2 <= m.d3


def test_relative_metrics_are_scale_invariant():
    rng = np.random.default_rng(2)
    pred = rng.uniform(0.1, 1.0, 30)
    gt = rng.uniform(0.1, 1.0, 30)
    a = evaluate(pred, gt)
    b = evaluate(7.0 * pred, 7.0 * gt)
    assert b.abs_rel == pytest.approx(a.abs_rel, rel=1e-12)
    assert (b.d1, b.d2, b.d3) == (a.d1, a.d2, a.d3)
    assert b.rms == pytest.approx(7.0 * a.rms, rel=1e-12)
    assert b.sq_rel == pytest.approx(7.0 * a.sq_rel, rel=1e-12)


def test_masked_pixels_are_ignored():
    gt = np.array([[0.0, 0.5], [1e-4, 0.8]])
    pred_a = np.array([[0.9, 0.5], [0.9, 0.8]])
    pred_b = np.array([[0.1, 0.5], [0.2, 0.8]])
    a = evaluate(pred_a, gt)
    b = evaluate(pred_b, gt)
    assert a == b
    assert a.row() == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_zero_prediction_counts_as_miss():
    m = evaluate(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
    assert (m.d1, m.d2, m.d3) == (0.5, 0.5, 0.5)
    assert np.isfinite(m.rms)


def test_accepts_tensors():
    gt = np.array([0.4, 0.6])
    m = evaluate(Tensor(gt.copy()), Tensor(gt.copy()))
    assert m.row() == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_evaluate_errors():
    with pytest.raises(ShapeError):
        evaluate(np.zeros(3), np.zeros(4))
    with pytest.raises(EvaluationError):
        evaluate(np.ones(4), np.zeros(4))


def test_eps_controls_the_mask():
    pred = np.array([0.5, 0.5, 0.5])
    # at and just below MASK_EPS a pixel is masked out
    masked = evaluate(pred, np.array([MASK_EPS, 0.999 * MASK_EPS, 0.5]))
    assert masked.row() == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    # just above it the pixel counts
    counted = evaluate(pred, np.array([1.001 * MASK_EPS, MASK_EPS, 0.5]))
    assert counted.abs_rel > 0
    assert counted.d1 == pytest.approx(0.5)


def test_aggregate_is_fieldwise_mean():
    a = DepthMetrics(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    b = DepthMetrics(0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    m = aggregate([a, b])
    assert m.row() == pytest.approx((0.2, 0.3, 0.4, 0.5, 0.6, 0.7), rel=1e-12)
    assert aggregate([a]) == a
    with pytest.raises(UsageError):
        aggregate([])


def test_column_names_match_fields():
    assert COLUMN_NAMES == ("rms", "abs rel", "sq rel", "d1", "d2", "d3")
    assert len(COLUMN_NAMES) == len(DepthMetrics(0, 0, 0, 0, 0, 0).row())
