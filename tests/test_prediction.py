"""Posterior-predictive probabilities, logits, classification and accuracy."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, logit

from vbnn.model import LabeledBatch, NetworkShape, scores_many, sigmoid, unflatten
from vbnn.prediction import (
    PredictiveConfig,
    classify,
    classify_batch,
    evaluation_dict,
    predictive_logit,
    predictive_logits,
    predictive_probabilities,
    predictive_probability,
    save_predictions_csv,
)
from vbnn.prediction import _BLOCK_FLOATS
from vbnn.prediction import test_accuracy as accuracy_of  # dodge pytest collection
from vbnn.variational import VariationalParams, softplus_inverse

from conftest import BENCH_SHAPE, TOY_SHAPE


def point_mass_at(flat: np.ndarray) -> VariationalParams:
    """q collapsed (s ~ 4e-18) onto one parameter vector."""
    return VariationalParams(mean=np.asarray(flat, dtype=float),
                             raw_scale=np.full(len(flat), -40.0))


def constant_score_q(score: float, shape: NetworkShape) -> VariationalParams:
    """Point mass whose network outputs `score` everywhere (all betas zero)."""
    flat = np.zeros(shape.K)
    flat[0] = score
    return point_mass_at(flat)


class TestPredictiveProbability:
    def test_collapsed_zero_network_gives_exactly_half(self, rng):
        # sampled scores are ~1e-17, and sigmoid rounds them to exactly 0.5
        q = point_mass_at(np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (10, 2))
        probs = predictive_probabilities(q, x, PredictiveConfig(M=100, seed=0))
        assert np.all(probs == 0.5)

    def test_single_draw_equals_one_network_evaluation(self, rng):
        from vbnn.model import forward_score, sigmoid

        q = VariationalParams(mean=rng.normal(0, 1, TOY_SHAPE.K),
                              raw_scale=softplus_inverse(np.full(TOY_SHAPE.K, 0.5)))
        cfg = PredictiveConfig(M=1, seed=123)
        x = np.array([0.3])
        # replicate the documented row substream: spawn_key=(row,), one draw
        row_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=123, spawn_key=(0,))
        )
        theta = q.mean + q.scale * row_rng.standard_normal((1, TOY_SHAPE.K))
        expected = float(sigmoid(forward_score(unflatten(theta[0], TOY_SHAPE), x)))
        assert predictive_probability(q, x, cfg) == expected

    def test_deterministic_per_seed(self, rng):
        q = point_mass_at(rng.normal(0, 1, BENCH_SHAPE.K))
        q = VariationalParams(mean=q.mean, raw_scale=np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (25, 2))
        a = predictive_probabilities(q, x, PredictiveConfig(M=50, seed=9))
        b = predictive_probabilities(q, x, PredictiveConfig(M=50, seed=9))
        c = predictive_probabilities(q, x, PredictiveConfig(M=50, seed=10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monte_carlo_budget_self_consistency(self, rng):
        q = VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (5, 2))
        small = predictive_probabilities(q, x, PredictiveConfig(M=200, seed=1))
        large = predictive_probabilities(q, x, PredictiveConfig(M=50_000, seed=2))
        # sigmoid outputs live in [0,1], so se(M=200) <= 0.5/sqrt(200) ~ 0.035
        assert np.all(np.abs(small - large) < 5 * 0.5 / math.sqrt(200))

    def test_probabilities_average_not_squash_of_average(self):
        # Jensen gap: a wide posterior on the output bias flattens the
        # averaged probability below sigmoid(mean score)
        shape = TOY_SHAPE
        flat = np.zeros(shape.K)
        flat[0] = 2.0
        raw = np.full(shape.K, -40.0)
        raw[0] = float(softplus_inverse(3.0))  # beta0 ~ N(2, 9)
        q = VariationalParams(mean=flat, raw_scale=raw)
        p_hat = predictive_probability(q, np.array([0.5]),
                                       PredictiveConfig(M=20_000, seed=0))
        assert p_hat < float(expit(2.0)) - 0.05

    def test_empty_input_gives_empty_output(self):
        q = point_mass_at(np.zeros(BENCH_SHAPE.K))
        probs = predictive_probabilities(q, np.empty((0, 2)), PredictiveConfig())
        assert probs.shape == (0,)

    def test_bounds(self, rng):
        q = VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        probs = predictive_probabilities(q, rng.uniform(0, 1, (40, 2)),
                                         PredictiveConfig(M=30, seed=0))
        assert np.all((probs >= 0) & (probs <= 1))


def block_rows(M: int, K: int) -> int:
    return max(1, _BLOCK_FLOATS // (M * K))


class TestRowBlocks:
    """Rows are served in blocks; no row's p_hat depends on its block."""

    @pytest.fixture
    def wide_q(self, rng):
        return VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                 raw_scale=softplus_inverse(np.full(BENCH_SHAPE.K, 0.7)))

    @pytest.mark.parametrize("M", [7, 200, 3000])
    def test_prefixes_are_byte_identical(self, rng, wide_q, M):
        B = block_rows(M, BENCH_SHAPE.K)
        cfg = PredictiveConfig(M=M, seed=17)
        x = rng.uniform(0, 1, (2 * B + 9, 2))
        whole = predictive_probabilities(wide_q, x, cfg)
        for m in (1, B - 1, B, B + 1, 2 * B + 3):
            part = predictive_probabilities(wide_q, x[:m], cfg)
            assert part.tobytes() == whole[:m].tobytes(), m

    def test_rows_match_the_documented_substream(self, rng, wide_q):
        M, seed = 200, 5
        n = 2 * block_rows(M, BENCH_SHAPE.K) + 4
        x = rng.uniform(0, 1, (n, 2))
        probs = predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=seed))
        for r in range(n):
            row_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(r,))
            )
            draws = wide_q.mean + wide_q.scale * row_rng.standard_normal((M, BENCH_SHAPE.K))
            expected = np.mean(sigmoid(scores_many(draws, x[r : r + 1], BENCH_SHAPE)))
            assert abs(probs[r] - expected) <= 1e-15, r

    def test_large_budget_allocates_about_one_rows_draws(self, rng, wide_q):
        M = 50_000
        x = rng.uniform(0, 1, (3, 2))
        cfg = PredictiveConfig(M=M, seed=0)
        tracemalloc.start()
        try:
            predictive_probabilities(wide_q, x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * M * BENCH_SHAPE.K * 8


class TestLogits:
    def test_balanced_probability_maps_to_zero(self):
        q = point_mass_at(np.zeros(BENCH_SHAPE.K))
        lg = predictive_logit(q, np.array([0.4, 0.6]), PredictiveConfig(M=64, seed=0))
        assert lg == 0.0

    def test_saturated_probability_is_clamped(self):
        # a huge certain bias gives p_hat exactly 1.0 before the clamp
        q = constant_score_q(100.0, BENCH_SHAPE)
        cfg = PredictiveConfig(M=16, seed=0, prob_clamp_eps=1e-12)
        x = np.array([[0.5, 0.5]])
        assert predictive_probabilities(q, x, cfg)[0] == 1.0
        expected = float(logit(1 - 1e-12))  # ~ 27.63
        assert predictive_logits(q, x, cfg)[0] == pytest.approx(expected, rel=1e-12)
        assert 27.0 < predictive_logits(q, x, cfg)[0] < 28.0

    def test_round_trip_through_sigmoid(self, rng):
        q = VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (30, 2))
        cfg = PredictiveConfig(M=40, seed=2)
        probs = predictive_probabilities(q, x, cfg)
        logits = predictive_logits(q, x, cfg)
        clamped = np.clip(probs, cfg.prob_clamp_eps, 1 - cfg.prob_clamp_eps)
        np.testing.assert_allclose(expit(logits), clamped, atol=1e-12)


class TestClassification:
    def test_exact_tie_is_labeled_one(self):
        q = point_mass_at(np.zeros(BENCH_SHAPE.K))
        assert classify(q, np.array([0.1, 0.9]), PredictiveConfig(M=32, seed=0)) == 1

    def test_just_below_half_is_labeled_zero(self):
        q = constant_score_q(float(logit(0.4999)), BENCH_SHAPE)
        assert classify(q, np.array([0.2, 0.8]), PredictiveConfig(M=32, seed=0)) == 0

    def test_labels_agree_with_logit_sign(self, rng):
        q = VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (100, 2))
        cfg = PredictiveConfig(M=25, seed=6)
        labels = classify_batch(q, x, cfg)
        logits = predictive_logits(q, x, cfg)
        np.testing.assert_array_equal(labels, (logits >= 0).astype(int))


class TestAccuracy:
    def test_perfect_and_inverted_labels(self, rng):
        q = VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (60, 2))
        cfg = PredictiveConfig(M=20, seed=1)
        labels = classify_batch(q, x, cfg)
        assert accuracy_of(q, LabeledBatch(x=x, y=labels), cfg) == 1.0
        assert accuracy_of(q, LabeledBatch(x=x, y=1 - labels), cfg) == 0.0

    def test_matches_per_row_loop(self, rng):
        q = VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (20, 2)),
                             y=rng.integers(0, 2, 20))
        cfg = PredictiveConfig(M=15, seed=3)
        expected = np.mean([
            classify(q, batch.x[i], cfg) == batch.y[i] for i in range(batch.n)
        ])
        # NOTE: classify() on a single row uses row index 0, so rebuild via
        # the batch call for the apples-to-apples check
        labels = classify_batch(q, batch.x, cfg)
        assert accuracy_of(q, batch, cfg) == np.mean(labels == batch.y)
        assert 0.0 <= expected <= 1.0

    def test_empty_batch_rejected(self):
        q = point_mass_at(np.zeros(BENCH_SHAPE.K))
        batch = LabeledBatch(x=np.empty((0, 2)), y=np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            accuracy_of(q, batch, PredictiveConfig())

    def test_evaluation_dict_fields(self, rng):
        q = VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                              raw_scale=np.zeros(BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (12, 2)),
                             y=rng.integers(0, 2, 12))
        doc = evaluation_dict(q, batch, PredictiveConfig(M=10, seed=0))
        assert doc["n"] == 12
        assert doc["error_rate"] == pytest.approx(1.0 - doc["accuracy"], abs=1e-15)


class TestPredictionsCsv:
    def test_round_trips_probabilities_exactly(self, tmp_path):
        path = tmp_path / "predictions.csv"
        probs = np.array([0.1234567890123456789, 1 / 3, 1.0])
        labels = np.array([0, 0, 1])
        save_predictions_csv(path, probs, labels)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["row_id"] for r in rows] == ["0", "1", "2"]
        assert [float(r["p_hat"]) for r in rows] == list(probs)
        assert [int(r["label_hat"]) for r in rows] == [0, 0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictiveConfig(M=0)
        with pytest.raises(ValueError):
            PredictiveConfig(prob_clamp_eps=0.7)
