"""Network score, likelihood, prior and flattening.

Oracles used here: a hand-rolled scalar forward pass in pure python math, an
extended-precision softplus via mpmath, per-point Bernoulli probabilities via
math.log, scipy.stats.norm for the prior density, and scipy.special.expit
for the output sigmoid.
"""

import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit

from vbnn.data import REFERENCE_TRUTH, generate_synthetic
from vbnn.metrics import TrueFunction
from vbnn.model import (
    _BLOCK_FLOATS,
    _score_rows,
    _score_terms,
    LabeledBatch,
    NetworkParams,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    flatten,
    log_joint_many,
    log_likelihood_many,
    log_prior,
    score_factors,
    scores,
    scores_many,
    shape_for,
    sigmoid,
    softplus,
    unflatten,
    unflatten_many,
)
from vbnn.optimizer import TrainConfig, train

from conftest import BENCH_SHAPE, TOY_SHAPE, implied_thetas, scores_bound


def scalar_forward_oracle(theta: NetworkParams, x) -> float:
    """Score computed with pure-python loops and math.exp only."""
    total = theta.beta0
    for j in range(theta.beta.shape[0]):
        pre = theta.gamma0[j]
        for d in range(theta.gamma.shape[1]):
            pre += theta.gamma[j, d] * x[d]
        if pre >= 0:
            total += theta.beta[j] / (1.0 + math.exp(-pre))
        else:  # same logistic, without overflowing math.exp for pre << 0
            total += theta.beta[j] * math.exp(pre) / (1.0 + math.exp(pre))
    return total


def float32_bound(thetas, x, shape: NetworkShape) -> np.ndarray:
    """log_likelihood_many's documented relative error bound for each row:
    (p + k + 8) * 2^-24 * (1 + B * (1 + H))."""
    beta0, beta, gamma0, gamma = unflatten_many(np.atleast_2d(thetas), shape)
    B = np.abs(beta0) + np.abs(beta).sum(axis=1)
    H = ((np.abs(gamma0)[:, :, None] + np.abs(gamma) @ np.abs(x).T) / 2).max(axis=(1, 2))
    return (shape.p + shape.k + 8) * 2.0**-24 * (1 + B * (1 + H))


def one_network_scores(theta: NetworkParams, x) -> np.ndarray:
    """The kernel's scores of one network: a stack of one parameter row."""
    return scores_many(flatten(theta)[None], x, theta.shape)[0]


class TestForwardScore:
    def test_all_zero_parameters_give_zero_score(self):
        theta = NetworkParams(beta0=0.0, beta=np.zeros(3), gamma0=np.zeros(3),
                              gamma=np.zeros((3, 2)))
        assert one_network_scores(theta, np.array([[0.3, 0.7]]))[0] == 0.0

    def test_single_node_at_activation_midpoint(self):
        # beta0=0, beta=2, inactive hidden input => 2 * sigmoid(0) = 1
        theta = NetworkParams(beta0=0.0, beta=np.array([2.0]),
                              gamma0=np.array([0.0]), gamma=np.array([[0.0]]))
        assert one_network_scores(theta, np.array([[0.0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_scalar_oracle(self, rng, random_theta):
        for _ in range(10):
            theta = random_theta(BENCH_SHAPE)
            x = rng.uniform(0, 1, BENCH_SHAPE.p)
            assert one_network_scores(theta, x[None])[0] == pytest.approx(
                scalar_forward_oracle(theta, x), rel=1e-12
            )

    def test_scores_of_all_rows_match_rowwise_forward(self, rng, random_theta):
        theta = random_theta(BENCH_SHAPE)
        x = rng.uniform(0, 1, (20, 2))
        expected = np.array([one_network_scores(theta, row[None])[0] for row in x])
        np.testing.assert_allclose(one_network_scores(theta, x), expected, rtol=1e-12)

    def test_scores_many_matches_each_network_alone(self, rng, random_theta):
        thetas = np.stack([flatten(random_theta(BENCH_SHAPE)) for _ in range(7)])
        x = rng.uniform(0, 1, (11, 2))
        got = scores_many(thetas, x, BENCH_SHAPE)
        for i in range(7):
            expected = one_network_scores(unflatten(thetas[i], BENCH_SHAPE), x)
            np.testing.assert_allclose(got[i], expected, rtol=1e-12, atol=1e-12)

    def test_monotone_in_single_weight(self):
        # k=1, positive beta: the score is increasing in gamma's input
        theta = NetworkParams(beta0=0.0, beta=np.array([1.0]),
                              gamma0=np.array([0.0]), gamma=np.array([[2.0]]))
        xs = np.linspace(0, 1, 9)[:, None]
        scores = one_network_scores(theta, xs)
        assert np.all(np.diff(scores) > 0)

    def test_width_mismatch_raises(self, random_theta):
        theta = random_theta(BENCH_SHAPE)
        with pytest.raises(ShapeMismatchError, match=r"p=2\) .* got \(4, 3\)"):
            one_network_scores(theta, np.zeros((4, 3)))

    def test_single_point_width_mismatch_raises(self, random_theta):
        theta = random_theta(BENCH_SHAPE)
        # one point of the wrong width, or the right width but not one row of an (n, p) x
        for x in (np.zeros((1, 3)), np.zeros((1, 1)), np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(ShapeMismatchError):
                one_network_scores(theta, x)

    @pytest.mark.parametrize("pre", [40.0, 800.0])
    def test_saturated_hidden_units_match_oracle(self, rng, pre):
        # hidden pre-activations at exactly +pre and -pre (x[0] = 1, gamma0 = 0)
        theta = NetworkParams(beta0=0.7, beta=rng.normal(0, 3, 4), gamma0=np.zeros(4),
                              gamma=np.array([[pre, 0.0], [-pre, 0.0],
                                              [pre, 1.0], [-pre, -1.0]]))
        x = np.column_stack([np.ones(9), np.linspace(0, 1, 9)])
        tol = 1e-12 * (1.0 + np.sum(np.abs(theta.beta)))
        scores = one_network_scores(theta, x)
        assert np.all(np.isfinite(scores))
        for row, score in zip(x, scores):
            oracle = scalar_forward_oracle(theta, row)
            assert abs(score - oracle) <= tol
            assert abs(one_network_scores(theta, row[None])[0] - oracle) <= tol
        batch = LabeledBatch(x=x, y=np.arange(9) % 2)
        assert np.isfinite(log_likelihood_many(flatten(theta)[None], batch, theta.shape)[0])


class TestKernelRows:
    """Row s of the kernel's output depends only on parameter row s."""

    SPLITS = (slice(None, 7), slice(7, 130), slice(130, None))

    def test_uneven_row_splits_are_byte_identical(self, rng):
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (37, 2)), y=rng.integers(0, 2, 37))
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        for fn, args in ((scores_many, (batch.x, BENCH_SHAPE)),
                         (log_joint_many, (batch, prior, BENCH_SHAPE))):
            whole = fn(thetas, *args)
            parts = np.concatenate([fn(thetas[rows], *args) for rows in self.SPLITS])
            assert parts.tobytes() == whole.tobytes()
            for i in (0, 6, 7, 199):
                assert fn(thetas[i : i + 1], *args).tobytes() == whole[i : i + 1].tobytes()

    def test_likelihood_blocks_do_not_show(self, rng):
        # at n=2000 the likelihood scores 43 rows per block, so S=200 spans
        # five; unblocked, the same float32 factors give the same bytes
        n = 2000
        assert _BLOCK_FLOATS // (BENCH_SHAPE.k * n) == 43
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (n, 2)), y=rng.integers(0, 2, n))
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        terms = [t.astype(np.float32) for t in _score_terms(thetas, batch.x, BENCH_SHAPE)]
        z = _score_rows(terms) * (1 - 2 * batch.y).astype(np.float32)
        assert z.dtype == np.float32
        assert log_likelihood_many(thetas, batch, BENCH_SHAPE).tobytes() == (
            -softplus(z).sum(axis=1, dtype=float)).tobytes()
        for fn, args in ((log_likelihood_many, (batch, BENCH_SHAPE)),
                         (log_joint_many, (batch, prior, BENCH_SHAPE))):
            whole = fn(thetas, *args)
            parts = np.concatenate([fn(thetas[rows], *args) for rows in self.SPLITS])
            assert parts.tobytes() == whole.tobytes()
            single = np.concatenate([fn(thetas[i : i + 1], *args) for i in range(200)])
            assert single.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [200, 800, 3200])
    def test_layout_of_x_does_not_show(self, rng, n):
        # at S=200, n = 200, 800 and 3200 give one, two and eight likelihood blocks
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        wide = rng.uniform(0, 1, (n, 5))
        x = np.ascontiguousarray(wide[:, 1:4:2])
        y = rng.integers(0, 2, n)
        layouts = {"fortran": np.asfortranarray(x), "strided": wide[:, 1:4:2]}
        assert not any(v.flags.c_contiguous for v in layouts.values())
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        for fn, args in ((scores_many, lambda x: (x, BENCH_SHAPE)),
                         (log_likelihood_many, lambda x: (LabeledBatch(x, y), BENCH_SHAPE)),
                         (log_joint_many, lambda x: (LabeledBatch(x, y), prior, BENCH_SHAPE))):
            whole = fn(thetas, *args(x))
            for name, other in layouts.items():
                assert fn(thetas, *args(other)).tobytes() == whole.tobytes(), name

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_runs_the_blocks_byte_identically(self, rng, workers):
        # n=2000 and S=200 give five blocks of at most 43 rows, each written
        # into its own slice of the output; frequent thread switches would
        # expose a lost or misplaced write
        n = 2000
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (n, 2)), y=rng.integers(0, 2, n))
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        serial = log_joint_many(thetas, batch, prior, BENCH_SHAPE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                pooled = log_joint_many(thetas, batch, prior, BENCH_SHAPE, pool)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.tobytes() == serial.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_pool_blocks_run_under_the_callers_error_settings(self, rng):
        # output weights of 2e38 fit float32 (its maximum is ~3.4e38), and so
        # does the offset sum(beta)/2 = 3e38, but on saturated hidden units
        # each score is 6e38: it overflows inside the blocks, on the workers
        n = 1000
        thetas = np.zeros((200, BENCH_SHAPE.K))
        thetas[:, 1 : 1 + BENCH_SHAPE.k] = 2e38
        thetas[:, 1 + BENCH_SHAPE.k : 1 + 2 * BENCH_SHAPE.k] = 40.0
        batch = LabeledBatch(x=rng.uniform(0, 1, (n, 2)), y=rng.integers(0, 2, n))
        with pytest.raises(RuntimeWarning, match="overflow"):
            log_likelihood_many(thetas, batch, BENCH_SHAPE)
        with np.errstate(over="ignore"), ThreadPoolExecutor(2) as pool:
            out = log_likelihood_many(thetas, batch, BENCH_SHAPE, pool)
        assert np.all(np.isneginf(out))

    @pytest.mark.parametrize("n, blocks", [(436, 1), (437, 2)])
    def test_reference_fit_needs_a_second_block_past_n_436(self, rng, n, blocks):
        # S=200 rows at k=3 fit one block of _BLOCK_FLOATS float32 values up
        # to n=436; the pool is handed the block starts
        class RecordingPool:
            def map(self, fn, starts):
                self.starts = list(starts)
                return map(fn, self.starts)

        pool = RecordingPool()
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (n, 2)), y=rng.integers(0, 2, n))
        out = log_likelihood_many(thetas, batch, BENCH_SHAPE, pool)
        assert len(pool.starts) == blocks
        assert out.tobytes() == log_likelihood_many(thetas, batch, BENCH_SHAPE).tobytes()

    def test_large_batch_allocates_about_one_block(self, rng):
        # unblocked, S=200 rows at n=3200 allocated 19.6 MB
        thetas = rng.normal(0, 2, (200, BENCH_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (3200, 2)), y=rng.integers(0, 2, 3200))
        tracemalloc.start()
        try:
            log_likelihood_many(thetas, batch, BENCH_SHAPE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * _BLOCK_FLOATS * np.dtype(np.float32).itemsize

    def test_training_with_blocked_likelihood_is_thread_independent(self):
        # n=1400 scores 62 rows per block: S=64 is two blocks, of 62 and 2
        # rows, run in turn on one thread and by a pool of two or three
        batch = generate_synthetic(REFERENCE_TRUTH, 1400, seed=4)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        (q1, r1), *pooled = [train(batch, prior, BENCH_SHAPE,
                                   TrainConfig(S=64, max_iters=5, seed=7, threads=t))
                             for t in (1, 2, 3)]
        for q2, r2 in pooled:
            assert r1.elbo_trace.tobytes() == r2.elbo_trace.tobytes()
            assert q1.mean.tobytes() == q2.mean.tobytes()
            assert q1.raw_scale.tobytes() == q2.raw_scale.tobytes()


class TestPairedKernel:
    """scores pairs row r's normals with x[r] alone: k of them draw the hidden
    pre-activations from their exact marginals there, and one draws the score
    from its exact Gaussian law given the hidden units."""

    SHAPES = [TOY_SHAPE, BENCH_SHAPE, NetworkShape(p=4, k=6)]

    @staticmethod
    def moments(rng, shape, hidden_scale):
        mean = rng.normal(0, 1.5, shape.K)
        scale = rng.uniform(0.2, 1.0, shape.K)
        scale[1 + shape.k :] *= hidden_scale
        return mean, scale

    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_row_matches_scores_many_at_its_point(self, rng, shape):
        # with hidden scales near 0 the implied networks differ only in their
        # betas; at scale 1 their hidden biases carry noise too
        for hidden_scale in (1e-30, 1.0):
            mean, scale = self.moments(rng, shape, hidden_scale)
            z = rng.standard_normal((9, shape.k + 1, 31))
            x = rng.uniform(-1, 1, (9, shape.p))
            out = scores(z, score_factors(x, mean, scale, shape), slice(None))
            assert out.shape == (9, 31)
            bound = scores_bound(mean, scale, z, x, shape)
            for r in range(9):
                thetas = implied_thetas(mean, scale, z[r], x[r], shape)
                expected = scores_many(thetas, x[r : r + 1], shape)[:, 0]
                assert np.all(np.abs(out[r] - expected) <= bound[r])

    @pytest.mark.parametrize("shape", [TOY_SHAPE, BENCH_SHAPE, NetworkShape(p=5, k=8)])
    @pytest.mark.parametrize("size", [0.5, 2.0, 8.0])
    def test_float32_within_the_documented_bound_of_float64(self, rng, shape, size):
        # float32 normals, scored in float32 and in float64 (cast up, through
        # the networks they stand for)
        mean = rng.normal(0, size, shape.K)
        scale = size * rng.uniform(0.2, 1.0, shape.K)
        z = rng.standard_normal((12, shape.k + 1, 200), dtype=np.float32)
        x = rng.uniform(-2, 2, (12, shape.p))
        out = scores(z, score_factors(x, mean, scale, shape), slice(None))
        assert out.dtype == np.float32
        exact = np.stack([
            scores_many(implied_thetas(mean, scale, z[r].astype(float), x[r], shape),
                        x[r : r + 1], shape)[:, 0]
            for r in range(len(x))
        ])
        assert np.all(np.abs(out - exact) <= scores_bound(mean, scale, z, x, shape))

    def test_predictive_mean_matches_full_parameter_draws(self, rng):
        # M = 2e5 draws of both: each mean of sigmoid(score) has a standard
        # error of at most 0.5/sqrt(M); they must agree within 5 combined ones
        shape, M = BENCH_SHAPE, 200_000
        mean, scale = self.moments(rng, shape, 1.0)
        x = np.array([[0.0, 0.0], [0.2, 0.9], [1.0, 1.0], [-1.5, 0.5]])
        z = rng.standard_normal((len(x), shape.k + 1, M))
        fast = sigmoid(scores(z, score_factors(x, mean, scale, shape), slice(None)))
        full = sigmoid(scores_many(mean + scale * rng.standard_normal((M, shape.K)), x, shape)).T
        se = np.hypot(fast.std(axis=1), full.std(axis=1)) / math.sqrt(M)
        assert np.all(np.abs(fast.mean(axis=1) - full.mean(axis=1)) <= 5 * se)

    def test_row_does_not_depend_on_its_batch(self, rng):
        mean, scale = self.moments(rng, BENCH_SHAPE, 1.0)
        z = rng.standard_normal((11, 4, 13))
        x = rng.uniform(0, 1, (11, 2))
        whole = scores(z, score_factors(x, mean, scale, BENCH_SHAPE), slice(None))
        for rows in (slice(0, 1), slice(3, 4), slice(2, 9), slice(10, None)):
            part = scores(z[rows].copy(), score_factors(x[rows], mean, scale, BENCH_SHAPE),
                          slice(None))
            assert part.tobytes() == whole[rows].tobytes()

    def test_huge_finite_features_do_not_overflow(self, rng):
        mean, scale = self.moments(rng, BENCH_SHAPE, 1.0)
        x = np.array([[1e200, -1e200], [1e300, 1.0]])
        huge_out = scale.copy()
        # output-weight scales whose squares overflow float32
        huge_out[: BENCH_SHAPE.k + 1] *= 1e30
        for s in (scale, huge_out):
            with np.errstate(all="raise"):
                out = scores(rng.standard_normal((2, 4, 5)),
                             score_factors(x, mean, s, BENCH_SHAPE), slice(None))
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_its_normals_and_factors_alone(self, rng, dtype):
        # float32 normals are read in place, not copied: a write into them
        # would reach the caller's array
        mean, scale = self.moments(rng, BENCH_SHAPE, 1.0)
        z = rng.standard_normal((4, 4, 9)).astype(dtype)  # rows 2-5 of 7
        factors = score_factors(rng.uniform(-1, 1, (7, 2)), mean, scale, BENCH_SHAPE)
        before = z.tobytes(), [np.asarray(f).tobytes() for f in factors]
        scores(z, factors, slice(2, 6))
        assert (z.tobytes(), [np.asarray(f).tobytes() for f in factors]) == before

    def test_mismatched_shapes_raise(self, rng):
        mean, scale = self.moments(rng, BENCH_SHAPE, 1.0)
        z = rng.standard_normal((3, 4, 5))
        bad_inputs = (
            (z, np.zeros((3, 3)), mean, scale),               # x too wide
            (z, np.zeros((3, 1)), mean, scale),               # x too narrow
            (z, np.zeros((4, 2)), mean, scale),               # one more point than stacks
            (z[:2], np.zeros((3, 2)), mean, scale),           # one fewer stack than points
            (z[:, :3], np.zeros((3, 2)), mean, scale),        # D = k, not k+1
            (z[0], np.zeros((4, 2)), mean, scale),            # an unstacked (D, M) block
            (z, np.zeros((3, 2)), mean[:-1], scale[:-1]),     # wrong flat length
            (z, np.zeros((3, 2)), mean, scale[:-1]),          # scale of the wrong length
        )
        for bad_z, x, m, s in bad_inputs:
            with pytest.raises(ShapeMismatchError):
                scores(bad_z, score_factors(x, m, s, BENCH_SHAPE), slice(None))

    def test_x_of_another_width_names_both_widths(self, rng):
        mean, scale = self.moments(rng, BENCH_SHAPE, 1.0)
        with pytest.raises(ShapeMismatchError,
                           match=r"\(n, p=2\) matching the network input width, got \(3, 3\)"):
            scores(rng.standard_normal((3, 4, 5)),
                   score_factors(np.zeros((3, 3)), mean, scale, BENCH_SHAPE), slice(None))

    def test_empty_batch(self):
        K = BENCH_SHAPE.K
        out = scores(np.empty((0, 4, 4)),
                     score_factors(np.empty((0, 2)), np.zeros(K), np.ones(K), BENCH_SHAPE),
                     slice(None))
        assert out.shape == (0, 4)


class TestSoftplus:
    def test_stable_against_extended_precision(self):
        mpmath.mp.dps = 60
        for z in [-700.0, -50.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 50.0, 700.0]:
            exact = float(mpmath.log1p(mpmath.e ** mpmath.mpf(z)))
            assert softplus(z) == pytest.approx(exact, rel=1e-12)

    def test_no_overflow_at_extremes(self):
        with np.errstate(over="raise"):
            values = softplus(np.array([-745.0, -700.0, 700.0, 745.0]))
        assert np.all(np.isfinite(values))

    def test_every_form_is_the_formula_to_the_bit(self, rng):
        z = np.concatenate([[0.0, -0.0, 36.7, -36.7, 800.0, -800.0, 1e308, -1e308],
                            rng.standard_normal(10**5)])
        formula = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        assert softplus(z).tobytes() == formula.tobytes()
        assert softplus(z, out=z.copy()).tobytes() == formula.tobytes()
        in_place = z.copy()
        assert softplus(in_place, out=in_place) is in_place
        assert in_place.tobytes() == formula.tobytes()
        for value, expected in zip(z[:8], formula[:8]):
            scalar = softplus(value)
            assert type(scalar) is np.float64 and scalar.tobytes() == expected.tobytes()

    def test_float32_stays_float32_and_all_else_is_float64(self):
        z32 = np.array([-90.0, -1.0, 0.0, 2.5, 100.0], dtype=np.float32)
        formula = np.maximum(z32, 0) + np.log1p(np.exp(-np.abs(z32)))
        assert formula.dtype == np.float32
        assert softplus(z32).dtype == np.float32
        assert softplus(z32).tobytes() == formula.tobytes()
        assert softplus(z32, out=z32.copy()).tobytes() == formula.tobytes()
        assert type(softplus(np.float32(2.5))) is np.float32
        for z in ([-1, 0, 2], np.array([-1, 0, 2]), [-1.0, 0.0, 2.5],
                  np.array([1.0], dtype=np.float16)):
            assert softplus(z).dtype == np.float64
        for z in (3, 2.5, np.int64(3), np.float16(2.5)):
            assert type(softplus(z)) is np.float64

    @given(st.floats(min_value=-700, max_value=700))
    def test_nonnegative_and_above_identity(self, z):
        s = float(softplus(z))
        assert s >= 0.0
        assert s >= z


class TestSigmoid:
    def test_float32_stays_float32_and_all_else_is_float64(self):
        z32 = np.array([-100.0, -88.0, -1.0, 0.0, 2.5, 100.0], dtype=np.float32)
        with np.errstate(over="ignore"):
            formula = 1 / (1 + np.exp(-z32))
        assert formula.dtype == np.float32
        assert sigmoid(z32).tobytes() == formula.tobytes()
        assert type(sigmoid(np.float32(2.5))) is np.float32
        assert type(sigmoid(np.array(2.5, dtype=np.float32))) is np.float32
        for z in ([-1, 0, 2], np.array([-1, 0, 2]), [-1.0, 0.0, 2.5],
                  np.array([1.0], dtype=np.float16)):
            assert sigmoid(z).dtype == np.float64
        for z in (3, 2.5, np.int64(3), np.float16(2.5), np.array(2.5)):
            assert type(sigmoid(z)) is np.float64


class TestLikelihood:
    def test_zero_scores_give_n_log_half(self):
        # every term is float32's log 2, and four of them sum exactly in float64
        theta = NetworkParams(beta0=0.0, beta=np.zeros(1), gamma0=np.zeros(1),
                              gamma=np.zeros((1, 1)))
        batch = LabeledBatch(x=np.linspace(0, 1, 4)[:, None], y=np.array([0, 1, 1, 0]))
        assert log_likelihood_many(flatten(theta)[None], batch, theta.shape)[0] == pytest.approx(
            -4 * float(np.float32(math.log(2))), abs=1e-14
        )

    def test_saturated_score_keeps_tail_mass(self):
        # y=1 with score +50: the exact value is -log1p(e^-50), about
        # -1.93e-22; a cancelling implementation would return -0.0 instead.
        # The score is exact in float32, so only float32's exp and log1p
        # (within 2 ulps each) round the term.
        mpmath.mp.dps = 60
        exact = float(-mpmath.log1p(mpmath.e ** mpmath.mpf(-50)))
        theta = NetworkParams(beta0=50.0, beta=np.zeros(1), gamma0=np.zeros(1),
                              gamma=np.zeros((1, 1)))
        batch = LabeledBatch(x=np.array([[0.5]]), y=np.array([1]))
        got = log_likelihood_many(flatten(theta)[None], batch, theta.shape)[0]
        assert got != 0.0
        assert got == pytest.approx(exact, rel=4 * np.finfo(np.float32).eps, abs=0)

    def test_matches_per_point_probability_oracle(self, rng, random_theta):
        theta = random_theta(BENCH_SHAPE)
        batch = LabeledBatch(x=rng.uniform(0, 1, (10, 2)),
                             y=rng.integers(0, 2, 10))
        expected = 0.0
        for i in range(10):
            prob = 1.0 / (1.0 + math.exp(-scalar_forward_oracle(theta, batch.x[i])))
            expected += math.log(prob if batch.y[i] == 1 else 1.0 - prob)
        got = log_likelihood_many(flatten(theta)[None], batch, BENCH_SHAPE)[0]
        bound = float32_bound(flatten(theta), batch.x, BENCH_SHAPE)[0]
        assert got == pytest.approx(expected, rel=bound, abs=0)

    def test_empty_batch_contributes_exactly_zero(self, random_theta):
        theta = random_theta(BENCH_SHAPE)
        batch = LabeledBatch(x=np.empty((0, 2)), y=np.empty(0, dtype=int))
        assert log_likelihood_many(flatten(theta)[None], batch, BENCH_SHAPE)[0] == 0.0
        out = log_likelihood_many(np.tile(flatten(theta), (200, 1)), batch, BENCH_SHAPE)
        assert out.shape == (200,) and np.all(out == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_never_positive(self, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.normal(0, 3, (1, TOY_SHAPE.K))
        batch = LabeledBatch(x=rng.uniform(0, 1, (5, 1)), y=rng.integers(0, 2, 5))
        assert log_likelihood_many(thetas, batch, TOY_SHAPE)[0] <= 0.0

    def test_many_variant_agrees_with_scalar(self, rng, random_theta):
        # the stacked call against one call per parameter row
        thetas = np.stack([flatten(random_theta(BENCH_SHAPE)) for _ in range(5)])
        batch = LabeledBatch(x=rng.uniform(0, 1, (8, 2)), y=rng.integers(0, 2, 8))
        got = log_likelihood_many(thetas, batch, BENCH_SHAPE)
        for i in range(5):
            expected = log_likelihood_many(thetas[i : i + 1], batch, BENCH_SHAPE)[0]
            assert got[i] == pytest.approx(expected, rel=1e-12)


class TestFloat32Likelihood:
    """log_likelihood_many's documented precision: float32 blocks, float64 sums."""

    @pytest.mark.parametrize("n, blocks", [(200, 1), (800, 2), (3200, 8)])
    def test_within_the_documented_bound_of_float64(self, rng, n, blocks):
        assert math.ceil(200 / (_BLOCK_FLOATS // (BENCH_SHAPE.k * n))) == blocks
        for scale in (0.5, 2.0, 8.0):
            thetas = rng.normal(0, scale, (200, BENCH_SHAPE.K))
            batch = LabeledBatch(x=rng.uniform(-2, 2, (n, 2)), y=rng.integers(0, 2, n))
            z = scores_many(thetas, batch.x, BENCH_SHAPE) * (1 - 2 * batch.y)
            exact = -softplus(z).sum(axis=1)
            got = log_likelihood_many(thetas, batch, BENCH_SHAPE)
            assert got.dtype == np.float64
            bound = float32_bound(thetas, batch.x, BENCH_SHAPE)
            assert np.all(np.abs(got - exact) <= bound * np.abs(exact))


class TestPriorAndJoint:
    def test_standard_prior_at_origin(self):
        prior = PriorConfig.standard(13)
        theta = np.zeros(13)
        assert log_prior(theta, prior) == pytest.approx(
            -13 / 2 * math.log(2 * math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("K", [0, 2.5, True])
    def test_standard_prior_count_is_refused_by_name(self, K):
        # 0 once built an empty prior, and 2.5 or True raised numpy's TypeError
        rule = "must be >= 1" if K == 0 else f"must be an integer, got {K!r}"
        with pytest.raises(ValueError, match=rf"^K {rule}$"):
            PriorConfig.standard(K)

    def test_matches_scipy_norm_oracle(self, rng):
        mu = rng.normal(0, 1, 9)
        zeta = rng.uniform(0.5, 2.0, 9)
        prior = PriorConfig(mu=mu, zeta=zeta)
        theta = rng.normal(0, 2, 9)
        expected = stats.norm.logpdf(theta, loc=mu, scale=zeta).sum()
        assert log_prior(theta, prior) == pytest.approx(expected, rel=1e-12)

    def test_prior_is_maximized_at_its_mean(self, rng):
        prior = PriorConfig(mu=rng.normal(0, 1, 4), zeta=rng.uniform(0.5, 2, 4))
        at_mode = log_prior(prior.mu.copy(), prior)
        for _ in range(10):
            assert log_prior(prior.mu + rng.normal(0, 1, 4), prior) <= at_mode

    def test_joint_decomposes_additively(self, rng, random_theta):
        theta = random_theta(BENCH_SHAPE)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        batch = LabeledBatch(x=rng.uniform(0, 1, (6, 2)), y=rng.integers(0, 2, 6))
        thetas = flatten(theta)[None]
        lhs = log_joint_many(thetas, batch, prior, BENCH_SHAPE)[0]
        rhs = log_likelihood_many(thetas, batch, BENCH_SHAPE)[0] + log_prior(thetas[0], prior)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_joint_of_empty_batch_is_the_prior(self, random_theta):
        theta = random_theta(BENCH_SHAPE)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        batch = LabeledBatch(x=np.empty((0, 2)), y=np.empty(0, dtype=int))
        flat = flatten(theta)
        assert log_joint_many(flat[None], batch, prior, BENCH_SHAPE)[0] == pytest.approx(
            log_prior(flat, prior), rel=1e-14
        )


class TestFlattening:
    def test_flat_layout_order(self):
        # distinct values reveal the layout: beta0, beta, gamma0, Gamma rows
        shape = NetworkShape(p=2, k=2)
        theta = NetworkParams(beta0=0.0, beta=np.array([1.0, 2.0]),
                              gamma0=np.array([3.0, 4.0]),
                              gamma=np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(flatten(theta), np.arange(9.0))
        back = unflatten(np.arange(9.0), shape)
        assert back.beta0 == 0.0
        np.testing.assert_array_equal(back.gamma, [[5.0, 6.0], [7.0, 8.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    def test_round_trip_is_bit_exact(self, seed, p, k):
        shape = NetworkShape(p=p, k=k)
        flat = np.random.default_rng(seed).normal(0, 10, shape.K)
        np.testing.assert_array_equal(flatten(unflatten(flat, shape)), flat)

    def test_parameter_count(self):
        assert NetworkShape(p=1, k=1).K == 4
        assert NetworkShape(p=2, k=3).K == 13
        # the 42-feature, 10-node configuration is 441-dimensional
        assert NetworkShape(p=42, k=10).K == 441

    def test_shape_recovery_from_flat_length(self):
        for p, k in [(1, 1), (2, 3), (42, 10)]:
            shape = NetworkShape(p=p, k=k)
            assert shape_for(shape.K, p) == shape
        with pytest.raises(ShapeMismatchError):
            shape_for(5, 1)  # 5 = k*3+1 has no integer k >= 1... k= (5-1)/3 not integral
        with pytest.raises(ShapeMismatchError):
            shape_for(1, 2)

    def test_wrong_flat_length_raises(self):
        with pytest.raises(ShapeMismatchError):
            unflatten(np.zeros(5), NetworkShape(p=1, k=1))

    def test_artifact_dict_round_trip(self, random_theta):
        theta = random_theta(BENCH_SHAPE)
        doc = TrueFunction.from_network(theta).to_json_dict()
        assert set(doc) == {"shape", "flat_theta", "kind"}
        assert doc["shape"] == {"p": 2, "k": 3}
        back = TrueFunction.from_json_dict(doc).network
        np.testing.assert_array_equal(flatten(back), flatten(theta))


class TestValidation:
    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            LabeledBatch(x=np.zeros((2, 1)), y=np.array([0, 2]))
        with pytest.raises(ValueError):
            LabeledBatch(x=np.zeros((2, 1)), y=np.array([0.5, 1.0]))

    def test_empty_batch_is_legal(self):
        batch = LabeledBatch(x=np.empty((0, 3)), y=np.empty(0, dtype=int))
        assert batch.n == 0
        assert batch.p == 3

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            LabeledBatch(x=np.array([[np.nan]]), y=np.array([0]))

    def test_shape_requires_positive_dims(self):
        with pytest.raises(ShapeMismatchError):
            NetworkShape(p=0, k=1)
        with pytest.raises(ShapeMismatchError):
            NetworkShape(p=1, k=0)

    @pytest.mark.parametrize("p, k", [(2.0, 3), (2, 3.0), (2.5, 3), (True, True), (2, True),
                                      (np.int64(2), 3), ("2", 3)])
    def test_shape_sizes_must_be_plain_integers(self, p, k):
        # 2.0 once gave K == 13.0, which PriorConfig.standard could not size
        with pytest.raises(ShapeMismatchError, match=re.escape(f"got p={p!r}, k={k!r}")):
            NetworkShape(p=p, k=k)

    def test_prior_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            PriorConfig(mu=np.zeros(2), zeta=np.array([1.0, 0.0]))

    def test_sigmoid_is_bounded(self):
        # scipy's expit (libm's 1 / (1 + e^-z)) is the oracle.  numpy's SIMD
        # exp keeps sigmoid within 2 ulps of it over most of the line, and
        # within 4 just below z = -ln(2**53) ~ -36.74, where e^-z passes
        # 2**53 and 1 + e^-z rounds to an even integer.
        edges = [0.0, -0.0, 709.78, -709.78, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
        z = np.concatenate([edges, np.linspace(-37.0, -36.5, 10_001),
                            np.random.default_rng(0).uniform(-800.0, 800.0, 100_000)])
        values = sigmoid(z)
        assert np.all((values >= 0.0) & (values <= 1.0))
        ulps = np.abs(values.view(np.int64) - expit(z).view(np.int64))
        assert ulps.max() <= 4
        assert np.all(ulps[z > -36.0] <= 2) and np.all(ulps[z < -37.0] <= 2)
        assert sigmoid(0.0) == sigmoid(-0.0) == 0.5
        assert sigmoid(-745.0) == 0.0 and sigmoid(745.0) == 1.0
        assert np.isnan(sigmoid(np.nan))
