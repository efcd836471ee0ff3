"""Mean-field family: sampling, densities, and score-function gradients.

Gradient oracles are central finite differences of log_q; the density oracle
is scipy.stats.norm; the normalization check integrates exp(log_q) with
scipy.integrate.quad; the raw-scale chain rule uses scipy.special.expit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import expit

from vbnn.model import (
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    sigmoid,
    softplus,
)
from vbnn.variational import (
    SCALE_FLOOR,
    Posterior,
    SampleMatrix,
    VariationalParams,
    grad_log_q_mean,
    grad_log_q_raw,
    grad_log_q_scale,
    initial_params,
    log_q,
    sample,
    softplus_inverse,
)

from oracles import fd_gradient


def random_q(rng, K, scale_range=(0.2, 2.0)) -> VariationalParams:
    scales = rng.uniform(*scale_range, K)
    return VariationalParams(mean=rng.normal(0, 2, K),
                             raw_scale=softplus_inverse(scales))


class TestSoftplusInverse:
    def test_round_trips_through_softplus(self):
        for s in [1e-6, 1e-3, 0.5, 1.0, 5.0, 100.0]:
            assert float(softplus(softplus_inverse(s))) == pytest.approx(s, rel=1e-12)

    def test_known_value_at_one(self):
        assert float(softplus_inverse(1.0)) == pytest.approx(math.log(math.e - 1),
                                                             rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softplus_inverse(0.0)

    @given(st.floats(min_value=1e-8, max_value=1e8))
    def test_round_trip_property(self, s):
        assert float(softplus(softplus_inverse(s))) == pytest.approx(s, rel=1e-10)


class TestInitialization:
    def test_defaults_are_standard(self):
        q = initial_params(5)
        np.testing.assert_array_equal(q.mean, np.zeros(5))
        np.testing.assert_allclose(q.scale, np.ones(5), rtol=1e-15)

    @pytest.mark.parametrize("K", [0, 2.5, True])
    def test_count_is_refused_by_name(self, K):
        # 0 once built an empty q, and 2.5 or True raised numpy's TypeError
        rule = "must be >= 1" if K == 0 else f"must be an integer, got {K!r}"
        with pytest.raises(ValueError, match=rf"^K {rule}$"):
            initial_params(K)

    def test_scale_positivity_survives_extreme_raw_values(self):
        # softplus underflows to 0.0 below r ~ -745; the scale property must
        # still be strictly positive for every finite r.
        q = VariationalParams(mean=np.zeros(3),
                              raw_scale=np.array([-1e6, -800.0, 700.0]))
        assert np.all(q.scale > 0.0)

    @given(st.floats(min_value=-1e300, max_value=700, allow_nan=False))
    def test_scale_always_positive(self, r):
        q = VariationalParams(mean=np.zeros(1), raw_scale=np.array([r]))
        assert q.scale[0] > 0.0


class TestSampling:
    def test_same_seed_is_bit_identical(self, rng):
        q = random_q(rng, 6)
        a = sample(q, 100, 1234)
        b = sample(q, 100, 1234)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.thetas.shape == (100, 6)

    def test_degenerate_scale_collapses_to_mean(self, rng):
        q = VariationalParams(mean=rng.normal(0, 1, 4),
                              raw_scale=np.full(4, -40.0))
        draws = sample(q, 50, 0)
        np.testing.assert_allclose(draws.thetas, np.broadcast_to(q.mean, (50, 4)),
                                   atol=1e-15)

    def test_large_sample_moments(self):
        q = VariationalParams(mean=np.array([1.5]),
                              raw_scale=softplus_inverse(np.array([0.7])))
        draws = sample(q, 100_000, 7)
        se_mean = 0.7 / math.sqrt(100_000)
        assert abs(draws.thetas.mean() - 1.5) < 5 * se_mean
        assert abs(draws.thetas.std() - 0.7) < 0.01

    def test_sample_count_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            sample(random_q(rng, 2), 0, 1)
        with pytest.raises(ValueError):
            SampleMatrix(thetas=np.empty((0, 2)))

    @pytest.mark.parametrize("field, value", [("S", 2.5), ("S", True), ("seed", 2.5),
                                              ("seed", True), ("seed", -1)])
    def test_non_integer_count_is_refused_by_name(self, rng, field, value):
        # a seed of True once drew exactly seed 1's draws
        counts = {"S": 3, "seed": 1, field: value}
        rule = "must be >= 0" if value == -1 else f"must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=rf"^{field} {rule}$"):
            sample(random_q(rng, 2), **counts)


class TestLogDensity:
    def test_matches_scipy_oracle(self, rng):
        for _ in range(20):
            q = random_q(rng, 5)
            theta = rng.normal(0, 2, 5)
            expected = stats.norm.logpdf(theta, loc=q.mean, scale=q.scale).sum()
            assert log_q(q, theta) == pytest.approx(expected, rel=1e-12)

    def test_stacked_rows_match_scalar_calls(self, rng):
        q = random_q(rng, 3)
        thetas = rng.normal(0, 1, (8, 3))
        got = log_q(q, thetas)
        for i in range(8):
            assert got[i] == pytest.approx(log_q(q, thetas[i]), rel=1e-14)

    def test_standard_normal_value(self):
        q = initial_params(1)
        assert log_q(q, np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12
        )

    def test_density_integrates_to_one(self):
        q = VariationalParams(mean=np.array([0.4]),
                              raw_scale=softplus_inverse(np.array([1.3])))
        total, _ = integrate.quad(
            lambda t: math.exp(log_q(q, np.array([t]))), 0.4 - 15 * 1.3, 0.4 + 15 * 1.3
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestGradients:
    def test_mean_gradient_zero_at_the_mean(self, rng):
        q = random_q(rng, 4)
        np.testing.assert_array_equal(grad_log_q_mean(q, q.mean.copy()),
                                      np.zeros(4))

    def test_mean_gradient_finite_differences(self, rng):
        for _ in range(5):
            q = random_q(rng, 4)
            theta = rng.normal(0, 1, 4)
            fd = fd_gradient(lambda m: log_q(VariationalParams(m, q.raw_scale), theta),
                             q.mean, h=1e-6)
            np.testing.assert_allclose(grad_log_q_mean(q, theta), fd, atol=1e-6)

    def test_scale_gradient_vanishes_one_sd_out(self, rng):
        # (theta-m)^2/s^3 - 1/s = 0 exactly when theta = m +/- s
        q = random_q(rng, 3)
        theta = q.mean + q.scale
        np.testing.assert_allclose(grad_log_q_scale(q, theta), np.zeros(3),
                                   atol=1e-12)

    def test_scale_gradient_at_the_mean_is_minus_one_over_s(self, rng):
        q = random_q(rng, 3)
        np.testing.assert_allclose(grad_log_q_scale(q, q.mean.copy()),
                                   -1.0 / q.scale, rtol=1e-12)

    def test_scale_gradient_finite_differences(self, rng):
        for _ in range(5):
            q = random_q(rng, 4)
            theta = rng.normal(0, 1, 4)
            s0 = q.scale

            def log_q_at_scale(s):
                return log_q(VariationalParams(q.mean, softplus_inverse(s)), theta)

            fd = fd_gradient(log_q_at_scale, s0, h=1e-6)
            np.testing.assert_allclose(grad_log_q_scale(q, theta), fd, atol=1e-6)

    def test_raw_gradient_finite_differences(self, rng):
        for _ in range(5):
            q = random_q(rng, 4)
            theta = rng.normal(0, 1, 4)
            fd = fd_gradient(lambda r: log_q(VariationalParams(q.mean, r), theta),
                             q.raw_scale, h=1e-6)
            np.testing.assert_allclose(grad_log_q_raw(q, theta), fd, atol=1e-6)

    def test_raw_gradient_is_chain_rule_of_scale_gradient(self, rng):
        # sigmoid(r) is model.sigmoid, within 4 ulps of libm's form (expit), so
        # the product is within 5 float64 epsilons of the chain rule through
        # expit, and exactly 0 below r ~ -709.78, where e^-r overflows.
        sweep = np.concatenate([[0.0, -0.0, -709.78, -709.79, -745.0, -800.0, 40.0],
                                rng.uniform(-800.0, 40.0, 1000),
                                rng.uniform(-40.0, 40.0, 1000)])
        cases = [random_q(rng, 5),
                 VariationalParams(mean=rng.normal(0, 1, sweep.size), raw_scale=sweep)]
        for q in cases:
            theta = rng.normal(0, 1, q.K)
            np.testing.assert_allclose(
                grad_log_q_raw(q, theta),
                expit(q.raw_scale) * grad_log_q_scale(q, theta),
                rtol=5 * np.finfo(float).eps, atol=0,
            )

    def test_collapsed_scale_stays_finite(self):
        # s = softplus(-40) ~ 4e-18 is floored at SCALE_FLOOR inside the
        # gradient, so the -1/s term is tamed to -1/SCALE_FLOOR and then
        # multiplied by sigmoid(-40) ~ 4e-18.
        q = VariationalParams(mean=np.zeros(2), raw_scale=np.full(2, -40.0))
        g = grad_log_q_raw(q, np.zeros(2))
        assert np.all(np.isfinite(g))
        expected = float(sigmoid(-40.0)) * (-1.0 / SCALE_FLOOR)
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_gradients_broadcast_over_sample_rows(self, rng):
        q = random_q(rng, 3)
        thetas = rng.normal(0, 1, (6, 3))
        stacked = grad_log_q_mean(q, thetas)
        for i in range(6):
            np.testing.assert_array_equal(stacked[i], grad_log_q_mean(q, thetas[i]))


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            VariationalParams(mean=np.zeros(3), raw_scale=np.zeros(2))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            VariationalParams(mean=np.array([np.inf]), raw_scale=np.zeros(1))

    def test_json_round_trip(self, rng):
        q = random_q(rng, 4)
        back = VariationalParams.from_json_dict(q.to_json_dict())
        np.testing.assert_array_equal(back.mean, q.mean)
        np.testing.assert_array_equal(back.raw_scale, q.raw_scale)


class TestPosterior:
    SHAPE = NetworkShape(p=2, k=3)  # K = 13

    def test_json_round_trip(self, rng):
        post = Posterior(self.SHAPE, random_q(rng, 13),
                         PriorConfig(mu=rng.normal(0, 1, 13), zeta=rng.uniform(1, 2, 13)))
        doc = post.to_json_dict()
        assert list(doc) == ["shape", "prior", "variational"]
        back = Posterior.from_json_dict(doc)
        assert back.shape == post.shape
        np.testing.assert_array_equal(back.q.mean, post.q.mean)
        np.testing.assert_array_equal(back.q.raw_scale, post.q.raw_scale)
        np.testing.assert_array_equal(back.prior.mu, post.prior.mu)
        np.testing.assert_array_equal(back.prior.zeta, post.prior.zeta)

    @pytest.mark.parametrize("q_len, prior_len", [(9, 13), (13, 9), (9, 9)])
    def test_lengths_must_match_the_shape(self, rng, q_len, prior_len):
        with pytest.raises(ShapeMismatchError, match=f"q has {q_len} and the prior {prior_len}"):
            Posterior(self.SHAPE, random_q(rng, q_len), PriorConfig.standard(prior_len))

    @pytest.mark.parametrize("shape", [{"p": 2.9, "k": 3}, {"p": 2, "k": True},
                                       {"p": "2", "k": 3}])
    def test_shape_must_hold_integers(self, rng, shape):
        doc = Posterior(self.SHAPE, random_q(rng, 13), PriorConfig.standard(13)).to_json_dict()
        with pytest.raises(ValueError, match="must be an integer"):
            Posterior.from_json_dict({**doc, "shape": shape})
