"""Distance metrics, Bayes risk and excess-risk bounds.

Oracles: constant score functions admit closed-form Hellinger/KL values
(the integrand is constant over the cube); low-dimensional cases are
cross-checked with scipy quadrature.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from vbnn.data import REFERENCE_TRUTH, generate_synthetic
from vbnn.metrics import (
    IntegrationConfig,
    TrueFunction,
    diagnostics_dict,
    draw_points,
    hellinger_distance,
    kl_distance,
)
from vbnn.model import (
    NetworkParams,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    flatten,
    scores_many,
)
from vbnn.prediction import PredictiveConfig
from vbnn.variational import Posterior, VariationalParams, initial_params

from conftest import BENCH_SHAPE


def constant_eta(z: float, p: int = 2) -> TrueFunction:
    return TrueFunction.constant(z, p=p)


def hellinger_of_constants(za: float, zb: float) -> float:
    """Closed form: the integrand does not depend on x."""
    pa, pb = expit(za), expit(zb)
    bc = math.sqrt(pa * pb) + math.sqrt((1 - pa) * (1 - pb))
    return math.sqrt(max(0.0, 1.0 - bc))


def kl_of_constants(za: float, zb: float) -> float:
    pa = expit(za)
    pb = expit(zb)
    return pa * math.log(pa / pb) + (1 - pa) * math.log((1 - pa) / (1 - pb))


class TestTrueFunction:
    def test_constant_everywhere(self, rng):
        eta = constant_eta(1.25)
        x = rng.uniform(0, 1, (7, 2))
        np.testing.assert_array_equal(eta(x), np.full(7, 1.25))

    def test_linear_is_affine(self):
        eta = TrueFunction.linear(-2.0, [4.0])
        x = np.array([[0.0], [0.5], [1.0]])
        np.testing.assert_allclose(eta(x), [-2.0, 0.0, 2.0])

    def test_network_matches_direct_forward(self, rng, random_theta):
        params = random_theta(BENCH_SHAPE)
        eta = TrueFunction.from_network(params)
        x = rng.uniform(0, 1, (9, 2))
        np.testing.assert_array_equal(
            eta(x), scores_many(flatten(params)[None], x, params.shape)[0]
        )

    def test_json_round_trip(self, random_theta):
        for eta, keys in (
            (constant_eta(0.3), ["kind", "p", "value"]),
            (TrueFunction.linear(1.0, [2.0, -1.0]), ["kind", "intercept", "weights"]),
            (TrueFunction.from_network(random_theta(BENCH_SHAPE)),
             ["shape", "flat_theta", "kind"]),
        ):
            doc = eta.to_json_dict()
            assert list(doc) == keys
            back = TrueFunction.from_json_dict(doc)
            assert back.to_json_dict() == doc
            x = np.array([[0.2, 0.7]])
            np.testing.assert_array_equal(eta(x), back(x))

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TrueFunction.from_json_dict({"kind": "cubic", "p": 2})


class TestDrawPoints:
    def test_seeded_and_in_unit_cube(self):
        cfg = IntegrationConfig(n_mc=500, seed=11)
        a = draw_points(cfg, p=3)
        b = draw_points(cfg, p=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (500, 3)
        assert np.all((a >= 0) & (a < 1))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_points_are_not_the_data_of_an_equal_seed(self, seed):
        # `diagnose --seed 0` once integrated over `synth --seed 0`'s x, row for row
        x = draw_points(IntegrationConfig(n_mc=300, seed=seed), p=2)
        data_x = generate_synthetic(REFERENCE_TRUTH, 300, seed=seed).x
        assert not np.any((x[:, None, :] == data_x[None, :, :]).all(axis=2))

    def test_points_are_the_documented_stream(self):
        stream = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(4,)))
        np.testing.assert_array_equal(draw_points(IntegrationConfig(n_mc=500, seed=11), p=3),
                                      stream.random((500, 3)))

    def test_n_mc_floor(self):
        with pytest.raises(ValueError):
            IntegrationConfig(n_mc=1)

    @pytest.mark.parametrize("field, value", [("n_mc", 2.5), ("seed", 1.5)])
    def test_non_integer_field_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            IntegrationConfig(**{field: value})


class TestHellinger:
    def test_identical_constants_give_exact_zero(self):
        est = hellinger_distance(constant_eta(0.7), constant_eta(0.7),
                                 IntegrationConfig(n_mc=100, seed=0))
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_identical_networks_give_exact_zero(self, random_theta):
        eta = TrueFunction.from_network(random_theta(BENCH_SHAPE))
        est = hellinger_distance(eta, eta, IntegrationConfig(n_mc=200, seed=3))
        assert est.value == 0.0

    def test_opposite_saturation_approaches_one(self):
        est = hellinger_distance(constant_eta(50.0), constant_eta(-50.0),
                                 IntegrationConfig(n_mc=100, seed=0))
        assert est.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("za,zb", [(0.0, 1.0), (-2.0, 0.5), (3.0, 3.5)])
    def test_constant_pair_matches_closed_form(self, za, zb):
        cfg = IntegrationConfig(n_mc=5000, seed=1)
        est = hellinger_distance(constant_eta(za), constant_eta(zb), cfg)
        # constant integrand: the MC average is exact up to rounding
        assert est.value == pytest.approx(hellinger_of_constants(za, zb),
                                          abs=3 * est.stderr + 1e-12)

    def test_symmetric_in_arguments(self, random_theta):
        a = TrueFunction.from_network(random_theta(BENCH_SHAPE))
        b = constant_eta(0.4)
        cfg = IntegrationConfig(n_mc=1000, seed=5)
        assert hellinger_distance(a, b, cfg).value == hellinger_distance(b, a, cfg).value

    def test_truths_of_two_widths_name_both_widths(self):
        with pytest.raises(ShapeMismatchError, match=r"\(n, p=3\) for this truth, got \(100, 2\)"):
            hellinger_distance(constant_eta(0.0, p=2), constant_eta(0.0, p=3),
                               IntegrationConfig(n_mc=100, seed=0))

    def test_bounded_in_unit_interval(self, rng, random_theta):
        cfg = IntegrationConfig(n_mc=400, seed=8)
        for _ in range(5):
            a = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=3.0))
            b = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=3.0))
            est = hellinger_distance(a, b, cfg)
            assert 0.0 <= est.value <= 1.0


class TestKl:
    def test_identical_scores_exactly_zero(self, random_theta):
        eta = TrueFunction.from_network(random_theta(BENCH_SHAPE))
        est = kl_distance(eta, eta, IntegrationConfig(n_mc=300, seed=2))
        assert est.value == 0.0

    def test_constant_pair_matches_closed_form(self):
        cfg = IntegrationConfig(n_mc=2000, seed=4)
        est = kl_distance(constant_eta(-1.0), constant_eta(0.5), cfg)
        assert est.value == pytest.approx(kl_of_constants(-1.0, 0.5),
                                          abs=3 * est.stderr + 1e-12)

    def test_asymmetric(self):
        cfg = IntegrationConfig(n_mc=1000, seed=6)
        ab = kl_distance(constant_eta(-2.0), constant_eta(1.0), cfg).value
        ba = kl_distance(constant_eta(1.0), constant_eta(-2.0), cfg).value
        assert ab != ba

    def test_nonnegative_across_random_pairs(self, random_theta):
        cfg = IntegrationConfig(n_mc=500, seed=7)
        for _ in range(5):
            a = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=2.0))
            b = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=2.0))
            assert kl_distance(a, b, cfg).value >= -1e-12

    def test_squared_hellinger_below_half_kl(self, random_theta):
        # d_H^2 <= d_KL / 2 for Bernoulli families; allow MC noise
        cfg = IntegrationConfig(n_mc=2000, seed=9)
        for _ in range(10):
            a = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=2.0))
            b = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=2.0))
            h = hellinger_distance(a, b, cfg)
            k = kl_distance(a, b, cfg)
            assert h.value**2 <= k.value / 2 + 3 * (h.stderr + k.stderr) + 1e-12


class TestBayesRisk:
    """``diagnostics_dict``'s Bayes risk E_X[min(p0, 1 - p0)], which does
    not depend on the posterior."""

    @staticmethod
    def bayes_risk(eta: TrueFunction, cfg: IntegrationConfig) -> float:
        shape = NetworkShape(p=eta.p, k=1)
        post = Posterior(shape, initial_params(shape.K), PriorConfig.standard(shape.K))
        return diagnostics_dict(post, eta, PredictiveConfig(M=1, seed=0), cfg)["bayes_risk"]

    def test_coin_flip_truth_is_half(self):
        assert self.bayes_risk(constant_eta(0.0), IntegrationConfig(n_mc=100, seed=0)) == 0.5

    def test_separable_truth_is_zero(self):
        assert self.bayes_risk(constant_eta(50.0), IntegrationConfig(n_mc=100, seed=0)) <= 1e-10

    def test_linear_truth_matches_quadrature(self):
        eta = TrueFunction.linear(-2.0, [4.0])
        # E[min(p, 1-p)] over U(0,1)
        expected, _ = integrate.quad(
            lambda x: min(expit(-2 + 4 * x), 1 - expit(-2 + 4 * x)), 0, 1
        )
        cfg = IntegrationConfig(n_mc=200_000, seed=3)
        p0 = expit(eta(draw_points(cfg, eta.p)))
        stderr = np.minimum(p0, 1 - p0).std(ddof=1) / math.sqrt(cfg.n_mc)
        assert self.bayes_risk(eta, cfg) == pytest.approx(expected, abs=4 * stderr)


def trained_like_q(params: NetworkParams, spread: float = 1e-3) -> Posterior:
    flat = flatten(params)
    from vbnn.variational import softplus_inverse

    q = VariationalParams(mean=flat, raw_scale=softplus_inverse(np.full(len(flat), spread)))
    return Posterior(params.shape, q, PriorConfig.standard(len(flat)))


class TestRiskGap:
    """The risk gap and its bound, as ``diagnostics_dict`` reports them."""

    def test_model_equal_to_truth_has_negligible_gap(self, random_theta):
        params = random_theta(BENCH_SHAPE)
        eta = TrueFunction.from_network(params)
        q = trained_like_q(params, spread=1e-6)
        res = diagnostics_dict(q, eta, PredictiveConfig(M=50, seed=0),
                               IntegrationConfig(n_mc=500, seed=1))
        assert res["risk_gap"] <= 1e-12
        assert res["risk_bound"] <= 1e-6

    def test_sign_flipped_model_pays_twice_the_margin(self, random_theta):
        # classifying with -eta0 errs exactly where Bayes succeeds:
        # R(anti) - R(Bayes) = E|1 - 2 p0| evaluated pathwise = 1 - 2 R(Bayes)
        params = random_theta(BENCH_SHAPE, scale=2.0)
        anti = NetworkParams(beta0=-params.beta0, beta=-params.beta,
                             gamma0=params.gamma0, gamma=params.gamma)
        eta = TrueFunction.from_network(params)
        q = trained_like_q(anti, spread=1e-6)
        icfg = IntegrationConfig(n_mc=2000, seed=2)
        res = diagnostics_dict(q, eta, PredictiveConfig(M=400, seed=0), icfg)
        assert res["risk_gap"] == pytest.approx(1.0 - 2.0 * res["bayes_risk"], abs=1e-3)

    def test_gap_never_exceeds_bound(self, random_theta):
        for trial in range(5):
            truth = TrueFunction.from_network(random_theta(BENCH_SHAPE, scale=2.0))
            q = trained_like_q(random_theta(BENCH_SHAPE, scale=2.0), spread=0.3)
            res = diagnostics_dict(q, truth, PredictiveConfig(M=60, seed=trial),
                                   IntegrationConfig(n_mc=800, seed=trial))
            assert res["risk_gap"] <= res["risk_bound"] + 1e-15
            assert res["risk_gap"] >= 0.0


class TestDiagnosticsDict:
    def test_keys_and_consistency(self, random_theta):
        params = random_theta(BENCH_SHAPE)
        truth = TrueFunction.from_network(params)
        q = trained_like_q(params, spread=0.05)
        doc = diagnostics_dict(q, truth, PredictiveConfig(M=30, seed=2),
                               IntegrationConfig(n_mc=400, seed=5))
        assert set(doc) == {
            "hellinger", "hellinger_stderr", "kl", "kl_stderr", "bayes_risk",
            "risk_gap", "risk_gap_stderr", "risk_bound", "risk_bound_stderr",
            "n_mc", "seed",
        }
        assert doc["n_mc"] == 400 and doc["seed"] == 5
        assert 0.0 <= doc["hellinger"] <= 1.0
        assert doc["risk_gap"] <= doc["risk_bound"] + 1e-15

    def test_truth_of_another_width_names_both_widths(self, random_theta):
        # a p=1 truth against a p=2 posterior
        post = trained_like_q(random_theta(BENCH_SHAPE))
        with pytest.raises(ShapeMismatchError, match="truth has p=1 .* takes p=2"):
            diagnostics_dict(post, constant_eta(0.0, p=1), PredictiveConfig(M=10, seed=0),
                             IntegrationConfig(n_mc=50, seed=0))
