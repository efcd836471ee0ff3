"""Schedules, ELBO/gradient estimators, control variates, and the train loop."""

import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbnn.data import generate_synthetic, split
from vbnn.metrics import TrueFunction
from vbnn.model import (
    JsonFieldError,
    LabeledBatch,
    PriorConfig,
    ShapeMismatchError,
    log_joint_many,
)
from vbnn.optimizer import (
    NonFiniteGradientError,
    Schedule,
    TrainConfig,
    TrainReport,
    control_variate_coefficients,
    estimate_elbo,
    estimate_gradient,
    estimate_gradient_cv,
    report_summary,
    save_report_csv,
    step,
    train,
)
from vbnn.variational import (
    VariationalParams,
    grad_log_q_mean,
    grad_log_q_raw,
    initial_params,
    log_q,
    sample,
    softplus_inverse,
)

from conftest import BENCH_SHAPE, TOY_SHAPE
from oracles import elbo_gradient_oracle, gauss_hermite_elbo


def prior_matching(q: VariationalParams) -> PriorConfig:
    """A prior sharing q's exact mean/scale bits, so log q == log prior."""
    return PriorConfig(mu=q.mean.copy(), zeta=q.scale.copy())


def toy_problem(n=10, seed=0):
    truth = TrueFunction.linear(-2.0, [4.0])
    batch = generate_synthetic(truth, n, seed=seed)
    prior = PriorConfig.standard(TOY_SHAPE.K)
    return batch, prior


def sample_terms(q, batch, prior, shape, draws):
    """u and v matrices rebuilt from public pieces only."""
    weights = log_joint_many(draws.thetas, batch, prior, shape) - log_q(q, draws.thetas)
    v = np.concatenate([grad_log_q_mean(q, draws.thetas),
                        grad_log_q_raw(q, draws.thetas)], axis=1)
    return v * weights[:, None], v


class TestSchedule:
    def test_fixed_rate_is_constant(self):
        sched = Schedule(kind="fixed", rho=1e-3)
        assert sched.rate(0) == 1e-3
        assert sched.rate(10_000) == 1e-3

    def test_decay_values_against_extended_precision(self):
        sched = Schedule(kind="rm", rho0=1.0, b=100.0, c=0.3)
        assert sched.rate(0) == pytest.approx(0.01, abs=1e-15)
        mpmath.mp.dps = 40
        expected_99 = float(1 / (100 * mpmath.mpf(100) ** mpmath.mpf("0.3")))
        assert sched.rate(99) == pytest.approx(expected_99, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_decay_is_positive_and_decreasing(self, t):
        sched = Schedule(kind="rm", rho0=2.0, b=50.0, c=0.3)
        assert sched.rate(t) > 0
        assert sched.rate(t + 1) < sched.rate(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(kind="linear")
        with pytest.raises(ValueError):
            Schedule(kind="fixed", rho=0.0)
        with pytest.raises(ValueError):
            Schedule(kind="rm", c=1.5)

    def test_unknown_kind_is_named(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            Schedule.from_json_dict({"kind": "exponential"})

    def test_keys_of_another_kind_are_named(self):
        for doc, key in (({"kind": "fixed", "rhoo": 0.5}, "rhoo"),
                         ({"kind": "rm", "rho": 0.5}, "rho"),
                         ({"rho0": 2.0}, "rho0"),
                         ({"kind": "rm", "strict_rm": False}, "strict_rm")):
            with pytest.raises(ValueError, match=f"schedule: {key}$"):
                Schedule.from_json_dict(doc)

    def test_json_round_trip(self):
        for sched in (Schedule(kind="fixed", rho=5e-4),
                      Schedule(kind="rm", rho0=2.0, b=10.0, c=0.9)):
            assert Schedule.from_json_dict(sched.to_json_dict()) == sched
        for kind in ("fixed", "rm"):
            assert Schedule.from_json_dict({"kind": kind}) == Schedule(kind=kind)


class TestTrainConfig:
    def test_control_variates_need_two_samples(self):
        with pytest.raises(ValueError, match="control variates require S >= 2"):
            TrainConfig(S=1, use_control_variates=True)

    def test_json_round_trip_maps_algo(self):
        cfg = TrainConfig(S=33, use_control_variates=True, grad_clip=10.0, seed=9)
        doc = cfg.to_json_dict()
        assert doc["algo"] == "bbvi-cv"
        assert TrainConfig.from_json_dict(doc) == cfg
        # a missing key takes the field's default
        assert TrainConfig.from_json_dict({}) == TrainConfig()

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algo"):
            TrainConfig.from_json_dict({"algo": "sgd"})

    @pytest.mark.parametrize("clip", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_grad_clip_must_be_positive_and_finite(self, clip):
        # a NaN bound would clip every gradient coordinate to NaN
        with pytest.raises(ValueError, match="grad_clip must be a positive finite number"):
            TrainConfig(grad_clip=clip)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("doc", [{"S": 20.9}, {"seed": True}, {"max_iters": "100"},
                                     {"conv_window": 5.5}, {"threads": False}])
    def test_integer_fields_reject_non_integers(self, doc):
        with pytest.raises(JsonFieldError, match=f"key '{next(iter(doc))}' must be an integer"):
            TrainConfig.from_json_dict(doc)

    def test_schedule_must_be_an_object(self):
        with pytest.raises(JsonFieldError, match="key 'schedule' must be a JSON object"):
            TrainConfig.from_json_dict({"schedule": 5})


class TestElboEstimator:
    def test_exactly_zero_when_q_is_the_prior_and_no_data(self):
        # weights are log prior - log q computed by the same code path, so
        # every sample contributes exactly 0.0
        batch = LabeledBatch(x=np.empty((0, 1)), y=np.empty(0, dtype=int))
        q = initial_params(TOY_SHAPE.K)
        prior = prior_matching(q)
        for S in (1, 7, 100):
            draws = sample(q, S, seed=S)
            assert estimate_elbo(q, batch, prior, draws) == 0.0

    def test_deterministic_given_draws(self):
        batch, prior = toy_problem()
        q = initial_params(TOY_SHAPE.K)
        draws = sample(q, 64, seed=5)
        assert estimate_elbo(q, batch, prior, draws) == estimate_elbo(
            q, batch, prior, draws
        )

    def test_threading_does_not_change_the_estimate(self):
        batch, prior = toy_problem(n=30)
        q = initial_params(TOY_SHAPE.K)
        draws = sample(q, 500, seed=11)
        assert estimate_elbo(q, batch, prior, draws, threads=1) == estimate_elbo(
            q, batch, prior, draws, threads=4
        )

    def test_matches_quadrature_oracle(self):
        batch, prior = toy_problem(n=8)
        q = VariationalParams(
            mean=np.array([0.3, -0.2, 0.1, 0.4]),
            raw_scale=softplus_inverse(np.array([0.8, 0.6, 0.9, 0.7])),
        )
        # oracle is internally consistent across node counts
        o16 = gauss_hermite_elbo(q.mean, q.scale, batch, prior, TOY_SHAPE, nodes=16)
        o22 = gauss_hermite_elbo(q.mean, q.scale, batch, prior, TOY_SHAPE, nodes=22)
        assert o16 == pytest.approx(o22, abs=1e-9)

        draws = sample(q, 200_000, seed=3)
        weights = log_joint_many(draws.thetas, batch, prior, TOY_SHAPE) - log_q(
            q, draws.thetas
        )
        se = weights.std(ddof=1) / math.sqrt(draws.S)
        assert abs(float(weights.mean()) - o22) < 5 * se
        assert estimate_elbo(q, batch, prior, draws) == pytest.approx(
            float(weights.mean()), rel=1e-12
        )


class TestGradientEstimator:
    def test_exact_zero_vector_when_q_is_the_prior_and_no_data(self):
        batch = LabeledBatch(x=np.empty((0, 1)), y=np.empty(0, dtype=int))
        q = initial_params(TOY_SHAPE.K)
        prior = prior_matching(q)
        draws = sample(q, 50, seed=2)
        np.testing.assert_array_equal(
            estimate_gradient(q, batch, prior, draws), np.zeros(2 * TOY_SHAPE.K)
        )

    def test_deterministic_and_thread_invariant(self):
        batch, prior = toy_problem(n=20)
        q = initial_params(TOY_SHAPE.K)
        draws = sample(q, 400, seed=7)
        g1 = estimate_gradient(q, batch, prior, draws, threads=1)
        g4 = estimate_gradient(q, batch, prior, draws, threads=4)
        np.testing.assert_array_equal(g1, g4)

    def test_mean_over_replicates_matches_quadrature_gradient(self):
        batch, prior = toy_problem(n=6)
        q = VariationalParams(
            mean=np.array([0.2, -0.3, 0.15, 0.05]),
            raw_scale=softplus_inverse(np.full(4, 0.7)),
        )
        oracle = elbo_gradient_oracle(q.mean, q.raw_scale, batch, prior, TOY_SHAPE,
                                      nodes=16)
        reps = np.stack([
            estimate_gradient(q, batch, prior, sample(q, 500, seed=1000 + i))
            for i in range(50)
        ])
        se = reps.std(axis=0, ddof=1) / math.sqrt(reps.shape[0])
        assert np.all(np.abs(reps.mean(axis=0) - oracle) < 6 * se)


class TestControlVariates:
    def test_exact_coefficient_for_proportional_streams(self, rng):
        v = rng.normal(0, 1, (200, 5))
        a = control_variate_coefficients(3.0 * v, v)
        np.testing.assert_allclose(a, np.full(5, 3.0), rtol=1e-12)

    def test_degenerate_coordinate_gets_zero(self, rng):
        v = rng.normal(0, 1, (100, 3))
        v[:, 1] = 2.5  # constant control variate: nothing to regress on
        u = rng.normal(0, 1, (100, 3))
        a = control_variate_coefficients(u, v)
        assert a[1] == 0.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            control_variate_coefficients(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_in_sample_variance_never_increases(self, rng):
        batch, prior = toy_problem(n=15)
        q = initial_params(TOY_SHAPE.K)
        draws = sample(q, 300, seed=21)
        u, v = sample_terms(q, batch, prior, TOY_SHAPE, draws)
        a = control_variate_coefficients(u, v)
        before = u.var(axis=0, ddof=1)
        after = (u - a * v).var(axis=0, ddof=1)
        assert np.all(after <= before * (1 + 1e-12) + 1e-18)

    def test_cv_and_plain_estimate_the_same_quantity(self):
        batch, prior = toy_problem(n=10)
        q = initial_params(TOY_SHAPE.K)
        plain = np.stack([
            estimate_gradient(q, batch, prior, sample(q, 400, seed=2000 + i))
            for i in range(40)
        ])
        withcv = np.stack([
            estimate_gradient_cv(q, batch, prior, sample(q, 400, seed=5000 + i))
            for i in range(40)
        ])
        se = np.sqrt(plain.var(axis=0, ddof=1) / 40 + withcv.var(axis=0, ddof=1) / 40)
        assert np.all(np.abs(plain.mean(0) - withcv.mean(0)) < 6 * se)


class TestStep:
    def test_zero_gradient_keeps_parameters_bitwise(self):
        q = initial_params(4)
        q2 = step(q, np.zeros(8), t=0, schedule=Schedule())
        np.testing.assert_array_equal(q2.mean, q.mean)
        np.testing.assert_array_equal(q2.raw_scale, q.raw_scale)

    def test_unit_gradient_moves_mean_by_exactly_the_rate(self):
        q = VariationalParams(mean=np.zeros(3), raw_scale=np.zeros(3))
        q2 = step(q, np.ones(6), t=0, schedule=Schedule(kind="fixed", rho=0.001))
        assert np.all(q2.mean == 0.001)
        assert np.all(q2.raw_scale == 0.001)

    def test_nonfinite_gradient_carries_iteration_index(self):
        q = initial_params(2)
        bad = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteGradientError) as err:
            step(q, bad, t=17, schedule=Schedule())
        assert err.value.iteration == 17
        assert "iteration 17" in str(err.value)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            step(initial_params(3), np.zeros(5), t=0, schedule=Schedule())


def bench_batch(n=250, seed=0):
    from vbnn.data import REFERENCE_TRUTH

    return generate_synthetic(REFERENCE_TRUTH, n, seed=seed)


class TestTrain:
    def test_no_data_converges_at_first_checkable_iteration(self):
        batch = LabeledBatch(x=np.empty((0, 1)), y=np.empty(0, dtype=int))
        prior = PriorConfig.standard(TOY_SHAPE.K)
        cfg = TrainConfig(S=30, conv_window=5, max_iters=100, seed=1)
        q, report = train(batch, prior, TOY_SHAPE, cfg)
        assert report.converged
        # two full windows are needed before the rule can fire
        assert report.iterations_run == 10
        assert np.all(np.abs(report.elbo_trace) < 1e-10)

    def test_bit_identical_across_runs_and_thread_counts(self):
        batch = bench_batch(n=80)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        base = dict(S=300, max_iters=12, conv_window=5, seed=42,
                    schedule=Schedule(kind="fixed", rho=0.005))
        runs = [train(batch, prior, BENCH_SHAPE, TrainConfig(threads=t, **base))
                for t in (1, 1, 4)]
        for q, report in runs[1:]:
            np.testing.assert_array_equal(q.mean, runs[0][0].mean)
            np.testing.assert_array_equal(q.raw_scale, runs[0][0].raw_scale)
            np.testing.assert_array_equal(report.elbo_trace, runs[0][1].elbo_trace)
            np.testing.assert_array_equal(report.grad_var_trace,
                                          runs[0][1].grad_var_trace)

    def test_byte_identical_for_one_two_and_three_threads(self):
        # at n=150 the likelihood scores all S=200 rows in one block, which
        # runs whole whatever the thread count; that must never show in the
        # results
        batch = bench_batch(n=150)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        base = dict(S=200, max_iters=20, seed=11, use_control_variates=True,
                    grad_clip=10.0, schedule=Schedule(kind="rm", rho0=1.0, b=100.0, c=0.3))
        runs = [train(batch, prior, BENCH_SHAPE, TrainConfig(threads=t, **base))
                for t in (1, 2, 3)]
        for q, report in runs[1:]:
            assert report.elbo_trace.tobytes() == runs[0][1].elbo_trace.tobytes()
            assert q.mean.tobytes() == runs[0][0].mean.tobytes()
            assert q.raw_scale.tobytes() == runs[0][0].raw_scale.tobytes()

    @pytest.mark.parametrize("use_cv", [False, True])
    def test_train_is_a_loop_over_the_public_estimators(self, use_cv):
        # train and the estimate_* functions share one per-iteration path:
        # a hand loop over the public pieces reproduces train byte for byte
        batch = bench_batch(n=120)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        cfg = TrainConfig(S=64, max_iters=5, grad_clip=10.0, seed=9,
                          use_control_variates=use_cv)
        q_train, report = train(batch, prior, BENCH_SHAPE, cfg)
        estimate = estimate_gradient_cv if use_cv else estimate_gradient
        q, elbos = initial_params(BENCH_SHAPE.K), []
        for t in range(cfg.max_iters):
            draws = sample(q, cfg.S, np.random.SeedSequence(9, spawn_key=(1, t)))
            elbos.append(estimate_elbo(q, batch, prior, draws))
            grad = np.clip(estimate(q, batch, prior, draws), -10.0, 10.0)
            q = step(q, grad, t, cfg.schedule)
        assert report.elbo_trace.tobytes() == np.asarray(elbos).tobytes()
        assert q_train.mean.tobytes() == q.mean.tobytes()
        assert q_train.raw_scale.tobytes() == q.raw_scale.tobytes()

    def test_learns_the_benchmark(self):
        from vbnn.prediction import PredictiveConfig, test_accuracy
        from vbnn.variational import Posterior

        batch = bench_batch(n=250)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        cfg = TrainConfig(S=200, schedule=Schedule(kind="fixed", rho=0.01),
                          use_control_variates=True, grad_clip=10.0,
                          max_iters=1500, seed=3)
        q, report = train(batch, prior, BENCH_SHAPE, cfg)
        assert report.converged
        # the ELBO moving average must have improved substantially
        first = report.elbo_trace[:50].mean()
        last = report.elbo_trace[-50:].mean()
        assert last > first + 10
        majority = max(batch.y.mean(), 1 - batch.y.mean())
        acc = test_accuracy(Posterior(BENCH_SHAPE, q, prior), batch,
                            PredictiveConfig(M=300, seed=0))
        assert acc > majority + 0.05

    def test_divergence_is_reported_with_iteration(self):
        # an absurd rate overflows the parameters within a few iterations;
        # the run must flag divergence and hand back a finite iterate with
        # clean (truncated) traces
        batch = bench_batch(n=60)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        cfg = TrainConfig(S=50, schedule=Schedule(kind="fixed", rho=1e60),
                          max_iters=50, seed=0)
        q, report = train(batch, prior, BENCH_SHAPE, cfg)
        assert report.diverged
        assert not report.converged
        assert report.diverged_at is not None
        assert report.iterations_run in (report.diverged_at, report.diverged_at + 1)
        assert np.all(np.isfinite(report.elbo_trace))
        assert np.all(np.isfinite(q.mean)) and np.all(np.isfinite(q.raw_scale))

    def test_blown_up_elbo_is_not_converged(self):
        # the held-out part of fold 1 of a 3-fold split of the README's
        # training data, at a fixed rate of 0.01: the ELBO falls from -247 to
        # about -3.7e44 and stalls there, so successive window means differ by
        # far less than 1e-4 of their size; a relative test alone stopped this
        # fit as converged at iteration 404
        batch = split(bench_batch(n=800, seed=1000), 3, 0)[1][1]
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        cfg = TrainConfig(S=20, schedule=Schedule(kind="fixed", rho=0.01),
                          max_iters=500, seed=0)
        _, report = train(batch, prior, BENCH_SHAPE, cfg)
        assert report.elbo_trace[-1] < -1e40
        assert not report.diverged
        assert not report.converged
        assert report.iterations_run == 500

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_is_silent_on_worker_threads(self):
        # train suppresses overflow warnings while it detects divergence;
        # the log-joint blocks evaluated on pool threads must honour that too
        batch = bench_batch(n=60)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        cfg = TrainConfig(S=50, schedule=Schedule(kind="fixed", rho=1e60),
                          max_iters=50, seed=0, threads=2)
        _, report = train(batch, prior, BENCH_SHAPE, cfg)
        assert report.diverged

    def test_clipping_caps_the_first_step(self):
        batch = bench_batch(n=100)
        prior = PriorConfig.standard(BENCH_SHAPE.K)
        rho = 0.01
        base = dict(S=100, max_iters=1, seed=5,
                    schedule=Schedule(kind="fixed", rho=rho))
        q0 = initial_params(BENCH_SHAPE.K)
        q_clip, _ = train(batch, prior, BENCH_SHAPE,
                          TrainConfig(grad_clip=0.5, **base))
        q_free, _ = train(batch, prior, BENCH_SHAPE, TrainConfig(**base))
        assert np.max(np.abs(q_clip.mean - q0.mean)) <= rho * 0.5 + 1e-15
        assert np.max(np.abs(q_free.mean - q0.mean)) > rho * 0.5

    def test_shape_mismatches_rejected(self):
        batch = bench_batch(n=10)
        with pytest.raises(ShapeMismatchError, match="batch width 2 .* p=1"):
            train(batch, PriorConfig.standard(TOY_SHAPE.K), TOY_SHAPE, TrainConfig())
        with pytest.raises(ShapeMismatchError, match="prior length 5 .* K=13"):
            train(batch, PriorConfig.standard(5), BENCH_SHAPE, TrainConfig())


class TestReport:
    def test_trace_lengths_are_enforced(self):
        with pytest.raises(ValueError):
            TrainReport(elbo_trace=np.zeros(3), grad_var_trace=np.zeros(2),
                        rho_trace=np.zeros(3), converged=True, wall_time=0.1)

    def test_csv_round_trips_full_precision(self, tmp_path):
        report = TrainReport(
            elbo_trace=np.array([-1.234567890123456789, -0.5]),
            grad_var_trace=np.array([3.3333333333333335e2, 1e-17]),
            rho_trace=np.array([0.01, 0.009]),
            converged=False, wall_time=1.0,
        )
        path = tmp_path / "report.csv"
        save_report_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iteration"] for r in rows] == ["0", "1"]
        assert float(rows[0]["elbo"]) == report.elbo_trace[0]
        assert float(rows[1]["grad_var"]) == report.grad_var_trace[1]
        assert float(rows[0]["rho_t"]) == 0.01

    def test_summary_fields(self):
        report = TrainReport(elbo_trace=np.array([-2.0, -1.0]),
                             grad_var_trace=np.array([4.0, 2.0]),
                             rho_trace=np.array([0.1, 0.1]),
                             converged=True, wall_time=0.5)
        doc = report_summary(report)
        assert doc["iterations_run"] == 2
        assert doc["final_elbo"] == -1.0
        assert doc["mean_grad_var"] == 3.0
        assert doc["converged"] is True
        assert doc["diverged"] is False

    def test_diverged_follows_diverged_at(self):
        traces = {name: np.zeros(3) for name in ("elbo_trace", "grad_var_trace", "rho_trace")}
        report = TrainReport(**traces, converged=False, wall_time=0.1, diverged_at=3)
        assert report.diverged and report.iterations_run == 3
        assert report_summary(report)["diverged_at"] == 3
