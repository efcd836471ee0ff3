"""Acceptance gate: nine quantitative claims the package must satisfy.

Each test prints one `[criterion N] PASS/FAIL` line (visible under
``pytest -s`` or in captured output on failure) and enforces both the
numerical tolerance and the runtime budget of its claim.  One more test
holds the committed ``scripts/consistency_table.csv`` to criteria 6-7's fits.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from vbnn.data import REFERENCE_TRUTH, generate_synthetic
from vbnn.metrics import (
    IntegrationConfig,
    TrueFunction,
    hellinger_distance,
    kl_distance,
)
from vbnn.model import (
    LabeledBatch,
    NetworkShape,
    PriorConfig,
    log_joint_many,
)
from vbnn.optimizer import (
    Schedule,
    TrainConfig,
    control_variate_coefficients,
    estimate_gradient,
    estimate_gradient_cv,
    train,
)
from vbnn.variational import (
    VariationalParams,
    grad_log_q_mean,
    grad_log_q_raw,
    grad_log_q_scale,
    log_q,
    sample,
    softplus_inverse,
)

from conftest import BENCH_SHAPE, TOY_SHAPE
from oracles import elbo_gradient_oracle

ROOT = Path(__file__).resolve().parents[1]


def report(num: int, ok: bool, detail: str, capsys=None) -> None:
    """Print the criterion verdict, bypassing capture so it is always visible."""
    line = f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. analytic gradients of log q vs central finite differences


def test_criterion_1_gradient_correctness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 21))
        m = rng.normal(0.0, 2.0, K)
        s = rng.uniform(0.1, 3.0, K)
        q = VariationalParams(mean=m, raw_scale=softplus_inverse(s))
        theta = m + s * rng.standard_normal(K)

        got = {
            "mean": grad_log_q_mean(q, theta),
            "scale": grad_log_q_scale(q, theta),
            "raw": grad_log_q_raw(q, theta),
        }
        for j in range(K):
            e = np.zeros(K)
            e[j] = h

            fd_mean = (
                log_q(VariationalParams(mean=m + e, raw_scale=q.raw_scale), theta)
                - log_q(VariationalParams(mean=m - e, raw_scale=q.raw_scale), theta)
            ) / (2 * h)
            fd_scale = (
                log_q(VariationalParams(mean=m, raw_scale=softplus_inverse(s + e)), theta)
                - log_q(VariationalParams(mean=m, raw_scale=softplus_inverse(s - e)), theta)
            ) / (2 * h)
            fd_raw = (
                log_q(VariationalParams(mean=m, raw_scale=q.raw_scale + e), theta)
                - log_q(VariationalParams(mean=m, raw_scale=q.raw_scale - e), theta)
            ) / (2 * h)

            worst = max(
                worst,
                abs(got["mean"][j] - fd_mean),
                abs(got["scale"][j] - fd_scale),
                abs(got["raw"][j] - fd_raw),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-6 and elapsed < 1.0,
        f"max |analytic - FD| = {worst:.2e} over 100 random (q, theta) pairs "
        f"in {elapsed:.2f}s (limits 1e-6, 1s)",
        capsys=capsys,
    )


# ---------------------------------------------------------------------------
# 2. the score has mean zero under its own distribution


def test_criterion_2_score_identity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    S = 100_000
    worst_sigma = 0.0
    for trial in range(20):
        K = int(rng.integers(1, 6))
        q = VariationalParams(
            mean=rng.normal(0.0, 1.0, K),
            raw_scale=softplus_inverse(rng.uniform(0.3, 2.0, K)),
        )
        draws = sample(q, S, seed=trial)
        for grad in (grad_log_q_mean(q, draws.thetas),
                     grad_log_q_raw(q, draws.thetas)):
            se = grad.std(axis=0, ddof=1) / math.sqrt(S)
            worst_sigma = max(worst_sigma, float(np.max(np.abs(grad.mean(axis=0)) / se)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_sigma <= 5.0 and elapsed < 5.0,
        f"max |mean score| = {worst_sigma:.2f} standard errors across 20 random q "
        f"in {elapsed:.2f}s (limits 5 se, 5s)",
        capsys=capsys,
    )


# ---------------------------------------------------------------------------
# 3. gradient estimators are unbiased for the quadrature ELBO gradient


def test_criterion_3_estimator_unbiasedness(capsys):
    start = time.perf_counter()
    shape = TOY_SHAPE
    batch = generate_synthetic(TrueFunction.linear(-1.0, [2.0]), 10, seed=5)
    prior = PriorConfig.standard(shape.K)
    q = VariationalParams(
        mean=np.array([0.3, -0.2, 0.1, 0.4]),
        raw_scale=softplus_inverse(np.array([0.8, 1.2, 0.6, 1.0])),
    )
    oracle = elbo_gradient_oracle(q.mean, q.raw_scale, batch, prior, shape,
                                  h=1e-5, nodes=20)

    reps = 200
    details = []
    ok = True
    for name, estimator, seed0 in (
        ("plain", estimate_gradient, 3000),
        ("cv", estimate_gradient_cv, 4000),
    ):
        estimates = np.array([
            estimator(q, batch, prior, sample(q, 1000, seed=seed0 + rep))
            for rep in range(reps)
        ])
        se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
        sigma = float(np.max(np.abs(estimates.mean(axis=0) - oracle) / se))
        details.append(f"{name} max dev {sigma:.2f} se")
        ok = ok and sigma <= 5.0
    elapsed = time.perf_counter() - start
    report(
        3,
        ok and elapsed < 60.0,
        f"{'; '.join(details)} vs quadrature gradient (200 reps, S=1000) "
        f"in {elapsed:.1f}s (limits 5 se, 60s)",
        capsys=capsys,
    )


# ---------------------------------------------------------------------------
# 4. control variates reduce gradient variance


def test_criterion_4_cv_variance_reduction(capsys):
    start = time.perf_counter()
    shape = BENCH_SHAPE
    prior = PriorConfig.standard(shape.K)
    batch = generate_synthetic(REFERENCE_TRUTH, 300, seed=11)

    # a fixed mid-training state: 100 plain iterations, window too wide to stop
    q_mid, _ = train(batch, prior, shape, TrainConfig(
        S=200, schedule=Schedule(kind="fixed", rho=0.01), use_control_variates=False,
        grad_clip=10.0, max_iters=100, conv_window=60, seed=0,
    ))

    draws = sample(q_mid, 200, seed=77)
    weights = log_joint_many(draws.thetas, batch, prior, shape) - log_q(q_mid, draws.thetas)
    v = np.concatenate([grad_log_q_mean(q_mid, draws.thetas),
                        grad_log_q_raw(q_mid, draws.thetas)], axis=1)
    u = v * weights[:, None]
    contrib = u - control_variate_coefficients(u, v) * v
    var_plain = u.var(axis=0, ddof=1)
    var_cv = contrib.var(axis=0, ddof=1)
    exact_ok = bool(np.all(var_cv <= var_plain * (1 + 1e-12) + 1e-300))

    base = TrainConfig(max_iters=300)
    ratios = []
    paired_ok = True
    for seed in (0, 1, 2):
        _, rep_plain = train(batch, prior, shape,
                             replace(base, seed=seed, use_control_variates=False))
        _, rep_cv = train(batch, prior, shape,
                          replace(base, seed=seed, use_control_variates=True))
        mean_plain = float(rep_plain.grad_var_trace.mean())
        mean_cv = float(rep_cv.grad_var_trace.mean())
        paired_ok = paired_ok and mean_cv < mean_plain
        ratios.append(mean_cv / mean_plain)
    elapsed = time.perf_counter() - start
    report(
        4,
        exact_ok and paired_ok and elapsed < 300.0,
        f"in-sample variance reduced on all {2 * shape.K} coordinates; "
        f"paired-run trace-mean ratios (cv/plain) = "
        f"{', '.join(f'{r:.3f}' for r in ratios)} in {elapsed:.1f}s (limit 5min)",
        capsys=capsys,
    )


# ---------------------------------------------------------------------------
# 5. distance metrics against closed forms


def test_criterion_5_metric_oracles(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    cfg = IntegrationConfig(n_mc=4000, seed=1)
    ok = True
    details = []

    # closed-form Bernoulli values on constant-logit pairs
    worst = 0.0
    for _ in range(10):
        za, zb = rng.uniform(-4, 4, 2)
        pa, pb = expit(za), expit(zb)
        bc = math.sqrt(pa * pb) + math.sqrt((1 - pa) * (1 - pb))
        h_true = math.sqrt(max(0.0, 1.0 - bc))
        kl_true = pa * math.log(pa / pb) + (1 - pa) * math.log((1 - pa) / (1 - pb))
        a, b = TrueFunction.constant(za, p=2), TrueFunction.constant(zb, p=2)
        h_est = hellinger_distance(a, b, cfg)
        k_est = kl_distance(a, b, cfg)
        worst = max(worst,
                    abs(h_est.value - h_true) - 3 * h_est.stderr,
                    abs(k_est.value - kl_true) - 3 * k_est.stderr)
    ok = ok and worst <= 1e-12
    details.append(f"closed-form excess {worst:.1e}")

    # identical arguments are exactly zero
    eta = TrueFunction.constant(0.7, p=2)
    zeros_ok = (hellinger_distance(eta, eta, cfg).value == 0.0
                and kl_distance(eta, eta, cfg).value == 0.0)
    ok = ok and zeros_ok
    details.append(f"d(a,a)=0 exactly: {zeros_ok}")

    # d_H^2 <= d_KL / 2 on 50 random pairs (constants and networks)
    def random_eta():
        if rng.random() < 0.5:
            return TrueFunction.constant(float(rng.uniform(-4, 4)), p=2)
        from conftest import BENCH_SHAPE
        from vbnn.model import NetworkParams
        return TrueFunction.from_network(NetworkParams(
            beta0=float(rng.normal(0, 2)),
            beta=rng.normal(0, 2, BENCH_SHAPE.k),
            gamma0=rng.normal(0, 2, BENCH_SHAPE.k),
            gamma=rng.normal(0, 2, (BENCH_SHAPE.k, BENCH_SHAPE.p)),
        ))

    worst_ineq = -np.inf
    for _ in range(50):
        a, b = random_eta(), random_eta()
        h_est = hellinger_distance(a, b, cfg)
        k_est = kl_distance(a, b, cfg)
        slack = h_est.value**2 - k_est.value / 2 - 3 * (h_est.stderr + k_est.stderr)
        worst_ineq = max(worst_ineq, slack)
    ok = ok and worst_ineq <= 1e-12
    details.append(f"dH^2 - dKL/2 worst slack {worst_ineq:.1e}")

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(5, ok, "; ".join(details) + f" in {elapsed:.1f}s (limit 30s)",
           capsys=capsys)


# ---------------------------------------------------------------------------
# 6 + 7. posterior consistency trend and the excess-risk bound


@pytest.fixture(scope="module")
def consistency_runs():
    """Fifteen full training runs: n in {200, 800, 3200} x 5 seeds each, the
    fits that scripts/consistency_trend.py states."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "scripts"))
        from consistency_trend import run_study

    start = time.perf_counter()
    results = run_study()
    return {"results": results, "elapsed": time.perf_counter() - start}


def test_criterion_6_consistency_trend(consistency_runs, capsys):
    results = consistency_runs["results"]
    elapsed = consistency_runs["elapsed"]
    medians = {
        n: float(np.median([r["hellinger"] for r in results if r["n"] == n]))
        for n in (200, 800, 3200)
    }
    gaps_3200 = [r["risk_gap"] for r in results if r["n"] == 3200]
    ok = (
        medians[200] > medians[800] > medians[3200]
        and max(gaps_3200) < 0.05
        and not any(r["diverged"] for r in results)
        and elapsed < 900.0
    )
    report(
        6,
        ok,
        f"median Hellinger {medians[200]:.3f} -> {medians[800]:.3f} -> "
        f"{medians[3200]:.3f} (strictly decreasing), max risk gap at n=3200 "
        f"= {max(gaps_3200):.4f} < 0.05, 15 runs in {elapsed:.0f}s (limit 15min)",
        capsys=capsys,
    )


def test_criterion_7_risk_bound_inequality(consistency_runs, capsys):
    results = consistency_runs["results"]
    worst = -np.inf
    for r in results:
        slack = r["risk_gap"] - r["risk_bound"] - 3 * (
            r["risk_gap_stderr"] + r["risk_bound_stderr"]
        )
        worst = max(worst, slack)
    report(
        7,
        worst <= 0.0,
        f"gap <= 2 E|p0 - p_hat| + 3 se on all {len(results)} evaluated models "
        f"(worst slack {worst:.2e})",
        capsys=capsys,
    )


def test_consistency_table_is_the_fixtures_rows(consistency_runs, tmp_path):
    # scripts/walkthrough_hashes.txt's first line names the build that wrote the table
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "scripts"))
        from consistency_trend import write_rows
        from walkthrough_hashes import build_statement
    recorded = (ROOT / "scripts" / "walkthrough_hashes.txt").read_text().splitlines()[0]
    if recorded != f"scripts/consistency_table.csv: {build_statement()}":
        pytest.skip(f"this run's build is not the table's: {build_statement()!r}, {recorded!r}")
    write_rows(str(tmp_path / "table.csv"), consistency_runs["results"])
    # line by line, so that a failure names the first row that moved
    table = (ROOT / "scripts" / "consistency_table.csv").read_bytes()
    written = (tmp_path / "table.csv").read_bytes()
    assert written.splitlines(keepends=True) == table.splitlines(keepends=True)


# ---------------------------------------------------------------------------
# 8. training artifacts are byte-reproducible, independent of thread count, on
# one host and one numpy build (another SIMD level may round differently)


def test_criterion_8_determinism(tmp_path, capsys):
    from vbnn.cli import main

    data = tmp_path / "train.csv"
    assert main(["synth", "--n", "80", "--seed", "21", "--out", str(data)]) == 0

    def run(tag, threads):
        out = tmp_path / tag
        code = main([
            "train", "--data", str(data), "--out", str(out),
            "--S", "300", "--max-iters", "15", "--k", "3", "--seed", "7",
            "--lr", "0.01", "--threads", str(threads),
        ])
        assert code in (0, 2)
        return ((out / "model.json").read_bytes(), (out / "report.csv").read_bytes())

    first = run("a", 1)
    repeat_ok = run("b", 1) == first
    threads_ok = run("c", 8) == first
    report(
        8,
        repeat_ok and threads_ok,
        f"model.json and report.csv byte-identical on repeat ({repeat_ok}) "
        f"and for --threads 1 vs 8 ({threads_ok})",
        capsys=capsys,
    )


# ---------------------------------------------------------------------------
# 9. decaying schedule constants


def test_criterion_9_schedule_reproduction(capsys):
    sched = Schedule(kind="rm", rho0=1.0, b=100.0, c=0.3)
    rho_0 = sched.rate(0)
    rho_99 = sched.rate(99)
    expected_99 = 1.0 / (100.0 * 100.0**0.3)
    ok = abs(rho_0 - 0.01) <= 1e-12 and abs(rho_99 - expected_99) <= 1e-12
    report(
        9,
        ok,
        f"rho_0 = {rho_0!r} (expect 0.01), rho_99 = {rho_99!r} "
        f"(expect {expected_99!r}), both within 1e-12",
        capsys=capsys,
    )
