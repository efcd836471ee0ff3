"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

Every workload takes the path a user takes - make the inputs, fit, predict,
diagnose - so every end-to-end metric is measured on every workload.  The
workloads differ in which stage dominates and at what size (README.md gives
the reasons).  All of them use the reference configuration: the reference
truth, p=2, k=3, S=200, bbvi-cv, rm(rho0=1, b=100, c=0.3), grad_clip=10.

The program only ever receives generated inputs: batches for ``train``, and
CSV / model files for the in-process ``vbnn predict`` / ``vbnn diagnose``.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import vbnn.cli
import vbnn.metrics
import vbnn.optimizer
from vbnn.data import REFERENCE_TRUTH, default_schema, generate_synthetic, write_csv
from vbnn.model import NetworkShape, PriorConfig, flatten, log_joint_many, scores_many
from vbnn.optimizer import (
    Schedule,
    TrainConfig,
    control_variate_coefficients,
    estimate_elbo,
    estimate_gradient_cv,
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

from spans import Tracer, median_ms, recorded_calls

SHAPE = NetworkShape(p=2, k=3)
S = 200
SCHEDULE = Schedule(kind="rm", rho0=1.0, b=100.0, c=0.3)
GRAD_CLIP = 10.0
M = 200
# Scale of every coordinate of the serving posterior, centred on the truth's
# own weights: close enough that the diagnose distances are small but
# non-zero.  Serving cost does not depend on the posterior's values, so every
# workload serves this seed-independent posterior rather than a fit: its
# diagnose output then has a reference value at every seed, and serving can
# run before, between and after the fits.
SERVE_POSTERIOR_SCALE = 0.25

# Setup and predict/diagnose are repeated and their medians reported.  The
# repetitions are split into windows before, between and after the fits, so
# that they sample the whole run: the host's speed swings by up to +-30% over
# seconds to tens of seconds, and samples taken back to back share one swing.
# Setup, predict and diagnose calls are short enough to run within one of
# those swings, so each is timed between two runs of a fixed probe and
# reported at the speed at which the probe takes PROBE_REFERENCE_S (its median
# on the idle host the benchmark was written on).  Two probes around a fit of
# many seconds would say little about its whole length, so a fit is cut into
# segments of about PROBE_SEGMENT_S, with a probe between segments.
PROBE_REFERENCE_S = 0.022
PROBE_ROWS = 300
PROBE_SEGMENT_S = 1.0
SETUP_MIN_REPS = 6    # setups per run, at least, and for at least
SETUP_SECONDS = 1.0   # this long in total
MIN_ROUNDS = 6        # predict/diagnose pairs per run, at least, and for
SERVE_SECONDS = 4.0   # at least this long in total
REPLAY_MIN = 5        # replayed training iterations per traced run, at least
REPLAY_SECONDS = 2.0
# The public functions `train` calls through vbnn.optimizer's names; a traced
# fit records every call of them, and the loop's own time is the rest.
TRAIN_CALLS = ("sample", "log_joint_many", "log_q", "grad_log_q_mean", "grad_log_q_raw",
               "control_variate_coefficients", "step")
FRESH_ELBO_BATCHES = 10

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# name -> unit of every metric the benchmark prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "ms_per_iter": "ms",
    "predict_s": "s",
    "diagnose_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "model.log_joint_many_ms": "ms",
    "model.scores_many_ms": "ms",
    "model.scores_many_gflops": "GFLOP/s",
    "model.scores_many_flops": "flop",
    "model.scores_many_bytes": "B",
    "variational.sample_ms": "ms",
    "variational.log_q_ms": "ms",
    "variational.grad_log_q_ms": "ms",
    "optimizer.estimate_gradient_cv_ms": "ms",
    "optimizer.control_variate_coefficients_ms": "ms",
    "optimizer.step_ms": "ms",
    "optimizer.loop_self_ms": "ms",
    "optimizer.iterations": "count",
    "optimizer.converged": "count",
    "optimizer.thread_speedup": "ratio",
    "optimizer.thread_efficiency": "ratio",
    "prediction.predictive_probabilities_ms": "ms",
    "prediction.save_predictions_csv_ms": "ms",
    "metrics.draw_points_ms": "ms",
    "metrics.truth_eval_ms": "ms",
    "metrics.diagnostics_dict_ms": "ms",
    "metrics.self_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.write_csv_ms": "ms",
    "data.generate_synthetic_ms": "ms",
    "cli.predict_self_ms": "ms",
    "cli.diagnose_self_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Spec:
    """Sizes and expectations of one workload."""

    name: str
    n_train: int            # rows of each training set
    fits: int               # train calls per run, each on its own dataset
    threads: int            # for train, predict and diagnose
    max_iters: int
    expect_converged: bool  # otherwise every fit must run exactly max_iters
    reference_fit: bool     # one fit, of the reference problem whatever the seed
    n_serve: int            # rows of the CSV given to `vbnn predict`
    n_mc: int               # integration points of `vbnn diagnose`
    prefix_iters: int       # ELBO prefix compared between threads=1 and threads


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("fit-n800", n_train=800, fits=1, threads=1, max_iters=2000,
             expect_converged=True, reference_fit=True, n_serve=800, n_mc=800, prefix_iters=0),
        Spec("fit-n3200-t2", n_train=3200, fits=1, threads=2, max_iters=150,
             expect_converged=False, reference_fit=False, n_serve=3200, n_mc=3200, prefix_iters=8),
        Spec("predict-diagnose-20k", n_train=200, fits=5, threads=1, max_iters=100,
             expect_converged=False, reference_fit=False, n_serve=20_000, n_mc=20_000, prefix_iters=0),
    )
}


def smoke_spec(spec: Spec) -> Spec:
    """The same workload at sizes that run in about a second."""
    return replace(spec, n_train=60, fits=1, max_iters=4, expect_converged=False,
                   n_serve=40, n_mc=40, prefix_iters=min(spec.prefix_iters, 2))


# ---------------------------------------------------------------------------
# computed kernel counts

def scores_many_flops(S: int, n: int, k: int, p: int) -> int:
    """Floating-point operations of ``scores_many`` (computed, not counted).

    x.Gamma^T is 2p per hidden unit, the bias add 1, the logistic 4 (negate,
    exp, add, divide), the output dot product 2; plus one add per score.
    """
    return S * n * (k * (2 * p + 7) + 1)


def scores_many_bytes(S: int, n: int, k: int, p: int) -> int:
    """Bytes ``scores_many`` moves (computed from array sizes, float64).

    One pass per NumPy operation: the (S, n, k) array is written by the
    first einsum, read and written by the bias add and by the logistic, and
    read by the output einsum (6 passes); the (S, n) scores are written and
    then read and written by the output bias add (3 passes); the inputs x
    and thetas are read once.  Cache reuse is ignored.
    """
    K = k * (p + 2) + 1
    return 8 * (n * p + S * K + 6 * S * n * k + 3 * S * n)


def kernel_working_set_bytes(S: int, n: int, k: int) -> int:
    """Size of one (S, n, k) float64 temporary of ``scores_many``."""
    return 8 * S * n * k


# ---------------------------------------------------------------------------
# a run

class Checks:
    """Operations and correctness checks of one run; failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _seed_plan(spec: Spec, seed: int) -> dict:
    # Fit j of run seed s trains on dataset seed 1000 + fits*s + j with
    # training seed fits*s + j, so no two run seeds share a dataset.  A
    # reference-fit workload makes its single fit the first of these at seed 0
    # (`vbnn synth --seed 1000`, `vbnn train --seed 0`) at every seed:
    # iterations to convergence differ by about 30% between seeds, because
    # the window test stops at a random time once the ELBO trend is flat, and
    # that alone would swamp any bound on time to solution.  The serving CSV
    # follows `vbnn synth --seed 2000`.
    if spec.reference_fit:
        train = [(1000, 0)]
    else:
        first = spec.fits * seed
        train = [(1000 + first + j, first + j) for j in range(spec.fits)]
    return {
        "train": train,
        "serve_data": 2000 + seed,
        "serve_seed": seed,
    }


def _train_config(train_seed: int, threads: int, max_iters: int) -> TrainConfig:
    return TrainConfig(S=S, schedule=SCHEDULE, use_control_variates=True,
                       grad_clip=GRAD_CLIP, seed=train_seed, threads=threads,
                       max_iters=max_iters)


def _write_model(path: Path, q: VariationalParams, config: TrainConfig) -> None:
    """A model file in the layout `vbnn train` writes."""
    prior = PriorConfig.standard(SHAPE.K)
    config_echo = config.to_json_dict()
    config_echo.pop("threads")
    doc = {
        "shape": {"p": SHAPE.p, "k": SHAPE.k},
        "prior": {"mu": prior.mu.tolist(), "zeta": prior.zeta.tolist()},
        "variational": q.to_json_dict(),
        "config": config_echo,
        "seed": config.seed,
        "schema": default_schema(SHAPE.p).to_json_dict(),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def serve_posterior() -> VariationalParams:
    mean = flatten(REFERENCE_TRUTH.network)
    raw = np.full(SHAPE.K, float(softplus_inverse(SERVE_POSTERIOR_SCALE)))
    return VariationalParams(mean=mean, raw_scale=raw)


def _setup(spec: Spec, plan: dict, work: Path, tracer: Tracer):
    """Make the run's inputs: training batches in memory, serving files on disk."""
    with tracer.span("setup"):
        batches = [
            tracer.call("data.generate_synthetic", generate_synthetic,
                        REFERENCE_TRUTH, spec.n_train, data_seed)
            for data_seed, _ in plan["train"]
        ]
        serve = tracer.call("data.generate_synthetic", generate_synthetic,
                            REFERENCE_TRUTH, spec.n_serve, plan["serve_data"])
        tracer.call("data.write_csv", write_csv, serve, work / "serve.csv",
                    default_schema(SHAPE.p))
        _write_model(work / "model.json", serve_posterior(),
                     _train_config(plan["serve_seed"], 1, spec.max_iters))
    return batches


class Fit(NamedTuple):
    q: VariationalParams
    report: object
    wall: float        # seconds in train (probes left out)
    normalized: float  # probe-normalized seconds; traced fits are not probed
    end: float         # time.perf_counter() when train returned
    calls: list        # (name, start, end) of each TRAIN_CALLS call; traced fits only


def _fit(batch, train_seed: int, threads: int, max_iters: int, traced: bool = False) -> Fit:
    """One train call: probed when untraced, its public calls recorded when traced."""
    config = _train_config(train_seed, threads, max_iters)
    args = (batch, PriorConfig.standard(SHAPE.K), SHAPE, config)
    if not traced:
        # every iteration starts with a `sample` call: a segment may end there
        (q, report), wall, normalized = probed(train, *args,
                                               split_at=(vbnn.optimizer, "sample"))
        return Fit(q, report, wall, normalized, time.perf_counter(), [])
    with recorded_calls(vbnn.optimizer, TRAIN_CALLS) as calls:
        start = time.perf_counter()
        q, report = train(*args)
        end = time.perf_counter()
    return Fit(q, report, end - start, math.nan, end, calls)


def loop_self_seconds(fit: Fit) -> list[float]:
    """Per iteration of a traced fit: its seconds outside every recorded call.

    Iteration t runs from the start of its ``sample`` call to the start of the
    next one (the last, to the return of ``train``).  Overlapping calls, such
    as the thread pool's concurrent ``log_joint_many`` chunks, count once, so
    what is left includes building the pool.
    """
    starts = sorted(start for name, start, _ in fit.calls if name == "sample")
    ends = starts[1:] + [fit.end]
    covered = [0.0] * len(starts)
    reach = -math.inf  # end of the union of the calls seen so far
    for _, start, end in sorted(fit.calls, key=lambda call: call[1]):
        start = max(start, reach)
        if end > start:
            covered[bisect.bisect_right(starts, start) - 1] += end - start
        reach = max(reach, end)
    return [end - start - c for start, end, c in zip(starts, ends, covered)]


def _cli(tracer: Tracer, root: str, argv: list[str]) -> int:
    with tracer.span(root):
        return vbnn.cli.main(argv)


def _check_fit(checks: Checks, spec: Spec, label: str, fit: Fit, batch, train_seed: int) -> float:
    """Check one fit; returns its final-window mean ELBO."""
    q, report = fit.q, fit.report
    checks.check(f"{label} did not diverge", not report.diverged,
                 f"diverged at iteration {report.diverged_at}")
    if spec.expect_converged:
        checks.check(f"{label} converged", report.converged,
                     f"stopped after {report.iterations_run} iterations")
    else:
        checks.check(f"{label} ran its iteration budget",
                     report.iterations_run == spec.max_iters,
                     f"{report.iterations_run} of {spec.max_iters} iterations")
    w = min(50, report.iterations_run)
    window = report.elbo_trace[-w:]
    if not report.converged:
        if report.iterations_run >= 2 * w:
            checks.check(f"{label} raised the ELBO",
                         window.mean() > report.elbo_trace[:w].mean())
        return float(window.mean())
    # A converged fit's final ELBO window must agree with an independent
    # estimate at the returned posterior, made from draws the fit never used.
    prior = PriorConfig.standard(SHAPE.K)
    fresh = np.array([
        estimate_elbo(q, batch, prior, sample(
            q, S, np.random.SeedSequence(entropy=train_seed, spawn_key=(2, b))))
        for b in range(FRESH_ELBO_BATCHES)
    ])
    se = math.hypot(np.std(window, ddof=1) / math.sqrt(w),
                    np.std(fresh, ddof=1) / math.sqrt(fresh.size))
    gap = abs(float(window.mean()) - float(fresh.mean()))
    # 5 standard errors, plus 0.5 nats for the posterior still moving
    # within the window
    checks.check(f"{label} final ELBO window matches a fresh estimate",
                 gap <= 5.0 * se + 0.5,
                 f"window mean {window.mean():.4f}, fresh {fresh.mean():.4f}")
    return float(window.mean())


def _check_predictions(checks: Checks, spec: Spec, path: Path) -> bytes:
    data = path.read_bytes()
    rows = list(csv.reader(data.decode().splitlines()))
    probs = np.array([float(r[1]) for r in rows[1:]])
    labels = np.array([int(r[2]) for r in rows[1:]])
    checks.check("predict wrote one row per input row",
                 rows[0] == ["row_id", "p_hat", "label_hat"] and probs.size == spec.n_serve,
                 f"{probs.size} rows")
    checks.check("predictive probabilities are finite and in [0, 1]",
                 bool(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))))
    checks.check("predicted labels threshold p_hat at 0.5",
                 bool(np.array_equal(labels, (probs >= 0.5).astype(int))))
    return data


def _check_diagnosis(checks: Checks, spec: Spec, path: Path) -> bytes:
    data = path.read_bytes()
    doc = json.loads(data)
    values = [v for v in doc.values() if isinstance(v, float)]
    checks.check("diagnose values are finite", all(math.isfinite(v) for v in values))
    checks.check("hellinger lies in [0, 1]", 0.0 <= doc["hellinger"] <= 1.0,
                 str(doc["hellinger"]))
    # pointwise, the excess risk never exceeds 2|p0 - p_hat|
    checks.check("risk gap within its bound", doc["risk_gap"] <= doc["risk_bound"] + 1e-12,
                 f"{doc['risk_gap']} > {doc['risk_bound']}")
    ref = REFERENCE.get(spec.name, {}).get("hellinger")
    if ref is not None and spec.n_mc == ref["n_mc"]:
        checks.check("hellinger within 5 stderrs of the reference seed's",
                     abs(doc["hellinger"] - ref["value"]) <= 5.0 * doc["hellinger_stderr"],
                     f"{doc['hellinger']} vs {ref['value']} (stderr {doc['hellinger_stderr']})")
    return data


def _replay(tracer: Tracer, spec: Spec, batch, train_seed: int, budget: float) -> None:
    """Replay the public calls of a fit's first iterations at the workload's sizes."""
    prior = PriorConfig.standard(SHAPE.K)
    q = initial_params(SHAPE.K)
    other = 2 if spec.threads == 1 else 1
    start = time.perf_counter()
    t = 0
    while t < REPLAY_MIN or time.perf_counter() - start < budget:
        with tracer.span("optimizer.iteration"):
            draws = tracer.call("variational.sample", sample, q, S,
                                np.random.SeedSequence(entropy=train_seed, spawn_key=(1, t)))
            thetas = draws.thetas
            lj = tracer.call("model.log_joint_many", log_joint_many, thetas, batch, prior, SHAPE)
            tracer.call("model.scores_many", scores_many, thetas, batch.x, SHAPE)
            lq = tracer.call("variational.log_q", log_q, q, thetas)
            with tracer.span("variational.grad_log_q"):
                v = np.concatenate([grad_log_q_mean(q, thetas), grad_log_q_raw(q, thetas)], axis=1)
            u = v * (lj - lq)[:, None]
            tracer.call("optimizer.control_variate_coefficients",
                        control_variate_coefficients, u, v)
            grad = tracer.call(f"optimizer.estimate_gradient_cv@{spec.threads}",
                               estimate_gradient_cv, q, batch, prior, draws,
                               threads=spec.threads)
            tracer.call(f"optimizer.estimate_gradient_cv@{other}",
                        estimate_gradient_cv, q, batch, prior, draws, threads=other)
            tracer.call("optimizer.step", step, q, np.clip(grad, -GRAD_CLIP, GRAD_CLIP),
                        t, SCHEDULE)
        t += 1


def span_cost(count: int) -> float:
    """Seconds that recording ``count`` spans costs, timed on empty spans."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(1000):
        with probe.span("probe"):
            pass
    return count * (time.perf_counter() - start) / 1000


def _probe() -> float:
    """Seconds of a fixed task shaped like prediction's per-row work."""
    weights = np.linspace(-1.0, 1.0, SHAPE.K)
    start = time.perf_counter()
    for row in range(PROBE_ROWS):
        z = np.random.default_rng(row).standard_normal((M, SHAPE.K))
        float(np.mean(1.0 / (1.0 + np.exp(-(z @ weights)))))
    return time.perf_counter() - start


def probed(fn, *args, split_at=None):
    """Call fn; return (result, wall seconds, probe-normalized seconds).

    The probe runs before and after the call, which is reported at the speed
    the two show.  With ``split_at=(owner, attr)``, the call is also cut into
    segments: the probe runs again at the first call of ``owner.attr`` after
    PROBE_SEGMENT_S, and each segment is normalized by the probes on either
    side of it.  Probe time is left out of both figures.
    """
    probes = [_probe()]
    segments: list[float] = []
    mark = time.perf_counter()

    def cut():
        nonlocal mark
        segments.append(time.perf_counter() - mark)
        probes.append(_probe())
        mark = time.perf_counter()

    if split_at is None:
        result = fn(*args)
    else:
        owner, attr = split_at
        original = getattr(owner, attr)

        def split(*a, **kw):
            if time.perf_counter() - mark >= PROBE_SEGMENT_S:
                cut()
            return original(*a, **kw)

        setattr(owner, attr, split)
        try:
            result = fn(*args)
        finally:
            setattr(owner, attr, original)
    cut()
    normalized = sum(wall * 2.0 * PROBE_REFERENCE_S / (before + after)
                     for wall, before, after in zip(segments, probes, probes[1:]))
    return result, sum(segments), normalized


class Serving:
    """Alternating `vbnn predict` / `vbnn diagnose` calls and their times.

    Each of ``predict_times``/``diagnose_times`` holds (wall, normalized)
    seconds per call.
    """

    def __init__(self, tracer: Tracer, checks: Checks, spec: Spec, plan: dict, work: Path):
        self.tracer, self.checks, self.spec, self.work = tracer, checks, spec, work
        common = ["--model", str(work / "model.json"), "--M", str(M),
                  "--seed", str(plan["serve_seed"]), "--threads", str(spec.threads)]
        self.predict_argv = ["predict", "--data", str(work / "serve.csv"),
                             "--out", str(work / "predictions.csv")] + common
        self.diagnose_argv = ["diagnose", "--truth", "reference", "--n-mc", str(spec.n_mc),
                              "--out", str(work / "diagnosis.json")] + common
        self.predict_times: list[list[float]] = []
        self.diagnose_times: list[list[float]] = []
        self.first_outputs = None

    def window(self, rounds: int, seconds: float, until: float = 0.0) -> None:
        """Serve at least ``rounds`` times, for ``seconds``, and until ``until``."""
        start, done = time.perf_counter(), 0
        while (done < rounds or time.perf_counter() - start < seconds
               or time.perf_counter() < until):
            self._round()
            done += 1

    def _round(self) -> None:
        tracer, checks, work = self.tracer, self.checks, self.work
        with tracer.patched(vbnn.cli, "load_csv", "data.load_csv"), \
             tracer.patched(vbnn.cli, "predictive_probabilities",
                            "prediction.predictive_probabilities"), \
             tracer.patched(vbnn.cli, "save_predictions_csv",
                            "prediction.save_predictions_csv"):
            code, *times = probed(_cli, tracer, "cli.predict", self.predict_argv)
        checks.check("vbnn predict exit code 0", code == 0, f"exit code {code}")
        self.predict_times.append(times)
        with tracer.patched(vbnn.cli, "diagnostics_dict", "metrics.diagnostics_dict"), \
             tracer.patched(vbnn.metrics, "draw_points", "metrics.draw_points"), \
             tracer.patched(vbnn.metrics.TrueFunction, "__call__", "metrics.truth_eval"), \
             tracer.patched(vbnn.metrics, "predictive_probabilities",
                            "prediction.predictive_probabilities"):
            code, *times = probed(_cli, tracer, "cli.diagnose", self.diagnose_argv)
        checks.check("vbnn diagnose exit code 0", code == 0, f"exit code {code}")
        self.diagnose_times.append(times)
        outputs = (_check_predictions(checks, self.spec, work / "predictions.csv"),
                   _check_diagnosis(checks, self.spec, work / "diagnosis.json"))
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            checks.check("repeated predict/diagnose outputs are byte-identical",
                         outputs == self.first_outputs)


def _layer_metrics(tracer: Tracer, spec: Spec, fits: list[Fit], replay_time: float) -> dict:
    def ms(name, root=None):
        return median_ms(tracer.durations(name, root))

    n = spec.n_train
    egcv = {t: ms(f"optimizer.estimate_gradient_cv@{t}") for t in (1, 2)}
    scores_s = ms("model.scores_many") / 1e3
    flops = scores_many_flops(S, n, SHAPE.k, SHAPE.p)
    return {
        "model.log_joint_many_ms": ms("model.log_joint_many"),
        "model.scores_many_ms": scores_s * 1e3,
        "model.scores_many_gflops": flops / scores_s / 1e9,
        "model.scores_many_flops": flops,
        "model.scores_many_bytes": scores_many_bytes(S, n, SHAPE.k, SHAPE.p),
        "variational.sample_ms": ms("variational.sample"),
        "variational.log_q_ms": ms("variational.log_q"),
        "variational.grad_log_q_ms": ms("variational.grad_log_q"),
        "optimizer.estimate_gradient_cv_ms": egcv[spec.threads],
        "optimizer.control_variate_coefficients_ms": ms("optimizer.control_variate_coefficients"),
        "optimizer.step_ms": ms("optimizer.step"),
        "optimizer.loop_self_ms": median_ms([s for f in fits for s in loop_self_seconds(f)]),
        "optimizer.iterations": statistics.median(f.report.iterations_run for f in fits),
        "optimizer.converged": sum(f.report.converged for f in fits),
        "optimizer.thread_speedup": egcv[1] / egcv[2],
        "optimizer.thread_efficiency": egcv[1] / egcv[2] / 2.0,
        "prediction.predictive_probabilities_ms": ms("prediction.predictive_probabilities"),
        "prediction.save_predictions_csv_ms": ms("prediction.save_predictions_csv"),
        "metrics.draw_points_ms": ms("metrics.draw_points"),
        "metrics.truth_eval_ms": ms("metrics.truth_eval", "cli.diagnose"),
        "metrics.diagnostics_dict_ms": ms("metrics.diagnostics_dict"),
        "metrics.self_ms": median_ms(tracer.self_times("metrics.diagnostics_dict")),
        "data.load_csv_ms": ms("data.load_csv", "cli.predict"),
        "data.write_csv_ms": median_ms(tracer.totals_per_root("data.write_csv", "setup")),
        "data.generate_synthetic_ms": median_ms(
            tracer.totals_per_root("data.generate_synthetic", "setup")),
        "cli.predict_self_ms": median_ms(tracer.self_times("cli.predict")),
        "cli.diagnose_self_ms": median_ms(tracer.self_times("cli.diagnose")),
        # what a traced run adds to an untraced one: the replayed iterations
        # and the bookkeeping of the spans and calls recorded around the timed
        # calls (each call counted at the cost of a span, which is more)
        "trace.overhead_s": replay_time + span_cost(
            len(tracer.spans) + sum(len(f.calls) for f in fits)),
    }


def run(spec: Spec, seed: int, seconds: int, traced: bool, work: Path, smoke: bool) -> dict:
    """One run of a workload.

    Returns {"metrics": {name: (value, unit)}, "checks", "notes"}: the
    end-to-end metrics untraced, the per-layer metrics traced.
    """
    tracer = Tracer(traced)
    checks = Checks()
    plan = _seed_plan(spec, seed)
    notes: list[str] = []
    setup_budget, serve_budget = (0.0, 0.0) if smoke else (SETUP_SECONDS, SERVE_SECONDS)
    ref = REFERENCE.get(spec.name, {}).get("final_elbo")  # of the reference fit

    setup_times: list[list[float]] = []  # (wall, normalized) per setup
    serving = Serving(tracer, checks, spec, plan, work)
    windows = spec.fits + 1

    def window(i: int, until: float = 0.0):
        """Window i of repeated setups and predict/diagnose pairs."""
        def share(total):  # window i's part of an integer total
            return total * (i + 1) // windows - total * i // windows

        reps, start = 0, time.perf_counter()
        while reps < max(1, share(SETUP_MIN_REPS)) or (
                time.perf_counter() - start < setup_budget / windows):
            made, *times = probed(_setup, spec, plan, work, tracer)
            setup_times.append(times)
            reps += 1
        serving.window(share(MIN_ROUNDS), serve_budget / windows, until)
        return made

    work.mkdir(parents=True, exist_ok=True)
    try:
        measure_start = time.perf_counter()
        batches = window(0)
        fits = []
        for j, (batch, (data_seed, train_seed)) in enumerate(zip(batches, plan["train"])):
            fit = _fit(batch, train_seed, spec.threads, spec.max_iters, traced)
            fits.append(fit)
            final = _check_fit(checks, spec, f"fit {j}", fit, batch, train_seed)
            seconds_note = f"{fit.wall:.3f} s" if traced else \
                f"{fit.wall:.3f} s (probe-normalized {fit.normalized:.3f} s)"
            notes.append(f"fit {j}: dataset seed {data_seed}, train seed {train_seed}, "
                         f"{fit.report.iterations_run} iterations, "
                         f"converged={fit.report.converged}, {seconds_note}, "
                         f"final-window ELBO {final:.4f}")
            if spec.reference_fit and not smoke:
                w = min(50, fit.report.iterations_run)
                tol = 4.0 * float(np.std(fit.report.elbo_trace[-w:], ddof=1)) / math.sqrt(w)
                checks.check(f"fit {j} final ELBO window matches the recorded reference",
                             abs(final - ref) <= tol,
                             f"{final:.6f} vs {ref:.6f} (tolerance {tol:.4f})")
            last = j == spec.fits - 1
            window(j + 1, measure_start + seconds if last else 0.0)

        if spec.prefix_iters:
            # criterion 8 from outside: thread count never changes the trace
            short = _fit(batches[0], plan["train"][0][1], 1, spec.prefix_iters).report
            main_trace = fits[0].report.elbo_trace[: spec.prefix_iters]
            checks.check(f"first {spec.prefix_iters} ELBO values byte-identical at "
                         f"threads=1 and threads={spec.threads}",
                         short.elbo_trace.tobytes() == main_trace.tobytes())

        notes.append("diagnose: " + json.dumps(json.loads(serving.first_outputs[1])))

        if traced:
            start = time.perf_counter()
            _replay(tracer, spec, batches[0], plan["train"][0][1],
                    0.2 if smoke else REPLAY_SECONDS)
            replay_time = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    for name, times in (("setup", setup_times), ("predict", serving.predict_times),
                        ("diagnose", serving.diagnose_times)):
        notes.append(f"{name}: {len(times)} calls, median wall "
                     f"{statistics.median(t[0] for t in times):.4g} s, probe-normalized "
                     f"{statistics.median(t[1] for t in times):.4g} s")
    working_set = kernel_working_set_bytes(S, spec.n_train, SHAPE.k)
    notes.append(f"kernel: one (S, n, k) = ({S}, {spec.n_train}, {SHAPE.k}) float64 "
                 f"temporary is {working_set / 2**20:.2f} MiB")
    if traced:
        metrics = _layer_metrics(tracer, spec, fits, replay_time)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(t[1] for t in setup_times),
            "fit_s": statistics.median(f.normalized for f in fits),
            "ms_per_iter": statistics.median(1e3 * f.normalized / f.report.iterations_run
                                             for f in fits),
            "predict_s": statistics.median(t[1] for t in serving.predict_times),
            "diagnose_s": statistics.median(t[1] for t in serving.diagnose_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
        "checks": checks,
        "notes": notes,
    }
