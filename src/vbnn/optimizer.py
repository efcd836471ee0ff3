"""Score-function (black-box) stochastic gradient ascent on the ELBO.

Each iteration draws S parameter vectors from the current q, forms the
per-sample weights

    w[i] = log p(y, theta[i]) - log q(theta[i])

and uses the Monte Carlo score-function gradient

    g_hat = mean_i  grad log q(theta[i]) * w[i]

over the stacked free parameters (m, r).  The optional control variate
subtracts a_hat * grad log q(theta[i]) coordinate-wise, with one coefficient
per coordinate

    a_hat_j = cov(u_j, v_j) / var(v_j)

estimated from the same samples (u = score * weight terms, v = plain scores),
which leaves the gradient unbiased up to the plug-in coefficient and can cut
its variance dramatically.

One function, ``_iterate``, computes the weights, the ELBO estimate, the
gradient estimate and its variance.  Every ``train`` iteration and every
``estimate_*`` call goes through it, so the estimator is written once;
``train`` adds only the loop, the traces, divergence and convergence tests,
clipping and ``step``.

Step sizes follow a ``Schedule``, whose kinds and their fields are listed once
in ``SCHEDULE_KEYS``.  ``train`` stops when successive window means of the
ELBO differ by less than a relative ``CONV_REL_TOL`` and the later one is not
below the first estimate.

Determinism: the sampling RNG for iteration t is spawned as
SeedSequence(entropy=seed, spawn_key=(1, t)), so traces are reproducible for
a given seed and independent of thread count.  Threads only score the
blocks of sample rows into which ``model.log_likelihood_many`` cuts the
log-joint evaluation, and ``threads`` counts the calling thread: it scores
blocks itself, helped by up to ``threads`` - 1 pool workers.  The block size
depends on k and n alone, so with one block (at S=200 and k=3, any n <= 436)
there is nothing to run in parallel and no helper is used.  Rows are
independent (each depends only on its own theta), so the results are
byte-identical for any thread count; every reduction happens in a single
deterministic pass afterwards.  ``train`` keeps one pool of helpers for the
whole run; each ``estimate_*`` call makes its own, at 0.2-0.4 ms a call, so
``threads`` > 1 buys one call less than it buys a fit.  On a two-core Xeon
at S=200 and k=3 (medians of 300 ``estimate_gradient_cv`` calls, three
runs), threads=2 took 1.45-1.55 ms to one thread's 1.17-1.50 at n=800 (two
blocks) and 2.8-3.7 ms to 3.3-4.4 at n=3200 (eight blocks); a kept pool
took 1.10-1.34 and 2.4-3.3.
``data.save_report_csv`` writes a ``TrainReport``'s traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LabeledBatch,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    _check_counts,
    _is_kind,
    _pool,
    check_keys,
    json_field,
    log_joint_many,
    shape_for,
)
from .variational import (
    SampleMatrix,
    VariationalParams,
    grad_log_q_mean,
    grad_log_q_raw,
    initial_params,
    log_q,
    sample,
)

__all__ = [
    "Schedule",
    "SCHEDULE_KEYS",
    "CONV_REL_TOL",
    "TrainConfig",
    "TrainReport",
    "estimate_elbo",
    "estimate_gradient",
    "control_variate_coefficients",
    "estimate_gradient_cv",
    "step",
    "train",
    "report_summary",
]

# Each schedule kind and, in to_json_dict's order, the fields it reads.
SCHEDULE_KEYS = {"fixed": ("rho",), "rm": ("rho0", "b", "c")}

# relative change between successive window means below which train stops
CONV_REL_TOL = 1e-4


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: kind "fixed" uses rate rho, kind "rm" (the
    default) the decaying Robbins-Monro rate rho0 / (b * (t+1)^c).

    The decaying variant follows the stochastic-approximation recipe with any
    exponent 0 < c <= 1 (the reference experiments use c = 0.3, below the
    classical 0.5 < c <= 1 range).  A kind ignores the other kind's fields, and
    its JSON form (``SCHEDULE_KEYS``) holds only its own.
    """

    kind: str = "rm"
    rho: float = 1e-3
    rho0: float = 1.0
    b: float = 100.0
    c: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KEYS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # a NaN would pass a "<= 0" test, and an infinite rate fails only at the end
        # of a fit, when model.json cannot hold it
        for key in ("rho",) if self.kind == "fixed" else ("rho0", "b"):
            value = getattr(self, key)
            if not (_is_kind(value, float) and value > 0):
                raise ValueError(f"schedule {key!r} must be a positive finite number, "
                                 f"got {value!r}")
        if self.kind == "rm" and not (_is_kind(self.c, float) and 0 < self.c <= 1):
            raise ValueError("decay exponent c must satisfy 0 < c <= 1")

    def rate(self, t: int) -> float:
        """Learning rate for 0-based iteration t; always > 0."""
        if t < 0:
            raise ValueError("iteration index must be >= 0")
        if self.kind == "fixed":
            return self.rho
        return self.rho0 / (self.b * float(t + 1) ** self.c)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in SCHEDULE_KEYS[self.kind]}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Schedule":
        """Inverse of to_json_dict; missing keys take the field defaults, and
        keys that do not belong to the kind raise ValueError naming them."""
        kind = json_field(doc, "kind", str, cls.kind)
        if kind not in SCHEDULE_KEYS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        check_keys(doc, ("kind", *SCHEDULE_KEYS[kind]), f"a {kind!r} schedule")
        return cls(kind=kind, **{key: json_field(doc, key, float)
                                 for key in SCHEDULE_KEYS[kind] if key in doc})


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data itself.  The
    defaults are the paper's synthetic-study fit (its network is REFERENCE_TRUTH's).

    ``threads`` counts the calling thread: a likelihood of two or more blocks
    is scored by it and up to ``threads`` - 1 helpers, one of a single block
    by the calling thread alone.  It never changes a result."""

    S: int = 200
    schedule: Schedule = field(default_factory=Schedule)
    use_control_variates: bool = True
    max_iters: int = 2000
    conv_window: int = 50
    grad_clip: float | None = 10.0
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        _check_counts(S=(self.S, 1), max_iters=(self.max_iters, 1),
                      conv_window=(self.conv_window, 1), threads=(self.threads, 1),
                      seed=(self.seed, 0))
        if self.use_control_variates and self.S < 2:
            raise ValueError("control variates require S >= 2")
        # a NaN bound would pass a "<= 0" test and make every clipped gradient NaN
        if self.grad_clip is not None and not (_is_kind(self.grad_clip, float)
                                               and self.grad_clip > 0):
            raise ValueError("grad_clip must be a positive finite number when given")

    def to_json_dict(self) -> dict:
        return {
            "S": self.S,
            "algo": "bbvi-cv" if self.use_control_variates else "bbvi",
            "schedule": self.schedule.to_json_dict(),
            "max_iters": self.max_iters,
            "conv_window": self.conv_window,
            "grad_clip": self.grad_clip,
            "seed": self.seed,
            "threads": self.threads,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        """Inverse of to_json_dict; missing keys take the field defaults, a null
        grad_clip means no clipping, and keys it does not read or values of the
        wrong kind raise errors naming the key."""
        check_keys(doc, cls().to_json_dict(), "a training config")
        values = {key: json_field(doc, key, int) for key in
                  ("S", "max_iters", "conv_window", "seed", "threads") if key in doc}
        if "schedule" in doc:
            values["schedule"] = Schedule.from_json_dict(json_field(doc, "schedule", dict))
        if "grad_clip" in doc:
            values["grad_clip"] = (None if doc["grad_clip"] is None
                                   else json_field(doc, "grad_clip", float))
        if "algo" in doc:
            if doc["algo"] not in ("bbvi", "bbvi-cv"):
                raise ValueError(f"unknown algo {doc['algo']!r}")
            values["use_control_variates"] = doc["algo"] == "bbvi-cv"
        return cls(**values)


@dataclass(frozen=True)
class TrainReport:
    """Per-iteration traces plus the run's outcome flags."""

    elbo_trace: np.ndarray
    grad_var_trace: np.ndarray
    rho_trace: np.ndarray
    converged: bool
    wall_time: float
    diverged_at: int | None = None

    def __post_init__(self) -> None:
        for name in ("elbo_trace", "grad_var_trace", "rho_trace"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.elbo_trace.shape or arr.ndim != 1:
                raise ValueError("the three traces must be 1-d and of equal length")

    @property
    def iterations_run(self) -> int:
        return len(self.elbo_trace)

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def _iterate(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    shape: NetworkShape,
    draws: SampleMatrix,
    cv: bool | None,
    pool: tuple | None,
) -> tuple[float, np.ndarray | None, float | None]:
    """ELBO estimate, gradient estimate and gradient variance of one set of draws.

    The gradient estimate is the mean of S sample rows of length 2K, and its
    variance the mean over coordinates of the rows' ddof=1 variance (0.0 for
    one row).  ``cv`` picks the rows: ``False`` the plain terms
    u[i] = v[i] * w[i]; ``True`` u[i] - a_hat * v[i] with the in-sample
    coefficients; ``None`` no rows at all, for the ELBO alone, with None for
    the other two.  ``pool``, from :func:`_pool`, gives the log-likelihood's
    helpers.
    """
    thetas = draws.thetas
    weights = log_joint_many(thetas, batch, prior, shape, pool) - log_q(q, thetas)
    elbo = float(weights.mean())
    if cv is None:
        return elbo, None, None
    v = np.concatenate([grad_log_q_mean(q, thetas), grad_log_q_raw(q, thetas)], axis=1)
    rows = v * weights[:, None]
    if cv:
        rows -= control_variate_coefficients(rows, v) * v
    # np.mean and np.var(ddof=1) over the S rows, without their wrappers
    S = rows.shape[0]
    grad = rows.sum(axis=0) / S
    gvar = 0.0
    if S > 1:
        rows -= grad
        rows *= rows
        gvar = float((rows.sum(axis=0) / (S - 1)).sum() / rows.shape[1])
    return elbo, grad, gvar


def estimate_elbo(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    threads: int = 1,
) -> float:
    """Monte Carlo ELBO estimate mean_i [log p(y, theta[i]) - log q(theta[i])];
    ``threads`` > 1 opens a pool for this call alone (see the module docstring)."""
    with _pool(threads) as pool:
        return _iterate(q, batch, prior, shape_for(q.K, batch.p), draws, None, pool)[0]


def estimate_gradient(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    threads: int = 1,
) -> np.ndarray:
    """Plain score-function gradient estimate over (m, r); returns (2K,).
    ``threads`` > 1 opens a pool for this call alone (see the module docstring)."""
    with _pool(threads) as pool:
        return _iterate(q, batch, prior, shape_for(q.K, batch.p), draws, False, pool)[1]


def control_variate_coefficients(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-coordinate a_hat_j = cov(u_j, v_j) / var(v_j) from sample rows.

    Each coordinate gets its own coefficient.  Coordinates whose control
    variate has (numerically) zero variance get a_hat = 0, which leaves their
    gradient untouched.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("u and v must both be (S, D)")
    S = u.shape[0]
    if S < 2:
        raise ValueError("coefficient estimation needs at least two sample rows")
    # the sums over S divided by S are np.mean's own arithmetic
    du = u - u.sum(axis=0) / S
    dv = v - v.sum(axis=0) / S
    du *= dv
    dv *= dv
    cov = du.sum(axis=0) / S
    var = dv.sum(axis=0) / S
    safe = var > 1e-300
    return np.where(safe, cov / np.where(safe, var, 1.0), 0.0)


def estimate_gradient_cv(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    threads: int = 1,
) -> np.ndarray:
    """Control-variate gradient estimate mean_i [u[i] - a_hat * v[i]] with the
    in-sample coefficients a_hat of :func:`control_variate_coefficients`.
    ``threads`` > 1 opens a pool for this call alone (see the module docstring)."""
    with _pool(threads) as pool:
        return _iterate(q, batch, prior, shape_for(q.K, batch.p), draws, True, pool)[1]


def step(
    q: VariationalParams, grad: np.ndarray, t: int, schedule: Schedule
) -> VariationalParams:
    """One ascent step on (m, r) with the schedule's rate for iteration t."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (2 * q.K,):
        raise ShapeMismatchError(f"gradient must have length {2 * q.K}")
    if not np.all(np.isfinite(grad)):
        raise ValueError(f"non-finite gradient at iteration {t}")
    rho = schedule.rate(t)
    return VariationalParams(
        mean=q.mean + rho * grad[: q.K],
        raw_scale=q.raw_scale + rho * grad[q.K :],
    )


def train(
    batch: LabeledBatch,
    prior: PriorConfig,
    shape: NetworkShape,
    config: TrainConfig,
) -> tuple[VariationalParams, TrainReport]:
    """Run BBVI until the moving-average ELBO stalls or max_iters is hit.

    Convergence: with window w, stop once the last-w-iterations mean ELBO
    differs from the previous window's mean by less than CONV_REL_TOL in
    relative terms and is not below the first iteration's estimate; first
    checkable at iteration 2w - 1.  Without the second condition a fit whose
    ELBO has blown up to a huge negative value would pass the relative test.
    A NaN/Inf ELBO or gradient marks the run diverged and returns the last
    healthy iterate.  A batch or prior of another width or length than ``shape``
    raises ShapeMismatchError naming both, from log_likelihood_many or log_prior.
    """
    q = initial_params(shape.K)
    elbos, gvars, rhos = [], [], []
    converged = False
    diverged_at: int | None = None
    w = config.conv_window

    start = time.perf_counter()
    with _pool(config.threads) as pool:
        for t in range(config.max_iters):
            draws = sample(
                q, config.S, np.random.SeedSequence(entropy=config.seed, spawn_key=(1, t))
            )
            # overflow here is divergence, detected below, not a warning condition
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                elbo_t, grad, gvar = _iterate(q, batch, prior, shape, draws,
                                              config.use_control_variates, pool)
            if not (np.isfinite(elbo_t) and np.all(np.isfinite(grad))):
                diverged_at = t
                break
            elbos.append(elbo_t)
            gvars.append(gvar)
            rhos.append(config.schedule.rate(t))
            if len(elbos) >= 2 * w:
                recent = float(np.sum(elbos[-w:]) / w)
                previous = float(np.sum(elbos[-2 * w : -w]) / w)
                if (recent >= elbos[0]
                        and abs(recent - previous) / (abs(previous) + 1e-12) < CONV_REL_TOL):
                    converged = True
                    break
            if config.grad_clip is not None:
                grad = np.clip(grad, -config.grad_clip, config.grad_clip)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    q = step(q, grad, t, config.schedule)
            except ValueError:
                # the update itself overflowed; keep the last healthy iterate
                diverged_at = t
                break

    report = TrainReport(
        elbo_trace=elbos,
        grad_var_trace=gvars,
        rho_trace=rhos,
        converged=converged,
        wall_time=time.perf_counter() - start,
        diverged_at=diverged_at,
    )
    return q, report


def report_summary(report: TrainReport) -> dict:
    """Compact JSON-ready digest of a run.  A value that is undefined (no
    iteration ran) or not finite (a diverging fit's gradient variance) is None,
    so the digest is strict JSON."""
    final_elbo = mean_grad_var = math.nan
    if report.iterations_run:
        with np.errstate(over="ignore"):  # the mean of huge variances may overflow
            final_elbo = float(report.elbo_trace[-1])
            mean_grad_var = float(report.grad_var_trace.mean())
    return {
        "iterations_run": report.iterations_run,
        "converged": report.converged,
        "diverged": report.diverged,
        "diverged_at": report.diverged_at,
        "final_elbo": final_elbo if math.isfinite(final_elbo) else None,
        "mean_grad_var": mean_grad_var if math.isfinite(mean_grad_var) else None,
        "wall_time_s": report.wall_time,
    }
