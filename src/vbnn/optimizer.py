"""Score-function (black-box) stochastic gradient ascent on the ELBO.

Each iteration draws S parameter vectors from the current q, forms the
per-sample weights

    w[i] = log p(y, theta[i]) - log q(theta[i])

and uses the Monte Carlo score-function gradient

    g_hat = mean_i  grad log q(theta[i]) * w[i]

over the stacked free parameters (m, r).  The optional control variate
subtracts a_hat * grad log q(theta[i]) coordinate-wise, with

    a_hat_j = cov(u_j, v_j) / var(v_j)

estimated from the same samples (u = score * weight terms, v = plain scores),
which leaves the gradient unbiased up to the plug-in coefficient and can cut
its variance dramatically.

Determinism: the sampling RNG for iteration t is spawned as
SeedSequence(entropy=seed, spawn_key=(1, t)), so traces are reproducible for
a given seed and independent of thread count.  Threading only splits the
per-sample log-joint evaluation into one contiguous block of sample rows per
thread.  Rows are independent (each depends only on its own theta), so any
contiguous split is byte-identical; every reduction happens in a single
deterministic pass afterwards.  ``train`` keeps one thread pool for the whole
run.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LabeledBatch,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
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
    "TrainConfig",
    "TrainReport",
    "NonFiniteGradientError",
    "estimate_elbo",
    "estimate_gradient",
    "control_variate_coefficients",
    "estimate_gradient_cv",
    "step",
    "train",
    "save_report_csv",
    "report_summary",
]

class NonFiniteGradientError(RuntimeError):
    """A NaN/Inf gradient was about to be applied; carries the iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite gradient at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: fixed rho, or decaying rho0 / (b * (t+1)^c).

    The decaying variant follows the stochastic-approximation recipe; with
    ``strict_rm`` the exponent must satisfy 0.5 < c <= 1 so the classical
    step-size conditions hold, otherwise any 0 < c <= 1 is accepted (the
    reference experiments use c = 0.3).
    """

    kind: str = "fixed"
    rho: float = 1e-3
    rho0: float = 1.0
    b: float = 100.0
    c: float = 0.3
    strict_rm: bool = False

    def __post_init__(self) -> None:
        if self.kind == "robbins_monro":  # long-form alias for "rm"
            object.__setattr__(self, "kind", "rm")
        if self.kind not in ("fixed", "rm"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed" and self.rho <= 0:
            raise ValueError("fixed learning rate must be positive")
        if self.kind == "rm":
            if self.rho0 <= 0 or self.b <= 0:
                raise ValueError("rho0 and b must be positive")
            if not 0 < self.c <= 1:
                raise ValueError("decay exponent c must satisfy 0 < c <= 1")
            if self.strict_rm and not 0.5 < self.c <= 1:
                raise ValueError(
                    "strict Robbins-Monro schedule requires 0.5 < c <= 1"
                )

    def rate(self, t: int) -> float:
        """Learning rate for 0-based iteration t; always > 0."""
        if t < 0:
            raise ValueError("iteration index must be >= 0")
        if self.kind == "fixed":
            return self.rho
        return self.rho0 / (self.b * float(t + 1) ** self.c)

    def to_json_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "rho": self.rho}
        return {"kind": "rm", "rho0": self.rho0, "b": self.b, "c": self.c,
                "strict_rm": self.strict_rm}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Schedule":
        """Inverse of to_json_dict; missing keys take their defaults and keys
        that do not belong to the kind raise ValueError naming them."""
        kind = doc.get("kind", "fixed")
        allowed = SCHEDULE_KEYS.get("rm" if kind == "robbins_monro" else kind)
        if allowed is None:
            raise ValueError(f"unknown schedule kind {kind!r}")
        unknown = sorted(set(doc) - allowed - {"kind"})
        if unknown:
            raise ValueError(
                f"unknown key(s) for a {kind!r} schedule: {', '.join(unknown)}"
            )
        if kind == "fixed":
            return cls(kind="fixed", rho=float(doc.get("rho", 1e-3)))
        return cls(
            kind=kind,
            rho0=float(doc.get("rho0", 1.0)),
            b=float(doc.get("b", 100.0)),
            c=float(doc.get("c", 0.3)),
            strict_rm=bool(doc.get("strict_rm", False)),
        )


# The keys each schedule kind reads, besides "kind" itself.
SCHEDULE_KEYS = {"fixed": frozenset({"rho"}),
                 "rm": frozenset({"rho0", "b", "c", "strict_rm"})}


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run besides the data itself."""

    S: int = 200
    schedule: Schedule = field(default_factory=Schedule)
    use_control_variates: bool = False
    max_iters: int = 2000
    conv_window: int = 50
    conv_rel_tol: float = 1e-4
    grad_clip: float | None = None
    seed: int = 0
    threads: int = 1
    init_jitter: float = 0.0
    cv_holdout: bool = False
    cv_pooled: bool = False

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.use_control_variates and self.S < 2:
            raise ValueError("control variates require S >= 2")
        if self.use_control_variates and self.cv_holdout and self.S < 4:
            raise ValueError("held-out control variates require S >= 4")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.conv_window < 1:
            raise ValueError("conv_window must be >= 1")
        if self.conv_rel_tol <= 0:
            raise ValueError("conv_rel_tol must be positive")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when given")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.init_jitter < 0:
            raise ValueError("init_jitter must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "S": self.S,
            "algo": "bbvi-cv" if self.use_control_variates else "bbvi",
            "schedule": self.schedule.to_json_dict(),
            "max_iters": self.max_iters,
            "conv_window": self.conv_window,
            "conv_rel_tol": self.conv_rel_tol,
            "grad_clip": self.grad_clip,
            "seed": self.seed,
            "threads": self.threads,
            "init_jitter": self.init_jitter,
            "cv_holdout": self.cv_holdout,
            "cv_pooled": self.cv_pooled,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        """Inverse of to_json_dict; missing keys take their defaults and
        keys it does not read raise ValueError naming them."""
        unknown = sorted(set(doc) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown training config key(s): {', '.join(unknown)}")
        algo = doc.get("algo", "bbvi")
        if algo not in ("bbvi", "bbvi-cv"):
            raise ValueError(f"unknown algo {algo!r}")
        clip = doc.get("grad_clip")
        return cls(
            S=int(doc.get("S", 200)),
            schedule=Schedule.from_json_dict(doc.get("schedule", {})),
            use_control_variates=(algo == "bbvi-cv"),
            max_iters=int(doc.get("max_iters", 2000)),
            conv_window=int(doc.get("conv_window", 50)),
            conv_rel_tol=float(doc.get("conv_rel_tol", 1e-4)),
            grad_clip=None if clip is None else float(clip),
            seed=int(doc.get("seed", 0)),
            threads=int(doc.get("threads", 1)),
            init_jitter=float(doc.get("init_jitter", 0.0)),
            cv_holdout=bool(doc.get("cv_holdout", False)),
            cv_pooled=bool(doc.get("cv_pooled", False)),
        )


_CONFIG_KEYS = frozenset(TrainConfig().to_json_dict())


@dataclass(frozen=True)
class TrainReport:
    """Per-iteration traces plus the run's outcome flags."""

    elbo_trace: np.ndarray
    grad_var_trace: np.ndarray
    rho_trace: np.ndarray
    iterations_run: int
    converged: bool
    wall_time: float
    diverged: bool = False
    diverged_at: int | None = None

    def __post_init__(self) -> None:
        for name in ("elbo_trace", "grad_var_trace", "rho_trace"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.iterations_run,):
                raise ValueError(f"{name} must have one entry per iteration run")


def _log_joint_split(
    thetas: np.ndarray,
    batch: LabeledBatch,
    prior: PriorConfig,
    shape: NetworkShape,
    threads: int,
    pool: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """log_joint_many over ``threads`` equal contiguous row blocks, in parallel.

    Uses ``pool`` when given, else a pool of its own for this call.  Workers
    run under the caller's floating-point error settings (``np.errstate`` is
    per thread), so threading never changes which warnings are raised.
    """
    S = thetas.shape[0]
    blocks = min(threads, S)
    if blocks <= 1:
        return log_joint_many(thetas, batch, prior, shape)
    bounds = [S * b // blocks for b in range(blocks + 1)]
    out = np.empty(S)
    errors = np.geterr()

    def run(b: int) -> None:
        lo, hi = bounds[b], bounds[b + 1]
        with np.errstate(**errors):
            out[lo:hi] = log_joint_many(thetas[lo:hi], batch, prior, shape)

    if pool is not None:
        list(pool.map(run, range(blocks)))
    else:
        with ThreadPoolExecutor(max_workers=blocks) as own:
            list(own.map(run, range(blocks)))
    return out


def _per_sample_terms(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    shape: NetworkShape,
    draws: SampleMatrix,
    threads: int = 1,
    pool: ThreadPoolExecutor | None = None,
):
    """Weights w, score-times-weight matrix u and plain score matrix v."""
    thetas = draws.thetas
    lj = _log_joint_split(thetas, batch, prior, shape, threads, pool)
    weights = lj - log_q(q, thetas)
    v = np.concatenate(
        [grad_log_q_mean(q, thetas), grad_log_q_raw(q, thetas)], axis=1
    )
    u = v * weights[:, None]
    return weights, u, v


def _resolve_shape(q: VariationalParams, batch: LabeledBatch) -> NetworkShape:
    return shape_for(q.K, batch.p)


def estimate_elbo(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    threads: int = 1,
) -> float:
    """Monte Carlo ELBO estimate mean_i [log p(y, theta[i]) - log q(theta[i])]."""
    shape = _resolve_shape(q, batch)
    lj = _log_joint_split(draws.thetas, batch, prior, shape, threads)
    return float(np.mean(lj - log_q(q, draws.thetas)))


def estimate_gradient(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    threads: int = 1,
) -> np.ndarray:
    """Plain score-function gradient estimate over (m, r); returns (2K,)."""
    shape = _resolve_shape(q, batch)
    _, u, _ = _per_sample_terms(q, batch, prior, shape, draws, threads)
    return u.mean(axis=0)


def control_variate_coefficients(
    u: np.ndarray, v: np.ndarray, pooled: bool = False
) -> np.ndarray:
    """Per-coordinate a_hat_j = cov(u_j, v_j) / var(v_j) from sample rows.

    With ``pooled`` a single shared coefficient sum(cov)/sum(var) is used for
    every coordinate.  Coordinates whose control variate has (numerically)
    zero variance get a_hat = 0, which leaves their gradient untouched.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("u and v must both be (S, D)")
    if u.shape[0] < 2:
        raise ValueError("coefficient estimation needs at least two sample rows")
    du = u - u.mean(axis=0)
    dv = v - v.mean(axis=0)
    cov = np.mean(du * dv, axis=0)
    var = np.mean(dv * dv, axis=0)
    if pooled:
        total = float(var.sum())
        shared = float(cov.sum()) / total if total > 1e-300 else 0.0
        return np.full(u.shape[1], shared)
    safe = var > 1e-300
    return np.where(safe, cov / np.where(safe, var, 1.0), 0.0)


def _cv_contributions(
    u: np.ndarray, v: np.ndarray, holdout: bool, pooled: bool,
    a_hat: np.ndarray | None = None,
) -> np.ndarray:
    if a_hat is not None:
        return u - np.asarray(a_hat, dtype=float) * v
    if holdout:
        # First half estimates the coefficients, second half the gradient, so
        # a_hat is independent of the averaged rows.
        s1 = (u.shape[0] + 1) // 2
        a = control_variate_coefficients(u[:s1], v[:s1], pooled=pooled)
        return u[s1:] - a * v[s1:]
    a = control_variate_coefficients(u, v, pooled=pooled)
    return u - a * v


def estimate_gradient_cv(
    q: VariationalParams,
    batch: LabeledBatch,
    prior: PriorConfig,
    draws: SampleMatrix,
    a_hat: np.ndarray | None = None,
    holdout: bool = False,
    pooled: bool = False,
    threads: int = 1,
) -> np.ndarray:
    """Control-variate gradient estimate mean_i [u[i] - a_hat * v[i]].

    ``a_hat=None`` plugs in the in-sample coefficients; pass an explicit
    vector (e.g. zeros) to pin them.
    """
    shape = _resolve_shape(q, batch)
    _, u, v = _per_sample_terms(q, batch, prior, shape, draws, threads)
    return _cv_contributions(u, v, holdout, pooled, a_hat).mean(axis=0)


def step(
    q: VariationalParams, grad: np.ndarray, t: int, schedule: Schedule
) -> VariationalParams:
    """One ascent step on (m, r) with the schedule's rate for iteration t."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (2 * q.K,):
        raise ShapeMismatchError(f"gradient must have length {2 * q.K}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(t)
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
    differs from the previous window's mean by less than conv_rel_tol in
    relative terms; first checkable at iteration 2w - 1.  A NaN/Inf ELBO or
    gradient marks the run diverged and returns the last healthy iterate.
    """
    if batch.p != shape.p:
        raise ShapeMismatchError("batch width does not match network shape")
    if prior.K != shape.K:
        raise ShapeMismatchError("prior length does not match network shape")

    q = initial_params(
        shape.K,
        jitter=config.init_jitter,
        seed=np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)),
    )
    elbos: list[float] = []
    gvars: list[float] = []
    rhos: list[float] = []
    converged = False
    diverged = False
    diverged_at: int | None = None
    w = config.conv_window

    start = time.perf_counter()
    threads = config.threads
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for t in range(config.max_iters):
            draws = sample(
                q, config.S, np.random.SeedSequence(entropy=config.seed, spawn_key=(1, t))
            )
            # overflow here is divergence, detected below, not a warning condition
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                weights, u, v = _per_sample_terms(
                    q, batch, prior, shape, draws, threads, pool
                )
                elbo_t = float(weights.mean())
                if not np.isfinite(elbo_t):
                    diverged, diverged_at = True, t
                    break
                if config.use_control_variates:
                    contrib = _cv_contributions(u, v, config.cv_holdout, config.cv_pooled)
                else:
                    contrib = u
                grad = contrib.mean(axis=0)
            if not np.all(np.isfinite(grad)):
                diverged, diverged_at = True, t
                break
            gvar_t = (
                float(np.mean(np.var(contrib, axis=0, ddof=1)))
                if contrib.shape[0] > 1
                else 0.0
            )
            elbos.append(elbo_t)
            gvars.append(gvar_t)
            rhos.append(config.schedule.rate(t))
            if len(elbos) >= 2 * w:
                recent = float(np.mean(elbos[-w:]))
                previous = float(np.mean(elbos[-2 * w : -w]))
                if abs(recent - previous) / (abs(previous) + 1e-12) < config.conv_rel_tol:
                    converged = True
                    break
            if config.grad_clip is not None:
                grad = np.clip(grad, -config.grad_clip, config.grad_clip)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    q = step(q, grad, t, config.schedule)
            except (NonFiniteGradientError, ValueError):
                # the update itself overflowed; keep the last healthy iterate
                diverged, diverged_at = True, t
                break

    report = TrainReport(
        elbo_trace=np.asarray(elbos),
        grad_var_trace=np.asarray(gvars),
        rho_trace=np.asarray(rhos),
        iterations_run=len(elbos),
        converged=converged,
        wall_time=time.perf_counter() - start,
        diverged=diverged,
        diverged_at=diverged_at,
    )
    return q, report


def save_report_csv(report: TrainReport, path) -> None:
    """Write the traces as iteration,elbo,grad_var,rho_t rows (full precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elbo", "grad_var", "rho_t"])
        for i in range(report.iterations_run):
            writer.writerow(
                [
                    i,
                    repr(float(report.elbo_trace[i])),
                    repr(float(report.grad_var_trace[i])),
                    repr(float(report.rho_trace[i])),
                ]
            )


def report_summary(report: TrainReport) -> dict:
    """Compact JSON-ready digest of a run."""
    return {
        "iterations_run": report.iterations_run,
        "converged": report.converged,
        "diverged": report.diverged,
        "diverged_at": report.diverged_at,
        "final_elbo": (
            float(report.elbo_trace[-1]) if report.iterations_run else None
        ),
        "mean_grad_var": (
            float(report.grad_var_trace.mean()) if report.iterations_run else None
        ),
        "wall_time_s": report.wall_time,
    }
