"""Mean-field Gaussian variational family and its score-function gradients.

q(theta) = prod_j N(theta_j; m_j, s_j^2) with the positive scale expressed
through a softplus reparametrization s_j = log(1 + exp(r_j)), so both m and r
are free real vectors and gradient steps can never leave the family.

The gradients of log q follow the standard mean-field Gaussian forms

    d/dm_j  log q = (theta_j - m_j) / s_j^2
    d/ds_j  log q = (theta_j - m_j)^2 / s_j^3 - 1 / s_j
    d/dr_j  log q = sigmoid(r_j) * d/ds_j log q      (softplus chain rule)

with s_j floored at 1e-6 inside gradient evaluation only, to keep the
estimator finite when a coordinate collapses.  Densities themselves use the
unclamped scale.

A :class:`Posterior` is the fitted q together with the network shape and
the prior it was fitted under; serving takes it, and its JSON form is the
``shape``, ``prior`` and ``variational`` keys of ``model.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    _check_counts,
    check_keys,
    json_field,
    normal_logpdf_total,
    sigmoid,
    softplus,
)

__all__ = [
    "SCALE_FLOOR",
    "VariationalParams",
    "Posterior",
    "SampleMatrix",
    "softplus_inverse",
    "initial_params",
    "sample",
    "log_q",
    "grad_log_q_mean",
    "grad_log_q_scale",
    "grad_log_q_raw",
]

# Floor applied to s inside gradient formulas only (never in log_q itself).
SCALE_FLOOR = 1e-6

# Smallest positive double; keeps softplus(r) strictly positive even when
# exp(r) underflows (r < ~-745).
_TINY = float(np.finfo(float).tiny)


def softplus_inverse(s):
    """r such that softplus(r) = s, i.e. log(e^s - 1), stable for all s > 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("softplus_inverse requires s > 0")
    return s + np.log(-np.expm1(-s))


@dataclass(frozen=True)
class VariationalParams:
    """Free parameters (m, r) of the mean-field Gaussian approximation."""

    mean: np.ndarray
    raw_scale: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float)
        r = np.asarray(self.raw_scale, dtype=float)
        if m.ndim != 1 or m.shape != r.shape:
            raise ValueError("mean and raw_scale must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(r))):
            raise ValueError("variational parameters must be finite")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "raw_scale", r)

    @property
    def K(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def scale(self) -> np.ndarray:
        """Per-coordinate standard deviations softplus(r), strictly positive.

        Computed once per q, on first use, and shared by :func:`sample`,
        :func:`log_q` and the gradients, so the array is read-only.
        """
        s = np.maximum(softplus(self.raw_scale), _TINY)
        s.flags.writeable = False
        return s

    @cached_property
    def floored_scale(self) -> np.ndarray:
        """``scale`` floored at SCALE_FLOOR, the s of the gradient formulas.

        Computed once per q, on first use, and read-only, like ``scale``.
        """
        s = np.maximum(self.scale, SCALE_FLOOR)
        s.flags.writeable = False
        return s

    def to_json_dict(self) -> dict:
        return {"m": [float(v) for v in self.mean], "r": [float(v) for v in self.raw_scale]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "VariationalParams":
        check_keys(doc, ("m", "r"), "variational parameters")
        return cls(mean=json_field(doc, "m", list[float]),
                   raw_scale=json_field(doc, "r", list[float]))


@dataclass(frozen=True)
class Posterior:
    """A fitted q with the network shape and the prior it was fitted under."""

    shape: NetworkShape
    q: VariationalParams
    prior: PriorConfig

    def __post_init__(self) -> None:
        if not self.q.K == self.prior.K == self.shape.K:
            raise ShapeMismatchError(
                f"a p={self.shape.p}, k={self.shape.k} network has {self.shape.K} "
                f"parameters, but q has {self.q.K} and the prior {self.prior.K}"
            )

    def to_json_dict(self) -> dict:
        return {
            "shape": self.shape.to_json_dict(),
            "prior": {"mu": self.prior.mu.tolist(), "zeta": self.prior.zeta.tolist()},
            "variational": self.q.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Posterior":
        shape = NetworkShape.from_json_dict(json_field(doc, "shape", dict))
        q = VariationalParams.from_json_dict(json_field(doc, "variational", dict))
        prior = json_field(doc, "prior", dict)
        check_keys(prior, ("mu", "zeta"), "a prior")
        return cls(shape, q, PriorConfig(mu=json_field(prior, "mu", list[float]),
                                         zeta=json_field(prior, "zeta", list[float])))


def initial_params(K: int) -> VariationalParams:
    """Starting point m = 0, s = 1 in every coordinate."""
    _check_counts(K=(K, 1))
    return VariationalParams(mean=np.zeros(K), raw_scale=np.full(K, softplus_inverse(1.0)))


@dataclass(frozen=True)
class SampleMatrix:
    """S draws from q, one flat parameter vector per row."""

    thetas: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.thetas, dtype=float)
        if t.ndim != 2 or t.shape[0] < 1:
            raise ValueError("thetas must be (S, K) with S >= 1")
        object.__setattr__(self, "thetas", t)


def sample(q: VariationalParams, S: int, seed) -> SampleMatrix:
    """Draw S vectors theta = m + s * z, z ~ N(0, I), seeded by a SeedSequence or an int."""
    _check_counts(S=(S, 1))
    if not isinstance(seed, np.random.SeedSequence):
        _check_counts(seed=(seed, 0))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((S, q.K))
    return SampleMatrix(thetas=q.mean + q.scale * z)


def log_q(q: VariationalParams, theta: np.ndarray):
    """Variational log-density at theta; accepts (K,) or stacked (..., K)."""
    return normal_logpdf_total(theta, q.mean, q.scale)


def grad_log_q_mean(q: VariationalParams, theta: np.ndarray) -> np.ndarray:
    """d log q / dm, evaluated coordinate-wise: (theta - m) / s^2."""
    s = q.floored_scale
    return (np.asarray(theta, dtype=float) - q.mean) / (s * s)


def grad_log_q_scale(q: VariationalParams, theta: np.ndarray) -> np.ndarray:
    """d log q / ds: (theta - m)^2 / s^3 - 1 / s."""
    s = q.floored_scale
    d = np.asarray(theta, dtype=float) - q.mean
    return d * d / (s * s * s) - 1.0 / s


def grad_log_q_raw(q: VariationalParams, theta: np.ndarray) -> np.ndarray:
    """d log q / dr via the softplus chain rule: sigmoid(r) * d log q / ds."""
    return sigmoid(q.raw_scale) * grad_log_q_scale(q, theta)
