"""Distances between conditional-label densities and classification risk.

All quantities integrate over x ~ Uniform[0,1]^p with a seeded Monte Carlo
sample, and report the estimate together with its standard error.

For score functions eta_a, eta_b (log-odds of y=1 given x) the conditional
Bernoulli densities have Hellinger distance

    d_H^2 = 1 - E_X[ sqrt(pa*pb) + sqrt((1-pa)(1-pb)) ],   p* = sigmoid(eta*)

and Kullback-Leibler divergence

    d_KL = E_X[ pa*log(pa/pb) + (1-pa)*log((1-pa)/(1-pb)) ].

The KL integrand is evaluated through softplus identities
(log sigmoid(z) = -softplus(-z)) so saturated scores stay finite, and both
integrands vanish exactly when the two score arrays are identical.

Misclassification risk R(C) = P(C(X) != Y) satisfies, for the plug-in
classifier from predictive probability p_hat,

    R(C_hat) - R(C_Bayes) <= 2 E_X | sigmoid(eta0(X)) - p_hat(X) |.

``diagnostics_dict`` reports the gap (``risk_gap``) and the bound
(``risk_bound``) of a fitted posterior, both estimated point by point on one
point set, with the Hellinger and KL distances to the truth.  Those distances
compare the truth's scores with the logits of p_hat clamped to
[PROB_CLAMP_EPS, 1 - PROB_CLAMP_EPS], so a saturated p_hat stays finite.

The score functions are :class:`TrueFunction` values; their width p sizes
the point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkParams,
    NetworkShape,
    ShapeMismatchError,
    _check_counts,
    check_keys,
    flatten,
    json_field,
    scores_many,
    sigmoid,
    softplus,
    unflatten,
)
from .prediction import PredictiveConfig, plug_in_labels, predictive_probabilities
from .variational import Posterior

__all__ = [
    "IntegrationConfig",
    "MCEstimate",
    "TrueFunction",
    "draw_points",
    "hellinger_distance",
    "kl_distance",
    "diagnostics_dict",
]

# caps the logits of a saturated p_hat at +-logit(1 - 1e-12) ~ 27.6
PROB_CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class IntegrationConfig:
    """Monte Carlo integration budget over the unit cube."""

    n_mc: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(n_mc=(self.n_mc, 2), seed=(self.seed, 0))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class TrueFunction:
    """A score function eta0 on [0,1]^p: constant, linear or a shipped network.
    ``to_json_dict`` and ``from_json_dict`` hold the whole truth-file format."""

    kind: str
    p: int
    value: float = 0.0
    weights: np.ndarray | None = None
    network: NetworkParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear", "network"):
            raise ValueError(f"unknown true-function kind {self.kind!r}")
        _check_counts(p=(self.p, 1))
        if self.kind == "linear":
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.p,):
                raise ValueError("linear truth needs a weight per coordinate")
            object.__setattr__(self, "weights", w)
        if self.kind == "network":
            if self.network is None or self.network.shape.p != self.p:
                raise ValueError("network truth must match the declared width")

    @classmethod
    def constant(cls, value: float, p: int) -> "TrueFunction":
        return cls(kind="constant", p=p, value=float(value))

    @classmethod
    def linear(cls, intercept: float, weights) -> "TrueFunction":
        w = np.asarray(weights, dtype=float)
        return cls(kind="linear", p=w.shape[0], value=float(intercept), weights=w)

    @classmethod
    def from_network(cls, theta: NetworkParams) -> "TrueFunction":
        return cls(kind="network", p=theta.shape.p, network=theta)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ShapeMismatchError(f"x must be (n, p={self.p}) for this truth, got {x.shape}")
        if self.kind == "constant":
            return np.full(x.shape[0], self.value)
        if self.kind == "linear":
            return self.value + x @ self.weights
        return scores_many(flatten(self.network)[None], x, self.network.shape)[0]

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "p": self.p, "value": self.value}
        if self.kind == "linear":
            return {
                "kind": "linear",
                "intercept": self.value,
                "weights": [float(w) for w in self.weights],
            }
        return {"shape": self.network.shape.to_json_dict(),
                "flat_theta": flatten(self.network).tolist(), "kind": "network"}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrueFunction":
        kind = doc.get("kind")
        if kind == "constant":
            check_keys(doc, ("kind", "p", "value"), "a constant truth")
            return cls.constant(json_field(doc, "value", float), json_field(doc, "p", int))
        if kind == "linear":
            check_keys(doc, ("kind", "intercept", "weights"), "a linear truth")
            return cls.linear(json_field(doc, "intercept", float),
                              json_field(doc, "weights", list[float]))
        if kind == "network":
            check_keys(doc, ("kind", "shape", "flat_theta"), "a network truth")
            shape = NetworkShape.from_json_dict(json_field(doc, "shape", dict))
            return cls.from_network(unflatten(json_field(doc, "flat_theta", list[float]), shape))
        raise ValueError(f"unknown true-function kind {kind!r}")


def draw_points(cfg: IntegrationConfig, p: int) -> np.ndarray:
    """The seeded uniform sample over [0,1]^p shared by all integrals, from its own stream
    SeedSequence(entropy=cfg.seed, spawn_key=(4,)), not ``generate_synthetic``'s."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(4,)))
    return rng.random((cfg.n_mc, p))


def _mean_with_se(arr: np.ndarray) -> tuple[float, float]:
    n = arr.shape[0]
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(arr.mean()), se


def _hellinger_core(za: np.ndarray, zb: np.ndarray) -> MCEstimate:
    pa, pb = sigmoid(za), sigmoid(zb)
    qa, qb = 1.0 - pa, 1.0 - pb
    affinity = np.sqrt(pa * pb) + np.sqrt(qa * qb)
    integrand = np.maximum(0.0, 1.0 - affinity)
    mean, se = _mean_with_se(integrand)
    value = math.sqrt(mean)
    stderr = se / (2.0 * value) if value > 0.0 else 0.0
    return MCEstimate(value=value, stderr=stderr)


def _kl_core(za: np.ndarray, zb: np.ndarray) -> MCEstimate:
    # log pa - log pb = softplus(-zb) - softplus(-za), and likewise for 1-p.
    pa, qa = sigmoid(za), sigmoid(-za)
    integrand = pa * (softplus(-zb) - softplus(-za)) + qa * (
        softplus(zb) - softplus(za)
    )
    mean, se = _mean_with_se(integrand)
    return MCEstimate(value=mean, stderr=se)


def hellinger_distance(eta_a: TrueFunction, eta_b: TrueFunction,
                       cfg: IntegrationConfig) -> MCEstimate:
    """Hellinger distance between the label densities of two score functions."""
    x = draw_points(cfg, eta_a.p)
    return _hellinger_core(np.asarray(eta_a(x), float), np.asarray(eta_b(x), float))


def kl_distance(eta_a: TrueFunction, eta_b: TrueFunction, cfg: IntegrationConfig) -> MCEstimate:
    """KL divergence d_KL(ell_a || ell_b); asymmetric in its arguments."""
    x = draw_points(cfg, eta_a.p)
    return _kl_core(np.asarray(eta_a(x), float), np.asarray(eta_b(x), float))


def diagnostics_dict(
    post: Posterior,
    truth: TrueFunction,
    pred_cfg: PredictiveConfig,
    cfg: IntegrationConfig,
) -> dict:
    """Posterior-consistency summary: distances plus risk gap in one pass.

    The predictive probabilities are computed once on the shared point set
    and reused for the Hellinger/KL integrands (through clamped logits) and
    for the plug-in and Bayes risks, both taken against the true conditional
    p0 on the same points, so the gap is nonnegative point by point.  Raises
    ShapeMismatchError unless the truth has the posterior's input width.
    """
    if truth.p != post.shape.p:
        raise ShapeMismatchError(f"truth has p={truth.p} but the posterior takes p={post.shape.p}")
    x = draw_points(cfg, truth.p)
    z0 = truth(x)
    p0 = sigmoid(z0)
    p_hat = predictive_probabilities(post, x, pred_cfg)
    clamped = np.clip(p_hat, PROB_CLAMP_EPS, 1.0 - PROB_CLAMP_EPS)
    z_hat = np.log(clamped) - np.log1p(-clamped)

    hell = _hellinger_core(z0, z_hat)
    kl = _kl_core(z0, z_hat)
    err_bayes = np.minimum(p0, 1.0 - p0)
    gap, gap_se = _mean_with_se(np.where(plug_in_labels(p_hat) == 1, 1.0 - p0, p0) - err_bayes)
    bound, bound_se = _mean_with_se(2.0 * np.abs(p0 - p_hat))
    return {
        "hellinger": hell.value,
        "hellinger_stderr": hell.stderr,
        "kl": kl.value,
        "kl_stderr": kl.stderr,
        "bayes_risk": float(err_bayes.mean()),
        "risk_gap": gap,
        "risk_gap_stderr": gap_se,
        "risk_bound": bound,
        "risk_bound_stderr": bound_se,
        "n_mc": cfg.n_mc,
        "seed": cfg.seed,
    }
