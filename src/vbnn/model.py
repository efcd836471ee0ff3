"""Single-hidden-layer network score, Bernoulli likelihood, Gaussian prior.

The classifier is a logistic model whose log-odds ("score") come from a
one-hidden-layer network with sigmoid activations:

    score(x) = beta0 + sum_j beta_j * sigmoid(gamma0_j + gamma_j . x)

All parameters live in a single flat vector of length K = k*(p+2)+1 so the
inference code can treat the model as a generic density over R^K.  Flattening
order is [beta0, beta, gamma0, Gamma row-major]; ``flatten``/``unflatten``
are exact inverses of each other.

Every score comes from one of two kernels with the same arithmetic.
:func:`scores_many` scores S parameter vectors on every row of x in an
(S, k, n) layout; the single-network functions wrap it.  Row s of its output
depends only on parameter row s, so any contiguous split of the rows is
byte-identical.  :func:`scores_paired` scores posterior-predictive draws,
where row r's own stack of M vectors meets x[r] alone; its row r depends only
on that stack and x[r].  Hidden units use sigmoid(z) = 0.5 + 0.5*tanh(z/2),
exact to a few ulps in absolute terms; output probabilities (``sigmoid``) and
the likelihood (``softplus``) stay tail-exact.

Everything here is pure and side-effect free, so the functions are safe to
call from worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "PriorConfig",
    "LabeledBatch",
    "ShapeMismatchError",
    "sigmoid",
    "softplus",
    "shape_for",
    "flatten",
    "unflatten",
    "unflatten_many",
    "forward_score",
    "batch_scores",
    "scores_many",
    "scores_paired",
    "log_sigmoid_likelihood",
    "log_likelihood_many",
    "log_prior",
    "log_joint",
    "log_joint_many",
    "normal_logpdf_total",
    "network_to_json_dict",
    "network_from_json_dict",
]


class ShapeMismatchError(ValueError):
    """An argument's dimensions disagree with the declared network shape."""


def softplus(z):
    """Overflow-safe log(1 + e^z), computed as max(z, 0) + log1p(e^-|z|)."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class NetworkShape:
    """Input width ``p`` and hidden-node count ``k``.

    Fixes the flat parameter length: one output bias, k output weights,
    k hidden biases and a k-by-p hidden weight matrix.
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        if int(self.p) != self.p or int(self.k) != self.k:
            raise ShapeMismatchError("p and k must be integers")
        if self.p < 1 or self.k < 1:
            raise ShapeMismatchError(f"p and k must be >= 1, got p={self.p}, k={self.k}")

    @property
    def K(self) -> int:
        return self.k * (self.p + 2) + 1


def shape_for(K: int, p: int) -> NetworkShape:
    """Recover the network shape from a flat length and an input width."""
    k, rem = divmod(K - 1, p + 2)
    if rem != 0 or k < 1:
        raise ShapeMismatchError(f"flat length {K} is impossible for input width {p}")
    return NetworkShape(p=p, k=k)


@dataclass(frozen=True)
class NetworkParams:
    """Structured view of one parameter vector.

    beta0:  output bias (scalar)
    beta:   output weights, shape (k,)
    gamma0: hidden biases, shape (k,)
    gamma:  hidden weights, shape (k, p)
    """

    beta0: float
    beta: np.ndarray
    gamma0: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        for name in ("beta", "gamma0", "gamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k = self.beta.shape[0]
        if self.beta.ndim != 1 or self.gamma0.shape != (k,):
            raise ShapeMismatchError("beta and gamma0 must be 1-d with equal length")
        if self.gamma.ndim != 2 or self.gamma.shape[0] != k:
            raise ShapeMismatchError("gamma must be (k, p)")
        arrays = (self.beta, self.gamma0, self.gamma)
        if not (np.isfinite(self.beta0) and all(np.all(np.isfinite(a)) for a in arrays)):
            raise ValueError("network parameters must be finite")

    @property
    def shape(self) -> NetworkShape:
        return NetworkShape(p=self.gamma.shape[1], k=self.beta.shape[0])


def flatten(theta: NetworkParams) -> np.ndarray:
    """Pack parameters as [beta0, beta, gamma0, Gamma row-major]."""
    return np.concatenate(
        [[float(theta.beta0)], theta.beta, theta.gamma0, theta.gamma.ravel()]
    )


def unflatten(flat: np.ndarray, shape: NetworkShape) -> NetworkParams:
    """Inverse of :func:`flatten`; exact bijection (values copied verbatim)."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (shape.K,):
        raise ShapeMismatchError(f"expected flat length {shape.K}, got {flat.shape}")
    beta0, beta, gamma0, gamma = unflatten_many(flat, shape)
    return NetworkParams(beta0=float(beta0), beta=beta.copy(),
                         gamma0=gamma0.copy(), gamma=gamma.copy())


def unflatten_many(thetas: np.ndarray, shape: NetworkShape):
    """Slice a stack of flat vectors (..., K) into (beta0, beta, gamma0, Gamma) views."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[-1] != shape.K:
        raise ShapeMismatchError(f"expected flat length {shape.K}, got {thetas.shape[-1]}")
    k, p = shape.k, shape.p
    beta0 = thetas[..., 0]
    beta = thetas[..., 1 : 1 + k]
    gamma0 = thetas[..., 1 + k : 1 + 2 * k]
    gamma = thetas[..., 1 + 2 * k :].reshape(*thetas.shape[:-1], k, p)
    return beta0, beta, gamma0, gamma


@dataclass(frozen=True)
class PriorConfig:
    """Independent Gaussian prior N(mu_j, zeta_j^2) on every flat coordinate."""

    mu: np.ndarray
    zeta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.mu.shape != self.zeta.shape or self.mu.ndim != 1:
            raise ValueError("mu and zeta must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(self.zeta)):
            raise ValueError("prior parameters must be finite")
        if np.any(self.zeta <= 0):
            raise ValueError("prior scales zeta must be positive")

    @property
    def K(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def standard(cls, K: int) -> "PriorConfig":
        """The default N(0, 1) prior on every coordinate."""
        return cls(mu=np.zeros(K), zeta=np.ones(K))


@dataclass(frozen=True)
class LabeledBatch:
    """A design matrix with binary labels.  ``n`` may be zero (empty batch)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2:
            raise ShapeMismatchError("x must be 2-d (n, p)")
        if y.shape != (x.shape[0],):
            raise ShapeMismatchError("y must be 1-d with one label per row of x")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        y_int = y.astype(np.int64)
        if y.size and (np.any(y_int != y) or not np.all((y_int == 0) | (y_int == 1))):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y_int)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def scores_many(thetas: np.ndarray, x: np.ndarray, shape: NetworkShape) -> np.ndarray:
    """Scores of S flat parameter vectors (S, K) on x (n, p); returns (S, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != shape.p:
        raise ShapeMismatchError("x must be (n, p) matching the network input width")
    beta0, beta, gamma0, gamma = unflatten_many(np.atleast_2d(thetas), shape)
    # With t_j = tanh((gamma0_j + gamma_j . x) / 2) the score is
    # beta0 + sum(beta)/2 + sum_j (beta_j/2) t_j.  The halvings scale the small
    # weights, where they are exact, instead of the (S, k, n) array.
    weights = 0.5 * np.concatenate([gamma, gamma0[:, :, None]], axis=2)
    hidden = weights @ np.vstack([x.T, np.ones(x.shape[0])])
    np.tanh(hidden, out=hidden)
    half_beta = 0.5 * beta
    out = (half_beta[:, None, :] @ hidden)[:, 0, :]
    out += (beta0 + half_beta.sum(axis=1))[:, None]
    return out


def scores_paired(thetas: np.ndarray, x: np.ndarray, shape: NetworkShape) -> np.ndarray:
    """Scores of R stacks of M flat vectors (R, M, K), stack r only at x[r]; returns (R, M).

    The arithmetic is :func:`scores_many`'s: t_j = tanh((gamma0_j + gamma_j . x) / 2)
    and score = beta0 + sum(beta)/2 + (sum_j beta_j t_j)/2, where halving
    the sum is exact.  Row r's halved pre-activations are one (M, K) @ (K, k)
    product of its stack against the linear map theta -> (gamma0 + Gamma x[r])/2,
    and beta0 + sum(beta)/2 is one (M, K) @ (K,) product.  Each batch item of
    a matmul is its own BLAS call, so row r of the output depends only on
    thetas[r] and x[r], never on R or on r's position.
    """
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if x.ndim != 2 or x.shape[1] != shape.p:
        raise ShapeMismatchError("x must be (R, p) matching the network input width")
    if thetas.ndim != 3 or thetas.shape[0] != x.shape[0]:
        raise ShapeMismatchError("thetas must be (R, M, K), one stack per row of x")
    _, beta, _, _ = unflatten_many(thetas, shape)
    k, p, R = shape.k, shape.p, x.shape[0]
    half_eye = 0.5 * np.eye(k)
    hidden_maps = np.concatenate([
        np.zeros((R, 1 + k, k)),
        np.broadcast_to(half_eye, (R, k, k)),
        (x[:, None, :, None] * half_eye[:, None, :]).reshape(R, k * p, k),
    ], axis=1)
    hidden = thetas @ hidden_maps
    np.tanh(hidden, out=hidden)
    out = np.einsum("rmk,rmk->rm", beta, hidden)
    out *= 0.5
    out += thetas @ np.concatenate([[1.0], np.full(k, 0.5), np.zeros(k * (p + 1))])
    return out


def batch_scores(theta: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Network scores for a design matrix x of shape (n, p)."""
    return scores_many(flatten(theta)[None], x, theta.shape)[0]


def forward_score(theta: NetworkParams, x: np.ndarray) -> float:
    """Network score for a single point x of shape (p,)."""
    return float(batch_scores(theta, np.asarray(x, dtype=float)[None])[0])


def log_likelihood_many(
    thetas: np.ndarray, batch: LabeledBatch, shape: NetworkShape
) -> np.ndarray:
    """Bernoulli log-likelihood of the batch under each of S flat vectors.

    Per row, sum_i [y_i * score_i - softplus(score_i)], evaluated through the
    identity y*z - softplus(z) = -softplus((1-2y)*z), which keeps the tiny
    tail contributions of saturated scores (for y=1, z=50 the exact value is
    about -1.93e-22, which the subtraction form would cancel to -0.0).
    Always <= 0; an empty batch contributes exactly 0.
    """
    scores = scores_many(thetas, batch.x, shape)
    scores *= (1 - 2 * batch.y).astype(float)
    return -softplus(scores).sum(axis=1)


def log_sigmoid_likelihood(theta: NetworkParams, batch: LabeledBatch) -> float:
    """Bernoulli log-likelihood of one network; see :func:`log_likelihood_many`."""
    return float(log_likelihood_many(flatten(theta)[None], batch, theta.shape)[0])


def normal_logpdf_total(x, mean, sd) -> np.ndarray:
    """Sum of independent Normal log-densities along the last axis."""
    x = np.asarray(x, dtype=float)
    z = (x - mean) / sd
    return -0.5 * np.sum(z * z + np.log(2.0 * np.pi) + 2.0 * np.log(sd), axis=-1)


def log_prior(theta, prior: PriorConfig):
    """Gaussian prior log-density; accepts NetworkParams or flat (..., K) arrays."""
    flat = flatten(theta) if isinstance(theta, NetworkParams) else np.asarray(theta, dtype=float)
    if flat.shape[-1] != prior.K:
        raise ShapeMismatchError("parameter length does not match prior length")
    out = normal_logpdf_total(flat, prior.mu, prior.zeta)
    return float(out) if flat.ndim == 1 else out


def log_joint(theta: NetworkParams, batch: LabeledBatch, prior: PriorConfig) -> float:
    """log p(y | theta, x) + log p(theta); the unnormalized posterior density."""
    return float(log_joint_many(flatten(theta)[None], batch, prior, theta.shape)[0])


def log_joint_many(
    thetas: np.ndarray, batch: LabeledBatch, prior: PriorConfig, shape: NetworkShape
) -> np.ndarray:
    """Log joint density of the batch under each of S flat parameter vectors."""
    return log_likelihood_many(thetas, batch, shape) + log_prior(np.atleast_2d(thetas), prior)


def network_to_json_dict(theta: NetworkParams) -> dict:
    """Portable artifact form: {"shape": {"p", "k"}, "flat_theta": [...]}."""
    shape = theta.shape
    return {"shape": {"p": shape.p, "k": shape.k}, "flat_theta": flatten(theta).tolist()}


def network_from_json_dict(doc: dict) -> NetworkParams:
    shape = NetworkShape(p=int(doc["shape"]["p"]), k=int(doc["shape"]["k"]))
    flat = np.asarray(doc["flat_theta"], dtype=float)
    return unflatten(flat, shape)
