import numpy as np
import pytest
from scipy.special import expit

from vbnn.data import REFERENCE_TRUTH
from vbnn.model import NetworkParams, NetworkShape, PriorConfig, unflatten_many

# Network shapes used across the suite: the smallest legal network and the
# synthetic benchmark size.
TOY_SHAPE = NetworkShape(p=1, k=1)
BENCH_SHAPE = REFERENCE_TRUTH.network.shape


def implied_thetas(mean, scale, z, x, shape: NetworkShape) -> np.ndarray:
    """The (M, K) networks that one row's normals z (k+1, M) stand for at x (p,).

    Each draw keeps the hidden weights at their means and moves the hidden
    biases by the pre-activations' exact standard deviations times z[1:].
    With w_j the hidden units at x and sigma^2 = s_beta0^2 + sum_j s_betaj^2 w_j^2
    the score's variance given them, it sets beta0 = m_beta0 + s_beta0^2 z0/sigma
    and beta_j = m_betaj + s_betaj^2 w_j z0/sigma, so that at x the network's
    score is m_beta0 + sum_j m_betaj w_j + sigma z0, the draw's score.  Every
    standard deviation is a plain square root of a sum of squares.
    """
    k = shape.k
    beta0_m, beta_m, gamma0_m, gamma_m = unflatten_many(mean, shape)
    beta0_s, beta_s, gamma0_s, gamma_s = unflatten_many(scale, shape)
    sd = np.sqrt(gamma0_s**2 + gamma_s**2 @ x**2)
    gamma0 = gamma0_m[:, None] + sd[:, None] * z[1:]
    w = expit(gamma0 + (gamma_m @ x)[:, None])
    sigma = np.sqrt(beta0_s**2 + (beta_s[:, None] ** 2 * w**2).sum(axis=0))
    thetas = np.empty((z.shape[1], shape.K))
    thetas[:, 0] = beta0_m + beta0_s**2 * z[0] / sigma
    thetas[:, 1 : 1 + k] = (beta_m[:, None] + beta_s[:, None] ** 2 * w * z[0] / sigma).T
    thetas[:, 1 + k : 1 + 2 * k] = gamma0.T
    thetas[:, 1 + 2 * k :] = gamma_m.ravel()
    return thetas


def scores_bound(mean, scale, z, x, shape: NetworkShape) -> np.ndarray:
    """model.scores' documented error bound (R, M) for normals z (R, k+1, M) at
    x (R, p): (k + 12) * 2^-24 * B * (1 + H) for each draw."""
    beta0_m, beta_m, gamma0_m, gamma_m = unflatten_many(mean, shape)
    beta0_s, beta_s, gamma0_s, gamma_s = unflatten_many(scale, shape)
    loc = (gamma0_m + x @ gamma_m.T) / 2
    sd = np.sqrt(gamma0_s**2 + x**2 @ (gamma_s**2).T) / 2
    H = (np.abs(loc)[:, :, None] + np.abs(z[:, 1:]) * sd[:, :, None]).max(axis=1)
    B = abs(beta0_m) + np.abs(beta_m).sum() + np.abs(z[:, 0]) * (beta0_s + beta_s.sum())
    return (shape.k + 12) * 2.0**-24 * B * (1 + H)


def p_hat_bound(mean, scale, z, x, shape: NetworkShape) -> np.ndarray:
    """predictive_probabilities' documented error bound (R,) for normals z
    (R, k+1, M) at x (R, p): a quarter of the mean score bound plus 8 * 2^-24."""
    return scores_bound(mean, scale, z, x, shape).mean(axis=1) / 4 + 8 * 2.0**-24


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_theta(rng):
    def make(shape: NetworkShape, scale: float = 1.0) -> NetworkParams:
        return NetworkParams(
            beta0=float(rng.normal(0, scale)),
            beta=rng.normal(0, scale, shape.k),
            gamma0=rng.normal(0, scale, shape.k),
            gamma=rng.normal(0, scale, (shape.k, shape.p)),
        )

    return make


@pytest.fixture
def standard_prior():
    def make(shape: NetworkShape) -> PriorConfig:
        return PriorConfig.standard(shape.K)

    return make
