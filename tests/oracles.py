"""Independent numerical oracles shared by unit and acceptance tests.

The ELBO oracle integrates E_q[log joint] with a tensor-product
Gauss-Hermite rule (exact for the Gaussian q up to polynomial truncation)
and adds the analytic Gaussian entropy.  It never touches the code under
test: its log joint is its own float64 numpy arithmetic, with the scalar
oracle's formula score = beta0 + sum_j beta_j * sigmoid(gamma0_j + gamma_j . x),
so its finite differences do not difference the likelihood's float32 rounding.
"""

import numpy as np
from scipy.special import expit


def log_joint(thetas, batch, prior, shape) -> np.ndarray:
    """log p(y | theta, x) + log p(theta) of flat (N, K) vectors
    [beta0, beta, gamma0, Gamma row-major], in float64."""
    k, p = shape.k, shape.p
    beta0, beta = thetas[:, 0], thetas[:, 1 : 1 + k]
    gamma0 = thetas[:, 1 + k : 1 + 2 * k]
    gamma = thetas[:, 1 + 2 * k :].reshape(-1, k, p)
    hidden = expit(gamma0[:, :, None] + gamma @ batch.x.T)  # (N, k, n)
    score = beta0[:, None] + np.einsum("sk,skn->sn", beta, hidden)
    log_lik = -np.logaddexp(0.0, (1 - 2 * batch.y) * score).sum(axis=1)
    z = (thetas - prior.mu) / prior.zeta
    log_prior = -0.5 * (z * z).sum(axis=1) - np.log(prior.zeta).sum() \
        - 0.5 * thetas.shape[1] * np.log(2.0 * np.pi)
    return log_lik + log_prior


def gauss_hermite_elbo(mean, scale, batch, prior, shape, nodes=20) -> float:
    """ELBO via K-dimensional Gauss-Hermite quadrature plus exact entropy."""
    mean = np.asarray(mean, dtype=float)
    scale = np.asarray(scale, dtype=float)
    K = mean.shape[0]
    x, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x] * K), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * K), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    thetas = mean + np.sqrt(2.0) * scale * pts
    lj = log_joint(thetas, batch, prior, shape)
    e_log_joint = float(np.sum(wts * lj) / np.pi ** (K / 2))
    entropy = float(np.sum(0.5 * np.log(2.0 * np.pi * np.e * scale * scale)))
    return e_log_joint + entropy


def gauss_hermite_elbo_free(m, r, batch, prior, shape, nodes=20) -> float:
    """Same oracle as a function of the free parameters (m, r)."""
    return gauss_hermite_elbo(m, np.logaddexp(0.0, r), batch, prior, shape, nodes)


def fd_gradient(f, x0, h):
    """Central finite differences of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for j in range(x0.size):
        up, down = x0.copy(), x0.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2.0 * h)
    return grad


def elbo_gradient_oracle(q_mean, q_raw, batch, prior, shape, h=1e-5, nodes=20):
    """Quadrature + finite-difference gradient of the ELBO over (m, r)."""
    K = q_mean.shape[0]

    def f(free):
        return gauss_hermite_elbo_free(free[:K], free[K:], batch, prior, shape, nodes)

    free0 = np.concatenate([q_mean, q_raw])
    return fd_gradient(f, free0, h)
