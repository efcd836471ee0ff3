"""Posterior-predictive probabilities and plug-in accuracy.

The predictive probability at x averages the sigmoid of the network score
over M draws from a :class:`~vbnn.variational.Posterior`'s q:

    p_hat(x) = (1/M) sum_i sigmoid(score(theta[i], x)),  theta[i] ~ q

Note the order matters: averaging probabilities is not the same as squashing
the average score (Jensen gap), and the former is the honest posterior mean
of P(y=1 | x).  The plug-in label is 1 wherever p_hat >= 0.5, so an exact tie
is labelled 1.  x must have the posterior's input width p; any other width
raises ShapeMismatchError.

Each call draws from one stream: an SFC64 generator, which draws normals
faster than numpy's default PCG64, seeded by SeedSequence(entropy=seed,
spawn_key=(3,)), a key neither ``metrics.draw_points`` nor training uses.
At a fixed x the hidden pre-activations are exactly Gaussian under q, and so
is the score given the hidden units, so a score draw takes D = k+1 normals
(``model.scores``), and row r owns normals r*M*D to (r+1)*M*D - 1, laid out
(D, M): its p_hat depends only on the seed, its index and its features, and
its Monte Carlo error is independent of every other row's.  Blocks of rows
fill one reused float32 buffer of about 0.25 MB with one ``standard_normal``
call each.  The normals, the scores and their sigmoids are float32 (see
``model.scores`` for the error bound and the range), and each row's mean is
taken in float64.  Serving is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LabeledBatch, ShapeMismatchError, scores, sigmoid
from .variational import Posterior

__all__ = [
    "PredictiveConfig",
    "predictive_probabilities",
    "plug_in_labels",
    "test_accuracy",
    "evaluation_dict",
]

@dataclass(frozen=True)
class PredictiveConfig:
    """Monte Carlo budget M and base seed."""

    M: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# Rows are served in blocks whose float32 normals fill about 0.25 MB (at least
# one row), so memory stays near one row's (D, M) normals whatever M is.
_BLOCK_FLOATS = 65_536


def predictive_probabilities(
    post: Posterior, x: np.ndarray, cfg: PredictiveConfig
) -> np.ndarray:
    """p_hat for every row of x (n, p); returns float64 values in [0, 1].

    sigmoid's slope is at most 1/4, so each p_hat is within a quarter of the
    mean of its draws' score bounds (see ``model.scores``) plus 8 * 2^-24
    (float32's sigmoid) of the float64 evaluation of the same normals.
    Raises ShapeMismatchError unless x is 2-d with the posterior's input width p.
    """
    x, shape = np.asarray(x, dtype=float), post.shape
    if x.ndim != 2 or x.shape[1] != shape.p:
        raise ShapeMismatchError(f"x must be (n, p={shape.p}) for this posterior, got {x.shape}")
    mean, scale = post.q.mean, post.q.scale
    n, D = x.shape[0], shape.k + 1
    rows = max(1, _BLOCK_FLOATS // (cfg.M * D))
    block = np.empty((min(rows, n), D, cfg.M), dtype=np.float32)
    seeds = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3,))
    rng = np.random.Generator(np.random.SFC64(seeds))
    out = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        z = rng.standard_normal(out=block[: stop - start], dtype=np.float32)
        p = sigmoid(scores(z, x[start:stop], mean, scale, shape))
        out[start:stop] = p.mean(axis=1, dtype=float)
    return out


def plug_in_labels(p_hat) -> np.ndarray:
    """int64 plug-in labels: 1 where p_hat >= 0.5 (so a tie is 1), else 0."""
    return (np.asarray(p_hat) >= 0.5).astype(np.int64)


def test_accuracy(post: Posterior, batch: LabeledBatch, cfg: PredictiveConfig) -> float:
    """Fraction of batch rows whose plug-in label matches y."""
    if batch.n == 0:
        raise ValueError("accuracy is undefined on an empty batch")
    labels = plug_in_labels(predictive_probabilities(post, batch.x, cfg))
    return float(np.mean(labels == batch.y))


def evaluation_dict(post: Posterior, batch: LabeledBatch, cfg: PredictiveConfig) -> dict:
    """JSON-ready held-out evaluation: {"n", "accuracy", "error_rate"}."""
    acc = test_accuracy(post, batch, cfg)
    return {"n": batch.n, "accuracy": acc, "error_rate": 1.0 - acc}
