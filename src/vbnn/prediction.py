"""Posterior-predictive probabilities, logits and plug-in classification.

The predictive probability at x averages the sigmoid of the network score
over M posterior draws:

    p_hat(x) = (1/M) sum_i sigmoid(score(theta[i], x)),  theta[i] ~ q

Note the order matters: averaging probabilities is not the same as squashing
the average score (Jensen gap), and the former is the honest posterior mean
of P(y=1 | x).

Each row of the input gets its own RNG substream, spawned as
SeedSequence(entropy=seed, spawn_key=(row,)), so a row's p_hat depends only
on the seed, its index and its features.  Rows are served in blocks: each
row's M standard normals are drawn from its substream into its slice of one
reused buffer of about 0.5 MB, the block is scaled and shifted to q in
place, and ``model.scores_paired`` scores every row's draws at that row
alone.  A row's result does not depend on the block it lands in.  Serving is
single-threaded; only training is threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logit as _logit

from .model import LabeledBatch, scores_paired, shape_for, sigmoid
from .variational import VariationalParams

__all__ = [
    "PredictiveConfig",
    "predictive_probability",
    "predictive_probabilities",
    "predictive_logit",
    "predictive_logits",
    "classify",
    "classify_batch",
    "test_accuracy",
    "save_predictions_csv",
    "evaluation_dict",
]

@dataclass(frozen=True)
class PredictiveConfig:
    """Monte Carlo budget M, base seed, and the logit clamp epsilon."""

    M: int = 1000
    seed: int = 0
    prob_clamp_eps: float = 1e-12

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 0 < self.prob_clamp_eps < 0.5:
            raise ValueError("prob_clamp_eps must lie in (0, 0.5)")


# Rows are served in blocks whose draws fill about 0.5 MB (at least one row),
# so memory stays near one row's (M, K) draws whatever M is.
_BLOCK_FLOATS = 65_536


def predictive_probabilities(
    q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig
) -> np.ndarray:
    """p_hat for every row of x (n, p); returns values in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-d (n, p)")
    shape = shape_for(q.K, x.shape[1])
    n = x.shape[0]
    rows = max(1, _BLOCK_FLOATS // (cfg.M * q.K))
    block = np.empty((min(rows, n), cfg.M, q.K))
    scale = q.scale
    out = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        draws = block[: stop - start]
        for r, row in enumerate(range(start, stop)):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(row,))
            np.random.default_rng(seq).standard_normal(out=draws[r])
        draws *= scale
        draws += q.mean
        out[start:stop] = sigmoid(scores_paired(draws, x[start:stop], shape)).mean(axis=1)
    return out


def predictive_probability(
    q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig
) -> float:
    """p_hat at a single point x of shape (p,)."""
    return float(predictive_probabilities(q, np.asarray(x, dtype=float)[None, :], cfg)[0])


def predictive_logits(
    q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig
) -> np.ndarray:
    """log(p/(1-p)) of the clamped predictive probabilities.

    Probabilities are clamped to [eps, 1-eps] first so saturated predictions
    produce large finite logits instead of +/-inf.
    """
    probs = predictive_probabilities(q, x, cfg)
    eps = cfg.prob_clamp_eps
    return _logit(np.clip(probs, eps, 1.0 - eps))


def predictive_logit(q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig) -> float:
    return float(predictive_logits(q, np.asarray(x, dtype=float)[None, :], cfg)[0])


def classify_batch(
    q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig
) -> np.ndarray:
    """Plug-in labels: 1 wherever p_hat >= 0.5 (ties go to 1), else 0."""
    probs = predictive_probabilities(q, x, cfg)
    return (probs >= 0.5).astype(np.int64)


def classify(q: VariationalParams, x: np.ndarray, cfg: PredictiveConfig) -> int:
    return int(classify_batch(q, np.asarray(x, dtype=float)[None, :], cfg)[0])


def test_accuracy(
    q: VariationalParams, batch: LabeledBatch, cfg: PredictiveConfig
) -> float:
    """Fraction of batch rows whose plug-in label matches y."""
    if batch.n == 0:
        raise ValueError("accuracy is undefined on an empty batch")
    labels = classify_batch(q, batch.x, cfg)
    return float(np.mean(labels == batch.y))


def save_predictions_csv(path, probs: np.ndarray, labels: np.ndarray) -> None:
    """Write row_id,p_hat,label_hat rows (full float precision)."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    with open(path, "w", newline="") as fh:
        fh.write("row_id,p_hat,label_hat\n")
        for i in range(probs.shape[0]):
            fh.write(f"{i},{float(probs[i])!r},{int(labels[i])}\n")


def evaluation_dict(
    q: VariationalParams, batch: LabeledBatch, cfg: PredictiveConfig
) -> dict:
    """JSON-ready held-out evaluation: {"n", "accuracy", "error_rate"}."""
    acc = test_accuracy(q, batch, cfg)
    return {"n": batch.n, "accuracy": acc, "error_rate": 1.0 - acc}
