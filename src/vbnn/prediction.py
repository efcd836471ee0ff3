"""Posterior-predictive probabilities and plug-in accuracy.

The predictive probability at x averages the sigmoid of the network score
over M draws from a :class:`~vbnn.variational.Posterior`'s q:

    p_hat(x) = (1/M) sum_i sigmoid(score(theta[i], x)),  theta[i] ~ q

Note the order matters: averaging probabilities is not the same as squashing
the average score (Jensen gap), and the former is the honest posterior mean
of P(y=1 | x).  The plug-in label is 1 wherever p_hat >= 0.5, so an exact tie
is labelled 1.  x must have the posterior's input width p; any other width
raises ShapeMismatchError.

Each call draws from one stream: an SFC64 generator seeded by
SeedSequence(entropy=seed, spawn_key=(3,)), a key neither training's (1, t)
nor ``metrics.draw_points``' (4,) uses.
At a fixed x the hidden pre-activations are exactly Gaussian under q, and so
is the score given the hidden units, so a score draw takes D = k+1 normals
(``model.scores``).  With h = ceil(D*M/2), row r owns the stream's 64-bit
words r*h to (r+1)*h - 1.  Each word gives two uniforms, its low 32 bits
first, and each uniform is its half's top 24 bits times 2^-24: the same
floats that numpy's float32 ``Generator.random`` gives on SFC64.  Of a row's
2h uniforms the first h are U1 and the next h are U2.  Its normals are
the Box-Muller (1958) pairs R cos A followed by R sin A, with
R = sqrt(-2 log(1 - U1)) and A = 2 pi U2 in float32, cut to D*M values and
laid out (D, M).  So its p_hat depends only on the seed, its index and its
features, and its Monte Carlo error is independent of every other row's.
Since 1 - U1 >= 2^-24, every |z| <= sqrt(48 ln 2) ~ 5.768 (see
:func:`predictive_probabilities`).  Blocks of rows fill one reused float32
buffer of about 0.5 MB from one ``random_raw`` call each, whose words are
turned straight into 1 - U1 and A, and the normals are built in place
there, with cos A held in the words' spent U2 halves.  The score factors
of every row (``model.score_factors``) are made once per call, and each
block is scored from its rows of them (``model.scores``).  The scores and
their sigmoids, taken in place, are float32 (see ``model.scores`` for the
error bound and the range), and each row's mean is taken in float64.
Serving is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LabeledBatch, _check_counts, score_factors, scores, sigmoid
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
        _check_counts(M=(self.M, 1), seed=(self.seed, 0))


# Rows are served in blocks whose float32 uniforms fill about 0.5 MB (at least
# one row), so memory stays near one row's (D, M) normals whatever M is.
_BLOCK_FLOATS = 131_072

# A = 2 pi U2 with U2 = m 2^-24: 2^-24 is a power of two, so folding it into
# the factor rounds A exactly as float32(2 pi) * U2 does.
_ANGLE_PER_STEP = np.float32(2 * np.pi) * np.float32(2.0**-24)


def _normal_blocks(seed: int, n: int, D: int, M: int):
    """Yield (start, stop, z) over n rows, z the rows' float32 normals
    (stop - start, D, M) in the documented stream's order.

    Row r owns the stream's 64-bit words r*h to (r+1)*h - 1, h = ceil(D*M/2).
    Each word gives two uniforms, its low 32 bits first, and each uniform is
    its half's top 24 bits times 2^-24: the same floats that numpy's float32
    ``Generator.random`` gives on SFC64.  A row's first h uniforms are U1 and
    its next h are U2.  z is a view of one reused buffer of 2h float32 per
    row, so it is valid until the next block; while a block is filled, its
    words (h uint64 per row) are the only other buffer.
    """
    h = (D * M + 1) // 2
    rows = max(1, _BLOCK_FLOATS // (2 * h))
    block = np.empty((min(rows, n), 2, h), dtype=np.float32)
    bits = np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        u = block[: stop - start]
        _box_muller(bits.random_raw((stop - start) * h), u)
        yield start, stop, u.reshape(stop - start, 2 * h)[:, : D * M].reshape(-1, D, M)


def _box_muller(words: np.ndarray, u: np.ndarray) -> None:
    """Fill u (R, 2, h) float32 with the normals of R*h raw words, R cos A in
    u[:, 0] and R sin A in u[:, 1].  The words are read as little-endian
    uint32 halves, low half first on any host, and used up in place: the
    spent U2 halves hold cos A, so no other array is made.
    """
    m = words.astype("<u8", copy=False).view("<u4").reshape(u.shape)
    m >>= 8  # each half's top 24 bits, m: U = m 2^-24
    r, a = u[:, 0], u[:, 1]
    np.subtract(np.uint32(2**24), m[:, 0], out=m[:, 0])
    np.multiply(m[:, 0], np.float32(2.0**-24), out=r, dtype=np.float32)  # 1 - U1, exact
    np.multiply(m[:, 1], _ANGLE_PER_STEP, out=a, dtype=np.float32)  # A
    c = m[:, 1].view(np.float32)
    np.log(r, out=r)
    r *= np.float32(-2)
    np.sqrt(r, out=r)  # R
    np.cos(a, out=c)
    np.sin(a, out=a)
    a *= r  # R sin A
    r *= c  # R cos A


def predictive_probabilities(
    post: Posterior, x: np.ndarray, cfg: PredictiveConfig
) -> np.ndarray:
    """p_hat for every row of x (n, p); returns float64 values in [0, 1].

    sigmoid's slope is at most 1/4, so each p_hat is within a quarter of the
    mean of its draws' score bounds (see ``model.scores``) plus 8 * 2^-24
    (float32's sigmoid) of the float64 evaluation of the same normals.  The
    normals' tail is cut: 1 - U1 >= 2^-24, so R^2 <= 48 ln 2 and every
    |z| <= sqrt(48 ln 2) ~ 5.768.  The mass missing beyond R^2 = 48 ln 2 is
    2^-24 per pair, so the expected p_hat moves by at most about
    (k+1) * 2^-24, 2.4e-7 at k=3, four orders of magnitude below a row's
    Monte Carlo standard error at M=200 (~2.5e-3).
    Raises ShapeMismatchError unless x is 2-d with the posterior's input width p.
    """
    factors = score_factors(x, post.q.mean, post.q.scale, post.shape)
    n, k = factors[0].shape
    out = np.empty(n)
    for start, stop, z in _normal_blocks(cfg.seed, n, k + 1, cfg.M):
        p = scores(z, factors, slice(start, stop))
        out[start:stop] = sigmoid(p, out=p).mean(axis=1, dtype=float)
        del p  # else it lives on while the next block's words are drawn
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
