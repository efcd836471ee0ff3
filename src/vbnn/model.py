"""Single-hidden-layer network score, Bernoulli likelihood, Gaussian prior.

The classifier is a logistic model whose log-odds ("score") come from a
one-hidden-layer network with sigmoid activations:

    score(x) = beta0 + sum_j beta_j * sigmoid(gamma0_j + gamma_j . x)

All parameters live in a single flat vector of length K = k*(p+2)+1 so the
inference code can treat the model as a generic density over R^K.  Flattening
order is [beta0, beta, gamma0, Gamma row-major]; ``flatten``/``unflatten``
are exact inverses of each other.

Every score comes from one of two kernels with the same hidden-unit
arithmetic.  :func:`scores_many` scores S parameter vectors (one network is
a stack of one) on every row of x in an (S, k, n) layout.  Row s of its
output depends only on parameter row s, so any contiguous split of the rows
is byte-identical.  :func:`log_likelihood_many` relies on that:
it feeds the same kernel float32 factors and runs it on blocks of rows whose
(rows, k, n) float32 hidden array holds about ``_BLOCK_FLOATS`` = 2**18
values (1 MiB, half of a 2 MiB per-core L2), so its memory is
O(block + S + n) instead of O(S * k * n) and its output is byte-identical to
scoring all S rows at once.  Its scores and softplus terms are float32 and
each row is summed in float64; its docstring bounds the relative error and
states float32's range (about 3.4e38) and tail (a term below e^-87.3 is
denormal, below about e^-103.9 it is 0).  These blocks are training's only
unit of parallel work: given a thread pool, the likelihood runs its blocks
there, with a result that does not depend on the pool.
Serving scores posterior-predictive draws at each row of x from k+1
normals per draw: the exact Gaussian marginals of the hidden
pre-activations, then the exact Gaussian law of the score given the hidden
units.  :func:`score_factors` computes those laws' factors for all n rows
once per call, in float64, one feature at a time, and clips them to
float32's range and casts them; :func:`scores` then scores one block of
rows in float32, and its row r depends only on that row's normals and its
factors' row.  So serving's memory is the O(n * k) factors plus one block,
and :func:`scores`' docstring bounds the error.
Everything else here, :func:`scores_many` included, is float64.  Hidden units
use sigmoid(z) = 0.5 + 0.5*tanh(z/2), exact to a few ulps in absolute terms;
output probabilities (``sigmoid``) and ``softplus`` stay tail-exact in their
precision, float32 for a float32 input and float64 otherwise; ``sigmoid`` is
numpy's 1 / (1 + exp(-z)).

Everything here is pure and side-effect free, so the functions are safe to
call from worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "PriorConfig",
    "LabeledBatch",
    "ShapeMismatchError",
    "json_field",
    "check_keys",
    "sigmoid",
    "softplus",
    "shape_for",
    "flatten",
    "unflatten",
    "unflatten_many",
    "scores_many",
    "score_factors",
    "scores",
    "log_likelihood_many",
    "log_prior",
    "log_joint_many",
    "normal_logpdf_total",
]


class ShapeMismatchError(ValueError):
    """An argument's dimensions disagree with the declared network shape."""


_JSON_KINDS = {dict: "a JSON object", list: "a JSON array", int: "an integer",
               float: "a finite number", str: "a string",
               list[float]: "an array of finite numbers", list[dict]: "an array of JSON objects"}


def _is_kind(value, kind) -> bool:
    if kind is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            return False
    if kind in (list[float], list[dict]):
        return type(value) is list and all(_is_kind(v, kind.__args__[0]) for v in value)
    return type(value) is kind


def _check_counts(**counts) -> None:
    """json_field's integer rule for arguments: each name=(value, minimum) must
    be an int (not 2.5, True or a numpy integer) at or above its minimum."""
    for name, (value, minimum) in counts.items():
        if type(value) is not int:  # _is_kind(value, int), inline: sample runs per iteration
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}")


def json_field(doc: dict, key: str, kind, default=None):
    """doc[key] as parsed by ``json``, checked to be an object (dict), an array
    (list), an integer (int: not a float such as 2.9, nor a boolean), a finite
    number (float: an integer or a float that a float holds, not a boolean, nor
    1e999, which ``json`` reads as inf; returned as a float), a string (str), or
    an array of finite numbers or of objects (list[float], list[dict]).  A
    missing key raises KeyError, or gives ``default`` when one is passed."""
    value = doc[key] if default is None else doc.get(key, default)
    if not _is_kind(value, kind):
        raise ValueError(f"key {key!r} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    return float(value) if kind is float else value


def check_keys(doc: dict, allowed, what: str) -> None:
    """Raise ValueError naming every key of ``doc`` not in ``allowed``."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) for {what}: {', '.join(unknown)}")


def _float_array(z) -> np.ndarray:
    """z as an array: float32 if it is float32, else float64."""
    z = np.asarray(z)
    return z if z.dtype == np.float32 else z.astype(float, copy=False)


def sigmoid(z, out=None):
    """Logistic 1 / (1 + e^-z): 0 below z ~ -709.78, where e^-z overflows,
    0.5 at +-0, 1 for large z and NaN for NaN.  numpy's SIMD ``exp`` keeps it
    within 4 ulps of libm's form (2 away from z ~ -36.7).  A float32 z is
    computed in float32 (0 below z ~ -88.72); anything else is read as
    float64.  As for a ufunc, an array ``out`` of z's shape and dtype (z
    itself, say) receives the result, with the same bytes, and no other array
    is made; a scalar z gives a scalar."""
    z = _float_array(z)
    if out is None:
        out = np.empty_like(z)
    np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else out[()]


def softplus(z, out=None):
    """Overflow-safe log(1 + e^z), computed as max(z, 0) + log1p(e^-|z|).  A float32
    z is computed in float32; anything else is read as float64.  As for a ufunc,
    an array ``out`` of z's shape and dtype (z itself, say) receives the result,
    and only one other array is made; a scalar z gives a scalar."""
    z = _float_array(z)
    positive = np.maximum(z, 0.0)
    if out is None:
        out = np.empty_like(z)
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += positive
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class NetworkShape:
    """Input width ``p`` and hidden-node count ``k``.

    Fixes the flat parameter length: one output bias, k output weights,
    k hidden biases and a k-by-p hidden weight matrix.
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        if not (_is_kind(self.p, int) and _is_kind(self.k, int)):  # json_field's rule
            raise ShapeMismatchError(f"p and k must be integers, got p={self.p!r}, k={self.k!r}")
        if self.p < 1 or self.k < 1:
            raise ShapeMismatchError(f"p and k must be >= 1, got p={self.p}, k={self.k}")

    @property
    def K(self) -> int:
        return self.k * (self.p + 2) + 1

    def to_json_dict(self) -> dict:
        return {"p": self.p, "k": self.k}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NetworkShape":
        check_keys(doc, ("p", "k"), "a network shape")
        return cls(p=json_field(doc, "p", int), k=json_field(doc, "k", int))


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
        _check_counts(K=(K, 1))
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


def _score_terms(thetas: np.ndarray, x: np.ndarray, shape: NetworkShape):
    """The per-row factors of :func:`scores_many` and the design they multiply.

    With t_j = tanh((gamma0_j + gamma_j . x) / 2) the score is
    beta0 + sum(beta)/2 + sum_j (beta_j/2) t_j.  The halvings scale the small
    weights, where they are exact, instead of the (S, k, n) array.  Returns
    the halved hidden weights (S, k, p+1) with the bias last, the halved
    output weights (S, 1, k), the offsets (S, 1) and [x.T; 1] (p+1, n).
    The design is C-ordered whatever the layout of x: ``np.vstack`` of x.T
    would give a Fortran-ordered array, on which each stacked layer-1 matmul
    of a likelihood block takes about twice as long, for the same bytes.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != shape.p:
        raise ShapeMismatchError(f"x must be (n, p={shape.p}) matching the network "
                                 f"input width, got {x.shape}")
    beta0, beta, gamma0, gamma = unflatten_many(np.atleast_2d(thetas), shape)
    weights = 0.5 * np.concatenate([gamma, gamma0[:, :, None]], axis=2)
    half_beta = 0.5 * beta
    offset = beta0 + half_beta.sum(axis=1)
    design = np.ones((shape.p + 1, x.shape[0]))
    design[:-1] = x.T
    return weights, half_beta[:, None, :], offset[:, None], design


def _score_rows(terms, rows: slice = slice(None)) -> np.ndarray:
    """Scores (rows, n) of the parameter rows ``rows`` of :func:`_score_terms`' factors."""
    weights, half_beta, offset, design = terms
    hidden = weights[rows] @ design
    np.tanh(hidden, out=hidden)
    out = (half_beta[rows] @ hidden)[:, 0, :]
    out += offset[rows]
    return out


def scores_many(thetas: np.ndarray, x: np.ndarray, shape: NetworkShape) -> np.ndarray:
    """Scores of S flat parameter vectors (S, K) on x (n, p); returns (S, n)."""
    return _score_rows(_score_terms(thetas, x, shape))


# serving's factors are clipped to float32's finite range before the cast
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def score_factors(x: np.ndarray, mean: np.ndarray, scale: np.ndarray, shape: NetworkShape):
    """Per-call factors of :func:`scores` for M draws theta ~ N(mean, diag(scale^2))
    at each row of x (n, p): the float32 tuple (loc, sd, half_m, half_s,
    offset, var0, c).

    Under mean-field q the halved hidden pre-activation (gamma0_j + gamma_j . x_r)/2
    is exactly Gaussian at a fixed x_r, independent of the betas and of the
    other units: loc[r, j] and sd[r, j], (n, k) each, are its mean and
    standard deviation.  Given the hidden units w_j = (1 + t_j)/2 the score
    is exactly N(m_beta0 + sum_j m_betaj w_j, s_beta0^2 + sum_j s_betaj^2 w_j^2),
    stated by half_m = m_beta/2 and half_s = s_beta/(2c) (k,), offset = m_beta0,
    var0 = (s_beta0/c)^2 and c, the largest output-weight scale.  loc and sd
    are built one feature at a time, so every temporary is (n, k), and
    nothing that could overflow is squared: sd is a ``hypot`` reduction.
    Every factor is computed in float64, clipped to float32's finite range
    (+-3.4028235e38) and cast once; see :func:`scores` for what that costs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != shape.p:
        raise ShapeMismatchError(f"x must be (n, p={shape.p}) matching the network input "
                                 f"width, got {x.shape}")
    beta0_m, beta_m, gamma0_m, gamma_m = unflatten_many(mean, shape)
    beta0_s, beta_s, gamma0_s, gamma_s = unflatten_many(scale, shape)
    gm, gs, ax = 0.5 * gamma_m, 0.5 * gamma_s, np.abs(x)
    loc, sd = gm[:, 0] * x[:, :1], gs[:, 0] * ax[:, :1]
    for d in range(1, shape.p):
        loc += gm[:, d] * x[:, d : d + 1]
        np.hypot(sd, gs[:, d] * ax[:, d : d + 1], out=sd)
    loc += 0.5 * gamma0_m
    sd = np.hypot(0.5 * gamma0_s, sd)
    c = max(beta0_s, beta_s.max()) or 1.0
    return tuple(np.clip(f, -_FLOAT32_MAX, _FLOAT32_MAX).astype(np.float32)
                 for f in (loc, sd, 0.5 * beta_m, 0.5 * (beta_s / c), beta0_m,
                           (beta0_s / c) ** 2, c))


def scores(z: np.ndarray, factors: tuple, rows: slice) -> np.ndarray:
    """Scores of the rows ``rows`` of :func:`score_factors`' factors, one per
    draw; returns float32 (R, M).

    z (R, k+1, M) holds one standard normal for each draw's score given its
    hidden units (z[:, 0]) and one for each halved pre-activation (z[:, 1:]),
    with t_j = tanh(a_j/2) as in :func:`scores_many`.  The moments are
    elementwise, with no BLAS call, so row r of the output depends only on
    z[r] and its factors' row.  The score's variance is summed in units of
    c^2, so nothing that could overflow is squared.

    Precision.  The factors are float64 values cast to float32 once per call
    of :func:`score_factors`; z is read as float32 (a float64 z is rounded
    once), and the k-unit loop runs on float32 (R, M) slices.  A first-order
    rounding analysis gives, for each draw (u = 2^-24, float32's unit
    roundoff),

        |got - exact| <= (k + 12) * u * B * (1 + H),

    with B = |m_beta0| + sum_j |m_betaj| + |z0| * (s_beta0 + sum_j s_betaj),
    H = max_j (|loc_j| + |z_j| * sd_j), and "exact" the float64 evaluation of
    the same normals (a float64 z's rounding is counted in).  The range is
    float32's: every factor is first clipped to +-3.4028235e38, so a mean or
    scale of 1e308 saturates there instead of overflowing the cast, and a
    draw times a scale near that maximum gives an infinite pre-activation
    (tanh = +-1) or score (a saturated probability), which is not reported.
    Memory is the O(n * k) factors plus four (R, M) float32 arrays per block.
    z and the factors are only read: a float32 z is used as it is, not
    copied, and nothing is written into it.
    """
    loc, sd, half_m, half_s, offset, var0, c = factors
    loc, sd, k = loc[rows], sd[rows], loc.shape[1]
    z = np.asarray(z, dtype=np.float32)
    if z.ndim != 3 or z.shape[:2] != (loc.shape[0], k + 1):
        raise ShapeMismatchError(f"z must be (R, {k + 1}, M), one stack per row of x")
    out = np.full(z[:, 0].shape, offset)
    var = np.full(z[:, 0].shape, var0)  # in units of c^2
    # one hidden unit at a time, so every temporary is one (R, M) slice
    u, tmp = np.empty_like(out), np.empty_like(out)
    with np.errstate(over="ignore"):
        for j in range(k):
            np.multiply(z[:, 1 + j], sd[:, j, None], out=u)
            u += loc[:, j, None]
            np.tanh(u, out=u)
            u += 1.0  # 2 w_j
            out += np.multiply(u, half_m[j], out=tmp)
            u *= half_s[j]
            var += np.multiply(u, u, out=u)
        np.sqrt(var, out=var)  # now the score's standard deviation over c
        var *= c
        var *= z[:, 0]
    out += var
    return out


# The likelihood scores its S rows in blocks whose (rows, k, n) float32 hidden
# array holds about 1 MiB, half of a 2 MiB per-core L2 (at least one row).
_BLOCK_FLOATS = 2**18


def log_likelihood_many(
    thetas: np.ndarray, batch: LabeledBatch, shape: NetworkShape, pool=None
) -> np.ndarray:
    """Bernoulli log-likelihood of the batch under each of S flat vectors.

    Per row, sum_i [y_i * score_i - softplus(score_i)], evaluated through the
    identity y*z - softplus(z) = -softplus((1-2y)*z), which keeps the tiny
    tail contributions of saturated scores (for y=1, z=50 the exact value is
    about -1.93e-22, which the subtraction form would cancel to -0.0).
    Always <= 0; an empty batch contributes exactly 0.

    Precision.  The four factors of :func:`_score_terms` and the label signs
    are cast to float32 once per call; the scores and their softplus terms
    are float32, and each row's n terms are summed in float64.  softplus'
    slope (a sigmoid) never exceeds softplus itself, so a term's relative
    error is at most its score's absolute error plus a few float32 rounding
    errors, and a first-order rounding analysis of the kernel gives, for each
    row (u = 2^-24, float32's unit roundoff),

        |got - exact| <= (p + k + 8) * u * (1 + B * (1 + H)) * |exact|,

    with B = |beta0| + sum_j |beta_j| and H = max_{j,i} (|gamma0_j| +
    sum_d |gamma_jd x_id|) / 2, the largest halved pre-activation magnitude.
    That bound holds while every term is a normal float32, i.e. while each
    sign-adjusted score is above -87.3: below e^-87.3 (2^-126) a term's tail
    mass is denormal, and below about e^-103.9 (2^-150) it is 0, an absolute
    error under 1.2e-38 per term.  The range is float32's: a factor or score
    beyond about 3.4e38 overflows to inf (under the caller's error settings),
    where float64 would have reached 1.8e308.

    The rows are scored ``_BLOCK_FLOATS // (k * n)`` at a time (at least
    one), so memory is O(_BLOCK_FLOATS + S + n) rather than O(S * k * n).
    The blocks run on ``pool`` (an executor) when one is given, else in
    turn, each under the caller's floating-point error settings
    (``np.errstate`` is per thread).  Row s depends only on parameter row s
    and the block size only on k and n, so the result is byte-identical to
    scoring all S rows at once, with or without a pool of any size.  The
    per-call work (the halved weights, the C-ordered design [x.T; 1], see
    :func:`_score_terms`, and the casts) is done once, not per block.  Each
    block computes :func:`softplus` in place on its own score array, so only
    one other (rows, n) array is made.
    """
    thetas = np.atleast_2d(thetas)
    terms = [t.astype(np.float32) for t in _score_terms(thetas, batch.x, shape)]
    sign = (1 - 2 * batch.y).astype(np.float32)
    block = max(1, _BLOCK_FLOATS // (shape.k * max(batch.n, 1)))
    out = np.empty(thetas.shape[0])
    errors = np.geterr()

    def score(lo: int) -> None:
        with np.errstate(**errors):
            z = _score_rows(terms, slice(lo, lo + block))
            z *= sign
            out[lo : lo + block] = -softplus(z, out=z).sum(axis=1, dtype=float)

    list((pool.map if pool else map)(score, range(0, thetas.shape[0], block)))
    return out


def normal_logpdf_total(x, mean, sd) -> np.ndarray:
    """Sum of independent Normal log-densities along the last axis."""
    x = np.asarray(x, dtype=float)
    z = (x - mean) / sd
    return -0.5 * np.sum(z * z + np.log(2.0 * np.pi) + 2.0 * np.log(sd), axis=-1)


def log_prior(thetas: np.ndarray, prior: PriorConfig):
    """Gaussian prior log-density of flat (..., K) parameter vectors."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[-1] != prior.K:
        raise ShapeMismatchError("parameter length does not match prior length")
    return normal_logpdf_total(thetas, prior.mu, prior.zeta)


def log_joint_many(
    thetas: np.ndarray, batch: LabeledBatch, prior: PriorConfig, shape: NetworkShape, pool=None
) -> np.ndarray:
    """Unnormalized log posterior log p(y | theta, x) + log p(theta) of S flat
    vectors; ``pool`` runs the likelihood's blocks (see log_likelihood_many)."""
    return (log_likelihood_many(thetas, batch, shape, pool)
            + log_prior(np.atleast_2d(thetas), prior))

