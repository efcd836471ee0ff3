"""Posterior-predictive probabilities, plug-in labels and accuracy."""

import csv
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from vbnn import prediction
from vbnn.data import save_predictions_csv
from vbnn.metrics import IntegrationConfig, TrueFunction, diagnostics_dict
from vbnn.model import (
    LabeledBatch,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    flatten,
    numpy_build,
    scores_many,
    sigmoid,
    unflatten,
)
from vbnn.prediction import (
    PredictiveConfig,
    evaluation_dict,
    plug_in_labels,
    predictive_probabilities,
)
from vbnn.prediction import _BLOCK_FLOATS, _normals, _word_blocks
from vbnn.prediction import test_accuracy as accuracy_of  # dodge pytest collection
from vbnn.variational import Posterior, VariationalParams, softplus_inverse

from conftest import BENCH_SHAPE, TOY_SHAPE, implied_thetas, p_hat_bound


def posterior(q: VariationalParams, shape: NetworkShape = BENCH_SHAPE) -> Posterior:
    return Posterior(shape, q, PriorConfig.standard(shape.K))


def point_mass_at(flat: np.ndarray, shape: NetworkShape = BENCH_SHAPE) -> Posterior:
    """q collapsed (s ~ 4e-18) onto one parameter vector."""
    return posterior(VariationalParams(mean=np.asarray(flat, dtype=float),
                                       raw_scale=np.full(len(flat), -40.0)), shape)


def constant_score_q(score: float, shape: NetworkShape) -> Posterior:
    """Point mass whose network outputs `score` everywhere (all betas zero)."""
    flat = np.zeros(shape.K)
    flat[0] = score
    return point_mass_at(flat, shape)



def documented_uniforms(seed: int, n: int, shape: NetworkShape, M: int) -> np.ndarray:
    """Every row's float32 uniforms (n, 2, h), h = ceil((k+1) M / 2), in the
    documented order of one stream: row r's U1 then its U2."""
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(3,))
    rng = np.random.Generator(np.random.SFC64(seeds))
    h = math.ceil((shape.k + 1) * M / 2)
    return rng.random((n, 2, h), dtype=np.float32)


def box_muller(u: np.ndarray, shape: NetworkShape, M: int) -> np.ndarray:
    """The normals (n, k+1, M) of uniforms u (n, 2, h): R cos A followed by
    R sin A, cut to (k+1) M values, in u's dtype."""
    one = u.dtype.type(1)
    R = np.sqrt(u.dtype.type(-2) * np.log(one - u[:, 0]))
    A = u.dtype.type(2 * np.pi) * u[:, 1]
    z = np.concatenate([R * np.cos(A), R * np.sin(A)], axis=1)
    return z[:, : (shape.k + 1) * M].reshape(-1, shape.k + 1, M)


def documented_stream(seed: int, n: int, shape: NetworkShape, M: int) -> np.ndarray:
    """Every row's float32 normals (n, k+1, M), made from its documented uniforms."""
    return box_muller(documented_uniforms(seed, n, shape, M), shape, M)


def stream_oracle(post: Posterior, x: np.ndarray, M: int, seed: int) -> np.ndarray:
    """p_hat row by row: each row's slice of the stream, scored by scores_many."""
    q, shape = post.q, post.shape
    z = documented_stream(seed, x.shape[0], shape, M)
    return np.array([
        np.mean(sigmoid(scores_many(implied_thetas(q.mean, q.scale, z[r], x[r], shape),
                                    x[r : r + 1], shape)))
        for r in range(x.shape[0])
    ])


class TestPredictiveProbability:
    def test_collapsed_zero_network_gives_exactly_half(self, rng):
        # sampled scores are ~1e-17, and sigmoid rounds them to exactly 0.5
        post = point_mass_at(np.zeros(BENCH_SHAPE.K))
        x = rng.uniform(0, 1, (10, 2))
        probs = predictive_probabilities(post, x, PredictiveConfig(M=100, seed=0))
        assert np.all(probs == 0.5)

    def test_single_draw_equals_one_network_evaluation(self, rng):
        from vbnn.model import sigmoid

        q = VariationalParams(mean=rng.normal(0, 1, TOY_SHAPE.K),
                              raw_scale=softplus_inverse(np.full(TOY_SHAPE.K, 0.5)))
        cfg = PredictiveConfig(M=1, seed=123)
        x = np.array([0.3])
        # the documented stream: row 0 owns its first k+1 normals, which draw
        # the score given the hidden unit and the hidden pre-activation
        z = documented_stream(123, 1, TOY_SHAPE, 1)[0, :, 0].astype(float)
        beta0_m, beta_m, gamma0_m, gamma_m = q.mean
        beta0_s, beta_s, gamma0_s, gamma_s = q.scale
        gamma0 = gamma0_m + math.sqrt(gamma0_s**2 + (gamma_s * x[0]) ** 2) * z[1]
        w = float(expit(gamma0 + gamma_m * x[0]))
        sigma = math.sqrt(beta0_s**2 + (beta_s * w) ** 2)
        theta = unflatten(np.array([
            beta0_m + beta0_s**2 * z[0] / sigma,
            beta_m + beta_s**2 * w * z[0] / sigma,
            gamma0,
            gamma_m,
        ]), TOY_SHAPE)
        expected = float(sigmoid(scores_many(flatten(theta)[None], x[None], TOY_SHAPE)[0, 0]))
        p_hat = predictive_probabilities(posterior(q, TOY_SHAPE), x[None, :], cfg)[0]
        bound = p_hat_bound(q.mean, q.scale, z[None, :, None], x[None], TOY_SHAPE)[0]
        assert p_hat == pytest.approx(expected, rel=0, abs=bound)

    @pytest.mark.parametrize("shape", [TOY_SHAPE, BENCH_SHAPE, NetworkShape(p=5, k=8)])
    @pytest.mark.parametrize("size", [0.5, 2.0, 8.0])
    def test_float32_within_the_documented_bound_of_float64(self, rng, shape, size):
        # the float64 evaluation scores the same float32 normals, cast up
        post = posterior(VariationalParams(
            mean=rng.normal(0, size, shape.K),
            raw_scale=softplus_inverse(size * rng.uniform(0.2, 1.0, shape.K))), shape)
        x = rng.uniform(-2, 2, (12, shape.p))
        probs = predictive_probabilities(post, x, PredictiveConfig(M=200, seed=4))
        bound = p_hat_bound(post.q.mean, post.q.scale, documented_stream(4, 12, shape, 200),
                            x, shape)
        assert np.all(np.abs(probs - stream_oracle(post, x, 200, 4)) <= bound)

    def test_deterministic_per_seed(self, rng):
        q = point_mass_at(rng.normal(0, 1, BENCH_SHAPE.K)).q
        post = posterior(VariationalParams(mean=q.mean, raw_scale=np.zeros(BENCH_SHAPE.K)))
        x = rng.uniform(0, 1, (25, 2))
        a = predictive_probabilities(post, x, PredictiveConfig(M=50, seed=9))
        b = predictive_probabilities(post, x, PredictiveConfig(M=50, seed=9))
        c = predictive_probabilities(post, x, PredictiveConfig(M=50, seed=10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monte_carlo_budget_self_consistency(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        x = rng.uniform(0, 1, (5, 2))
        small = predictive_probabilities(post, x, PredictiveConfig(M=200, seed=1))
        large = predictive_probabilities(post, x, PredictiveConfig(M=50_000, seed=2))
        # sigmoid outputs live in [0,1], so se(M=200) <= 0.5/sqrt(200) ~ 0.035
        assert np.all(np.abs(small - large) < 5 * 0.5 / math.sqrt(200))

    def test_probabilities_average_not_squash_of_average(self):
        # Jensen gap: a wide posterior on the output bias flattens the
        # averaged probability below sigmoid(mean score)
        shape = TOY_SHAPE
        flat = np.zeros(shape.K)
        flat[0] = 2.0
        raw = np.full(shape.K, -40.0)
        raw[0] = float(softplus_inverse(3.0))  # beta0 ~ N(2, 9)
        post = posterior(VariationalParams(mean=flat, raw_scale=raw), shape)
        p_hat = predictive_probabilities(post, np.array([[0.5]]),
                                         PredictiveConfig(M=20_000, seed=0))[0]
        assert p_hat < float(expit(2.0)) - 0.05

    def test_empty_input_gives_empty_output(self):
        post = point_mass_at(np.zeros(BENCH_SHAPE.K))
        probs = predictive_probabilities(post, np.empty((0, 2)), PredictiveConfig())
        assert probs.shape == (0,)

    def test_bounds(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        probs = predictive_probabilities(post, rng.uniform(0, 1, (40, 2)),
                                         PredictiveConfig(M=30, seed=0))
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize("field", ["mean", "raw_scale"])
    @pytest.mark.parametrize("coord", range(BENCH_SHAPE.K))
    def test_huge_finite_coordinate_warns_nothing(self, rng, field, coord):
        # a draw times a scale of 1e308 overflows to an infinite score, which
        # is a saturated probability, not an error
        q = {"mean": np.zeros(BENCH_SHAPE.K), "raw_scale": np.zeros(BENCH_SHAPE.K)}
        q[field][coord] = 1e308
        post = posterior(VariationalParams(**q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = predictive_probabilities(post, rng.uniform(0, 1, (20, 2)),
                                             PredictiveConfig(M=50, seed=0))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_leaves_its_inputs_alone(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                           raw_scale=rng.normal(0, 1, BENCH_SHAPE.K)))
        x = rng.uniform(-1, 1, (2 * block_rows(50, BENCH_SHAPE) + 3, 2))
        arrays = (x, post.q.mean, post.q.raw_scale, post.q.scale, post.prior.mu, post.prior.zeta)
        before = [a.tobytes() for a in arrays]
        predictive_probabilities(post, x, PredictiveConfig(M=50, seed=3))
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("p", [1, 4])
    def test_wrong_width_names_both_widths(self, rng, p):
        # K = 13 is also the flat length of a p=1, k=4 and a p=4, k=2 network,
        # so the width cannot be recovered from q alone
        post = posterior(VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        x = rng.uniform(0, 1, (6, p))
        with pytest.raises(ShapeMismatchError,
                           match=rf"\(n, p=2\) matching the network input width, got \(6, {p}\)"):
            predictive_probabilities(post, x, PredictiveConfig(M=10, seed=0))


def block_rows(M: int, shape: NetworkShape) -> int:
    """Rows per serving block for a posterior of this network shape, at any
    thread count: each row takes (k+1) M uniforms, padded to an even count."""
    return max(1, _BLOCK_FLOATS // (2 * math.ceil((shape.k + 1) * M / 2)))


@pytest.fixture
def wide_q(rng):
    return posterior(VariationalParams(
        mean=rng.normal(0, 1, BENCH_SHAPE.K),
        raw_scale=softplus_inverse(np.full(BENCH_SHAPE.K, 0.7))))


class TestRowBlocks:
    """Rows are served in blocks; no row's p_hat depends on its block."""

    @pytest.mark.parametrize("shape, M", [
        pytest.param(BENCH_SHAPE, 7, id="7"),
        pytest.param(BENCH_SHAPE, 200, id="200"),
        pytest.param(BENCH_SHAPE, 3000, id="3000"),
        # (k+1) M = 21 is odd, so each row's uniforms are padded to 22
        pytest.param(NetworkShape(p=2, k=2), 7, id="odd-count"),
    ])
    def test_prefixes_are_byte_identical(self, rng, shape, M):
        post = posterior(VariationalParams(
            mean=rng.normal(0, 1, shape.K),
            raw_scale=softplus_inverse(np.full(shape.K, 0.7))), shape)
        B = block_rows(M, shape)
        cfg = PredictiveConfig(M=M, seed=17)
        x = rng.uniform(0, 1, (2 * B + 9, 2))
        whole = predictive_probabilities(post, x, cfg)
        for m in (1, B - 1, B, B + 1, 2 * B + 3):
            part = predictive_probabilities(post, x[:m], cfg)
            assert part.tobytes() == whole[:m].tobytes(), m

    @pytest.mark.parametrize("shape", [BENCH_SHAPE, NetworkShape(p=9, k=4)], ids=["bench", "p9-k4"])
    def test_block_size_does_not_change_a_byte(self, rng, monkeypatch, shape):
        # one row per block, then 2^16, 2^17 and 2^20 uniforms (1 to 1311 rows)
        post = posterior(VariationalParams(
            mean=rng.normal(0, 1, shape.K),
            raw_scale=softplus_inverse(np.full(shape.K, 0.7))), shape)
        M, x = 200, rng.uniform(-1, 1, (300, shape.p))
        served = []
        for floats in (2 * math.ceil((shape.k + 1) * M / 2), 2**16, 2**17, 2**20):
            monkeypatch.setattr(prediction, "_BLOCK_FLOATS", floats)
            served.append(predictive_probabilities(post, x, PredictiveConfig(M=M, seed=23)))
        assert all(p.tobytes() == served[0].tobytes() for p in served)

    def test_factors_are_made_once_per_call(self, rng, wide_q, monkeypatch):
        calls = []

        def spy(name):
            fn = getattr(prediction, name)
            monkeypatch.setattr(prediction, name, lambda *a: calls.append(name) or fn(*a))

        spy("score_factors")
        spy("scores")
        M = 200
        x = rng.uniform(0, 1, (3 * block_rows(M, wide_q.shape) + 1, 2))
        predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=0))
        assert calls == ["score_factors"] + 4 * ["scores"]

    def test_rows_match_the_documented_substream(self, rng, wide_q):
        M, seed = 200, 5
        n = 2 * block_rows(M, wide_q.shape) + 4
        x = rng.uniform(0, 1, (n, 2))
        probs = predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=seed))
        expected = stream_oracle(wide_q, x, M, seed)
        z = documented_stream(seed, n, wide_q.shape, M)
        bound = p_hat_bound(wide_q.q.mean, wide_q.q.scale, z, x, wide_q.shape)
        assert np.all(np.abs(probs - expected) <= bound)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_large_budget_allocates_about_one_rows_draws(self, rng, wide_q, threads):
        # In rows of (k+1) M float32 normals, the arrays alive at once are:
        # while a block is made, the reused block buffer (one row; it holds
        # 1 - U1 and A, then the normals) and the block's raw words (one row;
        # they hold R cos A and R sin A before the copies); while it is
        # scored, the buffer and scores' four (R, M) arrays (one row at k=3),
        # made after the words go.  Measured 2.01 rows; the bound adds one
        # (R, M) array (1 / (k+1) row), so a block's scores kept alive into
        # the next draw (2.26 rows) or a copy of the block crosses it.  A row
        # at M=50,000 outgrows a block, so the three rows are three one-row
        # blocks at either thread count, and each of two threads holds its
        # own buffer and block: two blocks alive at once.
        M = 50_000
        row = (BENCH_SHAPE.k + 1) * M * 4
        assert block_rows(M, BENCH_SHAPE) == 1
        x = rng.uniform(0, 1, (3, 2))
        cfg = PredictiveConfig(M=M, seed=0, threads=threads)
        tracemalloc.start()
        try:
            predictive_probabilities(wide_q, x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * (2 + 1 / (BENCH_SHAPE.k + 1)) * row


class TestThreads:
    """threads=T scores the row blocks on the calling thread and T - 1 helpers,
    with the words drawn in row order, so no byte depends on T."""

    @pytest.mark.parametrize("M", [7, 200])
    def test_threads_give_one_threads_bytes(self, rng, wide_q, M):
        # three full blocks and a partial fourth
        x = rng.uniform(0, 1, (3 * block_rows(M, BENCH_SHAPE) + 5, 2))
        one = predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # frequent switches would expose a misplaced write
        try:
            for threads in (2, 3):
                served = predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=9,
                                                                              threads=threads))
                assert served.tobytes() == one.tobytes(), threads
        finally:
            sys.setswitchinterval(interval)

    def test_a_slow_draw_does_not_reorder_the_stream(self, rng, wide_q, monkeypatch):
        # every other block's words take 10 ms to draw; were they drawn outside
        # the critical section that hands out the blocks, another thread would
        # draw the slow block's words in the meantime
        class SlowSFC64(np.random.SFC64):
            draws = 0

            def random_raw(self, size=None, output=True):
                SlowSFC64.draws += 1
                if SlowSFC64.draws % 2:
                    time.sleep(0.01)
                return super().random_raw(size, output)

        x = rng.uniform(0, 1, (6 * block_rows(200, BENCH_SHAPE) + 5, 2))
        one = predictive_probabilities(wide_q, x, PredictiveConfig(M=200, seed=4))
        monkeypatch.setattr(np.random, "SFC64", SlowSFC64)
        for threads in (2, 3):
            served = predictive_probabilities(wide_q, x, PredictiveConfig(M=200, seed=4,
                                                                          threads=threads))
            assert served.tobytes() == one.tobytes(), threads
        assert SlowSFC64.draws == 2 * 7

    def test_one_block_starts_no_helper(self, rng, wide_q, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("a helper thread started"))
        x = rng.uniform(0, 1, (block_rows(200, BENCH_SHAPE), 2))
        predictive_probabilities(wide_q, x, PredictiveConfig(M=200, seed=0, threads=4))

    def test_each_thread_holds_a_one_thread_block(self, rng, wide_q, monkeypatch):
        # four blocks at threads=2: each scores call waits at a barrier until
        # the other thread's has returned too, so both threads hold a block
        # and its scores at once.  Each thread keeps the one-thread bound of
        # test_large_budget_allocates_about_one_rows_draws, 2 + 1/(k+1)
        # blocks; a block twice as large would hold 2.5 of these per thread
        # at the barrier and cross it.
        M = 200
        rows = block_rows(M, BENCH_SHAPE)
        block = rows * (BENCH_SHAPE.k + 1) * M * 4
        real, barrier = prediction.scores, threading.Barrier(2)

        def scores(z, factors, part):
            p = real(z, factors, part)
            barrier.wait(30)
            return p

        monkeypatch.setattr(prediction, "scores", scores)
        x = rng.uniform(0, 1, (4 * rows, 2))
        tracemalloc.start()
        try:
            predictive_probabilities(wide_q, x, PredictiveConfig(M=M, seed=0, threads=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (2 + 1 / (BENCH_SHAPE.k + 1)) * block

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_helpers_error_reaches_the_caller_after_every_task_has_ended(
            self, rng, wide_q, monkeypatch, threads):
        # a helper's first scores call fails; every other call waits for that
        # failure and then runs on, so the caller (and at threads=3 the other
        # helper) is still scoring a block when the error is raised
        real, caller = prediction.scores, threading.get_ident()
        failed, lock, running = threading.Event(), threading.Lock(), []

        def scores(z, factors, rows):
            with lock:
                running.append(rows)
            try:
                if threading.get_ident() != caller and not failed.is_set():
                    failed.set()
                    raise RuntimeError("a helper's block failed")
                assert failed.wait(30)
                time.sleep(0.02)
                return real(z, factors, rows)
            finally:
                with lock:
                    running.remove(rows)

        monkeypatch.setattr(prediction, "scores", scores)
        x = rng.uniform(0, 1, (20 * block_rows(200, BENCH_SHAPE), 2))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^a helper's block failed$"):
            try:
                predictive_probabilities(wide_q, x, PredictiveConfig(M=200, seed=0,
                                                                     threads=threads))
            finally:
                assert running == []  # no block is still being scored
        assert threading.active_count() == before


def served_normals(seed: int, n: int, shape: NetworkShape, M: int) -> np.ndarray:
    """The normals (n, k+1, M) that predictive_probabilities scores."""
    D, rows, h = shape.k + 1, block_rows(M, shape), math.ceil((shape.k + 1) * M / 2)
    buffer = np.empty((rows, 2, h), dtype=np.float32)
    return np.concatenate([_normals(words, buffer, D, M).copy()
                           for _, _, words in _word_blocks(seed, n, h, rows)])


class TestNormals:
    """The stream's normals are a float32 Box-Muller of its documented uniforms."""

    @pytest.mark.parametrize("shape, M", [(TOY_SHAPE, 1), (BENCH_SHAPE, 7), (BENCH_SHAPE, 200),
                                          (NetworkShape(p=2, k=2), 7)])
    def test_served_normals_are_the_documented_stream(self, shape, M):
        n = 3 * block_rows(M, shape) + 2
        np.testing.assert_array_equal(served_normals(11, n, shape, M),
                                      documented_stream(11, n, shape, M))

    @pytest.mark.parametrize("shape, M", [(TOY_SHAPE, 1), (BENCH_SHAPE, 7), (BENCH_SHAPE, 200),
                                          (NetworkShape(p=2, k=2), 7)])
    def test_uniforms_are_the_top_24_bits_of_each_word_half(self, shape, M):
        n, h = 3 * block_rows(M, shape) + 2, math.ceil((shape.k + 1) * M / 2)
        bits = np.random.SFC64(np.random.SeedSequence(entropy=11, spawn_key=(3,)))
        words = bits.random_raw(n * h).astype(object)  # Python ints: no float rounding
        halves = [half for w in words for half in (w % 2**32, w // 2**32)]
        u = np.array([(half >> 8) * 2.0**-24 for half in halves]).reshape(n, 2, h)
        np.testing.assert_array_equal(u, documented_uniforms(11, n, shape, M))

    def test_float32_within_a_few_ulps_of_float64(self):
        # First-order budget, u = 2^-24: 2 pi and its product with U2 round A
        # by at most 2u * 2 pi; sin and cos are within 2 ulps, log within 4
        # (halved by the sqrt), the sqrt and the final product within 1 each.
        # That is under 24u * R, so 32u * (1 + R) holds with room to spare.
        shape, M = BENCH_SHAPE, 1000
        u = documented_uniforms(8, 500, shape, M)
        z32 = documented_stream(8, 500, shape, M)
        z64 = box_muller(u.astype(float), shape, M)
        R = np.sqrt(-2 * np.log(1 - u[:, 0].astype(float)))
        R = np.concatenate([R, R], axis=1)[:, : (shape.k + 1) * M].reshape(z64.shape)
        assert np.all(np.abs(z32 - z64) <= 32 * 2.0**-24 * (1 + R))

    def test_a_million_normals_look_standard(self):
        z = served_normals(2024, 1000, BENCH_SHAPE, 250).astype(float).ravel()
        assert z.size == 10**6
        se = 1 / math.sqrt(z.size)
        assert abs(z.mean()) < 5 * se
        assert abs(z.var() - 1) < 5 * math.sqrt(2) * se
        assert np.abs(z).max() <= math.sqrt(48 * math.log(2))  # 1 - U1 >= 2^-24
        assert stats.kstest(z, "norm").pvalue > 1e-3


@pytest.mark.skipif("X86_V4" not in numpy_build()["simd"],
                    reason="numpy runs below AVX-512 here")
def test_normals_and_prefixes_hold_at_the_avx2_level():
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the stream and
    # block tests run again in a child process at the AVX2 (X86_V3) level
    here = Path(__file__)
    child = ("import sys, pytest\n"
             "from vbnn.model import numpy_build\n"
             "assert 'X86_V4' not in numpy_build()['simd'], 'X86_V4 is still active'\n"
             "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-o', 'addopts=',"
             " *sys.argv[1:]]))")
    tests = [f"{here}::TestNormals::test_served_normals_are_the_documented_stream",
             f"{here}::TestRowBlocks::test_prefixes_are_byte_identical"]
    path = os.pathsep.join(filter(None, [str(here.parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *tests], capture_output=True,
                          text=True, cwd=here.parents[1], timeout=300,
                          env=dict(os.environ, PYTHONPATH=path,
                                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "8 passed" in proc.stdout  # 4 stream cases, 4 prefix cases (one odd count)


def constant_truth(score: float) -> TrueFunction:
    return TrueFunction.constant(score, p=BENCH_SHAPE.p)


class TestLogits:
    """The clamped logits of p_hat that ``diagnostics_dict`` compares with the truth."""

    def test_balanced_probability_maps_to_zero(self):
        # p_hat is exactly 0.5, so its logit is exactly 0: both distances to
        # a constant-zero truth vanish exactly
        doc = diagnostics_dict(point_mass_at(np.zeros(BENCH_SHAPE.K)), constant_truth(0.0),
                               PredictiveConfig(M=64, seed=0),
                               IntegrationConfig(n_mc=50, seed=0))
        assert doc["hellinger"] == 0.0 and doc["kl"] == 0.0

    def test_saturated_probability_is_clamped(self):
        # a huge certain bias gives p_hat exactly 1.0 before the clamp; the
        # distances are then those of the constant logit(1 - eps) ~ 27.63
        post = constant_score_q(100.0, BENCH_SHAPE)
        cfg = PredictiveConfig(M=16, seed=0)
        assert predictive_probabilities(post, np.array([[0.5, 0.5]]), cfg)[0] == 1.0
        doc = diagnostics_dict(post, constant_truth(-3.0), cfg,
                               IntegrationConfig(n_mc=50, seed=0))
        z = float(logit(1 - 1e-12))
        pa = expit(-3.0)
        kl = (pa * (math.log(pa) + math.log1p(math.exp(-z)))
              + (1 - pa) * (math.log(1 - pa) + math.log1p(math.exp(z))))
        hellinger = math.sqrt(1 - math.sqrt(pa * expit(z)) - math.sqrt((1 - pa) * expit(-z)))
        assert math.isfinite(doc["kl"]) and math.isfinite(doc["hellinger"])
        assert doc["kl"] == pytest.approx(kl, rel=1e-9)
        assert doc["hellinger"] == pytest.approx(hellinger, rel=1e-9)

    def test_round_trip_through_sigmoid(self, random_theta):
        # at a point mass p_hat = sigmoid(score), so the logits recover the
        # network's own scores and its distances to itself vanish
        theta = random_theta(BENCH_SHAPE, scale=2.0)
        doc = diagnostics_dict(point_mass_at(flatten(theta)), TrueFunction.from_network(theta),
                               PredictiveConfig(M=40, seed=2),
                               IntegrationConfig(n_mc=300, seed=3))
        assert abs(doc["kl"]) < 1e-12
        assert doc["hellinger"] < 1e-6


class TestClassification:
    """The plug-in label is 1 wherever p_hat >= 0.5."""

    def test_plug_in_labels_break_a_tie_upward(self):
        labels = plug_in_labels([0.5, np.nextafter(0.5, 0), 1.0, 0.0])
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0, 1, 0]

    def test_exact_tie_is_labeled_one(self):
        # the zero point mass has p_hat exactly 0.5 everywhere
        post = point_mass_at(np.zeros(BENCH_SHAPE.K))
        x = np.array([[0.1, 0.9], [0.5, 0.5]])
        cfg = PredictiveConfig(M=32, seed=0)
        assert accuracy_of(post, LabeledBatch(x=x, y=np.ones(2, dtype=int)), cfg) == 1.0

    def test_just_below_half_is_labeled_zero(self):
        post = constant_score_q(float(logit(0.4999)), BENCH_SHAPE)
        x = np.array([[0.2, 0.8]])
        cfg = PredictiveConfig(M=32, seed=0)
        assert accuracy_of(post, LabeledBatch(x=x, y=np.zeros(1, dtype=int)), cfg) == 1.0

    def test_labels_agree_with_logit_sign(self, rng, random_theta):
        # at a point mass the label is the sign of the network's score
        theta = random_theta(BENCH_SHAPE, scale=2.0)
        x = rng.uniform(0, 1, (100, 2))
        # centre the output bias so that both labels occur
        score = scores_many(flatten(theta)[None], x, BENCH_SHAPE)[0]
        theta = replace(theta, beta0=theta.beta0 - float(np.median(score)))
        y = (scores_many(flatten(theta)[None], x, BENCH_SHAPE)[0] >= 0).astype(int)
        assert 0 < y.sum() < y.size
        cfg = PredictiveConfig(M=25, seed=6)
        assert accuracy_of(point_mass_at(flatten(theta)), LabeledBatch(x=x, y=y), cfg) == 1.0


class TestAccuracy:
    def test_perfect_and_inverted_labels(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 2, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        x = rng.uniform(0, 1, (60, 2))
        cfg = PredictiveConfig(M=20, seed=1)
        labels = (predictive_probabilities(post, x, cfg) >= 0.5).astype(int)
        assert accuracy_of(post, LabeledBatch(x=x, y=labels), cfg) == 1.0
        assert accuracy_of(post, LabeledBatch(x=x, y=1 - labels), cfg) == 0.0

    def test_matches_per_row_loop(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        batch = LabeledBatch(x=rng.uniform(0, 1, (20, 2)),
                             y=rng.integers(0, 2, 20))
        cfg = PredictiveConfig(M=15, seed=3)
        labels = (stream_oracle(post, batch.x, cfg.M, cfg.seed) >= 0.5).astype(int)
        assert 0 < np.sum(labels == batch.y) < batch.n
        assert accuracy_of(post, batch, cfg) == np.mean(labels == batch.y)

    def test_empty_batch_rejected(self):
        post = point_mass_at(np.zeros(BENCH_SHAPE.K))
        batch = LabeledBatch(x=np.empty((0, 2)), y=np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            accuracy_of(post, batch, PredictiveConfig())

    def test_evaluation_dict_fields(self, rng):
        post = posterior(VariationalParams(mean=rng.normal(0, 1, BENCH_SHAPE.K),
                                           raw_scale=np.zeros(BENCH_SHAPE.K)))
        batch = LabeledBatch(x=rng.uniform(0, 1, (12, 2)),
                             y=rng.integers(0, 2, 12))
        doc = evaluation_dict(post, batch, PredictiveConfig(M=10, seed=0))
        assert doc["n"] == 12
        assert doc["error_rate"] == pytest.approx(1.0 - doc["accuracy"], abs=1e-15)


class TestPredictionsCsv:
    def test_round_trips_probabilities_exactly(self, tmp_path):
        path = tmp_path / "predictions.csv"
        probs = np.array([0.1234567890123456789, 1 / 3, 1.0])
        labels = np.array([0, 0, 1])
        save_predictions_csv(path, probs, labels)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["row_id"] for r in rows] == ["0", "1", "2"]
        assert [float(r["p_hat"]) for r in rows] == list(probs)
        assert [int(r["label_hat"]) for r in rows] == [0, 0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictiveConfig(M=0)
        with pytest.raises(ValueError, match="^threads must be >= 1$"):
            PredictiveConfig(threads=0)

    @pytest.mark.parametrize("field, value", [("M", 2.5), ("seed", 1.5), ("M", True),
                                              ("threads", 2.0), ("threads", True)])
    def test_non_integer_field_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            PredictiveConfig(**{field: value})
