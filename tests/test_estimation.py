"""Estimator math: likelihood, score, Newton fit, design matrices."""
import ast
import collections
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mnl_bandit import estimation
from mnl_bandit.choice import AssortmentContexts, choice_probabilities, sample_choice
from mnl_bandit.confidence import (
    ConfidenceConfig,
    _C_member,
    _E_member,
    beta_radius,
    build_confidence_state,
    e_boundary_multi,
    in_set_C,
)
from mnl_bandit.estimation import (
    History,
    _eigvalsh,
    _evaluate,
    _row_norms,
    _segment_exp,
    _solve,
    fit_mle,
    g_vector,
    matrix_G,
    matrix_H,
    matrix_V,
    penalized_log_likelihood,
    score,
)
from mnl_bandit.simulator import sample_ball


def make_assortment(contexts, prices=None):
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    k = contexts.shape[0]
    return AssortmentContexts(tuple(range(k)), contexts, np.ones(k) if prices is None else prices)


def random_history(rng, d, K=3, rounds=10):
    hist = History(d)
    for _ in range(rounds):
        k = int(rng.integers(1, K + 1))
        hist.append(make_assortment(sample_ball(rng, k, d)), int(rng.integers(0, k + 1)))
    return hist


class TestPenalizedLogLikelihood:
    def test_empty_history_zero_theta(self):
        assert penalized_log_likelihood(History(3), np.zeros(3), 2.0) == 0.0

    def test_empty_history_is_pure_ridge(self):
        theta = np.array([1.0, -2.0])
        lam = 3.0
        expect = -0.5 * lam * 5.0
        assert penalized_log_likelihood(History(2), theta, lam) == pytest.approx(expect, rel=1e-14)

    def test_uniform_round_gives_log_quarter(self):
        # K=3 zero utilities: any of the four outcomes has probability 1/4.
        for outcome in range(4):
            hist = History(2)
            hist.append(make_assortment(np.zeros((3, 2))), outcome)
            val = penalized_log_likelihood(hist, np.zeros(2), 1.0)
            assert val == pytest.approx(math.log(0.25), rel=1e-12)

    def test_no_purchase_outcome_contributes(self):
        # One item with positive utility: observing no purchase must lower
        # the likelihood relative to theta = 0.
        hist = History(1)
        hist.append(make_assortment([[1.0]]), 0)
        flat = penalized_log_likelihood(hist, np.zeros(1), 0.0 + 1e-12)
        tilted = penalized_log_likelihood(hist, np.array([2.0]), 0.0 + 1e-12)
        assert flat > tilted

    def test_concavity_on_random_midpoints(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            hist = random_history(rng, d, rounds=int(rng.integers(1, 8)))
            lam = float(rng.uniform(1.0, 4.0))
            ta = sample_ball(rng, 1, d, radius=3.0)[0]
            tb = sample_ball(rng, 1, d, radius=3.0)[0]
            mid = penalized_log_likelihood(hist, 0.5 * (ta + tb), lam)
            ends = 0.5 * (
                penalized_log_likelihood(hist, ta, lam)
                + penalized_log_likelihood(hist, tb, lam)
            )
            assert mid >= ends - 1e-12


class TestScore:
    def test_empty_history_zero_theta(self):
        np.testing.assert_array_equal(score(History(2), np.zeros(2), 1.0), np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(60):
            d = int(rng.integers(1, 5))
            hist = random_history(rng, d, rounds=int(rng.integers(1, 10)))
            lam = float(rng.uniform(1.0, 3.0))
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            grad = score(hist, theta, lam)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (
                    penalized_log_likelihood(hist, theta + e, lam)
                    - penalized_log_likelihood(hist, theta - e, lam)
                ) / (2 * h)
                denom = max(abs(fd), 1e-6)
                assert abs(grad[j] - fd) / denom < 1e-6

    def test_zero_at_fitted_parameter(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            hist = random_history(rng, 3, rounds=15)
            res = fit_mle(hist, 1.5)
            assert res.converged
            assert np.linalg.norm(score(hist, res.theta_hat, 1.5)) <= 1e-8


class TestFitMle:
    def test_empty_history_returns_zero(self):
        res = fit_mle(History(4), 2.0)
        np.testing.assert_array_equal(res.theta_hat, np.zeros(4))
        assert res.converged

    def test_scalar_case_matches_bisection_oracle(self):
        # Stationarity for one purchased unit-context item with lam=1 is
        # sigma(t) - 1 + t = 0; solve by bisection.
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 1.0 / (1.0 + math.exp(-mid)) - 1.0 + mid < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        hist = History(1)
        hist.append(make_assortment([[1.0]]), 1)
        res = fit_mle(hist, 1.0)
        assert res.theta_hat[0] == pytest.approx(root, abs=1e-8)

    def test_symmetric_data_fits_zero(self):
        hist = History(2)
        ctx = np.array([[0.6, -0.2]])
        for outcome in (1, 0):
            hist.append(make_assortment(ctx), outcome)
        res = fit_mle(hist, 1.0)
        np.testing.assert_allclose(res.theta_hat, 0.0, atol=1e-9)

    def test_start_point_does_not_matter(self):
        rng = np.random.default_rng(14)
        hist = random_history(rng, 3, rounds=20)
        a = fit_mle(hist, 1.0, theta0=None)
        b = fit_mle(hist, 1.0, theta0=np.array([0.9, -0.9, 0.4]))
        np.testing.assert_allclose(a.theta_hat, b.theta_hat, atol=1e-7)

    def test_rejects_small_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            fit_mle(History(2), 0.5)

    def test_iterations_count_newton_steps_taken(self):
        # With tol=0 a fit converges only where its score norm is exactly
        # 0.0, and here every fit that stops early does so converged; the
        # others use up max_iter.  The reported count is the steps taken, so
        # a fit that stops before 60 steps reports the same count and
        # parameter under a cap of 60 as under 100.
        rng = np.random.default_rng(23)
        early = 0
        for _ in range(50):
            hist = random_history(rng, 2, rounds=int(rng.integers(1, 20)))
            full = fit_mle(hist, 1.0, tol=0.0, max_iter=100)
            capped = fit_mle(hist, 1.0, tol=0.0, max_iter=60)
            if full.iterations < 60:
                early += 1
                assert full.converged and full.score_norm == 0.0
                np.testing.assert_array_equal(capped.theta_hat, full.theta_hat)
                assert capped.iterations == full.iterations
            else:
                assert full.iterations == 100 and capped.iterations == 60
        assert early > 0


    def test_newton_hessian_is_positive_definite(self):
        # fit_mle solves with this matrix and has no fallback: it is a sum of
        # positive semidefinite block terms plus lam I, so every eigenvalue
        # is at least lam >= 1, whatever the history and the parameter.
        rng = np.random.default_rng(31)
        for lam in (1.0, 40.0):
            for _ in range(30):
                d = int(rng.integers(1, 5))
                hist = random_history(rng, d, rounds=int(rng.integers(0, 40)))
                theta = rng.standard_normal(d) * 10.0 ** int(rng.integers(-1, 3))
                hess = _evaluate(hist, theta, lam).nll_hessian
                assert np.linalg.eigvalsh(hess).min() >= lam * (1.0 - 1e-9)


class TestGVector:
    def test_empty_history(self):
        theta = np.array([0.5, -1.0])
        np.testing.assert_allclose(g_vector(History(2), theta, 2.0), 2.0 * theta)

    def test_uniform_round_scales_context_sum(self):
        rng = np.random.default_rng(15)
        k = 4
        ctx = sample_ball(rng, k, 3)
        hist = History(3)
        hist.append(make_assortment(ctx), 2)
        got = g_vector(hist, np.zeros(3), 1.0)
        np.testing.assert_allclose(got, ctx.sum(axis=0) / (k + 1), rtol=1e-12)

    def test_equals_reward_sum_at_mle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            hist = random_history(rng, 2, rounds=25)
            res = fit_mle(hist, 1.0, tol=1e-10)
            np.testing.assert_allclose(
                g_vector(hist, res.theta_hat, 1.0), hist.purchases @ hist.ctx_flat, atol=1e-8
            )


class TestDesignMatrices:
    def test_H_empty_is_ridge(self):
        h = matrix_H(History(2), np.zeros(2), 3.0)
        np.testing.assert_array_equal(h, 3.0 * np.eye(2))

    def test_H_single_item_quarter_weight(self):
        hist = History(1)
        hist.append(make_assortment([[1.0]]), 1)
        h = matrix_H(hist, np.zeros(1), 1.0)
        assert h[0, 0] == pytest.approx(1.25, rel=1e-14)

    def test_H_minimum_eigenvalue_at_least_lambda(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            hist = random_history(rng, d, rounds=int(rng.integers(1, 12)))
            lam = float(rng.uniform(1.0, 4.0))
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            assert np.linalg.eigvalsh(matrix_H(hist, theta, lam))[0] >= lam - 1e-9

    def test_V_single_item(self):
        hist = History(1)
        hist.append(make_assortment([[1.0]]), 0)
        v = matrix_V(hist, 1.0)
        assert v[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_H_dominated_by_V(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            hist = random_history(rng, d, rounds=int(rng.integers(1, 12)))
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            diff = matrix_V(hist, 1.0) - matrix_H(hist, theta, 1.0)
            assert float(np.linalg.eigvalsh(diff)[0]) >= -1e-9


class TestMatrixG:
    def test_coincident_parameters_reduce_to_H(self):
        rng = np.random.default_rng(19)
        hist = random_history(rng, 3, rounds=10)
        theta = sample_ball(rng, 1, 3, radius=1.5)[0]
        g = matrix_G(hist, theta, theta, 1.0)
        h = matrix_H(hist, theta, 1.0)
        np.testing.assert_allclose(g, h, atol=1e-8)

    def test_links_g_vector_differences_exactly(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            hist = random_history(rng, d, rounds=int(rng.integers(1, 12)))
            lam = float(rng.uniform(1.0, 3.0))
            th1 = sample_ball(rng, 1, d, radius=2.0)[0]
            th2 = sample_ball(rng, 1, d, radius=2.0)[0]
            lhs = g_vector(hist, th1, lam) - g_vector(hist, th2, lam)
            rhs = matrix_G(hist, th1, th2, lam) @ (th1 - th2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_psd_ordering_single_item_rounds(self):
        # With one item per round the difference quotient is a mean value
        # of the diagonal derivative and the curvature ordering
        # G >= H / (1 + 2S) holds; multi-item rounds admit counterexamples
        # (see test_psd_ordering_counterexample_multi_item).
        rng = np.random.default_rng(21)
        S = 1.0
        for _ in range(200):
            d = int(rng.integers(1, 6))
            hist = random_history(rng, d, K=1, rounds=int(rng.integers(1, 20)))
            lam = float(rng.uniform(1.0, 20.0))
            th1 = sample_ball(rng, 1, d, radius=S)[0]
            th2 = sample_ball(rng, 1, d, radius=S)[0]
            g = matrix_G(hist, th1, th2, lam)
            for th in (th1, th2):
                diff = g - matrix_H(hist, th, lam) / (1.0 + 2.0 * S)
                assert float(np.linalg.eigvalsh(diff)[0]) >= -1e-9

    def test_psd_ordering_counterexample_multi_item(self):
        # Two items per round: the own-utility change of one item can be
        # tiny while the other item's shift moves its probability, driving
        # the difference quotient strongly negative.  This documents why
        # the ordering check restricts to single-item rounds.
        ctx = np.array(
            [
                [-0.42005845913441814, -0.5216272535728886],
                [0.17750868620757512, -0.8760309111464015],
            ]
        )
        th1 = np.array([-0.8861765575872782, 0.12070888466767864])
        th2 = np.array([0.29348879267686123, 0.38737379489188717])
        hist = History(2)
        hist.append(make_assortment(ctx), 1)
        g = matrix_G(hist, th1, th2, 1.0)
        h = matrix_H(hist, th1, 1.0)
        assert float(np.linalg.eigvalsh(g - h / 3.0)[0]) < -1.0


class TestHistory:
    def test_rejects_bad_outcome(self):
        hist = History(2)
        with pytest.raises(ValueError, match="outcome"):
            hist.append(make_assortment(np.zeros((2, 2))), 3)

    def test_rejects_dimension_mismatch(self):
        hist = History(2)
        with pytest.raises(ValueError, match="dimension"):
            hist.append(make_assortment(np.zeros((1, 3))), 0)

    def test_empty_assortment_round_contributes_nothing(self):
        hist = History(2)
        hist.append(AssortmentContexts((), np.zeros((0, 2)), np.zeros(0)), 0)
        assert hist.t == 1
        assert hist.n_items == 0
        assert penalized_log_likelihood(hist, np.zeros(2), 1.0) == 0.0

    def test_growth_beyond_initial_capacity(self):
        rng = np.random.default_rng(22)
        hist = History(2)
        total = 0
        for _ in range(200):
            k = int(rng.integers(1, 4))
            hist.append(make_assortment(sample_ball(rng, k, 2)), 0)
            total += k
        assert hist.n_items == total
        assert hist.ctx_flat.shape == (total, 2)


def mixed_history(rng, d=2, rounds=300):
    """Repeated pool assortments, equal blocks under other indices, fresh
    blocks and empty rounds, with outcomes drawn at a fixed parameter.

    Returns the history and the list of (assortment, outcome) rounds
    appended to it, which the history itself does not keep."""
    pool = sample_ball(rng, 5, d)
    theta = sample_ball(rng, 1, d, radius=1.5)[0]
    repeated = [(0, 1), (2,), (1, 3, 4)]
    hist = History(d)
    log = []
    for t in range(rounds):
        kind = t % 5
        if kind == 0:
            ass = AssortmentContexts((), np.zeros((0, d)), np.zeros(0))
        elif kind in (1, 2):
            ass = AssortmentContexts.from_pool(pool, repeated[int(rng.integers(3))])
        elif kind == 3:
            # Same rows as the pool pair (0, 1), offered under other indices.
            ass = AssortmentContexts((7, 9), pool[[0, 1]], np.ones(2))
        else:
            ass = make_assortment(sample_ball(rng, int(rng.integers(1, 4)), d))
        dist = choice_probabilities(ass, theta)
        probs = np.concatenate(([dist.no_purchase_prob], dist.item_probs))
        log.append((ass, int(rng.choice(probs.size, p=probs))))
        hist.append(*log[-1])
    return hist, log


def per_round_reference(rounds, theta, lam):
    """Likelihood quantities and V summed one (assortment, outcome) round at a time."""
    eye = np.eye(theta.shape[0])
    ll, s, g, r = -0.5 * lam * float(theta @ theta), -lam * theta, lam * theta, 0.0 * theta
    h, hess, v = lam * eye, lam * eye, lam * eye
    for ass, y in rounds:
        if not ass.cardinality:
            continue
        dist = choice_probabilities(ass, theta)
        mu, x = dist.item_probs, ass.contexts
        ll += math.log(dist.item_probs[y - 1] if y else dist.no_purchase_prob)
        if y:
            s = s + x[y - 1]
            r = r + x[y - 1]
        s = s - mu @ x
        g = g + mu @ x
        h = h + x.T @ ((mu * (1.0 - mu))[:, None] * x)
        m = mu @ x
        hess = hess + x.T @ (mu[:, None] * x) - np.outer(m, m)
        v = v + x.T @ x
    return dict(ll=ll, score=s, g=g, reward=r, H=h, hess=hess, V=v)


def per_round_G(rounds, th1, th2, lam):
    out = lam * np.eye(th1.shape[0])
    for ass, _ in rounds:
        if not ass.cardinality:
            continue
        x = ass.contexts
        u1, u2 = x @ th1, x @ th2
        mu1 = choice_probabilities(ass, th1).item_probs
        mu2 = choice_probabilities(ass, th2).item_probs
        alpha = (mu2 - mu1) / (u2 - u1)
        out = out + x.T @ (alpha[:, None] * x)
    return out


def assert_rel(actual, expect, rel=1e-10):
    actual, expect = np.asarray(actual, dtype=float), np.asarray(expect, dtype=float)
    assert float(np.linalg.norm(actual - expect)) <= rel * float(np.linalg.norm(expect))


class TestCompressedHistoryAgainstPerRoundReference:
    LAM = 2.0

    def test_blocks_merge_by_contents(self):
        hist, rounds = mixed_history(np.random.default_rng(5))
        fresh = sum(1 for t in range(300) if t % 5 == 4)
        # Three pool assortments (the re-indexed pair merges into (0, 1))
        # plus one block per fresh round.
        assert hist.n_blocks == 3 + fresh
        assert hist.t == 300
        assert float(hist.offers.sum()) == 240.0
        assert float(hist.purchases.sum()) == sum(1 for _, y in rounds if y)

    def test_likelihood_family_matches(self):
        rng = np.random.default_rng(6)
        hist, rounds = mixed_history(rng)
        for theta in sample_ball(rng, 4, 2, radius=2.0):
            ref = per_round_reference(rounds, theta, self.LAM)
            assert_rel(penalized_log_likelihood(hist, theta, self.LAM), ref["ll"])
            assert_rel(score(hist, theta, self.LAM), ref["score"])
            assert_rel(g_vector(hist, theta, self.LAM), ref["g"])
            assert_rel(hist.purchases @ hist.ctx_flat, ref["reward"])
            assert_rel(matrix_H(hist, theta, self.LAM), ref["H"])
            assert_rel(_evaluate(hist, theta, self.LAM).nll_hessian, ref["hess"])
            assert_rel(matrix_V(hist, self.LAM), ref["V"])
        th1, th2 = sample_ball(rng, 2, 2, radius=2.0)
        assert_rel(matrix_G(hist, th1, th2, self.LAM), per_round_G(rounds, th1, th2, self.LAM))

    def test_fit_matches_per_round_newton(self):
        hist, rounds = mixed_history(np.random.default_rng(7))
        theta = np.zeros(2)
        for _ in range(50):
            ref = per_round_reference(rounds, theta, self.LAM)
            theta = theta + np.linalg.solve(ref["hess"], ref["score"])
        res = fit_mle(hist, self.LAM, tol=1e-11)
        assert res.converged
        assert_rel(res.theta_hat, theta)

    def test_boundary_points_match(self):
        hist, rounds = mixed_history(np.random.default_rng(8))
        # A heavier ridge than the class's and a radius of its own, so that E
        # binds on some rays and the ball on others.
        lam, gamma = 20.0, 4.5
        cfg = ConfidenceConfig(d=2, K=3, lam=lam, S=1.0)
        state = build_confidence_state(hist, cfg, t=301)
        state = dataclasses.replace(state, gamma=gamma, beta=beta_radius(gamma, lam))
        dirs = np.random.default_rng(9).standard_normal((12, 2))
        got = e_boundary_multi(hist, cfg, state, dirs)

        def gap(th):
            return state.mle.evaluation.log_likelihood - per_round_reference(rounds, th, lam)["ll"]

        hess = per_round_reference(rounds, state.theta_hat, lam)["hess"]
        beta_sq, base = state.beta**2, state.anchor
        assert np.array_equal(base, state.theta_hat)  # so the anchor's gap is 0
        seen = set()
        for v, point in zip(dirs / np.linalg.norm(dirs, axis=1)[:, None], got):
            b, c = float(v @ base), float(base @ base) - cfg.S**2
            s_ball = max(-b + math.sqrt(max(b * b - c, 0.0)), 0.0)
            s0 = min(math.sqrt(2.0 * beta_sq / max(float(v @ hess @ v), 1e-12)), s_ball)
            s1 = min(1.3 * s0, s_ball)
            h0, h1 = gap(base + s0 * v) - beta_sq, gap(base + s1 * v) - beta_sq
            lo, hi, h_lo, h_hi = (s0, s1, h0, h1) if h0 <= 0.0 else (0.0, s0, -beta_sq, h0)
            if h_hi <= 0.0:
                lo = hi  # a closed bracket stays closed
                seen.add("closed")
            else:  # one chord step, kept only if feasible
                seen.add("from anchor" if lo == 0.0 else "from s0")
                s = lo - h_lo * (hi - lo) / (h_hi - h_lo)
                if gap(base + s * v) <= beta_sq:
                    lo = s
            assert lo > 0.0
            assert_rel(point, base + lo * v)
        assert seen == {"closed", "from anchor", "from s0"}

    def test_repeated_assortments_stay_three_blocks(self):
        rng = np.random.default_rng(10)
        pool = sample_ball(rng, 4, 2)
        hist = History(2)
        for t in range(3000):
            hist.append(AssortmentContexts.from_pool(pool, [(0,), (1, 2), (0, 3)][t % 3]), t % 2)
        assert hist.n_blocks == 3
        assert hist.n_items == 5
        assert float(hist.offers.sum()) == 3000.0
        assert hist.t == 3000


def separate_pass_reference(hist, theta, lam):
    """Each likelihood quantity from a kernel pass of its own, with the
    formulas written out one by one as they stood before one evaluation
    served them all.  The shared evaluation must match them bit for bit."""
    theta = np.asarray(theta, dtype=float)
    ctx, n_row = hist.ctx_flat, hist.row_offers

    def row_mu():
        _, ez, total = _segment_exp(hist, ctx @ theta)
        return ez / total[hist.seg_ids]

    def gram(w):
        w = n_row * w
        return ctx.T @ (w[:, None] * ctx) + lam * np.eye(hist.dim)

    u = ctx @ theta
    m, _, total = _segment_exp(hist, u)
    ll = hist.purchases @ u - hist.offers @ (m + np.log(total))
    mu = row_mu()
    seg_means = np.add.reduceat(mu[:, None] * ctx, hist.starts, axis=0)
    return dict(
        ll=float(ll) - 0.5 * lam * float(theta @ theta),
        score=(hist.purchases - n_row * row_mu()) @ ctx - lam * theta,
        g=(n_row * row_mu()) @ ctx + lam * theta,
        H=gram(mu * (1.0 - mu)),
        hess=gram(mu) - seg_means.T @ (hist.offers[:, None] * seg_means),
    )


def assert_same_as_reference(ll, s, g, h, hess, ref):
    assert ll == ref["ll"]
    for got, key in ((s, "score"), (g, "g"), (h, "H"), (hess, "hess")):
        assert np.array_equal(got, ref[key]), key


class TestOneEvaluationPerParameter:
    LAM = 2.0

    def test_readers_equal_separate_pass_formulas_exactly(self):
        rng = np.random.default_rng(31)
        for seed in range(3):
            hist, _ = mixed_history(np.random.default_rng(seed))
            for theta in sample_ball(rng, 4, 2, radius=2.0):
                ref = separate_pass_reference(hist, theta, self.LAM)
                assert_same_as_reference(
                    penalized_log_likelihood(hist, theta, self.LAM),
                    score(hist, theta, self.LAM),
                    g_vector(hist, theta, self.LAM),
                    matrix_H(hist, theta, self.LAM),
                    _evaluate(hist, theta, self.LAM).nll_hessian,
                    ref,
                )

    def test_state_reads_the_fit_evaluation_exactly(self):
        for seed in range(3):
            hist, _ = mixed_history(np.random.default_rng(seed))
            cfg = ConfidenceConfig(d=2, K=3, lam=self.LAM, S=2.0)
            state = build_confidence_state(hist, cfg, t=301)
            ref = separate_pass_reference(hist, state.theta_hat, self.LAM)
            ev = state.mle.evaluation
            assert np.array_equal(ev.theta, state.theta_hat)
            assert_same_as_reference(
                ev.log_likelihood, ev.score, state.g_at_hat, state.H_hat, ev.nll_hessian, ref
            )

    def test_fit_makes_one_pass_per_iterate(self, kernel_passes):
        # Newton from zero takes full steps on these histories, so the
        # iterates are the start plus one accepted candidate per step.
        for seed in range(3):
            hist, _ = mixed_history(np.random.default_rng(seed))
            kernel_passes.clear()
            res = fit_mle(hist, self.LAM)
            assert res.converged and res.iterations >= 2
            assert len(kernel_passes) == res.iterations + 1
            assert np.array_equal(kernel_passes[-1], hist.ctx_flat @ res.theta_hat)

    def test_contracting_fit_forms_no_log_likelihood_or_squared_norm(self, monkeypatch):
        # On a fixed pool every full Newton step from zero contracts the score
        # norm, so the fit reads neither the objective nor the ridge's
        # ||theta||^2; its result derives both on first read.
        formed = collections.Counter()
        for name in ("_log_likelihood", "_sq_norm"):
            real = getattr(estimation, name)

            def counted(*args, name=name, real=real):
                formed[name] += 1
                return real(*args)

            monkeypatch.setattr(estimation, name, counted)
        rng = np.random.default_rng(12)
        pool = sample_ball(rng, 4, 2)
        theta = sample_ball(rng, 1, 2)[0]
        hist = History(2)
        for _ in range(200):
            ass = AssortmentContexts.from_pool(pool, [(0, 1), (2,), (1, 2, 3)][int(rng.integers(3))])
            hist.append(ass, sample_choice(choice_probabilities(ass, theta), rng))
        res = fit_mle(hist, self.LAM)
        assert res.converged and res.iterations >= 2
        assert not formed
        ev = res.evaluation
        assert "log_likelihood" not in vars(ev) and "sq_norm" not in vars(ev)
        assert ev.log_likelihood == penalized_log_likelihood(hist, res.theta_hat, self.LAM)
        assert formed == {"_log_likelihood": 2, "_sq_norm": 2}

    def test_state_and_boundary_search_add_no_pass_at_theta_hat(self, kernel_passes):
        hist, _ = mixed_history(np.random.default_rng(8))
        cfg = ConfidenceConfig(d=2, K=3, lam=self.LAM, S=2.0)
        fit_mle(hist, cfg.lam)
        fit_passes = len(kernel_passes)
        kernel_passes.clear()
        state = build_confidence_state(hist, cfg, t=301)
        state.mle.evaluation.log_likelihood, state.g_at_hat, state.H_hat
        dirs = np.random.default_rng(9).standard_normal((12, 2))
        e_boundary_multi(hist, cfg, state, dirs)
        # The whole-ball proof reads the fit's evaluation, so the search adds no pass.
        assert state.ball_in_E and len(kernel_passes) == fit_passes
        # Where a small radius defeats the proof, the search's membership
        # passes take one column per probe.
        tight = dataclasses.replace(state, beta=1.0)
        e_boundary_multi(hist, cfg, tight, dirs)
        single = [u for u in kernel_passes if u.ndim == 1]
        assert not tight.ball_in_E and len(single) == fit_passes
        assert len(kernel_passes) > fit_passes

    def test_norm_set_membership_is_one_pass(self, kernel_passes):
        hist, _ = mixed_history(np.random.default_rng(8))
        cfg = ConfidenceConfig(d=2, K=3, lam=self.LAM, S=2.0)
        state = build_confidence_state(hist, cfg, t=301)
        state.g_at_hat
        kernel_passes.clear()
        in_set_C(0.5 * state.anchor, hist, cfg, state)
        assert len(kernel_passes) == 1
        # A stack of parameters costs one pass, which both sets' tests read.
        thetas = sample_ball(np.random.default_rng(9), 7, 2, radius=2.0)
        kernel_passes.clear()
        ev = estimation._Evaluation(hist, thetas, cfg.lam)
        for member in (_C_member, _E_member):
            member(ev, cfg, state)
            assert [u.shape for u in kernel_passes] == [(hist.n_items, 7)]

    @pytest.mark.parametrize("rounds", [0, 300])
    def test_stacked_evaluation_matches_each_row(self, rounds):
        hist, _ = mixed_history(np.random.default_rng(4), rounds=rounds)
        thetas = sample_ball(np.random.default_rng(5), 6, 2, radius=2.0)
        stacked = estimation._Evaluation(hist, thetas, self.LAM)
        assert stacked.log_likelihood.shape == (6,)
        assert stacked.score.shape == stacked.g.shape == (6, 2)
        assert stacked.H.shape == (6, 2, 2)
        for i, theta in enumerate(thetas):
            single = estimation._Evaluation(hist, theta, self.LAM)
            for key in ("log_likelihood", "score", "g", "H"):
                np.testing.assert_allclose(
                    getattr(stacked, key)[i], getattr(single, key), rtol=1e-12, err_msg=key
                )


class TestWarmStartFromTheLastFit:
    LAM = 2.0
    QUANTITIES = ("log_likelihood", "score", "g", "H", "nll_hessian")

    def test_recount_equals_a_fresh_evaluation(self, kernel_passes):
        rng = np.random.default_rng(51)
        for seed in range(3):
            hist, rounds = mixed_history(np.random.default_rng(seed))
            theta = sample_ball(rng, 1, 2, radius=2.0)[0]
            old = estimation._Evaluation(hist, theta, self.LAM)
            before = separate_pass_reference(hist, theta, self.LAM)
            ev = old
            # A stored pool block with a purchase, then an empty assortment:
            # neither adds a row, and only the counts change.
            for ass, outcome in ((rounds[1][0], 1), (rounds[0][0], 0)):
                hist.append(ass, outcome)
                assert hist.ctx_flat is old.ctx
                kernel_passes.clear()
                ev = ev.recounted(hist, self.LAM)
                assert kernel_passes == []
                fresh = estimation._Evaluation(hist, theta, self.LAM)
                for key in self.QUANTITIES:
                    assert np.array_equal(getattr(ev, key), getattr(fresh, key)), key
            assert ev.log_likelihood != old.log_likelihood
            assert_same_as_reference(
                old.log_likelihood, old.score, old.g, old.H, old.nll_hessian, before
            )

    def test_fit_from_the_last_result_skips_the_start_pass(self, kernel_passes):
        for seed in range(3):
            hist, rounds = mixed_history(np.random.default_rng(seed))
            last = fit_mle(hist, self.LAM)
            hist.append(rounds[1][0], 1)  # repeats a stored block
            kernel_passes.clear()
            res = fit_mle(hist, self.LAM, theta0=last)
            assert res.converged and res.iterations >= 1
            assert len(kernel_passes) == res.iterations
            kernel_passes.clear()
            ref = fit_mle(hist, self.LAM, theta0=last.theta_hat)
            assert len(kernel_passes) == ref.iterations + 1
            assert np.array_equal(res.theta_hat, ref.theta_hat)
            assert (res.iterations, res.score_norm) == (ref.iterations, ref.score_norm)
            # With nothing appended the recounted start has converged already.
            kernel_passes.clear()
            again = fit_mle(hist, self.LAM, theta0=res)
            assert kernel_passes == [] and again.iterations == 0
            assert np.array_equal(again.theta_hat, res.theta_hat)

    def test_warm_started_fits_of_a_run_evaluate_exactly(self, monkeypatch):
        # Each round of a random run fits from the last round's result: a
        # round that adds a block passes over the rows anew, and one that
        # repeats a block only recounts.  Either way the evaluation the fit
        # returns, assembled from its last iterate, is theta_hat's exactly.
        import mnl_bandit.harness as harness
        from mnl_bandit.checks import REGRET_CFG
        from mnl_bandit.harness import ExperimentConfig, run_experiment

        build = harness.build_confidence_state
        kinds = []

        def checked_build(history, ccfg, t, theta0=None):
            state = build(history, ccfg, t, theta0=theta0)
            ev = state.mle.evaluation
            kinds.append(theta0 is not None and theta0.evaluation.ctx is history.ctx_flat)
            assert np.array_equal(ev.theta, state.theta_hat)
            assert_same_as_reference(
                ev.log_likelihood, ev.score, ev.g, ev.H, ev.nll_hessian,
                separate_pass_reference(history, state.theta_hat, ccfg.lam),
            )
            return state

        monkeypatch.setattr(harness, "build_confidence_state", checked_build)
        run_experiment(ExperimentConfig(**{**REGRET_CFG, "T": 60}, policy="random"), seed=0)
        assert len(kinds) == 60
        assert 0 < sum(kinds) < 60  # rounds that recount and rounds that add a block

    def test_new_rows_or_another_history_take_a_fresh_pass(self, kernel_passes):
        hist, _ = mixed_history(np.random.default_rng(0))
        other, _ = mixed_history(np.random.default_rng(1))
        last = fit_mle(hist, self.LAM)
        hist.append(make_assortment(sample_ball(np.random.default_rng(2), 2, 2)), 1)
        for h in (hist, other):
            kernel_passes.clear()
            res = fit_mle(h, self.LAM, theta0=last)
            assert len(kernel_passes) == res.iterations + 1
            assert np.array_equal(kernel_passes[0], h.ctx_flat @ last.theta_hat)
            ref = fit_mle(h, self.LAM, theta0=last.theta_hat)
            assert np.array_equal(res.theta_hat, ref.theta_hat)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_mle(History(3), self.LAM, theta0=last)


class TestBacktrackedFit:
    LAM = 1.0
    START = np.array([-10.0, 0.0])

    @staticmethod
    def history():
        # From START the Newton Hessian is nearly lam I, so the full step
        # overshoots far past the optimum and the line search must halve it.
        hist = History(2)
        one = make_assortment([[1.0, 0.0]])
        two = make_assortment([[0.6, 0.8], [-0.8, 0.6]])
        for t in range(100):
            hist.append(one, t % 2)
            hist.append(two, t % 3)
        return hist

    def assert_is_reference(self, res, hist):
        ev = res.evaluation
        assert ev.theta is res.theta_hat
        # The line search read the returned iterate's log-likelihood, which
        # the evaluation keeps.
        assert "log_likelihood" in vars(ev)
        assert_same_as_reference(
            ev.log_likelihood, ev.score, ev.g, ev.H, ev.nll_hessian,
            separate_pass_reference(hist, res.theta_hat, self.LAM),
        )

    def test_halved_step_is_accepted_and_evaluated_exactly(self, kernel_passes):
        hist = self.history()
        start = _evaluate(hist, self.START, self.LAM)
        step = _solve(start.nll_hessian, start.score)
        kernel_passes.clear()
        res = fit_mle(hist, self.LAM, theta0=self.START, max_iter=1)
        assert res.iterations == 1 and not res.converged
        # The start, then the candidates at a = 1, 1/2, ... down to the one accepted.
        a = 0.5 ** (len(kernel_passes) - 2)
        assert a < 1.0
        assert np.array_equal(res.theta_hat, self.START + a * step)
        assert np.array_equal(kernel_passes[-1], hist.ctx_flat @ res.theta_hat)
        self.assert_is_reference(res, hist)
        # The whole fit takes that step first and converges.
        first = list(kernel_passes)
        kernel_passes.clear()
        full = fit_mle(hist, self.LAM, theta0=self.START)
        assert full.converged and full.iterations > 1
        assert all(map(np.array_equal, first, kernel_passes[: len(first)]))
        ev = full.evaluation
        assert_same_as_reference(
            ev.log_likelihood, ev.score, ev.g, ev.H, ev.nll_hessian,
            separate_pass_reference(hist, full.theta_hat, self.LAM),
        )

    def test_fit_stopped_at_the_step_floor_returns_its_last_iterate(self, kernel_passes, monkeypatch):
        # Halving a Newton step on a float64 history ends at a candidate the
        # Armijo test accepts, at worst one that leaves theta as it is, so no
        # history is known to reach the floor.  Here every point but the
        # start is made impossible.
        hist = self.history()
        u_start = hist.ctx_flat @ self.START
        real = estimation._log_likelihood

        def lowered(purchases, offers, u, *rest):
            return real(purchases, offers, u, *rest) if np.array_equal(u, u_start) else -math.inf

        monkeypatch.setattr(estimation, "_log_likelihood", lowered)
        kernel_passes.clear()
        res = fit_mle(hist, self.LAM, theta0=self.START)
        assert res.iterations == 0 and not res.converged
        # The start and one candidate per halving, a = 1 down to 2^-39 >= 1e-12.
        assert len(kernel_passes) == 41
        assert np.array_equal(res.theta_hat, self.START)
        self.assert_is_reference(res, hist)


def test_segment_kernel_runs_only_in_the_evaluation():
    # Every likelihood pass in the package is an evaluation: _segment_exp is
    # called from _Evaluation.__init__ and nowhere else, so a second pipeline
    # threading the kernel's arrays by hand fails here.
    sites = []

    def visit(node, where, stem):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "_segment_exp":
                sites.append((stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where, stem)

    for path in sorted(Path(estimation.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path.stem)
    assert sites == [("estimation", "_Evaluation.__init__")]


class TestDimensionCheck:
    @pytest.mark.parametrize("reader", [penalized_log_likelihood, score, g_vector, matrix_H])
    @pytest.mark.parametrize("rounds", [0, 6])
    def test_readers_reject_wrong_length_theta(self, reader, rounds):
        hist = random_history(np.random.default_rng(3), 3, rounds=rounds)
        for bad in (np.zeros(2), np.zeros(4)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                reader(hist, bad, 1.0)

    @pytest.mark.parametrize("rounds", [0, 6])
    def test_fit_rejects_wrong_length_start(self, rounds):
        hist = random_history(np.random.default_rng(3), 3, rounds=rounds)
        for bad in (np.zeros(2), np.zeros(4)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fit_mle(hist, 1.0, theta0=bad)


def ridged_psd(rng, lead, d):
    """lam I plus a PSD sum, lam >= 1: the matrices the LAPACK helpers are given."""
    a = rng.standard_normal((*lead, d, 3 * d))
    lam = 1.0 + 40.0 * rng.random((*lead, 1, 1))
    return a @ np.swapaxes(a, -1, -2) + lam * np.eye(d)


class TestLapackHelpers:
    # The helpers call the gufuncs np.linalg.solve and eigvalsh call, so
    # they must return the very same bits on the inputs the package gives.
    CASES = {
        "vector": ((), lambda rng, d: rng.standard_normal(d)),
        "matrix": ((), lambda rng, d: rng.standard_normal((d, 4))),
        "column_stack": ((6,), lambda rng, d: rng.standard_normal((6, d, 1))),
        "vector_stack": ((6,), lambda rng, d: rng.standard_normal(d)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_is_numpy_solve_bit_for_bit(self, case):
        lead, rhs = self.CASES[case]
        rng = np.random.default_rng(20)
        for d in (1, 2, 3, 5, 8):
            for _ in range(50):
                a, b = ridged_psd(rng, lead, d), rhs(rng, d)
                expect = np.linalg.solve(a, b)
                got = _solve(a, b)
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes()

    def test_solve_takes_a_transposed_right_hand_side(self):
        # bonus_ucb solves against pool.T, a non-contiguous view.
        rng = np.random.default_rng(21)
        a, pool = ridged_psd(rng, (), 3), rng.standard_normal((7, 3))
        assert _solve(a, pool.T).tobytes() == np.linalg.solve(a, pool.T).tobytes()

    @pytest.mark.parametrize("lead", [(), (6,)], ids=["single", "stack"])
    def test_eigvalsh_is_numpy_eigvalsh_bit_for_bit(self, lead):
        rng = np.random.default_rng(22)
        for d in (1, 2, 3, 5, 8):
            for _ in range(50):
                a = ridged_psd(rng, lead, d)
                assert _eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()

    @pytest.mark.parametrize("rhs", [np.ones(2), np.ones((2, 1))], ids=["vector", "matrix"])
    def test_singular_matrix_is_not_silent(self, rhs):
        # Not LinAlgError as from np.linalg.solve: LAPACK's failure raises
        # the invalid-value warning, an error under the suite's filters.
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid value"):
                _solve(singular, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.isnan(_solve(singular, rhs)).all()

    def test_row_norms_are_numpy_norms_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for d in (1, 2, 4, 9):
            x = rng.standard_normal((500, d)) * 10.0 ** rng.integers(-5, 5, (500, 1))
            assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
