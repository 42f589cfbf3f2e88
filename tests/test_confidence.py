"""Confidence radii, set membership, and the inner revenue maximization."""
import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import mnl_bandit
from mnl_bandit.choice import AssortmentContexts, expected_revenue, revenue_gradient
from mnl_bandit.confidence import (
    ConfidenceConfig,
    _C_member,
    _E_member,
    beta_radius,
    build_confidence_state,
    default_lambda,
    e_boundary_multi,
    gamma_radius,
    in_set_C,
    in_set_E,
    max_revenue_over_E,
)
from mnl_bandit.estimation import (
    History,
    _Evaluation,
    _evaluate,
    matrix_V,
    penalized_log_likelihood,
)
from mnl_bandit.policy import random_assortment
from mnl_bandit.simulator import (
    TAG_OUTCOME,
    InstanceConfig,
    environment_step,
    make_instance,
    sample_ball,
    stream,
)


def make_assortment(contexts):
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    return AssortmentContexts(tuple(range(contexts.shape[0])), contexts, np.ones(contexts.shape[0]))


def random_rounds(rng, d, K=2, rounds=10):
    """(assortment, outcome) pairs of random sizes, contexts and outcomes."""
    out = []
    for _ in range(rounds):
        k = int(rng.integers(1, K + 1))
        out.append((make_assortment(sample_ball(rng, k, d)), int(rng.integers(0, k + 1))))
    return out


def history_of(d, rounds):
    hist = History(d)
    for ass, y in rounds:
        hist.append(ass, y)
    return hist


def random_history(rng, d, K=2, rounds=10):
    return history_of(d, random_rounds(rng, d, K, rounds))


def with_radius(state, gamma, lam):
    """``state`` with radii gamma and beta = gamma + gamma^2 / lam, whatever
    ``gamma_radius`` gives: a test that needs E to bind says how far."""
    return dataclasses.replace(state, gamma=gamma, beta=beta_radius(gamma, lam))


def sample_c_members(rng, hist, cfg, state, want, max_tries=5000):
    """Rejection sampler for the norm-based set, proposing around the MLE."""
    chol = np.linalg.cholesky(np.linalg.inv(state.H_hat))
    members = []
    tries = 0
    while len(members) < want and tries < max_tries:
        tries += 1
        z = rng.standard_normal(hist.dim)
        z *= 1.5 * state.gamma * rng.random() ** (1.0 / hist.dim) / float(np.linalg.norm(z))
        cand = state.theta_hat + chol @ z
        if in_set_C(cand, state):
            members.append(cand)
    return members


class TestGammaRadius:
    def test_hand_value_delta_point_one(self):
        cfg = ConfidenceConfig(d=1, K=1, delta=0.1, lam=1.0, S=1.0)
        # 1.5 + 2 (0.5 ln 1.25 + ln 10) + 2 ln 2
        assert gamma_radius(cfg, 1) == pytest.approx(7.714608098422191, abs=1e-9)

    def test_hand_value_delta_one(self):
        cfg = ConfidenceConfig(d=1, K=1, delta=1.0, lam=1.0, S=1.0)
        assert gamma_radius(cfg, 1) == pytest.approx(3.1094379124341005, abs=1e-9)

    def test_hand_value_larger_norm_bound(self):
        # sqrt(lam) (S + 1/2) = 3.5 at S=3; the log terms as at S=1
        cfg = ConfidenceConfig(d=1, K=1, delta=0.1, lam=1.0, S=3.0)
        assert gamma_radius(cfg, 1) == pytest.approx(9.714608098422191, abs=1e-9)

    def test_monotone_in_round(self):
        cfg = ConfidenceConfig(d=3, K=2, delta=0.05, lam=2.0, S=1.0)
        values = [gamma_radius(cfg, t) for t in range(1, 10_001, 97)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_round_zero(self):
        cfg = ConfidenceConfig(d=1, K=1)
        with pytest.raises(ValueError):
            gamma_radius(cfg, 0)

    def test_default_lambda(self):
        assert default_lambda(2, 2, 3000) == pytest.approx(2 * math.log(6000))
        assert default_lambda(1, 1, 2) == 1.0


class TestBetaRadius:
    def test_zero(self):
        assert beta_radius(0.0, 1.0) == 0.0

    def test_unit(self):
        assert beta_radius(1.0, 1.0) == 2.0

    def test_hand_value(self):
        assert beta_radius(6.714608, 1.0) == pytest.approx(51.800568593664, rel=1e-12)

    def test_at_least_gamma(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = float(rng.uniform(0.0, 10.0))
            lam = float(rng.uniform(0.5, 20.0))
            assert beta_radius(g, lam) >= g

    def test_state_invariant(self):
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.0)
        state = build_confidence_state(History(2), cfg, t=5)
        assert state.beta == pytest.approx(state.gamma + state.gamma**2 / cfg.lam, rel=1e-12)


class TestSetMembership:
    def setup_method(self):
        self.rng = np.random.default_rng(30)
        self.cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.5)
        self.hist = random_history(self.rng, 2, rounds=25)
        self.state = build_confidence_state(self.hist, self.cfg, t=self.hist.t + 1)

    def test_mle_in_both_sets(self):
        assert in_set_C(self.state.theta_hat, self.state)
        assert in_set_E(self.state.theta_hat, self.state)

    def test_outside_parameter_ball_rejected(self):
        far = np.array([2.0, 0.0])
        assert not in_set_C(far, self.state)
        assert not in_set_E(far, self.state)

    @pytest.mark.parametrize("reader", [in_set_E, in_set_C])
    def test_wrong_length_theta_names_the_dimensions(self, reader):
        # The same error the likelihood readers raise, on an empty history too.
        empty = build_confidence_state(History(2), self.cfg, t=1)
        for state in (self.state, empty):
            for bad in (np.zeros(1), np.zeros(3)):
                with pytest.raises(ValueError, match="dimension mismatch: history is d=2"):
                    reader(bad, state)

    def test_c_members_pass_e(self):
        members = sample_c_members(self.rng, self.hist, self.cfg, self.state, 100)
        assert len(members) == 100
        assert all(in_set_E(th, self.state) for th in members)

    def test_e_is_convex_on_midpoints(self):
        rng = np.random.default_rng(31)
        members = []
        tries = 0
        while len(members) < 60 and tries < 4000:
            tries += 1
            cand = sample_ball(rng, 1, 2, radius=self.cfg.S)[0]
            if in_set_E(cand, self.state):
                members.append(cand)
        assert len(members) == 60
        for _ in range(1000):
            a, b = rng.integers(len(members), size=2)
            mid = 0.5 * (members[a] + members[b])
            assert in_set_E(mid, self.state)

    def test_empty_history_e_ball_boundary(self):
        for S, lam in ((200.0, 1.0), (50.0, 1.0), (3.0, 2.0)):
            cfg = ConfidenceConfig(d=2, K=1, delta=0.1, lam=lam, S=S)
            hist = History(2)
            state = build_confidence_state(hist, cfg, t=1)
            radius = min(S, state.beta * math.sqrt(2.0 / lam))
            inside = np.array([radius - 1e-6, 0.0])
            outside = np.array([radius + 1e-6, 0.0])
            assert in_set_E(inside, state)
            assert not in_set_E(outside, state)


def norm_set_reference(theta, rounds, cfg, state):
    """theta in C, one round at a time, and ||g(theta) - g(theta_hat)||^2 in H(theta)^-1."""
    g, H = cfg.lam * theta, cfg.lam * np.eye(cfg.d)
    for ass, _ in rounds:
        x = ass.contexts
        ez = np.exp(x @ theta)
        mu = ez / (1.0 + ez.sum())
        g = g + mu @ x
        H = H + sum(m * (1.0 - m) * np.outer(row, row) for m, row in zip(mu, x))
    dg = g - state.g_at_hat
    quad = float(dg @ np.linalg.solve(H, dg))
    in_ball = np.linalg.norm(theta) <= cfg.S * (1.0 + 1e-12)
    return bool(in_ball and quad <= state.gamma**2), quad


class TestNormSetBatch:
    def test_matches_per_row_reference(self):
        # Repeated offers of one pool plus fresh blocks, so the count-compressed
        # history weighs its blocks; draws from an ellipsoid around the MLE
        # wide enough to leave C and the ball.
        rng = np.random.default_rng(34)
        seen = set()
        for d, S in ((1, 5.0), (2, 1.5), (3, 5.0)):
            cfg = ConfidenceConfig(d=d, K=3, delta=0.1, lam=2.0, S=S)
            pool = sample_ball(rng, 5, d)
            rounds = []
            for _ in range(40):
                ass = AssortmentContexts.from_pool(pool, random_assortment(5, 3, rng))
                rounds.append((ass, int(rng.integers(0, ass.cardinality + 1))))
            for _ in range(5):
                rounds.append((make_assortment(sample_ball(rng, 2, d)), int(rng.integers(0, 3))))
            hist = history_of(d, rounds)
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            chol = np.linalg.cholesky(np.linalg.inv(state.H_hat))
            radius = 3.0 * state.gamma
            thetas = state.theta_hat + sample_ball(rng, 300, d, radius) @ chol.T
            got, values = _C_member(_Evaluation(hist.rows, thetas, cfg.lam), state)
            for theta, member, value in zip(thetas, got, values):
                expected, quad = norm_set_reference(theta, rounds, cfg, state)
                assert value == pytest.approx(quad, rel=1e-9, abs=1e-12)
                # No draw sits within rounding of C's boundary.
                assert abs(quad - state.gamma**2) > 1e-9 * state.gamma**2
                assert member == expected
                assert in_set_C(theta, state) == expected
                in_ball = np.linalg.norm(theta) <= cfg.S
                seen.add("inside" if expected else "outside C" if in_ball else "outside ball")
        assert seen == {"inside", "outside C", "outside ball"}


class TestDeviationBounds:
    def test_c_members_stay_close_in_star_norm(self):
        # Members of the norm-based set stay within 2 (1 + 2S) gamma of a
        # reference parameter in its own curvature norm, given the
        # reference is itself a member.
        rng = np.random.default_rng(32)
        from mnl_bandit.estimation import matrix_H

        checked = 0
        for _ in range(10):
            d = 2
            theta_star = sample_ball(rng, 1, d, radius=1.0)[0]
            cfg = ConfidenceConfig(d=d, K=2, delta=0.1, lam=2.0, S=1.0)
            hist = random_history(rng, d, rounds=30)
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            if not in_set_C(theta_star, state):
                continue
            h_star = matrix_H(hist, theta_star, cfg.lam)
            bound = 2.0 * (1.0 + 2.0 * cfg.S) * state.gamma
            for th in sample_c_members(rng, hist, cfg, state, 20):
                dev = math.sqrt((th - theta_star) @ h_star @ (th - theta_star))
                assert dev <= bound
                checked += 1
        assert checked > 0

    def test_e_boundary_points_within_relaxed_bound(self):
        rng = np.random.default_rng(33)
        from mnl_bandit.estimation import matrix_H

        checked = 0
        for _ in range(10):
            d = 2
            theta_star = sample_ball(rng, 1, d, radius=1.0)[0]
            cfg = ConfidenceConfig(d=d, K=2, delta=0.1, lam=2.0, S=1.0)
            hist = random_history(rng, d, rounds=30)
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            if not in_set_C(theta_star, state):
                continue
            h_star = matrix_H(hist, theta_star, cfg.lam)
            bound = (2.0 + 2.0 * cfg.S) * state.gamma + 2.0 * math.sqrt(1.0 + cfg.S) * state.beta
            dirs = rng.standard_normal((40, d))
            for th in e_boundary_multi(state, dirs):
                assert in_set_E(th, state)
                dev = math.sqrt((th - theta_star) @ h_star @ (th - theta_star))
                assert dev <= bound
                checked += 1
        assert checked > 0


class TestDifferenceQuotientBounds:
    """Single-item relations behind the deviation analysis.

    With one item per round the difference quotient of the choice
    probability is a mean value of the diagonal derivative, so the
    Taylor-style upper bound and the mixed-norm deviation bound both hold;
    cross-item terms void them for larger assortments.
    """

    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        theta_star = sample_ball(rng, 1, 2, radius=1.0)[0]
        cfg = ConfidenceConfig(d=2, K=1, delta=0.1, lam=2.0, S=1.0)
        rounds = random_rounds(rng, 2, K=1, rounds=30)
        hist = history_of(2, rounds)
        state = build_confidence_state(hist, cfg, t=hist.t + 1)
        return rng, theta_star, cfg, hist, state, rounds

    def test_alpha_taylor_bound(self):
        from mnl_bandit.choice import choice_probabilities, diag_derivative
        from mnl_bandit.estimation import matrix_H

        m_const = 0.25
        checked = 0
        for seed in range(8):
            rng, theta_star, cfg, hist, state, rounds = self._setup(40 + seed)
            if not in_set_C(theta_star, state):
                continue
            h_star = matrix_H(hist, theta_star, cfg.lam)
            for theta in sample_c_members(rng, hist, cfg, state, 25):
                for ass, _ in rounds[:5]:
                    du = float(ass.contexts[0] @ (theta - theta_star))
                    if abs(du) < 1e-9:
                        continue
                    mu_t = float(choice_probabilities(ass, theta).item_probs[0])
                    mu_s = float(choice_probabilities(ass, theta_star).item_probs[0])
                    alpha = (mu_t - mu_s) / du
                    x = ass.contexts[0]
                    x_norm = math.sqrt(x @ np.linalg.solve(h_star, x))
                    bound = (
                        diag_derivative(ass, theta_star, 0)
                        + 2.0 * (1.0 + 2.0 * cfg.S) * m_const * state.gamma * x_norm
                    )
                    assert alpha <= bound + 1e-9
                    checked += 1
        assert checked > 100

    def test_g_deviation_in_quotient_norm(self):
        from mnl_bandit.estimation import g_vector, matrix_G

        checked = 0
        for seed in range(8):
            rng, _, cfg, hist, state, _ = self._setup(60 + seed)
            cap = state.gamma + state.gamma**2 / cfg.lam
            for theta in sample_c_members(rng, hist, cfg, state, 25):
                dg = g_vector(hist, theta, cfg.lam) - state.g_at_hat
                g_mat = matrix_G(hist, theta, state.theta_hat, cfg.lam)
                dev = math.sqrt(dg @ np.linalg.solve(g_mat, dg))
                assert dev <= cap + 1e-9
                checked += 1
        assert checked > 100


def ascent_starts(hist, cfg, state, restarts, rng, extra=()):
    """The anchor, boundary points along ``restarts - 1`` directions drawn from
    ``rng``, then ``extra``: the starts the ascent once built for itself."""
    starts = [state.anchor]
    if restarts > 1:
        dirs = rng.standard_normal((restarts - 1, hist.dim))
        starts.extend(e_boundary_multi(state, dirs))
    return np.vstack(starts + list(extra))


def reference_ascent(ass, hist, cfg, state, starts, max_iter):
    """The per-start ascent: one start, one step and one scalar membership test at a time."""
    base = state.anchor

    def pull(cand):
        # Projection onto the ball, then one scalar membership test in E.
        norm = float(np.linalg.norm(cand))
        if norm > cfg.S:
            cand = cand * (cfg.S / norm)
        return cand, in_set_E(cand, state)

    def drop_outward(vec, normal):
        if normal is not None and float(vec @ normal) > 0.0:
            vec = vec - (float(vec @ normal) / float(normal @ normal)) * normal
        return vec

    best_val, best_theta = expected_revenue(ass, base), base.copy()
    for start in starts:
        theta = np.asarray(start, dtype=float).copy()
        val = expected_revenue(ass, theta)
        grad = revenue_gradient(ass, theta)[1]
        eta = cfg.S / float(np.linalg.norm(grad)) if grad.any() else cfg.S  # a first step of length S
        for _ in range(max_iter):
            # The stop drops an outward radial part on the ball's sphere.
            step = revenue_gradient(ass, theta)[1]
            on_sphere = float(theta @ theta) >= (cfg.S * (1.0 - 1e-9)) ** 2
            if np.linalg.norm(drop_outward(step, theta if on_sphere else None)) < 1e-3:
                break
            cand, in_e = pull(theta + eta * step)
            cand_val = expected_revenue(ass, cand)
            if in_e and cand_val > val + 1e-6:
                theta, val = cand, cand_val
                eta *= 2.0
            else:
                eta *= 0.5
                if eta < 1e-4:
                    break
        if val > best_val:
            best_val, best_theta = val, theta
    return best_val, best_theta


class TestBoundarySearch:
    GAMMA = 7.5  # with lam = 200, E binds inside the ball (S = 3) of these 40-round histories

    def test_bracket_probes_share_one_membership_pass(self, member_passes):
        def rows():
            return [len(thetas) for _, thetas, _ in member_passes]

        dirs = np.random.default_rng(38).standard_normal((8, 2))
        # Only the ball binds: both probes of every ray lie on its sphere.  With
        # no history the whole-ball proof holds, so the outer probes are
        # returned with no pass.
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=4.0, S=0.5)
        hist = History(2)
        state = build_confidence_state(hist, cfg, t=1)
        edge = e_boundary_multi(state, dirs)
        assert state.ball_in_E and rows() == []
        np.testing.assert_allclose(np.linalg.norm(edge, axis=1), cfg.S, rtol=1e-12)
        # Its twin: 40 rounds at gamma = 1.2, where the proof fails and every
        # probe passes the bracket pass, which returns its outer probes.
        hist = random_history(np.random.default_rng(38), 2, rounds=40)
        state = with_radius(build_confidence_state(hist, cfg, t=hist.t + 1), 1.2, cfg.lam)
        edge = e_boundary_multi(state, dirs)
        assert not state.ball_in_E and rows() == [16]
        assert member_passes[0][2].all()
        np.testing.assert_array_equal(edge, member_passes[0][1][8:])
        # E binds (lam = 200, gamma = 7.5): the bracket pass, then one chord
        # step on every ray, whose points lam-strong convexity proves inside.
        member_passes.clear()
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=200.0, S=3.0)
        hist = random_history(np.random.default_rng(38), 2, rounds=40)
        state = with_radius(build_confidence_state(hist, cfg, t=hist.t + 1), self.GAMMA, cfg.lam)
        edge = e_boundary_multi(state, dirs)
        assert rows() == [16]
        assert _E_member(_Evaluation(hist.rows, edge, cfg.lam), state)[0].all()
        assert np.linalg.norm(edge, axis=1).max() < 0.9 * cfg.S
        # Its twin at gamma = 3, where the proof fails on some ray: the chord
        # pass tests every ray's chord point.
        member_passes.clear()
        tight = with_radius(state, 3.0, cfg.lam)
        edge = e_boundary_multi(tight, dirs)
        assert rows() == [16, 8]
        assert _E_member(_Evaluation(hist.rows, edge, cfg.lam), tight)[0].all()
        # A feasible anchor other than theta_hat joins the bracket pass, which
        # reads its loss gap instead of taking it as 0.
        moved = dataclasses.replace(state)
        moved.anchor = 0.5 * state.theta_hat
        assert in_set_E(moved.anchor, state)
        member_passes.clear()
        edge = e_boundary_multi(moved, dirs)
        assert rows() == [17]
        assert _E_member(_Evaluation(hist.rows, edge, cfg.lam), state)[0].all()
        # A zero direction is a ray of length 0: it returns the anchor.
        edge = e_boundary_multi(moved, np.vstack([dirs[:1], np.zeros((1, 2))]))
        assert _E_member(_Evaluation(hist.rows, edge, cfg.lam), state)[0].all()
        np.testing.assert_array_equal(edge[1], moved.anchor)

    @pytest.mark.parametrize("seed", [38, 1, 2, 3])
    def test_chord_points_sit_at_the_exit(self, seed, member_passes):
        # At gamma = 7.5 lam-strong convexity proves every chord point
        # inside, so the bracket pass is the only one; at gamma = 3 the proof
        # fails on some ray, and a second pass tests the chord points.
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((8, 2))
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=200.0, S=3.0)
        hist = random_history(rng, 2, rounds=40)
        fitted = build_confidence_state(hist, cfg, t=hist.t + 1)
        for gamma, passes in ((self.GAMMA, 1), (3.0, 2)):
            state = with_radius(fitted, gamma, cfg.lam)
            member_passes.clear()
            edge = e_boundary_multi(state, dirs)
            assert len(member_passes) == passes  # the bisection below adds its own

            base = state.anchor
            unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
            _, probes, ok = member_passes[0]
            s0, s1 = np.linalg.norm(probes - base, axis=1).reshape(2, -1)
            f0, f1 = ok.reshape(2, -1)
            lo = np.where(f0, np.where(f1, s1, s0), 0.0)
            dist = np.linalg.norm(edge - base, axis=1)
            assert _E_member(_Evaluation(hist.rows, edge, cfg.lam), state)[0].all()
            assert (dist >= lo).all()
            for v, s in zip(unit, dist):
                # The exit of E intersect Theta along the ray, by 60 bisections.
                # Here s0 alone is within 3e-4 of it; the chord step gets within 4e-5.
                a, b = 0.0, 2.0 * cfg.S
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    a, b = (mid, b) if in_set_E(base + mid * v, state) else (a, mid)
                assert (1.0 - 1e-4) * a <= s <= b
            assert dist.max() < 0.9 * cfg.S  # E binds on every ray


class TestStateIsASnapshot:
    def test_appends_after_the_build_leave_it_unchanged(self, member_passes):
        # ``History.append`` updates offer and purchase counts in place, and
        # the state derives its quantities at theta_hat on first read, so
        # nothing is read from ``state`` before the appends.
        import copy

        rng = np.random.default_rng(41)
        pool = sample_ball(rng, 4, 2)
        hist = History(2)
        for t in range(60):
            hist.append(AssortmentContexts.from_pool(pool, [(0, 1), (2,), (1, 3)][t % 3]), t % 2)
        cfg = ConfidenceConfig(d=2, K=3, delta=0.1, lam=200.0, S=3.0)
        dirs = rng.standard_normal((8, 2))

        def first_probes(state):
            # The whole-ball proof holds, so the search returns its outer
            # probes with no pass; they depend on the Hessian at theta_hat.
            member_passes.clear()
            probes = e_boundary_multi(state, dirs)
            assert state.ball_in_E and member_passes == []
            return probes

        before = copy.deepcopy(hist)
        state = build_confidence_state(hist, cfg, t=61)
        ref = build_confidence_state(before, cfg, t=61)
        ll, g, h = ref.mle.evaluation.log_likelihood, ref.g_at_hat, ref.H_hat
        probes = first_probes(ref)
        hess = ref.mle.evaluation.nll_hessian

        hist.append(AssortmentContexts.from_pool(pool, (0, 1)), 1)  # repeats a block
        hist.append(AssortmentContexts.from_pool(pool, (0, 2, 3)), 2)  # adds one
        assert hist.rows.n_blocks == before.rows.n_blocks + 1
        theta_hat = state.theta_hat
        assert penalized_log_likelihood(hist, theta_hat, cfg.lam) != ll
        assert not np.array_equal(_evaluate(hist.rows, theta_hat, cfg.lam).nll_hessian, hess)

        assert state.mle.evaluation.log_likelihood == ll
        np.testing.assert_array_equal(state.g_at_hat, g)
        np.testing.assert_array_equal(state.H_hat, h)
        np.testing.assert_array_equal(first_probes(state), probes)

    def test_set_tests_and_search_read_the_rows_it_was_built_on(self):
        rng = np.random.default_rng(42)
        pool = sample_ball(rng, 4, 2)
        hist = History(2)

        def play(rounds):
            for _ in range(rounds):
                ass = AssortmentContexts.from_pool(pool, random_assortment(4, 2, rng))
                hist.append(ass, int(rng.integers(0, ass.cardinality + 1)))

        play(40)
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=3.0)
        state = with_radius(build_confidence_state(hist, cfg, t=hist.t + 1), 1.2, cfg.lam)
        rows = state.mle.evaluation.rows
        assert rows is hist.rows and not state.ball_in_E
        names = ("ctx_flat", "seg_ids", "starts", "offers", "purchases")
        copies = {name: getattr(rows, name).copy() for name in names}
        thetas = state.theta_hat + sample_ball(rng, 60, 2, radius=2.0)
        dirs = rng.standard_normal((16, 2))

        def readings():
            bits = [(in_set_E(th, state), in_set_C(th, state)) for th in thetas]
            return bits, [e_boundary_multi(state, directions=dirs, set_kind=k) for k in "EC"]

        bits, points = readings()
        assert {e for e, _ in bits} == {True, False} and {c for _, c in bits} == {True, False}

        play(60)  # repeated blocks: new counts only
        hist.append(make_assortment(sample_ball(rng, 2, 2)), 1)  # a block of new rows
        assert hist.rows.n_items > rows.n_items and hist.rows.n_blocks > rows.n_blocks
        assert penalized_log_likelihood(hist, state.theta_hat, cfg.lam) != state.mle.evaluation.log_likelihood

        bits_after, points_after = readings()
        assert bits_after == bits
        for got, want in zip(points_after, points, strict=True):
            np.testing.assert_array_equal(got, want)
        for name in names:
            np.testing.assert_array_equal(getattr(rows, name), copies[name])


class TestMaxRevenueOverE:
    def test_matches_per_start_reference(self):
        rng = np.random.default_rng(36)
        inside_ball = 0
        for draw in range(50):
            d = int(rng.integers(1, 4))
            S = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            # Up to about 400: with gamma = 3, E binds in 22 of the 50 draws.
            lam = float(np.exp(rng.uniform(0.0, 6.0)))
            cfg = ConfidenceConfig(d=d, K=3, delta=0.1, lam=lam, S=S)
            hist = random_history(rng, d, K=3, rounds=int(rng.integers(0, 80)))
            state = with_radius(build_confidence_state(hist, cfg, t=hist.t + 1), 3.0, lam)
            k = int(rng.integers(1, 4))
            ctx = sample_ball(rng, k, d)
            ass = AssortmentContexts(tuple(range(k)), ctx, rng.uniform(0.2, 3.0, k))
            restarts = int(rng.integers(1, 7))
            extra_dirs = rng.standard_normal((int(rng.integers(0, 3)), d))
            extra = list(e_boundary_multi(state, extra_dirs))
            max_iter = int(rng.choice([5, 40, 200]))
            starts = ascent_starts(hist, cfg, state, restarts, np.random.default_rng(draw), extra)
            want_val, want_theta = reference_ascent(ass, hist, cfg, state, starts, max_iter)
            val, theta = max_revenue_over_E(ass, state, starts, max_iter=max_iter)
            assert val == pytest.approx(want_val, abs=1e-12)
            np.testing.assert_allclose(theta, want_theta, rtol=0.0, atol=1e-12)
            inside_ball += float(np.linalg.norm(theta)) < 0.9 * S
        assert inside_ball > 0  # in some draws E, not the ball, binds the ascent

    def test_batched_membership_matches_scalar(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            S = float(rng.choice([1.0, 3.0]))
            cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=S)
            hist = random_history(rng, 2, rounds=int(rng.integers(0, 60)))
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            dirs = rng.standard_normal((8, 2))
            edge = e_boundary_multi(state, dirs)
            unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
            thetas = np.vstack([
                state.anchor,
                edge,  # on the boundary of E intersect Theta, inside
                state.anchor + 1.05 * (edge - state.anchor),  # just past it
                cfg.S * unit,  # on the ball's sphere
                1.5 * cfg.S * unit,  # outside the ball
                sample_ball(rng, 8, 2, radius=cfg.S),
            ])
            got = _E_member(_Evaluation(hist.rows, thetas, cfg.lam), state)[0]
            want = [in_set_E(th, state) for th in thetas]
            assert got.tolist() == want
            assert all(want[1:9]) and not any(want[25:33])

    def test_ball_bound_step_costs_no_membership_pass(self, member_passes):
        # With no history E is the ball of radius beta * sqrt(2 / lam), about 9.1,
        # so only Theta (S = 0.5) can bind and its exit is exact.
        cfg = ConfidenceConfig(d=3, K=2, delta=0.1, lam=4.0, S=0.5)
        hist = History(3)
        state = build_confidence_state(hist, cfg, t=1)
        assert state.beta * math.sqrt(2.0 / cfg.lam) > 9.0
        ass = make_assortment([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        _, theta = max_revenue_over_E(ass, state, state.anchor, max_iter=40)
        # E holds the whole ball provably, so the ascent's candidates take
        # the ball test alone.  The first step, of length S along the
        # gradient, reaches the sphere; there the gradient is radial, so the
        # start stops.
        assert state.ball_in_E and len(member_passes) == 0
        assert abs(float(np.linalg.norm(theta)) - cfg.S) <= 1e-12
        assert in_set_E(theta, state)
        grad = revenue_gradient(ass, theta)[1]
        assert grad @ theta > 0.0  # the ball binds
        tangential = grad - (grad @ theta) / (theta @ theta) * theta
        assert float(np.linalg.norm(tangential)) < 1e-3
        # Its twin: 10 rounds at gamma = 0.8, where the proof fails, so
        # every step's candidates take a membership pass, 5 in all.
        hist = random_history(np.random.default_rng(44), 3, rounds=10)
        state = with_radius(build_confidence_state(hist, cfg, t=hist.t + 1), 0.8, cfg.lam)
        member_passes.clear()
        _, theta = max_revenue_over_E(ass, state, state.anchor, max_iter=40)
        assert not state.ball_in_E
        assert len(member_passes) == 5
        assert abs(float(np.linalg.norm(theta)) - cfg.S) <= 1e-12
        assert in_set_E(theta, state)

    def test_unproved_ball_takes_membership_passes(self, member_passes):
        # 100 rounds at S = 3 and the default config's lam, where the
        # whole-ball proof fails but a cruder bound from the design matrix V
        # (the loss Hessian is at most V everywhere) would hold: the ascent
        # reads the proof alone, so it tests its candidates in E.
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=default_lambda(2, 2, 500), S=3.0)
        hist = random_history(np.random.default_rng(40), 2, rounds=100)
        state = build_confidence_state(hist, cfg, t=hist.t + 1)
        r = cfg.S + float(np.linalg.norm(state.theta_hat))
        lam_max = float(np.linalg.eigvalsh(matrix_V(hist.rows, cfg.lam))[-1])
        assert not state.ball_in_E
        assert state.mle.score_norm * r + 0.5 * lam_max * r * r < state.beta**2
        ass = make_assortment(sample_ball(np.random.default_rng(41), 2, 2))
        _, theta = max_revenue_over_E(ass, state, state.anchor)
        assert len(member_passes) > 0
        assert in_set_E(theta, state)

    @staticmethod
    def ascent_draws():
        """Ten draws with lam = 2 and S = 1, then ten with lam 30 or 100, where
        E lies well inside the ball and binds the ascent."""
        rng = np.random.default_rng(34)
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.0)
        for _ in range(10):
            hist = random_history(rng, 2, rounds=15)
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            ass = make_assortment(sample_ball(rng, 2, 2))
            yield cfg, hist, state, ass, ascent_starts(hist, cfg, state, 3, rng)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lam, S = float(rng.choice([30.0, 100.0])), float(rng.choice([1.0, 2.0]))
            cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=lam, S=S)
            hist = random_history(rng, 2, rounds=40)
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            ass = make_assortment(sample_ball(rng, 2, 2))
            yield cfg, hist, state, ass, ascent_starts(hist, cfg, state, 5, rng)

    def test_never_below_anchor_value(self):
        for cfg, hist, state, ass, starts in self.ascent_draws():
            val, theta = max_revenue_over_E(ass, state, starts)
            assert val >= max(expected_revenue(ass, start) for start in starts) - 1e-12
            assert val == pytest.approx(expected_revenue(ass, theta), abs=1e-12)
            assert in_set_E(theta, state)

    def test_empty_history_single_item_reaches_sigma_S(self):
        for S in (0.5, 1.0):
            cfg = ConfidenceConfig(d=1, K=1, delta=0.1, lam=1.0, S=S)
            hist = History(1)
            state = build_confidence_state(hist, cfg, t=1)
            ass = make_assortment([[1.0]])
            starts = ascent_starts(hist, cfg, state, 3, np.random.default_rng(0))
            val, theta = max_revenue_over_E(ass, state, starts)
            assert val == pytest.approx(1.0 / (1.0 + math.exp(-S)), abs=1e-6)
            assert theta[0] == pytest.approx(S, abs=1e-4)

    @staticmethod
    def ball_bound_draw(seed):
        """A short random history with lam = 2 and S = 1, where the ball, not E, binds."""
        rng = np.random.default_rng(seed)
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.0)
        hist = random_history(rng, 2, rounds=20)
        state = build_confidence_state(hist, cfg, t=hist.t + 1)
        ass = make_assortment(sample_ball(rng, 2, 2))
        return rng, cfg, hist, state, ass

    def test_dominates_any_feasible_parameter_value(self):
        for seed in range(35, 75):
            rng, cfg, hist, state, ass = self.ball_bound_draw(seed)
            starts = ascent_starts(hist, cfg, state, 6, rng)
            val, _ = max_revenue_over_E(ass, state, starts)
            for _ in range(200):
                cand = sample_ball(rng, 1, 2, radius=cfg.S)[0]
                if in_set_E(cand, state):
                    assert val >= expected_revenue(ass, cand) - 1e-9, seed

    def test_converges_within_the_step_cap(self):
        cases = []
        for seed in range(35, 45):
            _, cfg, hist, state, ass = self.ball_bound_draw(seed)
            cases.append((ass, hist, cfg, state, 6, seed))
        # Demo 03: 200 random rounds on instance 3 (N=5), lam = 5, items (0, 1).
        instance = make_instance(InstanceConfig(d=2, N=5, K=2, S=1.0), seed=3)
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=5.0, S=1.0)
        hist = History(2)
        rng_assort = stream(3, 7)
        for t in range(1, 201):
            picked = random_assortment(5, 2, rng_assort)
            ass = AssortmentContexts.from_pool(instance.pool, picked, instance.prices)
            hist.append(ass, environment_step(instance, ass, stream(3, TAG_OUTCOME, t)))
        state = build_confidence_state(hist, cfg, t=201)
        ass = AssortmentContexts.from_pool(instance.pool, (0, 1), instance.prices)
        cases.append((ass, hist, cfg, state, 5, 1))
        for ass, hist, cfg, state, restarts, seed in cases:
            starts = ascent_starts(hist, cfg, state, restarts, np.random.default_rng(seed))
            short, long_ = (
                max_revenue_over_E(ass, state, starts, max_iter=max_iter)
                for max_iter in (40, 400)
            )
            assert abs(float(np.linalg.norm(long_[1])) - cfg.S) <= 1e-9
            assert short[0] == pytest.approx(long_[0], abs=1e-6)

    def test_rejects_zero_restarts(self):
        cfg = ConfidenceConfig(d=1, K=1)
        hist = History(1)
        state = build_confidence_state(hist, cfg, t=1)
        for empty in (np.zeros((0, 1)), []):
            with pytest.raises(ValueError, match="starts"):
                max_revenue_over_E(make_assortment([[1.0]]), state, empty)


class TestConfigValidation:
    def test_state_rejects_a_config_of_another_dimension(self):
        # The config's d sizes the radius and the policy's search directions.
        for d in (1, 5):
            with pytest.raises(ValueError, match="history is d=2, config is d=" + str(d)):
                build_confidence_state(History(2), ConfidenceConfig(d=d, K=2), t=1)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            ConfidenceConfig(d=1, K=1, delta=0.0)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            ConfidenceConfig(d=1, K=1, lam=0.5)


def _annotated_names(annotation) -> set[str]:
    """Every class name an annotation mentions, string annotations included."""
    if annotation is None:
        return set()
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotated_names(ast.parse(node.value, mode="eval").body)
    return names


def test_no_function_takes_a_history_beside_a_state():
    # A state carries its rows (``state.mle.evaluation.rows``): a function
    # that also takes a History has a second source, which an append moves
    # away from the state's.
    both, seen = [], set()
    for path in sorted(Path(mnl_bandit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                kinds = {
                    kind for p in params if p is not None
                    for kind in _annotated_names(p.annotation) & {"History", "ConfidenceState"}
                }
                seen |= kinds
                if len(kinds) == 2:
                    both.append(f"{path.name}:{node.lineno} {node.name}")
    assert seen == {"History", "ConfidenceState"}
    assert not both, f"History beside ConfidenceState: {both}"
