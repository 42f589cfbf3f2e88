"""Assortment enumeration and decision steps."""
import numpy as np
import pytest

from mnl_bandit.choice import (
    AssortmentContexts,
    choice_probabilities,
    expected_revenue,
    sample_choice,
)
from mnl_bandit.confidence import (
    L_CONST,
    ConfidenceConfig,
    build_confidence_state,
    in_set_E,
    max_revenue_over_E,
)
from mnl_bandit.estimation import History, matrix_V
from mnl_bandit.harness import ExperimentConfig, run_experiment
from mnl_bandit.policy import (
    ConfigurationError,
    _as_tuple,
    _attraction,
    _best,
    _revenues,
    _static_optimum,
    bonus_ucb_step,
    cb_mnl_step,
    enumerate_assortments,
    oracle_assortment,
    random_assortment,
)
from mnl_bandit.simulator import sample_ball


def make_assortment(contexts):
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    return AssortmentContexts(tuple(range(contexts.shape[0])), contexts, np.ones(contexts.shape[0]))


def as_tuples(rows):
    return [_as_tuple(row) for row in rows]


class TestEnumeration:
    def test_three_choose_up_to_two(self):
        got = enumerate_assortments(3, 2)
        np.testing.assert_array_equal(
            got, [[0, -1], [1, -1], [2, -1], [0, 1], [0, 2], [1, 2]]
        )
        assert as_tuples(got) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_single_item_universe(self):
        np.testing.assert_array_equal(enumerate_assortments(1, 1), [[0]])

    def test_ten_choose_up_to_three_counts(self):
        rows = enumerate_assortments(10, 3)
        assert rows.shape == (10 + 45 + 120, 3)
        assert len(set(as_tuples(rows))) == rows.shape[0]

    def test_matrix_is_read_only(self):
        rows = enumerate_assortments(4, 2)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 3

    def test_guard_trips_on_blowup(self):
        with pytest.raises(ConfigurationError, match="guard"):
            enumerate_assortments(100, 12)

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            enumerate_assortments(3, 0)
        with pytest.raises(ValueError):
            enumerate_assortments(3, 4)


class TestRanking:
    def test_cross_size_tie_goes_to_smaller_tuple(self):
        # (0, 1) < (1,) as tuples, although (1,) comes first in row order.
        rows = enumerate_assortments(2, 2)  # (0,), (1,), (0, 1)
        values = np.array([0.1, 0.5, 0.5])
        assert _as_tuple(rows[_best(rows, values)]) == (0, 1)
        # A prefix wins a tie with its extension, as it does for tuples.
        values = np.array([0.5, 0.1, 0.5])
        assert _as_tuple(rows[_best(rows, values)]) == (0,)

    def test_matches_tuple_sort_on_random_ties(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            N = int(rng.integers(1, 7))
            rows = enumerate_assortments(N, int(rng.integers(1, N + 1)))
            values = rng.integers(0, 3, len(rows)) / 2.0  # many exact ties
            tuples = as_tuples(rows)
            first = min(range(len(rows)), key=lambda p: (-values[p], tuples[p]))
            assert tuples[_best(rows, values)] == tuples[first]


class TestOracle:
    def test_equal_utilities_tie_break_to_first_block(self):
        pool = np.tile(np.array([[0.3, 0.1]]), (4, 1))
        assert oracle_assortment(pool, np.array([1.0, 0.0]), 2) == (0, 1)

    def test_full_cardinality_takes_everything(self):
        rng = np.random.default_rng(0)
        pool = sample_ball(rng, 4, 2)
        theta = np.array([0.5, -0.25])
        assert oracle_assortment(pool, theta, 4) == (0, 1, 2, 3)

    def test_brute_force_agrees_with_top_k_by_utility(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            N = int(rng.integers(2, 6))
            K = int(rng.integers(1, N + 1))
            pool = sample_ball(rng, N, d)
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            utils = pool @ theta
            top = tuple(sorted(np.argsort(-utils)[:K]))
            assert oracle_assortment(pool, theta, K) == top


class TestCbMnlStep:
    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.0)

    def _state(self, hist):
        return build_confidence_state(hist, self.cfg, t=hist.t + 1)

    def _burn_in(self, pool, rounds, seed=0):
        rng = np.random.default_rng(seed)
        hist = History(2)
        theta_star = np.array([0.8, -0.3])
        for _ in range(rounds):
            a = random_assortment(pool.shape[0], 2, rng)
            ass = AssortmentContexts.from_pool(pool, a)
            hist.append(ass, sample_choice(choice_probabilities(ass, theta_star), rng))
        return hist, theta_star

    def test_single_feasible_assortment(self):
        cfg = ConfidenceConfig(d=2, K=1, delta=0.1, lam=2.0, S=1.0)
        pool = np.array([[0.5, 0.1]])
        hist = History(2)
        state = build_confidence_state(hist, cfg, t=1)
        decision = cb_mnl_step(pool, hist, cfg, state, rng=self.rng)
        assert decision.assortment == (0,)

    def test_symmetric_contexts_tie_break_to_prefix(self):
        pool = np.tile(np.array([[0.4, 0.2]]), (4, 1))
        hist = History(2)
        state = self._state(hist)
        decision = cb_mnl_step(pool, hist, cfg=self.cfg, state=state,
                               rng=np.random.default_rng(3), refine_top=0, n_dirs=6)
        assert decision.assortment == (0, 1)

    def test_value_attained_by_returned_parameter(self):
        pool = sample_ball(self.rng, 4, 2)
        hist, _ = self._burn_in(pool, 12)
        state = self._state(hist)
        for refine_top in (1, 0):
            decision = cb_mnl_step(pool, hist, self.cfg, state,
                                   rng=np.random.default_rng(4),
                                   refine_top=refine_top, n_dirs=6, restarts=2)
            played = AssortmentContexts.from_pool(pool, decision.assortment)
            got = expected_revenue(played, decision.theta_used)
            assert decision.optimistic_value == pytest.approx(got, abs=1e-9)
            assert in_set_E(decision.theta_used, hist, self.cfg, state)

    def test_optimism_dominates_truth_when_covered(self):
        pool = sample_ball(np.random.default_rng(5), 4, 2)
        hist, theta_star = self._burn_in(pool, 25, seed=6)
        state = self._state(hist)
        if not in_set_E(theta_star, hist, self.cfg, state):
            pytest.skip("reference parameter not covered in this draw")
        best = oracle_assortment(pool, theta_star, 2)
        truth = expected_revenue(AssortmentContexts.from_pool(pool, best), theta_star)
        decision = cb_mnl_step(pool, hist, self.cfg, state,
                               rng=np.random.default_rng(7), refine_top=1, restarts=4)
        assert decision.optimistic_value >= truth - 1e-9

    def test_deterministic_given_seed(self):
        pool = sample_ball(np.random.default_rng(8), 4, 2)
        hist, _ = self._burn_in(pool, 10, seed=9)
        state = self._state(hist)
        d1 = cb_mnl_step(pool, hist, self.cfg, state, rng=np.random.default_rng(11),
                         refine_top=1, n_dirs=6)
        d2 = cb_mnl_step(pool, hist, self.cfg, state, rng=np.random.default_rng(11),
                         refine_top=1, n_dirs=6)
        assert d1.assortment == d2.assortment
        assert d1.optimistic_value == d2.optimistic_value
        np.testing.assert_array_equal(d1.theta_used, d2.theta_used)

    def test_one_boundary_search_per_round(self, monkeypatch):
        # The ascent starts from the screening pool; it draws no boundary points of its own.
        import mnl_bandit.confidence as confidence
        import mnl_bandit.policy as policy

        calls = []
        search = confidence.e_boundary_multi

        def counted(*args):
            calls.append(len(args[3]))
            return search(*args)

        monkeypatch.setattr(confidence, "e_boundary_multi", counted)
        monkeypatch.setattr(policy, "e_boundary_multi", counted)
        pool = sample_ball(np.random.default_rng(15), 4, 2)
        hist, _ = self._burn_in(pool, 10, seed=16)
        cb_mnl_step(pool, hist, self.cfg, self._state(hist), rng=np.random.default_rng(17),
                    refine_top=1, n_dirs=6, restarts=5)
        assert calls == [6]

    def test_rejects_more_restarts_than_screening_points(self):
        hist = History(2)
        with pytest.raises(ValueError, match="restarts"):
            cb_mnl_step(np.eye(2), hist, self.cfg, self._state(hist), n_dirs=3, restarts=5)

    def test_c_set_variant_returns_member_value(self):
        from mnl_bandit.confidence import in_set_C

        pool = sample_ball(np.random.default_rng(12), 3, 2)
        hist, _ = self._burn_in(pool, 15, seed=13)
        state = self._state(hist)
        decision = cb_mnl_step(pool, hist, self.cfg, state, set_kind="C",
                               rng=np.random.default_rng(14))
        played = AssortmentContexts.from_pool(pool, decision.assortment)
        got = expected_revenue(played, decision.theta_used)
        assert decision.optimistic_value == pytest.approx(got, abs=1e-9)
        assert in_set_C(decision.theta_used, hist, self.cfg, state)

    @pytest.mark.parametrize("refine_top", [2, -1, True])
    def test_refines_at_most_the_leader(self, refine_top):
        hist = History(2)
        with pytest.raises(ValueError, match="refine_top"):
            cb_mnl_step(np.eye(2), hist, self.cfg, self._state(hist), refine_top=refine_top)

    def test_unknown_set_kind(self):
        hist = History(2)
        state = self._state(hist)
        with pytest.raises(ValueError, match="set kind"):
            cb_mnl_step(np.zeros((2, 2)), hist, self.cfg, state, set_kind="X")


class TestBonusUcb:
    def setup_method(self):
        self.cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=2.0, S=1.0)

    def test_symmetric_contexts_match_optimistic_choice(self):
        pool = np.tile(np.array([[0.4, 0.2]]), (3, 1))
        hist = History(2)
        state = build_confidence_state(hist, self.cfg, t=1)
        bonus = bonus_ucb_step(pool, hist, self.cfg, state, kappa_hat=5.0)
        optimistic = cb_mnl_step(pool, hist, self.cfg, state,
                                 rng=np.random.default_rng(0), refine_top=0, n_dirs=4)
        assert bonus.assortment == optimistic.assortment == (0, 1)

    def test_bonus_is_nonnegative(self):
        rng = np.random.default_rng(15)
        pool = sample_ball(rng, 4, 2)
        hist = History(2)
        for _ in range(10):
            hist.append(AssortmentContexts.from_pool(pool, (0, 1)), 0)
        state = build_confidence_state(hist, self.cfg, t=hist.t + 1)
        decision = bonus_ucb_step(pool, hist, self.cfg, state, kappa_hat=6.0)
        played = AssortmentContexts.from_pool(pool, decision.assortment)
        base = expected_revenue(played, state.theta_hat)
        assert decision.optimistic_value >= base - 1e-12

    def test_repeated_context_bonus_shrinks(self):
        pool = np.array([[0.6, 0.2], [-0.1, 0.4]])
        ass = AssortmentContexts.from_pool(pool, (0, 1))

        def v_term(hist):
            v = matrix_V(hist, self.cfg.lam)
            return sum(x @ np.linalg.solve(v, x) for x in pool)

        hist = History(2)
        for _ in range(10):
            hist.append(ass, 0)
        early = v_term(hist)
        for _ in range(990):
            hist.append(ass, 0)
        late = v_term(hist)
        assert late < early


def reference_revenues(pool, prices, K, theta):
    """Expected revenue of every feasible assortment, one object at a time."""
    return {
        a: expected_revenue(AssortmentContexts.from_pool(pool, a, prices), theta)
        for a in as_tuples(enumerate_assortments(pool.shape[0], K))
    }


def _argmax_lex(values):
    """Assortment with the largest value; exact ties go to the smaller tuple."""
    return min(values, key=lambda a: (-values[a], a))


class TestScorerAgainstReference:
    """Scorer-backed steps against a per-assortment loop, non-unit prices."""

    def test_oracle_matches_reference_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            N = int(rng.integers(1, 8))
            K = int(rng.integers(1, N + 1))
            pool = sample_ball(rng, N, d)
            prices = rng.uniform(0.1, 5.0, N)
            theta = sample_ball(rng, 1, d, radius=3.0)[0]
            expected = _argmax_lex(reference_revenues(pool, prices, K, theta))
            assert oracle_assortment(pool, theta, K, prices) == expected

    def test_bonus_value_is_mle_revenue_plus_bonus(self):
        cfg = ConfidenceConfig(d=3, K=3, delta=0.1, lam=2.0, S=1.0)
        rng = np.random.default_rng(32)
        N = 6
        for _ in range(30):
            pool = sample_ball(rng, N, 3)
            prices = rng.uniform(0.1, 5.0, N)
            theta_star = sample_ball(rng, 1, 3)[0]
            hist = History(3)
            for _ in range(int(rng.integers(0, 30))):
                a = random_assortment(N, cfg.K, rng)
                ass = AssortmentContexts.from_pool(pool, a, prices)
                hist.append(ass, sample_choice(choice_probabilities(ass, theta_star), rng))
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            kappa_hat = float(rng.uniform(1.0, 10.0))
            c1 = (2.0 + 4.0 * cfg.S) * state.gamma
            c2 = 4.0 * kappa_hat * (1.0 + 2.0 * cfg.S) ** 2 * L_CONST * state.gamma**2
            v = matrix_V(hist, cfg.lam)
            expected = {
                a: rev
                + c1 * sum(np.sqrt(pool[i] @ np.linalg.solve(state.H_hat, pool[i])) for i in a)
                + c2 * sum(pool[i] @ np.linalg.solve(v, pool[i]) for i in a)
                for a, rev in reference_revenues(pool, prices, cfg.K, state.theta_hat).items()
            }
            decision = bonus_ucb_step(pool, hist, cfg, state, kappa_hat=kappa_hat, prices=prices)
            got = decision.assortment
            assert got == _argmax_lex(expected)
            # Values reach a few thousand here, so the tolerance is relative.
            assert decision.optimistic_value == pytest.approx(expected[got], rel=1e-12)


class TestRandomAssortment:
    def test_uniform_and_deterministic(self):
        picks1 = [random_assortment(3, 2, np.random.default_rng(7)) for _ in range(5)]
        picks2 = [random_assortment(3, 2, np.random.default_rng(7)) for _ in range(5)]
        assert picks1 == picks2
        rng = np.random.default_rng(8)
        seen = {random_assortment(3, 2, rng) for _ in range(500)}
        assert seen == set(as_tuples(enumerate_assortments(3, 2)))


def enumerated_oracle(pool, theta, K, prices=None):
    """The oracle by brute force: every assortment scored, ties to the smaller tuple."""
    rows = enumerate_assortments(len(pool), K)
    ez, pez = _attraction(pool, prices, theta)
    return _as_tuple(rows[_best(rows, _revenues((ez[0], pez[0]), rows))])


def enumerated_decision(pool, history, cfg, state, thetas, set_kind, prices, restarts, refine_top):
    """The optimistic step by brute force, given its candidates.

    Every assortment is scored against every candidate and keeps its best
    value and the first candidate attaining it; the leader is refined by
    ascent as ``cb_mnl_step`` refines it.
    """
    rows = enumerate_assortments(len(pool), cfg.K)
    ez, pez = _attraction(pool, prices, thetas)
    rev = np.array([_revenues((ez[j], pez[j]), rows) for j in range(len(thetas))])
    which = rev.argmax(axis=0)
    values = rev[which, np.arange(len(rows))]
    best = _best(rows, values)
    value, theta = float(values[best]), thetas[which[best]]
    if set_kind == "E" and refine_top:
        val, th = max_revenue_over_E(
            AssortmentContexts.from_pool(pool, _as_tuple(rows[best]), prices),
            history, cfg, state, np.vstack([thetas[:restarts], theta]),
        )
        if val > value:
            value, theta = val, th
    return _as_tuple(rows[best]), value, theta


def draw_prices(rng, N):
    """Unit, equal non-unit, random, zero-containing or all-zero prices."""
    kind = int(rng.integers(5))
    if kind == 0:
        return None
    if kind == 1:
        return np.full(N, float(rng.uniform(0.2, 3.0)))
    prices = rng.uniform(0.1, 5.0, N)
    if kind == 3:
        prices[rng.random(N) < 0.4] = 0.0
    return prices if kind < 4 else np.zeros(N)


def draw_pool(rng, N, d):
    """Contexts in the unit ball; a third of the draws repeat rows, so items tie."""
    pool = sample_ball(rng, N, d)
    if rng.random() < 1 / 3:
        pool = pool[np.sort(rng.integers(0, N, N))]
    return pool


class TestStaticSolveAgainstEnumeration:
    """The static solve plays what scoring every assortment plays, bit for bit."""

    def test_oracle_matches_brute_force(self):
        rng = np.random.default_rng(50)
        for _ in range(600):
            d = int(rng.integers(1, 5))
            N = int(rng.integers(1, 9))
            K = int(rng.integers(1, N + 1))
            pool = draw_pool(rng, N, d)
            prices = draw_prices(rng, N)
            # Up to |x . theta| = 50, where a large utility absorbs small ones.
            theta = sample_ball(rng, 1, d, radius=float(rng.choice([1.0, 5.0, 20.0, 50.0])))[0]
            expected = enumerated_oracle(pool, theta, K, prices)
            assert oracle_assortment(pool, theta, K, prices) == expected

    def test_saturated_utilities_follow_the_tie_rule(self):
        # exp(45) absorbs the other items: every set holding item 0 earns
        # exactly 1.0, and (0,) is the smallest such tuple.
        pool = np.array([[0.9, 0.0], [0.5, 0.5], [0.6, 0.2], [-0.3, 0.1]])
        theta = np.array([50.0, 0.0])
        assert enumerated_oracle(pool, theta, 3) == (0,)
        assert oracle_assortment(pool, theta, 3) == (0,)

    def test_rounding_cannot_lower_the_search(self):
        # exp(45) makes item 2 earn its price 4.4, to rounding, alone or
        # beside item 0 or 1; (0, 2) is the smallest tuple of those that
        # round highest.  At that revenue item 2 scores 0, so the next set
        # is item 3 alone, worth about 3e-15: the search stops rather than
        # step down to it.
        pool = np.array([[-0.5], [0.1], [0.9], [-0.7]])
        prices = np.array([2.1, 3.3, 4.4, 5.0])
        theta = np.array([50.0])
        assert enumerated_oracle(pool, theta, 2, prices) == (0, 2)
        assert oracle_assortment(pool, theta, 2, prices) == (0, 2)

    def test_zero_parameter_near_sets_match_brute_force(self):
        # At theta = 0, every run's round 1, every attraction is 1: with equal
        # prices every item is near the optimum, and at N=16, K=4 the near
        # sets are all 2516 assortments.  The solve's set and value are the
        # ones scoring every assortment gives, bit for bit.
        rng = np.random.default_rng(52)
        pool = sample_ball(rng, 16, 4)
        theta = np.zeros(4)
        rows = enumerate_assortments(16, 4)
        for prices in (None, np.full(16, 2.5), rng.uniform(0.1, 5.0, 16)):
            ez, pez = _attraction(pool, prices, theta)
            values = _revenues((ez[0], pez[0]), rows)
            best = _best(rows, values)
            got, value = _static_optimum(_attraction(pool, prices, theta), prices, 4)
            assert _as_tuple(got[0]) == _as_tuple(rows[best])
            assert value[0] == values[best]

    @pytest.mark.parametrize("set_kind, refine_top", [("E", 0), ("E", 1), ("C", 0)])
    def test_step_matches_enumeration_path(self, monkeypatch, set_kind, refine_top):
        import mnl_bandit.policy as policy

        seen = []

        def recording(pool, prices, thetas):
            seen.append(np.array(thetas))
            return _attraction(pool, prices, thetas)

        monkeypatch.setattr(policy, "_attraction", recording)
        rng = np.random.default_rng(51)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            N = int(rng.integers(1, 8))
            K = int(rng.integers(1, N + 1))
            pool = draw_pool(rng, N, d)
            prices = draw_prices(rng, N)
            # A large S and a small history put boundary points near norm S.
            S = float(rng.choice([1.0, 5.0, 50.0]))
            cfg = ConfidenceConfig(d=d, K=K, delta=0.1, lam=float(rng.uniform(1.0, 4.0)), S=S)
            theta_star = sample_ball(rng, 1, d)[0]
            hist = History(d)
            for _ in range(int(rng.integers(0, 12))):
                ass = AssortmentContexts.from_pool(pool, random_assortment(N, K, rng), prices)
                hist.append(ass, sample_choice(choice_probabilities(ass, theta_star), rng))
            state = build_confidence_state(hist, cfg, t=hist.t + 1)
            n_dirs = int(rng.integers(0, 8))
            restarts = 1 + min(n_dirs, 2)
            seen.clear()
            decision = cb_mnl_step(pool, hist, cfg, state, set_kind=set_kind,
                                   rng=np.random.default_rng(int(rng.integers(1 << 30))),
                                   prices=prices, restarts=restarts, n_dirs=n_dirs,
                                   refine_top=refine_top)
            indices, value, theta = enumerated_decision(
                pool, hist, cfg, state, seen[0], set_kind, prices, restarts, refine_top
            )
            assert decision.assortment == indices
            assert decision.optimistic_value == value
            np.testing.assert_array_equal(decision.theta_used, theta)

    def test_decision_path_never_enumerates(self, monkeypatch):
        import mnl_bandit.policy as policy

        def refuse(N, K):
            raise AssertionError(f"enumerated N={N}, K={K}")

        monkeypatch.setattr(policy, "enumerate_assortments", refuse)
        # N=30, K=10 gives 53009101 assortments, past the enumeration guard,
        # which binds none of these configs.
        for kw in ({"policy": "cb_mnl_e", "refine_top": 0}, {"policy": "cb_mnl_e", "refine_top": 1},
                   {"policy": "cb_mnl_c"}, {"policy": "oracle"}):
            cfg = ExperimentConfig(d=2, N=30, K=10, T=3, n_dirs=6, restarts=2, **kw)
            assert len(run_experiment(cfg, seed=0).records) == 3
