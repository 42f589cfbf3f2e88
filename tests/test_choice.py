"""Choice-model math against hand-evaluated and Monte-Carlo oracles."""
import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import mnl_bandit
from mnl_bandit.choice import (
    AssortmentContexts,
    ChoiceDistribution,
    choice_probabilities,
    diag_derivative,
    diag_second_derivative,
    expected_revenue,
    revenue_gradient,
    sample_choice,
)
from mnl_bandit.simulator import sample_ball


def softmax_ref(utilities):
    """Independent scalar reference: exp(u_i) / (1 + sum exp(u_j))."""
    den = 1.0 + sum(math.exp(u) for u in utilities)
    return [math.exp(u) / den for u in utilities], 1.0 / den


def shifted_softmax(u):
    """The max-shifted softmax written out as numpy arrays: (item probabilities,
    no-purchase probability), each shifted by max(0, largest utility)."""
    if u.size == 0:
        return np.zeros(0), 1.0
    shift = max(float(u.max()), 0.0)
    ez = np.exp(u - shift)
    denom = np.exp(-shift) + ez.sum()
    return ez / denom, float(np.exp(-shift) / denom)


def make_assortment(contexts, prices=None):
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    k = contexts.shape[0]
    if prices is None:
        prices = np.ones(k)
    return AssortmentContexts(tuple(range(k)), contexts, prices)


TWO_ITEM = make_assortment([[1.0], [-1.0]])
THETA_ONE = np.array([1.0])

# Frozen from the scalar reference with u = (1, -1).
TWO_ITEM_PROBS = (0.6652409557748219, 0.09003057317038046)
TWO_ITEM_NP = 0.24472847105479767


class TestChoiceProbabilities:
    def test_empty_assortment_never_sells(self):
        empty = AssortmentContexts((), np.zeros((0, 3)), np.zeros(0))
        dist = choice_probabilities(empty, np.array([1.0, -2.0, 0.5]))
        assert dist.no_purchase_prob == 1.0
        assert dist.item_probs.size == 0

    def test_three_items_zero_utility_split_evenly(self):
        ass = make_assortment(np.zeros((3, 2)))
        dist = choice_probabilities(ass, np.array([0.7, -0.3]))
        np.testing.assert_allclose(dist.item_probs, 0.25, rtol=1e-14)
        assert dist.no_purchase_prob == pytest.approx(0.25, rel=1e-14)

    def test_two_item_hand_values(self):
        dist = choice_probabilities(TWO_ITEM, THETA_ONE)
        np.testing.assert_allclose(dist.item_probs, TWO_ITEM_PROBS, rtol=1e-12)
        assert dist.no_purchase_prob == pytest.approx(TWO_ITEM_NP, rel=1e-12)

    def test_matches_reference_on_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, 6))
            ass = make_assortment(sample_ball(rng, k, d))
            theta = sample_ball(rng, 1, d, radius=3.0)[0]
            ref_items, ref_np = softmax_ref(ass.contexts @ theta)
            dist = choice_probabilities(ass, theta)
            np.testing.assert_allclose(dist.item_probs, ref_items, rtol=1e-12)
            assert dist.no_purchase_prob == pytest.approx(ref_np, rel=1e-12)

    def test_large_utilities_stay_finite(self):
        ass = AssortmentContexts((0, 1), np.array([[1.0], [-1.0]]), np.ones(2))
        dist = choice_probabilities(ass, np.array([50.0]))
        assert np.isfinite(dist.item_probs).all()
        assert dist.item_probs[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u, item, none", [(-800.0, 0.0, 1.0), (800.0, 1.0, 0.0)])
    def test_underflowed_probabilities_accepted(self, u, item, none):
        dist = choice_probabilities(make_assortment([[1.0]]), np.array([u]))
        assert dist.item_probs[0] == item
        assert dist.no_purchase_prob == none

    def test_negative_or_unnormalized_probabilities_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ChoiceDistribution(np.array([1.5]), -0.5)
        with pytest.raises(ValueError, match="sum"):
            ChoiceDistribution(np.array([0.5]), 0.5 + 1e-11)
        with pytest.raises(ValueError, match="sum"):
            ChoiceDistribution(np.array([np.nan]), 0.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            choice_probabilities(TWO_ITEM, np.array([1.0, 2.0]))

    def test_nan_parameter_fails_the_sum_check(self):
        # The probabilities are checked as they are computed: NaN utilities
        # give a NaN total, which the sum check rejects.
        with pytest.raises(ValueError, match="sum"):
            choice_probabilities(TWO_ITEM, np.array([np.nan]))
        with pytest.raises(ValueError, match="sum"):
            expected_revenue(make_assortment([[0.5, 0.0]]), np.array([np.nan, 1.0]))

    def test_bitwise_equal_to_the_max_shifted_softmax(self):
        rng = np.random.default_rng(17)
        cases = [
            (np.zeros((0, 3)), np.array([1.0, -2.0, 0.5])),  # empty assortment
            (np.array([[1.0], [-1.0], [0.5]]), np.array([800.0])),
            (np.array([[1.0], [-1.0], [0.5]]), np.array([-800.0])),
        ]
        for _ in range(2000):
            d, k = int(rng.integers(1, 6)), int(rng.integers(0, 6))
            ctx = sample_ball(rng, k, d) if k else np.zeros((0, d))
            cases.append((ctx, rng.standard_normal(d) * 10.0 ** int(rng.integers(-3, 4))))
        for ctx, theta in cases:
            dist = choice_probabilities(make_assortment(ctx), theta)
            ref_items, ref_none = shifted_softmax(ctx @ theta)
            assert dist.item_probs.dtype == np.float64
            assert dist.item_probs.tobytes() == ref_items.tobytes()
            assert type(dist.no_purchase_prob) is float
            assert dist.no_purchase_prob == ref_none

    def test_normalization_over_random_draws(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(10_000):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            ass = make_assortment(sample_ball(rng, k, d))
            theta = sample_ball(rng, 1, d, radius=3.0)[0]
            dist = choice_probabilities(ass, theta)
            worst = max(worst, abs(float(dist.item_probs.sum()) + dist.no_purchase_prob - 1.0))
        assert worst < 1e-12


class TestExpectedRevenue:
    def test_empty_assortment(self):
        empty = AssortmentContexts((), np.zeros((0, 2)), np.zeros(0))
        assert expected_revenue(empty, np.zeros(2)) == 0.0

    def test_three_zero_utility_items_unit_prices(self):
        ass = make_assortment(np.zeros((3, 2)))
        assert expected_revenue(ass, np.zeros(2)) == pytest.approx(0.75, rel=1e-14)

    def test_two_item_hand_value(self):
        assert expected_revenue(TWO_ITEM, THETA_ONE) == pytest.approx(
            0.7552715289452023, rel=1e-12
        )

    def test_prices_weight_probabilities(self):
        ass = make_assortment(np.zeros((2, 1)), prices=[3.0, 0.5])
        # each item sells with probability 1/3
        assert expected_revenue(ass, np.zeros(1)) == pytest.approx(3.5 / 3.0, rel=1e-12)

    def test_adding_an_item_never_hurts_unit_prices(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            pool = sample_ball(rng, k + 1, d)
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            small = make_assortment(pool[:k])
            big = make_assortment(pool)
            assert expected_revenue(big, theta) >= expected_revenue(small, theta) - 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            ass = make_assortment(sample_ball(rng, int(rng.integers(1, 4)), d))
            theta = sample_ball(rng, 1, d, radius=2.0)[0]
            rev, (grad,) = revenue_gradient(ass, theta[None])
            assert rev[0] == pytest.approx(expected_revenue(ass, theta), rel=1e-14)
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (expected_revenue(ass, theta + e) - expected_revenue(ass, theta - e)) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-7)

    def test_stacked_gradient_at_extreme_utilities(self):
        # Utilities of +-800 overflow a raw exp.  Each row of a stacked call
        # is finite and bit-equal to a call on that row alone.
        ass = make_assortment([[1.0, 0.0], [0.6, 0.8], [-0.5, 0.5]], prices=[1.0, 2.0, 0.5])
        thetas = np.array(
            [[800.0, 0.0], [-800.0, 0.0], [0.0, 800.0], [-600.0, -500.0], [0.3, -1.2]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rev, grad = revenue_gradient(ass, thetas)
            rows = [revenue_gradient(ass, thetas[i : i + 1]) for i in range(len(thetas))]
        assert np.isfinite(rev).all() and np.isfinite(grad).all()
        for i, (rev_i, grad_i) in enumerate(rows):
            assert np.array_equal(rev_i, rev[i : i + 1])
            assert np.array_equal(grad_i, grad[i : i + 1])
        # At theta = (800, 0) item 0 (price 1) sells for sure, at (-800, 0) item 2 (price 0.5).
        assert rev[:2].tolist() == [1.0, 0.5]


def _exp_call_sites(tree: ast.AST):
    """(enclosing function name, line) of every np.exp, numpy.exp, math.exp or bare exp call."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "exp"
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy", "math")
            ) or (isinstance(f, ast.Name) and f.id == "exp"):
                sites.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return sites


def test_exponentials_sit_in_the_kernels():
    # The dense and segment kernels exponentiate utilities for the whole
    # package.  Past them only policy._attraction's raw exp (ROADMAP item 1)
    # and the pure-Python test reference may call exp, so a new
    # hand-written softmax fails here.
    allowed = {
        ("choice", "_shifted_exp"),
        ("estimation", "_segment_exp"),
        ("policy", "_attraction"),
        ("checks", "_softmax_ref"),
    }
    seen, stray = set(), []
    for path in sorted(Path(mnl_bandit.__file__).parent.glob("*.py")):
        for where, line in _exp_call_sites(ast.parse(path.read_text(), filename=str(path))):
            if (path.stem, where) in allowed:
                seen.add((path.stem, where))
            else:
                stray.append(f"{path.name}:{line} in {where or 'module scope'}")
    assert not stray, f"exp outside the kernels: {stray}"
    assert {("choice", "_shifted_exp"), ("estimation", "_segment_exp")} <= seen


class TestDiagDerivatives:
    def test_single_item_zero_utility(self):
        ass = make_assortment([[0.0]])
        assert diag_derivative(ass, np.zeros(1), 0) == pytest.approx(0.25, rel=1e-14)
        assert diag_second_derivative(ass, np.zeros(1), 0) == pytest.approx(0.0, abs=1e-14)

    def test_three_zero_utility_items(self):
        ass = make_assortment(np.zeros((3, 1)))
        assert diag_derivative(ass, np.zeros(1), 1) == pytest.approx(0.1875, rel=1e-14)
        assert diag_second_derivative(ass, np.zeros(1), 1) == pytest.approx(0.09375, rel=1e-14)

    def test_two_item_hand_values(self):
        assert diag_derivative(TWO_ITEM, THETA_ONE, 0) == pytest.approx(
            0.22269542653462335, rel=1e-12
        )
        assert diag_second_derivative(TWO_ITEM, THETA_ONE, 0) == pytest.approx(
            -0.0735968102545256, rel=1e-12
        )

    def test_derivative_matches_finite_difference_of_reference(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        worst = 0.0
        for _ in range(2000):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            ass = make_assortment(sample_ball(rng, k, d))
            theta = sample_ball(rng, 1, d, radius=3.0)[0]
            i = int(rng.integers(k))
            u = list(ass.contexts @ theta)
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd = (softmax_ref(up)[0][i] - softmax_ref(um)[0][i]) / (2 * h)
            an = diag_derivative(ass, theta, i)
            worst = max(worst, abs(fd - an) / abs(an))
        assert worst < 1e-6

    def test_self_concordance_and_quarter_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            ass = make_assortment(sample_ball(rng, k, d))
            theta = sample_ball(rng, 1, d, radius=3.0)[0]
            i = int(rng.integers(k))
            first = diag_derivative(ass, theta, i)
            second = diag_second_derivative(ass, theta, i)
            assert abs(second) <= first + 1e-15
            assert first <= 0.25 + 1e-15
            assert abs(second) <= 0.25 + 1e-15

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            diag_derivative(TWO_ITEM, THETA_ONE, 2)
        with pytest.raises(IndexError):
            diag_second_derivative(TWO_ITEM, THETA_ONE, -1)


class TestSampling:
    def test_certain_no_purchase(self):
        dist = ChoiceDistribution(np.zeros(0), 1.0)
        rng = np.random.default_rng(0)
        assert all(sample_choice(dist, rng) == 0 for _ in range(100))

    def test_deterministic_given_seed(self):
        dist = choice_probabilities(TWO_ITEM, THETA_ONE)
        draws1 = [sample_choice(dist, np.random.default_rng(42)) for _ in range(1)]
        draws2 = [sample_choice(dist, np.random.default_rng(42)) for _ in range(1)]
        assert draws1 == draws2

    def test_uniform_frequencies_with_chi_square(self):
        ass = make_assortment(np.zeros((3, 1)))
        dist = choice_probabilities(ass, np.zeros(1))
        rng = np.random.default_rng(7)
        n = 100_000
        counts = np.bincount([sample_choice(dist, rng) for _ in range(n)], minlength=4)
        freqs = counts / n
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)
        chi2 = float((((counts - n / 4) ** 2) / (n / 4)).sum())
        assert chi2 < 16.27  # 99.9% quantile, 3 degrees of freedom

    def test_two_item_frequencies(self):
        dist = choice_probabilities(TWO_ITEM, THETA_ONE)
        rng = np.random.default_rng(8)
        n = 100_000
        counts = np.bincount([sample_choice(dist, rng) for _ in range(n)], minlength=3)
        freqs = counts / n
        expected = [TWO_ITEM_NP, *TWO_ITEM_PROBS]
        np.testing.assert_allclose(freqs, expected, atol=0.01)


class TestAssortmentValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AssortmentContexts((1, 1), np.zeros((2, 2)), np.ones(2))

    def test_oversized_context_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            AssortmentContexts((0,), np.array([[1.2, 0.0]]), np.ones(1))

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="price"):
            AssortmentContexts((0,), np.array([[0.5, 0.0]]), np.array([-1.0]))

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AssortmentContexts((0, 1), np.zeros((1, 2)), np.ones(2))
        with pytest.raises(ValueError, match="inconsistent"):
            AssortmentContexts((0,), np.zeros((1, 2)), np.ones(2))

    def test_from_pool_picks_rows_and_prices(self):
        pool = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        ass = AssortmentContexts.from_pool(pool, (2, 0), prices=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(ass.contexts, pool[[2, 0]])
        np.testing.assert_array_equal(ass.prices, [3.0, 1.0])


class TestFromPool:
    """``from_pool`` checks what the constructor checks, with the same errors."""

    POOL = np.array([[0.1, 0.2], [0.3, 0.4], [0.6, 0.8]])  # the last row has norm 1

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate item indices"):
            AssortmentContexts.from_pool(self.POOL, (1, 1))

    def test_over_norm_row_rejected(self):
        pool = np.vstack([self.POOL, [[0.6, 0.8 + 2e-9]]])
        AssortmentContexts.from_pool(pool, (0, 2))  # norm 1 passes
        with pytest.raises(ValueError, match="context norm exceeds 1"):
            AssortmentContexts.from_pool(pool, (0, 3))

    def test_negative_price_rejected(self):
        prices = np.array([1.0, -0.5, 2.0])
        AssortmentContexts.from_pool(self.POOL, (0, 2), prices)
        with pytest.raises(ValueError, match="negative price"):
            AssortmentContexts.from_pool(self.POOL, (0, 1), prices)

    @pytest.mark.parametrize("indices", [(0, 3), (7,)])
    def test_out_of_range_index_rejected(self, indices):
        with pytest.raises(IndexError):
            AssortmentContexts.from_pool(self.POOL, indices)
        with pytest.raises(IndexError):
            AssortmentContexts.from_pool(self.POOL, indices, np.ones(3))

    def test_empty_assortment_keeps_the_dimension(self):
        ass = AssortmentContexts.from_pool(self.POOL, ())
        assert ass.indices == ()
        assert ass.contexts.shape == (0, 2)
        assert ass.prices.shape == (0,)
        assert expected_revenue(ass, np.array([1.0, 1.0])) == 0.0

    def test_matches_the_constructor(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            pool = sample_ball(rng, n, d)
            prices = rng.uniform(0.0, 3.0, n)
            picked = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            for pr in (None, prices):
                ass = AssortmentContexts.from_pool(pool, picked, pr)
                ref = AssortmentContexts(
                    tuple(picked), pool[picked], np.ones(len(picked)) if pr is None else pr[picked]
                )
                assert ass.indices == ref.indices
                assert all(type(i) is int for i in ass.indices)
                assert ass.contexts.tobytes() == ref.contexts.tobytes()
                assert ass.contexts.shape == ref.contexts.shape
                assert ass.prices.tobytes() == ref.prices.tobytes()
