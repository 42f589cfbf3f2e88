"""Instance generation, context serving, outcome sampling, kappa search."""
import math

import numpy as np
import pytest

from mnl_bandit.choice import AssortmentContexts
from mnl_bandit.policy import enumerate_assortments
from mnl_bandit.simulator import (
    FIXED_POOL,
    FRESH_IID,
    TAG_OUTCOME,
    Instance,
    InstanceConfig,
    environment_step,
    estimate_kappa,
    kappa_over_candidates,
    kappa_theta_candidates,
    make_instance,
    sample_ball,
    serve_contexts,
    stream,
)


class TestMakeInstance:
    def test_deterministic_per_seed(self):
        cfg = InstanceConfig(d=3, N=5, K=2)
        a = make_instance(cfg, 7)
        b = make_instance(cfg, 7)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)
        np.testing.assert_array_equal(a.pool, b.pool)

    def test_norm_bounds_hold(self):
        cfg = InstanceConfig(d=4, N=6, K=3, S=2.0, S_true=1.5)
        for seed in range(1000):
            inst = make_instance(cfg, seed)
            assert np.linalg.norm(inst.theta_star) <= 1.5 + 1e-12
            assert np.linalg.norm(inst.pool, axis=1).max() <= 1.0 + 1e-12

    def test_ball_sampler_mean_zero(self):
        rng = np.random.default_rng(0)
        draws = sample_ball(rng, 10_000, 3)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_rejects_s_true_above_s(self):
        with pytest.raises(ValueError, match="S_true"):
            InstanceConfig(S=1.0, S_true=2.0)


class TestServeContexts:
    def test_fixed_pool_is_constant(self):
        inst = make_instance(InstanceConfig(context_mode=FIXED_POOL), 3)
        np.testing.assert_array_equal(serve_contexts(inst, 1), serve_contexts(inst, 999))

    def test_fresh_iid_changes_and_replays(self):
        inst = make_instance(InstanceConfig(context_mode=FRESH_IID), 3)
        c1 = serve_contexts(inst, 1)
        c2 = serve_contexts(inst, 2)
        assert not np.array_equal(c1, c2)
        np.testing.assert_array_equal(c1, serve_contexts(inst, 1))
        assert np.linalg.norm(c1, axis=1).max() <= 1.0 + 1e-12

    def test_rejects_round_zero(self):
        inst = make_instance(InstanceConfig(), 0)
        with pytest.raises(ValueError):
            serve_contexts(inst, 0)


class TestEnvironmentStep:
    def test_deterministic_given_stream(self):
        inst = make_instance(InstanceConfig(), 5)
        ass = AssortmentContexts.from_pool(inst.pool, (0, 1))
        outs1 = [environment_step(inst, ass, stream(5, TAG_OUTCOME, t)) for t in range(50)]
        outs2 = [environment_step(inst, ass, stream(5, TAG_OUTCOME, t)) for t in range(50)]
        assert outs1 == outs2

    def test_deeply_negative_utility_never_sells(self):
        inst = Instance(
            d=1, N=1, K=1, S=50.0, S_true=50.0,
            theta_star=np.array([-50.0]), context_mode=FIXED_POOL,
            pool=np.array([[1.0]]), prices=np.ones(1), seed=0,
        )
        ass = AssortmentContexts.from_pool(inst.pool, (0,))
        rng = np.random.default_rng(1)
        outcomes = [environment_step(inst, ass, rng) for _ in range(10_000)]
        assert np.mean([o == 0 for o in outcomes]) > 0.999

    def test_symmetric_assortment_quarters(self):
        inst = Instance(
            d=2, N=3, K=3, S=1.0, S_true=1.0,
            theta_star=np.zeros(2), context_mode=FIXED_POOL,
            pool=np.zeros((3, 2)), prices=np.ones(3), seed=0,
        )
        ass = AssortmentContexts.from_pool(inst.pool, (0, 1, 2))
        rng = np.random.default_rng(2)
        counts = np.bincount(
            [environment_step(inst, ass, rng) for _ in range(100_000)], minlength=4
        )
        np.testing.assert_allclose(counts / 100_000, 0.25, atol=0.01)


def brute_force_kappa(instance, thetas, pool):
    """max of 1/(mu(1-mu)) over every feasible assortment, item and theta.

    Each assortment is shifted by its largest utility, and 1 - mu is summed
    from the other terms of the denominator.
    """
    U = pool @ np.atleast_2d(thetas).T
    best = -math.inf
    for row in enumerate_assortments(instance.N, instance.K):
        u = U[row[row >= 0]]  # (k, n_cand)
        shift = np.maximum(u.max(axis=0), 0.0)
        ez, e0 = np.exp(u - shift), np.exp(-shift)
        denom = e0 + ez.sum(axis=0)
        for j in range(u.shape[0]):
            rest = e0 + np.delete(ez, j, axis=0).sum(axis=0)
            w = float(((ez[j] / denom) * (rest / denom)).min())
            best = max(best, 1.0 / w if w > 0.0 else math.inf)
    return best


class TestKappaAgainstEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(50)
        for trial in range(40):
            N = int(rng.integers(3, 8))
            K = int(rng.integers(3, N + 1))
            S = float(rng.choice([1.0, 3.0, 10.0, 40.0]))
            d = int(rng.integers(1, 4))
            inst = make_instance(InstanceConfig(d=d, N=N, K=K, S=S), trial)
            thetas = kappa_theta_candidates(inst, 16, inst.pool)
            got = kappa_over_candidates(inst, thetas, inst.pool)
            assert got == pytest.approx(brute_force_kappa(inst, thetas, inst.pool), rel=1e-12)

    def test_more_than_a_thousand_assortments(self):
        # 2516 assortments; a subsample of them can miss the extreme.
        inst = make_instance(InstanceConfig(d=4, N=16, K=4, context_mode=FRESH_IID), 0)
        pool = serve_contexts(inst, 1)
        thetas = kappa_theta_candidates(inst, 256, pool)
        got = kappa_over_candidates(inst, thetas, pool)
        assert got == pytest.approx(brute_force_kappa(inst, thetas, pool), rel=1e-12)
        assert estimate_kappa(inst, grid_size=256) == got


class TestKappa:
    def test_forced_origin_single_item(self):
        inst = Instance(
            d=1, N=1, K=1, S=0.0, S_true=0.0,
            theta_star=np.zeros(1), context_mode=FIXED_POOL,
            pool=np.array([[1.0]]), prices=np.ones(1), seed=0,
        )
        kappa = estimate_kappa(inst, grid_size=16)
        assert kappa == pytest.approx(4.0, rel=1e-12)

    def test_forced_origin_k_items(self):
        for K in (2, 3, 4):
            inst = Instance(
                d=2, N=K, K=K, S=0.0, S_true=0.0,
                theta_star=np.zeros(2), context_mode=FIXED_POOL,
                pool=np.tile([[0.5, 0.0]], (K, 1)), prices=np.ones(K), seed=0,
            )
            kappa = estimate_kappa(inst, grid_size=16)
            assert kappa == pytest.approx((K + 1) ** 2 / K, rel=1e-12)

    def test_single_item_reaches_directed_extreme(self):
        inst = Instance(
            d=1, N=1, K=1, S=2.0, S_true=2.0,
            theta_star=np.zeros(1), context_mode=FIXED_POOL,
            pool=np.array([[1.0]]), prices=np.ones(1), seed=0,
        )
        kappa = estimate_kappa(inst, grid_size=64)
        sig = 1.0 / (1.0 + math.exp(-2.0))
        assert kappa == pytest.approx(1.0 / (sig * (1.0 - sig)), rel=1e-9)

    def test_large_norm_bound_two_item_hand_value(self):
        # At theta = 40 the pair {x=1, x=-1} has mu_1 within 1e-17 of 1, so
        # 1 - mu_1 computed by subtraction is 0.  The extreme is item 2:
        # mu_2 = e^-40 / D and 1 - mu_2 = (1 + e^40) / D, D = 1 + e^40 + e^-40.
        inst = Instance(
            d=1, N=2, K=2, S=40.0, S_true=1.0,
            theta_star=np.zeros(1), context_mode=FIXED_POOL,
            pool=np.array([[1.0], [-1.0]]), prices=np.ones(2), seed=0,
        )
        kappa = estimate_kappa(inst, grid_size=16)
        big, small = math.exp(40.0), math.exp(-40.0)
        den = 1.0 + big + small
        expect = den * den / (small * (1.0 + big))
        assert math.isfinite(kappa)
        assert kappa == pytest.approx(expect, rel=1e-12)

    def test_underflowed_curvature_reports_inf(self):
        thetas = np.array([[800.0]])
        inst = Instance(
            d=1, N=1, K=1, S=800.0, S_true=1.0,
            theta_star=np.zeros(1), context_mode=FIXED_POOL,
            pool=np.array([[1.0]]), prices=np.ones(1), seed=0,
        )
        assert kappa_over_candidates(inst, thetas, inst.pool) == math.inf

    def test_always_at_least_four(self):
        for seed in range(20):
            inst = make_instance(InstanceConfig(d=2, N=4, K=2, S=1.0), seed)
            assert estimate_kappa(inst, grid_size=32) >= 4.0

    def test_nondecreasing_on_nested_candidate_sets(self):
        inst_small = make_instance(InstanceConfig(d=2, N=4, K=2, S=1.0, S_true=1.0), 11)
        inst_big = Instance(
            d=2, N=4, K=2, S=2.0, S_true=1.0,
            theta_star=inst_small.theta_star, context_mode=FIXED_POOL,
            pool=inst_small.pool, prices=inst_small.prices, seed=11,
        )
        thetas_small = kappa_theta_candidates(inst_small, 64, inst_small.pool)
        extremes_big = kappa_theta_candidates(inst_big, 0, inst_big.pool)
        thetas_big = np.vstack([thetas_small, extremes_big])
        k_small = kappa_over_candidates(inst_small, thetas_small, inst_small.pool)
        k_big = kappa_over_candidates(inst_big, thetas_big, inst_big.pool)
        assert k_big >= k_small

    def test_fresh_iid_uses_sampled_pool(self):
        inst = make_instance(InstanceConfig(d=2, N=4, K=2, context_mode=FRESH_IID), 3)
        kappa = estimate_kappa(inst, grid_size=16)
        assert kappa >= 4.0


class TestSerialization:
    def test_round_trip_reproduces_streams(self, tmp_path):
        inst = make_instance(InstanceConfig(d=3, N=5, K=2), 13)
        path = tmp_path / "instance.json"
        inst.save(path)
        clone = Instance.load(path)
        np.testing.assert_array_equal(inst.theta_star, clone.theta_star)
        np.testing.assert_array_equal(inst.pool, clone.pool)
        ass = AssortmentContexts.from_pool(inst.pool, (0, 2))
        for t in range(30):
            a = environment_step(inst, ass, stream(inst.seed, TAG_OUTCOME, t))
            b = environment_step(clone, ass, stream(clone.seed, TAG_OUTCOME, t))
            assert a == b

    def test_fresh_iid_round_trip(self, tmp_path):
        inst = make_instance(InstanceConfig(d=2, N=3, K=1, context_mode=FRESH_IID), 17)
        path = tmp_path / "inst.json"
        inst.save(path)
        clone = Instance.load(path)
        assert clone.pool is None
        np.testing.assert_array_equal(serve_contexts(inst, 9), serve_contexts(clone, 9))
