"""Experiment loop, regret accounting, checks, persistence, aggregation."""
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mnl_bandit.checks import MATRIX, REGRET_CFG, deviation_bound, elliptical_potential
from mnl_bandit.choice import (
    AssortmentContexts,
    choice_probabilities,
    expected_revenue,
    sample_choice,
)
from mnl_bandit.confidence import ConfidenceConfig, in_set_C, in_set_E
from mnl_bandit.estimation import History, _evaluate, score
from mnl_bandit.harness import (
    CSV_COLUMNS,
    CSV_HEADER,
    CSV_REALS,
    PRICE_MAX,
    S_MAX,
    ExperimentConfig,
    RunLog,
    _StarLaw,
    elliptical_potential_check,
    loglog_slope,
    run_experiment,
    run_many,
    save_runs,
    summarize_runs,
)
from mnl_bandit.policy import PolicyKind, oracle_assortment
from mnl_bandit.simulator import (
    FIXED_POOL,
    FRESH_IID,
    TAG_OUTCOME,
    Instance,
    InstanceConfig,
    serve_contexts,
    stream,
)


def passes_by_side(monkeypatch, kernel_passes, cfg):
    """A seed-0 run of ``cfg``, the kernel passes its fits made, and the rounds
    whose stored rows had changed since the last round's fit (round 1 included)."""
    import mnl_bandit.confidence as confidence

    fit = confidence.fit_mle
    seen = {"fit passes": 0, "new rows": 0, "rows": None}

    def counted_fit(history, *args, **kw):
        seen["new rows"] += history.rows.ctx_flat is not seen["rows"]
        seen["rows"] = history.rows.ctx_flat
        before = len(kernel_passes)
        result = fit(history, *args, **kw)
        seen["fit passes"] += len(kernel_passes) - before
        return result

    monkeypatch.setattr(confidence, "fit_mle", counted_fit)
    run = run_experiment(cfg, seed=0)
    return run, seen["fit passes"], seen["new rows"]


def pin_gamma(monkeypatch, gamma):
    """Give every confidence state the radius ``gamma``, whatever
    ``gamma_radius`` gives: a run that needs E to bind says how far."""
    import mnl_bandit.confidence as confidence

    monkeypatch.setattr(confidence, "gamma_radius", lambda cfg, t: gamma)


def small_cfg(**kw):
    base = dict(d=2, N=3, K=2, T=40, policy="cb_mnl_e", refine_top=0, n_dirs=6,
                restarts=1, seeds=[0])
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestRunExperiment:
    @pytest.mark.parametrize("S", [800.0, 5000.0])
    @pytest.mark.parametrize("mode", [FIXED_POOL, FRESH_IID])
    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_large_radius_is_rejected(self, policy, mode, S):
        # Past S_MAX policy._attraction's raw exp can overflow (at utilities
        # past about 709) and kappa_hat's mu (1 - mu) can underflow.
        with pytest.raises(ValueError, match=rf"S must be at most {S_MAX}, .* got {S}"):
            ExperimentConfig(d=2, N=5, K=2, T=15, S=S, S_true=S, policy=policy, context_mode=mode)

    @pytest.mark.parametrize("mode", [FIXED_POOL, FRESH_IID])
    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_runs_at_the_radius_bound(self, policy, mode):
        # Warnings are errors here, so no exponential of the run overflowed.
        cfg = ExperimentConfig(
            d=2, N=5, K=2, T=15, S=S_MAX, S_true=S_MAX, policy=policy, context_mode=mode
        )
        run = run_experiment(cfg, seed=0)
        assert len(run.records) == cfg.T
        assert math.isfinite(run.kappa_hat)
        reals = [name for name, real in zip(CSV_COLUMNS, CSV_REALS) if real]
        assert all(math.isfinite(getattr(r, name)) for r in run.records for name in reals)

    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_large_price_is_rejected(self, policy):
        # At S = 1 a price of 1e308 overflows policy._attraction's
        # price-weighted sum.
        with pytest.raises(ValueError, match=r"prices must be at most 1e\+19, .* got 1e\+308"):
            ExperimentConfig(d=2, N=5, K=2, T=15, prices=[1.0, 1e308, 1.0, 1.0, 1.0], policy=policy)

    @pytest.mark.parametrize("S", [1.0, S_MAX])
    @pytest.mark.parametrize("mode", [FIXED_POOL, FRESH_IID])
    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_runs_at_the_price_bound(self, policy, mode, S):
        # Warnings are errors here, so no price-weighted sum, squared
        # gradient or rounding bound of the run overflowed.  Unequal prices
        # take the static solve through Dinkelbach's iteration.
        prices = [PRICE_MAX * f for f in (1.0, 0.5, 0.25, 0.8, 0.6)]
        cfg = ExperimentConfig(
            d=2, N=5, K=2, T=15, S=S, S_true=S, prices=prices, policy=policy, context_mode=mode
        )
        run = run_experiment(cfg, seed=0)
        assert len(run.records) == cfg.T
        reals = [name for name, real in zip(CSV_COLUMNS, CSV_REALS) if real]
        assert all(math.isfinite(getattr(r, name)) for r in run.records for name in reals)
        assert max(r.oracle_value for r in run.records) > 1e17

    def test_zero_horizon(self):
        run = run_experiment(small_cfg(T=0), seed=0)
        assert run.records == []
        assert run.total_regret == 0.0

    def test_oracle_policy_zero_regret(self):
        run = run_experiment(small_cfg(policy="oracle", T=60), seed=1)
        assert all(r.inst_regret == 0.0 for r in run.records)
        assert run.total_regret == 0.0

    def test_random_policy_grows_linearly(self):
        # Mean cumulative regret over seeds keeps climbing on the back half.
        curves = [
            run_experiment(small_cfg(policy="random", T=300), seed=s).cum_regret_curve()
            for s in range(20)
        ]
        mean = np.mean(curves, axis=0)
        slope = (mean[-1] - mean[149]) / 150.0
        assert slope > 0.01

    def test_cumulative_regret_monotone_and_consistent(self):
        run = run_experiment(small_cfg(T=80), seed=2)
        cum = 0.0
        for r in run.records:
            assert r.inst_regret >= -1e-9
            cum += r.inst_regret
            assert r.cum_regret == pytest.approx(cum, abs=1e-9)
        assert run.total_regret == pytest.approx(cum, abs=1e-9)

    def test_regret_bounded_by_prediction_error_when_covered(self):
        # refine_top=1 refines the leader by ascent.
        run = run_experiment(small_cfg(T=120, refine_top=1, restarts=3), seed=3)
        for r in run.records:
            if r.covered:
                # Optimism holds up to the precision of the non-concave
                # inner ascent; the regret decomposition it implies is exact.
                assert r.opt_value >= r.oracle_value - 5e-3
                # The prediction error |played revenue - opt_value|, with the
                # played revenue read back as oracle_value - inst_regret.
                pred_error = abs((r.oracle_value - r.inst_regret) - r.opt_value)
                assert r.inst_regret <= pred_error + 1e-9

    def test_deviation_bound_when_in_set(self):
        run = run_experiment(small_cfg(T=120), seed=4)
        assert deviation_bound([run]).passed

    def test_gamma_beta_columns(self):
        run = run_experiment(small_cfg(T=30), seed=5)
        gammas = [r.gamma for r in run.records]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        for r in run.records:
            assert r.beta == pytest.approx(r.gamma + r.gamma**2 / run.cfg.lam, rel=1e-12)

    def test_policies_all_run(self):
        for policy in ("cb_mnl_e", "cb_mnl_c", "bonus_ucb", "oracle", "random"):
            run = run_experiment(small_cfg(policy=policy, T=15), seed=6)
            assert len(run.records) == 15

    def test_fresh_iid_contexts(self):
        run = run_experiment(small_cfg(context_mode="fresh_iid", T=25), seed=7)
        assert len(run.records) == 25
        assert elliptical_potential([run]).passed

    @staticmethod
    def oracle_solves(monkeypatch, cfg):
        """Calls of ``oracle_assortment`` in a seed-0 run of ``cfg``, and the run."""
        import mnl_bandit.harness as harness

        calls = []
        solve = harness.oracle_assortment

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(harness, "oracle_assortment", counted)
        run = run_experiment(cfg, seed=0)
        return len(calls), run

    def test_oracle_policy_solves_the_oracle_once_a_round(self, monkeypatch):
        # Fresh contexts serve a new pool every round.
        cfg = ExperimentConfig(policy="oracle", context_mode="fresh_iid", T=50)
        calls, run = self.oracle_solves(monkeypatch, cfg)
        assert calls == 50
        assert run.total_regret == 0.0

    @pytest.mark.parametrize("policy", ["oracle", "random"])
    def test_fixed_pool_run_solves_the_oracle_once(self, monkeypatch, policy):
        # The pool's oracle serves the regret of every round and is the
        # oracle policy's decision, so neither policy solves it again.
        calls, run = self.oracle_solves(monkeypatch, ExperimentConfig(policy=policy, T=50))
        assert calls == 1
        assert (run.total_regret == 0.0) == (policy == "oracle")

    def test_fixed_pool_run_builds_no_seed_sequence_per_round(self, monkeypatch):
        # The policy and outcome generators are taken once a run, so the
        # instance, kappa, policy and outcome streams are the only four.
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kw):
            built.append(1)
            return seed_sequence(*args, **kw)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        counts = []
        for T in (50, 100):
            built.clear()
            run_experiment(small_cfg(policy="random", T=T), seed=4)
            counts.append(len(built))
        assert counts[0] == counts[1]


class TestRefinedRounds:
    # Every round refines its leader by ascent (refine_top=1).  The played
    # parameter must lie in E, and the reported value must be its revenue.
    # Where E provably holds the ball the ascent makes no membership pass;
    # where E binds it tests its candidates in E.
    CONFIGS = {
        # The wide_fresh benchmark shape, shortened; the ball binds.
        "wide_fresh": dict(d=4, N=16, K=4, T=20, context_mode="fresh_iid"),
        # A large ridge and a pinned radius keep E well inside the ball, so E binds.
        "E_bound": dict(T=20, lambda_override=100.0),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_played_parameter_is_feasible_and_attains_the_value(
        self, name, monkeypatch, member_passes
    ):
        import mnl_bandit.harness as harness
        import mnl_bandit.policy as policy

        cfg = ExperimentConfig(**self.CONFIGS[name])
        refined, decisions = [], []
        ascent, step = policy.max_revenue_over_E, harness.cb_mnl_step

        def counted(*args, **kw):
            before = len(member_passes)
            result = ascent(*args, **kw)
            refined.append(len(member_passes) - before)
            return result

        def checked(pool, state, **kw):
            decision = step(pool, state, **kw)
            assert in_set_E(decision.theta_used, state)
            played = AssortmentContexts.from_pool(pool, decision.assortment, kw["prices"])
            decisions.append((played, decision.theta_used))
            return decision

        monkeypatch.setattr(policy, "max_revenue_over_E", counted)
        monkeypatch.setattr(harness, "cb_mnl_step", checked)
        if name == "E_bound":
            pin_gamma(monkeypatch, 5.0)
        run = run_experiment(cfg, seed=0)
        assert len(refined) == len(decisions) == cfg.T
        for record, (played, theta) in zip(run.records, decisions):
            value = expected_revenue(played, theta)
            assert record.opt_value == pytest.approx(value, abs=1e-12)
        norms = [float(np.linalg.norm(theta)) for _, theta in decisions]
        if name == "E_bound":
            assert max(norms) < 0.9 * cfg.S
            assert min(refined) > 0
        else:
            assert max(norms) == pytest.approx(cfg.S, abs=1e-12)
            assert sum(refined) == 0

    def test_large_radius_matrix_entry_reaches_the_membership_pass(
        self, monkeypatch, member_passes
    ):
        # The matrix's large_radius entry (S = 3) has rounds whose whole-ball
        # proof fails, so ``mnl-bandit diff`` sees the ascent's membership pass.
        import mnl_bandit.policy as policy

        ascent, refined = policy.max_revenue_over_E, []

        def counted(*args, **kw):
            before = len(member_passes)
            result = ascent(*args, **kw)
            refined.append(len(member_passes) - before)
            return result

        monkeypatch.setattr(policy, "max_revenue_over_E", counted)
        run_experiment(MATRIX["large_radius"], seed=0)
        assert len(refined) == MATRIX["large_radius"].T
        assert sum(refined) >= 1

    def test_small_ridge_matrix_entry_reaches_the_anchor_projection(self, monkeypatch):
        # The matrix's small_ridge entry (lam = 1) has rounds whose theta_hat
        # lies outside the ball, so ``mnl-bandit diff`` sees the anchor's
        # projection onto it, which the boundary search reads every round.
        import mnl_bandit.harness as harness

        states, build = [], harness.build_confidence_state

        def recorded(*args, **kw):
            states.append(build(*args, **kw))
            return states[-1]

        monkeypatch.setattr(harness, "build_confidence_state", recorded)
        cfg = MATRIX["small_ridge"]
        run_experiment(cfg, seed=0)
        assert len(states) == cfg.T
        assert all("anchor" in vars(state) for state in states)
        projected = [state for state in states if state.anchor is not state.theta_hat]
        assert projected
        for state in projected:
            assert np.linalg.norm(state.anchor) == pytest.approx(cfg.S, rel=1e-12)

    def test_leader_contexts_come_from_the_round_record(self, monkeypatch):
        # The ascent reads the leader's contexts from the record the round
        # then plays, so each fresh pool picks the rows of its oracle and of
        # its played assortment once: one pick a round where they agree.
        import mnl_bandit.choice as choice

        picks = []
        pick = choice.AssortmentContexts.from_pool.__func__

        def counted(cls, pool, indices, prices=None):
            picks.append(tuple(indices))
            return pick(cls, pool, indices, prices)

        monkeypatch.setattr(choice.AssortmentContexts, "from_pool", classmethod(counted))
        cfg = ExperimentConfig(**self.CONFIGS["wide_fresh"])
        run = run_experiment(cfg, seed=0)
        inst = run.instance

        def oracle(t):
            return oracle_assortment(serve_contexts(inst, t), inst.theta_star, inst.K, inst.prices)

        distinct = [{r.assortment, oracle(r.t)} for r in run.records]
        assert len(picks) == sum(map(len, distinct))
        assert any(len(pair) == 2 for pair in distinct)


class TestPrefixInvariance:
    # With the ridge fixed by lambda_override nothing in a round depends on
    # the horizon, so a run of n rounds is the first n rounds of a longer
    # one.  Under the default lam, which grows with T, it cannot hold.
    @pytest.mark.parametrize("mode", [FIXED_POOL, FRESH_IID])
    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_short_run_is_the_prefix_of_a_long_one(self, policy, mode):
        shape = dict(d=2, N=5, K=2, n_dirs=8, lambda_override=10.0, policy=policy, context_mode=mode)
        n = 40
        for seed in (0, 1):
            short = run_experiment(ExperimentConfig(**shape, T=n), seed)
            long = run_experiment(ExperimentConfig(**shape, T=2 * n), seed)
            lines = long.csv_text().splitlines(keepends=True)
            assert short.csv_text() == "".join(lines[: n + 1])  # the header and n rows
            assert short.total_regret == long.records[n - 1].cum_regret
            assert short.kappa_hat == long.kappa_hat


class TestNormSetScreening:
    def test_every_round_screens_n_dirs_members_of_C(self, monkeypatch):
        # Every ray of the search ends at a member of C, even at d=5, where C
        # fills a tiny share of any ellipsoid around the MLE that holds it.
        import mnl_bandit.harness as harness
        import mnl_bandit.policy as policy

        cfg = ExperimentConfig(d=5, N=8, K=2, T=20, policy="cb_mnl_c")
        candidates, members = [], []
        attraction, step = policy._attraction, harness.cb_mnl_step

        def recorded(pool, prices, thetas):
            candidates.append(np.array(thetas))
            return attraction(pool, prices, thetas)

        def checked(pool, state, **kw):
            decision = step(pool, state, **kw)
            screened = candidates.pop()[1:]  # the anchor leads
            members.append(sum(in_set_C(theta, state) for theta in screened))
            return decision

        monkeypatch.setattr(policy, "_attraction", recorded)
        monkeypatch.setattr(harness, "cb_mnl_step", checked)
        run_experiment(cfg, seed=0)
        assert len(members) == cfg.T
        assert min(members) >= cfg.n_dirs


class TestThetaStarDiagnostics:
    # Coverage and the deviation norm read running sums at theta_star over
    # the rounds played, one round's terms added after each append.  A
    # replay rebuilds the history round by round and checks them against
    # fresh membership tests and against its own sum of H(theta_star)
    # terms, and the sums themselves against a fresh evaluation.
    @pytest.mark.parametrize(
        "kw", [{}, dict(d=4, N=16, K=4, T=60, context_mode="fresh_iid")], ids=["default", "fresh"]
    )
    def test_match_a_replay_of_the_run(self, kw, monkeypatch):
        import mnl_bandit.harness as harness

        states, used = [], []
        build, decide = harness.build_confidence_state, harness._policy_decision

        def recorded_build(*args, **kw):
            states.append(build(*args, **kw))
            return states[-1]

        def recorded_decide(*args):
            decision = decide(*args)
            used.append(decision.theta_used)
            return decision

        monkeypatch.setattr(harness, "build_confidence_state", recorded_build)
        monkeypatch.setattr(harness, "_policy_decision", recorded_decide)
        cfg = ExperimentConfig(**kw)
        run = run_experiment(cfg, seed=0)
        inst, lam = run.instance, run.cfg.lam
        theta_star = inst.theta_star
        hist, j_mat = History(cfg.d), lam * np.eye(cfg.d)
        for r, state, theta in zip(run.records, states, used, strict=True):
            # The sets read the state's own rows: the replayed history's up to round t.
            for name in ("ctx_flat", "offers", "purchases"):
                np.testing.assert_array_equal(getattr(state.mle.evaluation.rows, name), getattr(hist.rows, name))
            assert r.covered == in_set_E(theta_star, state)
            assert r.covered_C == in_set_C(theta_star, state)
            dtheta = theta - theta_star
            assert r.dev_H == pytest.approx(math.sqrt(dtheta @ j_mat @ dtheta), rel=1e-12)
            ass = AssortmentContexts.from_pool(serve_contexts(inst, r.t), r.assortment, inst.prices)
            mu = choice_probabilities(ass, theta_star).item_probs
            j_mat = j_mat + ass.contexts.T @ ((mu * (1.0 - mu))[:, None] * ass.contexts)
            hist.append(ass, r.outcome)
        assert len(states) == cfg.T

    @pytest.mark.parametrize(
        "kw",
        [
            dict(track_c_stats=True),
            dict(d=4, N=16, K=4, T=60, context_mode="fresh_iid"),
            dict(S=3.0, S_true=3.0, T=200),
        ],
        ids=["default", "fresh", "S3"],
    )
    def test_sums_equal_an_evaluation_on_the_rounds_before(self, kw, monkeypatch):
        # What theta_star's coverage tests read each round, recorded as each
        # round's terms are about to be added, against one likelihood
        # evaluation at theta_star on the history replayed up to that round.
        # The running score is the score there.  At S = 3 theta_star's
        # probabilities are far from 1/2.
        import mnl_bandit.harness as harness

        seen = []
        add = harness._StarSums.add

        def recorded(sums, law, outcome):
            seen.append((float(sums.log_likelihood), sums.g.copy(), sums.H.copy(), sums.score))
            return add(sums, law, outcome)

        monkeypatch.setattr(harness._StarSums, "add", recorded)
        cfg = ExperimentConfig(**kw)
        run = run_experiment(cfg, seed=0)
        inst, lam = run.instance, run.cfg.lam
        hist = History(cfg.d)
        for r, (ll, g, h_mat, star_score) in zip(run.records, seen, strict=True):
            ev = _evaluate(hist.rows, inst.theta_star, lam)
            assert ll == pytest.approx(float(ev.log_likelihood), rel=1e-12)
            np.testing.assert_allclose(g, ev.g, rtol=1e-12)
            np.testing.assert_allclose(h_mat, ev.H, rtol=1e-12)
            # The score is a difference of two sums of g's size, so its
            # rounding is measured on g's scale.
            ref = score(hist, inst.theta_star, lam)
            np.testing.assert_allclose(star_score, ref, rtol=0.0, atol=1e-12 * np.abs(g).max())
            ass = AssortmentContexts.from_pool(serve_contexts(inst, r.t), r.assortment, inst.prices)
            hist.append(ass, r.outcome)
        assert len(seen) == cfg.T

    def test_member_test_decides_where_the_score_proof_fails(self, monkeypatch):
        # A pinned small radius narrows E, so theta_star's score proof fails
        # in some rounds.  The exact test decides those rounds and only
        # those, and in every round the flag is a direct membership test's.
        import mnl_bandit.harness as harness

        states, proofs, decided = [], [], []
        build, proved, member = harness.build_confidence_state, harness._E_proved, harness._E_member

        def recorded_build(*args, **kw):
            states.append(build(*args, **kw))
            return states[-1]

        def recorded_proof(*args):
            proofs.append(proved(*args))
            return proofs[-1]

        def recorded_member(*args):
            decided.append(len(proofs) - 1)  # the round whose proof just failed
            return member(*args)

        monkeypatch.setattr(harness, "build_confidence_state", recorded_build)
        monkeypatch.setattr(harness, "_E_proved", recorded_proof)
        monkeypatch.setattr(harness, "_E_member", recorded_member)
        pin_gamma(monkeypatch, 0.3)
        cfg = ExperimentConfig(T=100, policy="random")
        run = run_experiment(cfg, seed=0)
        inst = run.instance
        hist = History(cfg.d)
        for r, state, held in zip(run.records, states, proofs, strict=True):
            assert r.covered == in_set_E(inst.theta_star, state)
            assert r.covered or not held
            ass = AssortmentContexts.from_pool(serve_contexts(inst, r.t), r.assortment, inst.prices)
            hist.append(ass, r.outcome)
        assert decided == [i for i, held in enumerate(proofs) if not held]
        unproved = [r.covered for r, held in zip(run.records, proofs) if not held]
        assert 0 < len(unproved) < cfg.T
        assert any(unproved) and not all(unproved)

    def test_cb_mnl_c_decides_no_E_flag(self, monkeypatch):
        # Under cb_mnl_c the covered column is C's flag, so theta_star's E
        # flag is neither proved nor tested.
        import mnl_bandit.harness as harness

        def refused(*args):
            raise AssertionError("a cb_mnl_c run decided theta_star's E flag")

        monkeypatch.setattr(harness, "_E_proved", refused)
        monkeypatch.setattr(harness, "_E_member", refused)
        run = run_experiment(ExperimentConfig(T=40, policy="cb_mnl_c"), seed=0)
        assert [r.covered for r in run.records] == [r.covered_C for r in run.records]

    @pytest.mark.parametrize(
        "policy, formed, tried", [("random", 0, 3000), ("cb_mnl_e", 5409, 0)]
    )
    def test_log_likelihoods_formed_on_the_regret_config(self, monkeypatch, policy, formed, tried):
        # Seed 0 of the regret config, the benchmark's regret workloads.  The
        # random baseline makes no boundary search, and theta_star's score
        # proof holds every round, so no log-likelihood is formed.  E's
        # search reads theta_hat's and its probes', and with theta_hat's
        # formed before coverage is tested the proof is never tried.
        import collections

        import mnl_bandit.estimation as estimation
        import mnl_bandit.harness as harness

        calls = collections.Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(
            estimation, "_log_likelihood", counting("formed", estimation._log_likelihood)
        )
        monkeypatch.setattr(harness, "_E_proved", counting("tried", harness._E_proved))
        run = run_experiment(MATRIX[f"regret_{policy}"], seed=0)
        assert calls["formed"] == formed and calls["tried"] == tried
        assert run.coverage_all

    @pytest.mark.parametrize("theta_star", [[800.0, 0.0], [-800.0, 0.0], [0.0, -800.0]])
    def test_log_normalizer_at_extreme_utilities(self, theta_star):
        # lse = log(1 + sum exp u) overflows a raw exp at u = 800; the shift
        # m = max(0, max u) keeps it finite and equal to m + log(total).
        ctx = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]])
        ass = AssortmentContexts((0, 1, 2), ctx, np.ones(3))
        theta_star = np.array(theta_star)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = _StarLaw(ass, theta_star)
        u = (ass.contexts @ theta_star).tolist()
        m = max(0.0, *u)
        total = math.exp(-m) + sum(math.exp(x - m) for x in u)  # underflows to 0, never overflows
        assert math.isfinite(law.lse)
        assert law.lse == pytest.approx(m + math.log(total), rel=1e-15, abs=1e-300)
        probs = choice_probabilities(ass, theta_star)
        assert np.array_equal(law.dist.item_probs, probs.item_probs)
        assert law.dist.no_purchase_prob == probs.no_purchase_prob


class TestPlayedTrajectoryPin:
    # SHA-256 of the CSV's assortment and outcome columns of the gate's
    # regret config at T=300, seed 0.  Both columns are integers, so last-bit
    # float differences cannot move them; a change that alters the played
    # trajectory updates these values and says so in CHANGES.md.
    PINS = {
        "bonus_ucb": "daf137c5be4ca2f2a73dca9994c45a4c60545d691791625c4d79cbddfac7341f",
        "cb_mnl_c": "71ffff382c39c611ad431b7668891b8c62fbded2fbb058f2d25fc463431a3110",
        "cb_mnl_e": "71ffff382c39c611ad431b7668891b8c62fbded2fbb058f2d25fc463431a3110",
        "oracle": "058d40dc01ec0414844e11cd6f2ea3ab2718f02a6e665f9fce3158e839697efe",
        "random": "3510052f9893e593a994f3a848addc66ec43a22af9260a3c2df81909484ccbb6",
    }

    @staticmethod
    def regret_cfg(policy):
        return ExperimentConfig(**{**REGRET_CFG, "T": 300}, policy=policy)

    @pytest.mark.parametrize("policy", sorted(PINS))
    def test_regret_config_plays_the_pinned_trajectory(self, policy):
        run = run_experiment(self.regret_cfg(policy), seed=0)
        rows = csv.DictReader(io.StringIO(run.csv_text()))
        played = "".join(f"{r['assortment']},{r['outcome']}\n" for r in rows)
        assert hashlib.sha256(played.encode()).hexdigest() == self.PINS[policy]

    # The same config with gamma pinned at 4.5, where E and C both bind inside
    # the ball before round 300, so each set's own boundary search steers
    # its policy.  Under the fixed radius neither binds by then, and the
    # two policies share one pin above.
    PINNED_GAMMA_PINS = {
        "cb_mnl_c": "b9575ab3041e1e209ca1dfc4ff034fabc2c7b0fe077dd5fb6181c78e98dd01f2",
        "cb_mnl_e": "3aebdb5c42d213bc8693c2d902f54a94e0f62e061243dd7c8840b04d1b1d4036",
    }

    def test_pinned_radius_tells_the_two_sets_apart(self, monkeypatch):
        pin_gamma(monkeypatch, 4.5)
        digests = {}
        for policy in self.PINNED_GAMMA_PINS:
            run = run_experiment(self.regret_cfg(policy), seed=0)
            rows = csv.DictReader(io.StringIO(run.csv_text()))
            played = "".join(f"{r['assortment']},{r['outcome']}\n" for r in rows)
            digests[policy] = hashlib.sha256(played.encode()).hexdigest()
        assert digests == self.PINNED_GAMMA_PINS
        assert digests["cb_mnl_e"] != digests["cb_mnl_c"]

    @pytest.mark.parametrize("policy", ["oracle", "random"])
    def test_outcomes_replay_from_one_outcome_stream(self, policy):
        # Round t's choice is the t-th draw of the run's one outcome stream,
        # made on the played assortment under theta_star.
        run = run_experiment(self.regret_cfg(policy), seed=0)
        inst = run.instance
        g = stream(0, TAG_OUTCOME)
        replayed = [
            sample_choice(
                choice_probabilities(
                    AssortmentContexts.from_pool(inst.pool, r.assortment, inst.prices),
                    inst.theta_star,
                ),
                g,
            )
            for r in run.records
        ]
        assert replayed == [r.outcome for r in run.records]

    @pytest.mark.parametrize("policy", ["random", "cb_mnl_e"])
    def test_regret_reads_the_played_revenue_exactly(self, policy):
        # The regret reads theta_star's revenue off the played assortment's
        # record, made once per assortment: it is expected_revenue's, bit
        # for bit, in every round.
        run = run_experiment(ExperimentConfig(**{**REGRET_CFG, "T": 200}, policy=policy), seed=0)
        inst = run.instance
        for r in run.records:
            ass = AssortmentContexts.from_pool(inst.pool, r.assortment, inst.prices)
            assert r.oracle_value - r.inst_regret == expected_revenue(ass, inst.theta_star)
        assert len({r.assortment for r in run.records}) > 1

    def test_boundary_search_makes_at_most_two_membership_passes(
        self, monkeypatch, member_passes
    ):
        # The bracket pass and at most one chord pass per call, counted on the
        # run path itself, all with the searched set's own test; the
        # benchmark's tracer sees calls, not passes.  The pinned radius makes
        # both sets bind inside the ball within the 300 rounds.  E's search
        # makes no pass in a round whose whole-ball proof holds, and its
        # chord pass only where lam-strong convexity leaves a chord point
        # unproved; C's has neither proof.
        import collections

        import mnl_bandit.policy as policy

        passes, proved = [], []
        search = policy.e_boundary_multi

        def counted_search(state, **kw):
            before = len(member_passes)
            points = search(state, **kw)
            passes.append(collections.Counter(kind for kind, _, _ in member_passes[before:]))
            proved.append(state.ball_in_E)
            return points

        pin_gamma(monkeypatch, 4.5)
        monkeypatch.setattr(policy, "e_boundary_multi", counted_search)
        cases = (("cb_mnl_e", "E", {0: 26, 1: 266, 2: 8}), ("cb_mnl_c", "C", {2: 300}))
        for name, kernel, counts in cases:
            passes.clear()
            proved.clear()
            run_experiment(self.regret_cfg(name), seed=0)
            assert len(passes) == 300
            assert {which for used in passes for which in used} == {kernel}
            assert collections.Counter(used[kernel] for used in passes) == counts
            if kernel == "E":
                assert [used[kernel] == 0 for used in passes] == proved

    def test_fit_passes_are_newton_steps_plus_rounds_with_new_rows(
        self, monkeypatch, kernel_passes
    ):
        # Each fit starts from the last round's result, whose evaluation is
        # recounted unless a block arrived since: on a fixed pool a round's
        # fit makes one kernel pass per Newton step.
        import mnl_bandit.confidence as confidence

        fit = confidence.fit_mle
        seen = {"passes": 0, "rounds with new rows": 0, "rows": None}

        def counted_fit(history, *args, **kw):
            seen["rounds with new rows"] += history.rows.ctx_flat is not seen["rows"]
            seen["rows"] = history.rows.ctx_flat
            before = len(kernel_passes)
            result = fit(history, *args, **kw)
            seen["passes"] += len(kernel_passes) - before
            return result

        monkeypatch.setattr(confidence, "fit_mle", counted_fit)
        run = run_experiment(self.regret_cfg("random"), seed=0)
        assert seen["passes"] == run.newton_steps + seen["rounds with new rows"]
        assert seen["rounds with new rows"] <= run.history.rows.n_blocks + 1

    @pytest.mark.parametrize("track_c", [False, True])
    def test_theta_star_side_makes_no_pass(self, monkeypatch, kernel_passes, track_c):
        # theta_star's side reads running sums, C's coverage included, so
        # every pass is the fit's: one per Newton step, and one for the
        # fit's start in a round whose stored rows changed.
        cfg = ExperimentConfig.from_dict(
            {**self.regret_cfg("random").to_dict(), "track_c_stats": track_c}
        )
        run, fit_passes, new_rows = passes_by_side(monkeypatch, kernel_passes, cfg)
        assert len(kernel_passes) == fit_passes == run.newton_steps + new_rows
        assert new_rows <= run.history.rows.n_blocks + 1

    def test_theta_star_side_makes_no_pass_on_fresh_contexts(self, monkeypatch, kernel_passes):
        cfg = small_cfg(policy="random", context_mode="fresh_iid", T=40)
        run, fit_passes, new_rows = passes_by_side(monkeypatch, kernel_passes, cfg)
        assert new_rows == run.history.rows.n_blocks == cfg.T
        assert len(kernel_passes) == fit_passes == run.newton_steps + cfg.T

    @pytest.mark.parametrize("policy", ["random", "cb_mnl_e"])
    def test_round_checks_each_object_once(self, monkeypatch, policy):
        # A short run of the regret config.  The fit takes its score norms
        # without np.linalg.norm, and every assortment and choice
        # distribution the run builds is checked once, as it is built: none
        # goes through the dataclass's converting __post_init__.
        import collections

        import mnl_bandit.choice as choice
        import mnl_bandit.confidence as confidence

        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return counted

        monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm))
        fit = confidence.fit_mle

        def counted_fit(*args, **kw):
            before = calls["norm"]
            result = fit(*args, **kw)
            calls["fit"] += 1
            calls["norm in fit"] += calls["norm"] - before
            return result

        monkeypatch.setattr(confidence, "fit_mle", counted_fit)
        for name in ("_check_assortment", "_check_probs"):
            monkeypatch.setattr(choice, name, counting(name, getattr(choice, name)))
        assemble = choice._assemble

        def counted_assemble(cls, **values):
            calls["built " + cls.__name__] += 1
            return assemble(cls, **values)

        monkeypatch.setattr(choice, "_assemble", counted_assemble)
        for cls in (choice.AssortmentContexts, choice.ChoiceDistribution):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))

        T = 60
        cfg = self.regret_cfg(policy)
        run = run_experiment(ExperimentConfig.from_dict({**cfg.to_dict(), "T": T}), seed=0)
        assert calls["fit"] == T and calls["norm in fit"] == 0
        assert calls["AssortmentContexts"] == calls["ChoiceDistribution"] == 0
        # The contexts of each distinct played assortment and of the fixed
        # pool's oracle are picked and checked once, in its record, which
        # also holds theta_star's law there.  The random baseline adds
        # theta_hat's law each round; the optimistic step builds neither.
        inst = run.instance
        oracle = oracle_assortment(inst.pool, inst.theta_star, inst.K, inst.prices)
        records = len({r.assortment for r in run.records} | {oracle})
        assert records < T
        assert calls["built AssortmentContexts"] == calls["_check_assortment"] == records
        laws = records + (T if policy == "random" else 0)
        assert calls["built ChoiceDistribution"] == calls["_check_probs"] == laws


class TestRoundsSkipNumpyWrappers:
    # From round 1's contexts on, a run calls the kernels behind numpy's
    # Python-level wrappers (np.linalg.solve, eigvalsh and norm, vstack,
    # atleast_2d, append, flatnonzero), never the wrappers: the refined
    # ascent, both sets' boundary searches, theta_star's C test, the bonus
    # solves, Dinkelbach's iteration and fresh contexts all run here.
    @pytest.mark.parametrize("mode", [FIXED_POOL, FRESH_IID])
    @pytest.mark.parametrize("policy", [kind.value for kind in PolicyKind])
    def test_no_round_calls_a_wrapper(self, monkeypatch, wrapper_calls, policy, mode):
        import collections

        import mnl_bandit.harness as harness

        counts = []  # the wrapper calls so far, as each round serves its contexts
        serve = harness.serve_contexts

        def serving(instance, t):
            counts.append(collections.Counter(wrapper_calls))
            return serve(instance, t)

        monkeypatch.setattr(harness, "serve_contexts", serving)
        cfg = ExperimentConfig(
            d=2, N=5, K=2, T=25, prices=[1.0, 0.5, 2.0, 1.5, 0.8], policy=policy, context_mode=mode
        )
        run_experiment(cfg, seed=0)
        counts.append(collections.Counter(wrapper_calls))
        assert len(counts) == cfg.T + 1
        # The instance's own checks, before round 1, show the counter sees them.
        assert counts[0]["norm"] > 0
        assert [after - counts[0] for after in counts[1:]] == [collections.Counter()] * cfg.T


class TestEllipticalCheck:
    def test_empty_history_trivial(self):
        cfg = small_cfg(T=0)
        run = run_experiment(cfg, seed=0)
        pot_lhs, pot_rhs, _, _ = elliptical_potential_check(run)
        assert pot_lhs == 0.0
        assert pot_rhs == pytest.approx(0.0, abs=1e-12)
        assert elliptical_potential([run]).passed

    def test_single_round_boundary_equality(self):
        # One unit context with lam=1: det V_2 = 2 equals the bound exactly.
        hist = History(1)
        hist.append(AssortmentContexts((0,), np.array([[1.0]]), np.ones(1)), 1)
        instance = Instance(
            d=1, N=1, K=1, S=1.0, S_true=1.0, theta_star=np.zeros(1), context_mode="fixed_pool",
            pool=np.ones((1, 1)), prices=np.ones(1), seed=0,
        )
        run = RunLog(
            cfg=small_cfg(T=1, lambda_override=1.0), seed=0, records=[],
            instance=instance, kappa_hat=4.0,
            wall_time=0.0, mle_failures=0, history=hist,
        )
        _, _, det_lhs, det_rhs = elliptical_potential_check(run)
        assert det_lhs == pytest.approx(2.0, rel=1e-12)
        assert det_rhs == pytest.approx(2.0, rel=1e-12)
        assert elliptical_potential([run]).passed

    @pytest.mark.parametrize("mode", ["fresh_iid", "fixed_pool"])
    def test_replays_the_played_rounds(self, monkeypatch, mode):
        # The history keeps no per-round log, so the check rebuilds each
        # round's contexts; record what was appended and replay it here.
        # The check builds one record per assortment a pool plays, as the
        # run does: each round's on fresh contexts, each distinct one's on
        # a fixed pool.
        import mnl_bandit.harness as harness

        played = []
        append = History.append

        def recorded(self, assortment, outcome):
            played.append(assortment)
            return append(self, assortment, outcome)

        monkeypatch.setattr(History, "append", recorded)
        run = run_experiment(small_cfg(context_mode=mode, T=60), seed=3)
        monkeypatch.undo()
        distinct = {ass.indices for ass in played}
        records = 60 if mode == "fresh_iid" else len(distinct)
        assert len(played) == 60 and run.history.rows.n_blocks == records
        assert mode == "fresh_iid" or records < 60
        lam, d, theta_star = run.cfg.lam, run.cfg.d, run.instance.theta_star
        j_mat, lhs, v_mat = lam * np.eye(d), 0.0, lam * np.eye(d)
        for ass in played:
            mu = choice_probabilities(ass, theta_star).item_probs
            xt = np.sqrt(mu * (1.0 - mu))[:, None] * ass.contexts
            lhs += min(float(np.einsum("kd,dk->", xt, np.linalg.solve(j_mat, xt.T))), 1.0)
            j_mat = j_mat + xt.T @ xt
            v_mat = v_mat + ass.contexts.T @ ass.contexts
        rhs = 2.0 * (np.linalg.slogdet(j_mat)[1] - d * math.log(lam))
        k_max = max(ass.cardinality for ass in played)
        built = []
        law = harness._StarLaw

        def counted(*args):
            built.append(1)
            return law(*args)

        monkeypatch.setattr(harness, "_StarLaw", counted)
        pot_lhs, pot_rhs, det_lhs, det_rhs = elliptical_potential_check(run)
        assert len(built) == records
        assert (pot_lhs, pot_rhs) == (lhs, rhs)
        assert det_lhs == pytest.approx(float(np.linalg.det(v_mat)), rel=1e-12)
        assert det_rhs == (lam + len(played) * k_max / d) ** d

    def test_holds_on_completed_runs(self):
        for policy in ("cb_mnl_e", "random"):
            run = run_experiment(small_cfg(policy=policy, T=150), seed=8)
            pot_lhs, pot_rhs, det_lhs, det_rhs = elliptical_potential_check(run)
            assert pot_lhs <= pot_rhs + 1e-9
            assert det_lhs <= det_rhs * (1 + 1e-12) + 1e-9


class TestSummarize:
    def test_single_log_zero_spread(self):
        logs = [run_experiment(small_cfg(T=20), seed=0)]
        s = summarize_runs(logs)
        assert s.n_runs == 1
        np.testing.assert_array_equal(s.stderr_cum_regret, 0.0)
        np.testing.assert_array_equal(s.mean_cum_regret, logs[0].cum_regret_curve())

    def test_identical_logs_zero_spread(self):
        log = run_experiment(small_cfg(T=20), seed=0)
        s = summarize_runs([log, log])
        np.testing.assert_allclose(s.stderr_cum_regret, 0.0, atol=1e-12)

    def test_synthetic_mean_and_spread(self):
        log = run_experiment(small_cfg(T=10), seed=0)
        a = run_experiment(small_cfg(T=10), seed=0)
        t = np.arange(1, 11, dtype=float)
        for rec, c in zip(log.records, t):
            rec.cum_regret = c
        for rec, c in zip(a.records, 3 * t):
            rec.cum_regret = c
        s = summarize_runs([log, a])
        np.testing.assert_allclose(s.mean_cum_regret, 2 * t, rtol=1e-12)
        np.testing.assert_allclose(
            s.stderr_cum_regret, np.abs(3 * t - t) / 2 / math.sqrt(2) * math.sqrt(2), rtol=1e-12
        )

    def test_mismatched_configs_rejected(self):
        l1 = run_experiment(small_cfg(T=10), seed=0)
        l2 = run_experiment(small_cfg(T=11), seed=0)
        with pytest.raises(ValueError, match="configs"):
            summarize_runs([l1, l2])

    def test_runs_differing_only_in_seeds_share_a_config(self):
        # As for `mnl-bandit summarize`: seeds and out_dir select runs of one experiment.
        logs = run_many(small_cfg(T=10, seeds=[0])) + run_many(
            small_cfg(T=10, seeds=[1, 2], out_dir="elsewhere")
        )
        assert summarize_runs(logs).n_runs == 3
        other = run_experiment(small_cfg(T=10, n_dirs=7), seed=0)
        with pytest.raises(ValueError, match="run 3 differs from run 0 in n_dirs$"):
            summarize_runs(logs + [other])

    def test_loglog_slope_on_power_law(self):
        t = np.arange(1, 1001, dtype=float)
        assert loglog_slope(np.sqrt(t)) == pytest.approx(0.5, abs=1e-6)
        assert loglog_slope(t) == pytest.approx(1.0, abs=1e-6)


class TestPersistence:
    def test_csv_header_and_determinism(self, tmp_path):
        cfg = small_cfg(T=25)
        a = run_experiment(cfg, seed=9)
        b = run_experiment(cfg, seed=9)
        assert a.csv_text() == b.csv_text()
        text = a.csv_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == (
            "t,assortment,outcome,opt_value,oracle_value,inst_regret,cum_regret,"
            "gamma,beta,covered,dev_H,dev_bound"
        )
        assert len(text.splitlines()) == 26

    def test_csv_parses_back(self, tmp_path):
        run = run_experiment(small_cfg(T=12), seed=10)
        [path] = save_runs([run], tmp_path)
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[3].split(",")))
        assert int(row["t"]) == 3
        rec = run.records[2]
        assert float(row["cum_regret"]) == rec.cum_regret
        assert float(row["gamma"]) == rec.gamma
        assert row["assortment"] == "|".join(str(i) for i in rec.assortment)
        assert row["covered"] in ("0", "1")

    def test_metadata_fields(self, tmp_path):
        run = run_experiment(small_cfg(T=10), seed=11)
        [path] = save_runs([run], tmp_path)
        meta = json.loads(Path(path).with_suffix(".json").read_text())
        assert meta["seed"] == 11
        assert meta["kappa_hat"] >= 4.0
        assert meta["config"]["T"] == 10
        assert "wall_time_s" in meta and "version" in meta
        assert meta["history_blocks"] == run.history.rows.n_blocks
        assert meta["history_rows"] == run.history.n_items
        assert meta["newton_steps"] == run.newton_steps > 0
        assert run_experiment(small_cfg(T=0), seed=11).metadata()["newton_steps"] == 0

    @pytest.mark.parametrize(
        "kw, tracked",
        [({}, True), ({"track_c_stats": False}, False),
         ({"track_c_stats": False, "policy": "cb_mnl_c"}, True)],
        ids=["default", "untracked", "norm_set_policy"],
    )
    def test_metadata_counts_rounds_with_theta_star_in_C(self, kw, tracked, tmp_path):
        run = run_experiment(small_cfg(T=30, **kw), seed=3)
        [path] = save_runs([run], tmp_path)
        count = json.loads(Path(path).with_suffix(".json").read_text())["covered_C_rounds"]
        if tracked:
            assert count == sum(r.covered_C for r in run.records) > 0
        else:
            assert count is None and {r.covered_C for r in run.records} == {None}

    def test_history_size_fixed_pool_bounded_by_assortment_count(self):
        run = run_experiment(small_cfg(N=4, K=2, T=60), seed=2)
        meta = run.metadata()
        assert 1 <= meta["history_blocks"] <= math.comb(4, 1) + math.comb(4, 2)
        assert meta["history_rows"] <= 2 * meta["history_blocks"]

    def test_history_size_fresh_iid_one_block_per_round(self):
        run = run_experiment(small_cfg(T=25, context_mode="fresh_iid"), seed=4)
        meta = run.metadata()
        assert meta["history_blocks"] == 25
        assert meta["history_rows"] == sum(len(r.assortment) for r in run.records)

    def test_save_runs_layout(self, tmp_path):
        logs = run_many(small_cfg(T=8, seeds=[0, 1]), jobs=1)
        paths = save_runs(logs, tmp_path / "out")
        assert len(paths) == 2
        for p in paths:
            assert p.endswith(".csv")
            assert (tmp_path / "out").joinpath(p.split("/")[-1]).exists()


class TestRunMany:
    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Replaces the process pool by one that records its size and tasks
        and maps in this process, so no worker is started.  ``run_many``
        imports the pool when it needs one, so the patch goes on the module
        that it imports from."""
        import concurrent.futures

        seen = {"sizes": [], "tasks": []}

        class SerialPool:
            def __init__(self, max_workers):
                seen["sizes"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                seen["tasks"].extend(items)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return seen

    def test_pool_has_at_most_one_worker_per_seed(self, serial_pool):
        logs = run_many(small_cfg(T=3, seeds=[0, 1]), jobs=64)
        assert serial_pool["sizes"] == [2]
        assert [log.seed for log in logs] == [0, 1]

    def test_a_task_carries_only_its_own_seed(self, serial_pool):
        # The worker rebuilds the config from the task, so a task holding the
        # whole seed list would check every seed once per seed.
        seeds = list(range(40))
        cfg = small_cfg(T=2, seeds=seeds)
        logs = run_many(cfg, jobs=2)
        assert [(task_cfg["seeds"], seed) for task_cfg, seed in serial_pool["tasks"]] == [
            ([s], s) for s in seeds
        ]
        assert [log.seed for log in logs] == seeds
        # The logs carry the caller's config, as serial runs do.
        assert all(log.cfg is cfg for log in logs)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_many(small_cfg(T=3), jobs=jobs)

    def test_parallel_matches_serial(self):
        cfg = small_cfg(T=15, seeds=[0, 1, 2])
        serial = run_many(cfg, jobs=1)
        parallel = run_many(cfg, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.csv_text() == b.csv_text()
            assert a.metadata()["config"] == b.metadata()["config"]

    def test_importing_the_package_loads_no_process_pool(self):
        # Only run_many with more than one worker needs the pool's modules.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, mnl_bandit; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestConfig:
    @pytest.mark.parametrize(
        "cls, required",
        [(InstanceConfig, {}), (ConfidenceConfig, dict(d=2, K=2)), (ExperimentConfig, {})],
        ids=["InstanceConfig", "ConfidenceConfig", "ExperimentConfig"],
    )
    def test_every_field_rejects_a_foreign_value_by_name(self, cls, required):
        # Each field checks its own type where it is declared: a value of no
        # expected type raises a ValueError naming the field, never a
        # TypeError from a later comparison or an arithmetic error downstream.
        for f in dataclasses.fields(cls):
            with pytest.raises(ValueError, match=rf"\b{f.name}\b"):
                cls(**{**required, f.name: object()})

    def test_json_round_trip(self):
        # The path the run metadata and `summarize` take.
        cfg = small_cfg(T=77, policy="bonus_ucb", lambda_override=5.0)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "prices, seeds",
        [((1.0, 0.5, 2.0), (0, 1)), (np.array([1.0, 0.5, 2.0]), [0, 1])],
        ids=["tuples", "array"],
    )
    def test_sequence_fields_are_stored_as_lists(self, tmp_path, prices, seeds):
        # Prices given as a tuple or an array, and seeds as a tuple, read back
        # from JSON as the same config, and the runs summarize and save.
        cfg = small_cfg(T=5, prices=prices, seeds=seeds)
        assert cfg.prices == [1.0, 0.5, 2.0] and cfg.seeds == [0, 1]
        assert all(type(p) is float for p in cfg.prices)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        logs = run_many(cfg)
        assert isinstance(logs[0].instance.prices, np.ndarray)
        assert summarize_runs(logs).n_runs == 2
        for path in save_runs(logs, tmp_path):
            with open(path[: -len(".csv")] + ".json") as fh:
                assert json.load(fh)["config"]["prices"] == [1.0, 0.5, 2.0]

    def test_default_lambda_uses_horizon(self):
        cfg = small_cfg(T=3000, N=8)
        assert cfg.lam == pytest.approx(2 * math.log(2 * 3000))
        assert small_cfg(lambda_override=9.0).lam == 9.0

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            small_cfg(T=-1)
        with pytest.raises(ValueError):
            small_cfg(delta=0.0)
        with pytest.raises(ValueError):
            small_cfg(seeds=[])
        with pytest.raises(ValueError):
            small_cfg(policy="nonsense")
        with pytest.raises(ValueError, match="seeds must not repeat a seed, got 1 more than once"):
            small_cfg(seeds=[1, 0, 1])

    def test_validates_many_seeds_in_one_pass(self):
        # A list.count per seed made validation quadratic: 5 s at 2 * 10**4 seeds.
        seeds = list(range(10**5))
        start = time.perf_counter()
        assert small_cfg(seeds=seeds).seeds == seeds
        with pytest.raises(ValueError, match="got 5, 99999 more than once"):
            small_cfg(seeds=seeds + [99999, 5, 5])
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0), ("refine_top", -1), ("refine_top", None), ("n_dirs", -1),
            ("T", None), ("restarts", None), ("n_dirs", None), ("refine_iters", None),
            ("kappa_grid", None), ("mle_max_iter", None), ("N", None), ("restarts", 2.5),
            ("refine_iters", -1), ("kappa_grid", -1), ("mle_max_iter", 0), ("d", 0),
            ("K", 0), ("refine_top", True),
            # Instance and confidence fields, checked at construction (N=3, S=1).
            ("K", 5), ("S_true", 2.0), ("S_true", -0.5), ("S", 0.0), ("S", None),
            ("S_true", None), ("S", "NaN"), ("S", math.nan), ("S", math.inf),
            ("delta", None), ("delta", math.nan), ("lambda_override", 0.5),
            ("lambda_override", "abc"), ("lambda_override", math.nan),
            ("context_mode", None), ("context_mode", "bogus"),
            ("prices", [1.0, 1.0]), ("prices", "abc"), ("prices", [1.0, math.nan, 1.0]),
            ("prices", [1.0, -1.0, 1.0]), ("track_c_stats", "no"), ("seeds", [-1]),
            # More assortments than the enumeration guard: 2000 + C(2000, 2) at
            # K=2, under the random policy.
            ("N", 2000),
        ],
    )
    def test_rejects_bad_search_settings(self, field, value):
        # refine_iters, kappa_grid and mle_max_iter are no longer fields: a
        # config that names one is rejected with its name.  The enumeration
        # guard binds only a policy that enumerates, such as random.
        policy = "random" if (field, value) == ("N", 2000) else "cb_mnl_e"
        with pytest.raises(ValueError, match=field):
            small_cfg(policy=policy, **{field: value})

    @pytest.mark.parametrize(
        "kw",
        [{"policy": "bonus_ucb"}, {"policy": "random"}],
        ids=["bonus_ucb", "random"],
    )
    def test_enumerating_configs_keep_the_guard(self, kw):
        with pytest.raises(ValueError, match="N=30 and K=10 give 53009101 assortments"):
            small_cfg(N=30, K=10, T=1, **kw)

    def test_rejects_refining_more_than_the_leader(self):
        # Refinement ranks no leaders, so 2 is out of range, past the
        # enumeration guard or not.
        for kw in ({}, {"N": 30, "K": 10, "T": 1}):
            with pytest.raises(ValueError, match="refine_top must be 0 or 1, got 2"):
                small_cfg(refine_top=2, **kw)

    def test_rejects_more_restarts_than_candidates(self):
        # The ascent starts from the anchor and restarts-1 of the n_dirs=6 screening points.
        with pytest.raises(ValueError, match="restarts"):
            small_cfg(restarts=8)

    def test_accepts_edge_search_settings(self):
        for kw in ({"refine_top": 1}, {"refine_top": 0}, {"n_dirs": 0}, {"restarts": 1}):
            run = run_experiment(small_cfg(T=3, **kw), seed=0)
            assert len(run.records) == 3
