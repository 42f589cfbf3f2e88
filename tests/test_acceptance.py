"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with -s);
the test outcome itself mirrors that verdict.  The property statements
and their bars live in ``mnl_bandit.checks``, which ``mnl-bandit check``
runs at desk scale; this module supplies the gate's scales, seeds, run
batches and timing bounds.
"""
import time

import numpy as np
import pytest

from mnl_bandit.checks import (
    GATE_SEARCH,
    convex_set_contains_norm_set,
    coverage,
    derivative_identities,
    deviation_bound,
    elliptical_potential,
    mle_stationarity,
    psd_ordering,
    self_concordance,
)
from mnl_bandit.choice import AssortmentContexts
from mnl_bandit.confidence import default_lambda
from mnl_bandit.estimation import History, fit_mle
from mnl_bandit.harness import (
    ExperimentConfig,
    loglog_slope,
    run_experiment,
    run_many,
    summarize_runs,
)
from mnl_bandit.policy import random_assortment
from mnl_bandit.simulator import (
    TAG_OUTCOME,
    InstanceConfig,
    environment_step,
    make_instance,
    stream,
)

from conftest import COVERAGE_CFG, JOBS, REGRET_CFG


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_derivative_identities():
    start = time.perf_counter()
    res = derivative_identities(10_000, seed=101)
    elapsed = time.perf_counter() - start
    report(
        1,
        res.passed and elapsed < 5.0,
        f"worst fin-diff rel err {res.value:.2e} over 1e4 draws in {elapsed:.1f}s",
    )


def test_criterion_02_self_concordance():
    res = self_concordance(10_000, seed=102)
    report(2, res.passed, f"{res.value} violations of |mu''| <= mu' on 1e4 draws")


def test_criterion_03_mle_stationarity_and_consistency():
    start = time.perf_counter()
    stationarity = mle_stationarity(100, seed=103)

    # Consistency on the fixed-pool instance, 20 seeds, 3 checkpoints.
    checkpoints = (500, 1500, 5000)
    lam = default_lambda(2, 2, 5000)
    errors = {c: [] for c in checkpoints}
    for seed in range(20):
        inst = make_instance(InstanceConfig(d=2, N=8, K=2), seed)
        pool = inst.pool
        hist = History(2)
        rng_a = stream(seed, 7)
        theta0 = None
        for t in range(1, 5001):
            a = random_assortment(8, 2, rng_a)
            ass = AssortmentContexts.from_pool(pool, a, inst.prices)
            hist.append(ass, environment_step(inst, ass, stream(seed, TAG_OUTCOME, t)))
            if t in errors:
                res = fit_mle(hist, lam, theta0=theta0)
                theta0 = res.theta_hat
                errors[t].append(float(np.linalg.norm(res.theta_hat - inst.theta_star)))
    medians = [float(np.median(errors[c])) for c in checkpoints]
    elapsed = time.perf_counter() - start
    ok = stationarity.passed and medians[0] > medians[1] > medians[2] and elapsed < 120.0
    report(
        3,
        ok,
        f"score norm {stationarity.value:.2e}; medians {medians[0]:.4f} > {medians[1]:.4f} > "
        f"{medians[2]:.4f}; {elapsed:.0f}s",
    )


def test_criterion_04_coverage(coverage_runs):
    logs, _ = coverage_runs
    res = coverage(logs)
    report(4, len(logs) == 200 and res.passed, res.detail)


def test_norm_set_coverage(coverage_runs):
    # Companion to criterion 4: the tighter norm-based set also holds the
    # hidden parameter in at least a 1 - delta fraction of runs.
    logs, _ = coverage_runs
    frac = sum(all(r.covered_C for r in log.records) for log in logs) / len(logs)
    print(f"norm-set coverage: {'PASS' if frac >= 0.85 else 'FAIL'} - {frac:.3f} over 200 runs")
    assert frac >= 0.85


def test_criterion_05_convex_set_contains_norm_set():
    res = convex_set_contains_norm_set(50, 20, seed=105, instance_seed0=500)
    report(5, res.passed, res.detail)


_ITEM1_CELL = dict(N=8, K=2, policy="cb_mnl_e", **GATE_SEARCH)


@pytest.mark.parametrize("S", [3.0, 5.0])
def test_coverage_at_larger_norm_bound(S):
    cfg = ExperimentConfig(d=2, T=100, S=S, S_true=S, track_c_stats=False, **_ITEM1_CELL)
    res = coverage(run_many(cfg, range(20), jobs=JOBS))
    print(f"E-coverage at S={S:g}: {res.detail}")
    assert res.passed


@pytest.mark.parametrize("d", [5, 8])
def test_norm_set_coverage_at_larger_dimension(d):
    cfg = ExperimentConfig(d=d, T=150, S=1.0, S_true=1.0, **_ITEM1_CELL)
    logs = run_many(cfg, range(20), jobs=JOBS)
    frac = sum(all(r.covered_C for r in log.records) for log in logs) / len(logs)
    print(f"C-coverage at d={d}: {frac:.3f} over 20 runs")
    assert frac >= 0.85


def test_criterion_06_deviation_bound(coverage_runs):
    logs, _ = coverage_runs
    res = deviation_bound(logs)
    report(6, res.passed, res.detail)


def test_criterion_07_elliptical_potential(coverage_runs, regret_runs):
    logs_small, _ = coverage_runs
    logs_big, _ = regret_runs
    res = elliptical_potential(list(logs_big) + list(logs_small[:20]))
    report(7, res.passed, res.detail)


def test_criterion_08_psd_ordering():
    res = psd_ordering(200, seed=108)
    report(8, res.passed, res.detail)


def test_criterion_09_regret_behavior(regret_runs, random_runs):
    cb_logs, cb_elapsed = regret_runs
    rd_logs, rd_elapsed = random_runs
    cb = summarize_runs(cb_logs)
    rd = summarize_runs(rd_logs)
    slope = loglog_slope(cb.mean_cum_regret)
    ratio = cb.final_mean_regret / rd.final_mean_regret
    elapsed = cb_elapsed + rd_elapsed
    ok = slope <= 0.75 and ratio <= 0.6 and elapsed < 900.0
    report(
        9,
        ok,
        f"tail slope {slope:.3f} (<= 0.75), regret ratio {ratio:.3f} (<= 0.6), "
        f"runs took {elapsed:.0f}s",
    )


def test_criterion_10_determinism(coverage_runs):
    logs, _ = coverage_runs
    fresh_cov = run_experiment(ExperimentConfig(**COVERAGE_CFG), seed=0)
    same_cov = logs[0].csv_text() == fresh_cov.csv_text()

    small = ExperimentConfig(**{**REGRET_CFG, "T": 150})
    a = run_experiment(small, seed=3).csv_text()
    b = run_experiment(small, seed=3).csv_text()
    report(
        10,
        same_cov and a == b,
        f"coverage-run rerun identical: {same_cov}; regret-config rerun identical: {a == b}",
    )
