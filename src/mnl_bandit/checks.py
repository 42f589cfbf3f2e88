"""The numerical property and lemma library, shared by the CLI and the gate.

Each property is one function whose scale, seed and data are arguments
and which returns a ``CheckResult``: the verdict, a one-line detail and
its headline number.  ``mnl-bandit check`` calls every property at desk
scale through ``run_checks``; the acceptance gate in
``tests/test_acceptance.py`` calls the same functions at its published
scales and seeds, so each statement and its bar exist once.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .choice import (
    AssortmentContexts,
    choice_probabilities,
    diag_derivative,
    diag_second_derivative,
)
from .confidence import (
    ConfidenceConfig,
    _ball_exit,
    _chord_proved,
    _chord_zero,
    _E_member,
    _E_proved,
    _gap_margin,
    beta_radius,
    build_confidence_state,
    default_lambda,
    e_boundary_multi,
)
from .estimation import History, _Evaluation, fit_mle, g_vector, matrix_G, matrix_H, score
from .harness import ExperimentConfig, RunLog, elliptical_potential_check, run_experiment
from .policy import PolicyKind, random_assortment
from .simulator import (
    TAG_OUTCOME,
    InstanceConfig,
    environment_step,
    make_instance,
    sample_ball,
    stream,
)

__all__ = [
    "CheckResult",
    "CHECKS",
    "run_checks",
    "derivative_identities",
    "self_concordance",
    "probability_normalization",
    "mle_stationarity",
    "psd_ordering",
    "g_identity",
    "convex_set_contains_norm_set",
    "certificate_soundness",
    "deviation_bound",
    "elliptical_potential",
    "coverage",
    "GATE_SEARCH",
    "REGRET_CFG",
    "COVERAGE_CFG",
    "MATRIX",
    "MATRIX_SEEDS",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float  # the headline number the detail reports


def _random_assortment(rng, d, k_max=5) -> AssortmentContexts:
    k = int(rng.integers(1, k_max + 1))
    ctx = sample_ball(rng, k, d)
    return AssortmentContexts(tuple(range(k)), ctx, np.ones(k))


def _random_draw(rng) -> tuple[AssortmentContexts, np.ndarray, int]:
    """An assortment of 1-5 items in dimension 1-10, a parameter of norm <= 3, an item."""
    d = int(rng.integers(1, 11))
    ass = _random_assortment(rng, d)
    theta = sample_ball(rng, 1, d, radius=3.0)[0]
    return ass, theta, int(rng.integers(ass.cardinality))


def _softmax_ref(utilities: list[float]) -> list[float]:
    den = 1.0 + sum(math.exp(u) for u in utilities)
    return [math.exp(u) / den for u in utilities]


def derivative_identities(n_draws: int, seed: int) -> CheckResult:
    """mu_i' against central differences of a pure-Python softmax."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(n_draws):
        ass, theta, i = _random_draw(rng)
        u = list(ass.contexts @ theta)
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd = (_softmax_ref(up)[i] - _softmax_ref(um)[i]) / (2.0 * h)
        an = diag_derivative(ass, theta, i)
        worst = max(worst, abs(fd - an) / abs(an))
    return CheckResult(
        "derivative finite differences",
        worst < 1e-6,
        f"worst fin-diff rel err {worst:.2e} over {n_draws} draws",
        worst,
    )


def self_concordance(n_draws: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_draws):
        ass, theta, i = _random_draw(rng)
        if abs(diag_second_derivative(ass, theta, i)) > diag_derivative(ass, theta, i):
            violations += 1
    return CheckResult(
        "self-concordance |mu''| <= mu'",
        violations == 0,
        f"{violations} violations of |mu''| <= mu' on {n_draws} draws",
        violations,
    )


def probability_normalization(n_draws: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        d = int(rng.integers(1, 11))
        ass = _random_assortment(rng, d)
        theta = sample_ball(rng, 1, d, radius=3.0)[0]
        dist = choice_probabilities(ass, theta)
        worst = max(worst, abs(float(dist.item_probs.sum()) + dist.no_purchase_prob - 1.0))
    return CheckResult("probability normalization", worst < 1e-12, f"worst gap {worst:.3g}", worst)


def _random_history(rng, d, rounds, k_max) -> History:
    """Rounds of 1..k_max random items with uniform outcomes."""
    hist = History(d)
    for _ in range(rounds):
        k = int(rng.integers(1, k_max + 1))
        ctx = sample_ball(rng, k, d)
        ass = AssortmentContexts(tuple(range(k)), ctx, np.ones(k))
        hist.append(ass, int(rng.integers(0, k + 1)))
    return hist


def mle_stationarity(n_fits: int, seed: int) -> CheckResult:
    """The score vanishes at the fitted MLE on random histories of up to 39 rounds."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fits):
        d = int(rng.integers(1, 6))
        hist = _random_history(rng, d, int(rng.integers(1, 40)), 3)
        lam = float(rng.uniform(1.0, 10.0))
        res = fit_mle(hist, lam)
        worst = max(worst, float(np.linalg.norm(score(hist, res.theta_hat, lam))))
    return CheckResult(
        "MLE stationarity", worst <= 1e-8, f"score norm {worst:.2e} over {n_fits} fits", worst
    )


def psd_ordering(n_configs: int, seed: int, S: float = 1.0) -> CheckResult:
    """G(th1, th2) dominates (1+2S)^-1 H(th_j) on single-item histories.

    The difference quotient behind G mixes in cross-item effects once an
    assortment has two or more items, and the ordering admits
    counterexamples there; with one item per round it is an exact mean
    value of the diagonal derivative and the ordering is sound.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(n_configs):
        d = int(rng.integers(1, 6))
        hist = History(d)
        for _ in range(int(rng.integers(1, 21))):
            ass = AssortmentContexts((0,), sample_ball(rng, 1, d), np.ones(1))
            hist.append(ass, int(rng.integers(0, 2)))
        lam = float(rng.uniform(1.0, 20.0))
        th1 = sample_ball(rng, 1, d, radius=S)[0]
        th2 = sample_ball(rng, 1, d, radius=S)[0]
        g = matrix_G(hist, th1, th2, lam)
        for th in (th1, th2):
            diff = g - matrix_H(hist, th, lam) / (1.0 + 2.0 * S)
            worst = min(worst, float(np.linalg.eigvalsh(diff)[0]))
    return CheckResult(
        "PSD ordering of G against H",
        worst >= -1e-9,
        f"min eigenvalue {worst:.3e} over {n_configs} configurations",
        worst,
    )


def g_identity(n_configs: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        d = int(rng.integers(1, 5))
        hist = _random_history(rng, d, int(rng.integers(1, 15)), 3)
        lam = float(rng.uniform(1.0, 3.0))
        th1 = sample_ball(rng, 1, d, radius=2.0)[0]
        th2 = sample_ball(rng, 1, d, radius=2.0)[0]
        lhs = g_vector(hist, th1, lam) - g_vector(hist, th2, lam)
        rhs = matrix_G(hist, th1, th2, lam) @ (th1 - th2)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return CheckResult(
        "difference-quotient identity for g", worst < 1e-8, f"worst gap {worst:.3g}", worst
    )


def convex_set_contains_norm_set(
    n_snapshots: int, per_snapshot: int, seed: int, instance_seed0: int
) -> CheckResult:
    """Every found member of the norm-based set C lies in its relaxation E.

    Snapshot s is a d=2, N=4, K=2 instance (seed ``instance_seed0 + s``)
    after T = 15 + 9 (s mod 6) uniformly random assortments.  Members of C
    are the points of C's boundary search (``e_boundary_multi``) along
    ``per_snapshot`` random rays from the anchor; a returned point equal to
    the anchor is not a member found, and a snapshot that yields fewer than
    ``per_snapshot`` members fails the check.  One pass of E's kernel tests
    a snapshot's members.
    """
    rng = np.random.default_rng(seed)
    tested = 0
    violations = 0
    for snap in range(n_snapshots):
        inst_seed = instance_seed0 + snap
        inst = make_instance(InstanceConfig(d=2, N=4, K=2), inst_seed)
        T = 15 + 9 * (snap % 6)
        hist = History(2)
        rng_a = stream(inst_seed, 7)  # a tag no run uses
        for t in range(1, T + 1):
            ass = AssortmentContexts.from_pool(inst.pool, random_assortment(4, 2, rng_a), inst.prices)
            hist.append(ass, environment_step(inst, ass, stream(inst_seed, TAG_OUTCOME, t)))
        cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=default_lambda(2, 2, T), S=1.0)
        state = build_confidence_state(hist, cfg, t=T + 1)
        dirs = rng.standard_normal((per_snapshot, 2))
        points = e_boundary_multi(hist, cfg, state, dirs, "C")
        members = points[(points != state.anchor).any(axis=1)]
        tested += len(members)
        violations += int((~_E_member(_Evaluation(hist, members, cfg.lam), cfg, state)[0]).sum())
    return CheckResult(
        "convex set contains the norm-based set",
        violations == 0 and tested == n_snapshots * per_snapshot,
        f"{violations} violations over {tested} members",
        violations,
    )


def certificate_soundness(n_histories: int, seed: int) -> CheckResult:
    """Every point a proof of E membership certifies passes ``_E_member``'s float test.

    History h has 0-149 rounds of 1-3 items in dimension 1-5, with fresh
    rows every round or, for odd h, rows from a fixed pool of 4, so that
    blocks repeat; S is 1, 3 or 5, lam the horizon default or one drawn in
    [1, 400), and the radius gamma_radius's shrunk by up to e^3, so that E
    fails to hold the ball in some histories.  Where
    ``ConfidenceState.ball_in_E`` proves that E holds the ball, 20 points
    of the ball and 10 of its sphere are tested.  On 8 random rays from the
    anchor, wherever E binds inside the ball, a bracket lo < hi around E's
    exit, lo feasible and hi not, gives a chord point, which is tested
    where ``_chord_proved`` certifies it.  Every point tested on those rays
    (the ball's exits, the bisection's midpoints, the brackets' ends and the
    chord points) is also one where ``_E_proved`` may certify membership
    from the point's own score, and each point it certifies is tested.  The
    bisection's midpoints close in on E's boundary from both sides, so
    where the data adds little curvature to the ridge the score's bound is
    tight there and only the margin keeps it sound.  The check fails on any
    violation, or unless the whole-ball proof both holds and fails
    somewhere, the chord proof certifies some point and the score proof
    both certifies and fails to certify some point.
    """
    rng = np.random.default_rng(seed)
    violations = held = chords = scored = unscored = 0
    for h in range(n_histories):
        d = int(rng.integers(1, 6))
        S = float(rng.choice([1.0, 3.0, 5.0]))
        rounds = int(rng.integers(0, 150))
        if h % 2:
            pool = sample_ball(rng, 4, d)
            hist = History(d)
            for _ in range(rounds):
                k = int(rng.integers(1, 4))
                picked = tuple(np.sort(rng.choice(4, size=k, replace=False)).tolist())
                hist.append(AssortmentContexts.from_pool(pool, picked), int(rng.integers(0, k + 1)))
        else:
            hist = _random_history(rng, d, rounds, 3)
        if rng.random() < 0.5:
            lam = default_lambda(d, 3, max(rounds, 1))
        else:
            lam = float(rng.uniform(1.0, 400.0))
        cfg = ConfidenceConfig(d=d, K=3, lam=lam, S=S)
        state = build_confidence_state(hist, cfg, t=hist.t + 1)
        gamma = state.gamma * math.e ** -float(rng.uniform(0.0, 3.0))
        state = dataclasses.replace(state, gamma=gamma, beta=beta_radius(gamma, lam))
        held += state.ball_in_E
        if state.ball_in_E:
            unit = rng.standard_normal((10, d))
            unit /= np.linalg.norm(unit, axis=1)[:, None]
            points = np.concatenate((sample_ball(rng, 20, d, radius=S), S * unit))
            violations += int((~_E_member(_Evaluation(hist, points, lam), cfg, state)[0]).sum())

        # Brackets around E's exit along each ray where E binds inside the
        # ball, from 40 bisections, widened by 1e-9 to 1e-1 of the ray's
        # length in the ball: narrow ones put the chord point within
        # rounding of the boundary, where only the margin keeps the proof sound.
        rays = rng.standard_normal((8, d))
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        base = state.anchor
        s_ball = _ball_exit(base, rays, S)

        def member(steps, dirs):
            nonlocal violations, scored, unscored
            ev = _Evaluation(hist, base + steps[:, None] * dirs, lam)
            ok, gap = _E_member(ev, cfg, state)
            proved = _E_proved(ev, cfg, state)
            violations += int((proved & ~ok).sum())
            scored += int(proved.sum())
            unscored += int((~proved).sum())
            return ok, gap - state.beta**2

        binds = ~member(s_ball, rays)[0]
        v, a, b = rays[binds], np.zeros(int(binds.sum())), s_ball[binds]
        if len(v):
            for _ in range(40):
                mid = 0.5 * (a + b)
                inside = member(mid, v)[0]
                a, b = np.where(inside, mid, a), np.where(inside, b, mid)
            width = s_ball[binds] * 10.0 ** -rng.uniform(1.0, 9.0, len(v))
            lo = np.maximum(a - width * rng.random(len(v)), 0.0)
            hi = np.minimum(b + width * rng.random(len(v)), s_ball[binds])
            ok, h_ends = member(np.concatenate((lo, hi)), np.concatenate((v, v)))
            s = _chord_zero(lo, hi, h_ends[: len(v)], h_ends[len(v) :])
            proved = _chord_proved(lo, hi, s, lam, _gap_margin(state))
            proved &= ok[: len(v)] & ~ok[len(v) :]  # a bracket: lo feasible, hi not
            chords += int(proved.sum())
            violations += int((~member(s[proved], v[proved])[0]).sum())
    return CheckResult(
        "proofs of E membership are sound",
        violations == 0 and 0 < held < n_histories and chords > 0 and scored > 0 and unscored > 0,
        f"{violations} violations; the whole-ball proof held in {held} of {n_histories} "
        f"histories; the chord proof certified {chords} points; the score proof "
        f"certified {scored} of {scored + unscored}",
        violations,
    )


def deviation_bound(logs: list[RunLog]) -> CheckResult:
    """dev_H <= dev_bound in every round whose confidence set held theta_star."""
    checked = 0
    violations = 0
    for log in logs:
        for r in log.records:
            if r.covered:
                checked += 1
                if r.dev_H > r.dev_bound + 1e-9:
                    violations += 1
    return CheckResult(
        "deviation bound in the H(theta_star) norm",
        violations == 0 and checked > 0,
        f"{violations} violations of the H(theta_star) deviation bound over {checked} covered rounds",
        violations,
    )


def elliptical_potential(logs: list[RunLog]) -> CheckResult:
    """Smallest slack of the potential and determinant-trace inequalities."""
    worst_pot = math.inf
    worst_det = math.inf
    for run in logs:
        pot_lhs, pot_rhs, det_lhs, det_rhs = elliptical_potential_check(run)
        worst_pot = min(worst_pot, pot_rhs - pot_lhs)
        worst_det = min(worst_det, det_rhs - det_lhs)
    n = len(logs)
    return CheckResult(
        "elliptical potential and determinant-trace",
        worst_pot >= -1e-9 and worst_det >= -1e-9,
        f"min potential slack {worst_pot:.3f}, min determinant slack {worst_det:.3f} "
        f"over {n} run{'s' * (n != 1)}",
        min(worst_pot, worst_det),
    )


def coverage(logs: list[RunLog]) -> CheckResult:
    """At least 85% of runs keep theta_star in the confidence set every round."""
    frac = sum(log.coverage_all for log in logs) / len(logs)
    return CheckResult(
        "coverage smoke test",
        frac >= 0.85,
        f"full-horizon coverage {frac:.3f} over {len(logs)} runs",
        frac,
    )


# Desk-scale runs: a short optimistic config and a uniform-policy config.
_SMOKE = ExperimentConfig(d=2, N=3, K=2, T=60, policy="cb_mnl_e", refine_top=1, n_dirs=8)
_RANDOM = ExperimentConfig(d=2, N=4, K=2, T=80, policy="random")

# The `check` suite: every property at desk scale, in report order.
CHECKS = {
    "probability_normalization": lambda: probability_normalization(2000, seed=13),
    "derivative_identities": lambda: derivative_identities(2000, seed=7),
    "self_concordance": lambda: self_concordance(5000, seed=11),
    "mle_stationarity": lambda: mle_stationarity(20, seed=17),
    "g_identity": lambda: g_identity(100, seed=23),
    "lemma2_psd": lambda: psd_ordering(200, seed=19),
    "lemma8_inclusion": lambda: convex_set_contains_norm_set(10, 20, seed=29, instance_seed0=100),
    "certificate_soundness": lambda: certificate_soundness(120, seed=47),
    "lemma5_bound": lambda: deviation_bound([run_experiment(_SMOKE, seed=37)]),
    "elliptical_potential": lambda: elliptical_potential([run_experiment(_RANDOM, seed=31)]),
    "coverage_smoke": lambda: coverage([run_experiment(_SMOKE, 300 + i) for i in range(10)]),
}


# The acceptance gate's configs, less their seeds: its search settings
# (screening along 8 rays, no refinement), the regret config and the
# coverage config.  The gate's run batches add their seeds to these.
GATE_SEARCH = dict(refine_top=0, n_dirs=8, restarts=1)
REGRET_CFG = dict(d=2, N=8, K=2, T=3000, lambda_override=40.0, track_c_stats=False, **GATE_SEARCH)
COVERAGE_CFG = dict(N=3, T=500, **GATE_SEARCH)

# The equivalence matrix: named configs that ``mnl-bandit matrix`` runs at
# MATRIX_SEEDS, so a change states "same behaviour" with ``mnl-bandit diff``
# against its parent's directory.  Every policy on the regret config, the
# default config, fresh contexts, C's policy at d=5, the bonus baseline with
# unequal prices, the gate's coverage config, the default config at S = 3,
# where the whole-ball proof fails and the ascent tests E, and the default
# config at lam = 1, whose weak ridge lets theta_hat leave the ball, so the
# anchor is theta_hat projected onto it.
MATRIX = {
    **{f"regret_{p.value}": ExperimentConfig(**REGRET_CFG, policy=p.value) for p in PolicyKind},
    "default": ExperimentConfig(),
    "fresh": ExperimentConfig(d=4, N=16, K=4, T=150, context_mode="fresh_iid"),
    "norm_set_d5": ExperimentConfig(d=5, T=200, policy="cb_mnl_c"),
    "priced_bonus": ExperimentConfig(
        N=5, T=300, prices=[1.0, 0.5, 2.0, 1.5, 0.8], policy="bonus_ucb"
    ),
    "gate_coverage": ExperimentConfig(**COVERAGE_CFG),
    "large_radius": ExperimentConfig(S=3.0, S_true=3.0),
    "small_ridge": ExperimentConfig(lambda_override=1.0, T=300),
}
MATRIX_SEEDS = (0, 1, 2)


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks, or all of them in report order; unknown names raise KeyError."""
    return [CHECKS[name]() for name in (names or CHECKS)]
