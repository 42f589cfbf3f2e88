"""Assortment enumeration and the optimistic decision step, plus baselines.

The optimistic step scores every feasible assortment (all nonempty index
sets of size up to K) by the largest expected revenue any parameter in the
current confidence set can give it, then plays the argmax.  Ties are broken
by lexicographic order of the index tuples so reruns are reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .choice import AssortmentContexts
from .confidence import (
    ConfidenceConfig,
    ConfidenceState,
    e_boundary_multi,
    in_set_C,
    max_revenue_over_E,
)
from .estimation import History

__all__ = [
    "PolicyKind",
    "Decision",
    "ConfigurationError",
    "enumerate_assortments",
    "cb_mnl_step",
    "bonus_ucb_step",
    "oracle_assortment",
    "random_assortment",
]

ENUMERATION_GUARD = 10**6


class ConfigurationError(ValueError):
    """Raised when an instance is too large to enumerate exhaustively."""


class PolicyKind(str, Enum):
    CB_MNL_E = "cb_mnl_e"
    CB_MNL_C = "cb_mnl_c"
    BONUS_UCB = "bonus_ucb"
    ORACLE = "oracle"
    RANDOM = "random"


@dataclass
class Decision:
    assortment: AssortmentContexts
    theta_used: np.ndarray
    optimistic_value: float


def enumerate_assortments(N: int, K: int) -> list[tuple[int, ...]]:
    """All nonempty subsets of range(N) with at most K items.

    Ordered by size then lexicographically.  Guarded against combinatorial
    blow-up: the total count must not exceed 10**6.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    total = sum(math.comb(N, k) for k in range(1, K + 1))
    if total > ENUMERATION_GUARD:
        raise ConfigurationError(
            f"{total} assortments exceed the enumeration guard ({ENUMERATION_GUARD}); "
            "reduce N or K"
        )
    out: list[tuple[int, ...]] = []
    for k in range(1, K + 1):
        out.extend(itertools.combinations(range(N), k))
    return out


def _argmax_lex(values: dict[tuple[int, ...], float]) -> tuple[int, ...]:
    """Assortment with the largest value; exact ties go to the smaller tuple."""
    return min(values, key=lambda a: (-values[a], a))


def _revenues_at_candidates(
    pool: np.ndarray,
    prices: np.ndarray | None,
    assortments: list[tuple[int, ...]],
    thetas: np.ndarray,
) -> tuple[dict[tuple[int, ...], float], dict[tuple[int, ...], int]]:
    """Best expected revenue over candidate parameters for every assortment.

    ``thetas`` holds one candidate per row (a single parameter vector is one
    row); ``prices=None`` means unit prices.  Returns the best value per
    assortment and the index of the candidate attaining it.  Assortments are
    scored in one vectorized pass per cardinality from raw, unshifted
    exponentials, which stay finite while every |x . theta| is below about
    709 (exp overflows float64 past that).  With ||x|| <= 1 any candidate
    of norm below 709 qualifies: confidence-set and S-ball points,
    theta_star and the ridge-regularized MLE all sit far inside that.
    """
    pool = np.asarray(pool, dtype=float)
    ez = np.exp(pool @ np.atleast_2d(thetas).T)  # (N, n_cand)
    pez = ez if prices is None else np.asarray(prices, dtype=float)[:, None] * ez
    values: dict[tuple[int, ...], float] = {}
    which: dict[tuple[int, ...], int] = {}
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for a in assortments:
        by_size.setdefault(len(a), []).append(a)
    for group in by_size.values():
        idx = np.array(group, dtype=np.intp)  # (P, k)
        rev = pez[idx].sum(axis=1) / (1.0 + ez[idx].sum(axis=1))  # (P, n_cand)
        js = rev.argmax(axis=1)
        values.update(zip(group, rev[np.arange(len(group)), js].tolist()))
        which.update(zip(group, js.tolist()))
    return values, which


def cb_mnl_step(
    pool: np.ndarray,
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    set_kind: str = "E",
    rng: np.random.Generator | None = None,
    prices: np.ndarray | None = None,
    restarts: int = 5,
    n_dirs: int = 16,
    refine_top: int = 1,
    refine_iters: int = 200,
    c_samples: int = 512,
) -> Decision:
    """Optimistic decision over all feasible assortments.

    With ``set_kind="E"`` every assortment is screened against a shared
    pool of candidates in the convex set: the anchor and the boundary
    points along ``n_dirs`` seeded directions.  The ``refine_top`` best
    assortments are then refined by the multi-start ascent of
    ``max_revenue_over_E``, seeded with their screening parameter (0 keeps
    the screening values as they are; a count at least the number of
    assortments refines every one).  Refinement only raises a value, so
    with ``refine_top <= 1`` it never changes the assortment played.

    With ``set_kind="C"`` the non-convex set is handled by rejection
    sampling ``c_samples`` candidates from an ellipsoid around the MLE and
    keeping the members; ascent is unreliable there.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    assortments = enumerate_assortments(len(pool), cfg.K)

    if set_kind == "C":
        cands = [state.anchor]
        radius = 2.0 * (1.0 + 2.0 * cfg.S) * state.gamma
        h_hat = state.H_hat.matrix
        chol = np.linalg.cholesky(np.linalg.inv(h_hat))
        for _ in range(c_samples):
            z = rng.standard_normal(history.dim)
            z *= radius * rng.random() ** (1.0 / history.dim) / float(np.linalg.norm(z))
            cand = state.theta_hat + chol @ z
            if in_set_C(cand, history, cfg, state):
                cands.append(cand)
        thetas = np.vstack(cands)
        values, which = _revenues_at_candidates(pool, prices, assortments, thetas)
        best = _argmax_lex(values)
        return Decision(
            AssortmentContexts.from_pool(pool, best, prices), thetas[which[best]], values[best]
        )

    if set_kind != "E":
        raise ValueError(f"unknown set kind {set_kind!r}")

    # Screen against shared boundary candidates, then refine the leaders.
    dirs = rng.standard_normal((n_dirs, history.dim))
    boundary = e_boundary_multi(history, cfg, state, dirs)
    thetas = np.vstack([state.anchor[None, :], boundary])
    values, which = _revenues_at_candidates(pool, prices, assortments, thetas)
    thetas_opt = {a: thetas[j] for a, j in which.items()}
    leaders = sorted(assortments, key=lambda a: (-values[a], a))[:refine_top]
    for a in leaders:
        ass = AssortmentContexts.from_pool(pool, a, prices)
        val, th = max_revenue_over_E(
            ass,
            history,
            cfg,
            state,
            restarts=restarts,
            rng=rng,
            max_iter=refine_iters,
            extra_starts=[thetas_opt[a]],
        )
        if val > values[a]:
            values[a] = val
            thetas_opt[a] = th
    best = _argmax_lex(values)
    return Decision(
        AssortmentContexts.from_pool(pool, best, prices), thetas_opt[best], values[best]
    )


def bonus_ucb_step(
    pool: np.ndarray,
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    kappa_hat: float,
    prices: np.ndarray | None = None,
) -> Decision:
    """Baseline that inflates the MLE revenue with an explicit bonus.

    bonus(A) = (2+4S) gamma sum_i ||x_i||_{H_hat^-1}
             + 4 kappa_hat (1+2S)^2 M gamma^2 sum_i ||x_i||^2_{V^-1},

    with M = ``cfg.L_const``.
    """
    pool = np.asarray(pool, dtype=float)
    h_norms = np.sqrt(
        np.einsum("nd,nd->n", pool, np.linalg.solve(state.H_hat.matrix, pool.T).T)
    )
    v_norms_sq = np.einsum("nd,nd->n", pool, np.linalg.solve(state.V.matrix, pool.T).T)
    c1 = (2.0 + 4.0 * cfg.S) * state.gamma
    c2 = 4.0 * kappa_hat * (1.0 + 2.0 * cfg.S) ** 2 * cfg.L_const * state.gamma**2
    item_bonus = c1 * h_norms + c2 * v_norms_sq

    theta_hat = state.theta_hat
    base, _ = _revenues_at_candidates(
        pool, prices, enumerate_assortments(len(pool), cfg.K), theta_hat
    )
    values = {a: rev + float(item_bonus[list(a)].sum()) for a, rev in base.items()}
    best = _argmax_lex(values)
    return Decision(
        AssortmentContexts.from_pool(pool, best, prices), theta_hat.copy(), values[best]
    )


def oracle_assortment(
    pool: np.ndarray,
    theta_star: np.ndarray,
    K: int,
    prices: np.ndarray | None = None,
) -> tuple[int, ...]:
    """Brute-force revenue maximizer under the true parameter (simulator only)."""
    values, _ = _revenues_at_candidates(
        pool, prices, enumerate_assortments(len(pool), K), theta_star
    )
    return _argmax_lex(values)


def random_assortment(N: int, K: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw over the enumerated feasible assortments."""
    assortments = enumerate_assortments(N, K)
    return assortments[int(rng.integers(len(assortments)))]
