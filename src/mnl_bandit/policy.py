"""Assortment enumeration and the optimistic decision step, plus baselines.

The optimistic step scores every feasible assortment (all nonempty index
sets of size up to K) by the largest expected revenue any parameter in the
current confidence set can give it, then plays the argmax.  Assortments are
the rows of one integer matrix (see ``enumerate_assortments``).  Ties go to
the lexicographically smaller index tuple, a prefix before its extensions,
so reruns are reproducible.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .choice import AssortmentContexts
from .confidence import (
    L_CONST,
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
    "assortment_count",
    "enumerate_assortments",
    "cb_mnl_step",
    "bonus_ucb_step",
    "oracle_assortment",
    "random_assortment",
]

ENUMERATION_GUARD = 10**6
_SET_C_DRAWS = 512  # ellipsoid draws screened for members of the norm-based set C


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


def assortment_count(N: int, K: int) -> int:
    """Number of nonempty subsets of range(N) with at most K items.

    Raises ``ConfigurationError``, naming N and K, above the enumeration
    guard of 10**6.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    total = sum(math.comb(N, k) for k in range(1, K + 1))
    if total > ENUMERATION_GUARD:
        raise ConfigurationError(
            f"N={N} and K={K} give {total} assortments, more than the enumeration "
            f"guard ({ENUMERATION_GUARD}); reduce N or K"
        )
    return total


@functools.lru_cache(maxsize=8)
def enumerate_assortments(N: int, K: int) -> np.ndarray:
    """All nonempty subsets of range(N) with at most K items, one per row.

    A read-only ``(P, K)`` integer matrix, rows ordered by size then
    lexicographically and padded with -1 on the right; cached per (N, K).
    Guarded against combinatorial blow-up: P must not exceed 10**6.
    """
    total = assortment_count(N, K)
    rows = np.full((total, K), -1, dtype=np.intp)
    start = 0
    for k in range(1, K + 1):
        n_k = math.comb(N, k)
        flat = itertools.chain.from_iterable(itertools.combinations(range(N), k))
        rows[start : start + n_k, :k] = np.fromiter(flat, np.intp, n_k * k).reshape(n_k, k)
        start += n_k
    rows.flags.writeable = False
    return rows


def _as_tuple(row: np.ndarray) -> tuple[int, ...]:
    """The item indices of one assortment row, padding dropped."""
    return tuple(int(i) for i in row if i >= 0)


def _gather_sum(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-row sums of ``table`` over items (axis 0); -1 reads a zero row."""
    padded = np.concatenate([table, np.zeros((1,) + table.shape[1:])])
    return padded[rows].sum(axis=1)


def _ranked(rows: np.ndarray, values: np.ndarray, top: int) -> np.ndarray:
    """Indices of the ``top`` best assortments, best first.

    Ranked by (-value, index tuple): exact ties go to the lexicographically
    smaller tuple, and since the -1 padding sorts before every item, a
    prefix comes before its extensions as it does for tuples.
    """
    top = min(top, len(values))
    if top <= 0:
        return np.zeros(0, dtype=np.intp)
    cut = np.partition(values, len(values) - top)[len(values) - top]
    cand = np.flatnonzero(values >= cut)
    order = np.lexsort((*rows[cand].T[::-1], -values[cand]))
    return cand[order[:top]]


def _revenues_at_candidates(
    pool: np.ndarray,
    prices: np.ndarray | None,
    rows: np.ndarray,
    thetas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best expected revenue over candidate parameters for every assortment.

    ``rows`` is an assortment matrix in the format of
    ``enumerate_assortments``; ``thetas`` holds one candidate per row (a
    single parameter vector is one row); ``prices=None`` means unit prices.
    Returns the best value per assortment and the index of the candidate
    attaining it (the first among equals).  Assortments are scored in one
    vectorized pass from raw, unshifted exponentials, which stay finite
    while every |x . theta| is below about 709 (exp overflows float64 past
    that).  With ||x|| <= 1 any candidate of norm below 709 qualifies:
    confidence-set and S-ball points, theta_star and the ridge-regularized
    MLE all sit far inside that.
    """
    pool = np.asarray(pool, dtype=float)
    ez = np.exp(pool @ np.atleast_2d(thetas).T)  # (N, n_cand)
    pez = ez if prices is None else np.asarray(prices, dtype=float)[:, None] * ez
    rev = _gather_sum(pez, rows) / (1.0 + _gather_sum(ez, rows))  # (P, n_cand)
    which = rev.argmax(axis=1)
    return rev[np.arange(len(rows)), which], which


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
) -> Decision:
    """Optimistic decision over all feasible assortments.

    With ``set_kind="E"`` every assortment is screened against a shared
    pool of candidates in the convex set: the anchor and the boundary
    points along ``n_dirs`` seeded directions.  The ``refine_top`` best
    assortments are then refined by the multi-start ascent of
    ``max_revenue_over_E`` (its default 40 steps; 0 keeps the screening
    values as they are, a count at least the number of assortments
    refines every one).  Each ascent starts from the same pool: the
    anchor, the first ``restarts - 1`` boundary points (so ``restarts``
    may not exceed ``n_dirs + 1``) and that assortment's screening
    winner.  Refinement only raises a value, so with ``refine_top <= 1``
    it never changes the assortment played.

    With ``set_kind="C"`` the non-convex set is handled by rejection
    sampling 512 candidates from an ellipsoid around the MLE and
    keeping the members; ascent is unreliable there.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    rows = enumerate_assortments(len(pool), cfg.K)

    if set_kind == "C":
        cands = [state.anchor]
        radius = 2.0 * (1.0 + 2.0 * cfg.S) * state.gamma
        chol = np.linalg.cholesky(np.linalg.inv(state.H_hat))
        for _ in range(_SET_C_DRAWS):
            z = rng.standard_normal(history.dim)
            z *= radius * rng.random() ** (1.0 / history.dim) / float(np.linalg.norm(z))
            cand = state.theta_hat + chol @ z
            if in_set_C(cand, history, cfg, state):
                cands.append(cand)
        thetas = np.vstack(cands)
    elif set_kind == "E":
        if not 1 <= restarts <= n_dirs + 1:
            raise ValueError(f"restarts must be in [1, n_dirs + 1 = {n_dirs + 1}], got {restarts}")
        dirs = rng.standard_normal((n_dirs, history.dim))
        boundary = e_boundary_multi(history, cfg, state, dirs)
        thetas = np.vstack([state.anchor[None, :], boundary])
    else:
        raise ValueError(f"unknown set kind {set_kind!r}")

    values, which = _revenues_at_candidates(pool, prices, rows, thetas)
    if set_kind == "E":
        # Refine the leaders; a refined parameter joins the candidates.
        for p in _ranked(rows, values, refine_top):
            val, th = max_revenue_over_E(
                AssortmentContexts.from_pool(pool, _as_tuple(rows[p]), prices),
                history,
                cfg,
                state,
                np.vstack([thetas[:restarts], thetas[which[p]]]),
            )
            if val > values[p]:
                values[p] = val
                which[p] = len(thetas)
                thetas = np.vstack([thetas, th])
    best = _ranked(rows, values, 1)[0]
    return Decision(
        AssortmentContexts.from_pool(pool, _as_tuple(rows[best]), prices),
        thetas[which[best]],
        float(values[best]),
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

    with M = ``L_CONST``.
    """
    pool = np.asarray(pool, dtype=float)
    h_norms = np.sqrt(np.einsum("nd,nd->n", pool, np.linalg.solve(state.H_hat, pool.T).T))
    v_norms_sq = np.einsum("nd,nd->n", pool, np.linalg.solve(state.V, pool.T).T)
    c1 = (2.0 + 4.0 * cfg.S) * state.gamma
    c2 = 4.0 * kappa_hat * (1.0 + 2.0 * cfg.S) ** 2 * L_CONST * state.gamma**2
    item_bonus = c1 * h_norms + c2 * v_norms_sq

    rows = enumerate_assortments(len(pool), cfg.K)
    base, _ = _revenues_at_candidates(pool, prices, rows, state.theta_hat)
    values = base + _gather_sum(item_bonus, rows)
    best = _ranked(rows, values, 1)[0]
    return Decision(
        AssortmentContexts.from_pool(pool, _as_tuple(rows[best]), prices),
        state.theta_hat.copy(),
        float(values[best]),
    )


def oracle_assortment(
    pool: np.ndarray,
    theta_star: np.ndarray,
    K: int,
    prices: np.ndarray | None = None,
) -> tuple[int, ...]:
    """Brute-force revenue maximizer under the true parameter (simulator only)."""
    rows = enumerate_assortments(len(pool), K)
    values, _ = _revenues_at_candidates(pool, prices, rows, theta_star)
    return _as_tuple(rows[_ranked(rows, values, 1)[0]])


def random_assortment(N: int, K: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw over the enumerated feasible assortments."""
    rows = enumerate_assortments(N, K)
    return _as_tuple(rows[int(rng.integers(len(rows)))])
