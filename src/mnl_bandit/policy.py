"""The optimistic decision step, the static MNL solve, baselines, enumeration.

The optimistic step plays the feasible assortment (a nonempty index set of
size up to K) with the largest expected revenue any candidate parameter in
the current confidence set gives it.  The max over assortments of the max
over candidates is the max over candidates of the max over assortments, so
screening makes one static revenue solve per candidate (``_static_optimum``)
and enumerates nothing; at most the leader is then refined by ascent.  Only
the bonus baseline and the random baseline score every assortment, as rows
of one integer matrix (see ``enumerate_assortments``).  Either way ties go
to the lexicographically smaller index tuple, a prefix before its
extensions, so reruns are reproducible.  A decision names its assortment
by its index tuple; the harness picks and checks the contexts.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .choice import AssortmentContexts
from .confidence import (
    L_CONST,
    ConfidenceConfig,
    ConfidenceState,
    e_boundary_multi,
    max_revenue_over_E,
)
from .estimation import History, _solve, matrix_V

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
_NEAR_SETS = 10**4  # most sets within rounding of a static optimum that are scored
_EPS = np.finfo(float).eps / 2  # unit roundoff


class ConfigurationError(ValueError):
    """Raised when a config cannot be run: an instance too large to enumerate
    exhaustively."""


class PolicyKind(str, Enum):
    CB_MNL_E = "cb_mnl_e"
    CB_MNL_C = "cb_mnl_c"
    BONUS_UCB = "bonus_ucb"
    ORACLE = "oracle"
    RANDOM = "random"


@dataclass
class Decision:
    """A round's choice: the assortment, as item indices into the round's
    pool, and the parameter and value that chose it."""

    assortment: tuple[int, ...]
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


def enumerate_assortments(N: int, K: int) -> np.ndarray:
    """All nonempty subsets of range(N) with at most K items, one per row.

    A read-only ``(P, K)`` integer matrix, rows ordered by size then
    lexicographically and padded with -1 on the right; cached per (N, K).
    Guarded against combinatorial blow-up: P must not exceed 10**6.
    """
    return _subsets(N, K)


@functools.lru_cache(maxsize=8)
def _subsets(N: int, K: int) -> np.ndarray:
    """``enumerate_assortments``' matrix, built once per (N, K).  The static
    solve reads its near-tie sets here, so the benchmark's tracer, which
    counts the rows ``enumerate_assortments`` returns, counts only the
    policies that score every assortment."""
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
    return tuple(i for i in row.tolist() if i >= 0)


def _row_sums(table: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right whatever the shapes."""
    total = table[..., 0]
    for k in range(1, table.shape[-1]):
        total = total + table[..., k]
    return total


def _gather_sum(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-row sums of ``table`` over items (its last axis); -1 reads a zero.

    Each row is added in its column order, items ascending and padding
    last, so a set's sum does not depend on which other rows are scored
    beside it.
    """
    padded = np.concatenate([table, np.zeros(table.shape[:-1] + (1,))], axis=-1)
    total = padded[..., rows[:, 0]]
    for k in range(1, rows.shape[1]):
        total = total + padded[..., rows[:, k]]
    return total


def _best(rows: np.ndarray, values: np.ndarray) -> int:
    """Index of the best assortment.

    Exact ties go to the lexicographically smaller index tuple, and since
    the -1 padding sorts before every item, a prefix comes before its
    extensions as it does for tuples.
    """
    cand = (values == values.max()).nonzero()[0]
    if len(cand) == 1:
        return int(cand[0])
    return int(cand[np.lexsort(rows[cand].T[::-1])[0]])


def _attraction(
    pool: np.ndarray, prices: np.ndarray | None, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp(x_i . theta) and its price-weighted copy, one row per candidate.

    ``thetas`` holds one candidate per row (a single parameter vector is
    one row); ``prices=None`` means unit prices.  Both tables are
    ``(n_cand, N)`` raw, unshifted exponentials, which stay finite while
    every |x . theta| is below about 709 (exp overflows float64 past that).
    With ||x|| <= 1 a candidate in the S-ball (confidence-set points and
    theta_star) qualifies, and so do the sums over an assortment, since a
    run's S is at most ``harness.S_MAX`` = 300 and its prices at most
    ``harness.PRICE_MAX`` = 1e19; the comments there derive those bounds
    and the one on the ridge-regularized MLE's norm.
    """
    thetas = np.asarray(thetas)
    ez = np.exp(thetas.reshape(-1, thetas.shape[-1]) @ np.asarray(pool, dtype=float).T)
    return ez, ez if prices is None else np.asarray(prices, dtype=float) * ez


def _revenues(weights: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Expected revenue of every assortment under one parameter.

    ``weights`` are that parameter's rows of the ``_attraction`` tables,
    each of shape ``(N,)``; ``rows`` is an assortment matrix in the format
    of ``enumerate_assortments``.
    """
    ez, pez = weights
    return _gather_sum(pez, rows) / (1.0 + _gather_sum(ez, rows))


def _static_optimum(
    weights: tuple[np.ndarray, np.ndarray], prices: np.ndarray | None, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Revenue-optimal assortment of at most K items under each candidate.

    For a fixed parameter the capacitated MNL revenue problem needs no
    enumeration: R(S) >= lam exactly when the sum over S of
    v_i (p_i - lam) is at least lam, so the optimum is the K items with
    the largest positive v_i (p_i - lam*) (Rusmevichientong, Shen and
    Shmoys, Operations Research 2010).  Dinkelbach's iteration (Management
    Science 1967) finds lam*: start at lam = 0, take those items (a stable
    sort lets the lower index win a tie), set lam to their revenue, and
    stop when the revenue stops rising.  With equal prices the first set is
    final.  When no item earns, every assortment earns 0 and ``(0,)`` wins.

    The answer is the one scoring every assortment gives: the largest
    computed revenue, ties to the lexicographically smaller tuple.  A set
    within rounding of the optimum can tie it or beat it by an ulp, for
    example where a large utility absorbs a small one.  Such a set holds
    every item whose score clears the (K+1)-th score (or 0) by more than
    ``tau``, a bound on the rounding, and otherwise only items within
    ``tau`` of the K-th and (K+1)-th scores.  A candidate with such near
    items has those sets scored exactly, up to ``_NEAR_SETS`` of them.

    Returns one row per candidate in the format of ``enumerate_assortments``
    and its revenue, summed as ``_revenues`` sums it.
    """
    v, pv = weights
    m, N = v.shape
    p = np.ones(1) if prices is None else np.asarray(prices, dtype=float)
    p_max = float(p.max())
    equal_prices = float(p.min()) == p_max
    earning = equal_prices and p_max > 0  # then every v_i p > 0
    ez, pez = weights
    if not earning:  # a set may hold fewer than K items: column N, 0, pads it
        ez, pez = (np.concatenate([t, np.zeros((m, 1))], axis=1) for t in weights)
    cand = np.arange(m)[:, None]
    score, items = pv, None  # score = v_i (p_i - lam), at lam = 0 first
    # lam rises with every new set, and the set changes only where two
    # scores cross or one crosses 0.
    for _ in range(N * (N + 1) // 2 + 2):
        order = np.argsort(-score, axis=1, kind="stable")
        top = order[:, :K]
        if not earning:
            keep = score[cand, top] > 0
            keep[:, 0] = True  # the first item scores <= 0 only where all earn 0: (0,) wins
            top = np.where(keep, top, N)  # N reads the 0 column
        new = np.sort(top, axis=1)
        value = _row_sums(pez[cand, new]) / (1.0 + _row_sums(ez[cand, new]))
        if items is None:
            items, lam = new, value
        else:
            # A set that earns no more ends the search; in exact arithmetic
            # it is the set itself, but rounding can offer a worse one.
            up = value > lam
            if not up.any():
                break
            items[up], lam[up] = new[up], value[up]
        score = pv - lam[:, None] * v
        if equal_prices:
            break  # sorting by v_i p sorts by v_i (p - lam)

    rows = items if earning else np.where(items < N, items, -1)  # -1 pads a row
    tau = 32 * (K + 2) * _EPS * p_max * (1.0 + K * float(v.max()))
    bounds = np.maximum(score[cand, order[:, K - 1 : K + 1]], 0.0)
    low, high = bounds[:, 0], bounds[:, 1] if K < N else np.zeros(m)
    # An item is near when low - tau <= score <= high + tau, which needs
    # low - high <= tau; where every price is 0, tau = 0 flags nothing.
    flagged = (low - high < tau).nonzero()[0]
    if flagged.size:
        near = (score >= low[:, None] - tau) & (score <= high[:, None] + tau)
        for j in flagged[near[flagged].any(axis=1)]:
            sure = (score[j] > high[j] + tau).nonzero()[0]
            maybe = near[j].nonzero()[0]
            free = K - len(sure)
            if sum(math.comb(len(maybe), k) for k in range(free + 1)) > _NEAR_SETS:
                continue
            local = _near_sets(sure, maybe, K, N)
            values = _revenues((v[j], pv[j]), local)
            best = _best(local, values)
            rows[j], lam[j] = local[best], values[best]
    return rows, lam


def _near_sets(sure: np.ndarray, maybe: np.ndarray, K: int, N: int) -> np.ndarray:
    """Every set of ``sure`` plus up to K - len(sure) items of ``maybe`` (at
    least one item in all), one row each in the format of
    ``enumerate_assortments``: items ascending, -1 padding last.

    The choices from ``maybe`` are the cached index rows of
    ``enumerate_assortments`` mapped onto it, with the empty choice first
    where ``sure`` alone is a set.
    """
    free = min(K - len(sure), len(maybe))
    picks = _subsets(len(maybe), free) if free else np.empty((0, 0), np.intp)
    if len(sure):
        picks = np.concatenate((np.full((1, free), -1, np.intp), picks))
    rows = np.full((len(picks), K), N, dtype=np.intp)  # N sorts after every item
    rows[:, : len(sure)] = sure
    rows[:, len(sure) : len(sure) + picks.shape[1]] = np.where(picks >= 0, maybe[picks], N)
    rows.sort(axis=1)
    rows[rows == N] = -1
    return rows


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
    contexts_of: Callable[[tuple[int, ...]], AssortmentContexts] | None = None,
) -> Decision:
    """Optimistic decision over all feasible assortments.

    Screening makes one static solve per candidate parameter: candidate j's
    optimum attains its value at j, so the leader is the best of those
    optima (ties to the smaller index tuple) and its candidate the first
    that attains it, as when every assortment is scored against every
    candidate.

    The candidates are the anchor and the points near the boundary of the
    set that ``set_kind`` names, the convex set E or the norm-based set C,
    along ``n_dirs`` seeded directions (``e_boundary_multi``).  With
    ``set_kind="E"`` and ``refine_top=1`` the leader is then refined by the
    multi-start ascent of ``max_revenue_over_E`` (its default 40 steps)
    from the anchor, the first ``restarts - 1`` boundary points (so
    ``restarts`` may not exceed ``n_dirs + 1``) and the leader's own
    candidate; ``refine_top=0`` keeps the screening value.  Refinement
    only raises the leader's value, so it never changes the assortment
    played.  C is not convex, so its leader is not refined.  The ascent
    reads the leader's contexts from ``contexts_of(indices)``: the harness
    passes the round's own record of the assortment, which the round then
    plays, so its rows are picked once; by default they are picked from
    the pool with ``AssortmentContexts.from_pool``.
    """
    if isinstance(refine_top, bool) or refine_top not in (0, 1):
        raise ValueError(f"refine_top must be 0 or 1, got {refine_top!r}")
    if not 1 <= restarts <= n_dirs + 1:
        raise ValueError(f"restarts must be in [1, n_dirs + 1 = {n_dirs + 1}], got {restarts}")
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n_dirs, history.dim))
    boundary = e_boundary_multi(history, cfg, state, dirs, set_kind)
    thetas = np.concatenate((state.anchor[None], boundary))

    # The max over assortments of the max over candidates is the max over
    # candidates of one static solve each.
    rows, values = _static_optimum(_attraction(pool, prices, thetas), prices, cfg.K)
    best = _best(rows, values)
    indices = _as_tuple(rows[best])
    value, theta = float(values[best]), thetas[best]
    if set_kind == "E" and refine_top:
        if contexts_of is None:
            leader = AssortmentContexts.from_pool(pool, indices, prices)
        else:
            leader = contexts_of(indices)
        starts = np.concatenate((thetas[:restarts], theta[None]))
        refined, at = max_revenue_over_E(leader, history, cfg, state, starts)
        if refined > value:
            value, theta = refined, at
    return Decision(indices, theta, value)


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
    h_norms = np.sqrt(np.einsum("nd,nd->n", pool, _solve(state.H_hat, pool.T).T))
    v_norms_sq = np.einsum("nd,nd->n", pool, _solve(matrix_V(history, cfg.lam), pool.T).T)
    c1 = (2.0 + 4.0 * cfg.S) * state.gamma
    c2 = 4.0 * kappa_hat * (1.0 + 2.0 * cfg.S) ** 2 * L_CONST * state.gamma**2
    item_bonus = c1 * h_norms + c2 * v_norms_sq

    rows = enumerate_assortments(len(pool), cfg.K)
    ez, pez = _attraction(pool, prices, state.theta_hat)
    values = _revenues((ez[0], pez[0]), rows) + _gather_sum(item_bonus, rows)
    best = _best(rows, values)
    return Decision(_as_tuple(rows[best]), state.theta_hat.copy(), float(values[best]))


def oracle_assortment(
    pool: np.ndarray,
    theta_star: np.ndarray,
    K: int,
    prices: np.ndarray | None = None,
) -> tuple[int, ...]:
    """Revenue maximizer under the true parameter (simulator only).

    One static solve (``_static_optimum``): the assortment that scoring
    every one would pick, ties included.
    """
    rows, _ = _static_optimum(_attraction(pool, prices, theta_star), prices, K)
    return _as_tuple(rows[0])


def random_assortment(N: int, K: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw over the enumerated feasible assortments."""
    rows = enumerate_assortments(N, K)
    return _as_tuple(rows[int(rng.integers(len(rows)))])
