"""Regularized maximum-likelihood estimation over assortment histories.

The history stores every offered assortment together with the observed
outcome (0 = no purchase).  The penalized log-likelihood is the full
multinomial one: each round contributes the log-probability of the outcome
that actually occurred, including the no-purchase slot, minus a ridge term
(lambda/2)||theta||^2.  Its stationarity condition is

    sum_s sum_i (r_si - mu_i(X_s theta)) x_si - lambda theta = 0,

which ``fit_mle`` solves by damped Newton iteration.

Design matrices:

    H(theta) = sum mu_i(1-mu_i) x x^T + lambda I      (curvature-weighted)
    V        = sum x x^T + lambda I                   (unweighted)
    G(th1, th2) = sum alpha_i x x^T + lambda I

where alpha_i is the per-item difference quotient
(mu_i(u2) - mu_i(u1)) / (u2_i - u1_i), falling back to mu_i(1-mu_i) at u1
when the utility change is below 1e-10.  By construction G satisfies
g(th1) - g(th2) = G(th1, th2)(th1 - th2) exactly away from the fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choice import AssortmentContexts

__all__ = [
    "History",
    "MleResult",
    "DesignMatrix",
    "penalized_log_likelihood",
    "score",
    "fit_mle",
    "g_vector",
    "matrix_H",
    "matrix_V",
    "matrix_G",
]

_ALPHA_FALLBACK_TOL = 1e-10


@dataclass
class MleResult:
    theta_hat: np.ndarray
    score_norm: float
    iterations: int  # Newton steps actually taken
    converged: bool


@dataclass
class DesignMatrix:
    """Symmetric d x d matrix carrying its ridge weight."""

    matrix: np.ndarray
    lam: float

    def quad(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.matrix @ v)

    def inv_quad(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ np.linalg.solve(self.matrix, v))


class History:
    """Append-only log of (assortment, outcome) rounds.

    Alongside the exact per-round records, flat arrays over all offered
    items are maintained so likelihood quantities evaluate in a handful of
    vectorized passes.  Rounds with empty assortments are kept in the log
    but contribute nothing to any estimate.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.rounds: list[tuple[AssortmentContexts, int]] = []
        self._ctx = np.empty((64, self.dim))
        self._seg = np.empty(64, dtype=np.int64)
        self._n = 0
        self._starts = np.empty(64, dtype=np.int64)
        self._chosen = np.empty(64, dtype=np.int64)  # flat row of purchase, -1 if none
        self._nseg = 0
        self._vsum = np.zeros((self.dim, self.dim))

    @property
    def t(self) -> int:
        return len(self.rounds)

    def append(self, assortment: AssortmentContexts, outcome: int) -> None:
        outcome = int(outcome)
        if not 0 <= outcome <= assortment.cardinality:
            raise ValueError(
                f"outcome {outcome} outside 0..{assortment.cardinality}"
            )
        if assortment.cardinality and assortment.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: history is d={self.dim}, assortment is d={assortment.dim}"
            )
        self.rounds.append((assortment, outcome))
        k = assortment.cardinality
        if k == 0:
            return
        if self._n + k > self._ctx.shape[0]:
            grow = max(2 * self._ctx.shape[0], self._n + k)
            self._ctx = np.resize(self._ctx, (grow, self.dim))
            self._seg = np.resize(self._seg, grow)
        if self._nseg + 1 > self._starts.shape[0]:
            grow = 2 * self._starts.shape[0]
            self._starts = np.resize(self._starts, grow)
            self._chosen = np.resize(self._chosen, grow)
        self._ctx[self._n : self._n + k] = assortment.contexts
        self._seg[self._n : self._n + k] = self._nseg
        self._starts[self._nseg] = self._n
        self._chosen[self._nseg] = self._n + outcome - 1 if outcome > 0 else -1
        self._vsum += assortment.contexts.T @ assortment.contexts
        self._n += k
        self._nseg += 1

    # Flat views used by the likelihood machinery.
    @property
    def ctx_flat(self) -> np.ndarray:
        return self._ctx[: self._n]

    @property
    def seg_ids(self) -> np.ndarray:
        return self._seg[: self._n]

    @property
    def starts(self) -> np.ndarray:
        return self._starts[: self._nseg]

    @property
    def chosen_rows(self) -> np.ndarray:
        return self._chosen[: self._nseg]

    @property
    def n_items(self) -> int:
        return self._n

    def context_sum_matrix(self) -> np.ndarray:
        return self._vsum.copy()


def _check_theta(history: History, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != history.dim:
        raise ValueError(
            f"dimension mismatch: history is d={history.dim}, theta is d={theta.shape[0]}"
        )
    return theta


def _flat_mu(history: History, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Utilities and softmax probabilities for every offered item, flat."""
    u = history.ctx_flat @ theta
    m = np.maximum.reduceat(u, history.starts)
    np.maximum(m, 0.0, out=m)
    ez = np.exp(u - m[history.seg_ids])
    denom = np.exp(-m) + np.add.reduceat(ez, history.starts)
    return u, ez / denom[history.seg_ids]


def penalized_log_likelihood(history: History, theta: np.ndarray, lam: float) -> float:
    """Log-probability of the observed outcomes minus (lam/2)||theta||^2."""
    theta = _check_theta(history, theta)
    base = -0.5 * lam * float(theta @ theta)
    if history.n_items == 0:
        return base
    u = history.ctx_flat @ theta
    m = np.maximum.reduceat(u, history.starts)
    np.maximum(m, 0.0, out=m)
    ez = np.exp(u - m[history.seg_ids])
    lse = m + np.log(np.exp(-m) + np.add.reduceat(ez, history.starts))
    chosen = history.chosen_rows
    cu = np.where(chosen >= 0, u[np.maximum(chosen, 0)], 0.0)
    return float((cu - lse).sum()) + base


def score(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the penalized log-likelihood; zero exactly at the MLE."""
    theta = _check_theta(history, theta)
    if history.n_items == 0:
        return -lam * theta
    _, mu = _flat_mu(history, theta)
    r = np.zeros(history.n_items)
    chosen = history.chosen_rows
    r[chosen[chosen >= 0]] = 1.0
    return (r - mu) @ history.ctx_flat - lam * theta


def g_vector(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """sum_s sum_i mu_i(X_s theta) x_si + lam theta."""
    theta = _check_theta(history, theta)
    if history.n_items == 0:
        return lam * theta
    _, mu = _flat_mu(history, theta)
    return mu @ history.ctx_flat + lam * theta


def reward_vector(history: History) -> np.ndarray:
    """sum_s sum_i r_si x_si, the value g takes at the MLE."""
    if history.n_items == 0:
        return np.zeros(history.dim)
    chosen = history.chosen_rows
    rows = chosen[chosen >= 0]
    if rows.size == 0:
        return np.zeros(history.dim)
    return history.ctx_flat[rows].sum(axis=0)


def matrix_H(history: History, theta: np.ndarray, lam: float) -> DesignMatrix:
    """Curvature-weighted design matrix sum mu(1-mu) x x^T + lam I."""
    theta = _check_theta(history, theta)
    eye = lam * np.eye(history.dim)
    if history.n_items == 0:
        return DesignMatrix(eye, lam)
    _, mu = _flat_mu(history, theta)
    w = mu * (1.0 - mu)
    ctx = history.ctx_flat
    return DesignMatrix(ctx.T @ (w[:, None] * ctx) + eye, lam)


def matrix_V(history: History, lam: float) -> DesignMatrix:
    """Unweighted design matrix sum x x^T + lam I."""
    return DesignMatrix(history.context_sum_matrix() + lam * np.eye(history.dim), lam)


def matrix_G(
    history: History, theta1: np.ndarray, theta2: np.ndarray, lam: float
) -> DesignMatrix:
    """Difference-quotient design matrix linking g(th1) - g(th2)."""
    theta1 = _check_theta(history, theta1)
    theta2 = _check_theta(history, theta2)
    eye = lam * np.eye(history.dim)
    if history.n_items == 0:
        return DesignMatrix(eye, lam)
    u1, mu1 = _flat_mu(history, theta1)
    u2, mu2 = _flat_mu(history, theta2)
    den = u2 - u1
    small = np.abs(den) < _ALPHA_FALLBACK_TOL
    alpha = np.where(small, mu1 * (1.0 - mu1), (mu2 - mu1) / np.where(small, 1.0, den))
    ctx = history.ctx_flat
    return DesignMatrix(ctx.T @ (alpha[:, None] * ctx) + eye, lam)


def _nll_hessian(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """Exact Hessian of the negative penalized log-likelihood (PD for lam > 0)."""
    eye = lam * np.eye(history.dim)
    if history.n_items == 0:
        return eye
    _, mu = _flat_mu(history, theta)
    ctx = history.ctx_flat
    diag_part = ctx.T @ ((mu[:, None]) * ctx)
    seg_means = np.add.reduceat(mu[:, None] * ctx, history.starts, axis=0)
    return diag_part - seg_means.T @ seg_means + eye


def fit_mle(
    history: History,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 100,
    theta0: np.ndarray | None = None,
) -> MleResult:
    """Damped Newton ascent on the strictly concave penalized log-likelihood.

    Converged means the score norm is at most ``tol``; otherwise the best
    iterate found is returned with ``converged=False`` and the caller
    decides what to do with it.
    """
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1 for a well-posed fit, got {lam}")
    if theta0 is None:
        theta = np.zeros(history.dim)
    else:
        theta = np.array(theta0, dtype=float).reshape(-1).copy()
    f = penalized_log_likelihood(history, theta, lam)
    steps = 0
    while steps < max_iter:
        s = score(history, theta, lam)
        s_norm = float(np.linalg.norm(s))
        if s_norm <= tol:
            return MleResult(theta, s_norm, steps, True)
        hess = _nll_hessian(history, theta, lam)
        try:
            step = np.linalg.solve(hess, s)
        except np.linalg.LinAlgError:
            step = s / lam
        slope = float(s @ step)
        a = 1.0
        moved = False
        while a >= 1e-12:
            cand = theta + a * step
            fc = penalized_log_likelihood(history, cand, lam)
            if fc >= f + 1e-4 * a * slope:
                theta, f = cand, fc
                moved = True
                break
            if a == 1.0 and float(np.linalg.norm(score(history, cand, lam))) <= 0.9 * s_norm:
                # Near the optimum the objective improvement drowns in
                # rounding; a contracting score norm is still progress.
                theta, f = cand, fc
                moved = True
                break
            a *= 0.5
        if not moved:
            break  # line search hit the numerical floor
        steps += 1
    s_norm = float(np.linalg.norm(score(history, theta, lam)))
    return MleResult(theta, s_norm, steps, s_norm <= tol)
