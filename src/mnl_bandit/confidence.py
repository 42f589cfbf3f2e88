"""Confidence radii and sets around the regularized MLE.

Two sets are maintained over the parameter ball Theta = {||theta|| <= S}:

* the norm-based set  C = {theta : ||g(theta) - g(theta_hat)||_{H(theta)^-1} <= gamma},
  which is not convex because the metric moves with the candidate;
* its convex relaxation E = {theta : loss(theta) - loss(theta_hat) <= beta^2},
  a sublevel set of the convex penalized log-loss
  (loss = negative penalized log-likelihood), with beta = gamma + gamma^2/lambda.

E contains C, so any coverage guarantee for C transfers to E, and E is the
set the decision step optimizes over.  The inner revenue maximization over
E is NOT a concave problem; ``max_revenue_over_E`` is a multi-start
projected-ascent heuristic whose result is always a feasible point, never
an upper bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .choice import AssortmentContexts, expected_revenue, revenue_gradient
from .estimation import (
    DesignMatrix,
    History,
    MleResult,
    _log_likelihood,
    _nll_hessian,
    fit_mle,
    g_vector,
    matrix_H,
    matrix_V,
    penalized_log_likelihood,
)

__all__ = [
    "ConfidenceConfig",
    "ConfidenceState",
    "default_lambda",
    "gamma_radius",
    "beta_radius",
    "build_confidence_state",
    "in_set_C",
    "in_set_E",
    "e_boundary_multi",
    "max_revenue_over_E",
]


def default_lambda(d: int, K: int, T: int) -> float:
    """Horizon-tuned ridge weight, held constant over a run."""
    return max(1.0, d * math.log(K * T))


@dataclass
class ConfidenceConfig:
    """Static quantities the radii depend on."""

    d: int
    K: int
    T: int
    delta: float = 0.1
    lam: float = 1.0
    S: float = 1.0
    L_const: float = 0.25  # upper bound on the diagonal derivative used in gamma

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.lam < 1.0:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if not 0.0 < self.L_const <= 1.0:
            raise ValueError(f"L_const must be in (0, 1], got {self.L_const}")
        if self.S <= 0.0:
            raise ValueError(f"S must be positive, got {self.S}")


def gamma_radius(cfg: ConfidenceConfig, t: int) -> float:
    """Concentration radius for the norm-based set at round t >= 1."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    lam = cfg.lam
    rl = math.sqrt(lam)
    log_det = 0.5 * cfg.d * math.log1p(cfg.L_const * cfg.K * t / (cfg.d * lam))
    return rl / 2.0 + (2.0 / rl) * (log_det - math.log(cfg.delta)) + (2.0 * cfg.d / rl) * math.log(2.0)


def beta_radius(gamma: float, lam: float) -> float:
    """Radius of the convex relaxation: gamma + gamma^2 / lambda."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    return gamma + gamma * gamma / lam


@dataclass
class ConfidenceState:
    """Per-round snapshot: MLE, radii, cached matrices and loss level."""

    theta_hat: np.ndarray
    gamma: float
    beta: float
    H_hat: DesignMatrix
    V: DesignMatrix
    loss_at_hat: float
    g_at_hat: np.ndarray
    t: int
    mle: MleResult | None = None
    anchor: np.ndarray = field(default=None)  # feasible base point for projections
    hess_at_hat: np.ndarray | None = None  # lazily cached loss Hessian at the MLE

    def __post_init__(self) -> None:
        if self.anchor is None:
            self.anchor = self.theta_hat


def build_confidence_state(
    history: History,
    cfg: ConfidenceConfig,
    t: int | None = None,
    mle: MleResult | None = None,
    theta0: np.ndarray | None = None,
    mle_tol: float = 1e-8,
    mle_max_iter: int = 100,
) -> ConfidenceState:
    """Fit the MLE (unless given) and assemble the round's snapshot."""
    if t is None:
        t = history.t + 1
    if mle is None:
        mle = fit_mle(history, cfg.lam, tol=mle_tol, max_iter=mle_max_iter, theta0=theta0)
    theta_hat = mle.theta_hat
    gamma = gamma_radius(cfg, t)
    beta = beta_radius(gamma, cfg.lam)
    loss_at_hat = -penalized_log_likelihood(history, theta_hat, cfg.lam)
    g_at_hat = g_vector(history, theta_hat, cfg.lam)
    anchor = theta_hat
    norm = float(np.linalg.norm(theta_hat))
    if norm > cfg.S:
        # The ridge keeps theta_hat near Theta, but nothing forces it inside;
        # projections need a base point that is feasible.
        anchor = theta_hat * (cfg.S / norm)
    return ConfidenceState(
        theta_hat=theta_hat,
        gamma=gamma,
        beta=beta,
        H_hat=matrix_H(history, theta_hat, cfg.lam),
        V=matrix_V(history, cfg.lam),
        loss_at_hat=loss_at_hat,
        g_at_hat=g_at_hat,
        t=t,
        mle=mle,
        anchor=anchor,
    )


def in_set_C(
    theta: np.ndarray, history: History, cfg: ConfidenceConfig, state: ConfidenceState
) -> bool:
    """Membership in the norm-based set; False outside the parameter ball."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if float(np.linalg.norm(theta)) > cfg.S * (1.0 + 1e-12):
        return False
    dg = g_vector(history, theta, cfg.lam) - state.g_at_hat
    h = matrix_H(history, theta, cfg.lam)
    return h.inv_quad(dg) <= state.gamma**2


def in_set_E(
    theta: np.ndarray, history: History, cfg: ConfidenceConfig, state: ConfidenceState
) -> bool:
    """Membership in the convex log-loss sublevel set."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if float(np.linalg.norm(theta)) > cfg.S * (1.0 + 1e-12):
        return False
    gap = -penalized_log_likelihood(history, theta, cfg.lam) - state.loss_at_hat
    return gap <= state.beta**2


def _hessian_at_hat(
    history: History, cfg: ConfidenceConfig, state: ConfidenceState
) -> np.ndarray:
    if state.hess_at_hat is None:
        state.hess_at_hat = _nll_hessian(history, state.theta_hat, cfg.lam)
    return state.hess_at_hat


def e_boundary_multi(
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    directions: np.ndarray,
    n_bisect: int = 5,
) -> np.ndarray:
    """Feasible near-boundary points of E intersect Theta along rays from the anchor.

    The loss is convex with its minimum at theta_hat, so feasibility along a
    ray from the anchor is an interval.  A quadratic model of the loss at
    the MLE gives the initial radius guess, which a short verified bracket
    search corrects; every returned point passes the true feasibility test.
    Utilities are affine in the radius, so context products are computed
    once and only the exponentials rerun per probe.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(dirs, axis=1)
    keep = norms > 0.0
    v = np.where(keep[:, None], dirs / np.where(keep, norms, 1.0)[:, None], 0.0)
    base = state.anchor
    # Exact exit points of the Theta ball along each ray.
    b = v @ base
    c = float(base @ base) - cfg.S**2
    s_ball = -b + np.sqrt(np.maximum(b * b - c, 0.0))
    s_ball = np.where(keep, np.maximum(s_ball, 0.0), 0.0)

    beta_sq = state.beta**2
    lam = cfg.lam
    u_base = history.ctx_flat @ base
    u_v = history.ctx_flat @ v.T  # (n, m)

    def gaps(s: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        vv = v if cols is None else v[cols]
        thetas = base + s[:, None] * vv
        ridge = 0.5 * lam * np.einsum("md,md->m", thetas, thetas)
        uv = u_v if cols is None else u_v[:, cols]
        ll = _log_likelihood(history, u_base[:, None] + uv * s[None, :])
        return ridge - ll - state.loss_at_hat

    hess = _hessian_at_hat(history, cfg, state)
    quad = np.einsum("md,de,me->m", v, hess, v)
    s_quad = np.sqrt(2.0 * beta_sq / np.maximum(quad, 1e-12))
    s0 = np.minimum(s_quad, s_ball)
    f0 = gaps(s0) <= beta_sq
    lo = np.where(f0, s0, 0.0)
    hi = np.where(f0, np.minimum(1.3 * s0, s_ball), s0)
    f_hi = gaps(hi) <= beta_sq
    lo = np.where(f_hi, hi, lo)
    active = ~f_hi & (hi > lo)
    for _ in range(n_bisect):
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        mid = 0.5 * (lo[cols] + hi[cols])
        ok = gaps(mid, cols) <= beta_sq
        lo[cols] = np.where(ok, mid, lo[cols])
        hi[cols] = np.where(ok, hi[cols], mid)
        active[cols] = hi[cols] - lo[cols] > 1e-3 * np.maximum(s_ball[cols], 1e-12)
    return base + lo[:, None] * v


def _pull_feasible(
    candidate: np.ndarray,
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    n_bisect: int = 10,
) -> np.ndarray:
    """The candidate if it lies in E, else the last feasible point of anchor -> candidate."""
    base = state.anchor
    if in_set_E(candidate, history, cfg, state):
        return candidate
    lo, hi = 0.0, 1.0
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        if in_set_E(base + mid * (candidate - base), history, cfg, state):
            lo = mid
        else:
            hi = mid
    return base + lo * (candidate - base)


def max_revenue_over_E(
    assortment: AssortmentContexts,
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    restarts: int = 5,
    rng: np.random.Generator | None = None,
    step0: float = 0.1,
    max_iter: int = 200,
    extra_starts: list[np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Heuristic maximization of expected revenue over E intersect Theta.

    Multi-start projected ascent: one start at the anchor (theta_hat when
    feasible), restarts-1 random boundary starts, plus any caller-supplied
    feasible starts.  Steps that leave the set are pulled back by bisection
    toward the anchor, which is valid because E is convex.  The returned
    value is attained by the returned parameter, so it never overstates
    the optimum.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if rng is None:
        rng = np.random.default_rng(0)
    starts = [state.anchor]
    if restarts > 1:
        dirs = rng.standard_normal((restarts - 1, history.dim))
        starts.extend(e_boundary_multi(history, cfg, state, dirs))
    if extra_starts:
        starts.extend(extra_starts)

    best_val = expected_revenue(assortment, state.anchor)
    best_theta = state.anchor.copy()
    for start in starts:
        theta = np.asarray(start, dtype=float).copy()
        val = expected_revenue(assortment, theta)
        eta = step0
        for _ in range(max_iter):
            grad = revenue_gradient(assortment, theta)
            g_norm = float(np.linalg.norm(grad))
            if g_norm < 1e-12:
                break
            cand = _pull_feasible(theta + eta * grad, history, cfg, state)
            cand_val = expected_revenue(assortment, cand)
            if cand_val > val + 1e-6:
                theta, val = cand, cand_val
            else:
                eta *= 0.5
                if eta < 1e-4:
                    break
        if val > best_val:
            best_val, best_theta = val, theta
    return best_val, best_theta
