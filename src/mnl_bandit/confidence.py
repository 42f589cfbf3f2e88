"""Confidence radii and sets around the regularized MLE.

Two sets are maintained over the parameter ball Theta = {||theta|| <= S}:

* the norm-based set  C = {theta : ||g(theta) - g(theta_hat)||_{H(theta)^-1} <= gamma},
  which is not convex because the metric moves with the candidate;
* its convex relaxation E = {theta : loss(theta) - loss(theta_hat) <= beta^2},
  a sublevel set of the convex penalized log-loss
  (loss = negative penalized log-likelihood), with beta = gamma + gamma^2/lambda.

E contains C, so any coverage guarantee for C transfers to E, and E is the
set the decision step optimizes over by default.  Membership is one test
per set (``_E_member``, ``_C_member``) of one likelihood evaluation, at a
parameter or a stack; each caller evaluates its parameters once.  Screening
candidates in either set are points near its boundary along rays from the
anchor, from one search (``e_boundary_multi``) that costs at most two
likelihood passes, however many rays it has.  The inner revenue
maximization over E is NOT a concave problem; ``max_revenue_over_E`` is a
multi-start projected-ascent heuristic whose result is always a feasible
point, never an upper bound.  It projects each step onto Theta and refuses
a step that leaves E, so where E binds a start stops short of E's boundary
instead of sliding along it.

Under the fixed radius E often holds all of Theta.  When ``_E_holds_ball``
proves that, the ascent tests its candidates against the ball alone and
makes no likelihood pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choice import AssortmentContexts, finite_number, integer_at_least, revenue_gradient
from .estimation import History, MleResult, _Evaluation, _evaluate, _norm, fit_mle, matrix_V

__all__ = [
    "L_CONST",
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


# Upper bound L on the diagonal derivative mu(1 - mu) <= 1/4, used by the
# radius gamma and by the bonus baseline.
L_CONST = 0.25


def default_lambda(d: int, K: int, T: int) -> float:
    """Horizon-tuned ridge weight, held constant over a run."""
    return max(1.0, d * math.log(K * T))


@dataclass
class ConfidenceConfig:
    """Static quantities the radii depend on."""

    d: int
    K: int
    delta: float = 0.1
    lam: float = 1.0
    S: float = 1.0

    def __post_init__(self) -> None:
        integer_at_least("d", self.d, 1)
        integer_at_least("K", self.K, 1)
        if not 0.0 < finite_number("delta", self.delta) <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if finite_number("lam", self.lam) < 1.0:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if finite_number("S", self.S) <= 0.0:
            raise ValueError(f"S must be positive, got {self.S}")


def gamma_radius(cfg: ConfidenceConfig, t: int) -> float:
    """Radius of the norm-based set at round t >= 1, Faury et al.'s (ICML 2020)
    with K rows a round: sqrt(lam) (S + 1/2) + (2 / sqrt(lam)) ((d/2) log(1 +
    L K t / (d lam)) + log(1/delta)) + (2 d / sqrt(lam)) log 2."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    lam = cfg.lam
    rl = math.sqrt(lam)
    log_det = 0.5 * cfg.d * math.log1p(L_CONST * cfg.K * t / (cfg.d * lam))
    return rl * (cfg.S + 0.5) + (2.0 / rl) * (log_det - math.log(cfg.delta)) + (2.0 * cfg.d / rl) * math.log(2.0)


def beta_radius(gamma: float, lam: float) -> float:
    """Radius of the convex relaxation: gamma + gamma^2 / lambda."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    return gamma + gamma * gamma / lam


@dataclass
class ConfidenceState:
    """Per-round snapshot: MLE, radii, and the likelihood quantities at theta_hat.

    ``g_at_hat`` and ``H_hat`` read the fit's own evaluation at theta_hat
    (``mle.evaluation``, whose ``log_likelihood`` E's loss gap reads), each
    derived on first read, so they make no pass over the history and
    describe it as it was when the state was built.
    """

    theta_hat: np.ndarray
    gamma: float
    beta: float
    mle: MleResult
    anchor: np.ndarray  # feasible base point for projections: theta_hat pulled into Theta

    @property
    def g_at_hat(self) -> np.ndarray:
        return self.mle.evaluation.g

    @property
    def H_hat(self) -> np.ndarray:
        return self.mle.evaluation.H


def build_confidence_state(
    history: History,
    cfg: ConfidenceConfig,
    t: int,
    theta0: np.ndarray | MleResult | None = None,
) -> ConfidenceState:
    """Fit the MLE, warm-started at ``theta0``, and assemble the snapshot for round t.

    ``theta0`` may be the previous round's ``MleResult``; ``fit_mle`` then
    reuses its evaluation at theta_hat if the history has gained no row.
    """
    mle = fit_mle(history, cfg.lam, theta0=theta0)
    theta_hat = mle.theta_hat
    gamma = gamma_radius(cfg, t)
    beta = beta_radius(gamma, cfg.lam)
    anchor = theta_hat
    norm = _norm(theta_hat)
    if norm > cfg.S:
        # The ridge keeps theta_hat near Theta, but nothing forces it inside;
        # projections need a base point that is feasible.
        anchor = theta_hat * (cfg.S / norm)
    return ConfidenceState(theta_hat=theta_hat, gamma=gamma, beta=beta, mle=mle, anchor=anchor)


def _in_ball(sq_norm: np.ndarray, cfg: ConfidenceConfig) -> np.ndarray:
    """The ball test ||theta|| <= S on squared norms, with a relative slack of
    1e-12 so that a point projected onto the sphere passes."""
    return np.sqrt(sq_norm) <= cfg.S * (1.0 + 1e-12)


def _C_member(
    ev: _Evaluation, cfg: ConfidenceConfig, state: ConfidenceState
) -> tuple[np.ndarray, np.ndarray]:
    """Membership in C intersect Theta of the parameter or stack ``ev`` was made
    at, and each one's ||g(theta) - g(theta_hat)||^2 in the H(theta)^-1 norm.

    The evaluation gives g(theta) and H(theta); a single parameter takes one
    (d, d) Hessian and a plain solve.  ``ev`` may also be any object with
    the attributes read here (``g``, ``H``, ``sq_norm``), such as the run's
    running sums at theta_star over the rounds played.
    """
    dg = ev.g - state.g_at_hat
    quad = (dg * np.linalg.solve(ev.H, dg[..., None])[..., 0]).sum(axis=-1)
    return _in_ball(ev.sq_norm, cfg) & (quad <= state.gamma**2), quad


def in_set_C(
    theta: np.ndarray, history: History, cfg: ConfidenceConfig, state: ConfidenceState
) -> bool:
    """Membership in the norm-based set; False outside the parameter ball."""
    return bool(_C_member(_evaluate(history, theta, cfg.lam), cfg, state)[0])


def _E_member(
    ev: _Evaluation, cfg: ConfidenceConfig, state: ConfidenceState
) -> tuple[np.ndarray, np.ndarray]:
    """Membership in E intersect Theta of the parameter or stack ``ev`` was made
    at, and each one's loss gap loss(theta) - loss(theta_hat).

    The evaluation's log-likelihood gives the loss gap, and the squared
    norms of its ridge term serve the ball test ||theta|| <= S.  ``ev`` may
    also be any object with those two attributes (``log_likelihood``,
    ``sq_norm``), such as the run's running sums at theta_star over the
    rounds played.
    """
    gap = state.mle.evaluation.log_likelihood - ev.log_likelihood  # loss = -log_likelihood
    return _in_ball(ev.sq_norm, cfg) & (gap <= state.beta**2), gap


def in_set_E(
    theta: np.ndarray, history: History, cfg: ConfidenceConfig, state: ConfidenceState
) -> bool:
    """Membership in the convex log-loss sublevel set; False outside the parameter ball."""
    return bool(_E_member(_evaluate(history, theta, cfg.lam), cfg, state)[0])


def _E_holds_ball(history: History, cfg: ConfidenceConfig, state: ConfidenceState) -> bool:
    """A proof that every theta with ||theta|| <= S lies in E, or False.

    The loss's Hessian at any theta is sum_blocks n Cov_block(x) + lam I,
    and a block's covariance under its choice probabilities mu is at most
    sum_i mu_i x_i x_i^T <= sum_i x_i x_i^T, so the Hessian is at most V =
    ``matrix_V(history, lam)`` everywhere.  Taylor's theorem at theta_hat
    then bounds the loss gap at theta by ||score(theta_hat)|| ||theta -
    theta_hat|| + (1/2) lambda_max(V) ||theta - theta_hat||^2, and
    ||theta - theta_hat|| <= r = S + ||theta_hat|| on the ball.  The test
    holds when that bound is at most beta^2 less a margin of 1e-6 (beta^2 +
    |loss(theta_hat)|), which covers the rounding in a computed loss gap, so
    every candidate it certifies also passes ``_E_member``'s float test.
    """
    r = cfg.S + _norm(state.theta_hat)
    lam_max = float(np.linalg.eigvalsh(matrix_V(history, cfg.lam))[-1])
    level = state.beta**2
    margin = 1e-6 * (level + abs(float(state.mle.evaluation.log_likelihood)))
    return state.mle.score_norm * r + 0.5 * lam_max * r * r <= level - margin


_GRAD_TOL = 1e-3  # an ascent start stops once its projected gradient is shorter


def _ball_exit(base: np.ndarray, v: np.ndarray, S: float) -> np.ndarray:
    """Exact distance from ``base`` to the sphere ||theta|| = S along each unit row of ``v``."""
    b = v @ base
    c = float(base @ base) - S**2
    return np.maximum(-b + np.sqrt(np.maximum(b * b - c, 0.0)), 0.0)


def e_boundary_multi(
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    directions: np.ndarray,
    set_kind: str = "E",
) -> np.ndarray:
    """Feasible near-boundary points of E or C (``set_kind``), intersect
    Theta, along rays from the anchor.

    Along a ray, h(s) is E's loss gap - beta^2, convex, or C's squared
    H(theta)^-1 norm of g(theta) - g(theta_hat), less gamma^2.  A quadratic
    model of the loss at the MLE, with the Hessian of the fit's own
    evaluation there, gives E's radius guess s0 for either set (it brackets
    C, inside E, from outside), and one likelihood pass probes every ray at
    s0 and 1.3 s0 (capped at the ball), plus the anchor unless it is
    theta_hat, where h = -beta^2 or -gamma^2.  A ray whose probes both pass
    keeps the outer one; any other ray has an open bracket lo < hi, lo
    feasible and hi not.  Then, once any bracket is open, a second pass
    probes every ray where the chord from (lo, h(lo)) to (hi, h(hi))
    crosses zero.  The chord lies above a convex h, so for E that point is
    inside in exact arithmetic; it replaces lo only if the set's own test
    (``_E_member`` or ``_C_member``, on one evaluation of the pass's probes)
    confirms it, so every returned point passes the true feasibility test.
    A call costs one or two passes, and a closed bracket (lo == hi) is a
    fixed point of the chord step.  A zero direction returns the anchor.
    """
    # The member test is looked up per call, so a replaced module attribute is used.
    if set_kind == "E":
        member, level = _E_member, state.beta**2
    elif set_kind == "C":
        member, level = _C_member, state.gamma**2
    else:
        raise ValueError(f"unknown set kind {set_kind!r}")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.sqrt(np.add.reduce(dirs * dirs, axis=1))  # np.linalg.norm's arithmetic
    v = dirs / np.where(norms > 0.0, norms, 1.0)[:, None]  # a zero row stays zero
    base = state.anchor
    s_ball = _ball_exit(base, v, cfg.S)

    hess = state.mle.evaluation.nll_hessian
    quad = np.einsum("md,de,me->m", v, hess, v)
    s0 = np.minimum(np.sqrt(2.0 * state.beta**2 / np.maximum(quad, 1e-12)), s_ball)
    s1 = np.minimum(1.3 * s0, s_ball)
    # Both bracket probes in one pass; s1 matters only where s0 is feasible.
    probes = base + np.concatenate([s0, s1])[:, None] * np.vstack([v, v])
    at_hat = base is state.theta_hat or np.array_equal(base, state.theta_hat)
    if not at_hat:
        probes = np.vstack([probes, base])
    ok, value = member(_Evaluation(history, probes, cfg.lam), cfg, state)
    h = value - level
    m = len(v)
    f0, f1, h0, h1 = ok[:m], ok[m : 2 * m], h[:m], h[m : 2 * m]
    lo = np.where(f0, np.where(f1, s1, s0), 0.0)
    hi = np.where(f0, s1, s0)
    if (hi > lo).any():
        h_lo = np.where(f0, h0, -level if at_hat else h[-1])
        rise = np.where(f0, h1, h0) - h_lo
        frac = np.divide(-h_lo, rise, out=np.zeros_like(rise), where=rise > 0.0)
        s = lo + np.minimum(np.maximum(frac, 0.0), 1.0) * (hi - lo)
        ok, _ = member(_Evaluation(history, base + s[:, None] * v, cfg.lam), cfg, state)
        lo = np.where(ok, s, lo)
    return base + lo[:, None] * v


def _drop_outward(grads: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Each row of ``grads`` less its part along the matching row of ``normals``
    where that part points outward; a zero normal leaves its row as it is."""
    dot = np.einsum("md,md->m", grads, normals)
    sq = np.einsum("md,md->m", normals, normals)
    coef = np.where(dot > 0.0, dot / np.where(sq > 0.0, sq, 1.0), 0.0)
    return grads - coef[:, None] * normals


def max_revenue_over_E(
    assortment: AssortmentContexts,
    history: History,
    cfg: ConfidenceConfig,
    state: ConfidenceState,
    starts: np.ndarray,
    max_iter: int = 40,
) -> tuple[float, np.ndarray]:
    """Heuristic maximization of expected revenue over E intersect Theta.

    Multi-start projected ascent from the rows of ``starts``, feasible
    points the caller supplies (``cb_mnl_step`` passes the anchor, the
    first screening boundary points and the assortment's screening
    winner).  All starts advance together, but each keeps its own
    step.  A start's first step has length S, the ball's radius, along
    its revenue gradient (a zero gradient stops the start at once).  A
    step is projected onto Theta in closed form, and one likelihood pass
    tests every live start's candidate for membership in E, unless
    ``_E_holds_ball`` proves, once per call, that E holds all of Theta;
    then the candidates take the ball test alone, which gives
    ``_E_member``'s verdicts with no pass over the history.  A step is
    taken only if its candidate lies in E and gains more than 1e-6, and
    then the step size doubles; otherwise it halves, so a start that
    meets E's boundary creeps up to it with shorter steps.  A start stops
    when its projected gradient (on the sphere, less an outward radial
    part) is shorter than 1e-3, its step falls below 1e-4, or after
    ``max_iter`` steps.  The best start wins, the earliest among equals.
    The returned value is attained by the returned parameter, so it never
    overstates the optimum.
    """
    theta = np.atleast_2d(np.array(starts, dtype=float))  # a copy: rows move in place
    if theta.size == 0:
        raise ValueError("starts must hold at least one parameter")
    val, grad = revenue_gradient(assortment, theta)
    gnorm = np.linalg.norm(grad, axis=1)
    eta = cfg.S / np.where(gnorm > 0.0, gnorm, 1.0)
    live = np.ones(len(theta), dtype=bool)
    whole_ball = _E_holds_ball(history, cfg, state)
    for _ in range(max_iter):
        on_sphere = np.einsum("md,md->m", theta, theta) >= (cfg.S * (1.0 - 1e-9)) ** 2
        sphere = np.where(on_sphere[:, None], theta, 0.0)
        live &= np.linalg.norm(_drop_outward(grad, sphere), axis=1) >= _GRAD_TOL
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = theta[rows] + eta[rows, None] * grad[rows]
        norm = np.linalg.norm(cand, axis=1)
        out = norm > cfg.S
        cand[out] *= (cfg.S / norm[out])[:, None]
        cand_val, cand_grad = revenue_gradient(assortment, cand)
        if whole_ball:
            in_e = _in_ball(np.add.reduce(cand * cand, axis=-1), cfg)  # as _Evaluation.sq_norm
        else:
            in_e = _E_member(_Evaluation(history, cand, cfg.lam), cfg, state)[0]
        up = (cand_val > val[rows] + 1e-6) & in_e
        taken, kept = rows[up], rows[~up]
        theta[taken], val[taken], grad[taken] = cand[up], cand_val[up], cand_grad[up]
        eta[taken] *= 2.0
        eta[kept] *= 0.5
        live[kept] = eta[kept] >= 1e-4
    best = int(np.argmax(val))
    return float(val[best]), theta[best].copy()
