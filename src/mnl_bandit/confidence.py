"""Confidence radii and sets around the regularized MLE.

Two sets are maintained over the parameter ball Theta = {||theta|| <= S}:

* the norm-based set  C = {theta : ||g(theta) - g(theta_hat)||_{H(theta)^-1} <= gamma},
  which is not convex because the metric moves with the candidate;
* its convex relaxation E = {theta : loss(theta) - loss(theta_hat) <= beta^2},
  a sublevel set of the convex penalized log-loss
  (loss = negative penalized log-likelihood), with beta = gamma + gamma^2/lambda.

E contains C, so any coverage guarantee for C transfers to E, and E is the
set the decision step optimizes over by default.  Every set test, proof,
search and policy step takes a round's snapshot (``ConfidenceState``) and
nothing beside it: S, lam and K come from its config and the rows from its
fit's evaluation, so a candidate and theta_hat are compared on one history.
Membership is one test per set (``_E_member``, ``_C_member``) of one
likelihood evaluation, at a parameter or a stack; each caller evaluates
its parameters once.  Screening candidates in either set are points near
its boundary along rays from the anchor, from one search
(``e_boundary_multi``) that costs at most two likelihood passes, however
many rays it has, and for E none where a proof shows its probes inside.
The inner revenue maximization over E is NOT a concave problem;
``max_revenue_over_E`` is a multi-start projected-ascent heuristic whose
result is always a feasible point, never an upper bound.  It projects
each step onto Theta and refuses a step that leaves E, so where E binds a
start stops short of E's boundary instead of sliding along it.

Under the fixed radius E often holds all of Theta.  Each state carries a
proof of that from theta_hat's own evaluation (``ConfidenceState.ball_in_E``,
by the loss's generalized self-concordance), made on first read with no
pass; where it holds, the boundary search returns its outer probes and the
ascent's candidates, projected onto Theta, need no test at all.

A parameter's own score can prove it inside E without theta_hat's
log-likelihood (``_E_proved``): the penalized log-likelihood is
lam-strongly concave, so the loss gap at theta is at most
||score(theta)||^2 / (2 lam).  A run tries it on theta_star's running score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choice import _NORM_TOL, AssortmentContexts, finite_number, integer_at_least, revenue_gradient
from .estimation import (
    History,
    MleResult,
    _eigvalsh,
    _Evaluation,
    _evaluate,
    _norm,
    _once,
    _row_norms,
    _solve,
    _sq_norm,
    fit_mle,
)

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

_EXP_MAX = 700.0  # below the log of float64's largest number, about 709.8


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
    """Per-round snapshot: MLE, radii, the likelihood quantities at theta_hat
    and ``cfg``, the config it was built from, whose S, lam and K every
    reader of the state uses.  ``g_at_hat`` and ``H_hat`` read the fit's own
    evaluation at theta_hat (``mle.evaluation``, whose ``log_likelihood``
    E's loss gap reads and whose ``rows`` every candidate is evaluated on),
    and ``anchor`` and ``ball_in_E`` read it and ``cfg.S``; each is derived
    on first read with no pass, all as of the state's build.
    """

    theta_hat: np.ndarray
    gamma: float
    beta: float
    mle: MleResult
    cfg: ConfidenceConfig

    @property
    def g_at_hat(self) -> np.ndarray:
        return self.mle.evaluation.g

    @property
    def H_hat(self) -> np.ndarray:
        return self.mle.evaluation.H

    @_once
    def anchor(self) -> np.ndarray:
        """Feasible base point for projections: theta_hat pulled into Theta."""
        norm, S = _norm(self.theta_hat), self.cfg.S
        if norm > S:
            # The ridge keeps theta_hat near Theta, but nothing forces it
            # inside; projections need a base point that is feasible.
            return self.theta_hat * (S / norm)
        return self.theta_hat

    @_once
    def ball_in_E(self) -> bool:
        """A proof that every theta with ||theta|| <= S lies in E, or False,
        from theta_hat's own evaluation with no pass over the history.

        Along D = theta - theta_hat a block's log-partition phi has
        |phi^(3)| <= R phi'', R the range of the utility changes x . D with
        the no-purchase option at 0, since a third central moment is at most
        the range times the variance.  With ||x|| <= 1 + ``choice._NORM_TOL``
        and ||D|| <= r = S + ||theta_hat|| on the ball, R <= z = 2 r (1 +
        ``_NORM_TOL``), so the data part of the loss Hessian grows at most by
        e^{z s} along the segment: the generalized self-concordance of
        logistic-type losses (Bach 2010; Faury et al., ICML 2020).  Taylor's
        theorem at theta_hat then bounds the loss gap by ||score|| r +
        (lambda_max(``nll_hessian``) - lam) psi(z) r^2 + lam r^2 / 2, with
        psi(z) = (e^z - 1 - z) / z^2.  The proof holds when that is at most
        beta^2 less ``_gap_margin``, which covers the rounding in a computed
        loss gap, so every point of the ball passes ``_E_member``'s float
        test.
        """
        ev = self.mle.evaluation
        r = self.cfg.S + _norm(self.theta_hat)
        curv = float(_eigvalsh(ev.nll_hessian)[-1]) - ev.lam  # the data part's largest curvature
        bound = self.mle.score_norm * r + 0.5 * ev.lam * r * r
        if curv > 0.0:
            z = 2.0 * r * (1.0 + _NORM_TOL)
            if z > _EXP_MAX:
                return False  # e^z overflows: no data curvature leaves a proof
            bound += curv * (math.expm1(z) - z) / (z * z) * r * r
        return bound <= self.beta**2 - _gap_margin(self)


def _gap_margin(state: ConfidenceState, log_likelihood: float | None = None) -> float:
    """1e-6 (beta^2 + |loss(theta_hat)|): an allowance for the rounding in a
    computed loss gap, by which a proof's bound must clear E's level.

    ``log_likelihood``, if given, stands in for theta_hat's, so that a
    caller that has not formed theta_hat's can use a larger one instead;
    a stack of them gives one margin each.
    """
    if log_likelihood is None:
        log_likelihood = float(state.mle.evaluation.log_likelihood)
    return 1e-6 * (state.beta**2 + abs(log_likelihood))


def build_confidence_state(
    history: History,
    cfg: ConfidenceConfig,
    t: int,
    theta0: np.ndarray | MleResult | None = None,
) -> ConfidenceState:
    """Fit the MLE, warm-started at ``theta0``, and assemble the snapshot for round t.

    ``theta0`` may be the previous round's ``MleResult``; ``fit_mle`` then
    reuses its evaluation at theta_hat if the history has gained no row.
    ``cfg.d`` sizes the radius and the search directions: it must be the history's.
    """
    if cfg.d != history.dim:
        raise ValueError(f"dimension mismatch: history is d={history.dim}, config is d={cfg.d}")
    mle = fit_mle(history, cfg.lam, theta0=theta0)
    gamma = gamma_radius(cfg, t)
    return ConfidenceState(mle.theta_hat, gamma, beta_radius(gamma, cfg.lam), mle, cfg)


def _in_ball(sq_norm: np.ndarray, S: float) -> np.ndarray:
    """The ball test ||theta|| <= S on squared norms, with a relative slack of
    1e-12 so that a point projected onto the sphere passes."""
    return np.sqrt(sq_norm) <= S * (1.0 + 1e-12)


def _C_member(ev: _Evaluation, state: ConfidenceState) -> tuple[np.ndarray, np.ndarray]:
    """Membership in C intersect Theta of the parameter or stack ``ev`` was made
    at, and each one's ||g(theta) - g(theta_hat)||^2 in the H(theta)^-1 norm.

    The evaluation gives g(theta) and H(theta); a single parameter takes one
    (d, d) Hessian and a plain solve.  ``ev`` may be any object with ``g``,
    ``H`` and ``sq_norm``, as ``harness._StarSums`` is.
    """
    dg = ev.g - state.g_at_hat
    quad = (dg * _solve(ev.H, dg[..., None])[..., 0]).sum(axis=-1)
    return _in_ball(ev.sq_norm, state.cfg.S) & (quad <= state.gamma**2), quad


def in_set_C(theta: np.ndarray, state: ConfidenceState) -> bool:
    """Membership in the norm-based set of ``state``; False outside the parameter ball."""
    return bool(_C_member(_evaluate(state.mle.evaluation.rows, theta, state.cfg.lam), state)[0])


def _E_member(ev: _Evaluation, state: ConfidenceState) -> tuple[np.ndarray, np.ndarray]:
    """Membership in E intersect Theta of the parameter or stack ``ev`` was made
    at, and each one's loss gap loss(theta) - loss(theta_hat).

    The evaluation's log-likelihood gives the loss gap, and the squared
    norms of its ridge term serve the ball test ||theta|| <= S.  ``ev`` may
    be any object with those two attributes, as ``harness._StarSums`` is.
    """
    gap = state.mle.evaluation.log_likelihood - ev.log_likelihood  # loss = -log_likelihood
    return _in_ball(ev.sq_norm, state.cfg.S) & (gap <= state.beta**2), gap


def _E_proved(ev, state: ConfidenceState) -> np.ndarray:
    """For the parameter or each row of the stack ``ev`` was made at, a proof
    from its own score that its loss gap is within E's level, or False; the
    ball test is the caller's.

    The penalized log-likelihood LL is lam-strongly concave, so at any theta
    LL(theta') <= LL(theta) + score . (theta' - theta) - (lam/2)||theta' -
    theta||^2 <= LL(theta) + ||score||^2 / (2 lam) for every theta', theta_hat
    included: the loss gap is at most ||score(theta)||^2 / (2 lam), whether
    or not the fit converged.  The proof holds when that is at most beta^2
    less ``_gap_margin`` with |LL(theta)| in place of |LL(theta_hat)|.
    Where the gap is positive that margin is the larger, since every LL is
    at most 0 and there LL(theta_hat) > LL(theta); where it is not, the
    float test clears beta^2 by more than its rounding.  So where the proof
    holds the parameter passes ``_E_member``'s float test, and theta_hat's
    LL is never formed.  ``ev`` is any object with ``score`` and
    ``log_likelihood``, as ``harness._StarSums`` is.
    """
    bound = _sq_norm(ev.score) / (2.0 * state.cfg.lam)
    return bound <= state.beta**2 - _gap_margin(state, ev.log_likelihood)


def in_set_E(theta: np.ndarray, state: ConfidenceState) -> bool:
    """Membership in the convex set E of ``state``; False outside the parameter ball."""
    return bool(_E_member(_evaluate(state.mle.evaluation.rows, theta, state.cfg.lam), state)[0])


_GRAD_TOL = 1e-3  # an ascent start stops once its projected gradient is shorter


def _ball_exit(base: np.ndarray, v: np.ndarray, S: float) -> np.ndarray:
    """Exact distance from ``base`` to the sphere ||theta|| = S along each unit row of ``v``."""
    b = v @ base
    c = float(base @ base) - S**2
    return np.maximum(-b + np.sqrt(np.maximum(b * b - c, 0.0)), 0.0)


def e_boundary_multi(state: ConfidenceState, directions: np.ndarray, set_kind: str = "E") -> np.ndarray:
    """Feasible near-boundary points of E or C (``set_kind``), intersect
    Theta, along rays from the anchor.

    Along a ray, h(s) is E's loss gap - beta^2, convex, or C's squared
    H(theta)^-1 norm of g(theta) - g(theta_hat), less gamma^2.  A quadratic
    model of the loss at the MLE, with the Hessian of the fit's own
    evaluation there, gives E's radius guess s0 for either set (it brackets
    C, inside E, from outside), and each ray is probed at s0 and 1.3 s0
    (capped at the ball).  Where ``ConfidenceState.ball_in_E`` proves that E
    holds the ball, every probe of E is inside and the outer ones are
    returned with no pass.  Otherwise one likelihood pass tests every probe,
    plus the anchor unless it is theta_hat, where h = -beta^2 or -gamma^2;
    if every probe passes, the outer ones are returned.  A ray whose probes
    both pass keeps the outer one; any other ray has an open bracket lo <
    hi, lo feasible and hi not.  Then the chord from (lo, h(lo)) to (hi,
    h(hi)) crosses zero at a point s of each ray.  The chord lies above a
    convex h, so for E that point is inside in exact arithmetic; it
    replaces lo only if the set's own test (``_E_member`` or ``_C_member``,
    on one evaluation of every ray's chord point) confirms it, so every
    returned point passes the true feasibility test.  For E that second pass
    is skipped where it is proved: the loss is lam-strongly convex, so
    along a unit ray h(s) <= chord(s) - (lam/2)(s - lo)(hi - s), and where
    that bound clears ``_gap_margin`` at every ray's chord point each one
    is inside.  A call costs at most two passes, none where proved, and a
    closed bracket (lo == hi) is a fixed point of the chord step.  A zero
    direction returns the anchor.
    """
    # The member test is looked up per call, so a replaced module attribute is used.
    if set_kind == "E":
        member, level = _E_member, state.beta**2
    elif set_kind == "C":
        member, level = _C_member, state.gamma**2
    else:
        raise ValueError(f"unknown set kind {set_kind!r}")
    dirs = np.asarray(directions, dtype=float)
    dirs = dirs.reshape(-1, dirs.shape[-1])  # one direction is one row
    norms = _row_norms(dirs)
    v = dirs / np.where(norms > 0.0, norms, 1.0)[:, None]  # a zero row stays zero
    base, lam = state.anchor, state.cfg.lam
    s_ball = _ball_exit(base, v, state.cfg.S)

    hess = state.mle.evaluation.nll_hessian
    quad = np.einsum("md,de,me->m", v, hess, v)
    s0 = np.minimum(np.sqrt(2.0 * state.beta**2 / np.maximum(quad, 1e-12)), s_ball)
    s1 = np.minimum(1.3 * s0, s_ball)
    if set_kind == "E" and state.ball_in_E:
        return base + s1[:, None] * v  # the outer probes, as the pass below gives them
    # Both bracket probes in one pass; s1 matters only where s0 is feasible.
    probes = base + np.concatenate((s0, s1))[:, None] * np.concatenate((v, v))
    at_hat = base is state.theta_hat or np.array_equal(base, state.theta_hat)
    if not at_hat:
        probes = np.concatenate((probes, base[None]))
    ok, value = member(_Evaluation(state.mle.evaluation.rows, probes, lam), state)
    m = len(v)
    if ok[: 2 * m].all():
        return probes[m : 2 * m]
    h = value - level
    f0, f1, h0, h1 = ok[:m], ok[m : 2 * m], h[:m], h[m : 2 * m]
    lo = np.where(f0, np.where(f1, s1, s0), 0.0)
    hi = np.where(f0, s1, s0)
    if (hi > lo).any():
        h_lo = np.where(f0, h0, -level if at_hat else h[-1])
        s = _chord_zero(lo, hi, h_lo, np.where(f0, h1, h0))
        if set_kind == "E" and _chord_proved(lo, hi, s, lam, _gap_margin(state)).all():
            return base + s[:, None] * v
        ok, _ = member(_Evaluation(state.mle.evaluation.rows, base + s[:, None] * v, lam), state)
        lo = np.where(ok, s, lo)
    return base + lo[:, None] * v


def _chord_zero(lo: np.ndarray, hi: np.ndarray, h_lo: np.ndarray, h_hi: np.ndarray) -> np.ndarray:
    """Where the chord from (lo, h_lo) to (hi, h_hi) crosses zero on each
    ray, clamped to [lo, hi]; lo where the chord does not rise."""
    rise = h_hi - h_lo
    frac = np.divide(-h_lo, rise, out=np.zeros(len(lo)), where=rise > 0.0)
    return lo + np.minimum(np.maximum(frac, 0.0), 1.0) * (hi - lo)


def _chord_proved(
    lo: np.ndarray, hi: np.ndarray, s: np.ndarray, lam: float, margin: float
) -> np.ndarray:
    """Per ray, whether lam-strong convexity proves its chord point ``s`` inside E.

    On a unit ray h(s) <= chord(s) - (lam/2)(s - lo)(hi - s), and the
    chord is 0 at ``s``, so h(s) < -``margin`` wherever (lam/2)(s - lo)(hi
    - s) exceeds the margin; a closed bracket's point is lo, feasible
    already.
    """
    return (hi <= lo) | (0.5 * lam * (s - lo) * (hi - s) > margin)


def _drop_outward(grads: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Each row of ``grads`` less its part along the matching row of ``normals``
    where that part points outward; a zero normal leaves its row as it is."""
    dot = np.einsum("md,md->m", grads, normals)
    sq = np.einsum("md,md->m", normals, normals)
    coef = np.where(dot > 0.0, dot / np.where(sq > 0.0, sq, 1.0), 0.0)
    return grads - coef[:, None] * normals


def max_revenue_over_E(
    assortment: AssortmentContexts,
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
    ``ConfidenceState.ball_in_E`` proves that E holds all of Theta; then
    every projected candidate is in E and none is tested.  A step is
    taken only if its candidate lies in E and gains more than 1e-6, and
    then the step size doubles; otherwise it halves, so a start that
    meets E's boundary creeps up to it with shorter steps.  A start stops
    when its projected gradient (on the sphere, less an outward radial
    part) is shorter than 1e-3, its step falls below 1e-4, or after
    ``max_iter`` steps.  The best start wins, the earliest among equals.
    The returned value is attained by the returned parameter, so it never
    overstates the optimum.
    """
    theta = np.array(starts, dtype=float)  # a copy: rows move in place
    if theta.size == 0:
        raise ValueError("starts must hold at least one parameter")
    theta = theta.reshape(-1, theta.shape[-1])  # one start is one row
    S, lam = state.cfg.S, state.cfg.lam
    val, grad = revenue_gradient(assortment, theta)
    gnorm = _row_norms(grad)
    eta = S / np.where(gnorm > 0.0, gnorm, 1.0)
    live = np.ones(len(theta), dtype=bool)
    for _ in range(max_iter):
        on_sphere = np.einsum("md,md->m", theta, theta) >= (S * (1.0 - 1e-9)) ** 2
        sphere = np.where(on_sphere[:, None], theta, 0.0)
        live &= _row_norms(_drop_outward(grad, sphere)) >= _GRAD_TOL
        rows = live.nonzero()[0]
        if rows.size == 0:
            break
        cand = theta[rows] + eta[rows, None] * grad[rows]
        norm = _row_norms(cand)
        out = norm > S
        cand[out] *= (S / norm[out])[:, None]
        cand_val, cand_grad = revenue_gradient(assortment, cand)
        up = cand_val > val[rows] + 1e-6
        if not state.ball_in_E:
            up &= _E_member(_Evaluation(state.mle.evaluation.rows, cand, lam), state)[0]
        taken, kept = rows[up], rows[~up]
        theta[taken], val[taken], grad[taken] = cand[up], cand_val[up], cand_grad[up]
        eta[taken] *= 2.0
        eta[kept] *= 0.5
        live[kept] = eta[kept] >= 1e-4
    best = int(np.argmax(val))
    return float(val[best]), theta[best].copy()
