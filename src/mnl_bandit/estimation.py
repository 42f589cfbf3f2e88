"""Regularized maximum-likelihood estimation over assortment histories.

The history is count-compressed and keeps no per-round log; ``History.t``
counts the rounds appended.  Rounds whose offered context rows are bitwise
equal share one block, which keeps its rows once, the number of rounds n
it was offered in, and per row the number of purchases c it drew.
The penalized log-likelihood is the full multinomial one (each round
contributes the log-probability of its outcome, including the no-purchase
slot), so it is a count-weighted sum over stored rows and blocks,

    sum_rows c u - sum_blocks n log(1 + sum_{i in block} exp(u_i)),

with u = x . theta, minus a ridge term (lambda/2)||theta||^2.  One
max-shifted segment kernel gives every likelihood quantity its per-block
log-normalizers and per-row probabilities mu, so a pass costs the number of
distinct blocks, not the number of rounds.

One pass per parameter or stack of parameters: a private evaluation runs
the kernel once at a theta (d,) or at every row of a stack (m, d), and the
penalized log-likelihood, score, g, H and the Newton Hessian below are all
derived from that pass, each on first read, with the stack's leading axis.
The public functions are thin readers of a fresh single-parameter
evaluation.  ``fit_mle`` makes one pass per iterate, keeps the iterate as
that pass's arrays and applies the evaluation's own formulas to them,
forming only what its step reads: an iterate whose full step contracts the
score norm forms no log-likelihood and no squared norm.  It returns the
evaluation at theta_hat, assembled from its iterate with no pass, which
the confidence state, its whole-ball proof and the boundary search read
instead of passing over the history again.  The confidence
sets' membership kernels read a stacked evaluation of their probes.  An
evaluation is a snapshot: rounds appended after it was made do not change
what it reports.

The kernel's outputs (utilities, block shifts, exponentials, normalizers,
mu) depend on theta and the stored rows only, not on the counts.  A round
that repeats a stored block adds no row, so a fit warm-started from the
previous round's ``MleResult`` recounts that result's evaluation on the
current counts instead of passing over the history again at its theta_hat.

The stationarity condition

    sum_rows (c - n mu_i(theta)) x_i - lambda theta = 0,

with n the offer count of the row's block, is solved by ``fit_mle`` with
damped Newton iteration.

Design matrices:

    H(theta) = sum_rows n mu_i(1-mu_i) x x^T + lambda I   (curvature-weighted)
    V        = sum_rows n x x^T + lambda I                (unweighted)
    G(th1, th2) = sum_rows n alpha_i x x^T + lambda I

where alpha_i is the per-item difference quotient
(mu_i(u2) - mu_i(u1)) / (u2_i - u1_i), falling back to mu_i(1-mu_i) at u1
when the utility change is below 1e-10.  By construction G satisfies
g(th1) - g(th2) = G(th1, th2)(th1 - th2) exactly away from the fallback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs behind np.linalg.solve and eigvalsh

from .choice import AssortmentContexts

__all__ = [
    "History",
    "MleResult",
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
    evaluation: "_Evaluation" = field(repr=False)  # every likelihood quantity at theta_hat


class History:
    """Append-only record of (assortment, outcome) rounds, count-compressed.

    No round is kept as offered; ``t`` counts the rounds appended.  Rounds
    whose context arrays are bitwise equal (whatever their item indices)
    share one block: its rows are stored once (``ctx_flat``, with
    ``seg_ids`` and ``starts`` marking the blocks), with the number of
    rounds it was offered in (``offers``, per block) and the purchases each
    row drew (``purchases``, per row).  With fresh contexts every block is
    offered once.  Rounds with empty assortments count in ``t`` but
    contribute nothing to any estimate.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.t = 0
        self._blocks: dict[bytes, int] = {}
        self.ctx_flat = np.empty((0, self.dim))
        self.seg_ids = np.empty(0, dtype=np.int64)
        self.purchases = np.empty(0)
        self.starts = np.empty(0, dtype=np.int64)
        self.offers = np.empty(0)

    def append(self, assortment: AssortmentContexts, outcome: int) -> None:
        outcome = int(outcome)
        ctx = assortment.contexts
        k = len(assortment.indices)
        if not 0 <= outcome <= k:
            raise ValueError(f"outcome {outcome} outside 0..{k}")
        if k and ctx.shape[1] != self.dim:
            raise ValueError(
                f"dimension mismatch: history is d={self.dim}, assortment is d={ctx.shape[1]}"
            )
        self.t += 1
        if k == 0:
            return
        g = self._blocks.setdefault(ctx.tobytes(), self.n_blocks)
        if g == self.n_blocks:  # first offer of this block
            self.starts = np.concatenate((self.starts, (self.n_items,)))
            self.offers = np.concatenate((self.offers, (0.0,)))
            self.seg_ids = np.concatenate((self.seg_ids, (g,) * k))
            self.purchases = np.concatenate((self.purchases, np.zeros(k)))
            self.ctx_flat = np.concatenate((self.ctx_flat, ctx))
        # The counts are replaced, never written into, so an evaluation made
        # before this append keeps reading the arrays it was made from.
        self.offers = _incremented(self.offers, g)
        if outcome:
            self.purchases = _incremented(self.purchases, self.starts[g] + outcome - 1)

    @property
    def row_offers(self) -> np.ndarray:
        """Offer count of each stored row's block."""
        return self.offers[self.seg_ids]

    @property
    def n_items(self) -> int:
        """Stored context rows; a block offered many times counts once."""
        return self.ctx_flat.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.offers.shape[0]


def _incremented(counts: np.ndarray, i: int) -> np.ndarray:
    """A copy of ``counts`` with entry ``i`` one higher."""
    out = counts.copy()
    out[i] += 1.0
    return out


def _segment_exp(history: History, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segment kernel: per-block shift, shifted exponentials, normalizers.

    ``u`` holds one utility per stored row, or an (n, m) matrix with one
    column per parameter.  Each block is shifted by m = max(0, its largest
    utility), so ``exp(u - m)`` per row and ``total = exp(-m) + sum exp(u -
    m)`` per block stay finite for any utility float64 can hold; the block's
    log(1 + sum exp u) is ``m + log(total)`` and a row's probability is its
    exponential over its block's total.
    """
    starts = history.starts
    m = np.maximum(np.maximum.reduceat(u, starts, axis=0), 0.0)
    ez = np.exp(u - m[history.seg_ids])
    return m, ez, np.exp(-m) + np.add.reduceat(ez, starts, axis=0)


def _gram(ctx: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """sum_rows w x x^T + lam I, with each row's offer count already in ``w``.

    ``w`` holds one weight per stored row (n,), giving a (d, d) matrix, or
    one row of weights per parameter (m, n), giving (m, d, d).
    """
    gram = ctx.T @ (w[..., None] * ctx)
    diag = gram.diagonal(0, -2, -1)  # read-only as given; gram is fresh, so ours to write
    diag.setflags(write=True)
    diag += lam
    return gram


class _once:
    """A value computed on first read and then stored on the instance.

    ``functools.cached_property`` without the lock that Python 3.11 takes on
    every first read.  The value is written to the instance's ``__dict__``
    under the same name, which later reads find before this descriptor.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _kernel_pass(history: History, theta: np.ndarray) -> tuple:
    """One pass at ``theta`` (d,) or a stack (m, d): the utilities (n,) or (n,
    m) and ``_segment_exp``'s shifts, exponentials and normalizers."""
    u = history.ctx_flat @ theta.T  # one column per parameter
    return (u, *_segment_exp(history, u))


def _sq_norm(theta: np.ndarray) -> float | np.ndarray:
    """||theta||^2, () for one parameter or (m,) for a stack: the ridge's and
    the ball test's.  ``.sum`` wraps this same reduction."""
    return np.add.reduce(theta * theta, axis=-1)


# The likelihood formulas, each written once; ``_Evaluation`` derives its
# quantities from them and ``fit_mle`` its iterates'.
def _log_likelihood(purchases, offers, u, m, total, lam, sq_norm):
    """Log-probability of the observed outcomes minus (lam/2)||theta||^2."""
    ll = purchases @ u - offers @ (m + np.log(total))
    return ll - 0.5 * lam * sq_norm


def _mu(ez: np.ndarray, total: np.ndarray, seg_ids: np.ndarray) -> np.ndarray:
    """Softmax probability of every stored row, (n,) or (n, m)."""
    return ez / total[seg_ids]


def _n_mu(row_offers: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """n mu per row, n the offer count of the row's block: (n,) or (m, n)."""
    return row_offers * mu.T


def _score(ctx, purchases, n_mu, lam, theta):
    """sum_rows (c - n mu) x - lam theta."""
    return (purchases - n_mu) @ ctx - lam * theta


def _newton_hessian(ctx, starts, offers, mu, n_mu, ridge):
    """Per block, n (sum_i mu_i x_i x_i^T - m m^T) with m = sum_i mu_i x_i, plus
    ``ridge``, the (d, d) matrix lam I.  Adding it gives the bits ``_gram``'s
    diagonal add would."""
    seg_means = np.add.reduceat(mu[:, None] * ctx, starts, axis=0)
    return ctx.T @ (n_mu[:, None] * ctx) + ridge - seg_means.T @ (offers[:, None] * seg_means)


class _Evaluation:
    """Every likelihood quantity at one parameter or a stack, from one kernel pass.

    ``theta`` is one parameter (d,) or a stack (m, d); every quantity keeps
    its leading axis: the penalized log-likelihood is () or (m,), the score
    and g are (d,) or (m, d), and H is (d, d) or (m, d, d).  The Newton
    Hessian is read for one parameter only.  All are read off one
    ``_kernel_pass``; each is derived on first read and kept.  ``kernel``,
    that pass's outputs at ``theta`` on the history's rows, is taken instead
    of a pass when given.  The evaluation is a snapshot of the history it
    was made from: it keeps the history's arrays, which ``History.append``
    replaces and never writes into.  ``theta`` must already be float of the
    history's dimension (``_evaluate`` checks a single parameter).
    """

    def __init__(self, history: History, theta: np.ndarray, lam: float, kernel: tuple = ()):
        self.theta = theta
        self.lam = lam
        self.ctx, self.seg_ids, self.starts = history.ctx_flat, history.seg_ids, history.starts
        self.offers, self.purchases = history.offers, history.purchases
        kernel = kernel or _kernel_pass(history, theta)
        self.u, self._m, self._ez, self._total = kernel

    def recounted(self, history: History, lam: float) -> "_Evaluation":
        """The evaluation at this theta on the history's current counts.

        If the history still holds the rows this evaluation was made from
        (``History.append`` replaces ``ctx_flat`` only when a block arrives),
        the kernel's outputs, mu and, at the same lam, the ridge lam I are
        kept and every count-dependent quantity is derived afresh, with no
        pass over the history; otherwise theta is evaluated anew.  A fit's
        warm start, its one user, is carried from round to round this way.
        """
        if self.ctx is not history.ctx_flat:
            return _evaluate(history, self.theta, lam)
        kernel = (self.u, self._m, self._ez, self._total)
        ev = _Evaluation(history, self.theta, lam, kernel)
        ev.mu = self.mu
        if lam == self.lam:
            ev.ridge = self.ridge
        return ev

    @_once
    def sq_norm(self) -> float | np.ndarray:
        """||theta||^2, () or (m,)."""
        return _sq_norm(self.theta)

    @_once
    def log_likelihood(self) -> float | np.ndarray:
        """Log-probability of the observed outcomes minus (lam/2)||theta||^2."""
        return _log_likelihood(
            self.purchases, self.offers, self.u, self._m, self._total, self.lam, self.sq_norm
        )

    @_once
    def mu(self) -> np.ndarray:
        """Softmax probability of every stored row, (n,) or (n, m)."""
        return _mu(self._ez, self._total, self.seg_ids)

    @_once
    def row_offers(self) -> np.ndarray:
        """Offer count of each stored row's block."""
        return self.offers[self.seg_ids]

    @_once
    def n_mu(self) -> np.ndarray:
        """n mu per row, (n,) or (m, n)."""
        return _n_mu(self.row_offers, self.mu)

    @_once
    def score(self) -> np.ndarray:
        return _score(self.ctx, self.purchases, self.n_mu, self.lam, self.theta)

    @_once
    def g(self) -> np.ndarray:
        return self.n_mu @ self.ctx + self.lam * self.theta

    @_once
    def H(self) -> np.ndarray:
        mu = self.mu.T
        return _gram(self.ctx, self.row_offers * (mu * (1.0 - mu)), self.lam)

    @_once
    def ridge(self) -> np.ndarray:
        """lam I, (d, d): read-only, since recounted evaluations share it."""
        ridge = self.lam * np.eye(self.ctx.shape[1])
        ridge.flags.writeable = False
        return ridge

    @_once
    def nll_hessian(self) -> np.ndarray:
        return _newton_hessian(self.ctx, self.starts, self.offers, self.mu, self.n_mu, self.ridge)


def _evaluate(history: History, theta: np.ndarray, lam: float) -> _Evaluation:
    """The evaluation at ``theta``, once it is checked to be a vector of the history's dimension."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != history.dim:
        raise ValueError(
            f"dimension mismatch: history is d={history.dim}, theta is d={theta.shape[0]}"
        )
    return _Evaluation(history, theta, lam)


def penalized_log_likelihood(history: History, theta: np.ndarray, lam: float) -> float:
    """Log-probability of the observed outcomes minus (lam/2)||theta||^2."""
    return float(_evaluate(history, theta, lam).log_likelihood)


def score(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the penalized log-likelihood; zero exactly at the MLE."""
    return _evaluate(history, theta, lam).score


def g_vector(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """sum_s sum_i mu_i(X_s theta) x_si + lam theta."""
    return _evaluate(history, theta, lam).g


def matrix_H(history: History, theta: np.ndarray, lam: float) -> np.ndarray:
    """Curvature-weighted design matrix sum mu(1-mu) x x^T + lam I."""
    return _evaluate(history, theta, lam).H


def matrix_V(history: History, lam: float) -> np.ndarray:
    """Unweighted design matrix sum x x^T + lam I, over every offered row."""
    return _gram(history.ctx_flat, history.row_offers, lam)


def matrix_G(
    history: History, theta1: np.ndarray, theta2: np.ndarray, lam: float
) -> np.ndarray:
    """Difference-quotient design matrix linking g(th1) - g(th2)."""
    at1, at2 = _evaluate(history, theta1, lam), _evaluate(history, theta2, lam)
    mu1, mu2 = at1.mu, at2.mu
    den = at2.u - at1.u
    small = np.abs(den) < _ALPHA_FALLBACK_TOL
    alpha = np.where(small, mu1 * (1.0 - mu1), (mu2 - mu1) / np.where(small, 1.0, den))
    return _gram(history.ctx_flat, history.row_offers * alpha, lam)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector, as ``np.linalg.norm`` gives it, minus its dispatch."""
    return math.sqrt(v @ v)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a float matrix, as ``np.linalg.norm(x,
    axis=1)`` gives it (the same arithmetic), minus its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for float64 arrays, from the LAPACK gufunc it
    calls and with its bits, minus its checks, coercion and error state.

    ``b`` is one right-hand side (a vector, ``solve1``) or a matrix of them
    (``solve``), either under any stack axes ``a`` has, as ``np.linalg.solve``
    decides.  Every caller passes lam I plus a sum of PSD terms, with lam >=
    1, so ``a`` is positive definite and the solve is regular.  A singular
    ``a`` gives NaN and a ``RuntimeWarning`` (invalid value), not
    ``LinAlgError``; the test suite turns that warning into an error.
    """
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(a, b)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` for a float64 array, ascending, from its LAPACK
    gufunc and with its bits; ``a`` is lam I plus a PSD sum, as for ``_solve``."""
    return _umath_linalg.eigvalsh_lo(a)


def fit_mle(
    history: History,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 100,
    theta0: np.ndarray | MleResult | None = None,
) -> MleResult:
    """Damped Newton ascent on the strictly concave penalized log-likelihood.

    Converged means the score norm is at most ``tol``; otherwise the best
    iterate found is returned with ``converged=False`` and the caller
    decides what to do with it.  Each iterate takes one kernel pass and is
    kept as that pass's arrays, from which the likelihood formulas give its
    score and Newton Hessian; its log-likelihood, with the squared norm the
    ridge reads, and the step's Armijo slope are formed only when the line
    search reads them.  The rows' offer counts are gathered once per fit, and
    the ridge lam I is the start evaluation's.  The result carries the
    evaluation at theta_hat, assembled from its iterate's arrays with no
    further pass.  ``theta0`` is a start parameter or a previous fit's
    result, whose theta_hat is the start; if the history has gained no row
    since that fit, its evaluation is recounted on the current counts (its
    ridge kept) rather than made again.  A full step that brings the score
    norm to at most 0.9 times its last value is taken without reading a
    log-likelihood, so a fit whose steps all contract forms none.
    """
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1 for a well-posed fit, got {lam}")
    if isinstance(theta0, MleResult):
        ev = theta0.evaluation.recounted(history, lam)
    else:
        theta = np.zeros(history.dim) if theta0 is None else np.array(theta0, dtype=float)
        ev = _evaluate(history, theta, lam)
    ctx, seg_ids, starts = ev.ctx, ev.seg_ids, ev.starts
    offers, purchases, n_row = ev.offers, ev.purchases, ev.row_offers
    # The Newton Hessian is a sum of PSD block terms plus lam I with lam >=
    # 1, so it is positive definite and the solve is regular.
    ridge = ev.ridge
    theta, kernel = ev.theta, (ev.u, ev._m, ev._ez, ev._total)
    mu, n_mu, s = ev.mu, ev.n_mu, ev.score
    s_norm = _norm(s)
    ll = None  # the iterate's log-likelihood, once the line search reads it
    steps = 0
    while s_norm > tol and steps < max_iter:
        step = _solve(_newton_hessian(ctx, starts, offers, mu, n_mu, ridge), s)
        slope = None  # s . step, once the line search reads it
        a = 1.0
        while a >= 1e-12:
            cand = theta + step if a == 1.0 else theta + a * step  # 1.0 * step is step
            c_kernel = c_u, c_m, c_ez, c_total = _kernel_pass(history, cand)
            c_mu = _mu(c_ez, c_total, seg_ids)
            c_n_mu = _n_mu(n_row, c_mu)
            c_s = _score(ctx, purchases, c_n_mu, lam, cand)
            c_norm = _norm(c_s)
            # Near the optimum the objective improvement drowns in rounding;
            # a contracting score norm is still progress.
            contracts = a == 1.0 and c_norm <= 0.9 * s_norm
            if contracts:
                break
            if ll is None:
                u, m, _, total = kernel
                ll = _log_likelihood(purchases, offers, u, m, total, lam, _sq_norm(theta))
            if slope is None:
                slope = float(s @ step)
            c_ll = _log_likelihood(purchases, offers, c_u, c_m, c_total, lam, _sq_norm(cand))
            if c_ll >= ll + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            break  # line search hit the numerical floor
        theta, kernel, mu, n_mu, s, s_norm = cand, c_kernel, c_mu, c_n_mu, c_s, c_norm
        ll = None if contracts else c_ll
        steps += 1
    if steps:  # theta_hat's evaluation, from its iterate's arrays
        ev = _Evaluation(history, theta, lam, kernel)
        ev.mu, ev.row_offers, ev.n_mu, ev.score, ev.ridge = mu, n_row, n_mu, s, ridge
    if ll is not None:
        ev.log_likelihood = ll
    return MleResult(theta, s_norm, steps, s_norm <= tol, ev)
