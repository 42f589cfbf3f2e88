"""Multinomial-logit choice model: probabilities, revenue, derivatives, sampling.

An assortment is an ordered set of items, each described by an attribute
vector x_i with ||x_i||_2 <= 1.  Utilities are linear, u_i = x_i . theta,
and a consumer buys at most one item.  The no-purchase option has utility
zero and is outcome index 0 everywhere; item outcomes are 1-based positions
within the assortment.

All probability computations go through one kernel, ``_shifted_exp``,
which shifts by max(0, the largest utility) before exponentiating, so
chained evaluations stay finite for any |x . theta| representable in float64.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AssortmentContexts",
    "ChoiceDistribution",
    "choice_probabilities",
    "expected_revenue",
    "revenue_gradient",
    "diag_derivative",
    "diag_second_derivative",
    "sample_choice",
]

_NORM_TOL = 1e-9


def finite_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def integer_at_least(name: str, value, least: int) -> int:
    """``value``; ValueError naming ``name`` unless it is an int >= ``least``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _assemble(cls, **values):
    """A ``cls`` holding ``values``, already converted and checked, without ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _check_assortment(indices: tuple[int, ...], ctx: np.ndarray, prices: np.ndarray) -> None:
    """The checks every assortment passes, on fields already converted.

    One context row and one price per index, distinct indices, row norms
    at most 1 (up to ``_NORM_TOL``) and no negative price.
    """
    k = len(indices)
    if ctx.shape[0] != k or prices.shape[0] != k:
        raise ValueError(
            f"inconsistent assortment: {k} indices, {ctx.shape[0]} context rows, "
            f"{prices.shape[0]} prices"
        )
    if len(set(indices)) != k:
        raise ValueError(f"duplicate item indices in assortment {indices}")
    if not k:
        return
    # sqrt is monotone, so the largest norm is the root of the largest square.
    if math.sqrt(np.maximum.reduce(np.add.reduce(ctx * ctx, axis=1))) > 1.0 + _NORM_TOL:
        raise ValueError("context norm exceeds 1")
    if np.minimum.reduce(prices) < 0.0:
        raise ValueError("negative price")


@dataclass(frozen=True)
class AssortmentContexts:
    """Items offered in one round: original indices, attribute rows, prices.

    ``contexts`` has one row per item; ``prices`` defaults to 1 for every
    item.  Indices must be distinct and every row must have Euclidean norm
    at most 1.  Both ways to build one, the constructor and ``from_pool``,
    run the same ``_check_assortment``.
    """

    indices: tuple[int, ...]
    contexts: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ctx = np.atleast_2d(np.asarray(self.contexts, dtype=float))
        if len(self.indices) == 0:
            ctx = ctx.reshape(0, ctx.shape[-1])
        prices = np.asarray(self.prices, dtype=float).reshape(-1)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "contexts", ctx)
        object.__setattr__(self, "prices", prices)
        _check_assortment(self.indices, ctx, prices)

    @classmethod
    def from_pool(
        cls,
        pool: np.ndarray,
        indices: tuple[int, ...],
        prices: np.ndarray | None = None,
    ) -> "AssortmentContexts":
        """Build an assortment by picking rows of an (N, d) context pool.

        Picking converts the rows and prices once; they are then checked,
        not converted again.  An index outside the pool raises IndexError.
        """
        idx = tuple(map(int, indices))
        ctx = np.asarray(pool, dtype=float).take(idx, axis=0)
        pr = np.ones(len(idx)) if prices is None else np.asarray(prices, dtype=float).take(idx)
        _check_assortment(idx, ctx, pr)
        return _assemble(cls, indices=idx, contexts=ctx, prices=pr)

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]


def _check_probs(item_probs: np.ndarray, no_purchase_prob: float) -> None:
    """Probabilities that sum to 1 (within 1e-12) and none negative; NaN fails the sum."""
    total = float(np.add.reduce(item_probs)) + no_purchase_prob
    if not abs(total - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError(f"probabilities sum to {total}, not 1")
    # Zero is allowed: at extreme utilities a probability underflows.  A
    # finite total means every value is finite, so Python's min is exact.
    if no_purchase_prob < 0.0 or min(item_probs.tolist(), default=0.0) < 0.0:
        raise ValueError("negative choice probability")


@dataclass(frozen=True)
class ChoiceDistribution:
    """Purchase distribution over one assortment plus the no-purchase slot."""

    item_probs: np.ndarray
    no_purchase_prob: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.item_probs, dtype=float).reshape(-1)
        object.__setattr__(self, "item_probs", probs)
        object.__setattr__(self, "no_purchase_prob", float(self.no_purchase_prob))
        _check_probs(probs, self.no_purchase_prob)


def _utilities(assortment: AssortmentContexts, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    ctx = assortment.contexts
    if ctx.shape[0] and ctx.shape[1] != theta.shape[0]:
        raise ValueError(
            f"dimension mismatch: contexts are d={ctx.shape[1]}, theta is d={theta.shape[0]}"
        )
    return ctx @ theta


def _shifted_exp(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dense kernel, twin of ``estimation._segment_exp``: (m, ez, e0, total).

    A row of ``u`` (its last axis; any leading shape) holds one assortment's
    utilities.  Shifted by m = max(0, the row's largest), ``ez = exp(u - m)``,
    ``e0 = exp(-m)`` and ``total = e0 + sum ez`` stay finite for any utility,
    and log(1 + sum exp u) is ``m + log(total)``.  An empty row gives total 1.
    """
    m = np.maximum.reduce(u, axis=-1, initial=0.0)  # ufunc reduces keep a 1-D call lean
    ez = np.exp(u - m[..., None])
    e0 = np.exp(-m)
    return m, ez, e0, e0 + np.add.reduce(ez, axis=-1)


def _distribution(u: np.ndarray) -> tuple[ChoiceDistribution, float, float]:
    """One row's choice distribution, checked as it is built, and its kernel m and total."""
    m, ez, e0, total = _shifted_exp(u)
    probs, none = ez / total, float(e0 / total)
    _check_probs(probs, none)
    return _assemble(ChoiceDistribution, item_probs=probs, no_purchase_prob=none), m, total


def choice_probabilities(
    assortment: AssortmentContexts, theta: np.ndarray
) -> ChoiceDistribution:
    """Softmax purchase probabilities for each item and the no-purchase slot.

    Each item gets exp(u_i) / (1 + sum_j exp(u_j)); the leading 1 is the
    zero-utility no-purchase option.  An empty assortment yields
    no-purchase probability 1.  The probabilities are checked as they are
    computed, the checks ``ChoiceDistribution`` itself makes.
    """
    return _distribution(_utilities(assortment, theta))[0]


def expected_revenue(assortment: AssortmentContexts, theta: np.ndarray) -> float:
    """Price-weighted purchase probability; with unit prices, the total
    probability that anything at all is bought."""
    dist = choice_probabilities(assortment, theta)
    return float(dist.item_probs @ assortment.prices)


def revenue_gradient(
    assortment: AssortmentContexts, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``expected_revenue`` and its gradient sum_i mu_i (r_i - revenue) x_i at
    every row of ``thetas`` (any leading shape), from one ``_shifted_exp`` pass."""
    ctx, prices = assortment.contexts, assortment.prices
    _, ez, _, total = _shifted_exp(thetas @ ctx.T)
    mu = ez / total[..., None]
    rev = mu @ prices
    return rev, (mu * (prices - rev[..., None])) @ ctx


def diag_derivative(assortment: AssortmentContexts, theta: np.ndarray, i: int) -> float:
    """Derivative of item i's purchase probability along its own utility,
    mu_i (1 - mu_i)."""
    dist = choice_probabilities(assortment, theta)
    if not 0 <= i < assortment.cardinality:
        raise IndexError(f"item position {i} outside assortment of size {assortment.cardinality}")
    p = float(dist.item_probs[i])
    return p * (1.0 - p)


def diag_second_derivative(
    assortment: AssortmentContexts, theta: np.ndarray, i: int
) -> float:
    """Second derivative along item i's own utility, mu_i (1 - mu_i)(1 - 2 mu_i)."""
    dist = choice_probabilities(assortment, theta)
    if not 0 <= i < assortment.cardinality:
        raise IndexError(f"item position {i} outside assortment of size {assortment.cardinality}")
    p = float(dist.item_probs[i])
    return p * (1.0 - p) * (1.0 - 2.0 * p)


def sample_choice(dist: ChoiceDistribution, rng: np.random.Generator) -> int:
    """Draw one outcome: 0 for no purchase, else the 1-based item position."""
    r = float(rng.random())
    acc = dist.no_purchase_prob
    if r < acc:
        return 0
    for j, p in enumerate(dist.item_probs):
        acc += float(p)
        if r < acc:
            return j + 1
    return dist.item_probs.size  # guard against float round-off at the top end
