"""Synthetic environment: instances, context serving, choice sampling, kappa.

Randomness is organized as independent streams keyed on (seed, purpose),
so any purpose's draws can be regenerated without the others and runs
parallelize without shared state.  ``stream`` defines every stream: a
NumPy ``SeedSequence`` over the key seeds a ``PCG64``.  A run draws its
policy's randomness from one ``stream(seed, TAG_POLICY)`` and its
consumers' choices from one ``stream(seed, TAG_OUTCOME)``, each taken once
before the first round.  Each round draws exactly one uniform from the
outcome stream, so round t's choice reads its t-th draw under every
policy: policies compared at one seed share their outcome randomness.
Fresh contexts are keyed per round, ``(seed, TAG_CONTEXTS, t)``, so round
t's contexts can be served on their own.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .choice import (
    AssortmentContexts,
    _shifted_exp,
    choice_probabilities,
    finite_number,
    integer_at_least,
    sample_choice,
)
from .estimation import _row_norms

__all__ = [
    "Instance",
    "InstanceConfig",
    "make_instance",
    "serve_contexts",
    "environment_step",
    "estimate_kappa",
    "sample_ball",
]

# Stream tags for keyed seeding.
TAG_INSTANCE = 0
TAG_CONTEXTS = 1
TAG_OUTCOME = 2
TAG_POLICY = 3
TAG_KAPPA = 4

FIXED_POOL = "fixed_pool"
FRESH_IID = "fresh_iid"


def stream(seed: int, tag: int, *rest: int) -> np.random.Generator:
    """Deterministic generator for one purpose inside one seeded run.

    ``rest`` extends the key, as ``serve_contexts`` does with the round.
    ``SeedSequence`` zero-pads its entropy to four words, so for seeds
    below 2**64 the key ``[seed, tag]`` hashes like ``[seed, tag, 0]``: a
    per-round key starts at round 1, or it repeats the whole-run stream.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(tag), *map(int, rest)]))


def sample_ball(rng: np.random.Generator, n: int, d: int, radius: float = 1.0) -> np.ndarray:
    """Exactly uniform draws from the d-ball: normalized Gaussian times U^(1/d)."""
    g = rng.standard_normal((n, d))
    g /= _row_norms(g)[:, None]
    r = radius * rng.random(n) ** (1.0 / d)
    return g * r[:, None]


@dataclass
class InstanceConfig:
    """Shape of the synthetic problem, checked at construction; ``ExperimentConfig``
    and ``Instance`` extend it.  See ``make_instance``."""

    d: int = 2
    N: int = 8
    K: int = 2
    S: float = 1.0  # norm bound given to the learner
    S_true: float = 1.0  # radius the hidden parameter is drawn from
    context_mode: str = FIXED_POOL
    prices: list[float] | None = None

    def __post_init__(self) -> None:
        for name in ("d", "N", "K"):
            integer_at_least(name, getattr(self, name), 1)
        if self.K > self.N:
            raise ValueError(f"K must be in [1, N={self.N}], got {self.K}")
        if not 0.0 <= finite_number("S_true", self.S_true) <= finite_number("S", self.S):
            raise ValueError(
                f"S_true must be in [0, S={self.S}], the bound given to the learner, got {self.S_true}"
            )
        if self.context_mode not in (FIXED_POOL, FRESH_IID):
            raise ValueError(
                f"context_mode must be {FIXED_POOL!r} or {FRESH_IID!r}, got {self.context_mode!r}"
            )
        if self.prices is not None:
            if not isinstance(self.prices, (list, tuple, np.ndarray)) or len(self.prices) != self.N:
                raise ValueError(f"prices must be null or a list of N={self.N} numbers, got {self.prices!r}")
            if any(finite_number("prices", p) < 0.0 for p in self.prices):
                raise ValueError(f"prices must be nonnegative, got {self.prices!r}")


@dataclass(kw_only=True)
class Instance(InstanceConfig):
    """Ground truth for one synthetic problem: its shape and one seed's draws.

    Construction checks the shape fields by ``InstanceConfig``'s rules, then
    the seed, ``theta_star`` and the pool; a ``ValueError`` names the field.
    """

    theta_star: np.ndarray
    pool: np.ndarray | None
    prices: np.ndarray = field()  # required: the config's default of None would carry over
    seed: int

    def __post_init__(self) -> None:
        self.theta_star = _real_array("theta_star", self.theta_star).reshape(-1)
        self.prices = _real_array("prices", self.prices).reshape(-1)
        super().__post_init__()
        integer_at_least("seed", self.seed, 0)
        if self.theta_star.shape != (self.d,) or not np.isfinite(self.theta_star).all():
            raise ValueError(
                f"theta_star must hold d={self.d} finite numbers, got {self.theta_star.tolist()}"
            )
        if (self.pool is not None) != (self.context_mode == FIXED_POOL):
            raise ValueError(f"pool must be given exactly when context_mode is {FIXED_POOL!r}")
        if self.pool is not None:
            self.pool = _real_array("pool", self.pool)
            if self.pool.size != self.N * self.d or not np.isfinite(self.pool).all():
                raise ValueError(f"pool must hold N*d={self.N * self.d} finite numbers")
            self.pool = self.pool.reshape(self.N, self.d)
            norms = np.linalg.norm(self.pool, axis=1)
            if norms.size and float(norms.max()) > 1.0 + 1e-9:
                raise ValueError("pool context norm exceeds 1")
        if float(np.linalg.norm(self.theta_star)) > self.S_true * (1.0 + 1e-9):
            raise ValueError("theta_star norm exceeds S_true")

    def to_dict(self) -> dict:
        """The fields by name, in declaration order; arrays as flat lists (the pool row by row)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.ravel().tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """ValueError naming every field ``data`` lacks and every key that is no field."""
        names = [f.name for f in fields(cls)]
        problems = [f"missing key {name!r}" for name in names if name not in data]
        problems += [f"{key} is not an instance field" for key in sorted(set(data) - set(names))]
        if problems:
            raise ValueError("; ".join(problems))
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``name`` unless it holds real numbers only."""
    array = np.asarray(value)
    if array.dtype.kind not in "fiu":
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    return np.asarray(array, dtype=float)


def make_instance(cfg: InstanceConfig, seed: int) -> Instance:
    """Draw theta_star from the S_true-ball and contexts from the unit ball."""
    rng = stream(seed, TAG_INSTANCE)
    shape = {f.name: getattr(cfg, f.name) for f in fields(InstanceConfig)}
    if cfg.prices is None:
        shape["prices"] = np.ones(cfg.N)
    theta_star = sample_ball(rng, 1, cfg.d, radius=cfg.S_true)[0]
    pool = sample_ball(rng, cfg.N, cfg.d) if cfg.context_mode == FIXED_POOL else None
    return Instance(**shape, theta_star=theta_star, pool=pool, seed=int(seed))


def serve_contexts(instance: Instance, t: int) -> np.ndarray:
    """Contexts for round t: the fixed pool, or fresh draws keyed by (seed, t)."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if instance.context_mode == FIXED_POOL:
        return instance.pool
    return sample_ball(stream(instance.seed, TAG_CONTEXTS, t), instance.N, instance.d)


def environment_step(
    instance: Instance,
    assortment: AssortmentContexts,
    rng: np.random.Generator,
) -> int:
    """Sample the consumer's choice under theta_star; 0 means no purchase."""
    dist = choice_probabilities(assortment, instance.theta_star)
    return sample_choice(dist, rng)


def kappa_theta_candidates(instance: Instance, grid_size: int, pool: np.ndarray) -> np.ndarray:
    """Search points for kappa: origin, directed extremes, seeded ball draws."""
    cands = [np.zeros(instance.d)]
    for x in pool:
        nx = float(np.linalg.norm(x))
        if nx > 0.0:
            cands.append(instance.S * x / nx)
            cands.append(-instance.S * x / nx)
    if grid_size > 0 and instance.S > 0.0:
        rng = stream(instance.seed, TAG_KAPPA)
        cands.append(sample_ball(rng, grid_size, instance.d, radius=instance.S))
    return np.vstack([np.atleast_2d(c) for c in cands])


def kappa_over_candidates(instance: Instance, thetas: np.ndarray, pool: np.ndarray) -> float:
    """Exact max of 1/(mu(1-mu)) over feasible assortments x items x thetas.

    For a fixed theta, item i's probability is largest when it is offered
    alone and smallest beside the K-1 other items of highest utility; every
    other assortment holding i gives a probability in between.  mu (1 - mu)
    is concave in mu, so its minimum over that range sits at one of these
    two assortments, and no assortment is enumerated.  The result is
    ``inf`` when mu (1 - mu) underflows to zero, which takes utilities
    beyond about 745 in absolute value.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    U = pool @ thetas.T  # (N, n_cand)
    K = instance.K
    # Offered alone: mu = e^u / (1 + e^u) and 1 - mu = 1 / (1 + e^u).
    _, ez, e0, total = _shifted_exp(U[..., None])  # each item its own row
    w = [(ez[..., 0] / total) * (e0 / total)]
    if K > 1:
        # Beside the K-1 other items of highest utility.  Each such
        # assortment holds the top item, so one shift per candidate serves
        # all.  1 - mu is summed from the other terms of the denominator: by
        # subtraction it cancels to 0 once mu rounds to 1.
        top = np.argsort(-U, axis=0, kind="stable")[:K]  # (K, n_cand)
        _, ez, e0, _ = _shifted_exp(U.T)  # one row per candidate
        ez = ez.T
        # others[r]: the top K but position r.  An item ranked r < K-1 drops
        # itself; any other item sits beside the top K-1 (r = K-1).
        others = (1.0 - np.eye(K)) @ np.take_along_axis(ez, top, axis=0)
        rank = np.full(U.shape, K - 1)
        np.put_along_axis(rank, top[: K - 1], np.arange(K - 1)[:, None], axis=0)
        rest = e0 + np.take_along_axis(others, rank, axis=0)
        w.append((ez / (ez + rest)) * (rest / (ez + rest)))
    w_min = float(np.stack(w).min())
    return 1.0 / w_min if w_min > 0.0 else math.inf  # mu (1 - mu) underflowed


def estimate_kappa(instance: Instance, grid_size: int = 256) -> float:
    """Grid/random search over theta for the instance's curvature constant.

    The infimum over an unbounded parameter space would be zero, so the
    search is restricted to the ball of radius S and the instance's own
    contexts and feasible assortments, which is how the constant enters
    every bound that uses it.  Only theta is sampled: for each candidate
    the max over assortments and items is exact at every N and K (see
    ``kappa_over_candidates``).
    """
    if instance.context_mode == FIXED_POOL:
        pool = instance.pool
    else:
        pool = serve_contexts(instance, 1)
    thetas = kappa_theta_candidates(instance, grid_size, pool)
    return kappa_over_candidates(instance, thetas, pool)
