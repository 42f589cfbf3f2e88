"""Synthetic environment: instances, context serving, choice sampling, kappa.

Randomness is organized as independent streams keyed on (seed, purpose,
round), so any part of a run can be regenerated in isolation and runs
parallelize without shared state.  ``stream`` defines every stream: a
NumPy ``SeedSequence`` over the key seeds a ``PCG64``.  A run's per-round
policy and outcome streams come from ``round_streams``, which hashes the
keys of all rounds at once with the same ``SeedSequence`` algorithm and
reseeds one reused ``PCG64`` per round, so each round's generator is in
exactly the state ``stream(seed, tag, t)`` would give.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .choice import AssortmentContexts, choice_probabilities, finite_number, sample_choice

__all__ = [
    "Instance",
    "InstanceConfig",
    "make_instance",
    "round_streams",
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
    """Deterministic generator for one purpose inside one seeded run."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(tag), *map(int, rest)]))


# NumPy's SeedSequence hash (NEP 19 keeps it stable): pool of four 32-bit
# words, its mixing constants, and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an entropy integer: 32-bit words, least significant first."""
    if n < 0:
        raise ValueError(f"stream keys must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(seed: int, tag: int, rounds: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, tag, t]).generate_state(4, np.uint64)`` for every t of ``rounds``.

    Each round is one lane of a vectorized run of NumPy's algorithm: the
    entropy words are hashed into a pool of four, the pool is mixed, and
    eight output words are drawn from it.  The hash constants advance the
    same way in every lane, so they stay Python ints.  Returns an
    ``(len(rounds), 4)`` uint64 array.
    """
    n = rounds.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed) + _uint32_words(tag)]
    entropy.append(rounds.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64, copy=False)


def round_streams(seed: int, tag: int, rounds: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each round t of ``rounds``, a generator in the state of ``stream(seed, tag, t)``.

    The keys of all rounds are hashed up front into one ``(rounds, 4)``
    uint64 table (a ``ValueError`` for a round outside 0..2**32 - 1, whose
    key would take more than one word).  Each round then seeds one reused
    ``PCG64`` from its row as PCG64 seeds itself from a ``SeedSequence``,
    so every round yields the same ``Generator`` object: a round's draws
    must be made before the next round is taken.
    """
    rounds = np.fromiter(rounds, dtype=np.int64)
    if rounds.size and (rounds.min() < 0 or rounds.max() > _MASK32):
        raise ValueError(f"rounds must lie in 0..{_MASK32}, got {rounds.min()}..{rounds.max()}")
    return _reseeded(_seed_words(int(seed), int(tag), rounds))


def _reseeded(table: np.ndarray) -> Iterator[np.random.Generator]:
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for row in table:
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        # PCG64's set-seq seeding: inc = 2 i + 1, then two LCG steps from 0
        # with the seed s added between them.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def sample_ball(rng: np.random.Generator, n: int, d: int, radius: float = 1.0) -> np.ndarray:
    """Exactly uniform draws from the d-ball: normalized Gaussian times U^(1/d)."""
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return g * r[:, None]


@dataclass
class InstanceConfig:
    """Shape of the synthetic problem; see ``make_instance``."""

    d: int = 2
    N: int = 8
    K: int = 2
    S: float = 1.0  # norm bound given to the learner
    S_true: float = 1.0  # radius the hidden parameter is drawn from
    context_mode: str = FIXED_POOL
    prices: list[float] | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.N < 1:
            raise ValueError(f"d and N must be >= 1, got d={self.d}, N={self.N}")
        if not 1 <= self.K <= self.N:
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


@dataclass
class Instance:
    """Ground truth for one synthetic problem.

    Construction checks the shape fields by ``InstanceConfig``'s rules, then
    ``theta_star`` and the pool; a ``ValueError`` names the field.
    """

    d: int
    N: int
    K: int
    S: float
    S_true: float
    theta_star: np.ndarray
    context_mode: str
    pool: np.ndarray | None
    prices: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.theta_star = np.asarray(self.theta_star, dtype=float).reshape(-1)
        self.prices = np.asarray(self.prices, dtype=float).reshape(-1)
        InstanceConfig(
            d=self.d, N=self.N, K=self.K, S=self.S, S_true=self.S_true,
            context_mode=self.context_mode, prices=self.prices,
        )
        if self.theta_star.shape != (self.d,) or not np.isfinite(self.theta_star).all():
            raise ValueError(
                f"theta_star must hold d={self.d} finite numbers, got {self.theta_star.tolist()}"
            )
        if (self.pool is not None) != (self.context_mode == FIXED_POOL):
            raise ValueError(f"pool must be given exactly when context_mode is {FIXED_POOL!r}")
        if self.pool is not None:
            self.pool = np.asarray(self.pool, dtype=float)
            if self.pool.size != self.N * self.d or not np.isfinite(self.pool).all():
                raise ValueError(f"pool must hold N*d={self.N * self.d} finite numbers")
            self.pool = self.pool.reshape(self.N, self.d)
            norms = np.linalg.norm(self.pool, axis=1)
            if norms.size and float(norms.max()) > 1.0 + 1e-9:
                raise ValueError("pool context norm exceeds 1")
        if float(np.linalg.norm(self.theta_star)) > self.S_true * (1.0 + 1e-9):
            raise ValueError("theta_star norm exceeds S_true")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "K": self.K,
            "S": self.S,
            "S_true": self.S_true,
            "theta_star": [float(x) for x in self.theta_star],
            "context_mode": self.context_mode,
            "pool": None if self.pool is None else [float(x) for x in self.pool.ravel()],
            "prices": [float(x) for x in self.prices],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        pool = data["pool"]
        return cls(
            d=int(data["d"]),
            N=int(data["N"]),
            K=int(data["K"]),
            S=float(data["S"]),
            S_true=float(data["S_true"]),
            theta_star=np.asarray(data["theta_star"], dtype=float),
            context_mode=data["context_mode"],
            pool=pool,
            prices=np.asarray(data["prices"], dtype=float),
            seed=int(data["seed"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def make_instance(cfg: InstanceConfig, seed: int) -> Instance:
    """Draw theta_star from the S_true-ball and contexts from the unit ball."""
    rng = stream(seed, TAG_INSTANCE)
    theta_star = sample_ball(rng, 1, cfg.d, radius=cfg.S_true)[0]
    pool = sample_ball(rng, cfg.N, cfg.d) if cfg.context_mode == FIXED_POOL else None
    prices = np.ones(cfg.N) if cfg.prices is None else np.asarray(cfg.prices, dtype=float)
    return Instance(
        d=cfg.d,
        N=cfg.N,
        K=cfg.K,
        S=cfg.S,
        S_true=cfg.S_true,
        theta_star=theta_star,
        context_mode=cfg.context_mode,
        pool=pool,
        prices=prices,
        seed=int(seed),
    )


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
    shift = np.maximum(U, 0.0)
    ez, e0 = np.exp(U - shift), np.exp(-shift)
    w = [(ez / (e0 + ez)) * (e0 / (e0 + ez))]
    if K > 1:
        # Beside the K-1 other items of highest utility.  Each such
        # assortment holds the top item, so one shift per candidate serves
        # all.  1 - mu is summed from the other terms of the denominator: by
        # subtraction it cancels to 0 once mu rounds to 1.
        top = np.argsort(-U, axis=0, kind="stable")[:K]  # (K, n_cand)
        shift = np.maximum(U.max(axis=0), 0.0)
        ez, e0 = np.exp(U - shift), np.exp(-shift)
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
