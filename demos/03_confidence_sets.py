"""Confidence radii and the two sets around the MLE, on a short history.

Run:  python demos/03_confidence_sets.py
"""
import numpy as np

from mnl_bandit import (
    AssortmentContexts,
    ConfidenceConfig,
    History,
    build_confidence_state,
    gamma_radius,
    in_set_C,
    in_set_E,
    max_revenue_over_E,
)
from mnl_bandit.confidence import e_boundary_multi
from mnl_bandit.policy import random_assortment
from mnl_bandit.simulator import (
    TAG_OUTCOME,
    InstanceConfig,
    environment_step,
    make_instance,
    stream,
)

instance = make_instance(InstanceConfig(d=2, N=5, K=2, S=1.0), seed=3)
cfg = ConfidenceConfig(d=2, K=2, delta=0.1, lam=5.0, S=1.0)

print("radius growth over rounds (gamma is monotone in t):")
for t in (1, 10, 100, 300):
    print(f"  t={t:4d}: gamma = {gamma_radius(cfg, t):.4f}")

history = History(2)
rng_assort = stream(3, 7)
for t in range(1, 201):
    picked = random_assortment(5, 2, rng_assort)
    assortment = AssortmentContexts.from_pool(instance.pool, picked, instance.prices)
    history.append(assortment, environment_step(instance, assortment, stream(3, TAG_OUTCOME, t)))

state = build_confidence_state(history, cfg, t=201)
print("\nafter 200 rounds: gamma =", round(state.gamma, 4), " beta =", round(state.beta, 4))
print("hidden parameter in the norm-based set:", in_set_C(instance.theta_star, history, cfg, state))
print("hidden parameter in the convex set:  ", in_set_E(instance.theta_star, history, cfg, state))

# Norm-set members near its boundary, along random rays from the anchor:
# every one must lie in the convex set.
rays = np.random.default_rng(0).standard_normal((200, 2))
members = e_boundary_multi(history, cfg, state, rays, "C")
members = members[(members != state.anchor).any(axis=1)]
for theta in members:
    assert in_set_E(theta, history, cfg, state)
print(f"found {len(members)} norm-set members; all were in the convex relaxation")

# Optimistic inner maximization over the convex set for one assortment.
assortment = AssortmentContexts.from_pool(instance.pool, (0, 1), instance.prices)
# Five ascent starts: the anchor and four boundary points of the convex set.
dirs = np.random.default_rng(1).standard_normal((4, 2))
starts = np.vstack([state.anchor, e_boundary_multi(history, cfg, state, dirs)])
value, theta_opt = max_revenue_over_E(assortment, history, cfg, state, starts)
print("\noptimistic revenue for items (0, 1):", round(value, 4))
print("achieved by parameter:", np.round(theta_opt, 4))
