"""Fit the regularized MLE on simulated choices and watch it converge.

Run:  python demos/02_estimation.py
"""
import numpy as np

from mnl_bandit import AssortmentContexts, History, fit_mle, g_vector, matrix_H, score
from mnl_bandit.policy import random_assortment
from mnl_bandit.simulator import (
    TAG_OUTCOME,
    InstanceConfig,
    environment_step,
    make_instance,
    stream,
)

instance = make_instance(InstanceConfig(d=2, N=6, K=2, S=1.0), seed=42)
print("hidden parameter:", np.round(instance.theta_star, 4))

history = History(2)
lam = 2.0
rng_assort = stream(42, 7)
result = None  # each fit warm-starts from the last one's result
for t in range(1, 2001):
    picked = random_assortment(6, 2, rng_assort)
    assortment = AssortmentContexts.from_pool(instance.pool, picked, instance.prices)
    outcome = environment_step(instance, assortment, stream(42, TAG_OUTCOME, t))
    history.append(assortment, outcome)
    if t in (50, 200, 800, 2000):
        result = fit_mle(history, lam, theta0=result)
        err = np.linalg.norm(result.theta_hat - instance.theta_star)
        print(
            f"t={t:5d}  theta_hat={np.round(result.theta_hat, 4)}  "
            f"error={err:.4f}  newton_iters={result.iterations}"
        )

# The fitted parameter zeroes the score, and g matches the reward sum there
# (purchase counts times contexts, summed over the history).
final = fit_mle(history, lam)
print("score norm at MLE:", np.linalg.norm(score(history, final.theta_hat, lam)))
print(
    "g(theta_hat) vs observed reward sum:",
    np.round(g_vector(history, final.theta_hat, lam), 4),
    np.round(history.rows.purchases @ history.rows.ctx_flat, 4),
)
print("design matrix H(theta_hat):\n", np.round(matrix_H(history, final.theta_hat, lam), 3))
