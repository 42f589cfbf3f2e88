"""Run the optimistic policy against baselines and compare regret curves.

Run:  python demos/04_bandit_experiment.py
"""
import numpy as np

from mnl_bandit import ExperimentConfig, elliptical_potential_check, run_many, summarize_runs

SEEDS = [0, 1, 2, 3]
BASE = dict(d=2, N=6, K=2, T=400, S=1.0, S_true=1.0, delta=0.1,
            refine_top=0, n_dirs=8, restarts=1, seeds=SEEDS)

for policy in ("cb_mnl_e", "bonus_ucb", "random", "oracle"):
    cfg = ExperimentConfig(policy=policy, **BASE)
    summary = summarize_runs(run_many(cfg, SEEDS))
    curve = summary.mean_cum_regret
    marks = "  ".join(f"t={t}: {curve[t - 1]:7.2f}" for t in (100, 200, 400))
    print(f"{policy:10s} coverage={summary.coverage_rate:.2f}  cum regret  {marks}")

# The optimistic run keeps its diagnostics: per-round radii, coverage flags,
# deviation norms, and the end-of-run potential inequalities.
cfg = ExperimentConfig(policy="cb_mnl_e", **BASE)
run = run_many(cfg, [0])[0]
last = run.records[-1]
print("\nrun diagnostics (seed 0):")
print("  kappa estimate:", round(run.kappa_hat, 3))
print(f"  final radii: gamma={last.gamma:.3f} beta={last.beta:.3f}")
print(f"  deviation {last.dev_H:.3f} <= bound {last.dev_bound:.3f}")
pot_lhs, pot_rhs, det_lhs, det_rhs = elliptical_potential_check(run)
print(f"  potential {pot_lhs:.3f} <= {pot_rhs:.3f}")
print(f"  det(V) {det_lhs:.3f} <= {det_rhs:.3f}")

np.set_printoptions(suppress=True)
print("\nfirst CSV rows:")
print("\n".join(run.csv_text().splitlines()[:4]))
