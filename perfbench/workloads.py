"""The benchmark's workloads: a fixed experiment config plus a seed list.

Each seeded run goes through the user's own entry point,
``mnl_bandit.cli.main(["run", ...])``, one after another in one process, so
the load is a closed loop with a single client: a round starts only when the
previous one has finished.
"""
from __future__ import annotations

from dataclasses import dataclass

# The acceptance regret config (T=3000, screening mode, no refinement).
_REGRET = dict(
    d=2, N=8, K=2, T=3000,
    lambda_override=40.0, refine_top=0, n_dirs=8, restarts=1,
    track_c_stats=False, context_mode="fixed_pool",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Wall seconds of one seeded run at the commit that defined the benchmark
    # (2-core x86 machine, BLAS pinned to one thread).  It fixes how many
    # seeded runs a measurement makes, so both sides of a comparison run the
    # same inputs whatever their speed.
    nominal_run_s: float

    @property
    def T(self) -> int:
        return self.config["T"]

    @property
    def N(self) -> int:
        return self.config["N"]

    @property
    def K(self) -> int:
        return self.config["K"]

    def seeds(self, seed: int, seconds: float) -> list[int]:
        """Experiment seeds ``1000 * seed + k`` for one measurement.

        As many runs as fit in ``seconds`` at the nominal pace, at least one.
        """
        n_runs = max(1, int(seconds // self.nominal_run_s))
        return [seed * 1000 + k for k in range(n_runs)]


WORKLOADS = {
    w.name: w
    for w in (
        # Long horizon; the history is rescanned every round and boundary
        # search dominates.
        Workload(
            "regret_e",
            {**_REGRET, "policy": "cb_mnl_e"},
            nominal_run_s=15.0,
        ),
        # Estimation and diagnostics only: no boundary search, no scoring.
        Workload(
            "regret_random",
            {**_REGRET, "policy": "random"},
            nominal_run_s=6.5,
        ),
        # 2516 assortments a round and fresh contexts: the oracle and scoring
        # dominate, and the history stays short.
        Workload(
            "wide_fresh",
            dict(
                d=4, N=16, K=4, T=120, context_mode="fresh_iid", policy="cb_mnl_e",
                refine_top=1, restarts=5, n_dirs=16,
            ),
            nominal_run_s=17.0,
        ),
    )
}
