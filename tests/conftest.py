"""Shared fixtures: the expensive seeded run batches used by several criteria,
a counter of likelihood kernel passes, a recorder of set membership tests and
a counter of numpy's Python-level wrappers."""
import collections
import os
import time

import numpy as np
import pytest

from mnl_bandit import checks, confidence, estimation
from mnl_bandit.harness import ExperimentConfig, run_many

JOBS = min(2, os.cpu_count() or 1)

# The gate's configs are ``checks``' own, the ones ``mnl-bandit matrix`` runs,
# with the gate's seeds.
COVERAGE_SEEDS = list(range(200))
COVERAGE_CFG = dict(**checks.COVERAGE_CFG, seeds=COVERAGE_SEEDS)

REGRET_SEEDS = list(range(20))
REGRET_CFG = dict(**checks.REGRET_CFG, seeds=REGRET_SEEDS)


def _timed(cfg: ExperimentConfig, seeds):
    start = time.perf_counter()
    logs = run_many(cfg, seeds, jobs=JOBS)
    return logs, time.perf_counter() - start


@pytest.fixture(scope="session")
def coverage_runs():
    """200 seeded optimistic runs at T=500 (criteria 4, 6, and spot checks)."""
    return _timed(ExperimentConfig(**COVERAGE_CFG), COVERAGE_SEEDS)


@pytest.fixture(scope="session")
def regret_runs():
    """20 seeded optimistic runs at T=3000 (criteria 7 and 9)."""
    return _timed(ExperimentConfig(**REGRET_CFG, policy="cb_mnl_e"), REGRET_SEEDS)


@pytest.fixture(scope="session")
def random_runs():
    """Matched uniform-policy baseline for criterion 9."""
    return _timed(ExperimentConfig(**REGRET_CFG, policy="random"), REGRET_SEEDS)


@pytest.fixture
def kernel_passes(monkeypatch):
    """Utilities handed to ``estimation._segment_exp``, one entry per pass."""
    seen = []
    real = estimation._segment_exp

    def counting(rows, u):
        seen.append(np.array(u, copy=True))
        return real(rows, u)

    monkeypatch.setattr(estimation, "_segment_exp", counting)
    return seen


# numpy's Python-level wrappers that a round calls the kernels of instead.
WRAPPERS = (
    (np.linalg, "solve"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "norm"),
    (np, "vstack"),
    (np, "atleast_2d"),
    (np, "append"),
    (np, "flatnonzero"),
)


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Calls of each of ``WRAPPERS`` by name, from the package or anything else
    that looks the name up on numpy while the test runs."""
    calls = collections.Counter()

    def counter(name, real):
        def counted(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        return counted

    for owner, name in WRAPPERS:
        monkeypatch.setattr(owner, name, counter(name, getattr(owner, name)))
    return calls


@pytest.fixture
def member_passes(monkeypatch):
    """Calls of ``confidence._E_member`` and ``_C_member``, one entry per
    call: the set ("E" or "C"), the evaluated parameter or stack and the
    verdict.  ``harness`` binds its own names for theta_star's test, so the
    entries come from the boundary search, the ascent and ``in_set_*``."""
    seen = []

    def recorder(kind, real):
        def recording(ev, state):
            ok, value = real(ev, state)
            seen.append((kind, np.array(ev.theta, copy=True), ok))
            return ok, value

        return recording

    for kind in ("E", "C"):
        name = f"_{kind}_member"
        monkeypatch.setattr(confidence, name, recorder(kind, getattr(confidence, name)))
    return seen
