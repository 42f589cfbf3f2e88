"""The benchmark's tracer still finds every function it wraps, and its workloads still build and
pass its output check."""
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from mnl_bandit.checks import MATRIX
from mnl_bandit.cli import main
from mnl_bandit.harness import CSV_HEADER, ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py``, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_traced_names_resolve():
    # A rename or deletion of a traced function must fail here, not in a
    # `perfbench/run.py --trace 1` run.
    tracer = load_tracer()
    for module, attr in tracer.SPANS + tracer.COUNTS:
        obj = importlib.import_module(f"mnl_bandit.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                pytest.fail(f"perfbench traces mnl_bandit.{module}.{attr}, which does not exist")
        assert callable(obj), f"mnl_bandit.{module}.{attr} is not callable"


def test_workload_configs_build():
    # A config field the benchmark sets but the program no longer accepts
    # must fail here, not as `run` exiting 2 inside a benchmark run.
    for name, workload in load_perfbench("workloads").WORKLOADS.items():
        try:
            ExperimentConfig.from_dict(workload.config)
        except ValueError as exc:
            pytest.fail(f"perfbench workload {name}: {exc}")


def test_regret_workloads_run_the_matrix_configs():
    # The gate's regret batches, the equivalence matrix and the benchmark's
    # regret workloads all run ``checks.REGRET_CFG``: a change to one that
    # the others do not follow fails here.
    workloads = load_perfbench("workloads").WORKLOADS
    for workload, entry in (("regret_e", "regret_cb_mnl_e"), ("regret_random", "regret_random")):
        assert ExperimentConfig.from_dict(workloads[workload].config) == MATRIX[entry], workload


def test_workloads_pass_the_benchmark_output_check(tmp_path):
    # The CSV a short run of each workload writes passes the same per-round
    # check a benchmark run applies, so a broken row fails here first.
    validate = load_perfbench("validate")
    T = 3
    for name, workload in load_perfbench("workloads").WORKLOADS.items():
        cfg_path, out = tmp_path / f"{name}.json", tmp_path / name
        cfg_path.write_text(json.dumps(workload.config))
        argv = ["run", "--config", str(cfg_path), "--T", str(T), "--seeds", "0",
                "--out", str(out), "--jobs", "1"]
        assert main(argv) == 0, name
        csv = (out / f"run_{workload.config['policy']}_seed0.csv").read_text()
        bad = validate.failed_rounds(csv, CSV_HEADER, T, workload.N, workload.K)
        assert not bad, f"perfbench workload {name}: rounds {sorted(bad)} fail the output check"


def traced_assortments(**cfg) -> int:
    """Assortments the tracer counts as enumerated by policy steps in one run."""
    tracer = load_tracer().Tracer(run_id=0)
    tracer.install()
    try:
        run_experiment(ExperimentConfig(d=2, n_dirs=4, restarts=1, **cfg), seed=0)
    finally:
        tracer.uninstall()
    return tracer.policy_assortments


@pytest.mark.parametrize("policy", ["random"])
def test_tracer_counts_assortments_per_round(policy):
    # The tracer reads the return value of `policy.enumerate_assortments`;
    # this fails if a change to that value breaks the count it reports.
    N, K, T = 5, 3, 4
    count = traced_assortments(N=N, K=K, T=T, policy=policy)
    assert count / T == sum(math.comb(N, k) for k in range(1, K + 1))


@pytest.mark.parametrize("policy", ["cb_mnl_e", "cb_mnl_c", "oracle"])
def test_tracer_counts_no_assortments_for_the_static_solve(policy):
    # The default config (refine_top=1) screens by one static solve per candidate.
    assert traced_assortments(N=5, K=3, T=4, policy=policy) == 0
