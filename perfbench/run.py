"""Seeded-run benchmark: end-to-end timings, output checks and layer traces.

Every seeded run goes through ``mnl_bandit.cli.main(["run", ..., "--jobs",
"1"])`` in this one process, with BLAS pinned to one thread.  See
``perfbench/README.md`` for the workloads and what each metric should show.

    python3 perfbench/run.py --workload regret_e --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload's first seed untraced, traced and untraced
again, checks that all three write the same CSV bytes, and reports the
per-layer metrics.
``--workload all`` runs every workload, each in a process of its own.
``--record FILE`` appends the result and its environment to FILE, which
``perfbench/compare.py`` reads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (rounds), ``failed`` (rounds) and ``metrics``.
The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is loaded, here and in child processes

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pace import PaceClock
from validate import coverage, failed_rounds
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 9

END_TO_END = (
    ("run_s", "s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage", "frac"),
)
# Printed and recorded beside the result line, but not gated (see README).
EXTRA_UNITS = {
    "regret": "regret", "fail_frac": "frac", "wall_run_s": "s", "probe_ms": "ms",
    "traced_run_s": "s", "untraced_run_s": "s",
}

# Times the import, then probes the pace in the same process (see pace.py).
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t0 = time.perf_counter()\n"
    "import mnl_bandit\n"
    "t1 = time.perf_counter()\n"
    "from pace import REF_PROBE_S, PaceClock\n"
    "clock = PaceClock()\n"
    "clock.probe()\n"
    "print((t1 - t0) * REF_PROBE_S / clock.paces[0])\n"
)


def load_program():
    """Import the package from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mnl_bandit.cli
        import mnl_bandit.harness
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mnl_bandit from {SRC}: {exc}")
    if not Path(mnl_bandit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: mnl_bandit was imported from outside {SRC}")
    return mnl_bandit.cli, mnl_bandit.harness


def import_seconds() -> float:
    """Reference-pace seconds of ``import mnl_bandit`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    samples: dict[str, object]  # sample count printed next to each metric
    attempted: int  # rounds
    failed: int  # rounds
    checks_ok: bool  # checks beyond the per-round ones
    extra: dict[str, object]  # printed and recorded, not part of the result line


@dataclass
class SeededRun:
    # Times in reference-pace seconds (see pace.py), except wall_s.
    run_s: float
    wall_s: float
    to_round1_s: float
    round_s: list[float]
    csv: str
    failed: int
    regret: float
    coverage: float


def seeded_run(
    program, w: Workload, cfg_path: Path, seed: int, out_dir: Path, pace: PaceClock, main=None
) -> SeededRun:
    """One seeded run through the CLI, timed, with its CSV validated.

    A timestamp hook on ``harness.serve_contexts`` marks the start of every
    round; the gap between two marks is one round's decision-to-decision
    latency, and the first mark ends the run's set-up.  The same hook probes
    the CPU pace between rounds.
    """
    cli, harness = program
    stamps: list[float] = []
    serve = harness.serve_contexts

    def stamped(*args, **kwargs):
        pace.maybe_probe()
        stamps.append(time.perf_counter())
        return serve(*args, **kwargs)

    argv = ["run", "--config", str(cfg_path), "--seeds", str(seed), "--out", str(out_dir), "--jobs", "1"]
    harness.serve_contexts = stamped
    rc = None
    pace.probe()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = (main or cli.main)(argv)
    except Exception:
        traceback.print_exc()
    finally:
        t1 = time.perf_counter()
        harness.serve_contexts = serve
        pace.probe()

    base = out_dir / f"run_{w.config['policy']}_seed{seed}"
    csv, failed, regret, cov = "", w.T, float("nan"), 0.0
    if rc == 0:
        csv = base.with_suffix(".csv").read_text()
        meta = json.loads(base.with_suffix(".json").read_text())
        bad = failed_rounds(csv, harness.CSV_HEADER, w.T, w.N, w.K)
        failed = min(w.T, len(bad) + int(meta["mle_failures"]))
        regret = float(meta["total_regret"])
        cov = coverage(csv, harness.CSV_HEADER)
    shutil.rmtree(out_dir, ignore_errors=True)
    ref_t0, ref_t1 = pace.ref([t0, t1])
    ref_stamps = pace.ref(stamps) if stamps else [ref_t1]
    return SeededRun(
        run_s=ref_t1 - ref_t0,
        wall_s=t1 - t0,
        to_round1_s=ref_stamps[0] - ref_t0,
        round_s=list(np.diff(ref_stamps)),
        csv=csv,
        failed=failed,
        regret=regret,
        coverage=cov,
    )


def measure(program, w: Workload, seeds: list[int], work: Path) -> Result:
    """End-to-end metrics with tracing off, over the workload's seed list."""
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    pace = PaceClock()
    cfg_path = write_config(w, work)
    runs = [seeded_run(program, w, cfg_path, s, work / f"seed{s}", pace) for s in seeds]
    rounds_ms = 1e3 * np.array([x for r in runs for x in r.round_s])
    metrics = {
        "run_s": statistics.median(r.run_s for r in runs),
        "round_ms.p50": float(np.percentile(rounds_ms, 50)) if rounds_ms.size else float("nan"),
        "round_ms.p90": float(np.percentile(rounds_ms, 90)) if rounds_ms.size else float("nan"),
        "setup_s": statistics.median(imports) + statistics.median(r.to_round1_s for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "coverage": statistics.fmean(r.coverage for r in runs),
    }
    attempted = len(runs) * w.T
    samples = {
        "run_s": len(runs),
        "round_ms.p50": rounds_ms.size,
        "round_ms.p90": rounds_ms.size,
        "setup_s": f"{len(imports)} imports + {len(runs)} runs",
        "peak_rss_mb": 1,
        "coverage": attempted,
        "regret": len(runs),
        "fail_frac": attempted,
    }
    failed = sum(r.failed for r in runs)
    extra = {
        "regret": statistics.fmean(r.regret for r in runs),
        "fail_frac": failed / attempted,
        "wall_run_s": statistics.median(r.wall_s for r in runs),
        "probe_ms": 1e3 * statistics.median(pace.paces),
        "seeds": seeds,
    }
    return Result(metrics, dict(END_TO_END), samples, attempted, failed, True, extra)


def trace(program, w: Workload, seed: int, work: Path) -> Result:
    """Per-layer metrics from a traced rerun of one seed, checked against the untraced run."""
    from tracer import PER_LAYER, ROOT as ROOT_SPAN, Tracer

    cli, _ = program
    cfg_path = write_config(w, work)
    pace = PaceClock()
    plain = seeded_run(program, w, cfg_path, seed, work / "plain", pace)
    tracer = Tracer(run_id=seed)
    tracer.install()
    try:
        traced = seeded_run(
            program, w, cfg_path, seed, work / "traced", pace, tracer.span(ROOT_SPAN, cli.main)
        )
    finally:
        tracer.uninstall()
    # The process's first run pays cold-start costs; a second untraced run,
    # after the traced one, is the fair base for the overhead.
    warm = seeded_run(program, w, cfg_path, seed, work / "warm", pace)
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace_{w.name}_seed{seed}.npz"), pace)

    mismatched = 0
    for other in (traced, warm):
        a, b = plain.csv.split("\n"), other.csv.split("\n")
        mismatched += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    identical = bool(plain.csv) and plain.csv == traced.csv == warm.csv
    repeatable = all(
        (r.regret, r.coverage) == (plain.regret, plain.coverage) for r in (traced, warm)
    )
    all_metrics = tracer.metrics(w.T, pace.ref)
    all_metrics["trace.overhead_frac"] = traced.run_s / warm.run_s - 1.0
    metrics = {name: all_metrics[name] for name, _ in PER_LAYER}
    largest, largest_s = tracer.largest(pace.ref)
    attempted = 3 * w.T
    failed = min(attempted, plain.failed + traced.failed + warm.failed + mismatched)
    extra = {
        "csv_identical": identical,
        "repeat_same_regret_and_coverage": repeatable,
        "largest_layer": f"{largest} ({largest_s:.3f} s self)",
        "traced_run_s": all_metrics["trace.run_s"],
        "untraced_run_s": warm.run_s,
        "probe_ms": 1e3 * statistics.median(pace.paces),
        "regret": plain.regret,
        "fail_frac": failed / attempted,
        "seeds": [seed],
    }
    samples = {"regret": 1, "fail_frac": attempted}
    return Result(metrics, dict(PER_LAYER), samples, attempted, failed, identical and repeatable, extra)


def write_config(w: Workload, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(w.config, indent=2))
    return path


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    program = load_program()
    seeds = w.seeds(args.seed, args.seconds)
    work = OUT / f"{w.name}-{os.getpid()}"
    try:
        res = trace(program, w, seeds[0], work) if args.trace else measure(program, w, seeds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    correct = res.checks_ok and res.failed == 0
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in [*res.metrics.items(), *res.extra.items()]:
        unit = res.units.get(name) or EXTRA_UNITS.get(name, "")
        n = f"  n={res.samples[name]}" if name in res.samples else ""
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"{w.name:<14} {name:<44} {shown} {unit}{n}")
    print(f"{w.name:<14} {'failed rounds':<44} {res.failed}/{res.attempted}  correct={correct}")
    result = {
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": res.units[k]} for k, v in res.metrics.items()},
    }
    if args.record:
        record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env, **result, "extra": res.extra}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a child process of its own; non-zero if any check failed."""
    bad = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()  # the machine-readable result; the lines above say the same
        print("\n".join(lines), flush=True)
        if proc.returncode != 0:
            bad.append(name)
    print("all output checks passed" if not bad else f"output checks failed: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.record:
        args.record = str(Path(args.record).resolve())
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
