"""Command line interface: run experiments, check properties, summarize, inspect.

Subcommands:
    run        one config across many seeds, CSV + metadata per run
    check      numerical property and lemma suites
    summarize  aggregate saved run CSVs
    instance   generate or inspect a serialized instance
    matrix     run the equivalence matrix into a directory
    diff       compare two run directories file by file
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys

import numpy as np

from .harness import (
    CSV_COLUMNS,
    CSV_REALS,
    ExperimentConfig,
    check_aggregable,
    curve_mean_stderr,
    read_run_metadata,
    read_run_csv,
    run_many,
    save_runs,
    summarize_runs,
)
from .policy import PolicyKind
from .simulator import Instance, make_instance
from .checks import CHECKS, MATRIX, MATRIX_SEEDS, run_checks


def parse_seeds(spec: str) -> list[int]:
    """'a..b' (inclusive), 'a,b,c', or a single integer; never empty."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = (int(s) for s in spec.split("..", 1))
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"seeds must be 'a..b', 'a,b,c' or one integer, got {spec!r}") from None
    if not seeds:
        raise ValueError(f"seeds must name at least one seed, got {spec!r}")
    return seeds


def _load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the command-line overrides, validated once.

    Exits with a message naming the field when the result is invalid, or
    the file when it cannot be read as one JSON object, before anything
    runs or is written.
    """
    try:
        data = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{args.config} is not valid JSON: {exc}") from None
            if not isinstance(data, dict):
                raise ValueError(f"{args.config} must hold one JSON object")
        if getattr(args, "policy", None):
            data["policy"] = args.policy
        if getattr(args, "T", None) is not None:
            data["T"] = args.T
        if getattr(args, "delta", None) is not None:
            data["delta"] = args.delta
        if getattr(args, "seeds", None) is not None:
            data["seeds"] = parse_seeds(args.seeds)
        if getattr(args, "out", None):
            data["out_dir"] = args.out
        return ExperimentConfig.from_dict(data)
    except (OSError, TypeError, ValueError) as exc:
        print(f"mnl-bandit: invalid config: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _check_out(path: str, directory: bool) -> None:
    """Exit 2 with a message naming ``path`` unless a directory (``directory``)
    or a file can be written there, before anything runs: an existing
    ``path`` must be of that kind, and the nearest existing one of its
    ancestors a directory."""
    where, want_dir = path, directory
    while not os.path.exists(where):
        where, want_dir = os.path.dirname(os.path.abspath(where)), True
    if os.path.isdir(where) != want_dir:
        kind = "not a directory" if want_dir else "a directory"
        print(f"mnl-bandit: invalid output path {path}: {where} is {kind}", file=sys.stderr)
        raise SystemExit(2)


def cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"mnl-bandit: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    cfg = _load_config(args)
    out_dir = cfg.out_dir or "runs"
    _check_out(out_dir, directory=True)
    logs = run_many(cfg, cfg.seeds, jobs=args.jobs)
    paths = save_runs(logs, out_dir)
    summary = summarize_runs(logs)
    print(f"wrote {len(paths)} runs to {out_dir}")
    print(
        f"policy={cfg.policy} T={cfg.T} seeds={len(cfg.seeds)} "
        f"mean_final_regret={summary.final_mean_regret:.4f} "
        f"coverage_rate={summary.coverage_rate:.3f} "
        f"tail_slope={summary.loglog_slope:.3f}"
    )
    return 0


def cmd_check(args) -> int:
    names = args.only.split(",") if args.only else None
    unknown = sorted(set(names or ()) - CHECKS.keys())
    if unknown:
        print(
            f"unknown check name(s): {', '.join(unknown)}; valid names: {', '.join(CHECKS)}",
            file=sys.stderr,
        )
        return 1
    results = run_checks(names)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_summarize(args) -> int:
    if args.out:
        _check_out(os.path.join(args.out, "summary.json"), directory=False)
    paths = sorted(glob.glob(os.path.join(args.runs_dir, "*.csv")))
    if not paths:
        print(f"no run CSVs under {args.runs_dir}", file=sys.stderr)
        return 1
    col = CSV_COLUMNS.index("cum_regret")
    json_of = {p: os.path.splitext(p)[0] + ".json" for p in paths}
    metas = [m for m in json_of.values() if os.path.exists(m)]
    try:
        curves = {p: np.array([float(r[col]) for r in read_run_csv(p)]) for p in paths}
        metadata = {m: read_run_metadata(m) for m in metas}
        configs = {m: d["config"] for m, d in metadata.items()}
        check_aggregable({p: c.size for p, c in curves.items()}, configs)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    mean, stderr = curve_mean_stderr(np.vstack(list(curves.values())))
    T = mean.size
    out = {
        "n_runs": len(paths),
        "T": T,
        "final_mean_regret": float(mean[-1]) if T else 0.0,
        "final_stderr": float(stderr[-1]) if T else 0.0,
        # Per run CSV: rounds with theta_star in C, null where not tested or not recorded.
        "covered_C_rounds": [metadata.get(json_of[p], {}).get("covered_C_rounds") for p in paths],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dest = os.path.join(args.out, "summary.json")
        with open(dest, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"wrote {dest}")
    print(json.dumps(out, indent=2))
    return 0


def cmd_instance(args) -> int:
    if args.inspect:
        try:
            inst = Instance.load(args.inspect)
        except (OSError, TypeError, ValueError) as exc:
            print(f"mnl-bandit: invalid instance file {args.inspect}: {exc}", file=sys.stderr)
            return 2
        data = inst.to_dict()
        data["theta_star_norm"] = float(np.linalg.norm(inst.theta_star))
        print(json.dumps(data, indent=2))
        return 0
    if args.seed < 0:
        print(f"mnl-bandit: invalid --seed: must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    cfg = _load_config(args)
    if args.out:
        _check_out(args.out, directory=False)
    inst = make_instance(cfg, args.seed)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        inst.save(args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(inst.to_dict(), indent=2))
    return 0


def cmd_matrix(args) -> int:
    for name in MATRIX:
        _check_out(os.path.join(args.out, name), directory=True)
    for name, cfg in MATRIX.items():
        save_runs(run_many(cfg, MATRIX_SEEDS), os.path.join(args.out, name))
    print(f"wrote {len(MATRIX) * len(MATRIX_SEEDS)} runs to {args.out}")
    return 0


_REAL_TOL = 1e-9  # how far a reordered sum may move a real


def _diff_file(a: str, b: str) -> tuple[str, bool]:
    """How run file ``b`` differs from ``a``, and whether their plays differ."""
    if a.endswith(".json"):
        with open(a) as fa, open(b) as fb:
            ma, mb = json.load(fa), json.load(fb)
        keys = sorted(k for k in (ma.keys() | mb.keys()) - {"wall_time_s"} if ma.get(k) != mb.get(k))
        if keys:
            return f"metadata differs in {', '.join(keys)}", False
        return "metadata equal apart from wall_time_s", False
    rows_a, rows_b = read_run_csv(a), read_run_csv(b)
    if rows_a == rows_b:
        return "byte-identical", False
    plays = [j for j, real in enumerate(CSV_REALS) if not real]  # the integer columns
    for i in range(max(len(rows_a), len(rows_b))):
        if i >= min(len(rows_a), len(rows_b)) or any(rows_a[i][j] != rows_b[i][j] for j in plays):
            return f"plays differ from round {i + 1}", True
    worst: dict[str, float] = {}
    for ra, rb in zip(rows_a, rows_b):
        for name, x, y in zip(CSV_COLUMNS, ra, rb):
            if x != y:
                delta = abs(float(x) - float(y))
                worst[name] = max(worst.get(name, 0.0), math.inf if math.isnan(delta) else delta)
    side = "beyond" if max(worst.values()) > _REAL_TOL else "within"
    moved = ", ".join(f"{name} {v:.2g}" for name, v in worst.items())
    return f"integer columns identical; reals {side} 1e-9: {moved}", False


def cmd_diff(args) -> int:
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            print(f"{root} is not a directory", file=sys.stderr)
            return 1
    found = [
        {os.path.relpath(p, root) for ext in ("csv", "json")
         for p in glob.glob(os.path.join(root, "**", f"*.{ext}"), recursive=True)}
        for root in (args.a, args.b)
    ]
    if not found[0] | found[1]:
        print(f"no run files in {args.a} or {args.b}", file=sys.stderr)
        return 1
    bad = 0
    for rel in sorted(found[0] | found[1]):
        try:
            line, differ = _diff_file(os.path.join(args.a, rel), os.path.join(args.b, rel))
        except FileNotFoundError:
            line, differ = f"missing in {args.b if rel in found[0] else args.a}", True
        except (OSError, ValueError) as exc:
            line, differ = str(exc), True
        bad += differ
        print(f"{rel}: {line}")
    print(f"{len(found[0] | found[1])} files, {bad} missing or with different plays")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mnl-bandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config across seeds")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--seeds", help="'a..b', 'a,b,c', or one integer")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--policy", help=" | ".join(kind.value for kind in PolicyKind))
    p_run.add_argument("--T", type=int, help="horizon override")
    p_run.add_argument("--delta", type=float, help="confidence level override")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes, one per seed at most")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the property and lemma suites")
    p_check.add_argument("--only", help="comma-separated check names")
    p_check.set_defaults(func=cmd_check)

    p_sum = sub.add_parser("summarize", help="aggregate saved run CSVs")
    p_sum.add_argument("runs_dir", help="directory containing run CSVs")
    p_sum.add_argument("--out", help="directory for summary.json")
    p_sum.set_defaults(func=cmd_summarize)

    p_inst = sub.add_parser("instance", help="generate or inspect an instance")
    p_inst.add_argument("--config", help="JSON config file")
    p_inst.add_argument("--seed", type=int, default=0)
    p_inst.add_argument("--out", help="where to write the instance JSON")
    p_inst.add_argument("--inspect", help="print a saved instance")
    p_inst.set_defaults(func=cmd_instance)

    p_matrix = sub.add_parser("matrix", help="run the equivalence matrix")
    p_matrix.add_argument("--out", required=True, help="directory, one subdirectory per config")
    p_matrix.set_defaults(func=cmd_matrix)

    p_diff = sub.add_parser("diff", help="compare two run directories; exit 1 if plays differ")
    p_diff.add_argument("a", help="the reference run directory")
    p_diff.add_argument("b", help="the run directory compared with it")
    p_diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
