"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the lines ``run.py --record`` appended on one commit.  Per
workload and end-to-end metric this prints each side's median and
quartiles, the share of same-seed pairs the head wins (ties count for
neither side), and a verdict:

* better     -- at least ten pairs, the head wins at least 9/10 of them, and
                the medians differ by more than the base's quartile distance;
* worse      -- the head's median is worse than the base's by more than the
                metric's bound in BENCHMARK.json;
* unresolved -- not worse, but the base's quartile distance is wider than
                the bound and not every head run beats every base run;
* unchanged  -- otherwise.

``regret`` and ``fail_frac`` are deterministic per seed, so they are
compared pair by pair: ``unchanged`` when every pair is equal, otherwise
``better``, ``worse`` or ``changed`` (some pairs each way).  The exit code
is 1 when any verdict is ``worse``.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXTRA = {"regret": ("regret", "lower"), "fail_frac": ("frac", "lower")}


def load(path: str) -> tuple[dict, dict]:
    """{workload: {seed: values}} of the untraced records, and one record's env."""
    by_workload: dict[str, dict[int, dict[str, float]]] = defaultdict(dict)
    env: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            values = {k: m["value"] for k, m in rec["metrics"].items()}
            values.update({k: rec["extra"][k] for k in EXTRA})
            by_workload[rec["workload"]][rec["seed"]] = values
            env = rec["env"]
    return by_workload, env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], pairs, lower_is_better: bool, bound: float):
    sign = 1.0 if lower_is_better else -1.0
    q1, mb, q3 = quartiles(base)
    mh = statistics.median(head)
    gain = sign * (mb - mh)  # > 0 when the head is better
    diffs = [sign * (b - h) for b, h in pairs]
    share = sum(d > 0 for d in diffs) / len(pairs) if pairs else 0.0
    if bound == 0.0:  # deterministic per seed: the pairs decide alone
        if all(d == 0 for d in diffs):
            return "unchanged", share
        return ("better" if min(diffs) >= 0 else "worse" if max(diffs) <= 0 else "changed"), share
    if len(pairs) >= 10 and share >= 0.9 and gain > q3 - q1:
        return "better", share
    if -gain > bound * abs(mb):
        return "worse", share
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if q3 - q1 > bound * abs(mb) and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({k: (unit, better, 0.0) for k, (unit, better) in EXTRA.items()})
    (base, base_env), (head, head_env) = load(argv[0]), load(argv[1])
    print(f"base commit {base_env.get('commit')}  head commit {head_env.get('commit')}")
    worse = 0
    for workload in sorted(set(base) & set(head)):
        seeds = sorted(set(base[workload]) & set(head[workload]))
        print(f"\n{workload}: {len(seeds)} same-seed pairs")
        print(f"  {'metric':<14} {'unit':<6} {'base median [q1, q3]':<34} {'head median [q1, q3]':<34} win   verdict")
        for name, (unit, better, bound) in metrics.items():
            b = [base[workload][s][name] for s in sorted(base[workload])]
            h = [head[workload][s][name] for s in sorted(head[workload])]
            pairs = [(base[workload][s][name], head[workload][s][name]) for s in seeds]
            result, share = verdict(b, h, pairs, better == "lower", bound)
            worse += result == "worse"
            bq, hq = quartiles(b), quartiles(h)
            print(
                f"  {name:<14} {unit:<6} {bq[1]:<12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]".ljust(58)
                + f"{hq[1]:<12.6g} [{hq[0]:.6g}, {hq[2]:.6g}]".ljust(35)
                + f"{share:<5.2f} {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
