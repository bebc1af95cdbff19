"""Compare two sets of benchmark results: parent commit against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files run.py wrote
(.perfbench/results/*.trace0.*.json).  Every untraced run counts towards
the medians.  Runs are paired by workload and seed, in the order they
started when a seed was run more than once; run at least ten seeds on each
side, alternating which side runs first.  One row per workload and
end-to-end metric gives each side's median and quartiles, the ratio of the
medians with its base, and a verdict:

  better      the change wins at least 9/10 of the pairs (ties count for
              neither) over at least 10 pairs, and the medians differ by
              more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  within      no worse than the bound;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run.

A gain does not count when the change has more failed ops than the parent.
Exit code 1 if any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> tuple[dict[str, list[dict]], int]:
    """Untraced result records by workload, in the order they started, and
    the number of result files read."""
    paths = sorted(directory.glob("*.json"))
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        if not record["env"]["trace"]:
            runs[record["env"]["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["env"]["started_unix"])
    return runs, len(paths)


def pair(parents: list[dict], changes: list[dict]) -> list[tuple[dict, dict]]:
    """Parent and change runs of the same seed, k-th with k-th."""
    by_seed: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, records in enumerate((parents, changes)):
        for record in records:
            by_seed[record["env"]["seed"]][side].append(record)
    return [p for seed in sorted(by_seed) for p in zip(*by_seed[seed])]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float, more_failures: bool) -> tuple[str, int]:
    sign = 1 if higher_is_better else -1
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_share = sign * (median - change_median) / median
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (q3 - q1) / median > bound and not every_run_better:
        return "unresolved", wins
    if worse_share > bound:
        return "worse", wins
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (change_median - median) > q3 - q1 and not more_failures):
        return "better", wins
    return "within", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare parent and change benchmark results")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    (parent_runs, parent_files), (change_runs, change_files) = load(args.parent), load(args.change)
    print(f"parent: {parent_files} result files read, {sum(map(len, parent_runs.values()))} untraced runs used; "
          f"change: {change_files} read, {sum(map(len, change_runs.values()))} used")
    any_worse = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parents, changes = parent_runs[workload], change_runs[workload]
        pairs = pair(parents, changes)
        parent_first = sum(1 for p, c in pairs if p["env"]["started_unix"] < c["env"]["started_unix"])
        failed = [sum(r["failed"] for r in side) for side in (parents, changes)]
        print(f"{workload}: {len(parents)} parent runs, {len(changes)} change runs, "
              f"{len(pairs)} pairs by seed ({parent_first} with the parent first); "
              f"failed ops parent {failed[0]}, change {failed[1]}")
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            parent = [r["metrics"][name]["value"] for r in parents]
            change = [r["metrics"][name]["value"] for r in changes]
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            result, wins = verdict(parent, change, values, metric["better"] == "higher",
                                   metric["bound"], failed[1] > failed[0])
            any_worse |= result == "worse"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"  {workload:10s} {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] {unit} (n={len(parent)})"
                  f" | change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] (n={len(change)})"
                  f" | change/parent = {cq[1] / pq[1]:.4f} (base: parent median {pq[1]:.6g} {unit})"
                  f" | parent spread {(pq[2] - pq[0]) / pq[1]:.3f} vs bound {metric['bound']}"
                  f" | change wins {wins}/{len(values)} pairs | {result}")
    for workload in sorted(set(parent_runs) ^ set(change_runs)):
        print(f"{workload}: results on one side only, not compared")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
