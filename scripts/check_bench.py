#!/usr/bin/env python
"""Gate a change on the end-to-end benchmark: its runs against its base's.

    python scripts/check_bench.py BASE_DIR HEAD_DIR [--history PATH]

Each directory holds the result files ``benchmarks/e2e/run.py --out``
wrote for one side, taken in alternating pairs on one host.  Every
(workload, end-to-end metric) of BENCHMARK.json gets a row: each side's
quartiles and one verdict, by the metric's bound and direction:

* ``worse`` -- both sides' spread (quartile distance over median) is
  within the bound and head's median is worse than base's by more; or,
  whatever the spread, every head run is worse than every base run by
  more than the bound;
* ``unresolved`` -- a side's spread is wider than the bound, unless
  every head run beats every base run (``ok``) or the row is worse;
* ``ok`` -- otherwise.

Exit 1 when a row is worse, a head run is not ``correct`` or head's
failed share of operations exceeds base's; 3 when rows are only
unresolved; 2 on unusable input (a workload with fewer than two runs on
a side); 0 otherwise.  ``--history PATH`` appends one JSON line per
workload with head's median and quartiles per end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from agree import load, quartiles  # noqa: E402


def outcomes(directory: Path) -> dict:
    """``{workload: [record]}`` over the untraced result files."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def failed_share(records) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def describe(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q1:.4g} / {q2:.4g} / {q3:.4g} ({len(values)})"


def row_verdict(base, head, bound: float, sign: int) -> str:
    (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
    if (b3 - b1) / b2 <= bound and (h3 - h1) / h2 <= bound:
        return "worse" if sign * (h2 - b2) / b2 > bound else "ok"
    # A spread wider than the bound cannot hide a separation of the runs
    # themselves: head better in every pairing, or worse beyond the bound.
    changes = [sign * (h - b) / b for h in head for b in base]
    if max(changes) < 0:
        return "ok"
    return "worse" if min(changes) > bound else "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path)
    parser.add_argument("head_dir", type=Path)
    parser.add_argument("--history", help="append head's per-workload summary lines here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        base, head = load(args.base_dir), load(args.head_dir)
        base_runs, head_runs = outcomes(args.base_dir), outcomes(args.head_dir)
        for side, rows in (("base", base), ("head", head)):
            for workload in workloads:
                for metric in spec["end_to_end"]:
                    if len(rows.get((workload, metric["name"]), [])) < 2:
                        raise ValueError(f"{side} has < 2 runs of {workload} {metric['name']}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return 2

    problems, unresolved, lines = [], 0, []
    print(
        f"{'workload':<12} {'metric':<12} {'bound':>6}  {'base q1 / median / q3 (n)':>34}"
        f"  {'head q1 / median / q3 (n)':>34}  verdict"
    )
    for workload in workloads:
        if not all(r["correct"] for r in head_runs[workload]):
            problems.append(f"{workload}: a head run is not correct")
        if failed_share(head_runs[workload]) > failed_share(base_runs[workload]):
            problems.append(f"{workload}: head fails a larger share of operations")
        summary = {}
        for metric in spec["end_to_end"]:
            name, bound, unit = metric["name"], metric["bound"], metric["unit"]
            a, b = base[(workload, name)], head[(workload, name)]
            verdict = row_verdict(a, b, bound, 1 if metric["better"] == "lower" else -1)
            if verdict == "worse":
                problems.append(
                    f"{workload} {name}: median {quartiles(a)[1]:.4g} -> "
                    f"{quartiles(b)[1]:.4g} {unit}, bound {bound:.0%}"
                )
            unresolved += verdict == "unresolved"
            print(
                f"{workload:<12} {name:<12} {bound:>6.2f}  {describe(a):>34}  "
                f"{describe(b):>34}  {verdict}"
            )
            summary[name] = dict(zip(("q1", "median", "q3"), quartiles(b)), unit=unit)
        runs = head_runs[workload]
        lines.append(
            {
                "workload": workload,
                "commit": runs[0].get("environment", {}).get("git_commit", "unknown"),
                "runs": len(runs),
                "recorded_at": time.time(),
                "metrics": summary,
            }
        )

    if args.history:
        with open(args.history, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    for line in problems:
        print(f"FAIL: {line}")
    if problems:
        return 1
    if unresolved:
        print(f"UNRESOLVED: {unresolved} row(s) spread wider than their bound")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
