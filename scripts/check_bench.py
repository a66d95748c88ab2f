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

``--claim WORKLOAD/METRIC`` (repeatable) also tests a claimed gain.  The
runs of each side are put in run order (the ``time.time_ns()`` in each
result file's name) and paired, base run i with head run i.  The claim
holds when head is better in at least nine of every ten pairs (a tie
counts for neither side) and head's median beats base's by more than
base's own quartile distance.  It needs at least ten pairs and as many
runs on each side (exit 2 otherwise); a claim that does not hold exits 1
and names the rule, or both rules, it missed.
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


#: A claimed gain needs this many pairs, and head winning this share of them.
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def run_order(path: Path) -> int:
    """The ``time.time_ns()`` that ``run.py`` puts last in a result file's name."""
    try:
        return int(path.stem.rsplit(".", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"{path.name} is not named like a run.py result") from None


def outcomes(directory: Path) -> dict:
    """``{workload: [record]}`` over the untraced result files, in run order."""
    runs: dict = {}
    paths = [p for p in directory.glob("*.json") if not p.name.endswith(".trace.json")]
    for path in sorted(paths, key=run_order):
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


def claim_verdict(base, head, sign: int) -> tuple:
    """``(missed, summary)`` of a claimed gain over run-ordered pairs.

    ``missed`` names each rule the claim fails; it is empty when the claim holds.
    """
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    (b1, b2, b3), (_, h2, _) = quartiles(base), quartiles(head)
    missed = []
    if wins < CLAIM_WIN_SHARE * len(base):
        missed.append(f"head won fewer than {CLAIM_WIN_SHARE:.0%} of the pairs")
    if not sign * (b2 - h2) > b3 - b1:
        missed.append(f"median gain {sign * (b2 - h2):.4g} is not above base IQR {b3 - b1:.4g}")
    summary = (
        f"head won {wins}/{len(base)} pairs, median {b2:.4g} -> {h2:.4g}, "
        f"base IQR {b3 - b1:.4g}"
    )
    return missed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path)
    parser.add_argument("head_dir", type=Path)
    parser.add_argument("--history", help="append head's per-workload summary lines here")
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD/METRIC",
        help="also require a gain on this end-to-end metric (repeatable)",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    try:
        base, head = load(args.base_dir), load(args.head_dir)
        base_runs, head_runs = outcomes(args.base_dir), outcomes(args.head_dir)
        for side, rows in (("base", base), ("head", head)):
            for workload in workloads:
                for metric in spec["end_to_end"]:
                    if len(rows.get((workload, metric["name"]), [])) < 2:
                        raise ValueError(f"{side} has < 2 runs of {workload} {metric['name']}")
        claims = []
        for claim in args.claim:
            workload, _, name = claim.partition("/")
            if workload not in workloads or name not in metrics:
                raise ValueError(f"claim {claim!r} names no benchmark workload/metric")
            counts = len(base_runs[workload]), len(head_runs[workload])
            if counts[0] != counts[1] or counts[0] < CLAIM_PAIRS:
                raise ValueError(
                    f"claim {claim} needs >= {CLAIM_PAIRS} runs on each side, as many "
                    f"on both; got base {counts[0]}, head {counts[1]}"
                )
            claims.append((claim, workload, metrics[name]))
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

    for claim, workload, metric in claims:
        values = [
            [run["metrics"][metric["name"]]["value"] for run in side[workload]]
            for side in (base_runs, head_runs)
        ]
        missed, summary = claim_verdict(*values, 1 if metric["better"] == "lower" else -1)
        verdict = f"not met ({'; '.join(missed)})" if missed else "met"
        print(f"claim {claim}: {summary} {metric['unit']}: {verdict}")
        if missed:
            problems.append(f"claim {claim} {verdict}")

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
