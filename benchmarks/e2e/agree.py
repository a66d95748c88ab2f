"""Do two sets of untraced benchmark runs agree within each metric's bound?

    python3 benchmarks/e2e/agree.py A_DIR B_DIR

Each directory holds the result files ``run.py`` wrote (``--out``).  For
every (workload, end-to-end metric) row this prints each side's median
and quartiles and one verdict:

* ``unresolved`` -- a side's run-to-run spread, the distance between its
  quartiles over its median, is wider than the metric's bound, or a side
  has fewer than two runs;
* ``agree`` -- the medians differ by at most the bound, relative to A;
* ``differ`` -- they differ by more.

Bounds come from BENCHMARK.json.  The exit code is 0 only when every row
agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict:
    """``{(workload, metric): [values]}`` over the untraced result files."""
    rows: dict = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            rows.setdefault((record["workload"], name), []).append(metric["value"])
    return rows


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound: float) -> str:
    if len(a) < 2 or len(b) < 2:
        return "unresolved"
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    if (a3 - a1) / a2 > bound or (b3 - b1) / b2 > bound:
        return "unresolved"
    return "agree" if abs(b2 - a2) / a2 <= bound else "differ"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: agree.py A_DIR B_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = (load(Path(arg)) for arg in argv)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<12} {'metric':<12} {'bound':>6}  "
          f"{'A q1 / median / q3 (n)':>34}  {'B q1 / median / q3 (n)':>34}  verdict")
    disagreements = 0
    for workload in workloads:
        for name, bound in bounds.items():
            va, vb = a.get((workload, name), []), b.get((workload, name), [])
            sides = []
            for values in (va, vb):
                if len(values) >= 2:
                    q1, q2, q3 = quartiles(values)
                    sides.append(f"{q1:.4g} / {q2:.4g} / {q3:.4g} ({len(values)})")
                else:
                    sides.append(f"({len(values)})")
            result = verdict(va, vb, bound)
            disagreements += result != "agree"
            print(f"{workload:<12} {name:<12} {bound:>6.2f}  "
                  f"{sides[0]:>34}  {sides[1]:>34}  {result}")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
