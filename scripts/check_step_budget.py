#!/usr/bin/env python
"""CI smoke benchmark: fail if the cells, decoder or full step regress.

Runs the instrumented decoder benchmark (batched Conv-TransE decode
under the baseline's precision policy) plus the recurrent-cell
micro-benchmark on the synthetic ICEWS14 surrogate and compares every
measured figure against the checked-in budgets:

* ``decoder_seconds_per_step`` (``benchmarks/decoder_baseline.json``) —
  the Eq. 11-14 decode + time-variability losses;
* ``seconds_per_step`` (same file) — the full training step (loss +
  backward), the headline number that catches a regression anywhere in
  the step, not just in the decode;
* ``cell_seconds_per_step`` (``benchmarks/cell_baseline.json``) — one
  pass through every fused recurrent cell an encoder step runs (EAM +
  RAM GRUs, TIM relation + hyperrelation LSTMs), forward and backward.

Any figure exceeding ``baseline * tolerance`` (default 2x, generous
enough to absorb CI hardware variation while still catching a return to
the per-snapshot decode loop, an accidental float64 fallback, or a lost
fused kernel) fails the gate.  A missing or unreadable baseline is a
hard failure — a silently absent budget is the same as no gate at all.

The measurement is also emitted in the :class:`repro.obs.MetricsRegistry`
JSON format (``--metrics-out``), which CI uploads as a build artifact.

Usage:
    PYTHONPATH=src python scripts/check_step_budget.py \
        [--tolerance 2.0] [--metrics-out decoder_metrics.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import benchmark_cell, benchmark_decoder
from repro.obs import MetricsRegistry

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BASELINE_PATH = _BENCH_DIR / "decoder_baseline.json"
CELL_BASELINE_PATH = _BENCH_DIR / "cell_baseline.json"

REQUIRED_KEYS = ("dataset", "decoder_seconds_per_step", "seconds_per_step")
CELL_REQUIRED_KEYS = ("dataset", "cell_seconds_per_step")


def load_baseline(path: Path, required=REQUIRED_KEYS) -> dict:
    """The checked-in budgets; any problem reading them fails the gate."""
    try:
        baseline = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"FAIL: baseline file {path} is missing — the step budget gate "
            "cannot run. Restore it or regenerate with --update-baseline "
            "against a known-good checkout."
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"FAIL: baseline file {path} is unreadable: {exc}")
    missing = [key for key in required if key not in baseline]
    if missing:
        raise SystemExit(f"FAIL: baseline file {path} lacks required keys {missing}")
    return baseline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed slowdown factor over the checked-in budgets",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured timings back to the baseline file",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the measurement as MetricsRegistry JSON to this path",
    )
    args = parser.parse_args()

    baseline = load_baseline(BASELINE_PATH)
    cell_baseline = load_baseline(CELL_BASELINE_PATH, CELL_REQUIRED_KEYS)
    dtype = baseline.get("dtype", "float32")
    cell_dtype = cell_baseline.get("dtype", "float32")
    registry = MetricsRegistry()
    result = benchmark_decoder(baseline["dataset"], dtype=dtype, registry=registry)
    cell_result = benchmark_cell(
        cell_baseline["dataset"], dtype=cell_dtype, registry=registry
    )
    decoder_ms = result["decoder_seconds_per_step"] * 1000
    full_ms = result["seconds_per_step"] * 1000
    cell_ms = cell_result["cell_seconds_per_step"] * 1000
    decoder_budget_ms = baseline["decoder_seconds_per_step"] * 1000 * args.tolerance
    full_budget_ms = baseline["seconds_per_step"] * 1000 * args.tolerance
    cell_budget_ms = cell_baseline["cell_seconds_per_step"] * 1000 * args.tolerance
    registry.gauge(
        "decoder_budget_seconds", help="baseline * tolerance, the decoder threshold"
    ).set(decoder_budget_ms / 1000, dataset=result["dataset"], dtype=dtype)
    registry.gauge(
        "step_budget_seconds", help="baseline * tolerance, the full-step threshold"
    ).set(full_budget_ms / 1000, dataset=result["dataset"], dtype=dtype)
    registry.gauge(
        "cell_budget_seconds", help="baseline * tolerance, the cell threshold"
    ).set(cell_budget_ms / 1000, dataset=cell_result["dataset"], dtype=cell_dtype)

    print(f"dataset:            {result['dataset']} ({result['steps']} steps, {dtype})")
    print(f"decoder step:       {decoder_ms:.2f} ms "
          f"(budget {decoder_budget_ms:.2f} ms = "
          f"{baseline['decoder_seconds_per_step'] * 1000:.2f} ms x {args.tolerance:g})")
    print(f"full training step: {full_ms:.2f} ms "
          f"(budget {full_budget_ms:.2f} ms = "
          f"{baseline['seconds_per_step'] * 1000:.2f} ms x {args.tolerance:g})")
    print(f"recurrent cells:    {cell_ms:.2f} ms "
          f"(budget {cell_budget_ms:.2f} ms = "
          f"{cell_baseline['cell_seconds_per_step'] * 1000:.2f} ms x {args.tolerance:g})")
    for name, stats in result["phases"].items():
        print(f"  phase {name:<11} {stats['seconds'] * 1000:8.1f} ms "
              f"over {stats['calls']} calls")

    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}")

    if args.update_baseline:
        baseline["decoder_seconds_per_step"] = result["decoder_seconds_per_step"]
        baseline["seconds_per_step"] = result["seconds_per_step"]
        baseline["dtype"] = result["dtype"]
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline updated: {BASELINE_PATH}")
        cell_baseline["cell_seconds_per_step"] = cell_result["cell_seconds_per_step"]
        cell_baseline["dtype"] = cell_result["dtype"]
        CELL_BASELINE_PATH.write_text(json.dumps(cell_baseline, indent=2) + "\n")
        print(f"baseline updated: {CELL_BASELINE_PATH}")
        return 0

    failed = False
    if decoder_ms > decoder_budget_ms:
        print(f"FAIL: decoder step {decoder_ms:.2f} ms exceeds "
              f"budget {decoder_budget_ms:.2f} ms")
        failed = True
    if full_ms > full_budget_ms:
        print(f"FAIL: full step {full_ms:.2f} ms exceeds "
              f"budget {full_budget_ms:.2f} ms")
        failed = True
    if cell_ms > cell_budget_ms:
        print(f"FAIL: recurrent cells {cell_ms:.2f} ms exceeds "
              f"budget {cell_budget_ms:.2f} ms")
        failed = True
    if failed:
        return 1
    print("OK: cells, decoder and full step within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
