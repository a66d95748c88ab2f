"""End-to-end benchmark of the RETIA reproduction.

Runs from the root of a checkout, with no install step::

    python3 benchmarks/e2e/run.py [--workload W|all] [--seed S]
        [--seconds T] [--trace 0|1] [--out DIR]

``--workload all`` (the default) runs every workload in BENCHMARK.json,
each in a fresh subprocess, one after another.  A single workload prints
a table of its metrics, writes a result file (and, traced, a Chrome
trace) under ``--out``, and ends its standard output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  The exit
code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Environment switches of the program that would change what is measured.
PINNED_ENV = ("REPRO_DTYPE", "REPRO_FUSED_CELLS")
#: Relative tolerance of the seed-0 reference outputs (float32 BLAS
#: results may differ in the last bits between CPUs).
REFERENCE_RTOL = 2e-3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bootstrap() -> None:
    """Import the checkout's own ``src/repro`` under a pinned environment."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'repro'} is missing; run from a full checkout")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def describe(samples_s) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(samples_s)
    text = f"median {1e3 * statistics.median(samples_s):.3f} ms"
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            if q != 50.0:
                text += f", p{q:g} {1e3 * percentile(samples_s, q):.3f} ms"
            break
    return f"{text} (n={n})"


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run) -> dict:
    """The end-to-end metrics of an untraced run (names as in BENCHMARK.json)."""
    return {
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "op_p10_ms": 1e3 * percentile(run.op_s, 10),
    }


def check_reference(workload: str, outputs: dict) -> list:
    reference = json.loads((HERE / "reference.json").read_text()).get(workload, {})
    problems = []
    for key, expected in sorted(reference.items()):
        got = outputs.get(key)
        if got is None or not math.isclose(got, expected, rel_tol=REFERENCE_RTOL):
            problems.append(f"seed-0 output {key} = {got!r}, reference {expected!r}")
    return problems


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(workload: str, args, run, metrics: dict, units: dict, problems) -> None:
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print(f"  ops {run.attempted}  ops_failed {run.failed}")
    print(f"  op timing: {describe(run.op_s)}")
    print(f"  set-up: median of {len(run.setup_s)} = {statistics.median(run.setup_s):.4f} s")
    for name, (value, unit) in run.details.items():
        print(f"  {name:<16} {value:>14.6g} {unit}")
    if run.layers is None:
        for name, value in metrics.items():
            print(f"  {name:<16} {value:>14.6g} {units[name]}")
    else:
        from layertrace import LAYERS

        print(f"  {'layer (per op)':<26} {'self_s':>11} {'busy_s':>11} {'calls':>10}")
        for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.self_s"]):
            print(
                f"  {layer:<26} {metrics[f'{layer}.self_s']:>11.6f}"
                f" {metrics[f'{layer}.busy_s']:>11.6f} {metrics[f'{layer}.calls']:>10.2f}"
            )
        for name, value in metrics.items():
            if not name.endswith((".self_s", ".busy_s", ".calls")):
                print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for line in problems:
        print(f"  CHECK FAILED: {line}")


def write_files(out: Path, workload: str, args, record: dict, run) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        from repro.obs import tracing

        chrome = tracing.to_chrome_trace(run.tracer.collector, process_name=f"e2e {workload}")
        (out / f"{stem}.trace.json").write_text(json.dumps(chrome))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_one(args, spec: dict) -> int:
    import workloads

    run = workloads.WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = run.layers if args.trace else end_to_end(run)
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    problems = list(run.problems)
    if args.seed == 0:
        problems += check_reference(args.workload, run.outputs)
    correct = run.failed == 0 and not problems

    print_table(args.workload, args, run, metrics, units, problems)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(
        result,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        problems=problems,
        outputs=run.outputs,
        details={k: {"value": v, "unit": u} for k, (v, u) in run.details.items()},
        samples={"op_s": run.op_s, "setup_s": run.setup_s},
        environment=environment(args.seed),
    )
    write_files(Path(args.out), args.workload, args, record, run)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh interpreter, one after another.

    The children inherit the environment :func:`bootstrap` pinned.
    """
    worst = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv=None) -> int:
    bootstrap()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "e2e"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
