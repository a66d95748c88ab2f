#!/usr/bin/env python
"""CI scale gate: every candidate scorer reproduces the legacy ranks.

On the ICEWS14 surrogate, the full evaluation protocol is run once per
candidate scoring strategy (the legacy dense decode, the seam's
``dense``/``blocked``/``topk`` strategies) against freshly seeded
identical models, and every entity metric dict must be *exactly* equal.
Blocked and top-k scoring are bitwise-identical to dense by
construction (a blocking-invariant ``einsum`` kernel); this gate proves
it end to end, including the mask/dedup plumbing (DESIGN.md §9).

The large-vocabulary wall-clock and peak-RSS budgets are the ``scale``
series of the perf gate: ``python -m repro.cli bench --dataset
ICEWS-SCALE --component scale --eval-workers 2 --gate``.

The per-strategy metrics are also emitted in the
:class:`repro.obs.MetricsRegistry` JSON format (``--metrics-out``),
which CI uploads as a build artifact.

Usage:
    PYTHONPATH=src python scripts/check_scale_gate.py \
        [--seed 0] [--metrics-out scale_metrics.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Strategies the gate compares.  ``legacy`` is the pre-seam dense
#: matmul decode (``model.scorer is None``); the rest route through the
#: scorer seam.  Odd block sizes on purpose: uneven final blocks are
#: the regression-prone case.
RANK_STRATEGIES = ("legacy", "dense", "blocked:7:40", "topk:10")


def check_rank_identity(seed: int, registry) -> list:
    """Entity metrics must be exactly equal across scoring strategies."""
    from repro.bench.runner import BENCH_PROFILES, build_retia_config
    from repro.core import RETIA
    from repro.datasets import load_dataset
    from repro.parallel import evaluate_extrapolation_sharded

    dataset = load_dataset("ICEWS14")
    profile = BENCH_PROFILES["ICEWS14"]

    def fresh_model():
        model = RETIA(build_retia_config(dataset, profile, seed=seed))
        model.set_history(dataset.train)
        for t in dataset.valid.timestamps:
            model.record_snapshot(dataset.valid.snapshot(int(t)))
        model.eval()
        return model

    metrics = {}
    for spec in RANK_STRATEGIES:
        model = fresh_model()
        model.set_scorer(None if spec == "legacy" else spec)
        result = evaluate_extrapolation_sharded(
            model, dataset.test, evaluate_relations=False, workers=1
        )
        metrics[spec] = result.entity
        shown = {k: round(v, 6) for k, v in result.entity.items()}
        print(f"{spec:<14} entity metrics {shown}")
        for metric, value in result.entity.items():
            registry.gauge(
                "scale_rank_identity_metric",
                help="entity metric per candidate scoring strategy",
            ).set(value, dataset=dataset.name, scorer=spec, metric=metric)

    problems = []
    reference = metrics[RANK_STRATEGIES[0]]
    for spec in RANK_STRATEGIES[1:]:
        if metrics[spec] != reference:
            problems.append(
                f"scorer {spec!r} entity metrics {metrics[spec]} differ from "
                f"{RANK_STRATEGIES[0]!r} metrics {reference}"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metrics-out",
        help="write the per-strategy metrics as MetricsRegistry JSON to this path",
    )
    args = parser.parse_args()

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    problems = check_rank_identity(args.seed, registry)

    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("OK: rank identity holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
