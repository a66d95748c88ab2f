"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro.cli datasets [--format json]
    python -m repro.cli train --dataset ICEWS14 --epochs 8 --out model.npz
    python -m repro.cli train --dataset ICEWS14 --checkpoint-dir runs/a --resume
    python -m repro.cli evaluate --dataset ICEWS14 --checkpoint model.npz
    python -m repro.cli diagnose --dataset ICEWS14 --checkpoint model.npz
    python -m repro.cli hypergraph --dataset YAGO --time 3
    python -m repro.cli drill --dataset YAGO --fault kill --at-batch 5

``train`` fits RETIA with validation early stopping and writes an
``.npz`` checkpoint; with ``--checkpoint-dir`` it also maintains
atomic, checksummed run-state checkpoints, exits with status 75
(``EX_TEMPFAIL``) on SIGINT/SIGTERM, and ``--resume`` continues from
the newest good checkpoint.  With ``--run-report run.jsonl`` the whole
run streams schema-validated JSONL telemetry (one event per epoch /
eval / checkpoint / non-finite skip) that ``report`` reconstructs and
``scripts/check_run_health.py`` gates on in CI.  ``evaluate`` reloads a
model and runs the paper's test protocol (optionally with online
continuous training).  ``diagnose`` decomposes that protocol into
per-relation / per-timestamp / seen-unseen views with a bounded rank
histogram.  ``drill`` runs the fault-injection harness (NaN loss,
mid-run kill, checkpoint corruption) against a short training run and
reports whether the runtime recovered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import zipfile

import numpy as np

from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.datasets import (
    DATASET_PROFILES,
    dataset_statistics,
    load_dataset,
)
from repro.eval import (
    diagnose_extrapolation,
    evaluate_extrapolation,
    format_diagnostics,
    known_entities_of,
)
from repro.graph import build_hyperrelation_graph
from repro.io import load_checkpoint, save_checkpoint
from repro.obs import (
    SCHEMA_VERSION,
    ProbeConfig,
    ReportError,
    RunReporter,
    read_events,
    summarize_run,
)
from repro.resilience import (
    EXIT_RESUMABLE,
    CheckpointManager,
    FaultInjector,
    ResilienceConfig,
    SimulatedCrash,
    TrainingInterrupted,
    flip_bit,
)


def _add_dataset_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        required=True,
        choices=sorted(DATASET_PROFILES),
        help="synthetic benchmark surrogate to use",
    )


def cmd_datasets(args: argparse.Namespace) -> int:
    """Print Table V-style statistics for every registered dataset."""
    statistics = {
        name: dataset_statistics(load_dataset(name)) for name in DATASET_PROFILES
    }
    if getattr(args, "format", "text") == "json":
        print(json.dumps(statistics, indent=2, sort_keys=True))
        return 0
    for stats in statistics.values():
        row = "  ".join(f"{key}={value}" for key, value in stats.items())
        print(row)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    try:
        config = RETIAConfig(
            num_entities=dataset.num_entities,
            num_relations=dataset.num_relations,
            dim=args.dim,
            history_length=args.history,
            num_kernels=args.kernels,
            seed=args.seed,
            dtype=args.dtype,
        )
    except ValueError as exc:
        print(f"invalid model config: {exc}", file=sys.stderr)
        return 2
    try:
        resilience = ResilienceConfig(
            checkpoint_dir=args.checkpoint_dir,
            keep=args.keep,
            checkpoint_every_batches=args.checkpoint_every,
        )
        trainer_config = TrainerConfig(epochs=args.epochs, patience=args.patience, seed=args.seed)
        probes = ProbeConfig(every_batches=args.probe_every) if args.probe_every else None
    except ValueError as exc:
        print(f"invalid training config: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    model = RETIA(config)
    reporter = RunReporter(args.run_report) if args.run_report else None
    trainer = Trainer(
        model,
        trainer_config,
        resilience=resilience,
        reporter=reporter,
        probes=probes,
    )
    try:
        log = trainer.fit(dataset.train, dataset.valid, resume=args.resume or None)
    except TrainingInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(
                f"run state saved to {exc.checkpoint_path}; "
                f"re-run with --resume to continue",
                file=sys.stderr,
            )
        return EXIT_RESUMABLE
    finally:
        if reporter is not None:
            reporter.close()
    for entry in log:
        valid = f" valid_mrr={entry.valid_mrr:.2f}" if entry.valid_mrr is not None else ""
        skips = f" nonfinite_skips={entry.nonfinite_skips}" if entry.nonfinite_skips else ""
        print(f"epoch {entry.epoch}: loss={entry.loss_joint:.4f}{valid}{skips}")
    written = save_checkpoint(args.out, model.state_dict(), config)
    print(f"checkpoint written to {written}")
    if args.run_report:
        print(f"run report written to {args.run_report}")
    return 0


def _load_eval_model(args: argparse.Namespace):
    """Rebuild a checkpointed model with train+valid history revealed."""
    dataset = load_dataset(args.dataset)
    try:
        state, config_dict = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        print(f"cannot read checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return dataset, None
    if config_dict is None:
        print("checkpoint has no config blob; cannot rebuild the model", file=sys.stderr)
        return dataset, None
    if getattr(args, "dtype", None):
        # Evaluate a float64 checkpoint under float32 (or vice versa):
        # parameters are cast on load, activations follow the policy.
        config_dict = dict(config_dict, dtype=args.dtype)
    try:
        model = RETIA(RETIAConfig.from_dict(config_dict))
        model.load_state_dict(state)
        model.set_history(dataset.train)
        for t in dataset.valid.timestamps:
            model.observe(dataset.valid.snapshot(int(t)))
    except (KeyError, TypeError, ValueError) as exc:
        print(
            f"checkpoint {args.checkpoint} does not fit dataset {args.dataset}: {exc}",
            file=sys.stderr,
        )
        return dataset, None
    model.eval()
    return dataset, model


def _open_eval_report(args: argparse.Namespace, command: str):
    """A run reporter framed with ``run_start`` (None without --run-report).

    ``scripts/check_run_health.py`` requires ``run_start``/``run_end``
    around every event stream.
    """
    if not args.run_report:
        return None
    reporter = RunReporter(args.run_report)
    reporter.emit(
        "run_start",
        schema_version=SCHEMA_VERSION,
        command=command,
        config={"dataset": args.dataset, "workers": args.eval_workers},
    )
    return reporter


def _close_eval_report(reporter, status: str) -> None:
    if reporter is not None:
        reporter.emit("run_end", status=status, epochs_completed=0)
        reporter.close()


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.parallel import ShardedEvalError

    try:
        online_config = TrainerConfig(online_steps=args.online_steps)
    except ValueError as exc:
        print(f"invalid evaluation config: {exc}", file=sys.stderr)
        return 2
    dataset, model = _load_eval_model(args)
    if model is None:
        return 1
    reporter = _open_eval_report(args, "evaluate")
    status = "failed"
    try:
        if args.online:
            trainer = Trainer(model, online_config)
            target = trainer.online_adapter(reporter=reporter)
        else:
            target = model
        if args.diagnostics:
            # The diagnostic decomposition runs the identical protocol
            # (same queries, pooled directions, observe-as-you-go), so
            # it replaces — not repeats — the aggregate pass.
            report = diagnose_extrapolation(
                target,
                dataset.test,
                known_entities=known_entities_of(dataset.train, dataset.valid),
                workers=args.eval_workers,
                reporter=reporter,
            )
            entity, relation = report.aggregate, report.relation_aggregate
        else:
            result = evaluate_extrapolation(
                target, dataset.test, workers=args.eval_workers, reporter=reporter
            )
            entity, relation = result.entity, result.relation
        status = "completed"
    except ShardedEvalError as exc:
        print(f"sharded evaluation refused: {exc}", file=sys.stderr)
        return 2
    finally:
        _close_eval_report(reporter, status)
    print("entity  :", {k: round(v, 2) for k, v in entity.items()})
    print("relation:", {k: round(v, 2) for k, v in relation.items()})
    if args.diagnostics:
        print(format_diagnostics(report))
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Per-relation / per-timestamp / seen-unseen evaluation diagnostics."""
    from repro.parallel import ShardedEvalError

    dataset, model = _load_eval_model(args)
    if model is None:
        return 1
    reporter = _open_eval_report(args, "diagnose")
    status = "failed"
    try:
        report = diagnose_extrapolation(
            model,
            dataset.test,
            known_entities=known_entities_of(dataset.train, dataset.valid),
            workers=args.eval_workers,
            reporter=reporter,
        )
        status = "completed"
    except ShardedEvalError as exc:
        print(f"sharded evaluation refused: {exc}", file=sys.stderr)
        return 2
    finally:
        _close_eval_report(reporter, status)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_diagnostics(report, top=args.top))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Reconstruct a run from its JSONL telemetry report."""
    try:
        events = read_events(args.report, strict=not args.no_validate)
    except (OSError, ReportError) as exc:
        print(f"unreadable run report: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(
            f"unreadable run report: {args.report} contains no events "
            "(empty or truncated before the first line)",
            file=sys.stderr,
        )
        return 1
    summary = summarize_run(events)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    print(f"run:      {summary['command'] or '?'}  ({summary['num_events']} events)")
    print(f"status:   {summary['status']}")
    if summary["config"]:
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(summary["config"].items()))
        print(f"config:   {knobs}")
    if summary["epochs"]:
        print("epoch  loss_joint  loss_ent  loss_rel        lr  skips  valid_mrr  seconds")
        for e in summary["epochs"]:
            mrr = f"{e['valid_mrr']:9.4f}" if e.get("valid_mrr") is not None else "        -"
            print(
                f"{e['epoch']:5d}  {e['loss_joint']:10.4f}  {e['loss_entity']:8.4f}  "
                f"{e['loss_relation']:8.4f}  {e['lr']:8.2e}  {e['nonfinite_skips']:5d}  "
                f"{mrr}  {e['seconds']:7.2f}"
            )
    if summary["phase_share"]:
        shares = "  ".join(
            f"{name} {share * 100:.1f}%"
            for name, share in summary["phase_share"].items()
        )
        print(f"phases:   {shares} (of {summary['epoch_seconds']:.2f}s epoch time)")
    if summary["checkpoints"]:
        kinds = {}
        for c in summary["checkpoints"]:
            kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        detail = ", ".join(f"{count}x {kind}" for kind, count in sorted(kinds.items()))
        print(f"checkpoints: {len(summary['checkpoints'])} ({detail})")
    skips = summary["nonfinite_skips"]
    print(
        f"nonfinite skips: {skips['total']} total, {skips['explained']} explained"
        + (f" (stages: {', '.join(skips['stages'])})" if skips["stages"] else "")
    )
    if summary["observes"]:
        print(f"online observes: {summary['observes']}")
    return 0


def cmd_hypergraph(args: argparse.Namespace) -> int:
    """Inspect the twin hyperrelation subgraph of one snapshot."""
    dataset = load_dataset(args.dataset)
    timestamps = dataset.graph.timestamps
    if args.time not in timestamps:
        print(
            f"invalid time: {args.time} is not a timestamp of {dataset.name} "
            f"(valid: {int(timestamps[0])}..{int(timestamps[-1])})",
            file=sys.stderr,
        )
        return 2
    snapshot = dataset.graph.snapshot(args.time)
    hyper = build_hyperrelation_graph(snapshot)
    print(f"{dataset.name} t={args.time}: {len(snapshot)} facts, {len(hyper)} hyperedges")
    if len(hyper):
        types, counts = np.unique(hyper.edges[:, 1], return_counts=True)
        for htype, count in zip(types, counts):
            print(f"  hyper type {int(htype)}: {int(count)} edges")
    return 0


def cmd_drill(args: argparse.Namespace) -> int:
    """Manual fault-injection drills against a short training run.

    Exercises the exact recovery paths the resilience tests assert:
    ``nan-loss`` (sentinel skip leaves parameters finite), ``kill``
    (mid-run crash, resume matches the uninterrupted run bit-for-bit)
    and ``corrupt`` (newest checkpoint bit-flipped, loader falls back
    to the previous good one).  Returns 0 when the drill recovers.
    """
    dataset = load_dataset(args.dataset)
    directory = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-drill-")
    model_config = RETIAConfig(
        num_entities=dataset.num_entities,
        num_relations=dataset.num_relations,
        dim=args.dim,
        history_length=2,
        num_kernels=4,
        seed=args.seed,
    )
    train_config = TrainerConfig(epochs=args.epochs, patience=10, seed=args.seed)

    def fresh(injector=None, checkpoint_dir=None):
        resilience = ResilienceConfig(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_batches=1,
            handle_signals=False,
        )
        return Trainer(
            RETIA(model_config), train_config,
            resilience=resilience, fault_injector=injector,
        )

    if args.fault == "nan-loss":
        trainer = fresh(FaultInjector(nan_loss_at=[args.at_batch]))
        log = trainer.fit(dataset.train, dataset.valid)
        skips = sum(entry.nonfinite_skips for entry in log)
        finite = trainer.model.parameters_finite()
        print(f"injected NaN at batch {args.at_batch}: "
              f"{skips} batch(es) skipped, parameters finite: {finite}")
        return 0 if (skips >= 1 and finite) else 1

    # kill / corrupt both start from a crashed checkpointed run.
    reference = fresh()
    reference.fit(dataset.train, dataset.valid)
    crashed = fresh(FaultInjector(kill_at_batch=args.at_batch), checkpoint_dir=directory)
    try:
        crashed.fit(dataset.train, dataset.valid)
        print("fault injector never fired (run too short?)", file=sys.stderr)
        return 1
    except SimulatedCrash as exc:
        print(f"crash injected: {exc}")

    if args.fault == "corrupt":
        manager = CheckpointManager(directory, keep=args.keep)
        latest = manager.latest()
        offset = flip_bit(latest)
        print(f"flipped bit at offset {offset} of {latest}")
        _, fallback = manager.load_latest()
        print(f"loader fell back to {fallback}")

    resumed = fresh(checkpoint_dir=directory)
    resumed.fit(dataset.train, dataset.valid, resume=True)
    match = resumed.model.fingerprint() == reference.model.fingerprint()
    print(f"resumed run matches uninterrupted run bit-for-bit: {match}")
    return 0 if match else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the resilient serving layer and drive it with the loadgen.

    Runs :func:`repro.serve.run_drill` on a synthetic dataset: a
    persistent decoder-only server, open-loop Poisson traffic with mixed
    score/topk/ingest, optional all-injectors chaos plan, and a graceful
    drain — either after the workload finishes or early on
    SIGINT/SIGTERM (the CI ``serve-chaos`` job gates on exit 0 plus a
    final ``drain`` event in the run report).  Bad load arguments exit 2
    before anything is built.
    """
    from contextlib import ExitStack

    from repro.bench.runner import bench_dataset, revealed_model
    from repro.obs import tracing
    from repro.resilience import GracefulInterrupt
    from repro.serve import STATE_CLOSED, LoadgenConfig, run_drill
    from repro.serve.loadgen import build_plans_traced

    try:
        load = LoadgenConfig(
            requests=args.requests,
            qps=args.qps,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"invalid load: {exc}", file=sys.stderr)
        return 2
    dataset = bench_dataset(args.dataset)
    model = revealed_model(dataset, seed=args.seed, dtype=args.dtype)
    trace_collector = trace_root = prebuilt = None
    with ExitStack() as stack, GracefulInterrupt() as interrupt:
        if args.trace_out:
            # One collector spans the whole drill; the forked planner
            # and the batcher's request spans stitch into it so the
            # Chrome trace shows every process.
            trace_collector = tracing.SpanCollector()
            stack.enter_context(tracing.collect_spans(trace_collector))
            trace_root = stack.enter_context(
                tracing.span("serve", dataset=args.dataset, chaos=args.chaos)
            )
            arrivals, plans, tree = build_plans_traced(
                dataset.num_entities,
                dataset.num_relations,
                len(dataset.test.timestamps),
                load,
            )
            prebuilt = (arrivals, plans)
            if tree is not None:
                trace_collector.splice(tree)
            else:
                print(
                    "warning: child planner unavailable; trace has one process only",
                    file=sys.stderr,
                )
        print(
            f"serving {args.dataset}: {args.requests} requests at "
            f"{args.qps:g} offered qps"
            + (" (chaos plan armed)" if args.chaos else "")
        )

        def interrupted() -> bool:
            # Polled until it first returns True; the drill then drains
            # at once, so this prints one line.
            if interrupt.triggered:
                print("signal received: draining", file=sys.stderr)
            return interrupt.triggered

        drill = run_drill(
            model,
            dataset,
            load,
            chaos=args.chaos,
            run_report=args.run_report,
            telemetry_dir=args.telemetry_dir,
            trace_collector=trace_collector,
            trace_root=trace_root,
            prebuilt=prebuilt,
            stop=interrupted,
        )

    if trace_collector is not None:
        doc = tracing.to_chrome_trace(
            trace_collector, pid=os.getpid(), process_name="repro-serve"
        )
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        meta = doc["metadata"]
        trace_pids = {
            e.get("pid") for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        print(
            f"trace: {args.trace_out}  spans: {meta['spans_recorded']}  "
            f"dropped: {meta['spans_dropped']}  processes: {len(trace_pids)}"
        )

    summary, server = drill.summary, drill.server
    if summary is None:
        print("no responses recorded", file=sys.stderr)
        return 1
    print(
        f"requests: {summary['requests']}  ok: {summary['ok']}  "
        f"shed: {summary['shed']}  deadline: {summary['deadline_exceeded']}  "
        f"errors: {summary['errors']}  invalid: {summary['invalid']}"
    )
    print(
        f"availability: {summary['availability']:.4f}  "
        f"shed rate: {summary['shed_rate']:.4f}  "
        f"achieved qps: {summary['qps']:.1f}"
    )
    print(
        f"latency: p50 {summary['serve_p50_seconds'] * 1000:.2f} ms  "
        f"p99 {summary['serve_p99_seconds'] * 1000:.2f} ms"
    )
    print(
        f"staleness max: {summary['max_staleness']}  "
        f"breaker: {server.breaker.state}  "
        f"store: v{server.store.describe()['version']}  "
        f"exemplars: {len(server.exemplars())}"
    )
    if args.chaos:
        faults = ", ".join(
            f"{k}={v}" for k, v in sorted(server.fault_injector.summary().items())
        )
        print(f"faults injected: {faults}")
        print(f"breaker recovered: {server.breaker.state == STATE_CLOSED}")
    print(f"clean drain: {drill.clean}")
    failed = not drill.clean or summary["errors"] > 0
    if args.min_availability is not None:
        met = summary["availability"] >= args.min_availability
        print(
            f"availability gate ({args.min_availability:.4f}): "
            f"{'ok' if met else 'FAILED'}"
        )
        failed = failed or not met
    return 1 if failed else 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail a ``--telemetry-dir`` into a terminal dashboard.

    Reads the ``telemetry.json`` snapshot a :class:`TelemetrySink`
    publishes atomically, derives QPS from ``serve_requests_total``
    deltas between ticks and p50/p99 from the latency histogram
    buckets, and prints one line per refresh plus the SLO burn rates.
    Ctrl-C exits cleanly; ``--once`` prints a single snapshot (what the
    CI scrape check uses).
    """
    import time

    from repro.obs import JSON_FILENAME, histogram_quantile

    path = os.path.join(args.directory, JSON_FILENAME)

    def load():
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def family(doc, name):
        for fam in (doc.get("metrics") or {}).get("metrics", []):
            if fam["name"] == name:
                return fam
        return None

    def counter_total(doc, name, **want):
        fam = family(doc, name)
        if fam is None:
            return 0.0
        total = 0.0
        for series in fam["series"]:
            labels = series.get("labels") or {}
            if all(labels.get(k) == v for k, v in want.items()):
                total += series["value"]
        return total

    def gauge_value(doc, name):
        fam = family(doc, name)
        if fam is None or not fam["series"]:
            return None
        return fam["series"][0]["value"]

    def latency_quantile(doc, q):
        fam = family(doc, "serve_latency_seconds")
        if fam is None or not fam["series"]:
            return float("nan")
        edges = [b["le"] for b in fam["series"][0]["buckets"]]
        totals = [0] * len(edges)
        for series in fam["series"]:
            for i, bucket in enumerate(series["buckets"]):
                totals[i] += bucket["count"]
        return histogram_quantile(q, list(zip(edges, totals)))

    breaker_names = {0.0: "closed", 1.0: "open", 2.0: "half_open"}
    prev = None  # (written_at, requests_total)
    try:
        while True:
            doc = load()
            if doc is None:
                print(f"waiting for {path} ...", file=sys.stderr)
            else:
                requests = counter_total(doc, "serve_requests_total")
                written_at = doc.get("written_at", 0.0)
                if prev is not None and written_at > prev[0]:
                    qps = (requests - prev[1]) / (written_at - prev[0])
                else:
                    qps = float("nan")
                prev = (written_at, requests)
                shed = counter_total(doc, "serve_shed_total")
                shed_rate = shed / requests if requests else 0.0
                staleness = gauge_value(doc, "serve_staleness")
                breaker = breaker_names.get(
                    gauge_value(doc, "serve_breaker_state"), "unknown"
                )
                p50 = latency_quantile(doc, 0.50)
                p99 = latency_quantile(doc, 0.99)
                print(
                    f"[seq {doc.get('sequence', '?')}] "
                    f"qps {qps:7.1f}  "
                    f"p50 {p50 * 1000:7.2f}ms  p99 {p99 * 1000:7.2f}ms  "
                    f"staleness {staleness if staleness is not None else '-'}  "
                    f"breaker {breaker}  shed {shed_rate * 100:.1f}%"
                )
                for name, state in sorted((doc.get("slo") or {}).items()):
                    flag = "FIRING" if state.get("firing") else "ok"
                    print(
                        f"  slo {name:<12} {flag:<6} "
                        f"burn fast {state.get('burn_fast', 0.0):6.2f} "
                        f"slow {state.get('burn_slow', 0.0):6.2f}  "
                        f"bad {state.get('window_bad', 0)}/"
                        f"{state.get('window_bad', 0) + state.get('window_good', 0)}"
                    )
            if args.once:
                return 0 if doc is not None else 1
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser("datasets", help="print dataset statistics")
    datasets.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    datasets.set_defaults(handler=cmd_datasets)

    train = commands.add_parser("train", help="train RETIA and save a checkpoint")
    _add_dataset_argument(train)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--patience", type=int, default=4)
    train.add_argument("--dim", type=int, default=24)
    train.add_argument("--history", type=int, default=3)
    train.add_argument("--kernels", type=int, default=12)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float64",
        help="model precision policy (float32 roughly halves step time)",
    )
    train.add_argument("--out", default="retia_checkpoint.npz")
    train.add_argument(
        "--checkpoint-dir",
        help="directory for atomic run-state checkpoints (enables crash recovery)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest good checkpoint in --checkpoint-dir",
    )
    train.add_argument("--keep", type=int, default=3, help="checkpoints to retain")
    train.add_argument(
        "--run-report",
        help="stream JSONL run telemetry (epochs, evals, checkpoints, skips) here",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="also checkpoint every N batches (0: epoch boundaries only)",
    )
    train.add_argument(
        "--probe-every",
        type=int,
        default=0,
        help="emit gradient/embedding/gate probes every N batches (0: off)",
    )
    train.set_defaults(handler=cmd_train)

    evaluate = commands.add_parser("evaluate", help="evaluate a checkpoint")
    _add_dataset_argument(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default=None,
        help="override the checkpoint's precision policy (default: as trained)",
    )
    evaluate.add_argument("--online", action="store_true", help="online continuous training")
    evaluate.add_argument("--online-steps", type=int, default=1)
    evaluate.add_argument(
        "--run-report",
        help="stream JSONL observe telemetry (with --online) here",
    )
    evaluate.add_argument(
        "--diagnostics",
        action="store_true",
        help="also print the per-relation / per-timestamp decomposition",
    )
    evaluate.add_argument(
        "--eval-workers",
        type=int,
        default=1,
        help="processes sharding the test timestamps (metrics are "
        "bit-identical for every worker count)",
    )
    evaluate.set_defaults(handler=cmd_evaluate)

    diagnose = commands.add_parser(
        "diagnose", help="decompose evaluation per relation / timestamp / novelty"
    )
    _add_dataset_argument(diagnose)
    diagnose.add_argument("--checkpoint", required=True)
    diagnose.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    diagnose.add_argument(
        "--top", type=int, default=5, help="worst-N relations to list (text format)"
    )
    diagnose.add_argument(
        "--run-report",
        help="also stream the decomposition as a JSONL diagnostic event here",
    )
    diagnose.add_argument(
        "--eval-workers",
        type=int,
        default=1,
        help="processes sharding the test timestamps (the decomposition "
        "is bit-identical for every worker count)",
    )
    diagnose.set_defaults(handler=cmd_diagnose)

    report = commands.add_parser(
        "report", help="summarise a JSONL run report written by train --run-report"
    )
    report.add_argument("report", help="path to the run.jsonl file")
    report.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    report.add_argument(
        "--no-validate",
        action="store_true",
        help="skip schema validation while parsing (inspect damaged logs)",
    )
    report.set_defaults(handler=cmd_report)

    hyper = commands.add_parser("hypergraph", help="inspect a hyperrelation subgraph")
    _add_dataset_argument(hyper)
    hyper.add_argument("--time", type=int, default=0)
    hyper.set_defaults(handler=cmd_hypergraph)

    serve = commands.add_parser(
        "serve", help="boot the model server and run the loadgen drill"
    )
    _add_dataset_argument(serve)
    serve.add_argument("--requests", type=int, default=160, help="loadgen requests")
    serve.add_argument("--qps", type=float, default=300.0, help="offered arrival rate")
    serve.add_argument(
        "--deadline-ms", type=float, default=500.0, help="per-request deadline budget"
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="arm the full fault plan (refresh failures, poisoned ingest, "
        "slow batches, clock-skewed deadlines)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float64",
        help="precision policy the served model runs under",
    )
    serve.add_argument(
        "--run-report",
        help="stream JSONL serve telemetry (requests, sheds, refreshes, "
        "breaker transitions, drain) here",
    )
    serve.add_argument(
        "--min-availability",
        type=float,
        default=None,
        help="exit 1 when availability over non-shed requests falls below this",
    )
    serve.add_argument(
        "--trace-out",
        help="write a Chrome trace (chrome://tracing) stitching the "
        "server, loadgen planner child process and exemplar request "
        "spans into one timeline",
    )
    serve.add_argument(
        "--telemetry-dir",
        help="publish telemetry.prom / telemetry.json snapshots here on "
        "a cadence (scrape targets; `repro.cli watch` tails them)",
    )
    serve.set_defaults(handler=cmd_serve)

    watch = commands.add_parser(
        "watch", help="tail a --telemetry-dir into a terminal dashboard"
    )
    watch.add_argument("directory", help="directory holding telemetry.json")
    watch.add_argument(
        "--interval", type=float, default=1.0, help="refresh cadence in seconds"
    )
    watch.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    watch.set_defaults(handler=cmd_watch)

    drill = commands.add_parser("drill", help="run a fault-injection recovery drill")
    _add_dataset_argument(drill)
    drill.add_argument(
        "--fault",
        required=True,
        choices=("nan-loss", "kill", "corrupt"),
        help="failure to inject",
    )
    drill.add_argument("--at-batch", type=int, default=5, help="global batch to hit")
    drill.add_argument("--epochs", type=int, default=2)
    drill.add_argument("--dim", type=int, default=8)
    drill.add_argument("--seed", type=int, default=0)
    drill.add_argument("--keep", type=int, default=3)
    drill.add_argument(
        "--checkpoint-dir", help="drill checkpoint directory (default: fresh temp dir)"
    )
    drill.set_defaults(handler=cmd_drill)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
