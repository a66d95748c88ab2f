#!/usr/bin/env python
"""CI telemetry gate: assert run-report invariants on a ``run.jsonl``.

Reads a JSONL run report written by ``repro.cli train --run-report`` and
checks that the run is *reconstructible and healthy*:

* the file parses, every event matches its schema, and the ``seq``
  counter is strictly monotone from 0 (no dropped or reordered events);
* the report is properly terminated — first event ``run_start``, last
  event ``run_end`` with an expected status;
* epoch numbers are strictly increasing and ``global_batch`` never goes
  backwards;
* the span tree is balanced: every epoch closed all spans it opened and
  dropped none;
* per-phase time is sane (non-negative, phases fit inside the epoch)
  and the encoder phases (hypergraph + ram + eam) stay within their
  share budget of epoch time — a silently exploding encoder fails CI
  before it shows up as a drifting benchmark table;
* every non-finite skip counted on an epoch is explained by exactly one
  ``nonfinite_skip`` event with a stage;
* probe events respect their declared cadence (``global_batch`` is a
  multiple of ``cadence``), report only finite measurements, and any
  probe carrying a non-finite gradient norm is paired with a
  ``nonfinite_skip`` event at the same global batch — an unexplained
  NaN gradient in telemetry fails CI;
* diagnostic events decompose losslessly: per-relation and
  per-timestamp query counts sum to the aggregate count and the
  frequency-weighted per-relation MRR reproduces the aggregate MRR;
* serve reports (``repro.cli serve --run-report``) replay legal breaker
  transitions, explain every shed, keep staleness monotone between
  publishes and end with ``drain`` then ``run_end``, whose totals
  match the ``request`` and ``shed`` events; with
  ``--min-availability`` the OK share of non-shed ``request`` events
  must meet the gate.

Exit code 0 when every check passes, 1 otherwise (one line per
violation).  Run this against a corrupted/truncated log and it fails —
that failure mode is itself exercised in CI.

Usage:
    PYTHONPATH=src python scripts/check_run_health.py run.jsonl \
        [--max-encoder-share 0.85] [--allow-status interrupted] \
        [--min-availability 0.99]
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.obs import (
    REFRESH_OUTCOMES,
    RUN_END_STATUSES,
    SHED_REASONS,
    ReportError,
    read_events,
)

ENCODER_PHASES = ("hypergraph", "ram", "eam")
#: Legal circuit-breaker edges (mirrors repro.serve.breaker, kept
#: literal here so the gate cannot drift silently with the code).
BREAKER_TRANSITIONS = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
}
#: Tolerance on "phases fit inside the epoch" (timer overhead jitter).
PHASE_SUM_SLACK = 1.05
#: Tolerance on the diagnostic MRR recomposition (float accumulation).
RECOMPOSITION_TOL = 1e-6


def _finite_leaves(value, path=""):
    """Yield ``(path, number)`` for every numeric leaf of a nested dict."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _finite_leaves(sub, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def check_probes(events: list) -> list:
    """Probe-event invariants (cadence, finiteness, skip pairing)."""
    problems = []
    probes = [e for e in events if e["event"] == "probe"]
    skip_batches = {
        e.get("global_batch")
        for e in events
        if e["event"] == "nonfinite_skip" and "global_batch" in e
    }
    cadences = set()
    for p in probes:
        where = f"probe at seq {p['seq']}"
        cadence = p["cadence"]
        cadences.add(cadence)
        if not isinstance(cadence, int) or cadence < 1:
            problems.append(f"{where}: invalid cadence {cadence!r}")
        elif p["global_batch"] % cadence:
            problems.append(
                f"{where}: global_batch {p['global_batch']} is off the "
                f"declared cadence of {cadence}"
            )
        nonfinite_grad = not math.isfinite(p["grad_norm"]) or any(
            not math.isfinite(stats.get("grad_norm", 0.0))
            for stats in p.get("modules", {}).values()
        )
        if nonfinite_grad and p["global_batch"] not in skip_batches:
            problems.append(
                f"{where}: non-finite gradient norm without a matching "
                f"nonfinite_skip at global_batch {p['global_batch']}"
            )
        # Everything that is not a gradient norm must always be finite:
        # weights, embedding norms and gate fractions survive a skipped
        # step untouched, so a NaN there is corruption, not a skip.
        for section in ("embeddings", "gates"):
            for path, number in _finite_leaves(p.get(section, {}), section):
                if not math.isfinite(number):
                    problems.append(f"{where}: non-finite value at {path}")
        for module, stats in p.get("modules", {}).items():
            for key in ("weight_norm",):
                if key in stats and not math.isfinite(stats[key]):
                    problems.append(f"{where}: non-finite {key} for module {module!r}")
    if len(cadences) > 1:
        problems.append(f"probe cadence changed mid-run: {sorted(cadences)}")
    return problems


def check_diagnostics(events: list) -> list:
    """Diagnostic-event invariants (finiteness, lossless decomposition)."""
    problems = []
    for d in (e for e in events if e["event"] == "diagnostic"):
        where = f"diagnostic at seq {d['seq']}"
        for path, number in _finite_leaves(d.get("aggregate", {}), "aggregate"):
            if not math.isfinite(number):
                problems.append(f"{where}: non-finite value at {path}")
        total = d.get("aggregate", {}).get("count", 0)
        for axis in ("relations", "timestamps"):
            groups = d.get(axis) or {}
            if not groups:
                continue
            group_total = sum(g.get("count", 0) for g in groups.values())
            if group_total != total:
                problems.append(
                    f"{where}: {axis} counts sum to {group_total}, "
                    f"aggregate has {total} queries (lossy decomposition)"
                )
        relations = d.get("relations") or {}
        if relations and total:
            weighted = sum(g["count"] * g["MRR"] for g in relations.values()) / total
            aggregate_mrr = d.get("aggregate", {}).get("MRR", 0.0)
            if abs(weighted - aggregate_mrr) > RECOMPOSITION_TOL:
                problems.append(
                    f"{where}: weighted per-relation MRR {weighted:.9f} does not "
                    f"recompose the aggregate {aggregate_mrr:.9f}"
                )
    return problems


KNOWN_REQUEST_STATUSES = {200, 400, 408, 500, 503}


def check_serve(events: list, min_availability=None) -> list:
    """Serving-layer invariants (DESIGN.md §8).

    * breaker transitions replay legally from ``closed``;
    * every shed is explained by a known reason, and the ``drain``
      totals (requests, sheds, 408s, ingests and the per-status counts)
      reconcile with the per-event stream;
    * ``staleness`` is monotone non-decreasing between snapshot
      publishes (``refresh_retry`` with outcome ``ok``) and resets only
      at a publish;
    * no ``500``-status requests — an internal error the ladder failed
      to degrade is never "expected";
    * the ``drain`` event terminates the serve stream (only ``run_end``
      may follow);
    * optionally, availability (OK responses over non-shed requests)
      meets ``min_availability``.
    """
    problems = []
    serve_kinds = {
        "request", "shed", "refresh_retry", "breaker_transition", "degraded", "drain",
    }
    serve_events = [e for e in events if e["event"] in serve_kinds]
    if not serve_events:
        return problems

    state = "closed"
    for e in (x for x in serve_events if x["event"] == "breaker_transition"):
        edge = (e["from_state"], e["to_state"])
        if edge not in BREAKER_TRANSITIONS:
            problems.append(
                f"breaker_transition at seq {e['seq']}: illegal edge "
                f"{edge[0]} -> {edge[1]}"
            )
        if e["from_state"] != state:
            problems.append(
                f"breaker_transition at seq {e['seq']}: claims from_state "
                f"{e['from_state']!r} but the replayed state is {state!r}"
            )
        state = e["to_state"]

    sheds = [e for e in serve_events if e["event"] == "shed"]
    for e in sheds:
        if e["reason"] not in SHED_REASONS:
            problems.append(
                f"shed at seq {e['seq']}: unexplained reason {e['reason']!r} "
                f"(known: {sorted(SHED_REASONS)})"
            )

    for e in (x for x in serve_events if x["event"] == "refresh_retry"):
        if e["outcome"] not in REFRESH_OUTCOMES:
            problems.append(
                f"refresh_retry at seq {e['seq']}: unknown outcome {e['outcome']!r}"
            )
        if not isinstance(e["attempt"], int) or e["attempt"] < 1:
            problems.append(
                f"refresh_retry at seq {e['seq']}: invalid attempt {e['attempt']!r}"
            )

    # Staleness: monotone non-decreasing between publishes, reset only
    # by a successful refresh.
    floor = 0
    for e in serve_events:
        if e["event"] == "refresh_retry" and e["outcome"] == "ok":
            floor = 0
        elif e["event"] == "request":
            staleness = e["staleness"]
            if not isinstance(staleness, int) or staleness < 0:
                problems.append(
                    f"request at seq {e['seq']}: invalid staleness {staleness!r}"
                )
                continue
            if staleness < floor:
                problems.append(
                    f"request at seq {e['seq']}: staleness dropped {floor} -> "
                    f"{staleness} without an intervening successful refresh"
                )
            floor = max(floor, staleness)

    requests = [e for e in serve_events if e["event"] == "request"]
    for e in requests:
        if e["status"] not in KNOWN_REQUEST_STATUSES:
            problems.append(
                f"request at seq {e['seq']}: unknown status {e['status']!r}"
            )
    errors = [e for e in requests if e["status"] == 500]
    for e in errors:
        problems.append(
            f"request at seq {e['seq']}: internal error (status 500): "
            f"{e.get('error', 'no error message')}"
        )

    drains = [e for e in serve_events if e["event"] == "drain"]
    if not drains:
        problems.append("serve events present but no drain event (unclean shutdown)")
    else:
        if len(drains) > 1:
            problems.append(f"{len(drains)} drain events (drain must be idempotent)")
        drain = drains[-1]
        trailing = [e["event"] for e in events if e["seq"] > drain["seq"]]
        if any(kind != "run_end" for kind in trailing):
            problems.append(
                f"events after drain: {trailing} (only run_end may follow)"
            )
        if drain["requests"] != len(requests):
            problems.append(
                f"drain claims {drain['requests']} request(s) but "
                f"{len(requests)} request event(s) were emitted"
            )
        if drain["shed"] != len(sheds):
            problems.append(
                f"drain claims {drain['shed']} shed(s) but {len(sheds)} "
                f"shed event(s) were emitted (unexplained sheds)"
            )
        deadline = sum(1 for e in requests if e["status"] == 408)
        if drain["deadline_exceeded"] != deadline:
            problems.append(
                f"drain claims {drain['deadline_exceeded']} deadline rejection(s) "
                f"but {deadline} request(s) have status 408"
            )
        by_status = {}
        for e in requests:
            by_status[str(e["status"])] = by_status.get(str(e["status"]), 0) + 1
        if drain.get("by_status") != by_status:
            problems.append(
                f"drain claims statuses {drain.get('by_status')} but the "
                f"request events have {by_status}"
            )
        ingests = sum(1 for e in requests if e["kind"] == "ingest")
        if drain.get("ingests") != ingests:
            problems.append(
                f"drain claims {drain.get('ingests')} ingest(s) but {ingests} "
                f"request event(s) have kind ingest"
            )
        if not drain.get("clean", False):
            problems.append("drain reports an unclean stop (worker failed to join)")

    if min_availability is not None and requests:
        ok = sum(1 for e in requests if e["status"] == 200)
        shed_requests = sum(1 for e in requests if e["status"] == 503)
        non_shed = max(1, len(requests) - shed_requests)
        availability = ok / non_shed
        if availability < min_availability:
            problems.append(
                f"availability {availability:.4f} ({ok}/{non_shed} non-shed "
                f"requests OK) below the {min_availability:.4f} gate"
            )
    return problems


def _phase_seconds(epoch_event: dict) -> dict:
    out = {}
    for name, stats in (epoch_event.get("phase_seconds") or {}).items():
        out[name] = stats["seconds"] if isinstance(stats, dict) else float(stats)
    return out


def check_events(
    events: list,
    max_encoder_share: float,
    allowed_statuses,
    min_availability=None,
) -> list:
    """All invariant violations found (empty means healthy)."""
    problems = []

    if not events:
        return ["report is empty"]
    if events[0]["event"] != "run_start":
        problems.append(f"first event is {events[0]['event']!r}, expected run_start")
    if events[-1]["event"] != "run_end":
        problems.append(
            f"last event is {events[-1]['event']!r}, expected run_end "
            "(truncated run?)"
        )
    else:
        status = events[-1]["status"]
        if status not in RUN_END_STATUSES:
            problems.append(f"run_end has unknown status {status!r}")
        elif status not in allowed_statuses:
            problems.append(
                f"run ended with status {status!r}, allowed: {sorted(allowed_statuses)}"
            )

    epochs = [e for e in events if e["event"] == "epoch"]
    skips = [e for e in events if e["event"] == "nonfinite_skip"]

    # Monotone counters beyond seq (which read_events already enforced).
    last_epoch = None
    for e in epochs:
        if last_epoch is not None and e["epoch"] <= last_epoch:
            problems.append(
                f"epoch numbers not strictly increasing ({last_epoch} -> {e['epoch']})"
            )
        last_epoch = e["epoch"]
    last_gb = None
    for e in events:
        if "global_batch" in e:
            if last_gb is not None and e["global_batch"] < last_gb:
                problems.append(
                    f"global_batch went backwards ({last_gb} -> {e['global_batch']}) "
                    f"at seq {e['seq']}"
                )
            last_gb = e["global_batch"]

    # Span tree balance and per-phase sanity.
    total_epoch_seconds = 0.0
    total_encoder_seconds = 0.0
    for e in epochs:
        if e.get("spans_open", 0) != 0:
            problems.append(
                f"epoch {e['epoch']}: {e['spans_open']} span(s) left open "
                "(unbalanced span tree)"
            )
        if e.get("spans_dropped", 0) != 0:
            problems.append(
                f"epoch {e['epoch']}: {e['spans_dropped']} span(s) dropped "
                "(collector overflow)"
            )
        phases = _phase_seconds(e)
        negative = [name for name, sec in phases.items() if sec < 0]
        if negative:
            problems.append(f"epoch {e['epoch']}: negative phase seconds {negative}")
        phase_sum = sum(phases.values())
        if e["seconds"] > 0 and phase_sum > e["seconds"] * PHASE_SUM_SLACK:
            problems.append(
                f"epoch {e['epoch']}: phases sum to {phase_sum:.3f}s but the epoch "
                f"took {e['seconds']:.3f}s (double-counted spans?)"
            )
        total_epoch_seconds += e["seconds"]
        total_encoder_seconds += sum(phases.get(name, 0.0) for name in ENCODER_PHASES)

    if epochs and total_epoch_seconds > 0:
        share = total_encoder_seconds / total_epoch_seconds
        if share > max_encoder_share:
            problems.append(
                f"encoder phases take {share * 100:.1f}% of epoch time, "
                f"budget is {max_encoder_share * 100:.1f}% "
                "(one encoder component is dominating the step)"
            )

    # Non-finite accounting: every counted skip has an explaining event.
    skips_by_epoch = {}
    for s in skips:
        skips_by_epoch[s["epoch"]] = skips_by_epoch.get(s["epoch"], 0) + 1
        if not s.get("stage"):
            problems.append(f"nonfinite_skip at seq {s['seq']} has no stage")
    for e in epochs:
        explained = skips_by_epoch.get(e["epoch"], 0)
        if explained != e["nonfinite_skips"]:
            problems.append(
                f"epoch {e['epoch']}: {e['nonfinite_skips']} skip(s) counted but "
                f"{explained} nonfinite_skip event(s) emitted (unexplained skips)"
            )
    orphans = set(skips_by_epoch) - {e["epoch"] for e in epochs}
    # Skips in an epoch that never completed (interrupted run) are fine
    # only when the run did not end "completed".
    if orphans and events[-1].get("status") == "completed":
        problems.append(f"nonfinite_skip events for unlogged epochs {sorted(orphans)}")

    # Epoch count consistency (fresh runs only: a resumed run's
    # epochs_completed includes epochs logged in the previous report).
    start = events[0]
    end = events[-1]
    if (
        end["event"] == "run_end"
        and start["event"] == "run_start"
        and not start.get("resumed", False)
        and end["epochs_completed"] != len(epochs)
    ):
        problems.append(
            f"run_end claims {end['epochs_completed']} epoch(s) but "
            f"{len(epochs)} epoch event(s) were logged"
        )

    problems.extend(check_probes(events))
    problems.extend(check_diagnostics(events))
    problems.extend(check_serve(events, min_availability=min_availability))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="path to the run.jsonl file")
    parser.add_argument(
        "--max-encoder-share",
        type=float,
        default=0.85,
        help="budget for (hypergraph+ram+eam) share of epoch time",
    )
    parser.add_argument(
        "--allow-status",
        action="append",
        default=None,
        help="acceptable run_end status (repeatable; default: completed)",
    )
    parser.add_argument(
        "--min-availability",
        type=float,
        default=None,
        help="serve gate: minimum OK fraction of non-shed requests "
        "(e.g. 0.99; default: no availability gate)",
    )
    args = parser.parse_args()
    allowed = set(args.allow_status or ["completed"])

    try:
        events = read_events(args.report)
    except OSError as exc:
        print(f"FAIL: cannot read {args.report}: {exc}")
        return 1
    except ReportError as exc:
        print(f"FAIL: malformed run report: {exc}")
        return 1

    problems = check_events(
        events,
        args.max_encoder_share,
        allowed,
        min_availability=args.min_availability,
    )
    epochs = sum(1 for e in events if e["event"] == "epoch")
    probes = sum(1 for e in events if e["event"] == "probe")
    requests = sum(1 for e in events if e["event"] == "request")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"OK: {args.report} is healthy "
        f"({len(events)} events, {epochs} epoch(s), {probes} probe(s), "
        f"{requests} serve request(s), seq monotone, spans balanced, "
        f"all non-finite skips and sheds explained)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
