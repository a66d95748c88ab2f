"""Tests for the observability layer: metrics, tracing, run reports."""

import io
import json
import threading

import pytest

from repro.obs import (
    EVENT_SCHEMAS,
    MetricError,
    MetricsRegistry,
    ReportError,
    RunReporter,
    SpanCollector,
    collect_spans,
    read_events,
    span,
    summarize_run,
    tracing,
)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestRegistryLabels:
    def test_label_order_addresses_same_series(self):
        registry = MetricsRegistry()
        c = registry.counter("batches_total")
        c.inc(2, dataset="YAGO", split="train")
        c.inc(3, split="train", dataset="YAGO")
        assert c.value(dataset="YAGO", split="train") == 5

    def test_distinct_label_values_are_distinct_series(self):
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc(dataset="YAGO")
        c.inc(dataset="ICEWS14")
        c.inc(dataset="ICEWS14")
        assert c.value(dataset="YAGO") == 1
        assert c.value(dataset="ICEWS14") == 2

    def test_label_names_fixed_by_first_use(self):
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc(dataset="YAGO")
        with pytest.raises(MetricError):
            c.inc(phase="ram")

    def test_unlabeled_series_is_the_empty_label_set(self):
        registry = MetricsRegistry()
        g = registry.gauge("lr")
        g.set(0.01)
        assert g.value() == 0.01
        exported = g.to_dict()["series"]
        assert exported == [{"labels": {}, "value": 0.01}]

    def test_reregistration_returns_existing_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("steps")
        b = registry.counter("steps")
        assert a is b

    def test_reregistration_with_other_type_raises(self):
        registry = MetricsRegistry()
        registry.counter("steps")
        with pytest.raises(MetricError):
            registry.gauge("steps")

    def test_histogram_reregistration_with_other_buckets_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.1, 1.0))
        assert registry.histogram("lat", buckets=(0.1, 1.0)) is registry.get("lat")
        with pytest.raises(MetricError):
            registry.histogram("lat", buckets=(0.5, 1.0))

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("steps").inc(-1)


class TestHistogramBuckets:
    def test_edges_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.1, 0.05, 1.0, 2.0):
            h.observe(value)
        series = h.labels()
        # 0.05 and 0.1 land in le=0.1; 1.0 in le=1.0; 2.0 in +inf.
        assert series.counts == [2, 1, 1]
        assert series.count == 4
        assert series.sum == pytest.approx(3.15)

    def test_export_is_cumulative_with_inf_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        buckets = h.labels().to_dict()["buckets"]
        assert buckets == [
            {"le": 0.1, "count": 1},
            {"le": 1.0, "count": 2},
            {"le": "+inf", "count": 3},
        ]

    def test_unsorted_or_duplicate_edges_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("bad", buckets=(1.0, 0.1))
        with pytest.raises(MetricError):
            registry.histogram("dup", buckets=(0.1, 0.1))
        with pytest.raises(MetricError):
            registry.histogram("empty", buckets=())

    def test_registry_json_is_stable_and_parseable(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(3, dataset="YAGO")
        registry.gauge("a_share").set(0.5)
        registry.histogram("lat", buckets=(1.0,)).observe(0.2)
        payload = json.loads(registry.to_json())
        assert [m["name"] for m in payload["metrics"]] == ["a_share", "b_total", "lat"]


class TestNonFiniteGuards:
    """NaN/Inf updates divert to a side counter instead of poisoning."""

    def test_histogram_diverts_nonfinite_observations(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(float("nan"))
        h.observe(float("inf"))
        h.observe(float("-inf"))
        series = h.labels()
        assert series.count == 1
        assert series.sum == pytest.approx(0.05)
        assert series.nonfinite == 3
        assert series.to_dict()["nonfinite"] == 3

    def test_gauge_set_and_inc_keep_last_finite_value(self):
        registry = MetricsRegistry()
        g = registry.gauge("p99")
        g.set(3.0)
        g.set(float("nan"))
        g.labels().inc(float("inf"))
        assert g.value() == 3.0
        assert g.labels().nonfinite == 2

    def test_counter_diverts_nonfinite_before_sign_check(self):
        registry = MetricsRegistry()
        c = registry.counter("steps")
        c.inc(2)
        # NaN is not < 0, so without the guard it would slip past the
        # monotonicity check and poison the value.
        c.inc(float("nan"))
        assert c.value() == 2
        assert c.labels().nonfinite == 1

    def test_finite_series_export_has_no_nonfinite_key(self):
        registry = MetricsRegistry()
        registry.counter("ok").inc()
        assert "nonfinite" not in registry.get("ok").labels().to_dict()


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class TestSpans:
    def test_no_collector_fast_path_yields_none_and_records_nothing(self):
        assert tracing.active() is None
        with span("evolve", facts=12) as s:
            assert s is None

    def test_nesting_builds_parent_child_tree(self):
        collector = SpanCollector()
        with collect_spans(collector):
            with span("evolve") as root:
                with span("ram", hyper_edges=7) as mid:
                    with span("ram.gcn"):
                        pass
                with span("eam"):
                    pass
        assert collector.is_balanced()
        assert collector.open_count == 0
        assert [s.name for s in collector.roots()] == ["evolve"]
        assert [s.name for s in collector.children(root)] == ["ram", "eam"]
        assert mid.meta == {"hyper_edges": 7}
        (tree,) = collector.tree()
        assert tree["name"] == "evolve"
        assert [kid["name"] for kid in tree["children"]] == ["ram", "eam"]
        assert tree["children"][0]["children"][0]["name"] == "ram.gcn"
        assert tree["children"][0]["children"][0]["depth"] == 2

    def test_summary_max_depth_zero_keeps_roots_only(self):
        collector = SpanCollector()
        with collect_spans(collector):
            for _ in range(2):
                with span("evolve"):
                    with span("ram"):
                        pass
        roots_only = collector.summary(max_depth=0)
        assert set(roots_only) == {"evolve"}
        assert set(collector.summary()) == {"evolve", "ram"}
        assert roots_only["evolve"]["calls"] == 2
        assert roots_only["evolve"]["seconds"] == sum(s.seconds for s in collector.roots())

    def test_max_spans_bound_counts_drops_and_stays_balanced(self):
        collector = SpanCollector(max_spans=2)
        with collect_spans(collector):
            for _ in range(4):
                with span("step"):
                    pass
        assert len(collector.spans) == 2
        assert collector.dropped == 2
        assert collector.is_balanced()

    def test_drops_surface_in_summary_and_chrome_metadata(self):
        collector = SpanCollector(max_spans=1)
        with collect_spans(collector):
            for _ in range(3):
                with span("step"):
                    pass
        summary = collector.summary()
        assert summary["_dropped"] == {"seconds": 0.0, "calls": 2}
        trace = tracing.to_chrome_trace(collector)
        assert trace["metadata"]["spans_dropped"] == 2
        assert trace["metadata"]["spans_recorded"] == 1

    def test_installation_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["collector"] = tracing.active()
            with span("other") as s:
                seen["span"] = s

        collector = SpanCollector()
        with collect_spans(collector):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            with span("mine"):
                pass
        assert seen["collector"] is None
        assert seen["span"] is None
        assert [s.name for s in collector.spans] == ["mine"]


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def _one_of_each_event(reporter):
    reporter.emit("run_start", schema_version=1, command="test", config={"dim": 8})
    reporter.emit(
        "epoch",
        epoch=1,
        loss_joint=1.5,
        loss_entity=1.0,
        loss_relation=0.5,
        lr=0.001,
        nonfinite_skips=1,
        batches=4,
        global_batch=4,
        seconds=0.2,
        phase_seconds={"evolve": {"seconds": 0.1, "calls": 4}},
        spans_open=0,
    )
    reporter.emit("eval", epoch=1, metric="valid_mrr", value=0.31)
    reporter.emit("checkpoint", path="ckpt/epoch1.npz", epoch=1, global_batch=4, kind="epoch")
    reporter.emit("nonfinite_skip", epoch=1, global_batch=2, stage="loss")
    reporter.emit("observe", time=9, facts=17, steps=3, skips=0)
    reporter.emit("worker", scope="eval", worker=0, shards=3, seconds=0.05)
    reporter.emit(
        "probe",
        epoch=1,
        global_batch=4,
        cadence=4,
        stepped=True,
        grad_norm=0.5,
        modules={"tim": {"grad_norm": 0.5, "weight_norm": 2.0, "update_ratio": 0.01}},
        embeddings={"entity_embedding": {"mean_norm": 1.0, "drift": 0.0, "total_drift": 0.0}},
        gates={"lstm": {"input": 0.1, "forget": 0.2, "output": 0.3, "calls": 2}},
    )
    reporter.emit(
        "diagnostic",
        task="entity",
        setting="raw",
        aggregate={"MRR": 25.0, "count": 4},
        relations={"0": {"MRR": 25.0, "count": 4}},
        timestamps={"9": {"MRR": 25.0, "count": 4}},
    )
    reporter.emit("request", kind="score", status=200, staleness=0, latency_ms=1.5)
    reporter.emit("shed", kind="score", reason="queue_full")
    reporter.emit("refresh_retry", ts=9, attempt=1, outcome="ok", backoff_ms=5.0)
    reporter.emit("breaker_transition", from_state="closed", to_state="open", reason="skips")
    reporter.emit("degraded", ts=9, staleness=2, reason="refresh retries exhausted")
    reporter.emit("drain", requests=1, shed=1, errors=0, deadline_exceeded=0, clean=True)
    reporter.emit("run_end", status="completed", epochs_completed=1)


class TestRunReporter:
    def test_every_event_type_round_trips(self):
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            _one_of_each_event(reporter)
        lines = buf.getvalue().splitlines()
        events = read_events(lines, strict=True)
        assert {e["event"] for e in events} == set(EVENT_SCHEMAS)
        assert [e["seq"] for e in events] == list(range(len(EVENT_SCHEMAS)))
        assert all(e["t"] >= 0 for e in events)

    def test_emit_rejects_unknown_event_and_missing_fields(self):
        reporter = RunReporter(io.StringIO())
        # "bench" and "alert" are retired event types: reports that hold
        # them no longer load.
        for event in ("no_such_event", "bench", "alert"):
            with pytest.raises(ReportError, match="unknown event type"):
                reporter.emit(event, x=1)
            line = json.dumps({"event": event, "seq": 0, "t": 0.0})
            with pytest.raises(ReportError, match=f"line 1: unknown event type '{event}'"):
                read_events([line])
        with pytest.raises(ReportError, match="missing required fields"):
            reporter.emit("eval", epoch=1, metric="valid_mrr")  # no value

    def test_file_sink_writes_and_closes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunReporter(str(path)) as reporter:
            reporter.emit("run_start", schema_version=1, command="t", config={})
        events = read_events(str(path))
        assert len(events) == 1
        assert reporter.path == str(path)

    def test_numpy_scalars_serialise(self):
        np = pytest.importorskip("numpy")
        buf = io.StringIO()
        RunReporter(buf).emit(
            "eval", epoch=np.int64(1), metric="mrr", value=np.float32(0.5)
        )
        record = json.loads(buf.getvalue())
        assert record["epoch"] == 1
        assert record["value"] == pytest.approx(0.5)

    def test_read_events_rejects_broken_seq(self):
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            reporter.emit("run_start", schema_version=1, command="t", config={})
            reporter.emit("run_end", status="completed", epochs_completed=0)
        lines = buf.getvalue().splitlines()
        corrupted = [lines[0], lines[1].replace('"seq": 1', '"seq": 7')]
        with pytest.raises(ReportError, match="monotone"):
            read_events(corrupted)
        # Non-strict mode still parses for forensics.
        assert len(read_events(corrupted, strict=False)) == 2

    def test_read_events_rejects_invalid_json_with_line_number(self):
        with pytest.raises(ReportError, match="line 2"):
            read_events(['{"event": "run_start", "seq": 0, "t": 0.0, '
                         '"schema_version": 1, "command": "t", "config": {}}',
                         '{"event": "run_end", "status'])

    def test_summarize_run_reconstructs_the_run(self):
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            _one_of_each_event(reporter)
        summary = summarize_run(read_events(buf.getvalue().splitlines()))
        assert summary["status"] == "completed"
        assert summary["command"] == "test"
        assert summary["epochs"][0]["loss_joint"] == 1.5
        assert summary["nonfinite_skips"] == {
            "total": 1,
            "explained": 1,
            "stages": ["loss"],
        }
        assert summary["checkpoints"][0]["kind"] == "epoch"
        assert summary["phase_share"]["evolve"] == pytest.approx(0.5)
        assert summary["observes"] == 1
