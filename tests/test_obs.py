"""Tests for the observability layer: tracing and run reports."""

import io
import json
import threading

import pytest

from repro.obs import (
    EVENT_SCHEMAS,
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
