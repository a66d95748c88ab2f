"""Tests for per-relation eval diagnostics and bounded rank accumulation."""

import importlib.util
import io
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import (
    RANK_HISTOGRAM_EDGES,
    RankAccumulator,
    diagnose_extrapolation,
    evaluate_extrapolation,
    format_diagnostics,
    known_entities_of,
    log_spaced_rank_edges,
)
from repro.obs import RunReporter, read_events

from tests.oracles import reference_diagnose

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health_diagnostics", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def small_dataset(num_timestamps=16):
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=num_timestamps,
        events_per_step=20,
        base_pool_size=40,
        seed=9,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


def fitted_model(train, valid):
    model = RETIA(
        RETIAConfig(
            num_entities=20, num_relations=4, dim=8, history_length=2,
            num_kernels=4, seed=0,
        )
    )
    model.set_history(train)
    for t in valid.timestamps:
        model.observe(valid.snapshot(int(t)))
    model.eval()
    return model


@pytest.fixture(scope="module")
def diagnosed():
    train, valid, test = small_dataset()
    model = fitted_model(train, valid)
    known = known_entities_of(train, valid)
    report = diagnose_extrapolation(model, test, known_entities=known)
    return train, valid, test, report


class TestBoundedRankAccumulator:
    RANKS = np.array([1, 2, 3, 7, 50, 400, 2], dtype=np.int64)

    def test_bounded_summary_matches_raw_mode_exactly(self):
        raw, bounded = RankAccumulator(), RankAccumulator(bounded=True)
        raw.update(self.RANKS)
        bounded.update(self.RANKS)
        for key, value in raw.summary().items():
            assert bounded.summary()[key] == pytest.approx(value, abs=1e-12)

    def test_bounded_mode_retains_no_raw_ranks(self):
        acc = RankAccumulator(bounded=True)
        acc.update(self.RANKS)
        with pytest.raises(ValueError):
            acc.ranks()

    def test_histogram_is_cumulative_and_totals(self):
        acc = RankAccumulator(bounded=True)
        acc.update(self.RANKS)
        hist = acc.histogram()
        counts = [b["count"] for b in hist]
        assert counts == sorted(counts)
        assert hist[-1]["le"] == "+inf"
        assert hist[-1]["count"] == len(self.RANKS)

    def test_histogram_bucket_placement(self):
        acc = RankAccumulator(bounded=True, bucket_edges=(1.0, 10.0, 100.0))
        acc.update(np.array([1, 5, 10, 11, 1000]))
        by_edge = {b["le"]: b["count"] for b in acc.histogram()}
        assert by_edge[1.0] == 1
        assert by_edge[10.0] == 3
        assert by_edge[100.0] == 4
        assert by_edge["+inf"] == 5

    def test_log_spaced_edges_follow_1_2_3_5_pattern(self):
        edges = log_spaced_rank_edges(max_rank=100)
        assert edges[:8] == (1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0, 50.0)
        assert RANK_HISTOGRAM_EDGES[0] == 1.0


class TestDiagnosticsDecomposition:
    def test_weighted_relation_mrr_recomposes_aggregate(self, diagnosed):
        *_, report = diagnosed
        assert abs(report.weighted_relation_mrr() - report.aggregate["MRR"]) < 1e-9

    def test_weighted_timestamp_mrr_recomposes_aggregate(self, diagnosed):
        *_, report = diagnosed
        assert abs(report.weighted_timestamp_mrr() - report.aggregate["MRR"]) < 1e-9

    def test_group_counts_sum_to_aggregate(self, diagnosed):
        *_, report = diagnosed
        total = report.aggregate["count"]
        assert sum(g["count"] for g in report.per_relation.values()) == total
        assert sum(g["count"] for g in report.per_timestamp.values()) == total

    def test_seen_unseen_counts_partition_queries(self, diagnosed):
        *_, report = diagnosed
        assert (
            report.seen["count"] + report.unseen["count"]
            == report.aggregate["count"]
        )

    def test_aggregate_matches_plain_evaluator(self):
        train, valid, test = small_dataset()
        result = evaluate_extrapolation(fitted_model(train, valid), test)
        report = diagnose_extrapolation(fitted_model(train, valid), test)
        for key, value in result.entity.items():
            assert report.aggregate[key] == pytest.approx(value, abs=1e-12)
        for key, value in result.relation.items():
            assert report.relation_aggregate[key] == pytest.approx(value, abs=1e-12)

    def test_per_timestamp_covers_test_horizon(self, diagnosed):
        _, _, test, report = diagnosed
        nonempty = {
            int(t)
            for t in test.timestamps
            if len(test.snapshot(int(t)).triples)
        }
        assert set(report.per_timestamp) == nonempty

    def test_rank_histogram_totals_match(self, diagnosed):
        *_, report = diagnosed
        assert report.rank_histogram[-1]["le"] == "+inf"
        assert report.rank_histogram[-1]["count"] == report.aggregate["count"]

    def test_worst_relations_sorted_ascending(self, diagnosed):
        *_, report = diagnosed
        worst = report.worst_relations(10)
        mrrs = [stats["MRR"] for _, stats in worst]
        assert mrrs == sorted(mrrs)

    @pytest.mark.parametrize("n", [0, -2])
    def test_worst_relations_refuses_counts_below_one(self, diagnosed, n):
        *_, report = diagnosed
        with pytest.raises(ValueError, match="n must be >= 1"):
            report.worst_relations(n)

    def test_filtered_setting_requires_index(self, diagnosed):
        train, valid, test, _ = diagnosed
        with pytest.raises(ValueError):
            diagnose_extrapolation(fitted_model(train, valid), test, setting="time")

    def test_to_dict_is_json_ready(self, diagnosed):
        import json

        *_, report = diagnosed
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["task"] == "entity"
        assert payload["weighted_relation_mrr"] == pytest.approx(
            report.aggregate["MRR"], abs=1e-9
        )

    def test_reporter_receives_schema_valid_diagnostic_event(self, tmp_path):
        train, valid, test = small_dataset()
        path = tmp_path / "diag.jsonl"
        reporter = RunReporter(str(path))
        diagnose_extrapolation(
            fitted_model(train, valid),
            test,
            known_entities=known_entities_of(train, valid),
            reporter=reporter,
        )
        reporter.close()
        events = read_events(str(path))
        diags = [e for e in events if e["event"] == "diagnostic"]
        assert len(diags) == 1
        assert diags[0]["aggregate"]["count"] > 0
        assert diags[0]["relations"]


class TestAgainstReference:
    def test_diagnostics_bit_identical_to_serial(self, diagnosed):
        train, valid, test, report = diagnosed
        want = reference_diagnose(
            fitted_model(train, valid), test, known_entities=known_entities_of(train, valid)
        )
        assert report.aggregate == want.aggregate
        assert report.relation_aggregate == want.relation_aggregate
        assert report.to_dict() == want.to_dict()

    def test_worker_telemetry_reaches_reporter(self):
        # Both evaluation entry points emit one worker event per pass;
        # diagnose then adds its diagnostic event.
        train, valid, test = small_dataset()
        non_empty = [int(ts) for ts in test.timestamps if len(test.snapshot(int(ts)).triples)]
        facts = sum(len(test.snapshot(ts).triples) for ts in non_empty)
        for run, tail in (
            (evaluate_extrapolation, []),
            (diagnose_extrapolation, ["diagnostic"]),
        ):
            buf = io.StringIO()
            with RunReporter(buf) as reporter:
                run(fitted_model(train, valid), test, reporter=reporter)
            events = [
                e
                for e in read_events(buf.getvalue().splitlines())
                if e["event"] in ("worker", "diagnostic")
            ]
            assert [e["event"] for e in events] == ["worker"] + tail
            worker = events[0]
            assert (worker["scope"], worker["worker"], worker["pid"]) == ("eval", 0, os.getpid())
            assert worker["shards"] == len(non_empty)
            assert worker["queries"] == 2 * facts
            assert worker["seconds"] > 0

    def test_reports_from_multi_worker_runs_still_validate(self):
        # Reports written while evaluation could run in several processes
        # hold one worker event per process.
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            reporter.emit("run_start", schema_version=1, command="evaluate", config={"workers": 2})
            for worker in (0, 1):
                reporter.emit(
                    "worker", scope="eval", worker=worker, shards=2, seconds=0.01,
                    pid=100 + worker, queries=40,
                )
            reporter.emit("run_end", status="completed", epochs_completed=0)
        events = read_events(buf.getvalue().splitlines(), strict=True)
        assert [e["worker"] for e in events if e["event"] == "worker"] == [0, 1]
        problems = check_run_health.check_events(
            events, max_encoder_share=1.0, allowed_statuses={"completed"}
        )
        assert problems == []

    def test_reports_carrying_a_scorer_field_stay_healthy(self):
        # Eval reports written while a candidate-scorer choice existed
        # tag worker and diagnostic events with its spec; the field is
        # now ignored, whatever values it holds.
        train, valid, test = small_dataset()
        buf = io.StringIO()
        with RunReporter(buf) as reporter:
            reporter.emit("run_start", schema_version=1, command="diagnose", config={})
            diagnose_extrapolation(fitted_model(train, valid), test, reporter=reporter)
            reporter.emit("run_end", status="completed", epochs_completed=0)
        events = read_events(buf.getvalue().splitlines())
        tagged = [e for e in events if e["event"] in ("worker", "diagnostic")]
        assert len(tagged) == 2
        for event, spec in zip(tagged, ("blocked:128:8192", "history:32")):
            event["scorer"] = spec
        problems = check_run_health.check_events(
            events, max_encoder_share=1.0, allowed_statuses={"completed"}
        )
        assert problems == []


class TestFormatDiagnostics:
    def test_table_mentions_all_sections(self, diagnosed):
        *_, report = diagnosed
        text = format_diagnostics(report, top=3)
        assert "recomposition" in text
        assert "worst 3 relations" in text
        assert "horizon" in text
        assert "seen entities" in text
        assert "rank histogram" in text

    @pytest.mark.parametrize("top", [0, -2])
    def test_top_below_one_is_refused(self, diagnosed, top):
        *_, report = diagnosed
        with pytest.raises(ValueError, match="top must be >= 1"):
            format_diagnostics(report, top=top)

    def test_handles_empty_report(self):
        from repro.eval import DiagnosticsReport

        text = format_diagnostics(DiagnosticsReport(setting="raw"))
        assert "entity task" in text
