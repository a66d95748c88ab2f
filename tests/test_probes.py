"""Tests for gradient/embedding probes and Chrome trace export."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.obs import (
    ProbeConfig,
    ProbeSuite,
    RunReporter,
    read_events,
    tracing,
)
from repro.obs.tracing import SpanCollector, to_chrome_trace

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def small_dataset():
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=12,
        events_per_step=20,
        base_pool_size=40,
        seed=9,
    )
    return generate_tkg(config).split((0.7, 0.15, 0.15))


def make_model(**overrides):
    defaults = dict(
        num_entities=20, num_relations=4, dim=8, history_length=2, num_kernels=4, seed=0
    )
    defaults.update(overrides)
    return RETIA(RETIAConfig(**defaults))


def run_probed(tmp_path, every_batches=3, epochs=2):
    train, valid, _ = small_dataset()
    model = make_model()
    path = tmp_path / "run.jsonl"
    reporter = RunReporter(str(path))
    trainer = Trainer(
        model,
        TrainerConfig(epochs=epochs, patience=5, seed=0),
        reporter=reporter,
        probes=ProbeConfig(every_batches=every_batches),
    )
    trainer.fit(train, valid)
    reporter.close()
    return model, trainer, read_events(str(path))


class TestProbeConfig:
    def test_rejects_zero_cadence(self):
        with pytest.raises(ValueError):
            ProbeConfig(every_batches=0)


class TestProbeSuite:
    def test_probe_events_fire_on_cadence_and_validate(self, tmp_path):
        _, trainer, events = run_probed(tmp_path, every_batches=3)
        probes = [e for e in events if e["event"] == "probe"]
        assert probes, "no probe events emitted"
        assert trainer.probes.fired == len(probes)
        for p in probes:
            assert p["cadence"] == 3
            assert p["global_batch"] % 3 == 0
        # read_events already strict-validated the schema; spot-check payload.
        sample = probes[0]
        assert math.isfinite(sample["grad_norm"])
        assert "tim" in sample["modules"]
        assert {"grad_norm", "weight_norm", "update_ratio"} <= set(
            sample["modules"]["tim"]
        )

    def test_embedding_drift_tracks_all_three_matrices(self, tmp_path):
        _, _, events = run_probed(tmp_path)
        last = [e for e in events if e["event"] == "probe"][-1]
        assert set(last["embeddings"]) == {
            "entity_embedding",
            "relation_embedding",
            "hyper_embedding",
        }
        for stats in last["embeddings"].values():
            assert {"mean_norm", "drift", "total_drift"} <= set(stats)
            assert math.isfinite(stats["mean_norm"])

    def test_gate_saturation_reported_for_both_tim_lstms(self, tmp_path):
        _, _, events = run_probed(tmp_path)
        probe = [e for e in events if e["event"] == "probe"][0]
        assert set(probe["gates"]) == {"lstm", "hyper_lstm"}
        for stats in probe["gates"].values():
            assert stats["calls"] >= 1
            for gate in ("input", "forget", "output"):
                assert 0.0 <= stats[gate] <= 1.0

    def test_teardown_leaves_gate_collection_disabled(self, tmp_path):
        model, _, _ = run_probed(tmp_path)
        assert model.tim.lstm.collect_gate_stats is False
        assert model.tim.hyper_lstm.collect_gate_stats is False
        assert model.tim.lstm.pop_gate_stats() is None

    def test_no_probe_path_emits_no_probe_events(self, tmp_path):
        train, valid, _ = small_dataset()
        path = tmp_path / "plain.jsonl"
        reporter = RunReporter(str(path))
        trainer = Trainer(
            make_model(), TrainerConfig(epochs=1, patience=5, seed=0), reporter=reporter
        )
        trainer.fit(train, valid)
        reporter.close()
        events = read_events(str(path))
        assert not [e for e in events if e["event"] == "probe"]
        assert trainer.probes is None

    def test_probes_do_not_change_training_trajectory(self, tmp_path):
        train, valid, _ = small_dataset()
        plain = Trainer(make_model(), TrainerConfig(epochs=2, patience=5, seed=0))
        plain.fit(train, valid)
        probed, _, _ = run_probed(tmp_path, every_batches=2)
        assert plain.model.fingerprint() == probed.fingerprint()

    def test_disarm_cancels_armed_probe(self):
        model = make_model()
        suite = ProbeSuite(model, None, ProbeConfig(every_batches=1))
        assert suite.arm(0)
        assert model.tim.lstm.collect_gate_stats is True
        suite.disarm()
        assert model.tim.lstm.collect_gate_stats is False
        assert suite.fired == 0


class TestHealthCheckProbeInvariants:
    def _wrap(self, probe_overrides=None, with_skip=False):
        """A minimal healthy event stream with one probe event."""
        probe = {
            "event": "probe",
            "seq": 1,
            "t": 1.0,
            "epoch": 0,
            "global_batch": 4,
            "cadence": 2,
            "stepped": True,
            "grad_norm": 1.0,
            "modules": {"tim": {"grad_norm": 1.0, "weight_norm": 2.0, "update_ratio": 0.01}},
            "embeddings": {"entity_embedding": {"mean_norm": 1.0, "drift": 0.0, "total_drift": 0.0}},
            "gates": {"lstm": {"input": 0.1, "forget": 0.2, "output": 0.3, "calls": 2}},
        }
        probe.update(probe_overrides or {})
        events = [probe]
        if with_skip:
            events.append(
                {
                    "event": "nonfinite_skip",
                    "seq": 2,
                    "t": 1.5,
                    "epoch": 0,
                    "global_batch": probe["global_batch"],
                    "stage": "grad",
                }
            )
        return events

    def test_clean_probe_passes(self):
        assert check_run_health.check_probes(self._wrap()) == []

    def test_off_cadence_probe_rejected(self):
        problems = check_run_health.check_probes(self._wrap({"global_batch": 5}))
        assert any("off the declared cadence" in p for p in problems)

    def test_nonfinite_grad_without_skip_rejected(self):
        problems = check_run_health.check_probes(
            self._wrap({"grad_norm": float("nan")})
        )
        assert any("non-finite gradient norm" in p for p in problems)

    def test_nonfinite_grad_with_matching_skip_accepted(self):
        events = self._wrap({"grad_norm": float("nan")}, with_skip=True)
        assert check_run_health.check_probes(events) == []

    def test_nonfinite_embedding_always_rejected(self):
        events = self._wrap(
            {
                "embeddings": {
                    "entity_embedding": {
                        "mean_norm": float("inf"), "drift": 0.0, "total_drift": 0.0
                    }
                }
            },
            with_skip=True,
        )
        problems = check_run_health.check_probes(events)
        assert any("embeddings.entity_embedding.mean_norm" in p for p in problems)

    def test_changing_cadence_rejected(self):
        events = self._wrap() + [
            dict(self._wrap()[0], seq=3, cadence=5, global_batch=10)
        ]
        problems = check_run_health.check_probes(events)
        assert any("cadence changed" in p for p in problems)


class TestChromeTrace:
    def collector(self):
        collector = SpanCollector()
        with tracing.collect_spans(collector):
            with tracing.span("epoch", edges=10):
                with tracing.span("ram"):
                    pass
                with tracing.span("eam"):
                    pass
        return collector

    def test_export_round_trips_and_ts_is_monotone(self):
        trace = to_chrome_trace(self.collector())
        back = json.loads(json.dumps(trace))
        events = back["traceEvents"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert back["displayTimeUnit"] == "ms"

    def test_all_spans_become_complete_x_events(self):
        collector = self.collector()
        trace = to_chrome_trace(collector)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(collector.spans)
        for e in xs:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            assert "id" in e["args"]
        assert {e["name"] for e in xs} == {"epoch", "ram", "eam"}

    def test_open_spans_are_omitted(self):
        collector = SpanCollector()
        collector.begin("dangling", None, 0.0)
        trace = to_chrome_trace(collector)
        assert not [e for e in trace["traceEvents"] if e["ph"] == "X"]

    def test_metadata_event_names_process(self):
        trace = to_chrome_trace(self.collector(), process_name="bench")
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["args"]["name"] == "bench"

    def test_span_meta_rides_in_args(self):
        trace = to_chrome_trace(self.collector())
        epoch = next(e for e in trace["traceEvents"] if e["name"] == "epoch")
        assert epoch["args"]["edges"] == 10
