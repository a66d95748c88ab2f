"""Tests for serve and evaluation telemetry.

* **trace recording** — evaluation records its ``eval_block``/
  ``score_ts`` spans under the caller's span, and each served query's
  span chain partitions its latency exactly;
* **loadgen planning** — ingest plans are cursor indices in order.
"""

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig, TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.obs import tracing
from repro.obs.tracing import SpanCollector
from repro.serve import ModelServer, ServeConfig, loadgen


def tiny_dataset():
    config = SyntheticTKGConfig(
        num_entities=16,
        num_relations=3,
        num_timestamps=12,
        events_per_step=14,
        base_pool_size=30,
        seed=7,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


@pytest.fixture(scope="module")
def splits():
    return tiny_dataset()


def revealed_model(train, valid, seed=0):
    model = RETIA(
        RETIAConfig(
            num_entities=16, num_relations=3, dim=8, history_length=2,
            num_kernels=4, seed=seed,
        )
    )
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


def make_server(splits, reporter=None, **overrides):
    train, valid, _ = splits
    model = revealed_model(train, valid)
    adapter = OnlineAdapter(
        model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=0)
    )
    knobs = dict(
        max_batch=8,
        max_queue=16,
        batch_wait_ms=0.5,
        default_deadline_ms=2000.0,
        refresh_attempts=3,
        refresh_backoff_ms=1.0,
        breaker_failure_threshold=3,
        breaker_recovery_ms=30.0,
        seed=0,
    )
    knobs.update(overrides)
    return ModelServer(
        model, adapter=adapter, config=ServeConfig(**knobs), reporter=reporter
    )


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------
class TestTraceRecording:
    def test_eval_records_its_spans_under_the_callers_span(self, splits):
        train, valid, test = splits
        collector = SpanCollector()
        with tracing.collect_spans(collector):
            with tracing.span("evaluate"):
                evaluate_extrapolation(revealed_model(train, valid), test)
        assert collector.is_balanced()
        # One score_ts span per test timestamp, in the reveal order.
        scored = [s for s in collector.spans if s.name == "score_ts"]
        assert [s.meta["ts"] for s in scored] == sorted(int(t) for t in test.timestamps)
        root = next(s for s in collector.spans if s.name == "evaluate")
        (block,) = [s for s in collector.spans if s.name == "eval_block"]
        assert block.parent_id == root.span_id
        assert block.meta == {"block": 0, "timestamps": len(scored)}
        assert all(s.parent_id == block.span_id for s in scored)

    def test_uninstrumented_eval_collects_nothing(self, splits):
        train, valid, test = splits
        evaluate_extrapolation(revealed_model(train, valid), test)
        assert tracing.active() is None


# ----------------------------------------------------------------------
# Serve request chains
# ----------------------------------------------------------------------
class TestServeRequestChains:
    def test_span_chain_partitions_latency(self, splits):
        server = make_server(splits)
        collector = server.trace_collector = SpanCollector()
        _, _, test = splits
        server.start(ts=int(test.timestamps[0]))
        try:
            queries = np.array([[0, 0], [1, 1]], dtype=np.int64)
            responses = [server.score(queries) for _ in range(6)]
        finally:
            server.drain()
        requests = [s for s in collector.spans if s.name == "request"]
        assert len(requests) == 6  # every query records its chain
        for request, response in zip(requests, responses):
            assert request.meta["status"] == response.status
            assert request.seconds == pytest.approx(response.latency_ms / 1000.0)
            chain = collector.children(request)
            assert [s.name for s in chain] == ["admit", "queue_wait", "decode", "respond"]
            # Contiguous: each span starts where the previous ended, so
            # the phases partition the request.
            assert chain[0].start == request.start and chain[-1].end == request.end
            for left, right in zip(chain, chain[1:]):
                assert right.start == left.end
            assert sum(s.seconds for s in chain) == pytest.approx(request.seconds, abs=1e-12)


# ----------------------------------------------------------------------
# Loadgen planning
# ----------------------------------------------------------------------
class TestBuildPlans:
    def test_ingest_plans_are_indices_in_cursor_order(self):
        config = loadgen.LoadgenConfig(requests=32, seed=1)
        _, plans = loadgen.build_plans(10, 4, 3, config)
        ingests = [payload for kind, payload in plans if kind == "ingest"]
        assert ingests == [0, 1, 2]
