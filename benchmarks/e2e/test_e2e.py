"""Self-tests of the end-to-end benchmark, at toy sizes.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import re
import time

import pytest

import layertrace
import run
import workloads

SMALL_GRAPH = dict(
    workloads.WIDE_GRAPH,
    num_entities=400,
    num_relations=12,
    num_timestamps=12,
    events_per_step=30,
    num_communities=6,
    base_pool_size=60,
)

#: Each workload at toy size: a fraction of a second of measuring.
SMALL = {
    "train": dict(scale=0.3),
    "eval-online": dict(scale=0.3),
    "eval-wide": dict(graph=SMALL_GRAPH),
    "serve-mixed": dict(scale=0.3, ingest_every=5),
}


def small_run(name: str, trace: bool = False) -> workloads.WorkloadRun:
    return workloads.WORKLOADS[name](seed=1, seconds=0.3, trace=trace, **SMALL[name])


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_smoke(name):
    result = small_run(name)
    assert result.attempted >= 1
    assert result.failed == 0, result.problems
    assert result.problems == []
    assert len(result.setup_s) == workloads.SETUP_REPEATS
    assert len(result.op_s) >= 1


def _current(hook):
    owner = importlib.import_module(hook.module)
    if hook.owner:
        return getattr(owner, hook.owner).__dict__[hook.attr]
    return getattr(owner, hook.attr)


@pytest.fixture(scope="module")
def traced_serve():
    originals = [_current(hook) for hook in layertrace.HOOKS]
    result = small_run("serve-mixed", trace=True)
    return originals, result


def test_traced_run_restores_every_wrapped_attribute(traced_serve):
    originals, _ = traced_serve
    for hook, original in zip(layertrace.HOOKS, originals):
        assert _current(hook) is original, hook


def test_self_times_and_unattributed_add_up_to_wall(traced_serve):
    _, result = traced_serve
    layers = result.layers
    self_total = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert self_total > 0
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9, abs=1e-12
    )


class Nested:
    def outer(self):
        time.sleep(0.01)
        return self.inner()

    def inner(self):
        time.sleep(0.01)
        return 1


def test_layer_reentered_through_itself_books_busy_time_once():
    hooks = (
        layertrace.Hook("core.tim", __name__, "Nested", "outer"),
        layertrace.Hook("core.tim", __name__, "Nested", "inner"),
    )
    with layertrace.LayerTracer(hooks) as tracer:
        Nested().outer()
    layers = tracer.per_op(1, wall=1.0)
    assert layers["core.tim.calls"] == 2
    assert layers["core.tim.busy_s"] >= 0.02
    assert layers["core.tim.self_s"] == pytest.approx(layers["core.tim.busy_s"])


def test_corrupt_score_row_counts_as_failed_op(monkeypatch):
    import repro.serve.server as server_module

    score_entities = server_module.score_entities

    def corrupt(*args, **kwargs):
        scores = score_entities(*args, **kwargs)
        scores[0] *= 2.0
        return scores

    monkeypatch.setattr(server_module, "score_entities", corrupt)
    result = small_run("serve-mixed")
    assert 0 < result.failed < result.attempted


def test_metric_names_match_benchmark_json():
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    benchmark = spec()
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in benchmark[section]]
        assert len(names) == len(set(names))
        assert all(pattern.match(name) for name in names), section
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)

    result = small_run("train", trace=True)
    assert set(result.layers) == {m["name"] for m in benchmark["per_layer"]}
    assert set(run.end_to_end(result)) == {m["name"] for m in benchmark["end_to_end"]}
