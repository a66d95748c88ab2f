"""Tests for the benchmark harness: tables, perf history, verdict and registry.

Everything but :class:`TestMeasurements` runs without a model; that
class runs each perf-registry entry once on the ICEWS14 surrogate.
"""

import dataclasses
import json
import types

import pytest

from repro.bench import BENCH_PROFILES, DEFAULT_METHODS, format_table
from repro.bench import history as bench_history
from repro.bench import measure as bench_measure
from repro.bench.history import (
    INCONCLUSIVE,
    OK,
    REGRESSED,
    STRADDLES,
    HistoryError,
    append_entry,
    judge,
    load_baseline,
    make_entry,
    read_history,
    reference,
    series_key,
    summarize_history,
    write_summary,
)
from repro.bench.measure import MEASUREMENTS, Run, Sample, measure, record
from repro.bench.runner import METHOD_BUILDERS, ONLINE_METHODS
from repro.datasets import DATASET_PROFILES, SCALE_PROFILES


class TestRegistry:
    def test_every_default_method_has_builder(self):
        for method in DEFAULT_METHODS:
            assert method in METHOD_BUILDERS

    def test_profiles_cover_all_datasets(self):
        assert set(BENCH_PROFILES) == set(DATASET_PROFILES) | set(SCALE_PROFILES)

    def test_online_methods_follow_paper(self):
        # The paper reports CEN under the online setting and RETIA always
        # trains online during evaluation.
        assert ONLINE_METHODS == {"CEN", "RETIA"}

    def test_retia_last_in_table_order(self):
        assert DEFAULT_METHODS[-1] == "RETIA"

    def test_rgcrn_available_for_table7(self):
        assert "RGCRN" in METHOD_BUILDERS


class TestFormatTable:
    ROWS = [
        {"Method": "A", "MRR": 10.0, "Hits@1": 5.0},
        {"Method": "B", "MRR": 20.0, "Hits@1": 2.5},
    ]

    def test_contains_all_cells(self):
        text = format_table(self.ROWS, ["Method", "MRR", "Hits@1"])
        assert "10.00" in text
        assert "20.00" in text
        assert "Method" in text

    def test_highlight_best_marks_max(self):
        text = format_table(self.ROWS, ["Method", "MRR"], highlight_best=["MRR"])
        assert "20.00*" in text
        assert "10.00*" not in text

    def test_missing_column_renders_dash(self):
        rows = [{"Method": "A"}]
        text = format_table(rows, ["Method", "MRR"])
        assert "-" in text

    def test_alignment_consistent(self):
        text = format_table(self.ROWS, ["Method", "MRR"])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line and not set(line) == {"-"}}) <= 2

    def test_custom_float_format(self):
        text = format_table(self.ROWS, ["MRR"], float_format="{:.1f}")
        assert "10.0" in text
        assert "10.00" not in text

    def test_empty_rows(self):
        text = format_table([], ["Method"])
        assert "Method" in text


def _run(samples, name="train_step", dataset="ICEWS14", dtype="float32", **labels):
    """A measured run with the given per-figure samples (no model)."""
    return Run(
        name=name,
        dataset=dataset,
        dtype=dtype,
        labels={k: str(v) for k, v in labels.items()},
        samples={figure: list(values) for figure, values in samples.items()},
        extras=[{} for _ in next(iter(samples.values()))],
    )


def _entry(step_s, **kwargs):
    return make_entry(_run({"step_s": [step_s]}, **kwargs))


KEY = series_key("train_step", "ICEWS14", "float32", {})


class TestBenchHistory:
    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        append_entry(path, make_entry(_run({"step_s": [0.012, 0.010, 0.011]})))
        slowed = _run({"step_s": [0.02]}, name="eval", workers=2)
        append_entry(path, make_entry(dataclasses.replace(slowed, per_step_sleep=0.01)))
        entries = read_history(path)
        assert [e["schema_version"] for e in entries] == [2, 2]
        assert entries[0]["figures"] == {"step_s": [0.012, 0.010, 0.011]}
        assert entries[1]["labels"] == {"workers": "2"}
        assert entries[1]["injected_sleep"] == 0.01
        assert [bench_history.entry_key(e) for e in entries] == [
            KEY,
            series_key("eval", "ICEWS14", "float32", {"workers": 2}),
        ]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_history(str(tmp_path / "nope.jsonl")) == []

    def test_make_entry_rejects_incomplete_result(self):
        with pytest.raises(HistoryError):
            make_entry(_run({"step_s": []}))

    def test_corrupt_history_line_reports_position(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(json.dumps(_entry(0.01)) + "\nnot json\n")
        with pytest.raises(HistoryError, match=":2"):
            read_history(str(path))

    def test_empty_history_passes_the_gate(self):
        verdict = judge(KEY, {"step_s": [0.05]}, [], {})
        assert verdict.status == OK
        assert verdict.figures[0].reference is None

    def test_clean_candidate_within_noise_passes(self):
        entries = [_entry(e) for e in (0.010, 0.012, 0.011)]
        verdict = judge(KEY, {"step_s": [0.011, 0.0115]}, entries, {})
        assert verdict.status == OK
        assert verdict.figures[0].reference == 0.010
        assert verdict.figures[0].tolerance == bench_history.HISTORY_TOLERANCE

    def test_slowdown_past_tolerance_is_flagged(self):
        entries = [_entry(e) for e in (0.010, 0.012, 0.011)]
        verdict = judge(KEY, {"step_s": [0.025, 0.026]}, entries, {})
        assert verdict.status == REGRESSED
        assert verdict.exit_code == 1
        assert "REGRESSION" in str(verdict)
        assert "(step_s)" in str(verdict).splitlines()[0]

    def test_baseline_is_min_of_rolling_window(self):
        # The fast old entry falls outside the window, so it no longer
        # drags the noise floor down.
        window = bench_history.DEFAULT_WINDOW
        entries = [_entry(0.001)] + [_entry(0.010 + i * 1e-4) for i in range(window)]
        assert reference(KEY, "step_s", entries, {})[0] == 0.010
        assert judge(KEY, {"step_s": [0.011]}, entries, {}).status == OK

    def test_other_datasets_do_not_pollute_the_baseline(self):
        entries = [_entry(0.001, dataset="YAGO"), _entry(0.010)]
        assert reference(KEY, "step_s", entries, {})[0] == 0.010

    def test_tolerance_must_allow_slowdown(self, tmp_path):
        path = tmp_path / "baseline.json"
        series = {"figures": {"step_s": {"value": 0.01, "tolerance": 0.9}}}
        path.write_text(json.dumps({"train_step ICEWS14 float32": series}))
        with pytest.raises(HistoryError, match="tolerance > 1"):
            load_baseline(path)

    def test_summary_written_per_dataset(self, tmp_path):
        entries = [_entry(0.010), _entry(0.020), _entry(0.005, dataset="YAGO")]
        path = tmp_path / "BENCH_summary.json"
        summary = write_summary(str(path), entries)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(summary))
        stats = on_disk["series"]["train_step ICEWS14 float32"]["figures"]["step_s"]
        assert stats["min"] == 0.010
        assert stats["last"] == 0.020
        assert on_disk["series"]["train_step YAGO float32"]["entries"] == 1

    def test_other_schema_versions_are_rejected_with_line_number(self, tmp_path):
        old = {"schema_version": 1, "name": "encoder", "dataset": "ICEWS14"}
        path = tmp_path / "hist.jsonl"
        path.write_text(json.dumps(_entry(0.01)) + "\n" + json.dumps(old) + "\n")
        with pytest.raises(HistoryError, match=r":2: schema_version 1"):
            read_history(str(path))

    def test_committed_history_is_schema_2(self):
        entries = read_history(str(bench_history.BASELINE_PATH.parents[1] / "BENCH_history.jsonl"))
        assert entries and all(e["schema_version"] == 2 for e in entries)


class TestSeriesIdentity:
    """An entry differing in any series field never judges or buckets with another."""

    OTHERS = [
        dict(name="cell"),
        dict(dataset="YAGO"),
        dict(dtype="float64"),
        dict(workers=2),
    ]

    @pytest.mark.parametrize("other", OTHERS, ids=lambda o: next(iter(o)))
    def test_differing_entry_is_never_a_reference(self, other):
        entries = [_entry(0.001, **other)]
        assert reference(KEY, "step_s", entries, {}) is None
        assert judge(KEY, {"step_s": [0.5]}, entries, {}).status == OK

    @pytest.mark.parametrize("other", OTHERS, ids=lambda o: next(iter(o)))
    def test_differing_entry_is_never_a_summary_bucket_mate(self, other):
        summary = summarize_history([_entry(0.010), _entry(0.001, **other)])["series"]
        assert len(summary) == 2
        assert summary["train_step ICEWS14 float32"]["figures"]["step_s"]["min"] == 0.010

    def test_label_order_and_type_do_not_split_a_series(self):
        a = series_key("scale", "X", "float32", {"workers": 2, "scorer": "dense"})
        b = series_key("scale", "X", "float32", {"scorer": "dense", "workers": "2"})
        assert a == b

    def test_two_series_stay_distinct_in_one_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        record(_run({"step_s": [0.010]}), registry)
        record(_run({"step_s": [0.030]}, dtype="float64"), registry)
        record(_run({"eval_s": [0.020]}, name="eval", workers=1), registry)
        record(_run({"eval_s": [0.040]}, name="eval", workers=2), registry)
        (family,) = [m for m in registry.to_dict()["metrics"] if m["name"] == "bench_figure"]
        minima = {
            (s["labels"]["name"], s["labels"]["dtype"], s["labels"]["workers"]): s["value"]
            for s in family["series"]
            if s["labels"]["stat"] == "min"
        }
        assert minima == {
            ("train_step", "float32", ""): 0.010,
            ("train_step", "float64", ""): 0.030,
            ("eval", "float32", "1"): 0.020,
            ("eval", "float32", "2"): 0.040,
        }


class TestVerdict:
    def test_straddling_samples_ask_for_a_re_measure(self):
        entries = [_entry(0.010)]
        verdict = judge(KEY, {"step_s": [0.011, 0.013]}, entries, {})
        assert verdict.status == STRADDLES

    def test_pooled_samples_decide_by_median_and_mad(self):
        entries = [_entry(0.010)]  # bound 0.012
        within = judge(KEY, {"step_s": [0.010, 0.010, 0.011, 0.013]}, entries, {}, pooled=True)
        above = judge(KEY, {"step_s": [0.011, 0.015, 0.015, 0.016]}, entries, {}, pooled=True)
        split = judge(KEY, {"step_s": [0.011, 0.011, 0.013, 0.013]}, entries, {}, pooled=True)
        assert (within.status, above.status, split.status) == (OK, REGRESSED, INCONCLUSIVE)
        assert split.exit_code == 3
        assert "INCONCLUSIVE" in str(split)

    def test_every_sample_over_the_bound_regresses_however_noisy_the_reference(self):
        # The reference run spread 10-16 ms, wider than its x1.2 bound:
        # only its minimum counts.
        entries = [make_entry(_run({"step_s": [0.010, 0.016]}))]
        verdict = judge(KEY, {"step_s": [0.013, 0.014, 0.015]}, entries, {})
        assert verdict.status == REGRESSED
        assert "vs bound 0.012 = 0.01 x1.2" in str(verdict)

    def test_any_regressed_figure_fails_the_run_and_is_named(self):
        entries = [make_entry(_run({"encoder_s": [0.01], "step_s": [0.02]}))]
        verdict = judge(KEY, {"encoder_s": [0.011], "step_s": [0.05, 0.06]}, entries, {})
        assert verdict.status == REGRESSED
        assert str(verdict).splitlines()[0].endswith("(step_s)")

    def test_baseline_file_is_the_reference_without_history(self):
        step = {"step_s": {"value": 0.01, "tolerance": 2.0}}
        baseline = {"train_step ICEWS14 float32": {"figures": step}}
        verdict = judge(KEY, {"step_s": [0.019]}, [], baseline)
        assert verdict.status == OK
        assert verdict.figures[0].source == "baseline.json"
        assert judge(KEY, {"step_s": [0.021]}, [], baseline).status == REGRESSED
        # Once the history holds the series, it wins (at x1.2).
        assert judge(KEY, {"step_s": [0.019]}, [_entry(0.01)], baseline).status == REGRESSED

    def test_missing_or_corrupt_baseline_is_a_hard_failure(self, tmp_path):
        with pytest.raises(HistoryError, match="missing"):
            load_baseline(tmp_path / "absent.json")
        corrupt = tmp_path / "baseline.json"
        corrupt.write_text("{not json")
        with pytest.raises(HistoryError, match="unreadable"):
            load_baseline(corrupt)


class TestBaselineFile:
    def test_committed_baseline_covers_every_gated_series(self):
        baseline = load_baseline()
        assert set(baseline) == {
            "train_step ICEWS14 float32",
            "cell ICEWS14 float32",
            "scale ICEWS-SCALE float32 scorer=blocked:128:8192 workers=2",
        }
        for series in baseline.values():
            for ref in series["figures"].values():
                assert ref["value"] > 0 and ref["tolerance"] > 1

    def test_baseline_figures_match_what_each_measurement_reports(self, registry_runs):
        for sid, series in load_baseline().items():
            name = sid.split()[0]
            assert set(series["figures"]) == set(registry_runs[name].samples), sid


class _ScriptedMeasurement:
    """A registry entry whose repeats return scripted ``step_s`` samples."""

    def __init__(self, values):
        self.values = list(values)

    def __call__(self, dataset, *, seed, per_step_sleep):
        return Sample(figures={"step_s": self.values.pop(0) + per_step_sleep})


class TestBenchCli:
    def _bench(self, monkeypatch, tmp_path, values, *flags):
        from repro import cli

        monkeypatch.setitem(
            MEASUREMENTS, "cell", bench_measure.Measurement(_ScriptedMeasurement(values))
        )
        baseline = tmp_path / "baseline.json"
        if not baseline.exists():
            baseline.write_text("{}")
        monkeypatch.setattr(bench_history, "BASELINE_PATH", baseline)
        argv = ["bench", "--dataset", "ICEWS14", "--component", "cell", "--repeats", "2"]
        argv += ["--history", str(tmp_path / "h.jsonl"), *flags]
        return cli.main(argv)

    def test_seed_ok_regressed_and_inconclusive_exit_codes(self, monkeypatch, tmp_path, capsys):
        assert self._bench(monkeypatch, tmp_path, [0.010, 0.011], "--gate") == 0
        assert self._bench(monkeypatch, tmp_path, [0.010, 0.0115], "--gate") == 0
        drill = ["--gate", "--dry-run", "--inject-sleep-ms", "10"]
        assert self._bench(monkeypatch, tmp_path, [0.010, 0.010], *drill) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # Straddles (0.011 ok, 0.013 over 0.012), re-measures, still splits.
        straddle = [0.011, 0.013, 0.011, 0.013]
        assert self._bench(monkeypatch, tmp_path, straddle, "--gate", "--dry-run") == 3
        out = capsys.readouterr().out
        assert "re-measuring once" in out and "INCONCLUSIVE" in out
        # A re-measure that lands within the bound settles it.
        settle = [0.011, 0.013, 0.010, 0.010]
        assert self._bench(monkeypatch, tmp_path, settle, "--gate", "--dry-run") == 0
        assert len(read_history(str(tmp_path / "h.jsonl"))) == 2

    def test_missing_baseline_fails_the_gate(self, monkeypatch, tmp_path):
        from repro import cli

        monkeypatch.setattr(bench_history, "BASELINE_PATH", tmp_path / "absent.json")
        argv = ["bench", "--dataset", "ICEWS14", "--component", "cell", "--gate"]
        assert cli.main(argv) == 2

    def test_update_baseline_keeps_the_tolerance(self, monkeypatch, tmp_path):
        baseline = tmp_path / "baseline.json"
        step = {"step_s": {"value": 1.0, "tolerance": 3.0}}
        baseline.write_text(json.dumps({"cell ICEWS14 float32": {"figures": step}}))
        assert self._bench(monkeypatch, tmp_path, [0.02, 0.01], "--update-baseline") == 0
        figure = load_baseline(baseline)["cell ICEWS14 float32"]["figures"]["step_s"]
        assert figure == {"value": 0.01, "tolerance": 3.0}
        # A series the file does not gate needs a tolerance chosen first.
        with pytest.raises(HistoryError, match="add it with its tolerance"):
            bench_history.update_baseline(_run({"step_s": [0.01]}), baseline)

    def test_metrics_and_report_event_carry_the_run(self, tmp_path):
        from repro.obs import MetricsRegistry, RunReporter, read_events

        reporter = RunReporter(str(tmp_path / "run.jsonl"))
        registry = MetricsRegistry()
        entry = record(_run({"step_s": [0.02, 0.01]}), registry, reporter)
        reporter.close()
        (event,) = [e for e in read_events(str(tmp_path / "run.jsonl")) if e["event"] == "bench"]
        assert event["name"] == "train_step"
        assert event["result"]["figures"] == entry["figures"] == {"step_s": [0.02, 0.01]}
        stats = {
            s["labels"]["stat"]: s["value"] for s in registry.to_dict()["metrics"][0]["series"]
        }
        assert stats == {"min": 0.01, "median": 0.015, "mad": 0.005}


@pytest.fixture(scope="module")
def registry_runs():
    """Every registry entry measured once on ICEWS14 (``scale`` at 1 worker)."""
    labels = {"scale": {"workers": 1}}
    return {
        name: measure(name, "ICEWS14", repeats=1, **labels.get(name, {}))
        for name in MEASUREMENTS
    }


class _VirtualClock:
    """Stands in for ``time`` inside :mod:`repro.bench.measure`.

    ``perf_counter`` reads only the time spent in ``sleep``, which costs
    no wall-clock: a figure read off this clock is exactly the injected
    sleep that landed inside its timed region.
    """

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestMeasurements:
    @pytest.mark.parametrize("name", sorted(MEASUREMENTS))
    def test_each_entry_runs_once(self, name, registry_runs):
        run = registry_runs[name]
        assert run.key[:3] == (name, "ICEWS14", "float32")
        assert run.samples and all(len(v) == 1 and v[0] > 0 for v in run.samples.values())
        entry = make_entry(run)
        assert entry["labels"] == run.labels
        assert json.loads(json.dumps(entry)) == entry

    def test_scale_reads_peak_rss_once(self, registry_runs):
        run = registry_runs["scale"]
        assert run.labels == {"workers": "1", "scorer": "blocked:128:8192"}
        pooled = run.pooled(run)
        assert len(pooled.samples["scale_s"]) == 2
        assert pooled.samples["peak_rss_mb"] == run.samples["peak_rss_mb"]

    @pytest.mark.parametrize("name", sorted(set(MEASUREMENTS) - {"serve"}))
    def test_injected_sleep_lands_in_every_timed_step(self, name, monkeypatch):
        sleep = 0.5
        clock = _VirtualClock()
        monkeypatch.setattr(bench_measure, "time", types.SimpleNamespace(
            perf_counter=clock.perf_counter, sleep=clock.sleep
        ))
        labels = {"scale": {"workers": 1}}.get(name, {})
        clean = measure(name, "ICEWS14", repeats=1, **labels)
        slowed = measure(name, "ICEWS14", repeats=1, per_step_sleep=sleep, **labels)
        timed = [f for f in slowed.samples if f.endswith("_s")]
        assert timed
        for figure in timed:
            assert slowed.samples[figure][0] - clean.samples[figure][0] >= sleep, figure

    def test_injected_sleep_stalls_every_served_batch(self):
        # Every OK query waits out its own micro-batch's stall, so the
        # mean latency includes the sleep.  (Against a separate clean
        # run the rise can fall short of it: stalls grow the batches,
        # which amortise the per-query compute.)
        sleep = 0.05
        slowed = measure("serve", "ICEWS14", repeats=1, per_step_sleep=sleep)
        assert slowed.samples["mean_latency_s"][0] >= sleep
        faults = slowed.extras[0]["faults"]
        assert faults["stalls_injected"] > 0
        assert faults["refresh_failures_injected"] == faults["injected_nans"] == 0
