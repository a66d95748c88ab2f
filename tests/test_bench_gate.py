"""Tests for ``scripts/check_bench.py``, the perf gate over two sets of e2e results.

Each test writes synthetic ``benchmarks/e2e/run.py`` result files for a
base and a head side and checks the gate's exit code and what it names.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_bench", ROOT / "scripts" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: A typical value per end-to-end metric; three runs jitter it by +-1%.
TYPICAL = {"setup_s": 0.4, "peak_rss_mb": 120.0, "op_p10_ms": 100.0}
JITTER = (0.99, 1.0, 1.01)


def write_runs(
    directory, workloads=WORKLOADS, scale=None, values=None, jitter=JITTER, first=0, **fields
):
    """One result file per ``jitter`` entry and workload (three by default);
    ``scale``/``values`` reshape one metric.

    ``scale={(workload, metric): factor}`` multiplies every run's value;
    ``values={(workload, metric): [v1, v2, v3]}`` sets them outright, in
    run order; files are numbered in run order from ``first``, where
    ``run.py`` puts its ``time_ns``; ``fields`` override the record's
    ``correct``/``attempted``/``failed``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    scale, values = scale or {}, values or {}
    for workload in workloads:
        for i, factor in enumerate(jitter):
            metrics = {}
            for name, unit in UNITS.items():
                value = TYPICAL[name] * factor * scale.get((workload, name), 1.0)
                value = values.get((workload, name), [value] * len(jitter))[i]
                metrics[name] = {"value": value, "unit": unit}
            record = {
                "workload": workload,
                "trace": 0,
                "correct": True,
                "attempted": 100,
                "failed": 0,
                "metrics": metrics,
                "environment": {"git_commit": "c0ffee"},
            }
            record.update(fields)
            name = f"{workload}.seed0.trace{record['trace']}.{first + i}.json"
            (directory / name).write_text(json.dumps(record))
    return directory


@pytest.fixture
def base(tmp_path):
    return write_runs(tmp_path / "base")


def gate(base, head, *extra):
    return check_bench.main([str(base), str(head), *extra])


def test_slower_head_metric_fails_and_names_workload_and_metric(base, tmp_path, capsys):
    head = write_runs(tmp_path / "head", scale={("train", "op_p10_ms"): 1.5})
    assert gate(base, head) == 1
    out = capsys.readouterr().out
    assert "FAIL: train op_p10_ms: median 100 -> 150 ms, bound 25%" in out
    assert out.count("FAIL:") == 1


@pytest.mark.parametrize(
    "scale",
    [
        {(w, m): 0.7 for w in WORKLOADS for m in UNITS},
        {("eval-online", "op_p10_ms"): 1.2},
        {("serve-mixed", "peak_rss_mb"): 1.08},
    ],
    ids=["faster", "op-slower-within-bound", "rss-higher-within-bound"],
)
def test_faster_or_within_the_bound_passes(base, tmp_path, scale):
    assert gate(base, write_runs(tmp_path / "head", scale=scale)) == 0


def test_spread_wider_than_the_bound_is_unresolved(base, tmp_path, capsys):
    head = write_runs(tmp_path / "head", values={("serve-mixed", "op_p10_ms"): [60, 100, 150]})
    assert gate(base, head) == 3
    out = capsys.readouterr().out
    assert "UNRESOLVED: 1 row(s)" in out
    assert "FAIL:" not in out


def test_wide_spread_passes_when_every_head_run_beats_every_base_run(base, tmp_path):
    head = write_runs(tmp_path / "head", values={("train", "op_p10_ms"): [30, 50, 90]})
    assert gate(base, head) == 0


def test_wide_spread_fails_when_every_head_run_is_worse_beyond_the_bound(
    base, tmp_path, capsys
):
    head = write_runs(tmp_path / "head", values={("train", "op_p10_ms"): [300, 350, 500]})
    assert gate(base, head) == 1
    assert "FAIL: train op_p10_ms: median 100 -> 350 ms" in capsys.readouterr().out


def test_worse_row_fails_even_beside_an_unresolved_one(base, tmp_path):
    head = write_runs(
        tmp_path / "head",
        scale={("train", "setup_s"): 2.0},
        values={("serve-mixed", "op_p10_ms"): [60, 100, 150]},
    )
    assert gate(base, head) == 1


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"failed": 3}, "head fails a larger share of operations"),
        ({"correct": False}, "a head run is not correct"),
    ],
    ids=["failed-share", "incorrect"],
)
def test_failing_or_incorrect_head_runs_fail(base, tmp_path, capsys, fields, message):
    assert gate(base, write_runs(tmp_path / "head", **fields)) == 1
    assert f"FAIL: train: {message}" in capsys.readouterr().out


def test_failures_no_more_frequent_than_the_base_pass(tmp_path):
    base = write_runs(tmp_path / "base", failed=3)
    assert gate(base, write_runs(tmp_path / "head", failed=3)) == 0


def drop_eval_wide(directory):
    for path in directory.glob("eval-wide.*.json"):
        path.unlink()


def corrupt_one_file(directory):
    (directory / "train.seed0.trace0.0.json").write_text("{not json")


@pytest.mark.parametrize(
    "side, damage, message",
    [
        ("base", drop_eval_wide, "base has < 2 runs of eval-wide"),
        ("head", drop_eval_wide, "head has < 2 runs of eval-wide"),
        ("head", lambda d: [p.unlink() for p in d.iterdir()], "head has < 2 runs of train"),
        ("base", lambda d: d.rename(d.with_name("absent")), "base has < 2 runs of train"),
        ("head", corrupt_one_file, "Expecting property name"),
    ],
    ids=["base-missing-workload", "head-missing-workload", "empty", "absent", "corrupt"],
)
def test_unusable_input_exits_2(tmp_path, capsys, side, damage, message):
    dirs = {"base": write_runs(tmp_path / "base"), "head": write_runs(tmp_path / "head")}
    damage(dirs[side])
    assert gate(dirs["base"], dirs["head"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("unusable input: ") and message in captured.err
    assert captured.out == ""


def test_traced_runs_are_not_judged(base, tmp_path):
    head = write_runs(tmp_path / "head")
    write_runs(tmp_path / "head", scale={("train", "op_p10_ms"): 9.0}, trace=1, correct=False)
    assert gate(base, head) == 0


def test_history_appends_one_line_per_workload(base, tmp_path):
    history = tmp_path / "history.jsonl"
    head = write_runs(tmp_path / "head", scale={("train", "op_p10_ms"): 0.5})
    for _ in range(2):
        assert gate(base, head, "--history", str(history)) == 0
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    assert [line["workload"] for line in lines] == WORKLOADS * 2
    train = lines[0]
    assert train["commit"] == "c0ffee" and train["runs"] == 3
    assert train["metrics"]["op_p10_ms"] == {
        "q1": pytest.approx(49.5), "median": pytest.approx(50.0), "q3": pytest.approx(50.5),
        "unit": "ms",
    }


def test_committed_history_lines_cover_every_end_to_end_metric():
    lines = (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    assert lines
    for line in map(json.loads, lines):
        assert line["workload"] in WORKLOADS
        assert line["runs"] >= 3
        assert set(line["metrics"]) == set(UNITS)
        for name, summary in line["metrics"].items():
            assert summary["unit"] == UNITS[name]
            assert summary["q1"] <= summary["median"] <= summary["q3"]


# ----------------------------------------------------------------------
# --claim: a claimed gain over run-ordered pairs
# ----------------------------------------------------------------------
#: Ten runs a side, +-1% around the typical value.
TEN = tuple(1.0 + (i - 4.5) / 450 for i in range(10))
CLAIM = ("eval-wide", "op_p10_ms")


def claim_dirs(tmp_path, base_values, head_values):
    base = write_runs(tmp_path / "base", jitter=TEN, values={CLAIM: base_values})
    head = write_runs(tmp_path / "head", jitter=TEN, values={CLAIM: head_values})
    return base, head


def claim(base, head, *extra):
    return gate(base, head, "--claim", "eval-wide/op_p10_ms", *extra)


def test_claim_met_prints_wins_medians_and_iqr(tmp_path, capsys):
    base_values = [1000.0 + 4 * i for i in range(10)]
    base, head = claim_dirs(tmp_path, base_values, [v * 0.75 for v in base_values])
    assert claim(base, head) == 0
    out = capsys.readouterr().out
    assert "claim eval-wide/op_p10_ms: head won 10/10 pairs, median 1018 -> 763.5, " in out
    assert "base IQR 22 ms: met" in out


@pytest.mark.parametrize(
    "head_values",
    [
        [700.0] * 8 + [1100.0] * 2,  # 8/10 wins
        [700.0] * 8 + [1000.0] * 2,  # two ties count for neither side
    ],
    ids=["eight-wins", "ties"],
)
def test_claim_needs_nine_wins_in_ten(tmp_path, capsys, head_values):
    base, head = claim_dirs(tmp_path, [1000.0] * 10, head_values)
    assert claim(base, head) == 1
    out = capsys.readouterr().out
    assert "head won 8/10 pairs" in out
    # The median gain (1000 -> 700) clears base's zero IQR: one rule missed.
    assert "FAIL: claim eval-wide/op_p10_ms not met (head won fewer than 90% of the pairs)\n" in out


def test_claim_gap_must_exceed_the_base_iqr(tmp_path, capsys):
    base_values = [800.0, 1200.0] * 5  # IQR 400
    base, head = claim_dirs(tmp_path, base_values, [v - 100.0 for v in base_values])
    assert claim(base, head) == 1
    out = capsys.readouterr().out
    assert "head won 10/10 pairs, median 1000 -> 900, base IQR 400 ms: not met" in out
    assert "not met (median gain 100 is not above base IQR 400)\n" in out


def test_claim_missing_both_rules_names_both(tmp_path, capsys):
    base_values = [800.0, 1200.0] * 5  # IQR 400
    head_values = [v - 100.0 for v in base_values[:8]] + [v + 100.0 for v in base_values[8:]]
    base, head = claim_dirs(tmp_path, base_values, head_values)
    assert claim(base, head) == 1
    assert (
        "FAIL: claim eval-wide/op_p10_ms not met (head won fewer than 90% of the pairs; "
        "median gain 0 is not above base IQR 400)\n"
    ) in capsys.readouterr().out


def test_claim_pairs_runs_in_run_order_not_name_order(tmp_path, capsys):
    # The host drifts slower run by run; head is 5% faster than the base
    # run beside it.  Head's files are numbered 5..16, so sorting names
    # as text ("10" < "5") would pair early base runs with late head runs.
    twelve = TEN + (1.0, 1.0)
    base_values = [1000.0 * (1 + i) for i in range(12)]
    base = write_runs(tmp_path / "base", jitter=twelve, values={CLAIM: base_values})
    head_values = [0.95 * v for v in base_values]
    head = write_runs(tmp_path / "head", jitter=twelve, first=5, values={CLAIM: head_values})
    runs = check_bench.outcomes(head)["eval-wide"]
    assert [run["metrics"]["op_p10_ms"]["value"] for run in runs] == head_values
    assert claim(base, head) == 1  # every pair won, but the drift makes base's IQR wide
    assert "head won 12/12 pairs" in capsys.readouterr().out


@pytest.mark.parametrize(
    "head_jitter, flag, message",
    [
        (JITTER, "eval-wide/op_p10_ms", "needs >= 10 runs on each side"),
        (TEN[:9] + (1.0, 1.0), "eval-wide/op_p10_ms", "got base 10, head 11"),
        (TEN, "eval-wide/pass_s", "names no benchmark workload/metric"),
        (TEN, "eval-wider/op_p10_ms", "names no benchmark workload/metric"),
    ],
    ids=["three-runs", "unequal-runs", "unknown-metric", "unknown-workload"],
)
def test_claim_without_ten_pairs_is_unusable(tmp_path, capsys, head_jitter, flag, message):
    base = write_runs(tmp_path / "base", jitter=TEN if head_jitter is not JITTER else JITTER)
    head = write_runs(tmp_path / "head", jitter=head_jitter)
    assert gate(base, head, "--claim", flag) == 2
    assert message in capsys.readouterr().err
