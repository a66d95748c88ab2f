"""Tests for checkpoint/TSV persistence and the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _load_eval_model, build_parser, main
from repro.core import RETIA, RETIAConfig
from repro.datasets import load_dataset
from repro.graph import TemporalKG
from repro.io import (
    TKGFormatError,
    load_checkpoint,
    load_tkg_tsv,
    save_checkpoint,
    save_tkg_tsv,
)
from repro.obs import read_events

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health_cli", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def tiny_graph():
    facts = [(0, 0, 1, 0), (1, 1, 2, 1), (2, 0, 3, 2)]
    return TemporalKG(facts, num_entities=4, num_relations=2, granularity="24 hours")


class TestCheckpoint:
    def test_roundtrip_state(self, tmp_path):
        config = RETIAConfig(num_entities=4, num_relations=2, dim=8, num_kernels=4)
        model = RETIA(config)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model.state_dict(), config)
        state, config_dict = load_checkpoint(path)
        rebuilt = RETIA(RETIAConfig(**config_dict))
        rebuilt.load_state_dict(state)
        np.testing.assert_array_equal(
            rebuilt.entity_embedding.data, model.entity_embedding.data
        )

    def test_config_optional(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.ones(3)})
        state, config = load_checkpoint(path)
        assert config is None
        np.testing.assert_array_equal(state["w"], np.ones(3))

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "x.npz"), {"__config_json__": np.ones(1)})

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_checkpoint(path, {"w": np.zeros(1)})
        assert os.path.exists(path)

    def test_plain_dict_config(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.zeros(1)}, config={"dim": 8})
        _, config = load_checkpoint(path)
        assert config == {"dim": 8}

    def test_missing_suffix_normalised_and_returned(self, tmp_path):
        # np.savez silently appends .npz; the wrapper must report where
        # the file actually landed instead of a phantom path.
        requested = str(tmp_path / "ckpt")
        written = save_checkpoint(requested, {"w": np.ones(2)})
        assert written == requested + ".npz"
        assert os.path.exists(written)
        state, _ = load_checkpoint(written)
        np.testing.assert_array_equal(state["w"], np.ones(2))

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        save_checkpoint(str(tmp_path / "ckpt.npz"), {"w": np.zeros(3)})
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]


class TestTSV:
    def test_roundtrip(self, tmp_path):
        graph = tiny_graph()
        path = str(tmp_path / "graph.tsv")
        save_tkg_tsv(path, graph)
        loaded = load_tkg_tsv(path)
        np.testing.assert_array_equal(loaded.facts, graph.facts)
        assert loaded.num_entities == 4
        assert loaded.num_relations == 2
        assert loaded.granularity == "24 hours"

    def test_vocab_inferred_without_header(self, tmp_path):
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t1\t5\t0\n")
        loaded = load_tkg_tsv(path)
        assert loaded.num_entities == 6
        assert loaded.num_relations == 2

    def test_explicit_vocab_overrides(self, tmp_path):
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t1\t0\n")
        loaded = load_tkg_tsv(path, num_entities=10, num_relations=3)
        assert loaded.num_entities == 10

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t1\t0\n0\t1\t2\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 2
        assert "4 tab-separated columns" in str(excinfo.value)
        assert path in str(excinfo.value)

    def test_non_integer_field_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=4 relations=2\n0\tfoo\t1\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 2

    def test_entity_id_out_of_declared_range(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=4 relations=2\n0\t0\t9\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert "entity id 9" in str(excinfo.value)

    def test_relation_id_out_of_explicit_range(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t5\t1\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path, num_entities=10, num_relations=3)
        assert "relation id 5" in str(excinfo.value)

    def test_negative_id_rejected(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t-1\t0\n")
        with pytest.raises(TKGFormatError):
            load_tkg_tsv(path)

    def test_malformed_header_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=lots relations=2\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 1

    def test_inferred_vocab_unchanged_by_validation(self, tmp_path):
        # No declared vocab: ids are inferred, never range-checked.
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t1\t5\t0\n")
        assert load_tkg_tsv(path).num_entities == 6


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ICEWS14" in out
        assert "#Entities" in out

    def test_datasets_json_format_parses(self, capsys):
        assert main(["datasets", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "ICEWS14" in stats
        assert stats["YAGO"]["#Entities"] > 0

    def test_report_json_format_round_trips(self, tmp_path, capsys):
        from repro.obs import RunReporter, read_events, summarize_run

        path = str(tmp_path / "run.jsonl")
        with RunReporter(path) as reporter:
            reporter.emit("run_start", schema_version=1, command="t", config={"dim": 8})
            reporter.emit(
                "epoch", epoch=1, loss_joint=1.5, loss_entity=1.0, loss_relation=0.5,
                lr=0.001, nonfinite_skips=0, batches=4, global_batch=4, seconds=0.2,
                phase_seconds={"evolve": {"seconds": 0.1, "calls": 4}}, spans_open=0,
            )
            reporter.emit("run_end", status="completed", epochs_completed=1)
        assert main(["report", path, "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(
            json.dumps(summarize_run(read_events(path)), sort_keys=True)
        )

    def test_report_on_zero_byte_file_fails_readably(self, tmp_path, capsys):
        # A run killed before its first flush leaves a zero-byte report;
        # `report` must say what is wrong, not crash or print an empty
        # summary with exit 0.
        path = str(tmp_path / "empty.jsonl")
        with open(path, "wb"):
            pass
        assert main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "contains no events" in err
        assert path in err

    def test_hypergraph_command(self, capsys):
        assert main(["hypergraph", "--dataset", "YAGO", "--time", "2"]) == 0
        out = capsys.readouterr().out
        assert "hyperedges" in out

    @pytest.mark.parametrize("time", ["99999", "-5"])
    def test_hypergraph_rejects_unknown_timestamp(self, capsys, time):
        assert main(["hypergraph", "--dataset", "YAGO", "--time", time]) == 2
        captured = capsys.readouterr()
        timestamps = load_dataset("YAGO").graph.timestamps
        assert captured.err == (
            f"invalid time: {time} is not a timestamp of YAGO "
            f"(valid: {timestamps[0]}..{timestamps[-1]})\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--dim", "dim must be >= 1"),
            ("--kernels", "num_kernels must be >= 1"),
            ("--history", "history_length must be >= 1"),
        ],
        ids=["dim", "kernels", "history"],
    )
    def test_train_rejects_bad_model_size(self, tmp_path, capsys, flag, message):
        out = tmp_path / "model.npz"
        argv = ["train", "--dataset", "YAGO", "--epochs", "1", "--out", str(out), flag, "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid model config: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_cli_import_leaves_networkx_unloaded(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, repro.cli; print('networkx' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert result.stdout == "False\n"

    def test_evaluate_rejects_configless_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "bad.npz")
        save_checkpoint(path, {"w": np.zeros(1)})
        assert main(["evaluate", "--dataset", "YAGO", "--checkpoint", path]) == 1

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize(
        "content",
        [None, b"not an archive", b"PK\x03\x04trunc"],
        ids=["missing", "garbage", "truncated-zip"],
    )
    def test_unreadable_checkpoint_is_one_line_and_exit_1(
        self, tmp_path, capsys, command, content
    ):
        path = tmp_path / "model.npz"
        if content is not None:
            path.write_bytes(content)
        assert main([command, "--dataset", "YAGO", "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot read checkpoint {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("misfit", ["other-vocabulary", "short-embedding"])
    def test_misfit_checkpoint_is_one_line_and_exit_1(self, tmp_path, capsys, command, misfit):
        # A YAGO-sized model cannot reveal ICEWS14's history; an archive
        # one embedding column short cannot load into its own config.
        dataset = load_dataset("YAGO")
        config = RETIAConfig(dataset.num_entities, dataset.num_relations, dim=8, num_kernels=4)
        state = RETIA(config).state_dict()
        if misfit == "other-vocabulary":
            name = "ICEWS14"
        else:
            name = "YAGO"
            state["entity_embedding"] = state["entity_embedding"][:, :-1]
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), state, config)
        assert main([command, "--dataset", name, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"checkpoint {path} does not fit dataset {name}: ")
        assert "Traceback" not in err

    def test_evaluate_loads_checkpoint_with_retired_config_keys(self, tmp_path, capsys):
        # Checkpoints written while the fused-cell and batched-decoder
        # switches existed carry both keys in their config blob.
        dataset = load_dataset("YAGO")
        config = RETIAConfig(
            dataset.num_entities, dataset.num_relations, dim=8, num_kernels=4
        )
        model = RETIA(config)
        blob = dict(asdict(config), fused_cells=False, batched_decoder=True)
        path = str(tmp_path / "old.npz")
        save_checkpoint(path, model.state_dict(), blob)

        args = build_parser().parse_args(
            ["evaluate", "--dataset", "YAGO", "--checkpoint", path]
        )
        _, rebuilt = _load_eval_model(args)
        assert rebuilt.config == config
        assert rebuilt.fingerprint() == model.fingerprint()
        assert main(["evaluate", "--dataset", "YAGO", "--checkpoint", path]) == 0
        assert "MRR" in capsys.readouterr().out

    @pytest.fixture
    def tiny_checkpoint(self, tmp_path):
        dataset = load_dataset("YAGO")
        config = RETIAConfig(dataset.num_entities, dataset.num_relations, dim=8, num_kernels=4)
        path = str(tmp_path / "tiny.npz")
        save_checkpoint(path, RETIA(config).state_dict(), asdict(config))
        return path

    def test_evaluate_run_report_holds_one_worker_event_and_is_healthy(
        self, tiny_checkpoint, tmp_path, capsys
    ):
        report = tmp_path / "eval.jsonl"
        argv = ["evaluate", "--dataset", "YAGO", "--checkpoint", tiny_checkpoint]
        assert main(argv + ["--run-report", str(report)]) == 0
        events = read_events(str(report), strict=True)
        assert events[0]["config"] == {"dataset": "YAGO"}
        workers = [e for e in events if e["event"] == "worker"]
        assert [(e["scope"], e["worker"]) for e in workers] == [("eval", 0)]
        assert check_run_health.check_events(
            events, max_encoder_share=1.0, allowed_statuses={"completed"}
        ) == []

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_diagnose_rejects_top_below_one_before_loading(self, tmp_path, capsys, top):
        # The checkpoint does not exist: the option is refused first.
        path = str(tmp_path / "absent.npz")
        assert main(["diagnose", "--dataset", "YAGO", "--checkpoint", path, "--top", top]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid diagnose options: top must be >= 1, got {top}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--requests", "0", "requests must be >= 1"),
            ("--qps", "-1", "qps must be > 0"),
            ("--deadline-ms", "0", "deadline_ms must be > 0"),
            ("--deadline-ms", "inf", "deadline_ms must be finite"),
        ],
    )
    def test_serve_rejects_bad_load_before_building_anything(
        self, tmp_path, capsys, flag, value, message
    ):
        report = tmp_path / "serve.jsonl"
        argv = ["serve", "--dataset", "ICEWS14", "--run-report", str(report), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid load: {message}\n"
        assert captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--keep", "0", "--checkpoint-dir", "{tmp}/runs"],
             "invalid training config: keep must be >= 1, got 0"),
            (["train", "--checkpoint-every", "-1"],
             "invalid training config: checkpoint_every_batches must be >= 0, got -1"),
            (["train", "--probe-every", "-2"],
             "invalid training config: every_batches must be >= 1"),
            (["evaluate", "--checkpoint", "{tmp}/model.npz", "--online", "--online-steps", "-1"],
             "invalid evaluation config: online_steps must be >= 1, got -1"),
        ],
        ids=["keep", "checkpoint-every", "probe-every", "online-steps"],
    )
    def test_out_of_range_run_options_exit_2_before_any_work(
        self, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "model.npz"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        argv[1:1] = ["--dataset", "ICEWS14"]
        if argv[0] == "train":
            argv += ["--epochs", "1", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{message}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["bench", "--dataset", "ICEWS14"], ["watch", "telemetry"]],
        ids=["bench", "watch"],
    )
    def test_retired_command_is_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_retired_serve_telemetry_option_is_unknown(self, tmp_path, capsys):
        # Spelled in parts so that searches for live uses of the retired
        # option find none.
        option = "--telemetry-" + "dir"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--dataset", "ICEWS14", option, str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_retired_worker_count_option_is_unknown(self, tiny_checkpoint, capsys, command):
        # Spelled in parts so that searches for live uses of the retired
        # option find none.
        option = "--eval-" + "workers"
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "YAGO", "--checkpoint", tiny_checkpoint, option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_config_from_dict_still_rejects_unknown_keys(self):
        blob = asdict(RETIAConfig(4, 2))
        assert RETIAConfig.from_dict(dict(blob, fused_cells=True)) == RETIAConfig(4, 2)
        with pytest.raises(TypeError):
            RETIAConfig.from_dict(dict(blob, fused_cell=True))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "FREEBASE"])

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "--dataset", "YAGO", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_drill_nan_loss(self, capsys):
        assert main(
            ["drill", "--dataset", "YAGO", "--fault", "nan-loss",
             "--at-batch", "2", "--epochs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "parameters finite: True" in out
