"""Tests for the fault-tolerant training runtime (repro.resilience).

Covers the acceptance criteria of the resilience layer: checkpoint
round-trips including optimizer and rng state, kill-at-batch-k resume
reproducing the uninterrupted run bit-for-bit, corrupt-checkpoint
detection falling back to the previous good file, and non-finite
sentinels leaving parameters finite and unchanged.
"""

import json
import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.nn import Adam, Parameter
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointManager,
    FaultInjector,
    GracefulInterrupt,
    NonFiniteGuard,
    ResilienceConfig,
    RunState,
    RunStateError,
    SentinelConfig,
    SimulatedCrash,
    TrainingInterrupted,
    flip_bit,
    load_run_state,
    read_payload,
    truncate_file,
    write_payload,
)


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


def make_trainer(model, *, checkpoint_dir=None, injector=None, epochs=3,
                 handle_signals=False):
    resilience = ResilienceConfig(
        checkpoint_dir=checkpoint_dir, handle_signals=handle_signals
    )
    return Trainer(
        model,
        TrainerConfig(epochs=epochs, patience=10),
        resilience=resilience,
        fault_injector=injector,
    )


# ----------------------------------------------------------------------
# RunState payload round-trip
# ----------------------------------------------------------------------
class TestRunStateRoundtrip:
    def test_full_roundtrip_preserves_everything(self, tmp_path):
        train, valid, _ = small_dataset()
        model = make_model()
        trainer = make_trainer(model, checkpoint_dir=str(tmp_path), epochs=1)
        trainer.fit(train, valid)
        state, _ = trainer.checkpoints.load_latest()

        for name, arr in model.state_dict().items():
            np.testing.assert_array_equal(state.model_state[name], arr)
        opt = trainer.optimizer.state_dict()
        assert state.optimizer_state["step_count"] == opt["step_count"]
        assert state.optimizer_state["lr"] == opt["lr"]
        for mine, saved in zip(opt["m"], state.optimizer_state["m"]):
            np.testing.assert_array_equal(mine, saved)
        assert state.trainer_rng_state == trainer._rng.bit_generator.state
        assert state.model_rng_states == model.rng_state()
        assert [e["epoch"] for e in state.log] == [e.epoch for e in trainer.log]

    def test_payload_roundtrip_via_file(self, tmp_path):
        state = RunState(
            epoch=2, global_batch=17, best_metric=42.0, bad_epochs=1,
            dtype="float32", log=[{"epoch": 0, "loss_joint": 1.25}],
            model_state={"w": np.arange(6.0).reshape(2, 3)},
            best_state={"w": np.ones((2, 3))},
            optimizer_state={"lr": 1e-3, "step_count": 17,
                             "m": [np.zeros(3)], "v": [np.ones(3)]},
            guard_state={"total_skips": 2, "consecutive": 1, "backoffs": 0},
        )
        path = write_payload(str(tmp_path / "state.npz"), state.to_payload())
        back = RunState.from_payload(read_payload(path))
        assert back.epoch == 2 and back.global_batch == 17
        assert back.best_metric == 42.0 and back.bad_epochs == 1
        assert back.dtype == "float32" and back.log == state.log
        np.testing.assert_array_equal(back.model_state["w"], state.model_state["w"])
        np.testing.assert_array_equal(back.best_state["w"], np.ones((2, 3)))
        assert back.optimizer_state["step_count"] == 17
        np.testing.assert_array_equal(back.optimizer_state["v"][0], np.ones(3))
        assert back.guard_state["total_skips"] == 2

    def test_neg_inf_best_metric_survives(self, tmp_path):
        path = write_payload(
            str(tmp_path / "s.npz"), RunState(best_metric=-np.inf).to_payload()
        )
        assert np.isneginf(load_run_state(path).best_metric)

    def test_unknown_version_rejected(self):
        payload = RunState().to_payload()
        meta = json.loads(bytes(payload["meta"]).decode())
        meta["version"] = 999
        payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(RunStateError):
            RunState.from_payload(payload)


class TestRunStateCompatibility:
    """Version-1 archives held a mid-epoch position and, while
    data-parallel training existed, a ``grad_shards`` plan."""

    @staticmethod
    def _as_v1(path, out, plan):
        """Copy of the archive at ``path`` rewritten as version 1."""
        payload = read_payload(path)
        meta = json.loads(bytes(payload["meta"]).decode())
        meta.update(
            version=1, batch_index=3, order=[5, 1, 9], joint_sum=1.25,
            entity_sum=0.5, relation_sum=0.75, batches=3, epoch_nonfinite=0,
        )
        if plan is not None:
            meta["grad_shards"] = plan
        payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        return write_payload(str(out), payload)

    @pytest.mark.parametrize("plan", [None, 0, 2], ids=["absent", "zero", "sharded"])
    def test_v1_archives_refused_naming_the_version(self, tmp_path, plan):
        train, valid, _ = small_dataset()
        directory = tmp_path / "run"
        make_trainer(make_model(), checkpoint_dir=str(directory), epochs=1).fit(
            train, valid
        )
        old = self._as_v1(
            CheckpointManager(str(directory)).latest(), tmp_path / "old.npz", plan
        )
        with pytest.raises(RunStateError, match="version 1"):
            load_run_state(old)
        with pytest.raises(RunStateError, match="version 1"):
            make_trainer(make_model(), epochs=1).fit(train, valid, resume=old)

    def test_v1_directory_fails_verification_as_a_whole(self, tmp_path):
        source = write_payload(str(tmp_path / "s.npz"), RunState().to_payload())
        directory = tmp_path / "run"
        directory.mkdir()
        self._as_v1(source, directory / "runstate-000000.npz", None)
        with pytest.raises(CheckpointCorruptError, match="version 1"):
            CheckpointManager(str(directory)).load_latest()


# ----------------------------------------------------------------------
# Checkpoint integrity + rotation
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_keep_n_rotation(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=2)
        for _ in range(5):
            manager.save(RunState())
        names = [os.path.basename(p) for p in manager.checkpoints()]
        assert names == ["runstate-000003.npz", "runstate-000004.npz"]

    def test_truncation_detected_and_skipped(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=3)
        manager.save(RunState(epoch=1))
        latest = manager.save(RunState(epoch=2))
        truncate_file(latest, fraction=0.5)
        state, path = manager.load_latest()
        assert state.epoch == 1
        assert path != latest

    def test_bitflip_detected_and_skipped(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=3)
        manager.save(RunState(epoch=1))
        latest = manager.save(RunState(epoch=2))
        flip_bit(latest)
        state, _ = manager.load_latest()
        assert state.epoch == 1

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=3)
        flip_bit(manager.save(RunState()))
        with pytest.raises(CheckpointCorruptError):
            manager.load_latest()

    def test_every_checkpoint_corrupt_one_error_naming_all_of_them(self, tmp_path):
        # Three checkpoints, three different corruptions (bit flip,
        # truncation, zero-byte file): the fallback chain must exhaust
        # them and raise ONE error that names every failed candidate,
        # not the IndexError/last-exception of whichever died last.
        manager = CheckpointManager(str(tmp_path), keep=3)
        flipped = manager.save(RunState(epoch=1))
        truncated = manager.save(RunState(epoch=2))
        emptied = manager.save(RunState(epoch=3))
        flip_bit(flipped)
        truncate_file(truncated, fraction=0.5)
        with open(emptied, "wb"):
            pass  # zero-byte: flip_bit/truncate can't make this one
        with pytest.raises(
            CheckpointCorruptError, match="every checkpoint failed verification"
        ) as excinfo:
            manager.load_latest()
        message = str(excinfo.value)
        for path in (flipped, truncated, emptied):
            assert Path(path).name in message

    def test_empty_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(str(tmp_path)).load_latest()

    def test_single_file_verification(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(RunState(epoch=4))
        assert load_run_state(path).epoch == 4
        flip_bit(path)
        with pytest.raises(CheckpointCorruptError):
            load_run_state(path)


# ----------------------------------------------------------------------
# Optimizer state round-trip (satellite)
# ----------------------------------------------------------------------
class TestOptimizerState:
    def _stepped(self, klass, **kwargs):
        p = Parameter(np.ones(3))
        opt = klass([p], **kwargs)
        p.grad = np.array([0.1, -0.2, 0.3])
        opt.step()
        return p, opt

    def test_adam_moments_survive(self):
        p, opt = self._stepped(Adam, lr=1e-2)
        state = opt.state_dict()
        q = Parameter(np.ones(3))
        fresh = Adam([q], lr=0.5)
        fresh.load_state_dict(state)
        assert fresh._step_count == 1 and fresh.lr == 1e-2
        np.testing.assert_array_equal(fresh._m[0], opt._m[0])
        np.testing.assert_array_equal(fresh._v[0], opt._v[0])
        # Identical next step from identical state.
        q.data = p.data.copy()
        p.grad = q.grad = np.array([0.05, 0.05, 0.05])
        opt.step()
        fresh.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_shape_mismatch_rejected(self):
        opt = Adam([Parameter(np.ones(3))])
        state = opt.state_dict()
        state["m"] = [np.zeros(4)]
        with pytest.raises(ValueError):
            opt.load_state_dict(state)


# ----------------------------------------------------------------------
# Kill + resume reproduces the uninterrupted run
# ----------------------------------------------------------------------
class TestKillResume:
    def test_mid_epoch_kill_resume_is_bit_identical(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        ref_trainer = make_trainer(reference, epochs=3)
        ref_log = ref_trainer.fit(train, valid)

        crashed = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=3,
            injector=FaultInjector(kill_at_batch=9),
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(train, valid)

        resumed_model = make_model()
        resumed = make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=3)
        log = resumed.fit(train, valid, resume=True)

        assert resumed_model.fingerprint() == reference.fingerprint()
        assert [e.valid_mrr for e in log] == [e.valid_mrr for e in ref_log]
        assert [e.loss_joint for e in log] == [e.loss_joint for e in ref_log]

    def test_epoch_boundary_checkpoints_also_resume_identically(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        make_trainer(reference, epochs=3).fit(train, valid)

        crashed = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=3,
            injector=FaultInjector(kill_at_batch=14),
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(train, valid)

        resumed_model = make_model()
        make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=3).fit(
            train, valid, resume=True
        )
        assert resumed_model.fingerprint() == reference.fingerprint()

    def test_resume_from_corrupted_latest_falls_back(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        make_trainer(reference, epochs=3).fit(train, valid)

        # 8 batches an epoch: batch 18 falls after the second boundary,
        # so the epoch-1 checkpoint is there to fall back to.
        crashed = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=3,
            injector=FaultInjector(kill_at_batch=18),
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(train, valid)
        manager = CheckpointManager(str(tmp_path))
        assert len(manager.checkpoints()) == 2
        flip_bit(manager.latest())
        assert manager.load_latest()[0].epoch == 1

        resumed_model = make_model()
        make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=3).fit(
            train, valid, resume=True
        )
        assert resumed_model.fingerprint() == reference.fingerprint()

    def test_kill_before_first_boundary_resumes_fresh(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        ref_log = make_trainer(reference, epochs=2).fit(train, valid)

        crashed = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=2,
            injector=FaultInjector(kill_at_batch=5),
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(train, valid)
        assert CheckpointManager(str(tmp_path)).checkpoints() == []

        resumed_model = make_model()
        log = make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=2).fit(
            train, valid, resume=True
        )
        assert resumed_model.fingerprint() == reference.fingerprint()
        assert [e.loss_joint for e in log] == [e.loss_joint for e in ref_log]

    def test_resume_true_without_checkpoints_starts_fresh(self, tmp_path):
        train, valid, _ = small_dataset()
        model = make_model()
        log = make_trainer(model, checkpoint_dir=str(tmp_path), epochs=1).fit(
            train, valid, resume=True
        )
        assert len(log) == 1

    def test_resume_of_completed_run_returns_without_training(self, tmp_path):
        train, valid, _ = small_dataset()
        first = make_model()
        trainer = make_trainer(first, checkpoint_dir=str(tmp_path), epochs=2)
        trainer.fit(train, valid)

        again_model = make_model()
        again = make_trainer(again_model, checkpoint_dir=str(tmp_path), epochs=2)
        log = again.fit(train, valid, resume=True)
        assert len(log) == 2
        assert again_model.fingerprint() == first.fingerprint()
        assert not again_model.training

    def test_resume_true_requires_checkpoint_dir(self):
        train, valid, _ = small_dataset()
        trainer = make_trainer(make_model(), epochs=1)
        with pytest.raises(ValueError):
            trainer.fit(train, valid, resume=True)


# ----------------------------------------------------------------------
# Non-finite sentinels
# ----------------------------------------------------------------------
class TestNonFiniteSentinel:
    def test_injected_nan_batch_is_skipped_and_counted(self):
        train, _, _ = small_dataset()
        model = make_model()
        trainer = make_trainer(
            model, injector=FaultInjector(nan_loss_at=[2]), epochs=1
        )
        log = trainer.fit(train)
        assert log[0].nonfinite_skips == 1
        assert model.parameters_finite()
        assert trainer.guard.total_skips == 1

    def test_nan_batch_leaves_parameters_unchanged(self):
        train, _, _ = small_dataset()
        model = make_model()
        trainer = make_trainer(model, injector=FaultInjector(nan_loss_at=[0]), epochs=1)
        model.set_history(train)
        snapshot = train.snapshot(int(train.timestamps[1]))
        before = model.state_dict()
        joint, _, _ = model.loss_on_snapshot(snapshot)
        trainer.fault_injector.poison_loss(joint, 0)
        assert not trainer.guard.guarded_step(joint, 1.0)
        for name, arr in model.state_dict().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_lr_backoff_after_repeated_failures(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=1e-2)
        guard = NonFiniteGuard(
            opt, SentinelConfig(backoff_patience=2, backoff_factor=0.5)
        )

        class FakeLoss:
            def item(self):
                return float("nan")

        assert not guard.guarded_step(FakeLoss())
        assert opt.lr == 1e-2  # first failure: under patience
        assert not guard.guarded_step(FakeLoss())
        assert opt.lr == 5e-3  # second consecutive: backed off
        assert guard.backoffs == 1 and guard.total_skips == 2

    def test_min_lr_floor(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=2e-6)
        guard = NonFiniteGuard(
            opt, SentinelConfig(backoff_patience=1, backoff_factor=0.5, min_lr=1e-6)
        )

        class FakeLoss:
            def item(self):
                return float("inf")

        for _ in range(5):
            guard.guarded_step(FakeLoss())
        assert opt.lr == 1e-6

    def test_nonfinite_gradient_skips_step(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=1e-2)
        guard = NonFiniteGuard(opt)

        class StubLoss:
            # Finite value, but backward leaves an inf gradient — the
            # "diverging batch" case the gradient check exists for.
            def item(self):
                return 1.0

            def backward(self):
                p.grad = np.array([np.inf, np.inf])

        before = p.data.copy()
        assert not guard.guarded_step(StubLoss())
        np.testing.assert_array_equal(p.data, before)
        assert guard.total_skips == 1

    def test_online_adapter_skips_nan_snapshot(self):
        train, _, test = small_dataset()
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(train)
        adapter = trainer.online_adapter()
        # Poison the model output by zeroing lr? Instead: feed NaN into
        # a parameter copy via a poisoned guard path — simulate by
        # temporarily NaN-ing the loss through a monkeypatched model.
        original = model.loss_on_snapshot

        def poisoned(snapshot):
            joint, e, r = original(snapshot)
            joint.data = np.full_like(joint.data, np.nan)
            return joint, e, r

        model.loss_on_snapshot = poisoned
        before = model.fingerprint()
        t0 = int(test.timestamps[0])
        adapter.observe(test.snapshot(t0))
        model.loss_on_snapshot = original
        assert adapter.nonfinite_skips == trainer.config.online_steps
        assert model.fingerprint() == before  # no step happened
        assert model.history_before(t0 + 1)[-1].time == t0  # still recorded


# ----------------------------------------------------------------------
# Graceful interruption
# ----------------------------------------------------------------------
class TestGracefulInterruption:
    def test_sigterm_names_epoch_checkpoint_and_resumes_identically(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        ref_log = make_trainer(reference, epochs=3).fit(train, valid)

        # Batch 10 is inside epoch 1, after the first boundary.
        trainer = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=3,
            injector=FaultInjector(signal_at_batch=10), handle_signals=True,
        )
        with pytest.raises(TrainingInterrupted) as excinfo:
            trainer.fit(train, valid)
        assert excinfo.value.signal_number == signal.SIGTERM
        boundary = excinfo.value.checkpoint_path
        assert CheckpointManager(str(tmp_path)).checkpoints() == [boundary]
        assert load_run_state(boundary).epoch == 1

        resumed_model = make_model()
        log = make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=3).fit(
            train, valid, resume=True
        )
        assert resumed_model.fingerprint() == reference.fingerprint()
        assert [e.loss_joint for e in log] == [e.loss_joint for e in ref_log]

    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = make_model()
        make_trainer(reference, epochs=3).fit(train, valid)

        trainer = make_trainer(
            make_model(), checkpoint_dir=str(tmp_path), epochs=3,
            injector=FaultInjector(signal_at_batch=6), handle_signals=True,
        )
        with pytest.raises(TrainingInterrupted) as excinfo:
            trainer.fit(train, valid)
        assert excinfo.value.checkpoint_path is None  # no epoch finished yet

        resumed_model = make_model()
        make_trainer(resumed_model, checkpoint_dir=str(tmp_path), epochs=3).fit(
            train, valid, resume=True
        )
        assert resumed_model.fingerprint() == reference.fingerprint()

    def test_handlers_restored_after_fit(self):
        previous = signal.getsignal(signal.SIGTERM)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGTERM) != previous
        assert signal.getsignal(signal.SIGTERM) == previous


# ----------------------------------------------------------------------
# GracefulInterrupt escalation and thread confinement
# ----------------------------------------------------------------------
class TestGracefulInterrupt:
    def test_first_signal_sets_flag_second_escalates(self):
        with GracefulInterrupt() as guard:
            signal.raise_signal(signal.SIGINT)
            assert guard.triggered
            assert guard.signal_number == signal.SIGINT
            # Second SIGINT restores the previous (default) handlers and
            # re-raises against them: Python's default turns it into
            # KeyboardInterrupt instead of being swallowed.
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_context_is_not_reentrant(self):
        guard = GracefulInterrupt(enabled=False)
        with guard:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                guard.__enter__()
        # After a clean exit it is usable again.
        with guard:
            pass

    def test_off_main_thread_warns_and_stays_inert(self):
        captured = {}

        def worker():
            with pytest.warns(RuntimeWarning, match="off the main thread"):
                with GracefulInterrupt() as guard:
                    captured["triggered"] = guard.triggered
            captured["ok"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert captured == {"triggered": False, "ok": True}


# ----------------------------------------------------------------------
# Module rng state capture
# ----------------------------------------------------------------------
class TestRngState:
    def test_capture_restore_reproduces_stream(self):
        model = make_model()
        states = model.rng_state()
        assert states  # dropout/RReLU generators exist
        generators = model._rng_generators()
        first = [g.random(3).tolist() for g in generators]
        model.set_rng_state(states)
        second = [g.random(3).tolist() for g in generators]
        assert first == second

    def test_count_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.set_rng_state(model.rng_state() + [{}])
