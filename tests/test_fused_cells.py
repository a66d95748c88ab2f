"""Fused recurrent-cell kernels (DESIGN.md §11).

The single-node ``F.gru_cell`` / ``F.lstm_cell`` kernels behind
``GRUCell`` / ``LSTMCell`` are *bit-identical* to the reference cell
compositions in ``tests/oracles.py`` — forward values, parameter
gradients and input gradients to the ulp at float32 and float64, across
batch shapes and every LSTM output-usage pattern.  Gate-saturation
probing sees the same statistics on both, zero-state buffers are cached
per batch size, the workspace pool actually recycles gate buffers
(including under ``no_grad``), a RETIA run on the oracle cells and one
on the production cells land on the same two-epoch
``RETIA.fingerprint()``, kill-drill resume included, and a stale
caller passing the retired ``fused_cells`` switch fails loudly.
"""

from functools import partial

import numpy as np
import pytest

from repro.autograd import DtypePolicy, Tensor, no_grad
from repro.autograd import functional as F
from repro.autograd.functional import cell_workspace_stats, clear_cell_workspace
from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.nn.rnn import GRUCell, LSTMCell
from repro.resilience import FaultInjector, ResilienceConfig, SimulatedCrash
from tests.oracles import (
    forbidden,
    reference_gru_step,
    reference_lstm_step,
    use_reference_cells,
)

DTYPES = ("float32", "float64")


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


def gru_parts(cell, x, h):
    return [
        ("x", x), ("h", h),
        ("weight_ih", cell.weight_ih), ("weight_hh", cell.weight_hh),
        ("bias_ih", cell.bias_ih), ("bias_hh", cell.bias_hh),
    ]


def lstm_parts(cell, x, h, c):
    return [
        ("x", x), ("h", h), ("c", c),
        ("weight_ih", cell.weight_ih), ("weight_hh", cell.weight_hh),
        ("bias_ih", cell.bias_ih), ("bias_hh", cell.bias_hh),
    ]


def grab_grads(parts):
    grads = {}
    for name, tensor in parts:
        grads[name] = None if tensor.grad is None else tensor.grad.copy()
        tensor.grad = None
    return grads


def assert_same_grads(reference, parts, context):
    for name, tensor in parts:
        ref = reference[name]
        if ref is None:
            # The reference graph never touched this input (dead branch,
            # e.g. the output gate when only c_next feeds the loss); the
            # fused kernel must not invent a nonzero gradient for it.
            assert tensor.grad is None or not tensor.grad.any(), (
                f"{context}: fused produced a gradient for {name}, reference did not"
            )
        else:
            assert tensor.grad is not None, f"{context}: missing gradient for {name}"
            assert np.array_equal(ref, tensor.grad), (
                f"{context}: gradient mismatch for {name}"
            )
        tensor.grad = None


# ----------------------------------------------------------------------
# Bit-exactness: forward values and every gradient, to the ulp
# ----------------------------------------------------------------------
class TestGRUBitExact:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch", [1, 5, 33])
    def test_forward_and_grads_match_reference(self, dtype, batch):
        with DtypePolicy(dtype):
            rng = np.random.default_rng(3)
            cell = GRUCell(7, 6, rng=rng)
            resolved = np.dtype(dtype)
            x = Tensor((rng.standard_normal((batch, 7)) * 3).astype(resolved),
                       requires_grad=True)
            h = Tensor((rng.standard_normal((batch, 6)) * 3).astype(resolved),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((batch, 6)).astype(resolved))
            ref = reference_gru_step(cell, x, h)
            (ref * w).sum().backward()
            expected = grab_grads(gru_parts(cell, x, h))
            fused = cell(x, h)
            assert np.array_equal(ref.data, fused.data)
            assert fused.data.dtype == ref.data.dtype
            (fused * w).sum().backward()
            assert_same_grads(expected, gru_parts(cell, x, h), f"gru {dtype} B={batch}")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nonzero_bias_hh_disables_the_fold_and_still_matches(self, dtype):
        with DtypePolicy(dtype):
            rng = np.random.default_rng(4)
            cell = GRUCell(5, 4, rng=rng)
            cell.bias_hh.data[:] = rng.standard_normal(12).astype(np.dtype(dtype))
            x = Tensor(rng.standard_normal((6, 5)).astype(np.dtype(dtype)),
                       requires_grad=True)
            h = Tensor(rng.standard_normal((6, 4)).astype(np.dtype(dtype)),
                       requires_grad=True)
            ref = reference_gru_step(cell, x, h)
            ref.sum().backward()
            expected = grab_grads(gru_parts(cell, x, h))
            fused = cell(x, h)
            assert np.array_equal(ref.data, fused.data)
            fused.sum().backward()
            assert_same_grads(expected, gru_parts(cell, x, h), f"gru bias_hh {dtype}")

    def test_chained_steps_match_reference(self):
        # Gradients flowing through h across a k-step window — the
        # actual encoder usage pattern.
        with DtypePolicy("float64"):
            rng = np.random.default_rng(5)
            cell = GRUCell(4, 4, rng=rng)
            xs = [Tensor(rng.standard_normal((3, 4))) for _ in range(4)]
            h0 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

            def run(step):
                h = h0
                for x in xs:
                    h = step(x, h)
                return h

            ref = run(partial(reference_gru_step, cell))
            ref.sum().backward()
            expected = grab_grads(gru_parts(cell, xs[0], h0))
            fused = run(cell)
            assert np.array_equal(ref.data, fused.data)
            fused.sum().backward()
            assert_same_grads(expected, gru_parts(cell, xs[0], h0), "gru chained")


class TestLSTMBitExact:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("use_output", ["h", "c", "both"])
    def test_forward_and_grads_match_reference(self, dtype, use_output):
        with DtypePolicy(dtype):
            rng = np.random.default_rng(6)
            resolved = np.dtype(dtype)
            cell = LSTMCell(10, 4, rng=rng)
            x = Tensor((rng.standard_normal((8, 10)) * 2).astype(resolved),
                       requires_grad=True)
            h = Tensor(rng.standard_normal((8, 4)).astype(resolved), requires_grad=True)
            c = Tensor(rng.standard_normal((8, 4)).astype(resolved), requires_grad=True)

            def loss_of(h_next, c_next):
                if use_output == "h":
                    return h_next.sum()
                if use_output == "c":
                    return c_next.sum()
                return h_next.sum() + c_next.sum()

            rh, rc = reference_lstm_step(cell, x, (h, c))
            loss_of(rh, rc).backward()
            expected = grab_grads(lstm_parts(cell, x, h, c))
            fh, fc = cell(x, (h, c))
            assert np.array_equal(rh.data, fh.data)
            assert np.array_equal(rc.data, fc.data)
            loss_of(fh, fc).backward()
            assert_same_grads(
                expected, lstm_parts(cell, x, h, c), f"lstm {dtype} use={use_output}"
            )

    def test_chained_steps_match_reference(self):
        with DtypePolicy("float64"):
            rng = np.random.default_rng(7)
            cell = LSTMCell(6, 3, rng=rng)
            xs = [Tensor(rng.standard_normal((4, 6))) for _ in range(3)]
            h0 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            c0 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

            def run(step):
                h, c = h0, c0
                for x in xs:
                    h, c = step(x, (h, c))
                return h, c

            rh, rc = run(partial(reference_lstm_step, cell))
            (rh.sum() + rc.sum()).backward()
            expected = grab_grads(lstm_parts(cell, xs[0], h0, c0))
            fh, fc = run(cell)
            assert np.array_equal(rh.data, fh.data)
            assert np.array_equal(rc.data, fc.data)
            (fh.sum() + fc.sum()).backward()
            assert_same_grads(expected, lstm_parts(cell, xs[0], h0, c0), "lstm chained")


# ----------------------------------------------------------------------
# Gate-saturation probing parity on the fused path
# ----------------------------------------------------------------------
class TestGateStatsParity:
    def test_fused_and_reference_record_identical_stats(self):
        with DtypePolicy("float64"):
            rng = np.random.default_rng(8)
            cell = LSTMCell(6, 4, rng=rng)
            x = Tensor(rng.standard_normal((5, 6)) * 4)
            state = (Tensor(rng.standard_normal((5, 4))),
                     Tensor(rng.standard_normal((5, 4))))
            cell.collect_gate_stats = True
            reference_lstm_step(cell, x, state)
            reference_lstm_step(cell, x, state)
            reference = cell.pop_gate_stats()
            cell.collect_gate_stats = True
            cell(x, state)
            cell(x, state)
            fused = cell.pop_gate_stats()
            assert fused == reference
            assert fused["calls"] == 2

    def test_unarmed_fused_forward_records_nothing(self):
        with DtypePolicy("float64"):
            rng = np.random.default_rng(9)
            cell = LSTMCell(4, 3, rng=rng)
            cell(Tensor(rng.standard_normal((2, 4))))
            assert cell.pop_gate_stats() is None


# ----------------------------------------------------------------------
# Satellite mechanics: zero-state cache and the workspace pool
# ----------------------------------------------------------------------
class TestInitStateCache:
    def test_same_batch_returns_cached_tensors(self):
        with DtypePolicy("float64"):
            cell = LSTMCell(4, 3)
            first = cell.init_state(7)
            again = cell.init_state(7)
            assert first[0] is again[0] and first[1] is again[1]
            assert not first[0].requires_grad and not first[1].requires_grad
            assert not first[0].data.any() and not first[1].data.any()
            assert cell.init_state(8)[0] is not first[0]

    def test_cache_is_dtype_aware(self):
        cell = LSTMCell(4, 3)
        with DtypePolicy("float32"):
            h32, _ = cell.init_state(5)
        with DtypePolicy("float64"):
            h64, _ = cell.init_state(5)
        assert h32.data.dtype == np.float32
        assert h64.data.dtype == np.float64
        assert h32 is not h64


class TestWorkspacePool:
    def test_backward_recycles_gate_buffers(self):
        clear_cell_workspace()
        with DtypePolicy("float64"):
            rng = np.random.default_rng(10)
            cell = GRUCell(4, 4, rng=rng)
            x = Tensor(rng.standard_normal((6, 4)))
            h = Tensor(rng.standard_normal((6, 4)))
            for _ in range(3):
                cell(x, h).sum().backward()
                for p in cell.parameters():
                    p.grad = None
        stats = cell_workspace_stats()
        assert stats["reused"] > 0
        assert stats["pooled"] > 0
        clear_cell_workspace()
        assert cell_workspace_stats() == {"taken": 0, "reused": 0, "pooled": 0}

    def test_no_grad_forward_returns_buffers_immediately(self):
        clear_cell_workspace()
        with DtypePolicy("float64"):
            rng = np.random.default_rng(11)
            gru = GRUCell(4, 4, rng=rng)
            lstm = LSTMCell(4, 3, rng=rng)
            x = Tensor(rng.standard_normal((5, 4)))
            h = Tensor(rng.standard_normal((5, 4)))
            with no_grad():
                gru(x, h)
                lstm(x)
            first = cell_workspace_stats()
            with no_grad():
                gru(x, h)
                lstm(x)
            second = cell_workspace_stats()
        # Every buffer the second pass needed came out of the pool.
        assert second["reused"] - first["reused"] == second["taken"] - first["taken"]
        assert second["pooled"] == first["pooled"]
        clear_cell_workspace()

    def test_functional_ops_reject_nothing_the_reference_accepts(self):
        # Dead-grad path: no parent requires grad -> plain tensors out.
        with DtypePolicy("float64"):
            rng = np.random.default_rng(12)
            cell = GRUCell(3, 3, rng=rng)
            for p in cell.parameters():
                p.requires_grad = False
            x = Tensor(rng.standard_normal((2, 3)))
            h = Tensor(rng.standard_normal((2, 3)))
            out = F.gru_cell(x, h, cell.weight_ih, cell.weight_hh,
                             cell.bias_ih, cell.bias_hh)
            assert not out.requires_grad


# ----------------------------------------------------------------------
# End to end: training fingerprints and kill-drill resume
# ----------------------------------------------------------------------
class TestTrainingParity:
    def test_two_epoch_fingerprints_match_across_fused_flag(self, monkeypatch):
        train, valid, _ = small_dataset()
        reference = use_reference_cells(make_model())
        with monkeypatch.context() as patch:
            # The oracle run must never touch the fused kernels.
            patch.setattr(F, "gru_cell", forbidden)
            patch.setattr(F, "lstm_cell", forbidden)
            reference_log = Trainer(reference, TrainerConfig(epochs=2, patience=10)).fit(
                train, valid
            )
        production = make_model()
        production_log = Trainer(production, TrainerConfig(epochs=2, patience=10)).fit(
            train, valid
        )
        assert production.fingerprint() == reference.fingerprint()
        assert [e.loss_joint for e in production_log] == [
            e.loss_joint for e in reference_log
        ]

    def test_kill_drill_resume_on_fused_path_matches_unfused_reference(self, tmp_path):
        train, valid, _ = small_dataset()
        reference = use_reference_cells(make_model())
        Trainer(
            reference,
            TrainerConfig(epochs=2, patience=10),
            resilience=ResilienceConfig(handle_signals=False),
        ).fit(train, valid)

        resilience = ResilienceConfig(checkpoint_dir=str(tmp_path), handle_signals=False)
        # Batch 10 is inside epoch 1: the resume restarts from the first
        # epoch-boundary checkpoint.
        crashed = Trainer(
            make_model(),
            TrainerConfig(epochs=2, patience=10),
            resilience=resilience,
            fault_injector=FaultInjector(kill_at_batch=10),
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(train, valid)

        resumed_model = make_model()
        Trainer(
            resumed_model,
            TrainerConfig(epochs=2, patience=10),
            resilience=resilience,
        ).fit(train, valid, resume=True)
        assert resumed_model.fingerprint() == reference.fingerprint()

    def test_retired_fused_cells_switch_is_rejected(self):
        # A stale caller fails loudly instead of being silently ignored.
        with pytest.raises(TypeError):
            RETIAConfig(num_entities=3, num_relations=2, fused_cells=False)


# ----------------------------------------------------------------------
# Snapshot-cache warmup and metrics exposition
# ----------------------------------------------------------------------
class TestCacheWarmup:
    def test_warm_prebuilds_and_second_warm_is_a_noop(self):
        train, _, _ = small_dataset()
        model = make_model()
        model.set_history(train)
        cache = model.snapshot_cache
        built = cache.warm(train.snapshots())
        assert built == len(train.snapshots())
        assert cache.warm(train.snapshots()) == 0
        assert cache.hits >= built

    def test_trainer_fit_warms_cache_before_first_step(self):
        train, valid, _ = small_dataset()
        model = make_model()
        trainer = Trainer(model, TrainerConfig(epochs=1, patience=10))
        trainer.fit(train, valid)
        # Warmup built every train + valid snapshot exactly once; the
        # epoch loop and validation eval afterwards only ever hit.
        expected = len(train.snapshots()) + len(valid.snapshots())
        assert model.snapshot_cache.misses == expected
