"""RE-GCN, RGCRN, CEN and TiRGN on RETIA's EAM, snapshot cache and
stacked decoder, checked against the hand-written classes kept in
``tests/oracles.py``.

Seed 0, float64, on the fixture split and on ICEWS14.  Initial
parameters, forward losses along training, predictions and evaluation
results are equal (``==``) for RE-GCN, RGCRN and TiRGN, which decode one
snapshot.  CEN decodes k: its stacked decoder runs the conv and
projection GEMMs once over ``k·B`` rows where the loop runs k GEMMs over
``B`` rows, and BLAS may round a row differently with the matrix shape
(on ICEWS14 some decoder queries differ in the last ulp), so CEN's
losses and scores are checked to ``rtol=1e-13``; its evaluation results
are still equal.  Independently trained runs of every model agree to
rounding only: the stacked decoder's backward also adds the gradient
contributions of its gathers and candidate products in another order
than the loop (the last-ulp difference ``test_decoder_fastpath``
documents for RETIA).
"""

import numpy as np
import pytest

from repro.baselines import CEN, REGCN, RGCRN, TiRGN
from repro.core import Trainer, TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.datasets import load_dataset
from repro.eval import evaluate_extrapolation
from tests.oracles import (
    ReferenceCEN,
    ReferenceREGCN,
    ReferenceRGCRN,
    ReferenceTiRGN,
    renamed_state,
)
from tests.test_baselines_dynamic import small_split

MODELS = {
    "REGCN": (REGCN, ReferenceREGCN),
    "RGCRN": (RGCRN, ReferenceRGCRN),
    "CEN": (CEN, ReferenceCEN),
    "TiRGN": (TiRGN, ReferenceTiRGN),
}
EPOCHS = 3
#: Decodes k snapshots in one stacked GEMM, so matches the loop to rounding.
STACKED = {"CEN"}


@pytest.fixture(scope="module", params=["fixture", "ICEWS14"])
def split(request):
    if request.param == "fixture":
        train, valid, test = small_split()
        return train, valid, test, 2
    data = load_dataset("ICEWS14")
    return data.train, data.valid, data.test, 3


@pytest.fixture(scope="module")
def trained(split):
    """``trained(cls)``: the joint loss of every step of a three-epoch
    run of a fresh ``cls`` model, and the model after it (one run per
    class and split)."""
    runs = {}

    def run(cls):
        if cls not in runs:
            model = build(cls, split)
            runs[cls] = recorded_fit(model, split), model
        return runs[cls]

    return run


def build(cls, split):
    train, _, _, history = split
    model = cls(
        train.num_entities, train.num_relations, dim=8, history_length=history,
        num_kernels=4, seed=0,
    )
    assert all(p.data.dtype == np.float64 for p in model.parameters())
    return model


def recorded_fit(model, split):
    """Three Trainer epochs; returns the joint loss of every step."""
    train, valid, _, _ = split
    steps = []
    loss_on_snapshot = model.loss_on_snapshot

    def recording(target):
        losses = loss_on_snapshot(target)
        steps.append(losses[0].item())
        return losses

    model.loss_on_snapshot = recording
    Trainer(model, TrainerConfig(epochs=EPOCHS, patience=EPOCHS)).fit(train, valid)
    del model.loss_on_snapshot
    return np.array(steps)


def assert_same(name, got, expected):
    if name in STACKED:
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
    else:
        np.testing.assert_array_equal(got, expected)


def shared_pair(name, split, trained):
    """Fresh production and reference models holding a trained model's
    parameters and generator state, and the same known past."""
    new_cls, ref_cls = MODELS[name]
    train, valid, _, _ = split
    _, source = trained(new_cls)
    model, reference = build(new_cls, split), build(ref_cls, split)
    model.load_state_dict(source.state_dict())
    reference.load_state_dict(renamed_state(source.state_dict(), reverse=True))
    for m in (model, reference):
        m.set_rng_state(source.rng_state())
        m.set_history(train)
        for ts in valid.timestamps:
            m.observe(valid.snapshot(int(ts)))
        m.eval()
    return model, reference


def assert_states_close(state, reference_state):
    reference_state = renamed_state(reference_state)
    assert state.keys() == reference_state.keys()
    for key, value in state.items():
        np.testing.assert_allclose(
            value, reference_state[key], rtol=1e-12, atol=1e-14, err_msg=key
        )


@pytest.mark.parametrize("name", sorted(MODELS))
class TestAgainstReference:
    def test_initial_parameters_equal_after_key_rename(self, name, split):
        new_cls, ref_cls = MODELS[name]
        state = build(new_cls, split).state_dict()
        reference_state = build(ref_cls, split).state_dict()
        assert any(key.startswith("entity_gcn.") for key in reference_state)
        renamed = renamed_state(reference_state)
        assert list(state) == list(renamed)
        for key, value in state.items():
            assert np.array_equal(value, renamed[key]), key

    def test_step_losses_equal_along_training(self, name, split):
        """Every training step's losses, with the reference model moved to
        the production model's parameters, generator state and known past."""
        new_cls, ref_cls = MODELS[name]
        model = build(new_cls, split)
        reference = build(ref_cls, split)
        loss_on_snapshot = model.loss_on_snapshot
        compared = []

        def lockstep(target):
            reference.load_state_dict(renamed_state(model.state_dict(), reverse=True))
            reference.set_rng_state(model.rng_state())
            reference.train(model.training)
            reference._history = dict(model._history)
            if hasattr(model, "vocab"):
                reference.vocab = model.vocab
            expected = [loss.item() for loss in reference.loss_on_snapshot(target)]
            losses = loss_on_snapshot(target)
            assert_same(name, [loss.item() for loss in losses], expected)
            compared.append(target.time)
            return losses

        model.loss_on_snapshot = lockstep
        train, valid, _, _ = split
        Trainer(model, TrainerConfig(epochs=EPOCHS, patience=EPOCHS)).fit(train, valid)
        assert len(compared) == EPOCHS * (len(train.timestamps) - 1)

    def test_independent_training_agrees_to_rounding(self, name, trained):
        (steps, model), (reference_steps, reference) = map(trained, MODELS[name])
        assert_same(name, steps[0], reference_steps[0])
        np.testing.assert_allclose(steps, reference_steps, rtol=1e-12, atol=0)
        assert_states_close(model.state_dict(), reference.state_dict())

    def test_predictions_equal(self, name, split, trained):
        model, reference = shared_pair(name, split, trained)
        _, _, test, _ = split
        ts = int(test.timestamps[0])
        triples = test.snapshot(ts).triples
        queries, pairs = triples[:, :2], triples[:, [0, 2]]
        assert_same(
            name, model.predict_entities(queries, ts), reference.predict_entities(queries, ts)
        )
        assert_same(
            name, model.predict_relations(pairs, ts), reference.predict_relations(pairs, ts)
        )

    def test_offline_evaluation_equal(self, name, split, trained):
        model, reference = shared_pair(name, split, trained)
        _, _, test, _ = split
        got, expected = (evaluate_extrapolation(m, test) for m in (model, reference))
        assert got.entity == expected.entity
        assert got.relation == expected.relation


def test_cen_online_evaluation_equal(split, trained):
    model, reference = shared_pair("CEN", split, trained)
    _, _, test, _ = split
    got, expected = (
        evaluate_extrapolation(OnlineAdapter(m, TrainerConfig(seed=0)), test)
        for m in (model, reference)
    )
    assert got.entity == expected.entity
    assert got.relation == expected.relation
    assert_states_close(model.state_dict(), reference.state_dict())


def test_state_dict_with_the_old_keys_is_refused():
    """A baseline state saved before the EAM rename fails loudly, naming
    the keys, instead of loading half a model."""
    train, _, _ = small_split()
    old = build(ReferenceREGCN, (train, None, None, 2)).state_dict()
    with pytest.raises(KeyError, match=r"eam\.gcn\.layer0\.weight.*entity_gcn\.layer0\.weight"):
        build(REGCN, (train, None, None, 2)).load_state_dict(old)
