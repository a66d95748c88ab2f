"""Extra coverage for the Conv-TransE decoder used by Eq. 11-12."""

import numpy as np

from repro.autograd import Tensor
from repro.core import ConvTransE
from tests.oracles import reference_probabilities

RNG = np.random.default_rng


class TestQueryFusion:
    def test_query_depends_on_both_inputs(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(3, 8)))
        b = Tensor(RNG(2).normal(size=(3, 8)))
        c = Tensor(RNG(3).normal(size=(3, 8)))
        q_ab = dec.query(a, b).data
        q_ac = dec.query(a, c).data
        q_cb = dec.query(c, b).data
        assert not np.allclose(q_ab, q_ac)
        assert not np.allclose(q_ab, q_cb)

    def test_query_order_matters(self):
        """Conv-TransE is not symmetric in (s, r): the 2xW kernel rows
        are distinct parameters."""
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(2, 8)))
        b = Tensor(RNG(2).normal(size=(2, 8)))
        assert not np.allclose(dec.query(a, b).data, dec.query(b, a).data)

    def test_batch_rows_independent(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = RNG(1).normal(size=(4, 8))
        b = RNG(2).normal(size=(4, 8))
        full = dec.query(Tensor(a), Tensor(b)).data
        single = dec.query(Tensor(a[:1]), Tensor(b[:1])).data
        np.testing.assert_allclose(full[0], single[0], atol=1e-12)


class TestScoringContract:
    def test_scores_linear_in_candidates(self):
        """Scores are a dot product against candidates, so doubling a
        candidate row doubles its scores."""
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(2, 8)))
        b = Tensor(RNG(2).normal(size=(2, 8)))
        cands = RNG(3).normal(size=(5, 8))
        base = dec(a, b, Tensor(cands)).data
        doubled = cands.copy()
        doubled[2] *= 2.0
        new = dec(a, b, Tensor(doubled)).data
        np.testing.assert_allclose(new[:, 2], 2.0 * base[:, 2], atol=1e-10)
        np.testing.assert_allclose(new[:, 0], base[:, 0], atol=1e-12)

    def test_probabilities_monotone_in_scores(self):
        dec = ConvTransE(dim=8, num_kernels=4, rng=RNG(0)).eval()
        a = Tensor(RNG(1).normal(size=(1, 8)))
        b = Tensor(RNG(2).normal(size=(1, 8)))
        cands = Tensor(RNG(3).normal(size=(6, 8)))
        scores = dec(a, b, cands).data[0]
        probs = reference_probabilities(dec, a, b, cands).data[0]
        assert np.array_equal(np.argsort(scores), np.argsort(probs))

    def test_dropout_only_in_training(self):
        dec = ConvTransE(dim=8, num_kernels=4, dropout=0.5, rng=RNG(0))
        a = Tensor(RNG(1).normal(size=(2, 8)))
        b = Tensor(RNG(2).normal(size=(2, 8)))
        dec.train()
        t1 = dec.query(a, b).data
        t2 = dec.query(a, b).data
        assert not np.allclose(t1, t2)  # dropout masks differ
        dec.eval()
        e1 = dec.query(a, b).data
        e2 = dec.query(a, b).data
        np.testing.assert_array_equal(e1, e2)
