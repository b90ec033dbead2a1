"""Batch-hard triplet and label-smoothed cross entropy against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstnet.errors import ContractError
from cstnet.gradcheck import max_gradcheck_error
from cstnet.losses import batch_hard_triplet, label_smooth_ce
from cstnet.tensor import Tensor
from cstnet.verify import batch_hard_triplet_loops


class TestBatchHardTriplet:
    def test_identical_features_give_margin(self):
        f = Tensor(np.ones((4, 3)))
        loss = batch_hard_triplet(f, np.array([0, 0, 1, 1]), 0.3)
        assert abs(float(loss.data) - 0.3) < 1e-6

    def test_separated_clusters_give_zero(self):
        f = Tensor(np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0], [100.0, 0.0]]))
        loss = batch_hard_triplet(f, np.array([0, 0, 1, 1]), 0.3)
        assert float(loss.data) == 0.0

    def test_brute_force_oracle_8x4(self, rng):
        f = rng.standard_normal((8, 4))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        got = float(batch_hard_triplet(Tensor(f), labels, 0.3).data)
        assert abs(got - batch_hard_triplet_loops(f, labels, 0.3)) < 1e-9

    @settings(max_examples=200)
    @given(st.integers(2, 6), st.integers(2, 2), st.integers(0, 10_000))
    def test_brute_force_oracle_random_batches(self, classes, per_class, seed):
        r = np.random.default_rng(seed)
        n = classes * per_class
        if n > 12:
            classes = 6
            n = 12
        f = r.standard_normal((n, 3))
        labels = np.repeat(np.arange(classes), per_class)
        got = float(batch_hard_triplet(Tensor(f), labels, 0.3).data)
        assert abs(got - batch_hard_triplet_loops(f, labels, 0.3)) < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            batch_hard_triplet(Tensor(np.zeros((4, 2))), np.zeros(4, dtype=int), 0.3)

    def test_singleton_label_rejected(self):
        with pytest.raises(ContractError):
            batch_hard_triplet(Tensor(np.zeros((3, 2))), np.array([0, 0, 1]), 0.3)

    def test_gradient_check(self, rng):
        f = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, 2, 2])
        err = max_gradcheck_error(lambda: batch_hard_triplet(f, labels, 0.3), [f],
                                  rng=np.random.default_rng(0))
        assert err <= 1e-4


class TestLabelSmoothCe:
    def test_uniform_logits_give_log_k(self):
        for eps in (0.0, 0.1, 0.5):
            loss = label_smooth_ce(Tensor(np.zeros((2, 5))), np.array([0, 3]), eps)
            assert abs(float(loss.data) - np.log(5)) < 1e-9

    def test_zero_smoothing_equals_cross_entropy(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = np.array([0, 2, 5, 1])
        got = float(label_smooth_ce(Tensor(logits), labels, 0.0).data)
        logp = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) \
            - logits.max(1, keepdims=True)
        ref = float(np.mean([-logp[i, labels[i]] for i in range(4)]))
        assert abs(got - ref) < 1e-9

    def test_minimum_is_smoothed_target_entropy(self, rng):
        """Loss is bounded below by the entropy of the smoothed target, which is
        attained when the predicted distribution equals the target."""
        eps, k = 0.1, 4
        target = np.full(k, eps / k)
        target[1] += 1.0 - eps
        floor = float(-(target * np.log(target)).sum())
        logits = np.log(target)[None, :]
        attained = float(label_smooth_ce(Tensor(logits), np.array([1]), eps).data)
        assert abs(attained - floor) < 1e-9
        for _ in range(50):
            other = float(label_smooth_ce(
                Tensor(rng.standard_normal((1, k))), np.array([1]), eps).data)
            assert other >= floor - 1e-12

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            label_smooth_ce(Tensor(np.zeros((1, 3))), np.array([3]), 0.1)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ContractError):
            label_smooth_ce(Tensor(np.zeros((1, 3))), np.array([0]), 1.0)

    def test_gradient_check(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        labels = np.array([0, 4, 2])
        err = max_gradcheck_error(lambda: label_smooth_ce(logits, labels, 0.1), [logits],
                                  rng=np.random.default_rng(1))
        assert err <= 1e-4


class TestTotalLoss:
    """The two components that ``train.train_epoch`` adds into the training loss."""

    def test_perfect_separation_leaves_only_ce_floor(self):
        f = Tensor(np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0], [50.0, 0.0]]))
        logits = Tensor(np.array([[30.0, 0.0], [30.0, 0.0], [0.0, 30.0], [0.0, 30.0]]))
        labels = np.array([0, 0, 1, 1])
        # triplet term is exactly zero; CE sits at its smoothed floor
        assert float(batch_hard_triplet(f, labels, 0.3).data) == 0.0
        assert float(label_smooth_ce(logits, labels, 0.1).data) > 0.0
