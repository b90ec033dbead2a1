"""Adam semantics and the step-decay schedule."""

import numpy as np
import pytest

from cstnet.errors import NumericError
from cstnet.nn import Parameter
from cstnet.optim import Adam, AdamConfig, lr_at_epoch


def test_zero_grad_zero_weight_is_fixed_point():
    p = Parameter(np.zeros(4), dtype=np.float64)
    p.grad = np.zeros(4)
    opt = Adam({"w": p})
    for _ in range(3):
        opt.step()
    assert np.array_equal(p.data, np.zeros(4))


def test_zero_grad_without_weight_decay_is_fixed_point_for_any_weight(rng):
    values = rng.standard_normal(5)
    p = Parameter(values.copy(), dtype=np.float64)
    p.grad = np.zeros(5)
    opt = Adam({"w": p}, AdamConfig(weight_decay=0.0))
    opt.step()
    assert np.array_equal(p.data, values)


def test_first_step_closed_form():
    # bias-corrected first step moves by lr * g / (|g| + eps)
    for g in (2.0, -0.5, 10.0):
        p = Parameter(np.array([1.0]), dtype=np.float64)
        p.grad = np.array([g])
        opt = Adam({"w": p}, AdamConfig(lr=3e-4, weight_decay=0.0))
        opt.step()
        expected = 1.0 - 3e-4 * g / (abs(g) + 1e-8)
        assert abs(float(p.data[0]) - expected) < 1e-9


def test_weight_decay_couples_into_gradient():
    p = Parameter(np.array([2.0]), dtype=np.float64)
    p.grad = np.array([0.0])
    opt = Adam({"w": p}, AdamConfig(lr=1e-2, weight_decay=0.5))
    opt.step()
    g = 0.5 * 2.0
    expected = 2.0 - 1e-2 * g / (abs(g) + 1e-8)
    assert abs(float(p.data[0]) - expected) < 1e-9


def test_schedule_decades():
    cfg = AdamConfig(lr=3e-4, lr_decay=0.1, lr_decay_every=200)
    assert abs(lr_at_epoch(cfg, 0) - 3e-4) < 1e-18
    assert abs(lr_at_epoch(cfg, 199) - 3e-4) < 1e-18
    assert abs(lr_at_epoch(cfg, 200) - 3e-5) < 1e-18
    assert abs(lr_at_epoch(cfg, 400) - 3e-6) < 1e-18


def test_nan_gradient_aborts_with_name_and_step():
    p = Parameter(np.array([1.0]), dtype=np.float64)
    p.grad = np.array([np.nan])
    opt = Adam({"stage1.conv.weight": p})
    with pytest.raises(NumericError, match=r"stage1\.conv\.weight.*step 1"):
        opt.step()


def test_nan_in_a_later_gradient_leaves_every_parameter_untouched(rng):
    first = Parameter(rng.standard_normal(3), dtype=np.float64)
    second = Parameter(rng.standard_normal(2), dtype=np.float64)
    opt = Adam({"a": first, "b": second})
    first.grad, second.grad = rng.standard_normal(3), rng.standard_normal(2)
    opt.step()
    before = [first.data.copy(), second.data.copy(), *(a.copy() for a in opt._m.values()),
              *(a.copy() for a in opt._v.values())]
    first.grad, second.grad = rng.standard_normal(3), np.array([0.5, np.nan])
    with pytest.raises(NumericError, match=r"'b'.*step 2"):
        opt.step()
    after = [first.data, second.data, *opt._m.values(), *opt._v.values()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    assert opt.step_count == 1


def test_matches_reference_adam_trajectory(rng):
    """Cross-check several steps against a straightforward reimplementation."""
    cfg = AdamConfig(lr=1e-2, weight_decay=0.1)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    p = Parameter(rng.standard_normal(6), dtype=np.float64)
    opt = Adam({"w": p}, cfg)
    ref = p.data.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 6):
        grad = rng.standard_normal(6)
        p.grad = grad.copy()
        opt.step()
        g = grad + cfg.weight_decay * ref
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        ref = ref - cfg.lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        assert np.abs(p.data - ref).max() < 1e-12
