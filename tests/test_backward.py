"""Reverse-mode semantics: analytic cases, accumulation, determinism, and the
finite-difference check on a composite graph."""

import weakref

import numpy as np
import pytest

from cstnet import tensor as T
from cstnet.errors import ContractError
from cstnet.gradcheck import check_op
from cstnet.tensor import Tensor, constant, mul, no_grad, tsum


def test_sum_gradient_is_ones(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    T.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_quadratic_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_non_scalar_loss_rejected(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.mul(x, x).backward()


def test_repeated_backward_accumulates(rng):
    x = Tensor(rng.standard_normal(5), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    once = x.grad.copy()
    loss.backward()
    assert np.allclose(x.grad, 2.0 * once, atol=1e-14)


def test_reset_gives_identical_gradients(rng):
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def run():
        x.zero_grad()
        loss = T.tsum(T.softmax(T.matmul(x, T.permute(x, (1, 0))), 1))
        loss.backward()
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_shared_input_used_twice(rng):
    # same tensor feeding two ops accumulates both contributions
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.add(T.mul(x, x), T.scale(x, 3.0))   # x^2 + 3x -> grad 2x + 3
    T.tsum(loss).backward()
    assert np.allclose(x.grad, [7.0])


def test_gradient_passed_through_twice_is_not_summed_into_itself():
    # add's rule hands its upstream gradient to both inputs unchanged, so
    # the same array reaches x's node from three edges
    x = Tensor(np.ones(3), requires_grad=True)
    a = T.scale(x, 1.0)
    tsum(T.add(T.add(a, a), a)).backward()
    assert np.array_equal(x.grad, np.full(3, 3.0))


def test_gradient_shared_between_two_inputs_stays_separate():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3), requires_grad=True)
    a = T.scale(x, 1.0)
    tsum(T.add(T.add(a, c), T.add(a, c))).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))
    assert np.array_equal(c.grad, np.full(3, 2.0))


def test_no_grad_suppresses_graph(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    with no_grad():
        out = T.mul(x, x)
    assert out.op is None and not out.requires_grad


def test_constant_branch_gets_no_gradient(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    c = Tensor(rng.standard_normal(3))
    T.tsum(T.mul(x, c)).backward()
    assert c.grad is None
    assert np.allclose(x.grad, c.data)


def test_composite_chain_matches_finite_differences(rng):
    """conv -> relu -> pool -> matmul -> softmax -> sum, checked end to end."""
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    m = rng.standard_normal((3, 4))

    def build(xt, wt, mt):
        h = T.relu(T.conv2d(xt, wt, stride=1, padding=1))
        p = T.adaptive_avg_pool2d(h, 1, 1)
        flat = T.reshape(p, (1, 3))
        return T.softmax(T.matmul(flat, mt), 1)

    err = check_op(build, [x, w, m])
    assert err <= 1e-4, f"max relative error {err:.3e}"


def test_gradcheck_catches_broken_rule(rng):
    # a wrong backward must be detected by the checker
    from cstnet.tensor import _result

    def bad_square(a):
        return _result("bad_square", (a,), a.data ** 2, lambda g, s: (g,))  # missing 2x

    err = check_op(lambda a: bad_square(a), [rng.standard_normal(4) + 2.0])
    assert err > 1e-2


# every conv geometry the model builds: 3x3 and 1x1, each at stride 1 and 2
CONV_GEOMETRIES = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]


@pytest.mark.parametrize("k, stride, padding", CONV_GEOMETRIES)
def test_conv_weight_gradient_independent_of_input_flag(rng, k, stride, padding):
    # the input gradient is skipped for constant inputs; dw must not change
    x = rng.standard_normal((2, 3, 7, 5))
    w = rng.standard_normal((4, 3, k, k))
    proj = None
    grads = []
    for x_requires_grad in (True, False):
        xt = Tensor(x.copy(), requires_grad=x_requires_grad)
        wt = Tensor(w.copy(), requires_grad=True)
        out = T.conv2d(xt, wt, stride=stride, padding=padding)
        if proj is None:
            proj = constant(rng.standard_normal(out.shape))
        tsum(mul(out, proj)).backward()
        grads.append(wt.grad)
        assert (xt.grad is not None) == x_requires_grad
    assert np.array_equal(grads[0], grads[1])


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


@pytest.mark.parametrize("k, stride, padding", CONV_GEOMETRIES)
def test_conv_saves_only_its_input_and_weight(rng, k, stride, padding):
    # the backward re-forms im2col columns and strided slices from the input
    x = Tensor(rng.standard_normal((2, 3, 7, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, k, k)), requires_grad=True)
    out = T.conv2d(x, w, stride=stride, padding=padding)
    arrays = [v for v in out.op.saved if isinstance(v, np.ndarray)]
    assert arrays
    for arr in arrays:
        assert _root(arr) is x.data or _root(arr) is w.data


def test_graph_keeps_no_output_that_no_backward_rule_saves(rng):
    # conv -> batch norm -> relu -> conv -> sum: batch norm saves its own x_hat
    # and relu its output, so no backward rule reads the first conv's output or
    # the batch-norm output; once the user drops them, their arrays are freed
    values = (rng.standard_normal((2, 3, 6, 5)), rng.standard_normal((4, 3, 3, 3)),
              rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal((2, 4, 3, 3)))

    def run(keep_references):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        x, w1, gamma, beta, w2 = leaves
        conv = T.conv2d(x, w1, padding=1)
        normed = T.batch_norm(conv, gamma, beta, np.zeros(4), np.ones(4), training=True)
        loss = tsum(T.conv2d(T.relu(normed), w2, padding=1))
        held = [conv, normed] if keep_references else []     # alive until run returns
        arrays = [weakref.ref(_root(t.data)) for t in (conv, normed)]
        del conv, normed
        freed = [a() is None for a in arrays]
        loss.backward()
        return freed, [leaf.grad for leaf in leaves]

    freed, dropped = run(keep_references=False)
    still_held, kept = run(keep_references=True)
    assert freed == [True, True] and still_held == [False, False]
    for a, b in zip(dropped, kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_gradient_from_its_output_equals_the_input_mask(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, -3 * tiny,
                  info.tiny, -info.tiny, 1.0, -1.0], dtype=dtype)
    g = np.linspace(-3.0, 3.0, a.size).astype(dtype)
    out = T.relu(Tensor(a, requires_grad=True))
    assert out.op.saved[0] is out.data          # the output is saved, not the input
    (grad,) = out.op.backward_fn(g, out.op.saved)
    expected = g * (a > 0)
    assert grad.dtype == expected.dtype and grad.tobytes() == expected.tobytes()
