"""Central finite-difference verification of backward rules.

The checker is deliberately independent of the graph machinery: it only ever
calls the forward pass (under ``no_grad``) at perturbed leaf values and
compares the resulting difference quotients against the gradients produced by
``backward()``.  Relative error is |a - b| / max(1, |a|, |b|).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, constant, mul, no_grad, tsum

STEP = 1e-5
TOL = 1e-4              # the error above which a coordinate is re-probed at STEP / 10
PROJECTION_SEED = 1


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def max_gradcheck_error(fn: Callable[[], Tensor], leaves: Sequence[Tensor], *,
                        coords_per_leaf: int | None = None,
                        rng: np.random.Generator | None = None) -> float:
    """Largest relative error between analytic and central-difference gradients.

    ``fn`` must rebuild the forward graph from the current ``leaves`` data on
    every call.  A non-scalar output is contracted to a scalar with one fixed
    random projection, drawn on the first call, so that sign errors cannot
    cancel.  Each leaf is perturbed coordinate by coordinate; when a leaf has
    more than ``coords_per_leaf`` entries a seeded random subset is probed
    instead of every coordinate.

    A coordinate whose difference quotient disagrees at ``STEP`` is re-probed
    at ``STEP / 10``: truncation error at a ReLU kink or a stiff region
    collapses quadratically with the step, while a wrong backward rule keeps
    its O(1) mismatch, so the retry separates the two.  The better of the two
    errors is reported per coordinate.
    """
    for leaf in leaves:
        if leaf.data.dtype != np.float64:
            raise ValueError("gradient checks require float64 leaves")
        leaf.requires_grad = True
        leaf.zero_grad()

    projection = None

    def scalar() -> Tensor:
        nonlocal projection
        out = fn()
        if out.ndim == 0:
            return out
        if projection is None:
            projection = constant(np.random.default_rng(PROJECTION_SEED).standard_normal(out.shape))
        return tsum(mul(out, projection))

    scalar().backward()
    analytic = []
    for leaf in leaves:
        analytic.append(np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy())

    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for leaf, grad in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        if coords_per_leaf is not None and n > coords_per_leaf:
            coords = rng.choice(n, size=coords_per_leaf, replace=False)
        else:
            coords = range(n)
        def central_difference(i: int, h: float) -> float:
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = scalar().item()
            flat[i] = orig - h
            with no_grad():
                fm = scalar().item()
            flat[i] = orig
            return (fp - fm) / (2.0 * h)

        for i in coords:
            err = relative_error(central_difference(i, STEP), gflat[i])
            if err > TOL:
                err = min(err, relative_error(central_difference(i, STEP / 10.0), gflat[i]))
            worst = max(worst, err)
    return worst


def check_op(build: Callable[..., Tensor], arrays: Sequence[np.ndarray], *,
             coords_per_leaf: int | None = None) -> float:
    """Gradcheck a pure op: ``build(*leaf_tensors)`` returns the op output;
    returns the max relative error."""
    leaves = [Tensor(np.asarray(a, dtype=np.float64).copy(), requires_grad=True) for a in arrays]
    return max_gradcheck_error(lambda: build(*leaves), leaves, coords_per_leaf=coords_per_leaf)
