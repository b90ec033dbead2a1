"""Metric-learning losses: batch-hard triplet and label-smoothed identification."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (Tensor, add, constant, log_softmax, matmul, mul, neg, permute,
                     reduce_max, reduce_min, relu, scale, sqrt, sub, tmean, tsum)

_MASK_OFFSET = 1e9


def pairwise_distances_graph(features: Tensor, eps: float = 1e-12) -> Tensor:
    """Differentiable Euclidean distance matrix (eps keeps sqrt smooth at 0)."""
    if features.ndim != 2:
        raise DimensionError(f"expected (n, d) features, got {features.shape}")
    sq = tsum(mul(features, features), axis=1, keepdims=True)          # (n, 1)
    cross = matmul(features, permute(features, (1, 0)))                # (n, n)
    d2 = relu(sub(add(sq, permute(sq, (1, 0))), scale(cross, 2.0)))
    return sqrt(add(d2, eps))


def batch_hard_triplet(features: Tensor, labels, margin: float) -> Tensor:
    """mean_a max(0, margin + max_pos d(a,p) - min_neg d(a,n))."""
    labels = np.asarray(labels)
    n = features.shape[0]
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match {n} features")
    unique, counts = np.unique(labels, return_counts=True)
    if len(unique) < 2:
        raise ContractError("batch-hard triplet needs at least 2 distinct labels")
    if counts.min() < 2:
        raise ContractError("every label needs at least 2 samples in the batch")
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    dist = pairwise_distances_graph(features)
    hardest_pos = reduce_max(mul(dist, constant(same, dtype=features.dtype)), axis=1)
    # push same-label entries out of reach of the min
    neg_masked = add(dist, constant(same * _MASK_OFFSET, dtype=features.dtype))
    hardest_neg = reduce_min(neg_masked, axis=1)
    return tmean(relu(add(sub(hardest_pos, hardest_neg), margin)))


def label_smooth_ce(logits: Tensor, labels, smoothing: float) -> Tensor:
    """Cross entropy against (1-eps) one-hot plus eps/K uniform targets."""
    if not 0.0 <= smoothing < 1.0:
        raise ContractError(f"smoothing must be in [0, 1), got {smoothing}")
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"expected (n, K) logits, got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in [0, {k}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    targets = np.full((n, k), smoothing / k)
    targets[np.arange(n), labels] += 1.0 - smoothing
    logp = log_softmax(logits, axis=1)
    per_sample = neg(tsum(mul(logp, constant(targets, dtype=logits.dtype)), axis=1))
    return tmean(per_sample)

