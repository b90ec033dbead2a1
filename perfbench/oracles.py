"""Reference computations the benchmark checks cstnet's outputs against.

Each oracle is written independently of the program: plain loops for the
ranking metrics, direct float64 numpy for the losses.  `test_oracles.py`
checks them on hand-made cases with known answers.
"""

from __future__ import annotations

import numpy as np


def ranking_brute_force(dist, query_ids, gallery_ids, query_cams, gallery_cams,
                        max_rank: int) -> tuple[np.ndarray, float, int]:
    """CMC, mAP and the number of excluded queries, by sorting each row in Python.

    Gallery entries with the query's identity *and* camera are dropped; ties in
    distance are broken by gallery index.  Queries left with no match are
    excluded from both means and counted.
    """
    dist = np.asarray(dist, dtype=np.float64)
    hits = np.zeros(max_rank)
    aps = []
    excluded = 0
    for i in range(dist.shape[0]):
        order = sorted(range(dist.shape[1]), key=lambda j: (dist[i, j], j))
        kept = [j for j in order
                if not (gallery_ids[j] == query_ids[i] and gallery_cams[j] == query_cams[i])]
        relevant = [bool(gallery_ids[j] == query_ids[i]) for j in kept]
        if not any(relevant):
            excluded += 1
            continue
        for k in range(relevant.index(True), max_rank):
            hits[k] += 1
        found, precision_sum = 0, 0.0
        for rank, is_match in enumerate(relevant, start=1):
            if is_match:
                found += 1
                precision_sum += found / rank
        aps.append(precision_sum / found)
    return hits / len(aps), sum(aps) / len(aps), excluded


def batch_hard_triplet(features, labels, margin: float) -> float:
    """mean over anchors of max(0, margin + farthest positive - nearest negative)."""
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    d = np.sqrt(((f[:, None, :] - f[None, :, :]) ** 2).sum(axis=-1))
    same = labels[:, None] == labels[None, :]
    hardest_pos = np.where(same, d, -np.inf).max(axis=1)
    hardest_neg = np.where(same, np.inf, d).min(axis=1)
    return float(np.maximum(0.0, margin + hardest_pos - hardest_neg).mean())


def label_smoothed_ce(logits, labels, smoothing: float) -> float:
    """Cross entropy against (1 - s) one-hot plus s / K uniform targets."""
    z = np.asarray(logits, dtype=np.float64)
    n, k = z.shape
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    targets = np.full((n, k), smoothing / k)
    targets[np.arange(n), np.asarray(labels)] += 1.0 - smoothing
    return float(-(targets * logp).sum(axis=1).mean())


def is_pk_batch(labels, p: int, k: int) -> bool:
    """True when the batch holds exactly p distinct identities with k clips each."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    return len(counts) == p and bool((counts == k).all())
