"""PK batch construction and clip augmentation.

A batch holds P identities with K clips each, T frames per clip.  An epoch
deals the train identities out in shuffled order, P per batch, so each
identity appears once per pass before any repeats (``epoch_identities``).
Frames are an evenly spaced subsequence with a random offset; sequences
shorter than T loop around.  Augmentation: whole-clip horizontal flips and
per-frame random erasing (rectangle of 2-33% frame area, aspect 0.3-3.33,
filled with the train-split pixel mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import VideoDataset
from .errors import ContractError

ERASE_AREA = (0.02, 0.33)       # erased share of the frame area, U[lo, hi]
ERASE_ASPECT = (0.3, 3.33)      # erased rectangle's height / width, U[lo, hi]


@dataclass(frozen=True)
class ClipSource:
    identity: int
    sequence_index: int          # index into dataset.sequences
    frame_indices: tuple


@dataclass
class PkBatch:
    clips: np.ndarray            # (P*K, T, 3, H, W) float32
    labels: np.ndarray           # (P*K,) identity ids
    provenance: list[ClipSource]


def sample_frame_indices(length: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Evenly spaced indices with a random offset; loop-pad short sequences."""
    if length < 1 or t < 1:
        raise ContractError("length and t must be >= 1")
    if length < t:
        return np.arange(t) % length
    stride = length // t
    span = stride * (t - 1) + 1
    offset = int(rng.integers(0, length - span + 1))
    return offset + stride * np.arange(t)


def _train_identities(dataset: VideoDataset) -> dict[int, list[int]]:
    """Train identity -> indices of its train sequences in ``dataset.sequences``."""
    by_identity: dict[int, list[int]] = {}
    for idx, seq in enumerate(dataset.sequences):
        if seq.split == "train":
            by_identity.setdefault(seq.identity, []).append(idx)
    return by_identity


def epoch_identities(dataset: VideoDataset, p: int, steps: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """The P identities of each of an epoch's ``steps`` batches.

    Identities are dealt from a shuffled deck of all train identities and the
    deck is reshuffled when fewer than P cards are left, so every batch holds
    P distinct identities and an epoch of count // P batches sees each
    identity exactly once.
    """
    ids = np.sort(np.array(list(_train_identities(dataset)), dtype=np.int64))
    if len(ids) < p:
        raise ContractError(f"need at least {p} identities with train sequences, "
                            f"have {len(ids)}")
    deck, batches = ids[:0], []
    for _ in range(steps):
        if len(deck) < p:
            deck = rng.permutation(ids)
        batches.append(deck[:p])
        deck = deck[p:]
    return batches


def pk_sample(dataset: VideoDataset, p: int, k: int, t: int,
              rng: np.random.Generator, identities) -> PkBatch:
    """K clips of each of the P distinct train ``identities``."""
    by_identity = _train_identities(dataset)
    chosen = np.asarray(identities)
    if chosen.shape != (p,) or len(set(chosen.tolist())) != p:
        raise ContractError(f"need {p} distinct identities, got {chosen.tolist()}")
    missing = [int(i) for i in chosen if int(i) not in by_identity]
    if missing:
        raise ContractError(f"identities {missing} have no train sequences")
    clips, labels, provenance = [], [], []
    for identity in chosen:
        pool = by_identity[int(identity)]
        if len(pool) >= k:
            seq_picks = rng.choice(len(pool), size=k, replace=False)
        else:
            seq_picks = rng.integers(0, len(pool), size=k)
        for pick in seq_picks:
            seq_idx = pool[int(pick)]
            seq = dataset.sequences[seq_idx]
            frame_idx = sample_frame_indices(len(seq.frames), t, rng)
            clips.append(seq.frames[frame_idx])
            labels.append(seq.identity)
            provenance.append(ClipSource(seq.identity, seq_idx, tuple(int(i) for i in frame_idx)))
    return PkBatch(clips=np.stack(clips).astype(np.float32),
                   labels=np.asarray(labels, dtype=np.int64),
                   provenance=provenance)


def augment_clips(clips: np.ndarray, rng: np.random.Generator, fill_mean: np.ndarray,
                  flip_p: float = 0.5, erase_p: float = 0.3) -> np.ndarray:
    """Augmented copy of (B, T, 3, H, W) clips; labels and counts untouched."""
    out = clips.copy()
    b, t, _, h, w = out.shape
    fill = np.asarray(fill_mean, dtype=out.dtype).reshape(3, 1, 1)
    for ci in range(b):
        if rng.random() < flip_p:
            out[ci] = out[ci, :, :, :, ::-1]
        for fi in range(t):
            if rng.random() >= erase_p:
                continue
            for _ in range(10):      # retry until the rectangle fits
                area = rng.uniform(*ERASE_AREA) * h * w
                aspect = rng.uniform(*ERASE_ASPECT)
                eh = int(round(np.sqrt(area * aspect)))
                ew = int(round(np.sqrt(area / aspect)))
                if 0 < eh <= h and 0 < ew <= w:
                    ey = int(rng.integers(0, h - eh + 1))
                    ex = int(rng.integers(0, w - ew + 1))
                    out[ci, fi, :, ey:ey + eh, ex:ex + ew] = fill
                    break
    return out
