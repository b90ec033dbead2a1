"""Spatial-temporal interaction: long-range relation features with cross-gated
fusion, residually added onto the backbone stream.

The spatial relation block attends, within each frame, from every position to
a pooled H_1 x W_1 set of key/value positions (query and key projections share
parameters; keys and values are adaptively pooled).  The temporal relation
block attends, at each position, across the T frames.  Both relation maps are
softmax-normalized over the key axis.  Each relation feature is a
zero-initialized output projection with no nonlinearity after it, as in the
non-local block (arXiv 1711.07971): a fresh block is an exact identity map,
and the projection still receives a gradient.

Fusion computes one sigmoid gate vector per clip and per relation feature,
each derived from the *other* feature's global average pool, and sums the
channel-wise rescaled features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import Conv2d, Linear, Module
from .tensor import (Tensor, adaptive_avg_pool2d, add, matmul, mul, permute, reshape, sigmoid,
                     softmax, tmean)


@dataclass
class RelationFeatures:
    """Relation features and their attention maps.

    f_s, f_t: (B, T, C, H, W); m_s: (B, T, H_1*W_1, H*W) with columns summing
    to 1; m_t: (B, H*W, T, T) with columns summing to 1.
    """

    f_s: Tensor
    f_t: Tensor
    m_s: Tensor
    m_t: Tensor


class SpatialTemporalInteraction(Module):
    def __init__(self, c_in: int, c_1: int, h_1: int, w_1: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        if c_1 < 1 or c_1 > c_in:
            raise ConfigError(f"c_1 must be in [1, c_in={c_in}], got {c_1}")
        self.c_in, self.c_1, self.h_1, self.w_1 = c_in, c_1, h_1, w_1
        # spatial block: query/key share one projection; output conv starts at zero
        self.qk_spatial = Conv2d(c_in, c_1, 1, rng=rng, dtype=dtype)
        self.v_spatial = Conv2d(c_in, c_1, 1, rng=rng, dtype=dtype)
        self.out_spatial = Conv2d(c_1, c_in, 1, rng=rng, dtype=dtype, zero_init=True)
        # temporal block: 1x1 projections along the channel axis
        self.qk_temporal = Linear(c_in, c_1, rng=rng, dtype=dtype)
        self.v_temporal = Linear(c_in, c_1, rng=rng, dtype=dtype)
        self.out_temporal = Linear(c_1, c_in, rng=rng, dtype=dtype, zero_init=True)
        # cross gates: each relation feature is weighed by the other's pool
        self.gate_spatial = Linear(c_in, c_in, rng=rng, dtype=dtype)
        self.gate_temporal = Linear(c_in, c_in, rng=rng, dtype=dtype)

    def _check(self, f: Tensor):
        if f.ndim != 5:
            raise DimensionError(f"expected (B, T, C, H, W) features, got {f.shape}")
        if f.shape[2] != self.c_in:
            raise DimensionError(f"expected {self.c_in} channels, got {f.shape[2]}")
        if self.h_1 > f.shape[3] or self.w_1 > f.shape[4]:
            raise ConfigError(f"pooled extents ({self.h_1}, {self.w_1}) exceed feature map "
                              f"({f.shape[3]}, {f.shape[4]})")

    def spatial_relation(self, f: Tensor) -> tuple[Tensor, Tensor]:
        """Per-frame non-local attention over pooled key positions."""
        # each intermediate is dropped after its last reader, so that without a
        # graph (eval) its array is freed before the next one is allocated
        self._check(f)
        b, t, c, h, w = f.shape
        c1, h1, w1 = self.c_1, self.h_1, self.w_1
        frames = reshape(f, (b * t, c, h, w))
        qk = self.qk_spatial(frames)                              # (BT, C1, H, W)
        q = reshape(qk, (b * t, c1, h * w))
        k = reshape(adaptive_avg_pool2d(qk, h1, w1), (b * t, c1, h1 * w1))
        del qk
        v = reshape(adaptive_avg_pool2d(self.v_spatial(frames), h1, w1), (b * t, c1, h1 * w1))
        del frames
        scores = matmul(permute(k, (0, 2, 1)), q)                 # (BT, H1W1, HW)
        del q, k
        m_s = softmax(scores, axis=1)                             # keys normalized
        del scores
        att = reshape(matmul(v, m_s), (b * t, c1, h, w))
        del v
        f_s = self.out_spatial(att)
        del att
        return reshape(f_s, (b, t, c, h, w)), reshape(m_s, (b, t, h1 * w1, h * w))

    def temporal_relation(self, f: Tensor) -> tuple[Tensor, Tensor]:
        """Per-position attention across frames."""
        self._check(f)
        b, t, c, h, w = f.shape
        c1 = self.c_1
        x = reshape(permute(f, (0, 3, 4, 1, 2)), (b * h * w, t, c))
        qk = self.qk_temporal(x)                                  # (BHW, T, C1)
        v = self.v_temporal(x)
        del x
        scores = matmul(qk, permute(qk, (0, 2, 1)))               # (BHW, Tkey, Tquery)
        del qk
        m_t = softmax(scores, axis=1)                             # key frames normalized
        del scores
        att = permute(matmul(permute(v, (0, 2, 1)), m_t), (0, 2, 1))   # (BHW, T, C1)
        del v
        f_t = self.out_temporal(att)
        del att
        f_t = permute(reshape(f_t, (b, h, w, t, c)), (0, 3, 4, 1, 2))
        return f_t, reshape(m_t, (b, h * w, t, t))

    def fuse_relations(self, f_s: Tensor, f_t: Tensor) -> Tensor:
        """Cross-gated channel-wise sum of the two relation features."""
        if f_s.shape != f_t.shape:
            raise DimensionError(f"relation features disagree: {f_s.shape} vs {f_t.shape}")
        b, t, c, h, w = f_s.shape
        a_s = sigmoid(self.gate_spatial(tmean(f_t, axis=(1, 3, 4))))   # (B, C) from F_t
        a_t = sigmoid(self.gate_temporal(tmean(f_s, axis=(1, 3, 4))))  # (B, C) from F_s
        a_s = reshape(a_s, (b, 1, c, 1, 1))
        a_t = reshape(a_t, (b, 1, c, 1, 1))
        return add(mul(f_s, a_s), mul(f_t, a_t))

    def relations(self, f: Tensor) -> RelationFeatures:
        f_s, m_s = self.spatial_relation(f)
        f_t, m_t = self.temporal_relation(f)
        return RelationFeatures(f_s=f_s, f_t=f_t, m_s=m_s, m_t=m_t)

    def forward(self, f: Tensor) -> Tensor:
        """Residual insertion: input plus the fused relation features.

        Unlike ``relations`` it keeps no attention map past its block.
        """
        f_s = self.spatial_relation(f)[0]
        f_t = self.temporal_relation(f)[0]
        return add(f, self.fuse_relations(f_s, f_t))
