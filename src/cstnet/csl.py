"""Co-saliency learning: gate each frame's features by how well its local
descriptors correlate with every other frame of the clip.

Per clip the stage features (T, C, H, W) are reduced along two routes:

* a spatial route (1x1 conv + BN + ReLU) keeping full H x W but only C_L
  channels, whose per-position channel vectors act as local descriptors;
* a channel route (adaptive average pool to H_L x W_L, then 1x1 conv + BN +
  ReLU) keeping all C channels, whose per-channel spatial maps act as
  descriptors.

The model is defined on correlation volumes: for every frame t, each
descriptor is compared by normalized cross correlation against all
descriptors of the other T-1 frames ((T-1)*H*W score channels per position
for the spatial route, (T-1)*C per channel for the channel route; slots
ordered by source frame ascending skipping t, then row-major position /
channel index), and a 1x1 "summarize" convolution collapses each volume into
a spatial logit map (1 x H x W) and a channel logit vector (C x 1 x 1).  The
co-saliency gate is ``sigmoid(spatial_logits * channel_logits)`` broadcast to
C x H x W and is multiplied elementwise with the input features.  A clip
needs co-frames, so the module is built only for clips of 2 or more frames.

The summarize convolution is linear in the volume, so the forward never
builds one.  With ``nd`` the standardized descriptors (n per frame, d
entries each) and W the summarize weight viewed as (T-1, n),

    z[t, p] = bias + nd_t[p] . u_t / d,   u_t = sum_{k != t} sum_q W[slot(k, t), q] nd_k[q],

computed for the whole batch with three matmuls (``_fused_logits``): cost
O(T^2 * n * d) instead of the volumes' O(T^2 * n^2 * d).  The materialized
definition (the scalar NCC, the volumes, then the summarize weights) lives
only in ``verify`` as the numpy oracle that ``cstnet verify`` and the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import faults
from .errors import ConfigError, DimensionError
from .nn import BatchNorm2d, Conv2d, Module
from .tensor import (Tensor, adaptive_avg_pool2d, add, constant, matmul, mul, neg, permute,
                     relu, reshape, scale, sigmoid, standardize)

# added to a descriptor's population std before the NCC divides by it, so a
# constant descriptor correlates 0 with everything
NCC_EPS = 1e-5


@dataclass
class CoSaliencyAttention:
    """Per-frame spatial logits, channel logits, and the combined gate.

    z_s: (..., T, 1, H, W) spatial logit maps
    z_c: (..., T, C, 1, 1) channel logit vectors
    z:   (..., T, C, H, W) sigmoid gate, entries strictly in (0, 1)
    """

    z_s: Tensor
    z_c: Tensor
    z: Tensor


def _standardized_spatial(desc: Tensor) -> Tensor:
    """(B, T, C_L, H, W) -> (B, T, H*W, C_L) mean-free unit-std descriptors."""
    b, t, c_l, h, w = desc.shape
    flat = reshape(permute(desc, (0, 1, 3, 4, 2)), (b, t, h * w, c_l))
    return standardize(flat, axis=-1, eps=NCC_EPS)


def _standardized_channel(desc: Tensor) -> Tensor:
    """(B, T, C, H_L, W_L) -> (B, T, C, H_L*W_L) standardized per channel."""
    b, t, c, h_l, w_l = desc.shape
    flat = reshape(desc, (b, t, c, h_l * w_l))
    return standardize(flat, axis=-1, eps=NCC_EPS)


def _co_frame_selection(frames: int, dtype) -> np.ndarray:
    """(T*T, T-1) 0/1 matrix: row t*T + k selects the volume slot of co-frame k
    in frame t's volume (k ascending, skipping t); rows with k == t are zero."""
    t, k = np.divmod(np.arange(frames * frames), frames)
    rows = np.flatnonzero(t != k)
    sel = np.zeros((frames * frames, frames - 1), dtype=dtype)
    sel[rows, k[rows] - (k[rows] > t[rows])] = 1.0
    return sel


def _fused_logits(nd: Tensor, summarize: Conv2d) -> Tensor:
    """Summarize-conv logits of every frame's correlation volume, without volumes.

    ``nd`` is (B, T, n, d) standardized descriptors and ``summarize`` the 1x1
    conv over the (T-1)*n volume slots.  Returns (B, T, n, 1) logits
    ``bias + nd_t[p] . u_t / d`` (see the module docstring).
    """
    b, frames, n, d = nd.shape
    weight = reshape(summarize.weight, (frames - 1, n))
    sel = constant(_co_frame_selection(frames, weight.dtype))
    mix = reshape(matmul(sel, weight), (frames, frames * n))        # [t, k*n + q]
    u = matmul(permute(reshape(nd, (b, frames * n, d)), (0, 2, 1)),
               permute(mix, (1, 0)))                                # (B, d, T)
    u = reshape(permute(u, (0, 2, 1)), (b, frames, d, 1))
    corr = scale(matmul(nd, u), 1.0 / d)
    if faults.is_active("ncc-sign-flip"):
        corr = neg(corr)
    return add(corr, summarize.bias)


class CoSaliencyLearning(Module):
    """Correlation-driven spatial-channel gating for one backbone stage."""

    def __init__(self, c_in: int, c_l: int, h_l: int, w_l: int, clip_len: int, feat_h: int,
                 feat_w: int, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if c_l < 1 or c_l > c_in:
            raise ConfigError(f"c_l must be in [1, c_in={c_in}], got {c_l}")
        if h_l > feat_h or w_l > feat_w:
            raise ConfigError(f"reduced extents ({h_l}, {w_l}) exceed feature map "
                              f"({feat_h}, {feat_w})")
        if h_l * w_l < 2:
            raise ConfigError("channel descriptors need at least 2 spatial positions")
        if clip_len < 2:
            raise ConfigError(f"clip_len must be >= 2 for co-saliency, got {clip_len}")
        self.c_in, self.c_l, self.h_l, self.w_l = c_in, c_l, h_l, w_l
        self.clip_len, self.feat_h, self.feat_w = clip_len, feat_h, feat_w
        self.reduce_spatial = Conv2d(c_in, c_l, 1, rng=rng, dtype=dtype)
        self.bn_spatial = BatchNorm2d(c_l, dtype=dtype)
        self.reduce_channel = Conv2d(c_in, c_in, 1, rng=rng, dtype=dtype)
        self.bn_channel = BatchNorm2d(c_in, dtype=dtype)
        self.summarize_spatial = Conv2d((clip_len - 1) * feat_h * feat_w, 1, 1, rng=rng,
                                        dtype=dtype)
        self.summarize_channel = Conv2d((clip_len - 1) * c_in, 1, 1, rng=rng, dtype=dtype)

    def reduce_dims(self, f: Tensor) -> tuple[Tensor, Tensor]:
        """(B, T, C, H, W) -> spatial (B, T, C_L, H, W), channel (B, T, C, H_L, W_L)."""
        if f.ndim != 5:
            raise DimensionError(f"expected (B, T, C, H, W) features, got {f.shape}")
        b, t, c, h, w = f.shape
        if c != self.c_in:
            raise DimensionError(f"expected {self.c_in} channels, got {c}")
        frames = reshape(f, (b * t, c, h, w))
        sd = relu(self.bn_spatial(self.reduce_spatial(frames)))
        pooled = adaptive_avg_pool2d(frames, self.h_l, self.w_l)
        cd = relu(self.bn_channel(self.reduce_channel(pooled)))
        return (reshape(sd, (b, t, self.c_l, h, w)),
                reshape(cd, (b, t, c, self.h_l, self.w_l)))

    def attention(self, f: Tensor) -> CoSaliencyAttention:
        """Compute the co-saliency gate for (B, T, C, H, W) stage features."""
        b, t, c, h, w = f.shape
        if t != self.clip_len:
            raise DimensionError(f"module was built for {self.clip_len} frames, got {t}")
        if (h, w) != (self.feat_h, self.feat_w):
            raise DimensionError(f"module was built for {self.feat_h}x{self.feat_w} maps, "
                                 f"got {h}x{w}")
        sd, cd = self.reduce_dims(f)
        nd_s = _standardized_spatial(sd)            # (B, T, HW, C_L)
        del sd
        nd_c = _standardized_channel(cd)            # (B, T, C, H_L*W_L)
        del cd
        z_s = reshape(_fused_logits(nd_s, self.summarize_spatial), (b, t, 1, h, w))
        del nd_s
        z_c = reshape(_fused_logits(nd_c, self.summarize_channel), (b, t, c, 1, 1))
        del nd_c
        return CoSaliencyAttention(z_s=z_s, z_c=z_c, z=sigmoid(mul(z_s, z_c)))

    def forward(self, f: Tensor) -> Tensor:
        return mul(f, self.attention(f).z)
