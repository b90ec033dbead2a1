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
C x H x W and is multiplied elementwise with the input features.
Single-frame clips have no co-frames: both logit maps are zero, a neutral 0.5
gate.

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


@dataclass(frozen=True)
class CslConfig:
    """Dimension-reduction and correlation settings for one insertion point."""

    c_in: int
    c_l: int
    h_l: int
    w_l: int
    ncc_eps: float = 1e-5

    def validate(self, feat_h: int, feat_w: int):
        if self.c_l < 1 or self.c_l > self.c_in:
            raise ConfigError(f"c_l must be in [1, c_in={self.c_in}], got {self.c_l}")
        if self.h_l > feat_h or self.w_l > feat_w:
            raise ConfigError(f"reduced extents ({self.h_l}, {self.w_l}) exceed feature "
                              f"map ({feat_h}, {feat_w})")
        if self.h_l * self.w_l > feat_h * feat_w:
            raise ConfigError("reduced spatial size must not exceed the feature map size")
        if self.h_l * self.w_l < 2:
            raise ConfigError("channel descriptors need at least 2 spatial positions")
        if self.ncc_eps <= 0:
            raise ConfigError(f"ncc_eps must be positive, got {self.ncc_eps}")


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


def _standardized_spatial(desc: Tensor, eps: float) -> Tensor:
    """(B, T, C_L, H, W) -> (B, T, H*W, C_L) mean-free unit-std descriptors."""
    b, t, c_l, h, w = desc.shape
    flat = reshape(permute(desc, (0, 1, 3, 4, 2)), (b, t, h * w, c_l))
    return standardize(flat, axis=-1, eps=eps)


def _standardized_channel(desc: Tensor, eps: float) -> Tensor:
    """(B, T, C, H_L, W_L) -> (B, T, C, H_L*W_L) standardized per channel."""
    b, t, c, h_l, w_l = desc.shape
    flat = reshape(desc, (b, t, c, h_l * w_l))
    return standardize(flat, axis=-1, eps=eps)


def _gate(z_s: Tensor, z_c: Tensor) -> CoSaliencyAttention:
    return CoSaliencyAttention(z_s=z_s, z_c=z_c, z=sigmoid(mul(z_s, z_c)))


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


def apply_cosaliency(f: Tensor, attention: CoSaliencyAttention) -> Tensor:
    """Gate features with the combined co-saliency map (pure multiplication)."""
    if f.shape != attention.z.shape:
        raise DimensionError(f"feature/gate shape mismatch: {f.shape} vs {attention.z.shape}")
    return mul(f, attention.z)


class CoSaliencyLearning(Module):
    """Correlation-driven spatial-channel gating for one backbone stage."""

    def __init__(self, cfg: CslConfig, clip_len: int, feat_h: int, feat_w: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        cfg.validate(feat_h, feat_w)
        if clip_len < 1:
            raise ConfigError(f"clip_len must be >= 1, got {clip_len}")
        self.cfg = cfg
        self.clip_len = clip_len
        self.feat_h = feat_h
        self.feat_w = feat_w
        self.reduce_spatial = Conv2d(cfg.c_in, cfg.c_l, 1, rng=rng, dtype=dtype)
        self.bn_spatial = BatchNorm2d(cfg.c_l, dtype=dtype)
        self.reduce_channel = Conv2d(cfg.c_in, cfg.c_in, 1, rng=rng, dtype=dtype)
        self.bn_channel = BatchNorm2d(cfg.c_in, dtype=dtype)
        if clip_len >= 2:
            n_spatial = (clip_len - 1) * feat_h * feat_w
            n_channel = (clip_len - 1) * cfg.c_in
            self.summarize_spatial = Conv2d(n_spatial, 1, 1, rng=rng, dtype=dtype)
            self.summarize_channel = Conv2d(n_channel, 1, 1, rng=rng, dtype=dtype)

    def reduce_dims(self, f: Tensor) -> tuple[Tensor, Tensor]:
        """(B, T, C, H, W) -> spatial (B, T, C_L, H, W), channel (B, T, C, H_L, W_L)."""
        if f.ndim != 5:
            raise DimensionError(f"expected (B, T, C, H, W) features, got {f.shape}")
        b, t, c, h, w = f.shape
        if c != self.cfg.c_in:
            raise DimensionError(f"expected {self.cfg.c_in} channels, got {c}")
        if self.cfg.h_l > h or self.cfg.w_l > w:
            raise ConfigError(f"reduced extents ({self.cfg.h_l}, {self.cfg.w_l}) exceed "
                              f"feature map ({h}, {w})")
        frames = reshape(f, (b * t, c, h, w))
        sd = relu(self.bn_spatial(self.reduce_spatial(frames)))
        pooled = adaptive_avg_pool2d(frames, self.cfg.h_l, self.cfg.w_l)
        cd = relu(self.bn_channel(self.reduce_channel(pooled)))
        return (reshape(sd, (b, t, self.cfg.c_l, h, w)),
                reshape(cd, (b, t, c, self.cfg.h_l, self.cfg.w_l)))

    def _neutral_attention(self, batch: int) -> CoSaliencyAttention:
        """Zero logits and the 0.5 gate of a clip without co-frames."""
        dtype = self.reduce_spatial.weight.dtype
        z_s = Tensor(np.zeros((batch, 1, 1, self.feat_h, self.feat_w), dtype=dtype))
        z_c = Tensor(np.zeros((batch, 1, self.cfg.c_in, 1, 1), dtype=dtype))
        return _gate(z_s, z_c)

    def attention(self, f: Tensor) -> CoSaliencyAttention:
        """Compute the co-saliency gate for (B, T, C, H, W) stage features."""
        b, t, c, h, w = f.shape
        if t != self.clip_len:
            raise DimensionError(f"module was built for {self.clip_len} frames, got {t}")
        if (h, w) != (self.feat_h, self.feat_w):
            raise DimensionError(f"module was built for {self.feat_h}x{self.feat_w} maps, "
                                 f"got {h}x{w}")
        sd, cd = self.reduce_dims(f)
        if t == 1:
            return self._neutral_attention(b)
        nd_s = _standardized_spatial(sd, self.cfg.ncc_eps)            # (B, T, HW, C_L)
        nd_c = _standardized_channel(cd, self.cfg.ncc_eps)            # (B, T, C, H_L*W_L)
        z_s = reshape(_fused_logits(nd_s, self.summarize_spatial), (b, t, 1, h, w))
        z_c = reshape(_fused_logits(nd_c, self.summarize_channel), (b, t, c, 1, 1))
        return _gate(z_s, z_c)

    def forward(self, f: Tensor) -> Tensor:
        return apply_cosaliency(f, self.attention(f))
