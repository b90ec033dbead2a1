"""Full network: a 5-stage residual backbone with co-saliency and relation
modules inserted after configurable stages, clip-level average pooling, and a
two-layer head (embedding + identity classifier).

The backbone is a compact stand-in with the usual 5-stage interface: a stem
(conv + BN + ReLU) followed by four residual stages of two 3x3 convolutions
with a projection shortcut.  Stage channel counts, strides, clip length,
frame size and all insertion hyperparameters live in ``CstnetConfig``; the
large-scale settings remain expressible through the same fields.  Frames
have the dataset format's ``FRAME_CHANNELS`` channels.

Frames flow through stages independently (2d convs); the clip structure only
matters to the inserted modules and to the final temporal average.  Retrieval
uses Euclidean distance on the pre-classifier embedding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .csl import CoSaliencyLearning
from .data import FRAME_CHANNELS
from .errors import ConfigError, ContractError, DimensionError
from .nn import BatchNorm2d, Conv2d, Linear, Module
from .sti import SpatialTemporalInteraction
from .tensor import Tensor, add, adaptive_avg_pool2d, constant, no_grad, relu, reshape, tmean

# clips per eval-mode forward, in embed_clips and in metrics.evaluate, which
# holds one such batch and its forward per worker thread
EMBED_BATCH = 32


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation -> whether a value read from a checkpoint's echo fits it
_ECHO_TYPE_CHECKS = {
    "int": _is_int,
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "tuple": lambda value: isinstance(value, (list, tuple)) and all(map(_is_int, value)),
}


@dataclass(frozen=True)
class CstnetConfig:
    """Architecture and insertion hyperparameters with small-scale defaults."""

    num_identities: int
    clip_len: int = 4
    frame_h: int = 32
    frame_w: int = 16
    stage_channels: tuple = (8, 16, 32, 64, 128)
    stage_strides: tuple = (1, 2, 2, 2, 2)
    insertion_points: tuple = (2, 3, 4)
    with_csl: bool = True
    with_sti: bool = True
    embedding_dim: int = 64
    csl_channels: int = 16          # C_L
    csl_pool_h: int = 4             # H_L
    csl_pool_w: int = 2             # W_L
    sti_channels: int = 16          # C_1
    sti_pool_h: int = 4             # H_1
    sti_pool_w: int = 2             # W_1
    dtype: str = "f32"
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1:
            raise ConfigError("num_identities must be >= 1")
        if self.clip_len < 1:
            raise ConfigError("clip_len must be >= 1")
        if self.with_csl and self.insertion_points and self.clip_len < 2:
            raise ConfigError(f"clip_len must be >= 2 with CSL inserted (it correlates "
                              f"co-frames), got {self.clip_len}")
        if len(self.stage_channels) != 5 or len(self.stage_strides) != 5:
            raise ConfigError("exactly 5 stage channel counts and strides are required")
        if min(self.stage_channels) < 1:
            raise ConfigError(f"stage_channels must be >= 1 each, got {self.stage_channels}")
        if min(self.stage_strides) < 1:
            raise ConfigError(f"stage_strides must be >= 1 each, got {self.stage_strides}")
        if not set(self.insertion_points) <= set(range(1, 6)):
            raise ConfigError(f"insertion_points must be within 1..5, got {self.insertion_points}")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        for name in ("csl_channels", "csl_pool_h", "csl_pool_w",
                     "sti_channels", "sti_pool_h", "sti_pool_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64

    def stage_dims(self) -> list[tuple[int, int, int]]:
        """(channels, h, w) after each stage, 0-indexed by stage - 1."""
        h, w = self.frame_h, self.frame_w
        dims = []
        for c, s in zip(self.stage_channels, self.stage_strides):
            h = (h + 2 - 3) // s + 1    # 3x3 conv, padding 1
            w = (w + 2 - 3) // s + 1
            dims.append((c, h, w))
        return dims

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CstnetConfig":
        """The config that ``d`` (a checkpoint's echo) describes, each value of
        the type of its field; a tuple field takes a list of ints."""
        d = dict(d)
        for f in fields(cls):
            if f.name not in d:
                continue
            if not _ECHO_TYPE_CHECKS[f.type](d[f.name]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {d[f.name]!r}")
            if f.type == "tuple":
                d[f.name] = tuple(d[f.name])
        return cls(**d)


class ResidualStage(Module):
    """Two 3x3 convs with BN/ReLU and a projection shortcut."""

    def __init__(self, c_in: int, c_out: int, stride: int, *, rng, dtype):
        super().__init__()
        self.conv1 = Conv2d(c_in, c_out, 3, stride=stride, padding=1, bias=False, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm2d(c_out, dtype=dtype)
        self.conv2 = Conv2d(c_out, c_out, 3, stride=1, padding=1, bias=False, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(c_out, dtype=dtype)
        self.project = c_in != c_out or stride != 1
        if self.project:
            self.shortcut = Conv2d(c_in, c_out, 1, stride=stride, bias=False, rng=rng, dtype=dtype)
            self.bn_sc = BatchNorm2d(c_out, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        main = self.bn2(self.conv2(relu(self.bn1(self.conv1(x)))))
        side = self.bn_sc(self.shortcut(x)) if self.project else x
        return relu(add(main, side))


class Stem(Module):
    """Stage 1: plain conv + BN + ReLU."""

    def __init__(self, c_in: int, c_out: int, stride: int, *, rng, dtype):
        super().__init__()
        self.conv = Conv2d(c_in, c_out, 3, stride=stride, padding=1, bias=False, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(c_out, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return relu(self.bn(self.conv(x)))


class Cstnet(Module):
    def __init__(self, cfg: CstnetConfig):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        dtype = cfg.np_dtype
        chans = cfg.stage_channels
        strides = cfg.stage_strides
        self.stage1 = Stem(FRAME_CHANNELS, chans[0], strides[0], rng=rng, dtype=dtype)
        self.stage2 = ResidualStage(chans[0], chans[1], strides[1], rng=rng, dtype=dtype)
        self.stage3 = ResidualStage(chans[1], chans[2], strides[2], rng=rng, dtype=dtype)
        self.stage4 = ResidualStage(chans[2], chans[3], strides[3], rng=rng, dtype=dtype)
        self.stage5 = ResidualStage(chans[3], chans[4], strides[4], rng=rng, dtype=dtype)
        dims = cfg.stage_dims()
        for stage in sorted(cfg.insertion_points):
            c, h, w = dims[stage - 1]       # each size capped at the stage's channels/extent
            if cfg.with_csl:
                setattr(self, f"csl{stage}", CoSaliencyLearning(
                    c, min(cfg.csl_channels, c), min(cfg.csl_pool_h, h), min(cfg.csl_pool_w, w),
                    cfg.clip_len, h, w, rng=rng, dtype=dtype))
            if cfg.with_sti:
                setattr(self, f"sti{stage}", SpatialTemporalInteraction(
                    c, min(cfg.sti_channels, c), min(cfg.sti_pool_h, h), min(cfg.sti_pool_w, w),
                    rng=rng, dtype=dtype))
        self.embed = Linear(chans[4], cfg.embedding_dim, rng=rng, dtype=dtype)
        self.classify = Linear(cfg.embedding_dim, cfg.num_identities, rng=rng, dtype=dtype)

    def _stage(self, i: int):
        return getattr(self, f"stage{i}")

    def forward(self, clips) -> tuple[Tensor, Tensor]:
        """(B, T, 3, H, W) clips -> (features (B, E), logits (B, K))."""
        x = clips if isinstance(clips, Tensor) else constant(clips, dtype=self.cfg.np_dtype)
        cfg = self.cfg
        if x.ndim != 5:
            raise ContractError(f"expected (B, T, C, H, W) clips, got {x.shape}")
        b, t, c, h, w = x.shape
        if t != cfg.clip_len:
            raise ContractError(f"model expects {cfg.clip_len} frames per clip, got {t}")
        if (c, h, w) != (FRAME_CHANNELS, cfg.frame_h, cfg.frame_w):
            raise ContractError(f"model expects {FRAME_CHANNELS}x{cfg.frame_h}x{cfg.frame_w} "
                                f"frames, got {c}x{h}x{w}")
        x = reshape(x, (b * t, c, h, w))
        dims = cfg.stage_dims()
        for stage in range(1, 6):
            x = self._stage(stage)(x)
            if stage in cfg.insertion_points and (cfg.with_csl or cfg.with_sti):
                # one name for the stream, so a module's input is freed once
                # the next one has consumed it (eval keeps no graph)
                sc, sh, sw = dims[stage - 1]
                x = reshape(x, (b, t, sc, sh, sw))
                if cfg.with_csl:
                    x = getattr(self, f"csl{stage}")(x)
                if cfg.with_sti:
                    x = getattr(self, f"sti{stage}")(x)
                x = reshape(x, (b * t, sc, sh, sw))
        pooled = reshape(adaptive_avg_pool2d(x, 1, 1), (b, t, cfg.stage_channels[4]))
        clip_feat = tmean(pooled, axis=1)             # (B, C5)
        features = self.embed(clip_feat)              # (B, E)
        logits = self.classify(features)              # (B, K)
        return features, logits

    __call__ = forward      # own entry in the class dict: perfbench/tracing.py patches it there

    def embed_clips(self, clips: np.ndarray, batch_size: int = EMBED_BATCH) -> np.ndarray:
        """Deterministic eval-mode embeddings for retrieval, as numpy, in the model's dtype."""
        was_training = self.training
        self.eval()
        out = []
        with no_grad():
            for start in range(0, len(clips), batch_size):
                feats, _ = self.forward(clips[start:start + batch_size])
                out.append(feats.data.copy())
        if was_training:
            self.train()
        if not out:
            return np.zeros((0, self.cfg.embedding_dim), dtype=self.cfg.np_dtype)
        return np.concatenate(out, axis=0)

    def parameter_census(self) -> dict[str, int]:
        """Exact parameter counts per top-level component plus 'total'."""
        census: dict[str, int] = {}
        for name, p in self.named_parameters():
            top = name.split(".", 1)[0]
            census[top] = census.get(top, 0) + p.size
        census["total"] = sum(v for k, v in census.items() if k != "total")
        return census


def _finite_rows(features) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise DimensionError(f"expected (n, d) features, got {f.shape}")
    if not np.isfinite(f).all():
        raise ContractError("pairwise_distances requires finite features")
    return f


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and the rows of ``b``.

    With ``b`` None, ``a`` is compared with itself and the diagonal is exactly zero.
    """
    x = _finite_rows(a)
    y = x if b is None else _finite_rows(b)
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"features of {x.shape[1]} and {y.shape[1]} dimensions")
    d2 = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    if b is None:
        np.fill_diagonal(d, 0.0)
    return d
