"""Synthetic video re-identification data with controllable nuisances, plus a
documented on-disk dataset format.

Each identity owns a persistent appearance signature: a body-like arrangement
of colored blocks (head, torso with a fixed texture motif and an accessory
patch, legs) rendered at a jittered position in every frame.  Per-frame
nuisances are layered on top:

* background clutter (``clutter``) - a per-sequence random smooth texture
  that scrolls by a fresh random offset every frame (tracklet crops follow
  the person, so the scene slides behind them) plus distractor patches:
  noisy body-block-colored rectangles at fresh random positions every frame,
  mostly behind the person but occasionally in front (passers-by).  The
  clutter level controls the texture amplitude, the patch opacity and the
  patch noise;
* illumination jitter - a per-frame affine transform a*x + b with a, b drawn
  uniformly from configurable ranges;
* occlusion - with some probability, a solid random-color rectangle over the
  body region.

At ``clutter = 0`` the backdrop is a static camera-specific gradient, so
frames of a sequence differ only by body placement (and any illumination or
occlusion that is switched on).

The on-disk format is a directory holding ``index.txt`` (one line per
sequence: identity, camera, split, frame file name) and one "CSTT" tensor
file per sequence with the (L, 3, H, W) float32 frame stack.  Round trips are
bit-exact.

Split policy when cams >= 2: per identity and camera, the last sequence is
held out for evaluation (camera 0 -> query, other cameras -> gallery) and the
rest train.  With a single camera everything lands in train.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .io import read_file, read_tensor, write_tensor

SPLITS = ("train", "query", "gallery")
FRAME_CHANNELS = 3          # every frame is RGB
JITTER_PX = 2               # per-frame body placement jitter, in pixels


@dataclass
class SequenceRecord:
    identity: int
    camera: int
    split: str
    frames: np.ndarray        # (L, 3, H, W) float32


@dataclass
class VideoDataset:
    sequences: list[SequenceRecord] = field(default_factory=list)

    def of_split(self, split: str) -> list[SequenceRecord]:
        return [s for s in self.sequences if s.split == split]

    @property
    def num_identities(self) -> int:
        return len({s.identity for s in self.sequences})

    def frame_shape(self) -> tuple[int, int, int]:
        if not self.sequences:
            raise ContractError("empty dataset has no frame shape")
        return self.sequences[0].frames.shape[1:]

    def validate(self):
        ids = sorted({s.identity for s in self.sequences})
        if ids and ids != list(range(len(ids))):
            raise ContractError(f"identity ids must be dense in [0, n), got {ids}")
        for i, s in enumerate(self.sequences):
            if s.split not in SPLITS:
                raise ContractError(f"unknown split {s.split!r}")
            if s.frames.ndim != 4 or s.frames.shape[1] != FRAME_CHANNELS or len(s.frames) < 1:
                raise ContractError(f"sequence frames must be (L>=1, {FRAME_CHANNELS}, H, W), "
                                    f"got {s.frames.shape}")
            if s.frames.shape[1:] != self.sequences[0].frames.shape[1:]:
                h, w = s.frames.shape[2:]
                h0, w0 = self.sequences[0].frames.shape[2:]
                raise ContractError(f"sequence {i} (identity {s.identity}, camera {s.camera}, "
                                    f"{s.split}) has {h}x{w} frames, sequence 0 has {h0}x{w0}")
        gallery = {(s.identity, s.camera) for s in self.of_split("gallery")}
        for q in self.of_split("query"):
            if not any(gid == q.identity and gcam != q.camera for gid, gcam in gallery):
                raise ContractError(f"query identity {q.identity} (camera {q.camera}) has "
                                    f"no cross-camera gallery sequence")


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; every nuisance defaults to off."""

    num_identities: int = 16
    cams: int = 2
    seqs_per_cam: int = 3
    seq_len_min: int = 10
    seq_len_max: int = 16
    frame_h: int = 32
    frame_w: int = 16
    clutter: float = 0.0                      # distractor density/opacity/noise level
    clutter_patches: int = 6
    illum_scale: tuple = (1.0, 1.0)           # per-frame a ~ U[lo, hi]
    illum_shift: tuple = (0.0, 0.0)           # per-frame b ~ U[lo, hi]
    occlusion_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1:
            raise ConfigError("num_identities must be >= 1")
        if self.cams < 1 or self.seqs_per_cam < 1:
            raise ConfigError("cams and seqs_per_cam must be >= 1")
        if not 1 <= self.seq_len_min <= self.seq_len_max:
            raise ConfigError("need 1 <= seq_len_min <= seq_len_max")
        if self.frame_h < 16 or self.frame_w < 8:
            raise ConfigError("frames must be at least 16x8")
        if self.clutter < 0:
            raise ConfigError("clutter std must be >= 0")
        if not 0.0 <= self.occlusion_p <= 1.0:
            raise ConfigError("occlusion_p must be in [0, 1]")
        if len(self.illum_scale) != 2 or len(self.illum_shift) != 2:
            raise ConfigError("illum_scale and illum_shift must each be a (lo, hi) pair")
        if self.illum_scale[0] <= 0 or self.illum_scale[0] > self.illum_scale[1]:
            raise ConfigError("illum_scale must satisfy 0 < lo <= hi")
        if self.illum_shift[0] > self.illum_shift[1]:
            raise ConfigError("illum_shift must satisfy lo <= hi")


@dataclass
class _Signature:
    head_color: np.ndarray
    torso_color: np.ndarray
    leg_color: np.ndarray
    accessory_color: np.ndarray
    accessory_side: int
    texture: np.ndarray       # (3, 4, 4) additive motif tiled over the torso


_PALETTE = np.array([[0.08 + 0.84 * ((i >> b) & 1) for b in range(3)]
                     for i in range(8)])          # saturated corner colors


def _make_signatures(rng: np.random.Generator, count: int) -> list[_Signature]:
    """Signatures with pairwise-distinct (torso, leg) color pairs when possible."""
    n_pairs = len(_PALETTE) ** 2
    if count <= n_pairs:
        combos = rng.choice(n_pairs, size=count, replace=False)
    else:
        combos = rng.integers(0, n_pairs, size=count)
    out = []
    for combo in combos:
        out.append(_Signature(
            head_color=rng.uniform(0.3, 0.9, 3),
            torso_color=_PALETTE[combo // len(_PALETTE)].copy(),
            leg_color=_PALETTE[combo % len(_PALETTE)].copy(),
            accessory_color=_PALETTE[rng.integers(0, len(_PALETTE))].copy(),
            accessory_side=int(rng.integers(0, 2)),
            texture=rng.uniform(-0.25, 0.25, (3, 4, 4)),
        ))
    return out


def _paint_body(frame: np.ndarray, sig: _Signature, cy: int, cx: int):
    """Draw the identity's body blocks centered at column cx, top row cy."""
    _, h, w = frame.shape
    half = max(2, int(round(w * 0.22)))
    head_h = max(2, int(round(h * 0.12)))
    torso_h = max(4, int(round(h * 0.34)))
    leg_h = max(4, int(round(h * 0.30)))

    def clamp_h(a, b):
        return max(0, a), min(h, b)

    def clamp_w(a, b):
        return max(0, a), min(w, b)

    y0, y1 = clamp_h(cy, cy + head_h)
    x0, x1 = clamp_w(cx - half // 2, cx + half // 2 + 1)
    frame[:, y0:y1, x0:x1] = sig.head_color[:, None, None]

    ty0, ty1 = clamp_h(cy + head_h, cy + head_h + torso_h)
    tx0, tx1 = clamp_w(cx - half, cx + half + 1)
    frame[:, ty0:ty1, tx0:tx1] = sig.torso_color[:, None, None]
    if ty1 > ty0 and tx1 > tx0:
        tile = np.tile(sig.texture, (1, (ty1 - ty0) // 4 + 1, (tx1 - tx0) // 4 + 1))
        frame[:, ty0:ty1, tx0:tx1] += tile[:, :ty1 - ty0, :tx1 - tx0]

    ay0, ay1 = clamp_h(cy + head_h + 1, cy + head_h + torso_h // 2 + 1)
    if sig.accessory_side:
        ax0, ax1 = clamp_w(cx + half // 2, cx + half + 1)
    else:
        ax0, ax1 = clamp_w(cx - half, cx - half // 2 + 1)
    frame[:, ay0:ay1, ax0:ax1] = sig.accessory_color[:, None, None]

    ly0, ly1 = clamp_h(cy + head_h + torso_h, cy + head_h + torso_h + leg_h)
    lx0, lx1 = clamp_w(cx - half + 1, cx + half)
    frame[:, ly0:ly1, lx0:lx1] = sig.leg_color[:, None, None]


def _body_stamp(sig: _Signature, shape: tuple, cy: int, cx: int):
    """The body painted once onto a NaN canvas, and the pixels it covers.

    Every body pixel is an assignment (the torso texture is added to the torso
    color just assigned), so ``np.copyto(frame, canvas, where=mask)`` equals
    ``_paint_body(frame, sig, cy, cx)`` byte for byte, whatever ``frame`` holds.
    """
    canvas = np.full(shape, np.nan)
    _paint_body(canvas, sig, cy, cx)
    return canvas, ~np.isnan(canvas)


def _camera_background(camera: int, h: int, w: int) -> np.ndarray:
    """Static per-camera backdrop: a mild oriented gradient."""
    ys = np.linspace(0.0, 1.0, h)[None, :, None]
    xs = np.linspace(0.0, 1.0, w)[None, None, :]
    tilt = 0.03 * ((camera % 3) - 1)
    base = 0.45 + 0.02 * (camera % 2)
    grad = base + 0.05 * ys + tilt * xs
    return np.broadcast_to(grad, (3, h, w)).astype(np.float64).copy()


def _smooth_texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Zero-mean smooth random field, roughly unit amplitude, tileable by roll."""
    coarse = rng.normal(0.0, 1.0, (3, max(2, h // 4), max(2, w // 4)))
    tex = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)[:, :h, :w]
    if tex.shape[1] < h or tex.shape[2] < w:
        tex = np.pad(tex, ((0, 0), (0, h - tex.shape[1]), (0, w - tex.shape[2])), mode="wrap")
    for axis in (1, 2):      # two cheap box passes keep it locally smooth
        tex = (tex + np.roll(tex, 1, axis=axis) + np.roll(tex, -1, axis=axis)) / 3.0
    return tex - tex.mean(axis=(1, 2), keepdims=True)


def _blend(frame: np.ndarray, py: int, px: int, tint: np.ndarray, alpha: float,
           noise: np.ndarray):
    """Lay a noisy distractor patch over the frame with opacity ``alpha``.

    ``tint`` is ``alpha`` times a palette color, shaped (3, 1, 1).  An opaque
    patch replaces what lies under it: a finite pixel times 0 is +-0, and
    +-0 plus a positive tint is the tint exactly, so the patch is written as
    ``tint + noise`` in one pass with the bytes of the three-step blend.
    """
    patch = frame[:, py:py + noise.shape[1], px:px + noise.shape[2]]
    if alpha == 1.0:
        np.add(tint, noise, out=patch)
        return
    patch *= 1.0 - alpha
    patch += tint
    patch += noise


def generate_synthetic(spec: SynthSpec) -> VideoDataset:
    """Deterministic synthetic dataset for the given spec (seeded).

    Work that cannot change is done once: the camera backdrops and patch tints
    per call, each identity's body stamp per position (see ``_body_stamp``),
    and each sequence's doubled clutter texture, whose slices are its scrolls;
    an opaque patch is written, not blended (see ``_blend``).  The generator's
    draws, and so the bytes, are those of painting every frame from scratch.
    """
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    h, w = spec.frame_h, spec.frame_w
    signatures = _make_signatures(rng, spec.num_identities)
    backdrops = [_camera_background(camera, h, w) for camera in range(spec.cams)]
    n_patches = int(round(spec.clutter_patches * spec.clutter))
    alpha = min(1.0, spec.clutter)
    tints = alpha * _PALETTE[:, :, None, None]
    jv = max(1, JITTER_PX // 2)
    sequences: list[SequenceRecord] = []
    for identity in range(spec.num_identities):
        sig = signatures[identity]
        stamps = {}                                 # (cy, cx) -> (canvas, mask)
        for camera in range(spec.cams):
            for seq_idx in range(spec.seqs_per_cam):
                if spec.cams >= 2 and seq_idx == spec.seqs_per_cam - 1:
                    split = "query" if camera == 0 else "gallery"
                else:
                    split = "train"
                length = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
                base_cy = int(rng.integers(1, 3))
                base_cx = w // 2 + int(rng.integers(-1, 2))
                frames = np.empty((length, 3, h, w), dtype=np.float32)
                # the texture scrolled by (oy, ox) is a window of its 2x2 tiling
                tiled = (np.tile(_smooth_texture(rng, h, w), (1, 2, 2))
                         if spec.clutter > 0 else None)
                for f in range(length):
                    frame = backdrops[camera].copy()
                    if tiled is not None:
                        oy = int(rng.integers(0, h))
                        ox = int(rng.integers(0, w))
                        frame += spec.clutter * tiled[:, h - oy:2 * h - oy, w - ox:2 * w - ox]
                    # body-colored distractors, mostly behind the person but
                    # sometimes crossing in front
                    foreground = []
                    for _ in range(n_patches):
                        ph = int(rng.integers(h // 6, h // 3 + 1))
                        pw = int(rng.integers(w // 4, w // 2 + 1))
                        py = int(rng.integers(0, h - ph + 1))
                        px = int(rng.integers(0, w - pw + 1))
                        tint = tints[int(rng.integers(0, len(_PALETTE)))]
                        noise = rng.normal(0.0, 0.3 * spec.clutter, (3, ph, pw))
                        if rng.random() < 0.35:
                            foreground.append((py, px, tint, noise))
                        else:
                            _blend(frame, py, px, tint, alpha, noise)
                    cy = base_cy + int(rng.integers(-jv, jv + 1))
                    cx = base_cx + int(rng.integers(-JITTER_PX, JITTER_PX + 1))
                    if (cy, cx) not in stamps:
                        stamps[cy, cx] = _body_stamp(sig, frame.shape, cy, cx)
                    canvas, covered = stamps[cy, cx]
                    np.copyto(frame, canvas, where=covered)
                    for py, px, tint, noise in foreground:
                        _blend(frame, py, px, tint, alpha, noise)
                    frame *= rng.uniform(*spec.illum_scale)
                    frame += rng.uniform(*spec.illum_shift)
                    if spec.occlusion_p > 0 and rng.random() < spec.occlusion_p:
                        oh = int(rng.integers(h // 6, h // 3 + 1))
                        ow = int(rng.integers(w // 4, (2 * w) // 3 + 1))
                        oy = int(rng.integers(0, h - oh + 1))
                        ox = int(rng.integers(0, w - ow + 1))
                        frame[:, oy:oy + oh, ox:ox + ow] = rng.uniform(0, 1, 3)[:, None, None]
                    frames[f] = frame
                sequences.append(SequenceRecord(identity, camera, split, frames))
    ds = VideoDataset(sequences)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def save_dataset(dataset: VideoDataset, path):
    """Write ``index.txt`` plus one CSTT tensor file per sequence."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, seq in enumerate(dataset.sequences):
        fname = f"seq{i:05d}.cstt"
        write_tensor(root / fname, np.ascontiguousarray(seq.frames, dtype=np.float32))
        lines.append(f"{seq.identity} {seq.camera} {seq.split} {fname}")
    (root / "index.txt").write_text("".join(line + "\n" for line in lines))


def load_dataset(path) -> VideoDataset:
    root = Path(path)
    index = root / "index.txt"
    sequences = []
    for lineno, line in enumerate(read_file(index, text=True).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{index}: line {lineno} must be "
                              f"'identity camera split file', got {line!r}")
        try:
            identity, camera = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{index}: line {lineno} has non-integer ids") from None
        split, fname = parts[2], parts[3]
        if split not in SPLITS:
            raise FormatError(f"{index}: line {lineno} has unknown split {split!r}")
        fpath = root / fname
        if not fpath.is_file():
            raise FormatError(f"{index}: line {lineno} references missing file {fname}")
        frames = read_tensor(fpath)
        if frames.ndim != 4 or frames.shape[1] != FRAME_CHANNELS:
            raise FormatError(f"{fpath}: expected a (L, {FRAME_CHANNELS}, H, W) frame stack, "
                              f"got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise FormatError(f"{fpath}: frames hold non-finite values")
        sequences.append(SequenceRecord(identity, camera, split,
                                        frames.astype(np.float32, copy=False)))
    dataset = VideoDataset(sequences)
    try:
        dataset.validate()
    except ContractError as exc:
        raise FormatError(f"{index}: {exc}") from None
    return dataset


def dataset_census(dataset: VideoDataset) -> dict:
    counts = {split: len(dataset.of_split(split)) for split in SPLITS}
    return {
        "sequences": len(dataset.sequences),
        "identities": dataset.num_identities,
        "cameras": len({s.camera for s in dataset.sequences}),
        "frames": int(sum(len(s.frames) for s in dataset.sequences)),
        **counts,
    }


def train_pixel_mean(dataset: VideoDataset) -> np.ndarray:
    """Per-channel mean over the train split (fill value for erasing)."""
    train = dataset.of_split("train")
    if not train:
        return np.zeros(3, dtype=np.float64)
    total = np.zeros(3, dtype=np.float64)
    count = 0
    for seq in train:
        total += seq.frames.sum(axis=(0, 2, 3))
        count += seq.frames.shape[0] * seq.frames.shape[2] * seq.frames.shape[3]
    return total / count
