"""Self-contained property suite, and the one home of every reference
implementation.

The references follow their definitions one element at a time, in float64
numpy and independent of the engine: the scalar NCC (``ncc``) and the
co-saliency correlation volumes built from it (``build_spatial_volume``,
``build_channel_volume``, composed by ``materialized_attention``), the matrix
product (``matmul_loops``), cross-correlation (``conv2d_loops``), adaptive
average pooling (``pool_loops``), the STI relation maps and features
(``sti_relations_loops``), batch norm's output and running statistics
(``batch_norm_reference``), CMC and mAP (``rank_loops``) and the batch-hard
triplet loss (``batch_hard_triplet_loops``).  ``cstnet verify`` and
the tests compare the engine and the model against them; the ``ncc/*`` and
``oracle/*_volume`` properties check the oracles themselves.  Every differentiable operation and
composite is also checked against central finite differences, and batch norm
against a float64 reference and a graph of simpler ops.  The structural
invariants (attention normalization, gate bounds, zero-init identity, no dead
parameter, CMC monotonicity) are measured directly.  Each check reports its
measured error so regressions are visible even while they still pass.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import faults, tensor as T
from .csl import NCC_EPS, CoSaliencyLearning
from .errors import ContractError, DimensionError
from .gradcheck import check_op, max_gradcheck_error
from .losses import batch_hard_triplet, label_smooth_ce
from .metrics import ranking_metrics
from .model import Cstnet, CstnetConfig, pairwise_distances
from .nn import BatchNorm2d
from .optim import Adam, AdamConfig
from .sti import SpatialTemporalInteraction
from .tensor import Tensor, constant, mul, no_grad, tsum


@dataclass
class PropertyResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{status}  {self.name:40s} measured={self.measured:.3e} tol={self.tolerance:.1e}{extra}"


# ---------------------------------------------------------------------------
# the NCC and the co-saliency correlation volumes by their definition (see the
# csl module docstring), in float64 numpy: the oracle of the volume-free model
# path
# ---------------------------------------------------------------------------

def ncc(p, q) -> float:
    """Normalized cross correlation of two descriptors, by its definition.

    (1/d) * sum((p - mean_p) * (q - mean_q)) / ((std_p + eps) * (std_q + eps))
    with population standard deviations and eps = ``NCC_EPS``, which guards
    constant descriptors.  Robust to positive affine rescaling of either argument.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionError(f"ncc: descriptors must be equal-length vectors, got "
                             f"{p.shape} and {q.shape}")
    if p.size < 2:
        raise ContractError("ncc: descriptors need at least 2 entries")
    pc, qc = p - p.mean(), q - q.mean()
    return float((pc * qc).sum() / p.size / ((pc.std() + NCC_EPS) * (qc.std() + NCC_EPS)))


def _standardized(x: np.ndarray) -> np.ndarray:
    """Mean-free descriptors along the last axis, divided by population std + ``NCC_EPS``."""
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / (centred.std(axis=-1, keepdims=True) + NCC_EPS)


def _volume_for_frame(nd: np.ndarray, t: int) -> np.ndarray:
    """NCC scores of frame t's descriptors against all other frames.

    nd is (T, n, d) standardized; returns ((T-1)*n, n) where rows run over
    co-frames ascending (skipping t) then descriptor index, and columns index
    frame t's descriptors.
    """
    frames, n, d = nd.shape
    others = np.delete(nd, t, axis=0).reshape((frames - 1) * n, d)
    return others @ nd[t].T / d


def build_spatial_volume(spatial_desc, frame: int) -> np.ndarray:
    """Correlation volume ((T-1)*H*W, H, W) of one frame vs. the rest.

    ``spatial_desc`` is a single clip's (T, C_L, H, W) descriptor stack.
    """
    desc = np.asarray(spatial_desc, dtype=np.float64)
    if desc.ndim != 4:
        raise DimensionError(f"expected (T, C_L, H, W) descriptors, got {desc.shape}")
    t_len, c_l, h, w = desc.shape
    if not 0 <= frame < t_len:
        raise ContractError(f"frame {frame} out of range for {t_len} frames")
    nd = _standardized(desc.reshape(t_len, c_l, h * w).transpose(0, 2, 1))
    return _volume_for_frame(nd, frame).reshape((t_len - 1) * h * w, h, w)


def build_channel_volume(channel_desc, frame: int) -> np.ndarray:
    """Correlation volume ((T-1)*C, C, 1, 1) of one frame's channels vs. the rest.

    Mirrors ``build_spatial_volume`` with channels as descriptors: each
    channel's flattened H_L*W_L map is compared against every channel of
    every other frame.
    """
    desc = np.asarray(channel_desc, dtype=np.float64)
    if desc.ndim != 4:
        raise DimensionError(f"expected (T, C, H_L, W_L) descriptors, got {desc.shape}")
    t_len, c, h_l, w_l = desc.shape
    if h_l * w_l < 2:
        raise ContractError("channel descriptors need at least 2 spatial positions")
    if not 0 <= frame < t_len:
        raise ContractError(f"frame {frame} out of range for {t_len} frames")
    nd = _standardized(desc.reshape(t_len, c, h_l * w_l))
    return _volume_for_frame(nd, frame).reshape((t_len - 1) * c, c, 1, 1)


# ---------------------------------------------------------------------------
# the other references, each by its definition, one element at a time
# ---------------------------------------------------------------------------

def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of 2-D arrays by the triple loop, in float64."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def conv2d_loops(x, w, b, stride: int, padding: int) -> np.ndarray:
    """Cross-correlation by its definition, one output element at a time, in float64."""
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for co in range(c_out):
            for r in range(oh):
                for c in range(ow):
                    window = xp[i, :, r * stride:r * stride + kh, c * stride:c * stride + kw]
                    out[i, co, r, c] = (window * w[co]).sum() + (0.0 if b is None else b[co])
    return out


def pool_loops(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Adaptive average pooling by its bin definition, in float64."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            hs, he = (i * h) // out_h, -(-(i + 1) * h // out_h)
            ws, we = (j * w) // out_w, -(-(j + 1) * w // out_w)
            out[:, :, i, j] = x[:, :, hs:he, ws:we].mean(axis=(2, 3))
    return out


def sti_relations_loops(block: SpatialTemporalInteraction, f):
    """The STI relations of (B, T, C, H, W) features by their definition, in
    float64: per frame, the shared query/key and the value projections, keys
    and values pooled by ``pool_loops``, a softmax over the keys and the output
    projection; per position, the same across frames, unpooled.  Returns
    (f_s, f_t, m_s, m_t) shaped as the fields of ``block.relations(f)``."""
    f = np.asarray(f, np.float64)
    b, t, c, h, w = f.shape
    c1, h1, w1 = block.c_1, block.h_1, block.w_1

    def project(layer, x):                  # a 1x1 projection of (C_in, n) columns
        weight = layer.weight.data.astype(np.float64)
        return weight.reshape(weight.shape[0], -1) @ x + layer.bias.data[:, None]

    def attend(queries, keys, values):      # the softmax runs over the keys
        scores = keys.T @ queries
        m = np.exp(scores - scores.max(axis=0))
        m /= m.sum(axis=0)
        return m, values @ m

    f_s, f_t = np.zeros(f.shape), np.zeros(f.shape)
    m_s, m_t = np.zeros((b, t, h1 * w1, h * w)), np.zeros((b, h * w, t, t))
    for i in range(b):
        for k in range(t):
            x = f[i, k].reshape(c, h * w)
            qk, v = project(block.qk_spatial, x), project(block.v_spatial, x)
            keys, values = (pool_loops(a.reshape(1, c1, h, w), h1, w1).reshape(c1, h1 * w1)
                            for a in (qk, v))
            m_s[i, k], att = attend(qk, keys, values)
            f_s[i, k] = project(block.out_spatial, att).reshape(c, h, w)
        for y in range(h):
            for x in range(w):
                frames = f[i, :, :, y, x].T                             # (C, T)
                qk = project(block.qk_temporal, frames)
                m_t[i, y * w + x], att = attend(qk, qk, project(block.v_temporal, frames))
                f_t[i, :, :, y, x] = project(block.out_temporal, att).T
    return f_s, f_t, m_s, m_t


def rank_loops(dist, qid, gid, qcam, gcam, max_rank: int):
    """CMC and mAP by sorting each query's gallery on (distance, index), with
    entries of the query's identity and camera dropped.  Queries left without
    a match are skipped; returns (cmc, mAP), or None when every query is."""
    cmc = np.zeros(max_rank)
    aps = []
    for i in range(dist.shape[0]):
        entries = sorted(range(dist.shape[1]), key=lambda j: (dist[i, j], j))
        kept = [j for j in entries if not (gid[j] == qid[i] and gcam[j] == qcam[i])]
        rel = [gid[j] == qid[i] for j in kept]
        if not any(rel):
            continue
        first = rel.index(True)
        for kk in range(first, max_rank):
            cmc[kk] += 1
        hits, ap = 0, 0.0
        for rank, is_rel in enumerate(rel, start=1):
            if is_rel:
                hits += 1
                ap += hits / rank
        aps.append(ap / hits)
    if not aps:
        return None
    return cmc / len(aps), float(np.mean(aps))


def ranking_instance(rng: np.random.Generator, q: int, g: int):
    """A random (dist, qid, gid, qcam, gcam) with distance ties: queries on
    camera 0, gallery on camera 1, the query identities first in the gallery."""
    dist = np.round(rng.random((q, g)), 2)
    qid = rng.integers(0, max(2, q // 2 + 1), q)
    gid = np.concatenate([qid, rng.integers(0, max(2, q // 2 + 1), max(0, g - q))])[:g]
    return dist, qid, gid, np.zeros(q, dtype=int), np.ones(g, dtype=int)


def batch_hard_triplet_loops(features, labels, margin: float) -> float:
    """Batch-hard triplet loss: per anchor, the largest positive and the smallest
    negative distance found by exhaustive search, hinged at ``margin``."""
    d = pairwise_distances(features)
    n = len(labels)
    per_anchor = []
    for a in range(n):
        pos = max(d[a, j] for j in range(n) if labels[j] == labels[a])
        neg = min(d[a, j] for j in range(n) if labels[j] != labels[a])
        per_anchor.append(max(0.0, margin + pos - neg))
    return float(np.mean(per_anchor))


# ---------------------------------------------------------------------------
# individual checks, each returning (measured, tolerance, detail)
# ---------------------------------------------------------------------------

def _op_gradients() -> list[PropertyResult]:
    rng = np.random.default_rng(11)
    cases = {
        "grad/add": (lambda a, b: T.add(a, b),
                     [rng.standard_normal((3, 1, 4)), rng.standard_normal((1, 5, 4))]),
        "grad/mul": (lambda a, b: T.mul(a, b),
                     [rng.standard_normal((2, 5)), rng.standard_normal((2, 5))]),
        "grad/scale": (lambda a: T.scale(a, -1.7), [rng.standard_normal((3, 3))]),
        "grad/matmul": (lambda a, b: T.matmul(a, b),
                        [rng.standard_normal((3, 4)), rng.standard_normal((4, 5))]),
        "grad/matmul_batched": (lambda a, b: T.matmul(a, b),
                                [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))]),
        "grad/softmax": (lambda a: T.softmax(a, 1), [rng.standard_normal((3, 6))]),
        "grad/log_softmax": (lambda a: T.log_softmax(a, 1), [rng.standard_normal((3, 6))]),
        "grad/relu": (lambda a: T.relu(a), [rng.standard_normal((4, 4)) + 0.3]),
        "grad/sigmoid": (lambda a: T.sigmoid(a), [rng.standard_normal((4, 4))]),
        "grad/reshape_permute": (lambda a: T.permute(T.reshape(a, (4, 6)), (1, 0)),
                                 [rng.standard_normal((2, 3, 4))]),
        "grad/index_select": (lambda a: T.index_select(a, 0, [1, 1, 3]),
                              [rng.standard_normal((4, 3))]),
        "grad/concat": (lambda a, b: T.concat([a, b], 1),
                        [rng.standard_normal((2, 3)), rng.standard_normal((2, 4))]),
        "grad/standardize": (lambda a: T.standardize(a, -1, 1e-5),
                             [rng.standard_normal((4, 9))]),
        "grad/reduce_max": (lambda a: T.reduce_max(a, 1), [rng.standard_normal((3, 7))]),
        "grad/reduce_min": (lambda a: T.reduce_min(a, 1), [rng.standard_normal((3, 7))]),
        "grad/sum_mean": (lambda a: T.tmean(T.tsum(a, axis=2), axis=0),
                          [rng.standard_normal((2, 3, 4))]),
        "grad/conv2d_k3": (lambda x, w, b: T.conv2d(x, w, b, stride=1, padding=1),
                           [rng.standard_normal((2, 3, 5, 4)),
                            rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]),
        "grad/conv2d_k3_s2": (lambda x, w: T.conv2d(x, w, stride=2, padding=1),
                              [rng.standard_normal((1, 2, 6, 5)),
                               rng.standard_normal((3, 2, 3, 3))]),
        "grad/conv2d_k1": (lambda x, w, b: T.conv2d(x, w, b),
                           [rng.standard_normal((2, 4, 3, 3)),
                            rng.standard_normal((5, 4, 1, 1)), rng.standard_normal(5)]),
        "grad/conv2d_k1_s2": (lambda x, w: T.conv2d(x, w, stride=2),
                              [rng.standard_normal((2, 3, 5, 4)),
                               rng.standard_normal((4, 3, 1, 1))]),
        "grad/adaptive_pool": (lambda x: T.adaptive_avg_pool2d(x, 2, 2),
                               [rng.standard_normal((2, 3, 5, 4))]),
        "grad/adaptive_pool_divisible": (lambda x: T.adaptive_avg_pool2d(x, 2, 3),
                                         [rng.standard_normal((2, 3, 4, 6))]),
    }
    results = []
    for name, (build, arrays) in cases.items():
        err = check_op(build, arrays, coords_per_leaf=40)
        results.append(PropertyResult(name, err <= 1e-4, err, 1e-4))

    bn = BatchNorm2d(3, dtype=np.float64)
    x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
    err = max_gradcheck_error(lambda: bn(x), [x, bn.gamma, bn.beta],
                              rng=np.random.default_rng(3))
    results.append(PropertyResult("grad/batch_norm", err <= 1e-4, err, 1e-4))
    return results


# the micro model of ``grad/micro_model`` and ``invariant/no_dead_parameters``:
# CSL and STI at stages 2-4, float64
_MICRO_MODEL = CstnetConfig(num_identities=4, clip_len=2, frame_h=16, frame_w=8,
                            stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                            csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                            sti_channels=4, sti_pool_h=2, sti_pool_w=1,
                            dtype="f64", seed=3)


def _composite_gradients() -> list[PropertyResult]:
    rng = np.random.default_rng(23)
    results = []

    csl = CoSaliencyLearning(8, 4, 2, 2, clip_len=3,
                             feat_h=4, feat_w=4, rng=rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((1, 3, 8, 4, 4)), requires_grad=True)
    err = max_gradcheck_error(lambda: csl(x), [x] + csl.parameters(), coords_per_leaf=6,
                              rng=np.random.default_rng(5))
    results.append(PropertyResult("grad/csl_forward", err <= 1e-4, err, 1e-4))

    sti = SpatialTemporalInteraction(8, 4, 2, 2, rng=rng, dtype=np.float64)
    sti.out_spatial.weight.data = 0.3 * rng.standard_normal(sti.out_spatial.weight.shape)
    sti.out_temporal.weight.data = 0.3 * rng.standard_normal(sti.out_temporal.weight.shape)
    xs = Tensor(rng.standard_normal((1, 2, 8, 4, 4)), requires_grad=True)
    err = max_gradcheck_error(lambda: sti(xs), [xs] + sti.parameters(), coords_per_leaf=6,
                              rng=np.random.default_rng(6))
    results.append(PropertyResult("grad/sti_forward", err <= 1e-4, err, 1e-4))

    model = Cstnet(_MICRO_MODEL)
    for mod in (model.sti2, model.sti3, model.sti4):
        mod.out_spatial.weight.data = 0.3 * np.random.default_rng(8).standard_normal(
            mod.out_spatial.weight.shape)
        mod.out_temporal.weight.data = 0.3 * np.random.default_rng(9).standard_normal(
            mod.out_temporal.weight.shape)
    clips = Tensor(np.random.default_rng(10).random((2, 2, 3, 16, 8)), requires_grad=True)
    labels = np.array([0, 1])

    def model_loss():
        feats, logits = model(clips)
        return T.add(tsum(mul(feats, constant(np.random.default_rng(12).standard_normal(feats.shape)))),
                     label_smooth_ce(logits, labels, 0.1))

    err = max_gradcheck_error(model_loss, [clips] + model.parameters(),
                              coords_per_leaf=3, rng=np.random.default_rng(7))
    results.append(PropertyResult("grad/micro_model", err <= 1e-4, err, 1e-4))
    return results


def _ncc_properties() -> list[PropertyResult]:
    """Self-checks of the oracle ``ncc``: exact symmetry, affine invariance, and
    |ncc| <= 1 (1.001 with eps) including constant descriptors."""
    rng = np.random.default_rng(31)
    results = []

    sym = max(abs(ncc(p, q) - ncc(q, p)) for p, q in rng.standard_normal((300, 2, 16)))
    results.append(PropertyResult("ncc/symmetry_exact", sym == 0.0, sym, 0.0))

    worst = 0.0
    for _ in range(1000):
        p = rng.standard_normal(16)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        worst = max(worst, abs(ncc(p, a * p + b) - 1.0))
    results.append(PropertyResult("ncc/affine_invariance", worst <= 1e-3, worst, 1e-3))

    bound = 0.0
    for d in (8, 12):
        for _ in range(500):
            p = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
            q = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
            bound = max(bound, abs(ncc(p, q)))
        bound = max(bound, abs(ncc(np.full(d, 2.0), rng.standard_normal(d))),
                    abs(ncc(np.full(d, 2.0), np.full(d, -1.0))))
    results.append(PropertyResult("ncc/bounds", bound <= 1.001, bound, 1.001))
    return results


# (H, W, C_L) of the spatial volume sweep, each at T = 2 and 3: square, tall,
# wide and odd maps up to 4x4, descriptor lengths 2-8
_SPATIAL_VOLUME_SHAPES = ((2, 2, 2), (2, 2, 4), (2, 2, 8), (2, 3, 2), (2, 3, 8), (2, 4, 2),
                          (2, 4, 8), (3, 2, 2), (3, 2, 4), (3, 2, 8), (4, 2, 2), (4, 2, 8),
                          (4, 3, 2), (4, 3, 4), (4, 3, 8), (4, 4, 2), (4, 4, 4), (4, 4, 8))


def _volume_oracles() -> list[PropertyResult]:
    """The vectorized volumes against ``ncc``, one volume entry at a time."""
    rng = np.random.default_rng(41)
    worst_s = 0.0
    for t_len in (2, 3):
        for h, w, c_l in _SPATIAL_VOLUME_SHAPES:
            desc = rng.standard_normal((t_len, c_l, h, w))
            for t in range(t_len):
                vol = build_spatial_volume(desc, t)
                slot = 0
                for k in [k for k in range(t_len) if k != t]:
                    for hh in range(h):
                        for ww in range(w):
                            for i in range(h):
                                for j in range(w):
                                    ref = ncc(desc[t, :, i, j], desc[k, :, hh, ww])
                                    worst_s = max(worst_s, abs(vol[slot, i, j] - ref))
                            slot += 1
    worst_c = 0.0
    for t_len in (2, 3):
        for c in (3, 8):
            desc = rng.standard_normal((t_len, c, 2, 2))
            for t in range(t_len):
                vol = build_channel_volume(desc, t)
                slot = 0
                for k in [k for k in range(t_len) if k != t]:
                    for cp in range(c):
                        for cc in range(c):
                            ref = ncc(desc[t, cc].ravel(), desc[k, cp].ravel())
                            worst_c = max(worst_c, abs(vol[slot, cc, 0, 0] - ref))
                        slot += 1
    return [PropertyResult("oracle/spatial_volume", worst_s <= 1e-10, worst_s, 1e-10,
                           detail=f"T 2-3, {len(_SPATIAL_VOLUME_SHAPES)} (H, W, C_L) shapes"),
            PropertyResult("oracle/channel_volume", worst_c <= 1e-10, worst_c, 1e-10,
                           detail="T 2-3, C 3 and 8")]


def materialized_attention(csl: CoSaliencyLearning, f: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The co-saliency logits (z_s, z_c) of a clip batch with T >= 2 by definition,
    in float64: every frame's correlation volumes built one clip at a time from the
    module's descriptors, then the summarize weights and bias applied to them."""
    b, t, c, h, w = f.shape
    sd, cd = csl.reduce_dims(f)

    def logits(build, desc, summarize):
        vols = np.array([[build(desc[i], k) for k in range(t)] for i in range(b)])
        weight = summarize.weight.data.astype(np.float64).ravel()
        return np.tensordot(vols, weight, axes=([2], [0])) + float(summarize.bias.data[0])

    return (logits(build_spatial_volume, sd.data, csl.summarize_spatial).reshape(b, t, 1, h, w),
            logits(build_channel_volume, cd.data, csl.summarize_channel).reshape(b, t, c, 1, 1))


def _fused_cosaliency_oracle() -> list[PropertyResult]:
    rng = np.random.default_rng(47)
    worst = 0.0
    cases = 0
    for t_len in (2, 3, 4):
        for c, h, w in ((4, 2, 2), (8, 4, 4), (6, 4, 3), (16, 3, 2)):
            csl = CoSaliencyLearning(c, 4, 2, 2, clip_len=t_len,
                                     feat_h=h, feat_w=w, rng=rng, dtype=np.float64)
            csl.summarize_spatial.bias.data[...] = rng.standard_normal(1)
            csl.summarize_channel.bias.data[...] = rng.standard_normal(1)
            f = Tensor(rng.standard_normal((2, t_len, c, h, w)))
            with no_grad():
                fused = csl.attention(f)
                ref_s, ref_c = materialized_attention(csl, f)
            worst = max(worst, abs(fused.z_s.data - ref_s).max(), abs(fused.z_c.data - ref_c).max())
            cases += 1
    return [PropertyResult("oracle/fused_cosaliency", worst <= 1e-10, worst, 1e-10,
                           detail=f"{cases} modules, T in 2-4")]


def _attention_invariants() -> list[PropertyResult]:
    rng = np.random.default_rng(53)
    results = []

    csl = CoSaliencyLearning(8, 4, 2, 2, clip_len=3,
                             feat_h=4, feat_w=4, rng=rng, dtype=np.float64)
    with no_grad():
        att = csl.attention(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
    z = att.z.data
    margin = max(0.0 - z.min(), z.max() - 1.0)
    strict = float(z.min()) > 0.0 and float(z.max()) < 1.0
    results.append(PropertyResult("invariant/gate_in_unit_interval", strict, margin, 0.0,
                                  detail=f"range [{z.min():.3e}, {z.max():.3e}]"))

    sti = SpatialTemporalInteraction(8, 4, 2, 2, rng=rng, dtype=np.float64)
    with no_grad():
        rel = sti.relations(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
    dev = max(abs(rel.m_s.data.sum(axis=2) - 1.0).max(),
              abs(rel.m_t.data.sum(axis=2) - 1.0).max())
    results.append(PropertyResult("invariant/attention_normalized", dev <= 1e-6, dev, 1e-6))

    fresh = SpatialTemporalInteraction(8, 4, 2, 2, rng=rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 3, 8, 4, 4)))
    with no_grad():
        out = fresh(x)
    ident = abs(out.data - x.data).max()
    results.append(PropertyResult("invariant/zero_init_sti_identity", ident <= 1e-12, ident, 1e-12))
    return results


def _sti_oracle() -> list[PropertyResult]:
    """``relations()`` against ``sti_relations_loops``, with random output
    projections so that the relation features are not all zero."""
    rng = np.random.default_rng(59)
    worst = 0.0
    for t_len in (1, 2, 3):
        for h, w in ((4, 4), (5, 3)):
            block = SpatialTemporalInteraction(8, 4, 2, 2, rng=rng, dtype=np.float64)
            for p in (*block.out_spatial.parameters(), *block.out_temporal.parameters()):
                p.data = 0.4 * rng.standard_normal(p.shape)
            f = rng.standard_normal((2, t_len, 8, h, w))
            with no_grad():
                rel = block.relations(Tensor(f))
            got = (rel.f_s.data, rel.f_t.data, rel.m_s.data, rel.m_t.data)
            worst = max(worst, *(abs(g - r).max() for g, r in zip(got, sti_relations_loops(block, f))))
    return [PropertyResult("oracle/sti_relations", worst <= 1e-10, worst, 1e-10,
                           detail="f_s, f_t, m_s, m_t; T 1-3 on 4x4 and 5x3 maps")]


def _dead_parameters() -> list[PropertyResult]:
    """Every parameter of the micro model at its real init has a gradient that
    is not all zero on the second step of training a PK batch.  The first
    step is needed: at init the zero STI output projections pass no gradient
    to the weights upstream of them."""
    model = Cstnet(_MICRO_MODEL)
    params = dict(model.named_parameters())
    optimizer = Adam(params)
    clips, labels = np.random.default_rng(67).random((4, 2, 3, 16, 8)), np.array([0, 0, 1, 1])
    for step in range(2):
        optimizer.zero_grad()
        feats, logits = model(clips)
        T.add(batch_hard_triplet(feats, labels, 0.3),
              label_smooth_ce(logits, labels, 0.1)).backward()
        if step == 0:
            optimizer.step()
    dead = [name for name, p in params.items() if p.grad is None or not p.grad.any()]
    return [PropertyResult("invariant/no_dead_parameters", not dead, len(dead), 0.0,
                           detail=f"{len(dead)} of {len(params)} parameters"
                           + "".join(f", {name}" for name in dead))]


def _metric_oracles() -> list[PropertyResult]:
    """CMC and mAP against ``rank_loops``: 100 small instances with random
    cameras (where some queries have no valid match), one cross-camera
    instance of every size Q <= 8, G <= 12, and 100 larger ones up to Q = 15,
    G = 39."""
    rng = np.random.default_rng(61)
    instances = []
    for _ in range(100):
        q = int(rng.integers(1, 7))
        g = int(rng.integers(2, 11))
        dist = np.round(rng.random((q, g)), 2)      # rounding forces ties
        qid = rng.integers(0, 3, q)
        gid = np.concatenate([qid, rng.integers(0, 3, max(0, g - q))])[:g]
        qcam = rng.integers(0, 2, q)
        gcam = 1 - np.concatenate([qcam, rng.integers(0, 2, max(0, g - q))])[:g]
        instances.append((dist, qid, gid, qcam, gcam))
    instances += [ranking_instance(rng, q, g) for q in range(1, 9) for g in range(2, 13)]
    for _ in range(100):
        instances.append(ranking_instance(rng, int(rng.integers(4, 16)), int(rng.integers(8, 40))))

    worst_cmc, worst_map = 0.0, 0.0
    mono_ok = True
    skipped, disagreements = 0, 0
    for instance in instances:
        max_rank = instance[0].shape[1]
        ref = rank_loops(*instance, max_rank)
        try:
            got = ranking_metrics(*instance, max_rank)
        except ContractError:       # documented: no query has a valid cross-camera match
            skipped += 1
            disagreements += ref is not None
            continue
        if ref is None:
            disagreements += 1
            continue
        ref_cmc, ref_map = ref
        worst_cmc = max(worst_cmc, abs(got.cmc - ref_cmc).max())
        worst_map = max(worst_map, abs(got.map - ref_map))
        mono_ok = mono_ok and bool((np.diff(got.cmc) >= -1e-15).all())
    checked = skipped < len(instances) and disagreements == 0
    detail = (f"{len(instances)} instances, {skipped} skipped (no valid match), "
              f"{disagreements} disagree with oracle")
    return [PropertyResult("oracle/cmc_exact", checked and worst_cmc == 0.0, worst_cmc, 0.0,
                           detail=detail),
            PropertyResult("oracle/map", checked and worst_map <= 1e-9, worst_map, 1e-9,
                           detail=detail),
            PropertyResult("invariant/cmc_monotone", mono_ok, 0.0 if mono_ok else 1.0, 0.0)]


# every conv geometry the model builds: stem and stage 3x3 convs (stride 1 and
# 2, padding 1), CSL/STI 1x1 convs with a bias, stage shortcuts (1x1, stride 2)
_CONV_CASES = (("k3_s1", 3, 1, 1, False), ("k3_s2", 3, 2, 1, False),
              ("k1_s1_bias", 1, 1, 0, True), ("k1_s2", 1, 2, 0, False))
_CONV_TOL = {np.float64: 1e-10, np.float32: 1e-5}    # max abs error; outputs are O(1)-O(10)


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training: bool,
                        momentum: float = 0.1, eps: float = 1e-5):
    """Float64 output and updated running buffers: two-pass ``np.var`` statistics."""
    x = np.asarray(x, np.float64)
    if training:
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        running_mean = (1.0 - momentum) * running_mean + momentum * mu
        running_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mu, var = running_mean, running_var
    shape = (1, -1, 1, 1)
    out = gamma.reshape(shape) * (x - mu.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    return out + beta.reshape(shape), running_mean, running_var


def _batch_norm_composed(x: Tensor, gamma: Tensor, beta: Tensor, mean=None, var=None,
                        eps: float = 1e-5) -> Tensor:
    """Batch norm built from elementwise ops and reductions, each with its own
    backward rule: the gradient oracle.  Batch statistics unless ``mean`` and
    ``var`` (arrays) are given."""
    shape = (1, -1, 1, 1)
    if mean is None:
        mu = T.tmean(x, axis=(0, 2, 3), keepdims=True)
        centred = T.sub(x, mu)
        var_t = T.tmean(T.mul(centred, centred), axis=(0, 2, 3), keepdims=True)
    else:
        centred = T.sub(x, constant(mean.reshape(shape)))
        var_t = constant(var.reshape(shape))
    xhat = T.div(centred, T.sqrt(T.add(var_t, eps)))
    return T.add(T.mul(xhat, T.reshape(gamma, shape)), T.reshape(beta, shape))


def _layer_oracles() -> list[PropertyResult]:
    rng = np.random.default_rng(73)
    return _conv2d_oracle(rng) + _pool_oracle(rng) + _batch_norm_oracle(rng)


def _conv2d_oracle(rng) -> list[PropertyResult]:
    worst = {np.float64: 0.0, np.float32: 0.0}
    well_formed = True
    for _, k, stride, padding, with_bias in _CONV_CASES:
        x = rng.standard_normal((2, 3, 7, 5))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4) if with_bias else None
        ref = conv2d_loops(x, w, b, stride, padding)
        for dtype in worst:
            got = T.conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)),
                           None if b is None else Tensor(b.astype(dtype)),
                           stride=stride, padding=padding).data
            well_formed = (well_formed and got.dtype == dtype and got.shape == ref.shape
                           and got.flags.c_contiguous)
            err = abs(got - ref).max() if got.shape == ref.shape else np.inf
            worst[dtype] = max(worst[dtype], err)
    detail = f"{len(_CONV_CASES)} geometries: " + ", ".join(name for name, *_ in _CONV_CASES)
    return [PropertyResult(f"oracle/conv2d_loops{suffix}",
                           well_formed and worst[dtype] <= _CONV_TOL[dtype], worst[dtype],
                           _CONV_TOL[dtype], detail=detail)
            for dtype, suffix in ((np.float64, ""), (np.float32, "_f32"))]


def _pool_oracle(rng) -> list[PropertyResult]:
    # frozen from the bin-mean definition on 1..16 in a 4x4 grid
    x = np.arange(1.0, 17.0).reshape(1, 1, 4, 4)
    got = T.adaptive_avg_pool2d(Tensor(x), 2, 2).data
    err = abs(got - np.array([[3.5, 5.5], [11.5, 13.5]])).max()
    for shape, out_hw in (((2, 3, 4, 6), (2, 3)), ((2, 3, 5, 4), (3, 2)), ((2, 3, 7, 5), (4, 2)),
                          ((2, 3, 4, 2), (1, 1))):
        x = rng.standard_normal(shape)
        err = max(err, abs(T.adaptive_avg_pool2d(Tensor(x), *out_hw).data
                           - pool_loops(x, *out_hw)).max())
    return [PropertyResult("oracle/adaptive_pool_bins", err <= 1e-12, err, 1e-12,
                           detail="divisible and non-divisible bins")]


def _batch_norm_oracle(rng) -> list[PropertyResult]:
    """Train and eval mode against the float64 reference: output, running
    buffers, and the gradients of x, gamma and beta against the composed graph."""
    worst = 0.0
    for training in (True, False):
        x = rng.standard_normal((4, 3, 5, 2)) * 2.0 + 1.5
        gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
        mean0, var0 = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        proj = constant(rng.standard_normal(x.shape))
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        running_mean, running_var = mean0.copy(), var0.copy()
        out = T.batch_norm(*leaves, running_mean, running_var, training=training)
        ref, ref_mean, ref_var = batch_norm_reference(x, gamma, beta, mean0, var0, training)
        tsum(mul(out, proj)).backward()
        grads = [leaf.grad for leaf in leaves]
        composed = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        stats = {} if training else {"mean": mean0, "var": var0}
        tsum(mul(_batch_norm_composed(*composed, **stats), proj)).backward()
        worst = max(worst, abs(out.data - ref).max(), abs(running_mean - ref_mean).max(),
                    abs(running_var - ref_var).max(),
                    *(abs(g - c.grad).max() for g, c in zip(grads, composed)))
    return [PropertyResult("oracle/batch_norm", worst <= 1e-10, worst, 1e-10,
                           detail="train and eval: output, running stats, dx/dgamma/dbeta")]


def _loss_and_misc_oracles() -> list[PropertyResult]:
    rng = np.random.default_rng(71)
    results = []

    # matmul vs triple loop
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    err = abs(T.matmul(Tensor(a), Tensor(b)).data - matmul_loops(a, b)).max()
    results.append(PropertyResult("oracle/matmul_loops", err <= 1e-12, err, 1e-12))

    # softmax vs direct exp-normalize
    v = np.array([1.0, 2.0, 3.0])
    got = T.softmax(Tensor(v), 0).data
    ref = np.exp(v) / np.exp(v).sum()
    err = abs(got - ref).max()
    results.append(PropertyResult("oracle/softmax_expsum", err <= 1e-12, err, 1e-12))

    # batch-hard triplet vs exhaustive max/min
    feats = rng.standard_normal((8, 4))
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    got = float(batch_hard_triplet(Tensor(feats), labels, 0.3).data)
    err = abs(got - batch_hard_triplet_loops(feats, labels, 0.3))
    results.append(PropertyResult("oracle/batch_hard_triplet", err <= 1e-9, err, 1e-9))

    # label-smoothed CE vs direct formula
    logits = np.array([[2.0, 0.0, 0.0]])
    got = float(label_smooth_ce(Tensor(logits), np.array([0]), 0.1).data)
    logp = logits[0] - np.log(np.exp(logits[0]).sum())
    targets = np.full(3, 0.1 / 3)
    targets[0] += 0.9
    err = abs(got - float(-(targets * logp).sum()))
    results.append(PropertyResult("oracle/label_smooth_ce", err <= 1e-9, err, 1e-9))

    # first Adam step closed form
    from .nn import Parameter
    p = Parameter(np.array([0.5]), dtype=np.float64)
    p.grad = np.array([2.0])
    opt = Adam({"w": p}, AdamConfig(lr=1e-2, weight_decay=0.0))
    opt.step()
    err = abs(float(p.data[0]) - (0.5 - 1e-2 * (2.0 / (2.0 + 1e-8))))
    results.append(PropertyResult("oracle/adam_first_step", err <= 1e-9, err, 1e-9))

    # pairwise distance 3-4-5
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    err = abs(d[0, 1] - 5.0)
    results.append(PropertyResult("oracle/pairwise_distance", err <= 1e-9, err, 1e-9))
    return results


def run_verification(inject_fault: str | None = None) -> list[PropertyResult]:
    """All property checks; optionally with a deliberately broken build."""
    with faults.injected(inject_fault) if inject_fault else nullcontext():
        return (_op_gradients() + _composite_gradients() + _ncc_properties()
                + _volume_oracles() + _fused_cosaliency_oracle() + _attention_invariants()
                + _sti_oracle() + _dead_parameters() + _metric_oracles() + _layer_oracles()
                + _loss_and_misc_oracles())


def main_report(results: list[PropertyResult], checks_s: float, print_fn=print) -> bool:
    """Print one line per result and a summary; ``checks_s`` is the time the
    checks took, measured by the caller."""
    ok = True
    worst_grad = 0.0
    for r in results:
        ok = ok and r.passed
        if r.name.startswith("grad/"):
            worst_grad = max(worst_grad, r.measured)
        print_fn(r.line())
    print_fn(f"max gradient-check relative error: {worst_grad:.3e}")
    print_fn(f"{sum(r.passed for r in results)}/{len(results)} properties passed "
             f"({checks_s:.2f}s checks)")
    return ok
