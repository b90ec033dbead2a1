"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The two training-based criteria (synthetic learnability, ablation
direction) dominate the runtime; everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from cstnet.csl import CoSaliencyLearning, CslConfig, ncc
from cstnet.data import SynthSpec, generate_synthetic, load_dataset, save_dataset
from cstnet.experiments import run_ablation, run_learnability
from cstnet.metrics import compute_cmc, compute_map
from cstnet.model import Cstnet, CstnetConfig
from cstnet.sti import SpatialTemporalInteraction, StiConfig
from cstnet.tensor import Tensor, no_grad
from cstnet.train import TrainConfig, fit

from test_metrics import oracle_rank, random_instance


def report(name: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_gradient_integrity(gradcheck_run):
    """Every differentiable op and composite (CSL, STI, micro model) passes
    central finite differences at <= 1e-4 relative error, within 5 minutes."""
    results, elapsed = gradcheck_run
    worst = max(r.measured for r in results)
    failed = [r.name for r in results if not r.passed]
    composite = {"grad/csl_forward", "grad/sti_forward", "grad/micro_model"}
    missing = composite - {r.name for r in results}
    ok = not failed and not missing and worst <= 1e-4 and elapsed < 300
    report("gradient-integrity", ok,
           f"max relative error {worst:.3e} over {len(results)} checks "
           f"in {elapsed:.1f}s (limit 300s); failed={failed}")


def test_ncc_properties():
    """Symmetry exact; affine invariance within 1e-3 over 1000 descriptors;
    |ncc| bounded by 1.001 including constant descriptors."""
    rng = np.random.default_rng(202)
    sym_exact = all(
        ncc(p, q) == ncc(q, p)
        for p, q in (tuple(rng.standard_normal((2, 16))) for _ in range(300)))
    worst_affine = 0.0
    for _ in range(1000):
        p = rng.standard_normal(16)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        worst_affine = max(worst_affine, abs(ncc(p, a * p + b) - 1.0))
    worst_bound = 0.0
    for _ in range(500):
        worst_bound = max(worst_bound, abs(ncc(rng.standard_normal(12),
                                               rng.standard_normal(12))))
    worst_bound = max(worst_bound,
                      abs(ncc(np.full(12, 3.3), rng.standard_normal(12))),
                      abs(ncc(np.full(12, 3.3), np.full(12, -2.0))))
    ok = sym_exact and worst_affine <= 1e-3 and worst_bound <= 1.001
    report("ncc-properties", ok,
           f"symmetry exact={sym_exact}, affine dev {worst_affine:.2e} (tol 1e-3), "
           f"bound {worst_bound:.6f} (tol 1.001)")


def test_oracle_equivalence_volumes():
    """Spatial and channel correlation volumes match naive loop oracles within
    1e-10 on all instances with T <= 3, C <= 8, H, W <= 4."""
    from cstnet.verify import build_channel_volume, build_spatial_volume

    def naive(p, q, eps=1e-5):
        pc, qc = p - p.mean(), q - q.mean()
        return float((pc * qc).sum() / p.size / ((pc.std() + eps) * (qc.std() + eps)))

    rng = np.random.default_rng(77)
    worst = 0.0
    for t_len in (2, 3):
        for h in (2, 4):
            for w in (2, 3, 4):
                for c in (2, 8):
                    desc = rng.standard_normal((t_len, c, h, w))
                    for t in range(t_len):
                        vol = build_spatial_volume(desc, t)
                        slot = 0
                        for k in [k for k in range(t_len) if k != t]:
                            for hh in range(h):
                                for ww in range(w):
                                    for i in range(h):
                                        for j in range(w):
                                            worst = max(worst, abs(
                                                vol[slot, i, j]
                                                - naive(desc[t, :, i, j], desc[k, :, hh, ww])))
                                    slot += 1
    for t_len in (2, 3):
        for c in (3, 8):
            desc = rng.standard_normal((t_len, c, 2, 2))
            for t in range(t_len):
                vol = build_channel_volume(desc, t)
                slot = 0
                for k in [k for k in range(t_len) if k != t]:
                    for cp in range(c):
                        for cc in range(c):
                            worst = max(worst, abs(
                                vol[slot, cc, 0, 0]
                                - naive(desc[t, cc].ravel(), desc[k, cp].ravel())))
                        slot += 1
    report("oracle-volumes", worst <= 1e-10, f"max deviation {worst:.2e} (tol 1e-10)")


def test_oracle_equivalence_ranking():
    """CMC exact and mAP within 1e-9 against brute force, exhaustively for
    Q <= 8, G <= 12 plus 100 random larger instances."""
    r = np.random.default_rng(31)
    worst_map = 0.0
    cmc_exact = True
    count = 0
    for q in range(1, 9):
        for g in range(2, 13):
            dist, qid, gid, qcam, gcam = random_instance(r, q, g)
            got_cmc = compute_cmc(dist, qid, gid, qcam, gcam, g)
            got_map = compute_map(dist, qid, gid, qcam, gcam)
            ref_cmc, ref_map = oracle_rank(dist, qid, gid, qcam, gcam, g)
            cmc_exact = cmc_exact and np.array_equal(got_cmc, ref_cmc)
            worst_map = max(worst_map, abs(got_map - ref_map))
            count += 1
    for _ in range(100):
        q, g = int(r.integers(4, 16)), int(r.integers(8, 40))
        dist, qid, gid, qcam, gcam = random_instance(r, q, g)
        got_cmc = compute_cmc(dist, qid, gid, qcam, gcam, g)
        got_map = compute_map(dist, qid, gid, qcam, gcam)
        ref_cmc, ref_map = oracle_rank(dist, qid, gid, qcam, gcam, g)
        cmc_exact = cmc_exact and np.array_equal(got_cmc, ref_cmc)
        worst_map = max(worst_map, abs(got_map - ref_map))
        count += 1
    ok = cmc_exact and worst_map <= 1e-9
    report("oracle-ranking", ok,
           f"CMC exact={cmc_exact}, mAP max dev {worst_map:.2e} over {count} instances")


def test_structural_invariants():
    """Zero-init STI identity <= 1e-12; softmax slices sum to 1 +- 1e-6;
    co-saliency gates strictly inside (0, 1); CMC monotone."""
    rng = np.random.default_rng(9)
    sti = SpatialTemporalInteraction(StiConfig(c_in=8, c_1=4, h_1=2, w_1=2),
                                     rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 3, 8, 4, 4))
    with no_grad():
        out = sti(Tensor(x))
        rel = sti.relations(Tensor(x))
    identity_dev = float(np.abs(out.data - x).max())

    norm_dev = max(float(np.abs(rel.m_s.data.sum(axis=2) - 1.0).max()),
                   float(np.abs(rel.m_t.data.sum(axis=2) - 1.0).max()))

    csl = CoSaliencyLearning(CslConfig(c_in=8, c_l=4, h_l=2, w_l=2), clip_len=3,
                             feat_h=4, feat_w=4, rng=rng, dtype=np.float64)
    with no_grad():
        att = csl.attention(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
    gate_ok = float(att.z.data.min()) > 0.0 and float(att.z.data.max()) < 1.0

    r = np.random.default_rng(4)
    monotone = True
    for _ in range(200):
        dist, qid, gid, qcam, gcam = random_instance(r, int(r.integers(1, 7)),
                                                     int(r.integers(2, 12)))
        cmc = compute_cmc(dist, qid, gid, qcam, gcam, dist.shape[1])
        monotone = monotone and bool((np.diff(cmc) >= 0).all())

    ok = identity_dev <= 1e-12 and norm_dev <= 1e-6 and gate_ok and monotone
    report("structural-invariants", ok,
           f"sti identity dev {identity_dev:.2e} (tol 1e-12), softmax dev "
           f"{norm_dev:.2e} (tol 1e-6), gates in (0,1)={gate_ok}, cmc monotone={monotone}")


def test_synthetic_learnability():
    """Full small-scale model reaches rank-1 >= 0.90 within 50 epochs in the
    median of 3 seeds on the moderate-nuisance preset, within 15 minutes."""
    started = time.time()
    result = run_learnability(seeds=(0, 1, 2), epochs=50)
    elapsed = time.time() - started
    ok = result.median >= 0.90 and elapsed < 900
    report("synthetic-learnability", ok,
           f"per-seed rank-1 {[round(v, 3) for v in result.per_seed.values()]}, "
           f"median {result.median:.3f} (need >= 0.90) in {elapsed:.0f}s (limit 900s)")


def test_ablation_direction():
    """On the high-clutter preset, median-over-5-seeds rank-1 satisfies
    full >= csl >= base - 0.02, full >= sti >= base - 0.02, full >= base + 0.03."""
    result = run_ablation(seeds=(0, 1, 2, 3, 4))
    med = result.summary()
    ok = (med["full"] >= med["csl"] >= med["base"] - 0.02
          and med["full"] >= med["sti"] >= med["base"] - 0.02
          and med["full"] >= med["base"] + 0.03)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in med.items())
    report("ablation-direction", ok,
           f"medians {detail} (need full >= csl,sti >= base-0.02 and full >= base+0.03)")


def test_reproducibility(tmp_path):
    """Identical seeds and config give bit-identical datasets, loss records,
    checkpoints, and evaluation tables across two runs."""
    from cstnet.checkpoint import save_model
    from cstnet.metrics import evaluate

    spec = SynthSpec(num_identities=8, cams=2, seqs_per_cam=2, seq_len_min=4,
                     seq_len_max=6, frame_h=16, frame_w=8, clutter=0.4, seed=3)
    datasets_equal = True
    for sub in ("d1", "d2"):
        save_dataset(generate_synthetic(spec), tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "d1").iterdir())
    for name in names:
        datasets_equal = datasets_equal and (
            (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes())

    dataset = load_dataset(tmp_path / "d1")
    artifacts = []
    for run in ("r1", "r2"):
        model = Cstnet(CstnetConfig(num_identities=8, clip_len=2, frame_h=16, frame_w=8,
                                    stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                                    csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                                    sti_channels=4, sti_pool_h=2, sti_pool_w=1, seed=11))
        fit(model, dataset, TrainConfig(epochs=2, p=4, k=2, seed=5),
            log_path=tmp_path / f"{run}.jsonl")
        save_model(tmp_path / f"{run}.ckpt", model)
        metrics = evaluate(model, dataset, clip_len=2, max_rank=5)
        records = [json.loads(line)
                   for line in (tmp_path / f"{run}.jsonl").read_text().splitlines()]
        for record in records:
            record.pop("wall_ms")       # wall time is the one volatile field
        artifacts.append((records, (tmp_path / f"{run}.ckpt").read_bytes(),
                          metrics.cmc.tobytes(), metrics.map))

    logs_equal = artifacts[0][0] == artifacts[1][0]
    ckpt_equal = artifacts[0][1] == artifacts[1][1]
    eval_equal = artifacts[0][2] == artifacts[1][2] and artifacts[0][3] == artifacts[1][3]
    ok = datasets_equal and logs_equal and ckpt_equal and eval_equal
    report("reproducibility", ok,
           f"datasets bit-equal={datasets_equal}, loss records equal={logs_equal} "
           f"(wall_ms excluded), checkpoints bit-equal={ckpt_equal}, "
           f"eval tables equal={eval_equal}")
