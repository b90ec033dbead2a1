"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The two training-based criteria (synthetic learnability, ablation
direction) dominate the runtime; everything else finishes in seconds.  The
criteria that ``cstnet verify`` measures (gradients, NCC, oracles, invariants)
read the named properties of one clean verify run, shared through the
``verify_run`` fixture.  Both training criteria carry the ``slow`` marker,
so ``pytest -m "not slow"`` runs everything else.
"""

import json
import time

import numpy as np
import pytest

from cstnet.data import SynthSpec, generate_synthetic, load_dataset, save_dataset
from cstnet.experiments import run_experiment
from cstnet.model import Cstnet, CstnetConfig
from cstnet.train import TrainConfig, fit


def report(name: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def report_properties(name: str, verify_run, properties: tuple[str, ...]):
    """One criterion from named properties of the clean ``cstnet verify`` run."""
    results, _ = verify_run
    checked = [results[p] for p in properties]
    report(name, all(r.passed for r in checked),
           "; ".join(f"{r.name} {r.measured:.2e} (tol {r.tolerance:.4g}) {r.detail}".rstrip()
                     for r in checked))


def test_gradient_integrity(verify_run):
    """Every differentiable op and composite (CSL, STI, micro model) passes
    central finite differences at <= 1e-4 relative error, within 5 minutes."""
    results, elapsed = verify_run
    grads = [r for name, r in results.items() if name.startswith("grad/")]
    worst = max(r.measured for r in grads)
    failed = [r.name for r in grads if not r.passed]
    missing = {"grad/csl_forward", "grad/sti_forward", "grad/micro_model"} - set(results)
    ok = not failed and not missing and worst <= 1e-4 and elapsed < 300
    report("gradient-integrity", ok,
           f"max relative error {worst:.3e} over {len(grads)} checks in a "
           f"{elapsed:.1f}s verify run (limit 300s); failed={failed}")


def test_ncc_properties(verify_run):
    """Symmetry exact over 300 pairs; affine invariance within 1e-3 over 1000
    descriptors; |ncc| bounded by 1.001 including constant descriptors."""
    report_properties("ncc-properties", verify_run,
                      ("ncc/symmetry_exact", "ncc/affine_invariance", "ncc/bounds"))


def test_oracle_equivalence_volumes(verify_run):
    """Spatial and channel correlation volumes match the per-entry NCC within
    1e-10 on instances with T <= 3, C <= 8, H, W <= 4."""
    report_properties("oracle-volumes", verify_run,
                      ("oracle/spatial_volume", "oracle/channel_volume"))


def test_oracle_equivalence_ranking(verify_run):
    """CMC exact and mAP within 1e-9 against brute force, exhaustively for
    Q <= 8, G <= 12 plus 100 random larger instances."""
    report_properties("oracle-ranking", verify_run, ("oracle/cmc_exact", "oracle/map"))


def test_structural_invariants(verify_run):
    """Zero-init STI identity <= 1e-12; softmax slices sum to 1 +- 1e-6;
    co-saliency gates strictly inside (0, 1); CMC monotone; no parameter of
    the micro model has an all-zero gradient after one training step."""
    report_properties("structural-invariants", verify_run,
                      ("invariant/zero_init_sti_identity", "invariant/attention_normalized",
                       "invariant/gate_in_unit_interval", "invariant/cmc_monotone",
                       "invariant/no_dead_parameters"))


@pytest.mark.slow
def test_synthetic_learnability():
    """Full small-scale model reaches rank-1 >= 0.90 within 50 epochs in the
    median of 3 seeds on the moderate-nuisance preset, within 15 minutes."""
    started = time.time()
    per_seed = run_experiment("learnability", seeds=(0, 1, 2), epochs=50)["full"]
    elapsed = time.time() - started
    median = float(np.median(list(per_seed.values())))
    ok = median >= 0.90 and elapsed < 900
    report("synthetic-learnability", ok,
           f"per-seed rank-1 {[round(v, 3) for v in per_seed.values()]}, "
           f"median {median:.3f} (need >= 0.90) in {elapsed:.0f}s (limit 900s)")


@pytest.mark.slow
def test_ablation_direction():
    """On the high-clutter preset, median-over-5-seeds rank-1 satisfies
    full >= csl >= base - 0.02, full >= sti >= base - 0.02, full >= base + 0.03."""
    result = run_experiment("ablation", seeds=(0, 1, 2, 3, 4), epochs=30)
    med = {variant: float(np.median(list(per_seed.values())))
           for variant, per_seed in result.items()}
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
            for name in ("wall_ms", "sample_ms", "forward_ms", "backward_ms", "step_ms"):
                record.pop(name)        # the timings are the only volatile fields
        artifacts.append((records, (tmp_path / f"{run}.ckpt").read_bytes(),
                          metrics.cmc.tobytes(), metrics.map))

    logs_equal = artifacts[0][0] == artifacts[1][0]
    ckpt_equal = artifacts[0][1] == artifacts[1][1]
    eval_equal = artifacts[0][2] == artifacts[1][2] and artifacts[0][3] == artifacts[1][3]
    ok = datasets_equal and logs_equal and ckpt_equal and eval_equal
    report("reproducibility", ok,
           f"datasets bit-equal={datasets_equal}, loss records equal={logs_equal} "
           f"(timings excluded), checkpoints bit-equal={ckpt_equal}, "
           f"eval tables equal={eval_equal}")
