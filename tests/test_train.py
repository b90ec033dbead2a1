"""Training loop: determinism, frozen-optimizer no-ops, abort diagnostics,
the one-graph memory bound, and the empirical loss-decrease check on a micro
setup."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from cstnet.data import SynthSpec, generate_synthetic
from cstnet.errors import NumericError
from cstnet.model import Cstnet, CstnetConfig
from cstnet.optim import Adam, AdamConfig
from cstnet.train import TrainConfig, fit, train_epoch


def micro_dataset(seed=0):
    return generate_synthetic(SynthSpec(num_identities=16, cams=2, seqs_per_cam=2,
                                        seq_len_min=4, seq_len_max=6,
                                        frame_h=16, frame_w=8, clutter=0.3, seed=seed))


def micro_model(seed=0, ids=16):
    return Cstnet(CstnetConfig(num_identities=ids, clip_len=2, frame_h=16, frame_w=8,
                               stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                               csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                               sti_channels=4, sti_pool_h=2, sti_pool_w=1, seed=seed))


def micro_train_config(epochs, seed=0, lr=1e-3):
    return TrainConfig(epochs=epochs, p=4, k=2, seed=seed, adam=AdamConfig(lr=lr))


def named_param_snapshot(model):
    return {name: p.data.copy() for name, p in model.named_parameters()}


def test_zero_lr_leaves_parameters_unchanged():
    ds = micro_dataset()
    model = micro_model()
    before = named_param_snapshot(model)
    fit(model, ds, micro_train_config(epochs=2, lr=0.0))
    after = named_param_snapshot(model)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_identical_seed_identical_reports_and_parameters():
    results = []
    for _ in range(2):
        ds = micro_dataset()
        model = micro_model(seed=4)
        reports = fit(model, ds, micro_train_config(epochs=2, seed=7))
        records = [(r.epoch, r.step, r.loss_triplet, r.loss_id, r.lr, r.grad_norm)
                   for rep in reports for r in rep.records]
        results.append((records, named_param_snapshot(model)))
    assert results[0][0] == results[1][0]         # bit-identical loss records
    for name in results[0][1]:
        assert np.array_equal(results[0][1][name], results[1][1][name])


def test_log_file_records_every_batch(tmp_path):
    ds = micro_dataset()
    model = micro_model()
    reports = fit(model, ds, micro_train_config(epochs=2), log_path=tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == sum(len(r.records) for r in reports)
    phases = ("sample_ms", "forward_ms", "backward_ms", "step_ms")
    for rec in records:
        assert set(rec) == {"epoch", "step", "loss_triplet", "loss_id", "lr",
                            "grad_norm", "wall_ms", *phases}
        assert np.isfinite(rec["loss_triplet"]) and np.isfinite(rec["loss_id"])
        assert all(rec[name] >= 0 for name in phases)
        assert sum(rec[name] for name in phases) <= rec["wall_ms"]


def test_nan_loss_aborts_with_provenance():
    ds = micro_dataset()

    class BrokenModel:
        cfg = type("C", (), {"clip_len": 2})()
        training = True

        def train(self, mode=True):
            return self

        def __call__(self, clips):
            from cstnet.tensor import Tensor
            n = len(clips)
            feats = Tensor(np.full((n, 4), np.nan))
            logits = Tensor(np.zeros((n, 16)))
            return feats, logits

        def named_parameters(self):
            return iter(())

    model = BrokenModel()
    optimizer = Adam({}, AdamConfig())
    with pytest.raises(NumericError, match=r"epoch 0 step 0.*id="):
        train_epoch(model, ds, optimizer, micro_train_config(epochs=1), epoch=0,
                    rng=np.random.default_rng(0))


def test_checkpoint_cadence(tmp_path):
    ds = micro_dataset()
    model = micro_model()
    saved = []
    fit(model, ds, micro_train_config(epochs=4),
        checkpoint_fn=lambda epoch: saved.append(epoch), checkpoint_every=2)
    assert saved == [1, 3]


def _epoch_peak_bytes(steps: int) -> int:
    """tracemalloc peak of one micro epoch of ``steps`` steps from a fresh model."""
    ds = micro_dataset()
    model = micro_model()
    cfg = dataclasses.replace(micro_train_config(epochs=1), steps_per_epoch=steps)
    optimizer = Adam(dict(model.named_parameters()), cfg.adam)
    tracemalloc.start()
    try:
        train_epoch(model, ds, optimizer, cfg, epoch=0, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_epoch_peak_holds_one_graph():
    # a step's graph must be freed before the next forward: with two graphs
    # alive the 3-step peak is about 1.7x the 1-step peak
    one, three = _epoch_peak_bytes(1), _epoch_peak_bytes(3)
    assert three <= 1.15 * one, f"3-step peak {three / 1024:.0f} KB, 1-step {one / 1024:.0f} KB"


def test_loss_decreases_over_ten_epochs_in_most_seeds():
    # empirical training check: epoch-10 mean loss below epoch-1 in >= 4/5 seeds
    wins = 0
    for seed in range(5):
        ds = micro_dataset(seed=seed)
        model = micro_model(seed=seed)
        reports = fit(model, ds, micro_train_config(epochs=10, seed=seed))
        if reports[9].mean_loss < reports[0].mean_loss:
            wins += 1
    assert wins >= 4, f"loss decreased in only {wins}/5 seeds"
