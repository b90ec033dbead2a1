"""Training loop: PK batches, augmentation, combined loss, Adam, batch logs.

Every batch emits one structured record (epoch, step, triplet loss, id loss,
learning rate, gradient norm, wall time and the time of each phase: sampling,
forward, backward, optimizer step).  The five timings are the only volatile
fields; all other fields are bit-reproducible for a fixed seed and config.
Each step runs in its own call (``train_step``), so its autograd graph is
freed before the next step's forward and the training peak holds one graph,
not two.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import VideoDataset, train_pixel_mean
from .errors import ConfigError, NumericError
from .losses import batch_hard_triplet, label_smooth_ce
from .optim import Adam, AdamConfig, lr_at_epoch
from .sampler import PkBatch, augment_clips, epoch_identities, pk_sample
from .tensor import add


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    p: int = 8
    k: int = 2
    margin: float = 0.3
    label_smoothing: float = 0.1
    flip_p: float = 0.5
    erase_p: float = 0.3
    adam: AdamConfig = AdamConfig()
    seed: int = 0
    steps_per_epoch: int = 0        # 0 -> train-sequence count // (P*K), min 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.steps_per_epoch < 0:
            raise ConfigError(f"steps_per_epoch must be >= 0, got {self.steps_per_epoch}")
        if self.margin < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if not 0 <= self.label_smoothing < 1:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if not 0 <= self.flip_p <= 1:
            raise ConfigError(f"flip_p must be in [0, 1], got {self.flip_p}")
        if not 0 <= self.erase_p <= 1:
            raise ConfigError(f"erase_p must be in [0, 1], got {self.erase_p}")


@dataclass
class BatchRecord:
    epoch: int
    step: int
    loss_triplet: float
    loss_id: float
    lr: float
    grad_norm: float
    wall_ms: float          # the whole step; the four phases below lie inside it
    sample_ms: float        # pk_sample and augmentation
    forward_ms: float       # forward, both losses and the finite check
    backward_ms: float      # zero_grad and backward
    step_ms: float          # Adam and the gradient norm

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class EpochReport:
    epoch: int
    records: list[BatchRecord] = field(default_factory=list)

    @property
    def mean_loss(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.loss_triplet + r.loss_id for r in self.records]))


def _global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def _describe(batch: PkBatch) -> str:
    srcs = [f"(id={c.identity}, seq={c.sequence_index}, frames={list(c.frame_indices)})"
            for c in batch.provenance[:4]]
    more = "" if len(batch.provenance) <= 4 else f" ... +{len(batch.provenance) - 4} clips"
    return ", ".join(srcs) + more


def train_step(model, dataset: VideoDataset, optimizer: Adam, cfg: TrainConfig,
               epoch: int, step: int, identities, rng: np.random.Generator,
               fill_mean: np.ndarray) -> BatchRecord:
    """One optimizer step on a PK batch of ``identities``; returns its record.

    Sample, augment, forward, both losses, the finite check, backward, Adam
    and the gradient norm, each phase timed.  Every tensor of the step's
    autograd graph is local to this call, so the graph is freed when it
    returns, before the next step's forward: training holds one graph at a
    time.
    """
    started = time.perf_counter()
    lr = lr_at_epoch(cfg.adam, epoch)
    stamps = [time.perf_counter()]
    batch = pk_sample(dataset, cfg.p, cfg.k, model.cfg.clip_len, rng, identities=identities)
    clips = augment_clips(batch.clips, rng, fill_mean, flip_p=cfg.flip_p, erase_p=cfg.erase_p)
    stamps.append(time.perf_counter())
    features, logits = model(clips)
    loss_t = batch_hard_triplet(features, batch.labels, cfg.margin)
    loss_i = label_smooth_ce(logits, batch.labels, cfg.label_smoothing)
    loss = add(loss_t, loss_i)
    if not np.isfinite(loss.data).all():
        raise NumericError(f"non-finite loss at epoch {epoch} step {step}; "
                           f"batch: {_describe(batch)}")
    stamps.append(time.perf_counter())
    optimizer.zero_grad()
    loss.backward()
    stamps.append(time.perf_counter())
    optimizer.step(lr=lr)
    grad_norm = _global_grad_norm(optimizer.params.values())
    stamps.append(time.perf_counter())
    sample_ms, forward_ms, backward_ms, step_ms = (
        (end - start) * 1000.0 for start, end in zip(stamps, stamps[1:]))
    return BatchRecord(
        epoch=epoch, step=step,
        loss_triplet=float(loss_t.data), loss_id=float(loss_i.data),
        lr=lr, grad_norm=grad_norm, wall_ms=(stamps[-1] - started) * 1000.0,
        sample_ms=sample_ms, forward_ms=forward_ms, backward_ms=backward_ms, step_ms=step_ms,
    )


def train_epoch(model, dataset: VideoDataset, optimizer: Adam, cfg: TrainConfig,
                epoch: int, rng: np.random.Generator,
                fill_mean: np.ndarray | None = None, log_fn=None) -> EpochReport:
    """One epoch of PK-sampled batches (``train_step`` each); returns per-batch records."""
    model.train()
    if fill_mean is None:
        fill_mean = train_pixel_mean(dataset)
    n_train = len(dataset.of_split("train"))
    steps = cfg.steps_per_epoch or max(1, n_train // (cfg.p * cfg.k))
    report = EpochReport(epoch=epoch)
    schedule = epoch_identities(dataset, cfg.p, steps, rng)
    for step in range(steps):
        record = train_step(model, dataset, optimizer, cfg, epoch, step, schedule[step],
                            rng, fill_mean)
        report.records.append(record)
        if log_fn is not None:
            log_fn(record)
    return report


def fit(model, dataset: VideoDataset, cfg: TrainConfig, log_path=None,
        checkpoint_fn=None, checkpoint_every: int = 0) -> list[EpochReport]:
    """Run the full schedule; optionally stream logs and periodic checkpoints."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    optimizer = Adam(dict(model.named_parameters()), cfg.adam)
    fill_mean = train_pixel_mean(dataset)
    reports = []
    log_file = open(log_path, "w") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            log_fn = None
            if log_file is not None:
                log_fn = lambda rec: (log_file.write(rec.to_json() + "\n"), log_file.flush())
            reports.append(train_epoch(model, dataset, optimizer, cfg, epoch, rng,
                                       fill_mean=fill_mean, log_fn=log_fn))
            if checkpoint_fn and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
                checkpoint_fn(epoch)
    finally:
        if log_file is not None:
            log_file.close()
    return reports
