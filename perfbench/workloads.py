"""The benchmark's workloads.

Each workload drives cstnet only through its public functions and offers:

* ``setup()``: one set-up (inputs generated, models built, files written);
  returns the time of each part in ms.  The runner calls it several times.
* ``round()``: one round of closed-loop operations; returns the duration of
  each operation in seconds and the clips they processed.
* ``checks()``: after the timed window, a list of (name, passed, detail).
* ``close()``: undo its own patches and remove the files it wrote.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

import numpy as np

import oracles
from tracing import Patches

clock = time.perf_counter

P, K, T = 8, 2, 4                 # PK batch and clip length of the ablation cell
LOSS_TOL = 1e-4                   # program (float32) vs float64 recomputation
FD_STEPS = (1e-6, 1e-8)           # parameter steps of the directional check (float64)
FD_TOL = 1e-2                     # relative error allowed, a float32 tolerance
EMBED_TOL = 1e-5                  # batch-size independence, relative to the largest entry
LOSS_DROP = 0.95                  # last epoch's mean loss must be below this share of the first's
MIN_EPOCHS = 16                   # epochs trained before the loss check, timed or not


def _ms(start: float, end: float) -> float:
    return (end - start) * 1e3


class TrainWorkload:
    """Steps of the train.fit loop on one cell of the ablation experiment.

    A round is one epoch (``train.train_epoch``) with the optimizer, rng and
    fill mean that ``train.fit`` builds; an operation is one training step.
    """

    setup_repeats = 5
    warmup_rounds = 2

    def __init__(self, variant: str, seed: int, workdir):
        from cstnet import data, experiments, model, optim, presets, train
        self.data, self.model, self.optim, self.train = data, model, optim, train
        self.spec = dataclasses.replace(presets.ABLATION_DATA, seed=seed)
        self.flags = experiments.variant_flags(variant)
        self.cfg = presets.desk_train_config(epochs=30, seed=seed)
        self.seed = seed
        self.epoch_losses: list[list[float]] = []
        self.batches = self.bad_batches = 0
        self.patches = Patches()
        sample = vars(train)["pk_sample"]

        def checked_pk_sample(*args, **kwargs):
            batch = sample(*args, **kwargs)
            self.batches += 1
            if batch.clips.shape[:2] != (P * K, T) or not oracles.is_pk_batch(batch.labels, P, K):
                self.bad_batches += 1
            return batch

        self.patches.set(train, "pk_sample", checked_pk_sample)

    def setup(self) -> dict:
        self.dataset = self.net = self.optimizer = None
        t0 = clock()
        dataset = self.data.generate_synthetic(self.spec)
        t1 = clock()
        num_ids = len({s.identity for s in dataset.of_split("train")})
        net = self.model.Cstnet(self.model.CstnetConfig(
            num_identities=num_ids, clip_len=T, seed=self.seed, **self.flags))
        # the prologue of train.fit
        self.rng = np.random.default_rng(np.random.PCG64(self.cfg.seed))
        self.optimizer = self.optim.Adam(dict(net.named_parameters()), self.cfg.adam)
        self.fill_mean = self.data.train_pixel_mean(dataset)
        t2 = clock()
        self.dataset, self.net, self.epoch = dataset, net, 0
        self.ops_per_round = max(1, len(dataset.of_split("train")) // (P * K))
        return {"data.generate_ms": _ms(t0, t1), "model.build_ms": _ms(t1, t2)}

    def round(self):
        stamps = []
        start = clock()
        report = self.train.train_epoch(self.net, self.dataset, self.optimizer, self.cfg,
                                        self.epoch, self.rng, fill_mean=self.fill_mean,
                                        log_fn=lambda record: stamps.append(clock()))
        self.epoch += 1
        self.epoch_losses.append([r.loss_triplet + r.loss_id for r in report.records])
        return list(np.diff([start] + stamps)), P * K * len(stamps)

    def checks(self) -> list:
        captured = {}
        patches = Patches()

        def capture(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                captured[name] = (args, out)
                return out
            return wrapper

        while self.epoch < MIN_EPOCHS - 1:      # a slow run still trains long enough
            self.round()
        for name in ("augment_clips", "batch_hard_triplet", "label_smooth_ce"):
            patches.set(self.train, name, capture(name, vars(self.train)[name]))
        try:
            self.round()
        finally:
            patches.restore()

        (features, labels, margin), loss_t = captured["batch_hard_triplet"]
        (logits, _, smoothing), loss_i = captured["label_smooth_ce"]
        err = max(abs(float(loss_t.data) - oracles.batch_hard_triplet(features.data, labels, margin)),
                  abs(float(loss_i.data) - oracles.label_smoothed_ce(logits.data, labels, smoothing)))
        losses = np.array([loss for epoch in self.epoch_losses for loss in epoch])
        first, last = np.mean(self.epoch_losses[0]), np.mean(self.epoch_losses[-1])
        clips = captured["augment_clips"][1]
        fd_err = self._directional_check(clips, labels)
        return [
            ("every_loss_finite", bool(np.isfinite(losses).all()), f"{losses.size} steps"),
            ("losses_match_float64", err <= LOSS_TOL, f"max abs error {err:.2e} (tol {LOSS_TOL:g})"),
            ("loss_decreases", last < LOSS_DROP * first,
             f"epoch 1 mean {first:.4f}, epoch {len(self.epoch_losses)} mean {last:.4f}"),
            ("pk_batches", self.batches > 0 and self.bad_batches == 0,
             f"{self.batches - self.bad_batches}/{self.batches} batches hold {P} ids x {K} clips"),
            ("backward_directional_fd", fd_err <= FD_TOL,
             f"relative error {fd_err:.2e} (tol {FD_TOL:g}, best of steps {FD_STEPS})"),
        ]

    def _directional_check(self, clips, labels) -> float:
        """Compare one backward pass with a central difference along one direction.

        The check runs on a float64 copy of the trained model and the final
        batch.  The float32 loss has kinks closer together than any float32
        step can resolve (a ReLU feeding a near-constant CSL descriptor has a
        slope of about 1/ncc_eps), while float64 resolves them at a step of
        1e-8.  As in cstnet.gradcheck, the smaller step is a retry: the error
        of a difference taken across a kink shrinks with the step, that of a
        wrong backward rule does not.  The direction mixes the gradient and a
        seeded random vector.
        """
        from cstnet.losses import batch_hard_triplet, label_smooth_ce
        from cstnet.tensor import add, no_grad
        net = self.model.Cstnet(dataclasses.replace(self.net.cfg, dtype="f64"))
        net.load_state(self.net.named_state())
        clips, cfg = clips.astype(np.float64), self.cfg
        params = net.parameters()

        def loss():
            features, logits = net(clips)
            return add(batch_hard_triplet(features, labels, cfg.margin),
                       label_smooth_ce(logits, labels, cfg.label_smoothing))

        loss().backward()
        grads = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
        rng = np.random.default_rng(self.seed)
        noise = [rng.standard_normal(p.shape) for p in params]

        def unit(arrays):
            norm = np.sqrt(sum(float((a * a).sum()) for a in arrays))
            return [a / norm for a in arrays]

        direction = unit([g + r for g, r in zip(unit(grads), unit(noise))])
        predicted = sum(float((g * d).sum()) for g, d in zip(grads, direction))
        base = [p.data for p in params]

        def error(step):
            values = []
            for sign in (1.0, -1.0):
                for p, b, d in zip(params, base, direction):
                    p.data = b + sign * step * d
                with no_grad():
                    values.append(float(loss().data))
            return abs((values[0] - values[1]) / (2 * step) - predicted) / abs(predicted)

        return min(error(step) for step in FD_STEPS)

    def close(self):
        self.patches.restore()


class EvalWorkload:
    """The `cstnet eval` path: load the checkpoint and the dataset, embed and rank.

    The set has many identities and four cameras (one query and three gallery
    sequences per identity).  Its files are written in set-up and read by
    every operation.
    """

    setup_repeats = 5
    warmup_rounds = 1
    ops_per_round = 1
    IDENTITIES, CAMERAS = 48, 4

    def __init__(self, seed: int, workdir):
        from cstnet import checkpoint, data, metrics, model, presets
        self.checkpoint, self.data, self.metrics, self.model = checkpoint, data, metrics, model
        self.spec = dataclasses.replace(presets.ABLATION_DATA, num_identities=self.IDENTITIES,
                                        cams=self.CAMERAS, seqs_per_cam=1, seed=seed)
        self.seed = seed
        self.workdir = workdir
        self.dataset_dir = workdir / "dataset"
        self.ckpt = workdir / "model.ckpt"
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> dict:
        t0 = clock()
        dataset = self.data.generate_synthetic(self.spec)
        t1 = clock()
        net = self.model.Cstnet(self.model.CstnetConfig(
            num_identities=dataset.num_identities, clip_len=T, seed=self.seed))
        t2 = clock()
        self.data.save_dataset(dataset, self.dataset_dir)
        t3 = clock()
        self.checkpoint.save_model(self.ckpt, net)
        t4 = clock()
        self.net = net
        self.queries = len(dataset.of_split("query"))
        self.gallery = len(dataset.of_split("gallery"))
        self.cameras = len({s.camera for s in dataset.sequences})
        return {"data.generate_ms": _ms(t0, t1), "model.build_ms": _ms(t1, t2),
                "io.save_dataset_ms": _ms(t2, t3), "io.save_model_ms": _ms(t3, t4)}

    def round(self):
        start = clock()
        net = self.checkpoint.load_model(self.ckpt)
        dataset = self.data.load_dataset(self.dataset_dir)
        self.metrics.evaluate(net, dataset, clip_len=net.cfg.clip_len)
        return [clock() - start], self.queries + self.gallery

    def checks(self) -> list:
        captured = {}
        rank = vars(self.metrics)["ranking_metrics"]

        def capture(*args, **kwargs):
            captured["args"] = args
            captured["result"] = rank(*args, **kwargs)
            return captured["result"]

        patches = Patches()
        patches.set(self.metrics, "ranking_metrics", capture)
        try:
            self.round()
        finally:
            patches.restore()
        dist, qid, gid, qcam, gcam = captured["args"]
        got = captured["result"]
        cmc, mean_ap, excluded = oracles.ranking_brute_force(dist, qid, gid, qcam, gcam,
                                                             len(got.cmc))
        map_err = abs(got.map - mean_ap)

        net = self.checkpoint.load_model(self.ckpt)
        dataset = self.data.load_dataset(self.dataset_dir)
        seqs = (dataset.of_split("query") + dataset.of_split("gallery"))[:40]
        clips = np.stack([s.frames[self.metrics.evenly_spaced_indices(len(s.frames), T)]
                          for s in seqs])
        whole = net.embed_clips(clips)
        small = net.embed_clips(clips, batch_size=5)
        embed_err = float(np.abs(whole - small).max() / max(1.0, np.abs(whole).max()))

        original, loaded = self.net.named_state(), net.named_state()
        same_state = original.keys() == loaded.keys() and all(
            original[n].dtype == loaded[n].dtype and original[n].shape == loaded[n].shape
            and original[n].tobytes() == loaded[n].tobytes() for n in original)
        resaved = self.workdir / "resaved.ckpt"
        self.checkpoint.save_model(resaved, net)
        same_bytes = resaved.read_bytes() == self.ckpt.read_bytes()
        return [
            ("gallery_outnumbers_queries", self.gallery > self.queries and self.cameras > 2,
             f"{self.queries} queries, {self.gallery} gallery, {self.cameras} cameras"),
            ("cmc_equals_brute_force", bool(np.array_equal(got.cmc, cmc))
             and got.excluded_queries == excluded, f"rank-1 {got.cmc[0]:.4f}"),
            ("map_matches_brute_force", map_err <= 1e-12, f"abs error {map_err:.1e}, mAP {got.map:.4f}"),
            ("embeddings_batch_independent", embed_err <= EMBED_TOL,
             f"relative error {embed_err:.1e} between batches of 32 and 5 (tol {EMBED_TOL:g})"),
            ("checkpoint_round_trip_bit_exact", same_state and same_bytes,
             f"{len(original)} tensors, resaved bytes {'equal' if same_bytes else 'differ'}"),
        ]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# name -> constructor(seed, workdir)
WORKLOADS = {
    "train-full": lambda seed, workdir: TrainWorkload("full", seed, workdir),
    "train-base": lambda seed, workdir: TrainWorkload("base", seed, workdir),
    "eval-gallery": EvalWorkload,
}
