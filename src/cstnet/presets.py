"""Seeded presets used by the shipped experiments and their config files.

The two datasets differ in nuisance strength: ``LEARNABILITY_DATA`` carries
moderate clutter/illumination/occlusion, ``ABLATION_DATA`` heavy clutter and
strong illumination jitter (the regime the correlation gating is meant to
survive).  ``configs/`` mirrors these values for the command line; a test
keeps file and code in sync.
"""

from .data import SynthSpec
from .optim import AdamConfig
from .train import TrainConfig

LEARNABILITY_DATA = SynthSpec(
    num_identities=16, cams=2, seqs_per_cam=3,
    seq_len_min=10, seq_len_max=16, frame_h=32, frame_w=16,
    clutter=0.35, clutter_patches=6,
    illum_scale=(0.7, 1.3), illum_shift=(-0.1, 0.1),
    occlusion_p=0.15, seed=0,
)

ABLATION_DATA = SynthSpec(
    num_identities=16, cams=2, seqs_per_cam=3,
    seq_len_min=10, seq_len_max=16, frame_h=32, frame_w=16,
    clutter=1.0, clutter_patches=6,
    illum_scale=(0.5, 1.6), illum_shift=(-0.3, 0.3),
    occlusion_p=0.1, seed=100,
)

DESK_LR = 1e-3          # small-model rate; the full-scale schedule uses 3e-4


def desk_train_config(epochs: int, seed: int = 0) -> TrainConfig:
    return TrainConfig(epochs=epochs, p=8, k=2, seed=seed, adam=AdamConfig(lr=DESK_LR))
