"""Runnable experiments: learnability of the full model and the module
ablation, both on shipped seeded presets.  Used by scripts/ and the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import generate_synthetic
from .errors import ConfigError
from .metrics import evaluate
from .model import Cstnet, CstnetConfig
from .presets import ABLATION_DATA, LEARNABILITY_DATA, desk_train_config
from .train import fit

# variant -> which insertion modules the model builds
ABLATIONS = {
    "base": {"with_csl": False, "with_sti": False},
    "csl": {"with_csl": True, "with_sti": False},
    "sti": {"with_csl": False, "with_sti": True},
    "full": {"with_csl": True, "with_sti": True},
}
ABLATION_VARIANTS = tuple(ABLATIONS)


def variant_flags(variant: str) -> dict:
    if variant not in ABLATIONS:
        raise ConfigError(f"unknown ablation variant {variant!r}; expected one of "
                         f"{ABLATION_VARIANTS}")
    return dict(ABLATIONS[variant])


@dataclass
class LearnabilityResult:
    per_seed: dict = field(default_factory=dict)     # seed -> rank-1

    @property
    def median(self) -> float:
        return float(np.median(list(self.per_seed.values())))


def train_and_rank1(dataset, *, variant: str = "full", seed: int = 0,
                    epochs: int = 50, clip_len: int = 4) -> float:
    num_ids = len({s.identity for s in dataset.of_split("train")})
    cfg = CstnetConfig(num_identities=num_ids, clip_len=clip_len, seed=seed,
                       **variant_flags(variant))
    model = Cstnet(cfg)
    fit(model, dataset, desk_train_config(epochs=epochs, seed=seed))
    return float(evaluate(model, dataset, clip_len=clip_len, max_rank=5).cmc[0])


def run_learnability(seeds=(0, 1, 2), epochs: int = 50, progress=None) -> LearnabilityResult:
    dataset = generate_synthetic(LEARNABILITY_DATA)
    result = LearnabilityResult()
    for seed in seeds:
        result.per_seed[seed] = train_and_rank1(dataset, seed=seed, epochs=epochs)
        if progress:
            progress(f"learnability seed {seed}: rank-1 = {result.per_seed[seed]:.3f}")
    return result


@dataclass
class AblationResult:
    per_variant: dict = field(default_factory=dict)   # variant -> {seed: rank-1}

    def median(self, variant: str) -> float:
        return float(np.median(list(self.per_variant[variant].values())))

    def summary(self) -> dict:
        return {v: self.median(v) for v in self.per_variant}


def run_ablation(seeds=(0, 1, 2, 3, 4), epochs: int = 30, progress=None) -> AblationResult:
    dataset = generate_synthetic(ABLATION_DATA)
    result = AblationResult()
    for variant in ABLATION_VARIANTS:
        result.per_variant[variant] = {}
        for seed in seeds:
            r1 = train_and_rank1(dataset, variant=variant, seed=seed, epochs=epochs)
            result.per_variant[variant][seed] = r1
            if progress:
                progress(f"ablation {variant} seed {seed}: rank-1 = {r1:.3f}")
    return result
