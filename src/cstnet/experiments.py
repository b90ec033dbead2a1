"""Runnable experiments on shipped seeded presets, used by
``scripts/run_experiment.py`` and the acceptance tests.

``EXPERIMENTS`` names each one: its dataset, the ablation variants it trains,
its seeds and its epochs.  ``learnability`` trains the full model on the
moderate-nuisance preset; ``ablation`` trains base, +csl, +sti and full on the
high-clutter preset.  ``run_experiment`` trains every variant on every seed
and returns the rank-1 of each.
"""

from __future__ import annotations

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

# name -> (dataset, variants, seeds, epochs)
EXPERIMENTS = {
    "learnability": (LEARNABILITY_DATA, ("full",), (0, 1, 2), 50),
    "ablation": (ABLATION_DATA, tuple(ABLATIONS), (0, 1, 2, 3, 4), 30),
}


def variant_flags(variant: str) -> dict:
    if variant not in ABLATIONS:
        raise ConfigError(f"unknown ablation variant {variant!r}; expected one of "
                          f"{tuple(ABLATIONS)}")
    return dict(ABLATIONS[variant])


def train_and_rank1(dataset, *, variant: str = "full", seed: int = 0, epochs: int = 50) -> float:
    num_ids = len({s.identity for s in dataset.of_split("train")})
    model = Cstnet(CstnetConfig(num_identities=num_ids, seed=seed, **variant_flags(variant)))
    fit(model, dataset, desk_train_config(epochs=epochs, seed=seed))
    return float(evaluate(model, dataset, clip_len=model.cfg.clip_len, max_rank=5).cmc[0])


def run_experiment(name: str, seeds=None, epochs: int | None = None,
                   progress=None) -> dict[str, dict[int, float]]:
    """{variant: {seed: rank-1}} of experiment ``name``; ``seeds`` and
    ``epochs`` default to the experiment's own."""
    spec, variants, default_seeds, default_epochs = EXPERIMENTS[name]
    seeds = default_seeds if seeds is None else seeds
    epochs = default_epochs if epochs is None else epochs
    dataset = generate_synthetic(spec)
    result = {}
    for variant in variants:
        result[variant] = {}
        for seed in seeds:
            r1 = train_and_rank1(dataset, variant=variant, seed=seed, epochs=epochs)
            result[variant][seed] = r1
            if progress:
                progress(f"{name} {variant} seed {seed}: rank-1 = {r1:.3f}")
    return result
