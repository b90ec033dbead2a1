"""Video person re-identification with co-saliency attention and
spatial-temporal relation modules, on a self-contained autodiff engine.

The names below load their module on first use, so that importing a module
that needs no numpy (``cstnet.blas``) does not load numpy's BLAS.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "CoSaliencyAttention": "csl", "CoSaliencyLearning": "csl",
    "SynthSpec": "data", "VideoDataset": "data", "generate_synthetic": "data",
    "load_dataset": "data", "save_dataset": "data",
    "RankingMetrics": "metrics", "evaluate": "metrics",
    "Cstnet": "model", "CstnetConfig": "model", "pairwise_distances": "model",
    "RelationFeatures": "sti", "SpatialTemporalInteraction": "sti",
    "Tensor": "tensor", "no_grad": "tensor",
}

__all__ = [
    "CoSaliencyAttention", "CoSaliencyLearning",
    "SynthSpec", "VideoDataset", "generate_synthetic", "load_dataset", "save_dataset",
    "RankingMetrics", "evaluate",
    "Cstnet", "CstnetConfig", "pairwise_distances",
    "RelationFeatures", "SpatialTemporalInteraction",
    "Tensor", "no_grad",
]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
