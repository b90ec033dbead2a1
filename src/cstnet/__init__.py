"""Video person re-identification with co-saliency attention and
spatial-temporal relation modules, on a self-contained autodiff engine."""

from .csl import CoSaliencyAttention, CoSaliencyLearning
from .data import SynthSpec, VideoDataset, generate_synthetic, load_dataset, save_dataset
from .metrics import RankingMetrics, evaluate
from .model import Cstnet, CstnetConfig, pairwise_distances
from .sti import RelationFeatures, SpatialTemporalInteraction
from .tensor import Tensor, no_grad

__all__ = [
    "CoSaliencyAttention", "CoSaliencyLearning",
    "SynthSpec", "VideoDataset", "generate_synthetic", "load_dataset", "save_dataset",
    "RankingMetrics", "evaluate",
    "Cstnet", "CstnetConfig", "pairwise_distances",
    "RelationFeatures", "SpatialTemporalInteraction",
    "Tensor", "no_grad",
]
