"""Video person re-identification with co-saliency attention and
spatial-temporal relation modules, on a self-contained autodiff engine."""

from .csl import CoSaliencyAttention, CoSaliencyLearning, CslConfig
from .data import SynthSpec, VideoDataset, generate_synthetic, load_dataset, save_dataset
from .metrics import RankingMetrics, compute_cmc, compute_map, evaluate
from .model import Cstnet, CstnetConfig, pairwise_distances
from .sti import RelationFeatures, SpatialTemporalInteraction, StiConfig
from .tensor import Tensor, no_grad

__all__ = [
    "CoSaliencyAttention", "CoSaliencyLearning", "CslConfig",
    "SynthSpec", "VideoDataset", "generate_synthetic", "load_dataset", "save_dataset",
    "RankingMetrics", "compute_cmc", "compute_map", "evaluate",
    "Cstnet", "CstnetConfig", "pairwise_distances",
    "RelationFeatures", "SpatialTemporalInteraction", "StiConfig",
    "Tensor", "no_grad",
]
