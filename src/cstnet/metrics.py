"""CMC and mean-average-precision for cross-camera retrieval.

Per query, gallery entries sharing both its identity and its camera are
excluded; distances are ranked ascending with ties broken by gallery index
(stable sort).  A rank-k hit means a correct identity appears among the k
nearest remaining entries.  AP is the mean of precision-at-rank over the
relevant positions.  Queries with no valid cross-camera match are excluded
from both means and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .errors import ContractError, DimensionError
from .tensor import no_grad


@dataclass
class RankingMetrics:
    cmc: np.ndarray                # rank-k accuracies, k = 1..max_rank
    map: float
    per_query: list = field(default_factory=list)
    excluded_queries: int = 0

    def as_records(self) -> list[tuple[str, str, float]]:
        """(metric name, k, value) rows for structured output."""
        rows = [("cmc", str(k + 1), float(v)) for k, v in enumerate(self.cmc)]
        rows.append(("map", "-", float(self.map)))
        rows.append(("excluded_queries", "-", float(self.excluded_queries)))
        return rows


def _check_ranking_inputs(dist, query_ids, gallery_ids, query_cams, gallery_cams):
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2:
        raise DimensionError(f"distance matrix must be 2-d, got shape {dist.shape}")
    q, g = dist.shape
    if q < 1 or g < 1:
        raise ContractError("need at least one query and one gallery entry")
    arrays = [np.asarray(a) for a in (query_ids, gallery_ids, query_cams, gallery_cams)]
    if arrays[0].shape != (q,) or arrays[2].shape != (q,):
        raise DimensionError("query ids/cams must match the number of rows")
    if arrays[1].shape != (g,) or arrays[3].shape != (g,):
        raise DimensionError("gallery ids/cams must match the number of columns")
    return dist, arrays


def ranking_metrics(dist, query_ids, gallery_ids, query_cams, gallery_cams,
                    max_rank: int) -> RankingMetrics:
    """CMC for k = 1..max_rank, mAP and per-query APs, for all queries at once."""
    if max_rank < 1:
        raise ContractError("max_rank must be >= 1")
    dist, (qid, gid, qcam, gcam) = _check_ranking_inputs(
        dist, query_ids, gallery_ids, query_cams, gallery_cams)
    order = np.argsort(dist, axis=1, kind="stable")      # ties -> gallery index ascending
    same_id = gid[order] == qid[:, None]
    kept = ~(same_id & (gcam[order] == qcam[:, None]))
    matches = same_id & kept
    rank = np.cumsum(kept, axis=1)                       # 1-based rank among kept entries
    found = np.cumsum(matches, axis=1)
    valid = found[:, -1] > 0
    if not valid.any():
        raise ContractError("no query has a valid cross-camera match")
    first = rank[np.arange(len(rank)), matches.argmax(axis=1)][valid]
    cmc = (first[:, None] <= np.arange(1, max_rank + 1)).sum(axis=0) / len(first)
    # precision at each hit; rank is 0 only before the first kept entry, never at a hit
    precision = np.divide(found, rank, out=np.zeros(rank.shape), where=matches)
    aps = precision.sum(axis=1)[valid] / found[valid, -1]
    return RankingMetrics(cmc=cmc, map=float(aps.mean()), per_query=aps.tolist(),
                          excluded_queries=int((~valid).sum()))


def evenly_spaced_indices(length: int, count: int) -> np.ndarray:
    """Deterministic evaluation clip: `count` evenly spaced frame indices."""
    if length < 1 or count < 1:
        raise ContractError("length and count must be >= 1")
    return np.round(np.linspace(0, length - 1, count)).astype(np.int64)


def evaluate(model, dataset, clip_len: int, max_rank: int = 20) -> RankingMetrics:
    """Embed one evenly-spaced clip per query/gallery sequence and rank.

    Streams: the clips of one batch of ``EMBED_BATCH`` sequences are built at
    a time and embedded on a pool of ``blas.eval_workers()`` threads, at most
    that many batches stacked or in flight, and only the embeddings are kept,
    so memory holds one batch of clips (and one forward) per worker however
    large the gallery is.  The next batch is stacked as soon as any batch in
    flight ends, not only the oldest, so a worker that finishes a short batch
    takes the next one at once.  The batches are exactly those
    ``embed_clips`` cuts from a whole split and their embeddings are joined
    in submission order, so every forward, and so every embedding, is the
    same as embedding the stacked split at once, for any number of workers
    and any order of completion.  The model is put in eval mode and graph
    recording is off for the whole call, so the forwards share no state that
    changes; both are restored on return.  Only the query x gallery
    distances are computed.
    """
    # imported per call, not at the top, so that a patch of
    # ``cstnet.model.pairwise_distances`` (a test's counter, a profiler's
    # timer) takes effect here; there is no import cycle.  The thread pool's
    # modules add 0.6 MB of RSS to every process that imports this one, such
    # as training through ``experiments``, so they load on first use too
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    from .model import EMBED_BATCH, pairwise_distances

    queries = dataset.of_split("query")
    gallery = dataset.of_split("gallery")
    if not queries or not gallery:
        raise ContractError("dataset needs both query and gallery splits")

    def stacked(seqs, start):
        return np.stack([s.frames[evenly_spaced_indices(len(s.frames), clip_len)]
                         for s in seqs[start:start + EMBED_BATCH]])

    batches = [(seqs, start) for seqs in (queries, gallery)
               for start in range(0, len(seqs), EMBED_BATCH)]
    workers = blas.eval_workers()
    futures, in_flight = [], set()
    was_training = getattr(model, "training", False)
    if was_training:
        model.eval()
    try:
        with no_grad(), ThreadPoolExecutor(workers) as pool:
            for seqs, start in batches:
                if len(in_flight) == workers:       # any one ends before the next is stacked
                    done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        future.result()             # a failed batch stops the stacking
                future = pool.submit(model.embed_clips, stacked(seqs, start))
                futures.append(future)
                in_flight.add(future)
            embeddings = np.concatenate([future.result() for future in futures])
    finally:
        if was_training:
            model.train()

    return ranking_metrics(
        pairwise_distances(embeddings[:len(queries)], embeddings[len(queries):]),
        np.array([s.identity for s in queries]),
        np.array([s.identity for s in gallery]),
        np.array([s.camera for s in queries]),
        np.array([s.camera for s in gallery]),
        max_rank=max_rank,
    )
