"""CMC/mAP against brute-force ranking oracles, plus the evaluate pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstnet.data import SequenceRecord, VideoDataset
from cstnet.errors import ContractError
from cstnet.metrics import (RankingMetrics, compute_cmc, compute_map, evaluate,
                            evenly_spaced_indices, ranking_metrics)
from cstnet.verify import rank_loops, ranking_instance


class TestCmc:
    def test_forced_rank_one(self):
        dist = np.array([[0.1, 0.5, 0.9]])
        cmc = compute_cmc(dist, [7], [7, 1, 2], [0], [1, 1, 1], 3)
        assert np.array_equal(cmc, [1.0, 1.0, 1.0])

    def test_true_match_farthest_of_three(self):
        dist = np.array([[0.9, 0.1, 0.5]])
        cmc = compute_cmc(dist, [7], [7, 1, 2], [0], [1, 1, 1], 3)
        assert np.array_equal(cmc, [0.0, 0.0, 1.0])

    def test_same_camera_same_id_excluded(self):
        # the nearest entry shares id AND camera -> excluded, next is correct
        dist = np.array([[0.05, 0.2, 0.4]])
        cmc = compute_cmc(dist, [7], [7, 7, 2], [0], [0, 1, 1], 2)
        assert np.array_equal(cmc, [1.0, 1.0])

    def test_tie_broken_by_gallery_index(self):
        dist = np.array([[0.5, 0.5]])
        # equal distances: index 0 wins, and it is the wrong identity
        cmc = compute_cmc(dist, [1], [0, 1], [0], [1, 1], 2)
        assert np.array_equal(cmc, [0.0, 1.0])

    def test_hundred_random_instances_exact(self):
        r = np.random.default_rng(0)
        for _ in range(100):
            dist, qid, gid, qcam, gcam = ranking_instance(r, 6, 10)
            got = compute_cmc(dist, qid, gid, qcam, gcam, 10)
            ref, _ = rank_loops(dist, qid, gid, qcam, gcam, 10)
            assert np.array_equal(got, ref)

    def test_exhaustive_small_instances(self):
        r = np.random.default_rng(7)
        for q in range(1, 9):
            for g in range(2, 13, 2):
                dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
                got = compute_cmc(dist, qid, gid, qcam, gcam, g)
                ref, _ = rank_loops(dist, qid, gid, qcam, gcam, g)
                assert np.array_equal(got, ref)

    @given(st.integers(1, 6), st.integers(2, 10), st.integers(0, 10_000))
    def test_monotone_non_decreasing(self, q, g, seed):
        r = np.random.default_rng(seed)
        dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
        cmc = compute_cmc(dist, qid, gid, qcam, gcam, g)
        assert (np.diff(cmc) >= 0).all()
        assert (cmc >= 0).all() and (cmc <= 1).all()

    def test_no_valid_match_raises(self):
        with pytest.raises(ContractError):
            compute_cmc(np.array([[0.3]]), [0], [1], [0], [1], 1)


class TestMap:
    def test_single_relevant_at_rank_two(self):
        dist = np.array([[0.1, 0.2, 0.9]])
        ap = compute_map(dist, [5], [1, 5, 2], [0], [1, 1, 1])
        assert abs(ap - 0.5) < 1e-12

    def test_all_relevant_first(self):
        dist = np.array([[0.1, 0.2, 0.9]])
        ap = compute_map(dist, [5], [5, 5, 2], [0], [1, 1, 1])
        assert abs(ap - 1.0) < 1e-12

    def test_hundred_random_instances(self):
        r = np.random.default_rng(1)
        for _ in range(100):
            dist, qid, gid, qcam, gcam = ranking_instance(r, 6, 10)
            got = compute_map(dist, qid, gid, qcam, gcam)
            _, ref = rank_loops(dist, qid, gid, qcam, gcam, 10)
            assert abs(got - ref) < 1e-9

    def test_larger_random_instances(self):
        r = np.random.default_rng(2)
        for _ in range(100):
            q, g = int(r.integers(4, 12)), int(r.integers(8, 30))
            dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
            got = compute_map(dist, qid, gid, qcam, gcam)
            _, ref = rank_loops(dist, qid, gid, qcam, gcam, g)
            assert abs(got - ref) < 1e-9

    @given(st.integers(1, 5), st.integers(2, 8), st.floats(0.01, 100.0),
           st.integers(0, 10_000))
    def test_scale_invariance_of_ranking(self, q, g, factor, seed):
        r = np.random.default_rng(seed)
        dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
        a_cmc = compute_cmc(dist, qid, gid, qcam, gcam, g)
        b_cmc = compute_cmc(dist * factor, qid, gid, qcam, gcam, g)
        assert np.array_equal(a_cmc, b_cmc)
        a_map = compute_map(dist, qid, gid, qcam, gcam)
        b_map = compute_map(dist * factor, qid, gid, qcam, gcam)
        assert abs(a_map - b_map) < 1e-12

    def test_excluded_queries_counted(self):
        dist = np.array([[0.3, 0.4], [0.1, 0.2]])
        metrics = ranking_metrics(dist, [0, 1], [1, 1], [0, 0], [1, 1], 2)
        assert metrics.excluded_queries == 1
        assert len(metrics.per_query) == 1


class StubModel:
    """Embeds each clip as its mean frame color (so geometry is controlled)."""

    def embed_clips(self, clips, batch_size=32):
        return clips.mean(axis=(1, 3, 4)).astype(np.float64)


class OracleModel:
    """One-hot embedding per identity encoded in the clip's first pixel."""

    def embed_clips(self, clips, batch_size=32):
        ids = np.round(clips[:, 0, 0, 0, 0] * 100).astype(int)
        out = np.zeros((len(ids), 32))
        out[np.arange(len(ids)), ids % 32] = 1.0
        return out


def tiny_eval_dataset(num_ids=4, frames_per_seq=6):
    seqs = []
    rng = np.random.default_rng(0)
    for identity in range(num_ids):
        for camera in (0, 1):
            frames = rng.random((frames_per_seq, 3, 8, 4)).astype(np.float32)
            frames[:, 0, 0, 0] = identity / 100.0     # identity tag for OracleModel
            split = "query" if camera == 0 else "gallery"
            seqs.append(SequenceRecord(identity, camera, split, frames))
    return VideoDataset(seqs)


class TestEvaluate:
    def test_evenly_spaced_indices(self):
        assert np.array_equal(evenly_spaced_indices(10, 4), [0, 3, 6, 9])
        assert np.array_equal(evenly_spaced_indices(2, 4), [0, 0, 1, 1])
        assert np.array_equal(evenly_spaced_indices(4, 4), [0, 1, 2, 3])

    def test_oracle_embeddings_give_perfect_rank_one(self):
        ds = tiny_eval_dataset()
        metrics = evaluate(OracleModel(), ds, clip_len=4, max_rank=3)
        assert metrics.cmc[0] == 1.0
        assert metrics.map == 1.0

    def test_random_embeddings_near_chance(self):
        rng_global = np.random.default_rng(3)

        class RandomModel:
            def embed_clips(self, clips, batch_size=32):
                return rng_global.standard_normal((len(clips), 16))

        maps = []
        for _ in range(5):
            ds = tiny_eval_dataset(num_ids=10)
            maps.append(evaluate(RandomModel(), ds, clip_len=4).map)
        assert np.mean(maps) < 0.35

    def test_deterministic_across_calls(self):
        ds = tiny_eval_dataset()
        a = evaluate(StubModel(), ds, clip_len=4, max_rank=4)
        b = evaluate(StubModel(), ds, clip_len=4, max_rank=4)
        assert np.array_equal(a.cmc, b.cmc) and a.map == b.map

    def test_requires_both_splits(self):
        seqs = [SequenceRecord(0, 0, "train", np.zeros((2, 3, 8, 4), np.float32))]
        with pytest.raises(ContractError):
            evaluate(StubModel(), VideoDataset(seqs), clip_len=2)

    def test_records_layout(self):
        ds = tiny_eval_dataset()
        metrics = evaluate(StubModel(), ds, clip_len=4, max_rank=3)
        records = metrics.as_records()
        names = [r[0] for r in records]
        assert names == ["cmc", "cmc", "cmc", "map", "excluded_queries"]
