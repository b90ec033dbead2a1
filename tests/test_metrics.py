"""CMC/mAP on hand-made rankings and their invariants, plus the evaluate pipeline.

The random instances against the brute-force ``rank_loops`` are verify's
``oracle/cmc_exact`` and ``oracle/map``."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstnet import blas
from cstnet import metrics as metrics_module
from cstnet import model as model_module
from cstnet import tensor as tensor_module
from cstnet.blas import THREAD_VARIABLES
from cstnet.data import SequenceRecord, VideoDataset
from cstnet.errors import ContractError
from cstnet.metrics import evaluate, evenly_spaced_indices, ranking_metrics
from cstnet.model import EMBED_BATCH, Cstnet, CstnetConfig, pairwise_distances
from cstnet.verify import ranking_instance


class TestCmc:
    def test_forced_rank_one(self):
        dist = np.array([[0.1, 0.5, 0.9]])
        cmc = ranking_metrics(dist, [7], [7, 1, 2], [0], [1, 1, 1], 3).cmc
        assert np.array_equal(cmc, [1.0, 1.0, 1.0])

    def test_true_match_farthest_of_three(self):
        dist = np.array([[0.9, 0.1, 0.5]])
        cmc = ranking_metrics(dist, [7], [7, 1, 2], [0], [1, 1, 1], 3).cmc
        assert np.array_equal(cmc, [0.0, 0.0, 1.0])

    def test_same_camera_same_id_excluded(self):
        # the nearest entry shares id AND camera -> excluded, next is correct
        dist = np.array([[0.05, 0.2, 0.4]])
        cmc = ranking_metrics(dist, [7], [7, 7, 2], [0], [0, 1, 1], 2).cmc
        assert np.array_equal(cmc, [1.0, 1.0])

    def test_tie_broken_by_gallery_index(self):
        dist = np.array([[0.5, 0.5]])
        # equal distances: index 0 wins, and it is the wrong identity
        cmc = ranking_metrics(dist, [1], [0, 1], [0], [1, 1], 2).cmc
        assert np.array_equal(cmc, [0.0, 1.0])

    @given(st.integers(1, 6), st.integers(2, 10), st.integers(0, 10_000))
    def test_monotone_non_decreasing(self, q, g, seed):
        r = np.random.default_rng(seed)
        dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
        cmc = ranking_metrics(dist, qid, gid, qcam, gcam, g).cmc
        assert (np.diff(cmc) >= 0).all()
        assert (cmc >= 0).all() and (cmc <= 1).all()

    def test_no_valid_match_raises(self):
        with pytest.raises(ContractError):
            ranking_metrics(np.array([[0.3]]), [0], [1], [0], [1], 1)


class TestMap:
    def test_single_relevant_at_rank_two(self):
        dist = np.array([[0.1, 0.2, 0.9]])
        ap = ranking_metrics(dist, [5], [1, 5, 2], [0], [1, 1, 1], 3).map
        assert abs(ap - 0.5) < 1e-12

    def test_all_relevant_first(self):
        dist = np.array([[0.1, 0.2, 0.9]])
        ap = ranking_metrics(dist, [5], [5, 5, 2], [0], [1, 1, 1], 3).map
        assert abs(ap - 1.0) < 1e-12

    @given(st.integers(1, 5), st.integers(2, 8), st.floats(0.01, 100.0),
           st.integers(0, 10_000))
    def test_scale_invariance_of_ranking(self, q, g, factor, seed):
        r = np.random.default_rng(seed)
        dist, qid, gid, qcam, gcam = ranking_instance(r, q, g)
        a = ranking_metrics(dist, qid, gid, qcam, gcam, g)
        b = ranking_metrics(dist * factor, qid, gid, qcam, gcam, g)
        assert np.array_equal(a.cmc, b.cmc)
        assert abs(a.map - b.map) < 1e-12

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


def tiny_eval_dataset(num_ids=4, frames_per_seq=6, frame_hw=(8, 4)):
    seqs = []
    rng = np.random.default_rng(0)
    for identity in range(num_ids):
        for camera in (0, 1):
            frames = rng.random((frames_per_seq, 3) + frame_hw).astype(np.float32)
            frames[:, 0, 0, 0] = identity / 100.0     # identity tag for OracleModel
            split = "query" if camera == 0 else "gallery"
            seqs.append(SequenceRecord(identity, camera, split, frames))
    return VideoDataset(seqs)


def small_model(ds):
    return Cstnet(CstnetConfig(num_identities=ds.num_identities, clip_len=2, frame_h=16,
                               frame_w=8, stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                               csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                               sti_channels=4, sti_pool_h=2, sti_pool_w=1, seed=1))


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

    def test_embeds_at_most_one_batch_of_clips_per_call(self):
        ds = tiny_eval_dataset(num_ids=2 * EMBED_BATCH + 3)
        sizes = []

        class RecordingModel(StubModel):
            def embed_clips(self, clips, batch_size=EMBED_BATCH):
                sizes.append(len(clips))
                return super().embed_clips(clips)

        evaluate(RecordingModel(), ds, clip_len=4, max_rank=3)
        assert max(sizes) <= EMBED_BATCH
        assert sum(sizes) == len(ds.sequences)

    def test_computes_only_query_by_gallery_distances(self, monkeypatch):
        ds = tiny_eval_dataset(num_ids=5)
        calls = []
        distances = model_module.pairwise_distances

        def recording(*args):
            calls.append([np.shape(a) for a in args])
            return distances(*args)

        monkeypatch.setattr(model_module, "pairwise_distances", recording)
        evaluate(StubModel(), ds, clip_len=4, max_rank=3)
        assert calls == [[(5, 3), (5, 3)]]      # queries, then gallery; never Q+G rows

    def test_streaming_equals_embedding_each_stacked_split(self):
        # a gallery of more than one batch: same embeddings and metrics as
        # embed_clips on the whole stacked split
        ds = tiny_eval_dataset(num_ids=EMBED_BATCH + 5, frames_per_seq=3, frame_hw=(16, 8))
        model = small_model(ds)
        queries, gallery = ds.of_split("query"), ds.of_split("gallery")
        stacked = [np.stack([s.frames[evenly_spaced_indices(len(s.frames), 2)] for s in seqs])
                   for seqs in (queries, gallery)]
        batches = [split[start:start + EMBED_BATCH] for split in stacked
                   for start in range(0, len(split), EMBED_BATCH)]
        embedded = [None] * len(batches)      # by batch position: workers finish in any order
        embed_clips = model.embed_clips

        def recording(clips, batch_size=EMBED_BATCH):
            position = next(i for i, batch in enumerate(batches) if np.array_equal(batch, clips))
            embedded[position] = embed_clips(clips, batch_size)
            return embedded[position]

        model.embed_clips = recording
        got = evaluate(model, ds, clip_len=2, max_rank=5)

        whole = np.concatenate([embed_clips(split) for split in stacked])
        assert np.array_equal(np.concatenate(embedded), whole)
        ref = ranking_metrics(pairwise_distances(whole[:len(queries)], whole[len(queries):]),
                              [s.identity for s in queries], [s.identity for s in gallery],
                              [s.camera for s in queries], [s.camera for s in gallery], 5)
        assert np.array_equal(got.cmc, ref.cmc) and got.map == ref.map
        assert got.per_query == ref.per_query and got.excluded_queries == ref.excluded_queries


class TestEvaluateWorkers:
    """``evaluate`` embeds its batches on ``blas.eval_workers()`` threads."""

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),                                                   # nothing pinned
        ({name: "1" for name in THREAD_VARIABLES[1:]}, 1),         # one left unset
        ({**{name: "1" for name in THREAD_VARIABLES}, "OPENBLAS_NUM_THREADS": "2"}, 1),
        ({name: "1" for name in THREAD_VARIABLES}, 3),             # every one pinned
    ])
    def test_workers_only_when_every_thread_variable_pins_one_thread(self, monkeypatch,
                                                                    env, workers):
        for name in THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
        assert blas.eval_workers() == workers

    def test_more_workers_give_the_bytes_of_one(self, monkeypatch):
        # more workers than cores, with threads switching as often as they can
        ds = tiny_eval_dataset(num_ids=2 * EMBED_BATCH + 5, frames_per_seq=3, frame_hw=(16, 8))
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                results[workers] = self._evaluate_recording(monkeypatch, ds, workers)
        finally:
            sys.setswitchinterval(interval)
        (one, embedded_one) = results[1]
        assert len(embedded_one) == 6
        for workers in (2, 8):
            many, embedded_many = results[workers]
            assert embedded_many == embedded_one
            assert many.cmc.tobytes() == one.cmc.tobytes() and many.map == one.map
            assert many.per_query == one.per_query

    @staticmethod
    def _evaluate_recording(monkeypatch, ds, workers):
        """evaluate's metrics, and each batch's (clip tags, embedding) bytes, sorted."""
        monkeypatch.setattr(blas, "eval_workers", lambda: workers)
        model = small_model(ds)
        embedded = []
        embed_clips = model.embed_clips

        def recording(clips, batch_size=EMBED_BATCH):
            out = embed_clips(clips, batch_size)
            embedded.append((clips[:, 0, 0, 0, 0].tobytes(), out.tobytes()))
            return out

        model.embed_clips = recording
        return evaluate(model, ds, clip_len=2, max_rank=5), sorted(embedded)

    def test_at_most_workers_batches_stacked_or_in_flight(self, monkeypatch):
        ds = tiny_eval_dataset(num_ids=2 * EMBED_BATCH + 3)
        lock = threading.Lock()
        counts = {"stacked": 0, "embedded": 0, "most": 0}

        def counting(length, count):                  # called once per sequence stacked
            with lock:
                counts["stacked"] += 1
                counts["most"] = max(counts["most"], counts["stacked"] - counts["embedded"])
            return evenly_spaced_indices(length, count)

        class SlowModel(StubModel):
            def embed_clips(self, clips, batch_size=EMBED_BATCH):
                time.sleep(0.05)
                with lock:
                    counts["embedded"] += len(clips)
                return super().embed_clips(clips)

        monkeypatch.setattr(blas, "eval_workers", lambda: 2)
        monkeypatch.setattr(metrics_module, "evenly_spaced_indices", counting)
        evaluate(SlowModel(), ds, clip_len=4, max_rank=3)
        assert counts["embedded"] == len(ds.sequences)
        # two full batches overlap, and a third is never stacked beside them
        assert EMBED_BATCH < counts["most"] <= 2 * EMBED_BATCH

    def test_a_free_worker_takes_the_next_batch_while_an_older_one_runs(self, monkeypatch):
        ds = tiny_eval_dataset(num_ids=2 * EMBED_BATCH + 3)    # 3 query + 3 gallery batches
        lock = threading.Lock()
        others_done = threading.Event()
        counts = {"started": 0, "others": 0}
        released = []

        class HoldingModel(StubModel):
            def embed_clips(self, clips, batch_size=EMBED_BATCH):
                with lock:
                    counts["started"] += 1
                    first = counts["started"] == 1
                if first:
                    # set only when the five other batches are embedded, which a
                    # scheduler that waits for the oldest batch first never lets happen
                    released.append(others_done.wait(timeout=5))
                    return super().embed_clips(clips)
                out = super().embed_clips(clips)
                with lock:
                    counts["others"] += 1
                    if counts["others"] == 5:
                        others_done.set()
                return out

        monkeypatch.setattr(blas, "eval_workers", lambda: 2)
        held = evaluate(HoldingModel(), ds, clip_len=4, max_rank=3)
        assert released == [True]
        plain = evaluate(StubModel(), ds, clip_len=4, max_rank=3)
        assert held.cmc.tobytes() == plain.cmc.tobytes() and held.per_query == plain.per_query

    @pytest.mark.parametrize("fail", [False, True])
    def test_modes_are_restored(self, monkeypatch, fail):
        monkeypatch.setattr(blas, "eval_workers", lambda: 2)
        ds = tiny_eval_dataset(num_ids=2 * EMBED_BATCH, frames_per_seq=3, frame_hw=(16, 8))
        model = small_model(ds)
        seen = []
        forward = model.forward

        def watched(clips):
            seen.append((model.training, tensor_module._grad_enabled))
            if fail and len(seen) == 3:
                raise RuntimeError("forward failed")
            return forward(clips)

        model.forward = watched
        model.train()
        if fail:
            with pytest.raises(RuntimeError, match="forward failed"):
                evaluate(model, ds, clip_len=2, max_rank=5)
        else:
            evaluate(model, ds, clip_len=2, max_rank=5)
        assert set(seen) == {(False, False)}      # every forward in eval mode, no graph
        assert model.training and all(m.training for m in model.stage2._modules.values())
        assert tensor_module._grad_enabled
