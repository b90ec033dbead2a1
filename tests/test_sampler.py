"""PK batch construction and augmentation invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstnet.data import SequenceRecord, SynthSpec, VideoDataset, generate_synthetic
from cstnet.errors import ContractError
from cstnet.sampler import augment_clips, epoch_identities, pk_sample, sample_frame_indices


def toy_dataset(num_ids, seqs_per_id, length, h=8, w=4, split="train"):
    rng = np.random.default_rng(0)
    seqs = []
    for identity in range(num_ids):
        for _ in range(seqs_per_id):
            frames = rng.random((length, 3, h, w)).astype(np.float32)
            seqs.append(SequenceRecord(identity, 0, split, frames))
    return VideoDataset(seqs)


def sample(ds, p, k, t, seed):
    """A PK batch of the first P identities that an epoch deals with ``seed``."""
    rng = np.random.default_rng(seed)
    return pk_sample(ds, p, k, t, rng, identities=epoch_identities(ds, p, 1, rng)[0])


class TestFrameSampling:
    def test_even_spacing_with_offset(self):
        rng = np.random.default_rng(0)
        idx = sample_frame_indices(16, 4, rng)
        assert len(idx) == 4
        assert len(set(np.diff(idx))) == 1 and np.diff(idx)[0] == 4

    def test_exact_length_is_deterministic(self):
        for seed in range(5):
            idx = sample_frame_indices(6, 6, np.random.default_rng(seed))
            assert np.array_equal(idx, np.arange(6))

    def test_short_sequences_loop_pad(self):
        idx = sample_frame_indices(3, 8, np.random.default_rng(0))
        assert np.array_equal(idx, np.arange(8) % 3)

    def test_indices_always_valid(self):
        rng = np.random.default_rng(7)
        for length in range(1, 30):
            for t in (1, 2, 4, 8):
                idx = sample_frame_indices(length, t, rng)
                assert len(idx) == t and idx.min() >= 0 and idx.max() < length


class TestPkSample:
    def test_paper_scale_batch_composition(self):
        ds = toy_dataset(num_ids=20, seqs_per_id=5, length=12)
        batch = sample(ds, p=16, k=4, t=8, seed=0)
        assert batch.clips.shape == (64, 8, 3, 8, 4)          # 64 clips, 512 frames
        assert batch.clips.shape[0] * batch.clips.shape[1] == 512
        ids, counts = np.unique(batch.labels, return_counts=True)
        assert len(ids) == 16 and (counts == 4).all()

    def test_forced_case_is_deterministic(self):
        ds = toy_dataset(num_ids=4, seqs_per_id=1, length=8)
        a = sample(ds, p=4, k=2, t=8, seed=0)
        b = sample(ds, p=4, k=2, t=8, seed=99)
        # every clip uses the identity's single sequence and all 8 frames in order
        for batch in (a, b):
            for src in batch.provenance:
                assert src.frame_indices == tuple(range(8))
        assert sorted(a.labels) == sorted(b.labels)

    def test_fixed_seed_reproduces_batch(self):
        ds = toy_dataset(num_ids=10, seqs_per_id=3, length=15)
        a = sample(ds, p=6, k=2, t=4, seed=5)
        b = sample(ds, p=6, k=2, t=4, seed=5)
        assert np.array_equal(a.clips, b.clips)
        assert np.array_equal(a.labels, b.labels)
        assert a.provenance == b.provenance

    def test_too_few_identities_rejected(self):
        ds = toy_dataset(num_ids=3, seqs_per_id=2, length=8)
        with pytest.raises(ContractError):
            pk_sample(ds, p=4, k=2, t=4, rng=np.random.default_rng(0), identities=[0, 1, 2, 3])

    def test_only_train_split_is_sampled(self):
        ds = generate_synthetic(SynthSpec(num_identities=8, cams=2, seqs_per_cam=2, seed=0))
        batch = sample(ds, p=4, k=2, t=4, seed=0)
        for src in batch.provenance:
            assert ds.sequences[src.sequence_index].split == "train"

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(1, 20), st.integers(0, 1000))
    def test_batch_invariants_hold(self, num_ids, seqs_per_id, length, seed):
        ds = toy_dataset(num_ids=num_ids, seqs_per_id=seqs_per_id, length=length)
        p = min(2, num_ids)
        k = 3
        t = 4
        batch = sample(ds, p=p, k=k, t=t, seed=seed)
        assert batch.clips.shape == (p * k, t, 3, 8, 4)
        ids, counts = np.unique(batch.labels, return_counts=True)
        assert len(ids) == p and (counts == k).all()
        for clip, src in zip(batch.clips, batch.provenance):
            seq = ds.sequences[src.sequence_index]
            assert seq.identity == src.identity
            assert np.array_equal(clip, seq.frames[list(src.frame_indices)])


class TestEpochIdentities:
    def test_epoch_sees_every_identity_once(self):
        ds = toy_dataset(num_ids=8, seqs_per_id=2, length=8)
        batches = epoch_identities(ds, p=4, steps=2, rng=np.random.default_rng(0))
        assert [len(b) for b in batches] == [4, 4]
        assert sorted(np.concatenate(batches).tolist()) == list(range(8))

    def test_leftover_identities_are_reshuffled_not_repeated_in_a_batch(self):
        ds = toy_dataset(num_ids=5, seqs_per_id=2, length=8)
        batches = epoch_identities(ds, p=2, steps=7, rng=np.random.default_rng(3))
        for b in batches:
            assert len(set(b.tolist())) == 2 and set(b.tolist()) <= set(range(5))
        # each deck of 5 yields two batches of 2; its fifth card is dropped
        for deck in range(3):
            pair = batches[2 * deck: 2 * deck + 2]
            assert len(set(np.concatenate(pair).tolist())) == 4

    def test_too_few_identities_rejected(self):
        ds = toy_dataset(num_ids=3, seqs_per_id=2, length=8)
        with pytest.raises(ContractError):
            epoch_identities(ds, p=4, steps=1, rng=np.random.default_rng(0))

    def test_pk_sample_uses_the_given_identities(self):
        ds = toy_dataset(num_ids=6, seqs_per_id=2, length=8)
        batch = pk_sample(ds, p=2, k=2, t=4, rng=np.random.default_rng(0), identities=[4, 1])
        assert batch.labels.tolist() == [4, 4, 1, 1]

    @pytest.mark.parametrize("identities", [[1, 1], [1], [1, 9]])
    def test_pk_sample_rejects_bad_identities(self, identities):
        ds = toy_dataset(num_ids=6, seqs_per_id=2, length=8)
        with pytest.raises(ContractError):
            pk_sample(ds, p=2, k=2, t=4, rng=np.random.default_rng(0), identities=identities)


class TestAugmentation:
    def test_counts_and_labels_untouched(self, rng):
        clips = rng.random((6, 4, 3, 8, 4)).astype(np.float32)
        out = augment_clips(clips, np.random.default_rng(0), np.zeros(3))
        assert out.shape == clips.shape
        assert out.dtype == clips.dtype

    def test_original_clips_not_mutated(self, rng):
        clips = rng.random((4, 2, 3, 8, 4)).astype(np.float32)
        snapshot = clips.copy()
        augment_clips(clips, np.random.default_rng(1), np.zeros(3))
        assert np.array_equal(clips, snapshot)

    def test_flip_is_whole_clip_and_exact(self, rng):
        clips = rng.random((1, 3, 3, 8, 4)).astype(np.float32)
        out = augment_clips(clips, np.random.default_rng(0), np.zeros(3),
                            flip_p=1.0, erase_p=0.0)
        assert np.array_equal(out, clips[:, :, :, :, ::-1])

    def test_erase_fills_with_mean_and_respects_area(self, rng):
        clips = np.ones((1, 1, 3, 20, 20), dtype=np.float32)
        mean = np.array([0.25, 0.5, 0.75])
        out = augment_clips(clips, np.random.default_rng(3), mean,
                            flip_p=0.0, erase_p=1.0)
        changed = out[0, 0] != clips[0, 0]
        area = changed[0].sum()
        assert 0.02 * 400 * 0.5 <= area <= 0.33 * 400 * 2.0   # box rounding slack
        for c in range(3):
            assert np.allclose(out[0, 0, c][changed[c]], mean[c])

    def test_zero_probabilities_are_identity(self, rng):
        clips = rng.random((3, 2, 3, 8, 4)).astype(np.float32)
        out = augment_clips(clips, np.random.default_rng(0), np.zeros(3),
                            flip_p=0.0, erase_p=0.0)
        assert np.array_equal(out, clips)
