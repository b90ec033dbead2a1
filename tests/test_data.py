"""Synthetic generation, difficulty calibration, and the on-disk format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstnet.data import (SequenceRecord, SynthSpec, VideoDataset, dataset_census,
                         generate_synthetic, load_dataset, save_dataset,
                         train_pixel_mean)
from cstnet.errors import ConfigError, ContractError, FormatError
from cstnet.io import read_tensor, write_tensor


def nearest_centroid_rank1(ds):
    """Raw-pixel reference classifier: mean frame per sequence vs. gallery."""
    def emb(seq):
        return seq.frames.mean(axis=0).ravel().astype(np.float64)
    queries, gallery = ds.of_split("query"), ds.of_split("gallery")
    g = np.stack([emb(s) for s in gallery])
    gids = np.array([s.identity for s in gallery])
    hits = sum(gids[np.argmin(np.linalg.norm(g - emb(q)[None, :], axis=1))] == q.identity
               for q in queries)
    return hits / len(queries)


class TestGeneration:
    def test_same_seed_identical_dataset(self):
        spec = SynthSpec(num_identities=4, cams=2, seqs_per_cam=2,
                         clutter=0.5, occlusion_p=0.3, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a.sequences) == len(b.sequences)
        for sa, sb in zip(a.sequences, b.sequences):
            assert (sa.identity, sa.camera, sa.split) == (sb.identity, sb.camera, sb.split)
            assert np.array_equal(sa.frames, sb.frames)

    def test_split_policy_and_structure(self):
        ds = generate_synthetic(SynthSpec(num_identities=6, cams=2, seqs_per_cam=3, seed=0))
        ds.validate()
        census = dataset_census(ds)
        assert census["sequences"] == 6 * 2 * 3
        assert census["identities"] == 6
        assert census["query"] == 6 and census["gallery"] == 6
        assert census["train"] == 6 * 2 * 2

    def test_nuisance_free_frames_differ_only_near_the_body(self):
        ds = generate_synthetic(SynthSpec(num_identities=2, cams=2, seqs_per_cam=1,
                                          clutter=0.0, occlusion_p=0.0, seed=3))
        seq = ds.sequences[0]
        a, b = seq.frames[0], seq.frames[1]
        diff = np.abs(a - b).max(axis=0) > 1e-6
        # body occupies roughly the middle band; placement jitter is +-2 px
        assert diff.mean() < 0.65
        assert not diff[:, :1].any() or not diff[:, -1:].any()

    def test_single_camera_dataset_is_train_only(self):
        ds = generate_synthetic(SynthSpec(num_identities=3, cams=1, seqs_per_cam=2, seed=0))
        assert all(s.split == "train" for s in ds.sequences)

    def test_zero_identities_rejected(self):
        with pytest.raises(ConfigError, match="num_identities must be >= 1"):
            SynthSpec(num_identities=0)

    def test_illumination_is_per_frame_affine(self):
        base = SynthSpec(num_identities=2, cams=2, seqs_per_cam=1, seed=9)
        lit = SynthSpec(num_identities=2, cams=2, seqs_per_cam=1, seed=9,
                        illum_scale=(0.5, 1.5), illum_shift=(-0.2, 0.2))
        # same rng stream: the lit dataset consumes extra draws, so only check
        # that illumination changes frames while structure stays put
        a = generate_synthetic(base)
        b = generate_synthetic(lit)
        assert not np.array_equal(a.sequences[0].frames, b.sequences[0].frames)

    def test_difficulty_calibration_against_raw_pixels(self):
        clean = generate_synthetic(SynthSpec(num_identities=16, cams=2, seqs_per_cam=3,
                                             clutter=0.0, seed=0))
        heavy = generate_synthetic(SynthSpec(num_identities=16, cams=2, seqs_per_cam=3,
                                             clutter=1.5, seed=0))
        assert nearest_centroid_rank1(clean) > 0.95
        assert nearest_centroid_rank1(heavy) < 0.6


class TestValidation:
    def test_dense_identity_requirement(self):
        seqs = [SequenceRecord(0, 0, "train", np.zeros((2, 3, 16, 8), np.float32)),
                SequenceRecord(2, 0, "train", np.zeros((2, 3, 16, 8), np.float32))]
        with pytest.raises(ContractError):
            VideoDataset(seqs).validate()

    def test_query_needs_cross_camera_gallery(self):
        frames = np.zeros((2, 3, 16, 8), np.float32)
        seqs = [SequenceRecord(0, 0, "query", frames),
                SequenceRecord(0, 0, "gallery", frames)]   # same camera
        with pytest.raises(ContractError):
            VideoDataset(seqs).validate()

    def test_train_pixel_mean(self):
        frames = np.full((4, 3, 8, 4), 0.25, np.float32)
        ds = VideoDataset([SequenceRecord(0, 0, "train", frames)])
        assert np.allclose(train_pixel_mean(ds), [0.25] * 3)


class TestTensorFiles:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        write_tensor(tmp_path / "t.cstt", arr)
        back = read_tensor(tmp_path / "t.cstt")
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_float64_round_trip(self, tmp_path, rng):
        arr = rng.standard_normal((2, 2))
        write_tensor(tmp_path / "t.cstt", arr)
        assert np.array_equal(read_tensor(tmp_path / "t.cstt"), arr)

    def test_read_copies_the_values_once(self, tmp_path, rng):
        # the file's bytes plus one private array; a slice of the bytes would be a third copy
        arr = rng.standard_normal((64, 3, 32, 16)).astype(np.float32)
        write_tensor(tmp_path / "t.cstt", arr)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            back = read_tensor(tmp_path / "t.cstt")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert back.flags.writeable and back.flags.owndata and np.array_equal(back, arr)
        assert peak < 2.5 * arr.nbytes

    def test_corrupt_magic(self, tmp_path):
        write_tensor(tmp_path / "t.cstt", np.zeros(3, np.float32))
        raw = bytearray((tmp_path / "t.cstt").read_bytes())
        raw[:4] = b"XXXX"
        (tmp_path / "t.cstt").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_tensor(tmp_path / "t.cstt")

    def test_bad_version(self, tmp_path):
        write_tensor(tmp_path / "t.cstt", np.zeros(3, np.float32))
        raw = bytearray((tmp_path / "t.cstt").read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        (tmp_path / "t.cstt").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_tensor(tmp_path / "t.cstt")

    def test_truncation_reports_offset(self, tmp_path):
        write_tensor(tmp_path / "t.cstt", np.zeros((2, 2), np.float32))
        raw = (tmp_path / "t.cstt").read_bytes()
        (tmp_path / "t.cstt").write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="offset"):
            read_tensor(tmp_path / "t.cstt")

    def test_trailing_bytes_rejected(self, tmp_path):
        write_tensor(tmp_path / "t.cstt", np.zeros(2, np.float32))
        with open(tmp_path / "t.cstt", "ab") as fh:
            fh.write(b"zz")
        with pytest.raises(FormatError, match="trailing"):
            read_tensor(tmp_path / "t.cstt")


class TestDatasetFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SynthSpec(num_identities=3, cams=2, seqs_per_cam=2,
                                          clutter=0.4, seed=2))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert len(back.sequences) == len(ds.sequences)
        for a, b in zip(ds.sequences, back.sequences):
            assert (a.identity, a.camera, a.split) == (b.identity, b.camera, b.split)
            assert np.array_equal(a.frames, b.frames)

    def test_save_load_save_identical_bytes(self, tmp_path):
        ds = generate_synthetic(SynthSpec(num_identities=2, cams=2, seqs_per_cam=2, seed=4))
        save_dataset(ds, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_empty_dataset_round_trip(self, tmp_path):
        save_dataset(VideoDataset([]), tmp_path / "d")
        assert (tmp_path / "d" / "index.txt").read_text() == ""
        assert load_dataset(tmp_path / "d").sequences == []

    def test_missing_file_reported(self, tmp_path):
        ds = generate_synthetic(SynthSpec(num_identities=2, cams=2, seqs_per_cam=1, seed=0))
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "seq00000.cstt").unlink()
        with pytest.raises(FormatError, match="seq00000"):
            load_dataset(tmp_path / "d")

    def test_non_finite_frames_rejected(self, tmp_path):
        ds = generate_synthetic(SynthSpec(num_identities=2, cams=2, seqs_per_cam=1, seed=0))
        ds.sequences[1].frames[0, 0, 0, 0] = np.inf
        save_dataset(ds, tmp_path / "d")
        with pytest.raises(FormatError, match="seq00001.cstt: frames hold non-finite values"):
            load_dataset(tmp_path / "d")

    def test_malformed_index_line(self, tmp_path):
        save_dataset(VideoDataset([]), tmp_path / "d")
        (tmp_path / "d" / "index.txt").write_text("0 0 train\n")
        with pytest.raises(FormatError, match="line 1"):
            load_dataset(tmp_path / "d")

    def test_unknown_split_rejected(self, tmp_path):
        ds = generate_synthetic(SynthSpec(num_identities=2, cams=2, seqs_per_cam=1, seed=0))
        save_dataset(ds, tmp_path / "d")
        index = (tmp_path / "d" / "index.txt").read_text().replace("query", "probe", 1)
        (tmp_path / "d" / "index.txt").write_text(index)
        with pytest.raises(FormatError, match="split"):
            load_dataset(tmp_path / "d")

    @given(st.integers(1, 4), st.integers(0, 50))
    def test_random_small_datasets_round_trip(self, tmp_path_factory, num_ids, seed):
        tmp = tmp_path_factory.mktemp("ds")
        ds = generate_synthetic(SynthSpec(num_identities=num_ids, cams=2, seqs_per_cam=1,
                                          seq_len_min=2, seq_len_max=4, clutter=0.3,
                                          seed=seed))
        save_dataset(ds, tmp)
        back = load_dataset(tmp)
        for a, b in zip(ds.sequences, back.sequences):
            assert np.array_equal(a.frames, b.frames)
