"""Synthetic generation, difficulty calibration, and the on-disk format."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstnet.data import (_PALETTE, JITTER_PX, SequenceRecord, SynthSpec, VideoDataset, _blend,
                         _body_stamp, _make_signatures, _paint_body, dataset_census,
                         generate_synthetic, load_dataset, save_dataset, train_pixel_mean)
from cstnet.errors import ConfigError, ContractError, FormatError
from cstnet.io import read_tensor, write_tensor
from cstnet.presets import ABLATION_DATA, LEARNABILITY_DATA


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


def dataset_digest(ds) -> str:
    """SHA-256 over every sequence's (identity, camera, split, shape, frame bytes)."""
    h = hashlib.sha256()
    for s in ds.sequences:
        h.update(f"{s.identity} {s.camera} {s.split} {s.frames.shape}\n".encode())
        h.update(s.frames.tobytes())
    return h.hexdigest()


# Golden digests of generated datasets.  They pin the generator's output byte
# for byte, so a speed-up of ``generate_synthetic`` must leave them alone.  They
# also track numpy's ``Generator`` stream (PCG64 and its bounded-integer,
# uniform and normal samplers): a numpy release that changes that stream
# changes them, and every seeded experiment with them.
GOLDEN_DIGESTS = [
    (ABLATION_DATA, "24439871610713d766e582a8dd37ae69b8ec199bbc03dcb415f6085d95794665"),
    (LEARNABILITY_DATA, "197618837feae2e15e278f625052726d1272e39d16e9738f45212016b98a97dd"),
    (SynthSpec(), "dd89cf5e746eb0d714e4a47b4af2f266f14db705d9c0aef6228fcacb62506c75"),
    (SynthSpec(num_identities=5, frame_h=16, frame_w=8, clutter=0.5, illum_scale=(0.8, 1.2),
               illum_shift=(-0.1, 0.1), occlusion_p=0.3, seed=3),
     "c96e1d39f36628ee141dfebd30657b0926ef24be474852bf4ac208479e3a341b"),
    (SynthSpec(num_identities=6, cams=3, seqs_per_cam=2, frame_h=40, frame_w=24,
               clutter=2.0, occlusion_p=0.5, seed=5),
     "a580719dbc2d14402808af33f1f98e3e7fcc2769bfc5ac79ca8aa3b2983ce1ef"),
    (dataclasses.replace(ABLATION_DATA, num_identities=48, cams=4, seqs_per_cam=1, seed=7),
     "3cc5420b28e8871f2176e88ea77b68a6a3027c36cf6699590993c701dd87b6f4"),   # perfbench eval set
]


@pytest.mark.parametrize("spec, digest", GOLDEN_DIGESTS,
                         ids=["ablation", "learnability", "default", "16x8", "40x24-heavy",
                              "eval-gallery"])
def test_generated_bytes_match_golden_digest(spec, digest):
    assert dataset_digest(generate_synthetic(spec)) == digest


class TestBodyStamp:
    """Pasting a cached body stamp equals painting the body, byte for byte."""

    @pytest.mark.parametrize("shape", [(16, 8), (32, 16)])
    def test_paste_equals_paint_at_every_drawable_position(self, shape):
        h, w = shape
        rng = np.random.default_rng(4)
        signatures = _make_signatures(rng, 6)
        assert {sig.accessory_side for sig in signatures} == {0, 1}
        jv = max(1, JITTER_PX // 2)
        # base_cy in [1, 2], base_cx in w//2 + [-1, 1], then the per-frame jitter
        positions = [(cy, cx) for cy in range(1 - jv, 2 + jv + 1)
                     for cx in range(w // 2 - 1 - JITTER_PX, w // 2 + 1 + JITTER_PX + 1)]
        assert len(positions) == 4 * 7
        for sig in signatures:
            for cy, cx in positions:
                frame = rng.uniform(-1.0, 2.0, (3, h, w))
                painted = frame.copy()
                _paint_body(painted, sig, cy, cx)
                canvas, mask = _body_stamp(sig, (3, h, w), cy, cx)
                np.copyto(frame, canvas, where=mask)
                assert frame.tobytes() == painted.tobytes(), (sig.accessory_side, cy, cx)

    def test_blocks_clamped_at_every_edge_paste_equal_paint(self):
        # the generator never places a body this far out; _paint_body then
        # clips its blocks at the top, bottom, left and right of the frame
        rng = np.random.default_rng(0)
        signatures = _make_signatures(rng, 6)
        for sig in signatures:
            for cy, cx in [(0, 0), (0, 1), (3, 0), (12, 8), (14, 7), (15, 4)]:
                frame = rng.uniform(0.0, 1.0, (3, 16, 8))
                painted = frame.copy()
                _paint_body(painted, sig, cy, cx)
                canvas, mask = _body_stamp(sig, (3, 16, 8), cy, cx)
                np.copyto(frame, canvas, where=mask)
                assert frame.tobytes() == painted.tobytes(), (sig.accessory_side, cy, cx)


@pytest.mark.parametrize("alpha", [1.0, 0.35])
def test_blend_equals_the_three_step_blend(alpha):
    # the frame holds negative pixels and signed zeros, whose products with
    # 1 - alpha = 0 are -0; an opaque patch must still come out as tint + noise
    rng = np.random.default_rng(9)
    frame = rng.uniform(-2.0, 2.0, (3, 16, 8))
    frame[:, 5, :] = -0.0
    frame[:, 6, :] = 0.0
    for color in _PALETTE:
        noise = rng.normal(0.0, 0.3, (3, 6, 5))
        blended = frame.copy()
        patch = blended[:, 3:9, 2:7]
        patch *= 1.0 - alpha
        patch += alpha * color[:, None, None]
        patch += noise
        _blend(frame, 3, 2, alpha * color[:, None, None], alpha, noise)
        assert frame.tobytes() == blended.tobytes()


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
