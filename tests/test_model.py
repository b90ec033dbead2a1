"""Backbone stages, full-network contracts, distances, parameter census."""

import numpy as np
import pytest

from cstnet.csl import CoSaliencyLearning
from cstnet.errors import ConfigError, ContractError, DimensionError
from cstnet.gradcheck import max_gradcheck_error
from cstnet.model import Cstnet, CstnetConfig, ResidualStage, pairwise_distances
from cstnet.sti import SpatialTemporalInteraction
from cstnet.tensor import Tensor, no_grad


def micro_config(**overrides):
    base = dict(num_identities=4, clip_len=2, frame_h=16, frame_w=8,
                stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                sti_channels=4, sti_pool_h=2, sti_pool_w=1,
                dtype="f64", seed=3)
    base.update(overrides)
    return CstnetConfig(**base)


class TestResidualStage:
    def test_zero_second_conv_reduces_to_shortcut(self, rng):
        stage = ResidualStage(4, 8, stride=2, rng=rng, dtype=np.float64)
        stage.conv2.weight.data[...] = 0.0
        x = Tensor(rng.standard_normal((3, 4, 8, 8)))
        with no_grad():
            out = stage(x)
            ref = stage.bn_sc(stage.shortcut(x))
        assert np.abs(out.data - np.maximum(ref.data, 0.0)).max() < 1e-12

    def test_stride_two_halves_extents(self, rng):
        stage = ResidualStage(4, 8, stride=2, rng=rng, dtype=np.float64)
        with no_grad():
            out = stage(Tensor(rng.standard_normal((1, 4, 9, 6))))
        assert out.shape == (1, 8, 5, 3)        # ceil division

    def test_identity_shortcut_when_same_shape(self, rng):
        stage = ResidualStage(4, 4, stride=1, rng=rng, dtype=np.float64)
        assert not stage.project

    def test_stage_gradient_check(self, rng):
        stage = ResidualStage(3, 4, stride=2, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 3, 6, 4)), requires_grad=True)
        err = max_gradcheck_error(lambda: stage(x), [x] + stage.parameters(), coords_per_leaf=8,
                                  rng=np.random.default_rng(0))
        assert err <= 1e-4


class TestConfig:
    def test_stage_dims_follow_strides(self):
        cfg = CstnetConfig(num_identities=16)
        assert cfg.stage_dims() == [(8, 32, 16), (16, 16, 8), (32, 8, 4),
                                    (64, 4, 2), (128, 2, 1)]

    def test_insertion_points_validated(self):
        with pytest.raises(ConfigError):
            CstnetConfig(num_identities=4, insertion_points=(0, 6))

    def test_single_frame_clips_only_without_csl(self):
        with pytest.raises(ConfigError, match="clip_len must be >= 2"):
            micro_config(clip_len=1)
        for overrides in ({"with_csl": False}, {"insertion_points": ()}):
            Cstnet(micro_config(clip_len=1, **overrides))

    def test_round_trip_dict(self):
        cfg = CstnetConfig(num_identities=7, clip_len=3)
        assert CstnetConfig.from_dict(cfg.to_dict()) == cfg

    def test_paper_scale_preset_expressible(self):
        # the full-scale settings (256x128 frames, T=8, wide stages) are plain field values
        cfg = CstnetConfig(num_identities=625, clip_len=8, frame_h=256, frame_w=128,
                           stage_channels=(64, 256, 512, 1024, 2048),
                           stage_strides=(2, 2, 2, 2, 2), embedding_dim=512,
                           csl_channels=256, csl_pool_h=16, csl_pool_w=8,
                           sti_channels=128, sti_pool_h=16, sti_pool_w=8)
        assert cfg.stage_dims()[1] == (256, 64, 32)
        # every insertion's modules build at these sizes, none capped by its stage map
        rng = np.random.default_rng(0)
        for stage in cfg.insertion_points:
            c, h, w = cfg.stage_dims()[stage - 1]
            CoSaliencyLearning(c, cfg.csl_channels, cfg.csl_pool_h, cfg.csl_pool_w,
                               cfg.clip_len, h, w, rng=rng)
            SpatialTemporalInteraction(c, cfg.sti_channels, cfg.sti_pool_h, cfg.sti_pool_w,
                                       rng=rng)


class TestForward:
    def test_embedding_and_logit_shapes(self, rng):
        model = Cstnet(CstnetConfig(num_identities=16, seed=0))
        clips = rng.random((3, 4, 3, 32, 16)).astype(np.float32)
        with no_grad():
            feats, logits = model(clips)
        assert feats.shape == (3, 64)
        assert logits.shape == (3, 16)

    def test_eval_mode_is_deterministic_and_pure(self, rng):
        model = Cstnet(micro_config())
        clips = rng.random((2, 2, 3, 16, 8))
        a = model.embed_clips(clips)
        b = model.embed_clips(clips)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_no_clips_embed_to_the_model_dtype(self, dtype):
        model = Cstnet(micro_config(dtype=dtype))
        emb = model.embed_clips(np.zeros((0, 2, 3, 16, 8), np.float32))
        assert emb.shape == (0, 8) and emb.dtype == model.cfg.np_dtype

    def test_identical_clips_identical_embeddings(self, rng):
        model = Cstnet(micro_config())
        clip = rng.random((1, 2, 3, 16, 8))
        clips = np.concatenate([clip, clip], axis=0)
        emb = model.embed_clips(clips)
        assert np.array_equal(emb[0], emb[1])

    def test_wrong_clip_len_rejected(self, rng):
        model = Cstnet(micro_config())
        with pytest.raises(ContractError):
            model(rng.random((1, 3, 3, 16, 8)))

    def test_wrong_spatial_size_rejected(self, rng):
        model = Cstnet(micro_config())
        with pytest.raises(ContractError):
            model(rng.random((1, 2, 3, 32, 16)))

    def test_finite_embeddings_for_random_clips(self, rng):
        model = Cstnet(micro_config())
        for _ in range(10):
            clips = (rng.random((100, 2, 3, 16, 8)) * 4.0 - 2.0).astype(np.float64)
            emb = model.embed_clips(clips)
            assert np.isfinite(emb).all()


class TestAblationStructure:
    def test_base_has_no_insertion_parameters(self):
        model = Cstnet(micro_config(with_csl=False, with_sti=False))
        names = [n for n, _ in model.named_parameters()]
        assert not any(n.startswith(("csl", "sti")) for n in names)

    def test_empty_insertion_points_equals_base_census(self):
        base = Cstnet(micro_config(with_csl=False, with_sti=False))
        empty = Cstnet(micro_config(insertion_points=()))
        assert base.parameter_census() == empty.parameter_census()

    def test_census_is_pure_function_of_config(self):
        a = Cstnet(micro_config())
        b = Cstnet(micro_config())
        assert a.parameter_census() == b.parameter_census()
        assert a.parameter_census()["total"] == sum(p.size for p in a.parameters())

    def test_csl_only_and_sti_only_variants(self):
        csl_only = Cstnet(micro_config(with_sti=False))
        sti_only = Cstnet(micro_config(with_csl=False))
        csl_names = [n for n, _ in csl_only.named_parameters()]
        sti_names = [n for n, _ in sti_only.named_parameters()]
        assert any(n.startswith("csl") for n in csl_names)
        assert not any(n.startswith("sti") for n in csl_names)
        assert any(n.startswith("sti") for n in sti_names)
        assert not any(n.startswith("csl") for n in sti_names)


class TestPairwiseDistances:
    def test_identical_rows_are_zero(self):
        d = pairwise_distances(np.ones((3, 4)))
        assert np.array_equal(d, np.zeros((3, 3)))

    def test_three_four_five(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert abs(d[0, 1] - 5.0) < 1e-12
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    def test_loop_oracle(self, rng):
        f = rng.standard_normal((5, 3))
        d = pairwise_distances(f)
        for i in range(5):
            for j in range(5):
                ref = np.sqrt(((f[i] - f[j]) ** 2).sum())
                assert abs(d[i, j] - ref) < 1e-10

    def test_symmetry(self, rng):
        d = pairwise_distances(rng.standard_normal((6, 4)))
        assert np.abs(d - d.T).max() < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            pairwise_distances(np.array([[np.nan, 0.0]]))
        with pytest.raises(ContractError):
            pairwise_distances(np.zeros((2, 2)), np.array([[np.inf, 0.0]]))

    def test_two_sets_loop_oracle(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        d = pairwise_distances(a, b)
        assert d.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert abs(d[i, j] - np.sqrt(((a[i] - b[j]) ** 2).sum())) < 1e-10

    def test_two_sets_need_equal_dimensions(self, rng):
        with pytest.raises(DimensionError):
            pairwise_distances(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)))
