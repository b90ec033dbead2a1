"""Spatial-temporal interaction: relation maps, fusion gates, residual safety."""

import tracemalloc

import numpy as np
import pytest

from cstnet.errors import ConfigError, DimensionError
from cstnet.gradcheck import max_gradcheck_error
from cstnet.sti import SpatialTemporalInteraction
from cstnet.tensor import Tensor, add, no_grad
from cstnet.verify import sti_relations_loops


@pytest.fixture
def block(rng):
    return SpatialTemporalInteraction(8, 4, 2, 2, rng=rng, dtype=np.float64)


def randomized(block, rng, scale=0.4):
    """Give the zero-initialized output projections random weights."""
    block.out_spatial.weight.data = scale * rng.standard_normal(block.out_spatial.weight.shape)
    block.out_temporal.weight.data = scale * rng.standard_normal(block.out_temporal.weight.shape)
    return block


class TestSpatialRelation:
    def test_shape_contract(self, block, rng):
        f = Tensor(rng.standard_normal((1, 2, 8, 4, 4)))
        with no_grad():
            f_s, m_s = block.spatial_relation(f)
        assert f_s.shape == (1, 2, 8, 4, 4)
        assert m_s.shape == (1, 2, 4, 16)          # (B, T, H1*W1, H*W)

    def test_constant_input_gives_uniform_attention(self, block):
        f = Tensor(np.full((1, 2, 8, 4, 4), 1.7))
        with no_grad():
            _, m_s = block.spatial_relation(f)
        assert np.abs(m_s.data - 0.25).max() < 1e-12

    def test_columns_sum_to_one(self, block, rng):
        with no_grad():
            _, m_s = block.spatial_relation(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
        assert np.abs(m_s.data.sum(axis=2) - 1.0).max() < 1e-6

    def test_naive_attention_oracle(self, block, rng):
        """Against the per-frame loops of ``verify.sti_relations_loops``."""
        randomized(block, rng)
        f = rng.standard_normal((1, 2, 8, 4, 4))
        with no_grad():
            f_s, m_s = block.spatial_relation(Tensor(f))
        ref_f_s, _, ref_m_s, _ = sti_relations_loops(block, f)
        assert np.abs(m_s.data - ref_m_s).max() < 1e-10
        assert np.abs(f_s.data - ref_f_s).max() < 1e-10


class TestTemporalRelation:
    def test_single_frame_degenerate_softmax(self, block, rng):
        randomized(block, rng)
        f = rng.standard_normal((1, 1, 8, 4, 4))
        with no_grad():
            f_t, m_t = block.temporal_relation(Tensor(f))
        assert np.abs(m_t.data - 1.0).max() < 1e-12             # all maps [[1.0]]
        assert f_t.shape == (1, 1, 8, 4, 4)

    def test_identical_frames_uniform_attention(self, block, rng):
        one = rng.standard_normal((1, 1, 8, 4, 4))
        f = np.tile(one, (1, 3, 1, 1, 1))
        with no_grad():
            _, m_t = block.temporal_relation(Tensor(f))
        assert np.abs(m_t.data - 1.0 / 3.0).max() < 1e-9

    def test_columns_sum_to_one(self, block, rng):
        with no_grad():
            _, m_t = block.temporal_relation(Tensor(rng.standard_normal((2, 4, 8, 4, 4))))
        assert np.abs(m_t.data.sum(axis=2) - 1.0).max() < 1e-6

    def test_naive_per_position_oracle(self, block, rng):
        """Against the per-position loops of ``verify.sti_relations_loops``."""
        randomized(block, rng)
        f = rng.standard_normal((1, 3, 8, 2, 2))
        with no_grad():
            f_t, m_t = block.temporal_relation(Tensor(f))
        _, ref_f_t, _, ref_m_t = sti_relations_loops(block, f)
        assert np.abs(m_t.data - ref_m_t).max() < 1e-10
        assert np.abs(f_t.data - ref_f_t).max() < 1e-10

    def test_frame_permutation_equivariance(self, block, rng):
        randomized(block, rng)
        f = rng.standard_normal((1, 4, 8, 3, 3))
        perm = np.array([2, 0, 3, 1])
        with no_grad():
            f_t, _ = block.temporal_relation(Tensor(f))
            f_t_perm, _ = block.temporal_relation(Tensor(f[:, perm]))
        assert np.abs(f_t.data[:, perm] - f_t_perm.data).max() < 1e-10


class TestFusion:
    def test_zero_features_zero_bias_gives_half_gates_zero_output(self, block):
        z = Tensor(np.zeros((2, 2, 8, 3, 3)))
        with no_grad():
            out = block.fuse_relations(z, z)
        assert np.array_equal(out.data, np.zeros((2, 2, 8, 3, 3)))

    def test_saturated_gate_keeps_only_spatial(self, block, rng):
        f_s = rng.standard_normal((1, 2, 8, 3, 3))
        f_t = rng.standard_normal((1, 2, 8, 3, 3))
        block.gate_spatial.bias.data[...] = 50.0     # a_s -> 1
        block.gate_temporal.bias.data[...] = -50.0   # a_t -> 0
        block.gate_spatial.weight.data[...] = 0.0
        block.gate_temporal.weight.data[...] = 0.0
        with no_grad():
            out = block.fuse_relations(Tensor(f_s), Tensor(f_t))
        assert np.abs(out.data - f_s).max() < 1e-9

    def test_gates_strictly_inside_unit_interval(self, block, rng):
        f_s = Tensor(rng.standard_normal((2, 2, 8, 3, 3)))
        f_t = Tensor(rng.standard_normal((2, 2, 8, 3, 3)))
        with no_grad():
            pooled_t = f_t.data.mean(axis=(1, 3, 4))
            a_s = 1 / (1 + np.exp(-(pooled_t @ block.gate_spatial.weight.data.T
                                    + block.gate_spatial.bias.data)))
        assert (a_s > 0).all() and (a_s < 1).all()

    def test_shape_mismatch_rejected(self, block, rng):
        with pytest.raises(DimensionError):
            block.fuse_relations(Tensor(np.zeros((1, 2, 8, 3, 3))),
                                 Tensor(np.zeros((1, 2, 8, 4, 4))))

    def test_fusion_gradient_check(self, rng):
        block = SpatialTemporalInteraction(4, 2, 2, 2, rng=rng, dtype=np.float64)
        f_s = Tensor(rng.standard_normal((1, 2, 4, 2, 2)), requires_grad=True)
        f_t = Tensor(rng.standard_normal((1, 2, 4, 2, 2)), requires_grad=True)
        leaves = [f_s, f_t, block.gate_spatial.weight, block.gate_spatial.bias,
                  block.gate_temporal.weight, block.gate_temporal.bias]
        err = max_gradcheck_error(lambda: block.fuse_relations(f_s, f_t), leaves,
                                  rng=np.random.default_rng(0))
        assert err <= 1e-4


class TestForward:
    def test_zero_initialized_block_is_identity(self, block, rng):
        x = rng.standard_normal((2, 3, 8, 4, 4))
        with no_grad():
            out = block(Tensor(x))
        assert np.abs(out.data - x).max() <= 1e-12

    def test_forward_bytes_equal_the_fused_relations(self, block, rng):
        randomized(block, rng)
        f = Tensor(rng.standard_normal((2, 3, 8, 4, 4)))
        with no_grad():
            rel = block.relations(f)
            fused = add(f, block.fuse_relations(rel.f_s, rel.f_t))
            assert block(f).data.tobytes() == fused.data.tobytes()

    def test_eval_forward_transient_memory_is_bounded(self, rng):
        # stage 2 of the default model at an eval batch of 32 clips: each
        # intermediate is freed after its last reader (9.0 MB when the whole
        # chain of intermediates and both attention maps stayed alive)
        block = SpatialTemporalInteraction(16, 16, 4, 2, rng=rng)
        for conv in (block.out_spatial, block.out_temporal):
            conv.weight.data = 0.4 * rng.standard_normal(conv.weight.shape, dtype=np.float32)
        f = Tensor(rng.standard_normal((32, 4, 16, 16, 8)).astype(np.float32))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with no_grad():
                block(f)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2 ** 20

    def test_shape_preservation(self, block, rng):
        for shape in ((1, 2, 8, 4, 4), (2, 4, 8, 6, 5)):
            with no_grad():
                out = block(Tensor(rng.standard_normal(shape)))
            assert out.shape == shape

    def test_channel_mismatch_rejected(self, block, rng):
        with pytest.raises(DimensionError):
            block(Tensor(rng.standard_normal((1, 2, 4, 4, 4))))

    def test_inner_channels_above_input_rejected_at_construction(self, rng):
        with pytest.raises(ConfigError, match=r"c_1 must be in \[1, c_in=4\], got 8"):
            SpatialTemporalInteraction(4, 8, 2, 2, rng=rng, dtype=np.float64)

    def test_pooled_extents_above_map_rejected(self, block, rng):
        with pytest.raises(ConfigError, match=r"pooled extents \(2, 2\) exceed feature map"):
            block(Tensor(rng.standard_normal((1, 2, 8, 1, 4))))
