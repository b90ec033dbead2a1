"""Spatial-temporal interaction: relation maps, fusion gates, residual safety."""

import numpy as np
import pytest

from cstnet.errors import ConfigError, DimensionError
from cstnet.gradcheck import max_gradcheck_error
from cstnet.sti import SpatialTemporalInteraction, StiConfig
from cstnet.tensor import Tensor, constant, mul, no_grad, tsum


@pytest.fixture
def block(rng):
    return SpatialTemporalInteraction(StiConfig(c_in=8, c_1=4, h_1=2, w_1=2),
                                      rng=rng, dtype=np.float64)


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
        """Recompute per frame with explicit loops from the block's weights."""
        randomized(block, rng)
        f = rng.standard_normal((1, 2, 8, 4, 4))
        with no_grad():
            f_s, m_s = block.spatial_relation(Tensor(f))
        wqk = block.qk_spatial.weight.data.reshape(4, 8)
        bqk = block.qk_spatial.bias.data
        wv = block.v_spatial.weight.data.reshape(4, 8)
        bv = block.v_spatial.bias.data
        wo = block.out_spatial.weight.data.reshape(8, 4)
        bo = block.out_spatial.bias.data
        for t in range(2):
            frame = f[0, t]                                     # (8, 4, 4)
            qk = np.einsum("oc,chw->ohw", wqk, frame) + bqk[:, None, None]
            v = np.einsum("oc,chw->ohw", wv, frame) + bv[:, None, None]
            # adaptive 2x2 pooling of k and v
            k_p = qk.reshape(4, 2, 2, 2, 2).mean(axis=(2, 4)).reshape(4, 4)
            v_p = v.reshape(4, 2, 2, 2, 2).mean(axis=(2, 4)).reshape(4, 4)
            q = qk.reshape(4, 16)
            scores = k_p.T @ q                                  # (4, 16)
            e = np.exp(scores - scores.max(axis=0, keepdims=True))
            m_ref = e / e.sum(axis=0, keepdims=True)
            att = v_p @ m_ref                                   # (4, 16)
            out_ref = np.maximum(
                np.einsum("oc,cp->op", wo, att) + bo[:, None], 0.0).reshape(8, 4, 4)
            assert np.abs(m_s.data[0, t] - m_ref).max() < 1e-10
            assert np.abs(f_s.data[0, t] - out_ref).max() < 1e-10


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
        randomized(block, rng)
        f = rng.standard_normal((1, 3, 8, 2, 2))
        with no_grad():
            f_t, m_t = block.temporal_relation(Tensor(f))
        wqk, bqk = block.qk_temporal.weight.data, block.qk_temporal.bias.data
        wv, bv = block.v_temporal.weight.data, block.v_temporal.bias.data
        wo, bo = block.out_temporal.weight.data, block.out_temporal.bias.data
        for h in range(2):
            for w in range(2):
                x = f[0, :, :, h, w]                            # (T, C)
                qk = x @ wqk.T + bqk                            # (T, C1)
                v = x @ wv.T + bv
                scores = qk @ qk.T                              # (T_key, T_query)
                e = np.exp(scores - scores.max(axis=0, keepdims=True))
                m_ref = e / e.sum(axis=0, keepdims=True)
                att = (v.T @ m_ref).T                           # (T, C1)
                out_ref = np.maximum(att @ wo.T + bo, 0.0)      # (T, C)
                pos = h * 2 + w
                assert np.abs(m_t.data[0, pos] - m_ref).max() < 1e-10
                assert np.abs(f_t.data[0, :, :, h, w] - out_ref).max() < 1e-10

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
        block = SpatialTemporalInteraction(StiConfig(c_in=4, c_1=2, h_1=2, w_1=2),
                                           rng=rng, dtype=np.float64)
        f_s = Tensor(rng.standard_normal((1, 2, 4, 2, 2)), requires_grad=True)
        f_t = Tensor(rng.standard_normal((1, 2, 4, 2, 2)), requires_grad=True)
        proj = rng.standard_normal((1, 2, 4, 2, 2))
        leaves = [f_s, f_t, block.gate_spatial.weight, block.gate_spatial.bias,
                  block.gate_temporal.weight, block.gate_temporal.bias]
        err = max_gradcheck_error(
            lambda: tsum(mul(block.fuse_relations(f_s, f_t), constant(proj))),
            leaves, rng=np.random.default_rng(0))
        assert err <= 1e-4


class TestForward:
    def test_zero_initialized_block_is_identity(self, block, rng):
        x = rng.standard_normal((2, 3, 8, 4, 4))
        with no_grad():
            out = block(Tensor(x))
        assert np.abs(out.data - x).max() <= 1e-12

    def test_shape_preservation(self, block, rng):
        for shape in ((1, 2, 8, 4, 4), (2, 4, 8, 6, 5)):
            with no_grad():
                out = block(Tensor(rng.standard_normal(shape)))
            assert out.shape == shape

    def test_channel_mismatch_rejected(self, block, rng):
        with pytest.raises(DimensionError):
            block(Tensor(rng.standard_normal((1, 2, 4, 4, 4))))

    def test_inner_channels_capped_by_config_validation(self, rng):
        cfg = StiConfig(c_in=4, c_1=8, h_1=2, w_1=2)
        block = SpatialTemporalInteraction(cfg, rng=rng, dtype=np.float64)
        with pytest.raises(ConfigError):
            block(Tensor(rng.standard_normal((1, 2, 4, 4, 4))))
