"""Co-saliency learning: the NCC and volume oracles' own contracts, attention
contracts, and the model's volume-free logits against the oracle."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cstnet import faults
from cstnet.csl import CoSaliencyLearning
from cstnet.errors import ConfigError, ContractError
from cstnet.gradcheck import max_gradcheck_error
from cstnet.tensor import Tensor, no_grad
from cstnet.verify import (build_channel_volume, build_spatial_volume, materialized_attention,
                           ncc)


descriptors = st.lists(st.floats(-10, 10), min_size=3, max_size=16)


class TestNcc:
    def test_self_correlation(self):
        assert abs(ncc((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) - 1.0) < 1e-4

    def test_positive_affine_invariance(self):
        assert abs(ncc((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) - 1.0) < 1e-4

    def test_anti_correlation(self):
        assert abs(ncc((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)) + 1.0) < 1e-4

    def test_constant_descriptor_is_zero_not_nan(self):
        value = ncc(np.full(4, 2.0), np.array([1.0, 2.0, 3.0, 4.0]))
        assert value == 0.0

    def test_matches_direct_formula(self):
        # p = (1, 0, 0, 0), q = (1, 1, 0, 0): covariance 1/8, stds sqrt(3)/4 and 1/2
        assert abs(ncc((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)) - 3 ** -0.5) < 1e-4
        assert ncc((0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0)) == 0.0

    @given(descriptors, descriptors.filter(lambda v: len(v) >= 3))
    def test_symmetry_exact(self, p, q):
        n = min(len(p), len(q))
        p, q = np.array(p[:n]), np.array(q[:n])
        assert ncc(p, q) == ncc(q, p)

    @given(descriptors, st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @example(values=[0.0, 0.0, 0.125], a=0.125, b=0.0)     # (a*p).std() = 0.0074: error 1.5e-3
    def test_affine_invariance(self, values, a, b):
        p = np.array(values)
        # the absolute eps costs about eps/std per argument; below 0.05 it dominates
        if p.std() < 0.05 or (a * p).std() < 0.05:
            return
        assert abs(ncc(p, a * p + b) - 1.0) <= 1e-3

    @given(descriptors, descriptors)
    def test_bounds(self, p, q):
        n = min(len(p), len(q))
        p, q = np.array(p[:n]), np.array(q[:n])
        assert abs(ncc(p, q)) <= 1.001

    def test_short_descriptor_rejected(self):
        with pytest.raises(ContractError):
            ncc(np.array([1.0]), np.array([2.0]))


class TestSpatialVolume:
    def test_shape_contract(self, rng):
        desc = rng.standard_normal((3, 4, 4, 2))
        vol = build_spatial_volume(desc, 0)
        assert vol.shape == (2 * 4 * 2, 4, 2)      # ((T-1)*H*W, H, W)

    def test_identical_frames_self_slots(self, rng):
        desc = np.tile(rng.standard_normal((1, 4, 3, 2)), (3, 1, 1, 1))
        for t in range(3):
            vol = build_spatial_volume(desc, t)
            for h in range(3):
                for w in range(2):
                    for co in range(2):       # both co-frames
                        slot = co * 6 + h * 2 + w
                        assert abs(vol[slot, h, w] - 1.0) < 1e-3

    def test_frame_out_of_range(self, rng):
        with pytest.raises(ContractError):
            build_spatial_volume(rng.standard_normal((2, 4, 3, 2)), 2)

    def test_affine_transform_of_one_frame_is_invariant(self, rng):
        desc = rng.standard_normal((3, 4, 3, 2))
        scaled = desc.copy()
        scaled[1] = 2.5 * scaled[1] + 0.7
        v0 = build_spatial_volume(desc, 0)
        v1 = build_spatial_volume(scaled, 0)
        assert np.abs(v0 - v1).max() <= 1e-3


class TestChannelVolume:
    def test_shape_contract(self, rng):
        desc = rng.standard_normal((3, 8, 2, 2))
        vol = build_channel_volume(desc, 1)
        assert vol.shape == (16, 8, 1, 1)          # ((T-1)*C, C, 1, 1)

    def test_identical_frames(self, rng):
        desc = np.tile(rng.standard_normal((1, 5, 2, 2)), (3, 1, 1, 1))
        vol = build_channel_volume(desc, 0)
        for co in range(2):
            for c in range(5):
                assert abs(vol[co * 5 + c, c, 0, 0] - 1.0) < 1e-3


@pytest.fixture
def module(rng):
    return CoSaliencyLearning(8, 4, 2, 2, clip_len=3, feat_h=4, feat_w=4, rng=rng,
                              dtype=np.float64)


class TestReduceDims:
    def test_shape_contract_full_scale_settings(self, rng):
        # C = C_L = 256 at the stage-2 width; pooled route keeps all channels
        mod = CoSaliencyLearning(256, 256, 16, 8, clip_len=8, feat_h=32, feat_w=16,
                                 rng=rng, dtype=np.float32)
        f = Tensor(rng.standard_normal((1, 8, 256, 32, 16)).astype(np.float32))
        with no_grad():
            sd, cd = mod.reduce_dims(f)
        assert sd.shape == (1, 8, 256, 32, 16)
        assert cd.shape == (1, 8, 256, 16, 8)

    def test_single_frame_clip_rejected(self, rng):
        # a frame without co-frames has nothing to correlate with
        with pytest.raises(ConfigError, match="clip_len must be >= 2"):
            CoSaliencyLearning(8, 4, 2, 2, clip_len=1, feat_h=4, feat_w=4, rng=rng)

    def test_zero_input_gives_zero_descriptors(self, module):
        with no_grad():
            sd, cd = module.reduce_dims(Tensor(np.zeros((1, 3, 8, 4, 4))))
        assert np.array_equal(sd.data, np.zeros_like(sd.data))
        assert np.array_equal(cd.data, np.zeros_like(cd.data))

    def test_pool_larger_than_map_rejected(self, rng):
        with pytest.raises(ConfigError):
            CoSaliencyLearning(8, 4, 8, 8, clip_len=2, feat_h=4, feat_w=4, rng=rng)


class TestAttention:
    def test_zero_summarize_weights_give_half_gate(self, module, rng):
        module.summarize_spatial.weight.data[...] = 0.0
        module.summarize_channel.weight.data[...] = 0.0
        with no_grad():
            att = module.attention(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
        assert np.allclose(att.z.data, 0.5, atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self, module, rng):
        with no_grad():
            att = module.attention(Tensor(rng.standard_normal((2, 3, 8, 4, 4))))
        assert att.z.data.min() > 0.0 and att.z.data.max() < 1.0

    def test_gate_is_sigmoid_of_logit_product(self, module, rng):
        with no_grad():
            att = module.attention(Tensor(rng.standard_normal((1, 3, 8, 4, 4))))
        ref = 1.0 / (1.0 + np.exp(-(att.z_s.data * att.z_c.data)))
        assert np.abs(att.z.data - ref).max() < 1e-12


class TestApply:
    def test_uniform_half_gate_halves_features(self, module, rng):
        x = rng.standard_normal((1, 3, 8, 4, 4))
        module.summarize_spatial.weight.data[...] = 0.0
        module.summarize_channel.weight.data[...] = 0.0
        with no_grad():
            out = module(Tensor(x))
        assert np.abs(out.data - 0.5 * x).max() < 1e-12

    def test_forward_is_features_times_gate(self, module, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 4, 4)))
        with no_grad():
            out = module(x)
            gate = module.attention(x).z
        assert np.array_equal(out.data, x.data * gate.data)


class TestFusedLogits:
    """The volume-free logits of ``attention`` against the materialized volumes."""

    @staticmethod
    def build(rng, t_len, c, h, w, dtype):
        mod = CoSaliencyLearning(c, 4, 2, 2, clip_len=t_len,
                                 feat_h=h, feat_w=w, rng=rng, dtype=dtype)
        mod.summarize_spatial.bias.data[...] = 0.3
        mod.summarize_channel.bias.data[...] = -0.2
        return mod, Tensor(rng.standard_normal((2, t_len, c, h, w)).astype(dtype))

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_matches_volume_path(self, rng, dtype, tol):
        for t_len in (2, 3, 4):
            for c, h, w in ((4, 2, 2), (8, 4, 4), (6, 3, 5)):
                mod, f = self.build(rng, t_len, c, h, w, dtype)
                with no_grad():
                    fused = mod.attention(f)
                    ref = materialized_attention(mod, f)
                for got, want in zip((fused.z_s, fused.z_c), ref):
                    assert got.shape == want.shape
                    err = np.abs(got.data - want).max() / max(1.0, np.abs(want).max())
                    assert err <= tol, (t_len, c, h, w, err)

    def test_summarize_parameters_gradient_check(self, rng):
        mod, f = self.build(rng, 3, 8, 4, 4, np.float64)
        leaves = [mod.summarize_spatial.weight, mod.summarize_spatial.bias,
                  mod.summarize_channel.weight, mod.summarize_channel.bias]
        err = max_gradcheck_error(lambda: mod.attention(f).z, leaves,
                                  rng=np.random.default_rng(2))
        assert err <= 1e-6, f"max relative error {err:.3e}"

    def test_sign_flip_negates_only_the_correlation_term(self, rng):
        mod, f = self.build(rng, 3, 8, 4, 4, np.float64)
        with no_grad():
            clean = mod.attention(f)
            with faults.injected("ncc-sign-flip"):
                flipped = mod.attention(f)
        # z = bias + corr and z' = bias - corr, so z + z' = 2 * bias
        assert np.abs(clean.z_s.data + flipped.z_s.data - 0.6).max() < 1e-12
        assert np.abs(clean.z_c.data + flipped.z_c.data + 0.4).max() < 1e-12
        assert np.abs(clean.z_s.data - flipped.z_s.data).max() > 1e-3


class TestFaultInjection:
    def test_sign_flip_leaves_the_ncc_oracle_untouched(self, rng):
        # the fault lives on the model's path; the oracle that catches it must not move
        p, q = rng.standard_normal(8), rng.standard_normal(8)
        clean = ncc(p, q)
        with faults.injected("ncc-sign-flip"):
            assert ncc(p, q) == clean
            assert abs(ncc(p, 2.0 * p + 0.5) - 1.0) <= 1e-3

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError), faults.injected("made-up-fault"):
            pass
