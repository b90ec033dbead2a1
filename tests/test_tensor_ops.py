"""Forward semantics of the tensor ops against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstnet import tensor as T
from cstnet.errors import ContractError, DimensionError, NumericError
from cstnet.tensor import Tensor
from cstnet.verify import conv2d_loops, matmul_loops, pool_loops


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_zeros(self):
        out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.random.default_rng(0).random((3, 4))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_triple_loop_oracle(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        assert np.abs(T.matmul(Tensor(a), Tensor(b)).data - matmul_loops(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_batch_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 4))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor(np.array([0.0, 0.0])), 0)
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_constant_slice(self):
        out = T.softmax(Tensor(np.full(3, 7.3)), 0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_exp_normalize_oracle(self):
        v = np.array([1.0, 2.0, 3.0])
        ref = np.exp(v) / np.exp(v).sum()
        assert np.abs(T.softmax(Tensor(v), 0).data - ref).max() < 1e-12

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(Tensor(np.array([np.nan, 1.0])), 0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    def test_slices_sum_to_one(self, values):
        out = T.softmax(Tensor(np.array(values)), 0).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out > 0).all() and (out < 1.0 + 1e-12).all()

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_shift_invariance(self, values, shift):
        v = np.array(values)
        a = T.softmax(Tensor(v), 0).data
        b = T.softmax(Tensor(v + shift), 0).data
        assert np.abs(a - b).max() < 1e-9

    def test_large_values_stable(self):
        out = T.softmax(Tensor(np.array([1000.0, 1000.0])), 0).data
        assert np.allclose(out, [0.5, 0.5])


class TestConv2d:
    def test_channel_identity_kernel(self, rng):
        x = rng.standard_normal((1, 3, 4, 4))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w))
        assert np.abs(out.data - x).max() < 1e-15

    def test_zero_kernel(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        out = T.conv2d(Tensor(x), Tensor(np.zeros((4, 2, 3, 3))), padding=1)
        assert np.array_equal(out.data, np.zeros((2, 4, 5, 5)))

    def test_naive_sliding_window_oracle(self, rng):
        # every geometry the model builds: 3x3 stride 1 and 2 (padding 1),
        # 1x1 stride 1 with a bias, 1x1 stride 2; N=2, C_in=3, a 7x5 map
        cases = ((3, 1, 1, False), (3, 2, 1, False), (1, 1, 0, True), (1, 2, 0, False))
        for k, stride, padding, with_bias in cases:
            x = rng.standard_normal((2, 3, 7, 5))
            w = rng.standard_normal((4, 3, k, k))
            b = rng.standard_normal(4) if with_bias else None
            ref = conv2d_loops(x, w, b, stride, padding)
            for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-5)):
                got = T.conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)),
                               None if b is None else Tensor(b.astype(dtype)),
                               stride=stride, padding=padding).data
                assert got.dtype == dtype and got.shape == ref.shape
                assert got.flags.c_contiguous
                assert np.abs(got - ref).max() < tol, (k, stride, dtype)

    def test_strided_extent_formula(self, rng):
        x = rng.standard_normal((1, 1, 7, 5))
        w = rng.standard_normal((1, 1, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(w), stride=2, padding=1)
        assert out.shape == (1, 1, (7 + 2 - 3) // 2 + 1, (5 + 2 - 3) // 2 + 1)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channels"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 5, 1, 1))))


class TestAdaptiveAvgPool:
    def test_identity_when_same_size(self, rng):
        x = rng.standard_normal((1, 2, 3, 5))
        out = T.adaptive_avg_pool2d(Tensor(x), 3, 5)
        assert np.abs(out.data - x).max() < 1e-15

    def test_constant_input(self):
        x = np.full((1, 1, 4, 4), 2.5)
        out = T.adaptive_avg_pool2d(Tensor(x), 2, 2)
        assert np.allclose(out.data, 2.5)

    def test_bin_mean_oracle(self):
        # frozen from the bin-mean definition on 1..16 in a 4x4 grid
        x = np.arange(1.0, 17.0).reshape(1, 1, 4, 4)
        out = T.adaptive_avg_pool2d(Tensor(x), 2, 2)
        assert np.abs(out.data[0, 0] - np.array([[3.5, 5.5], [11.5, 13.5]])).max() < 1e-12

    def test_uneven_bins_match_definition(self, rng):
        x = rng.standard_normal((1, 1, 5, 3))
        out = T.adaptive_avg_pool2d(Tensor(x), 3, 2).data
        assert np.abs(out - pool_loops(x, 3, 2)).max() < 1e-12

    def test_global_pool_equals_mean(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        out = T.adaptive_avg_pool2d(Tensor(x), 1, 1).data
        assert np.abs(out[..., 0, 0] - x.mean(axis=(2, 3))).max() < 1e-9

    def test_divisible_and_uneven_bins_forward_and_backward(self, rng):
        # one pooling path serves both bin layouts; the backward spreads each
        # output gradient evenly over its bin
        for shape, (oh, ow) in (((2, 3, 4, 6), (2, 3)), ((2, 3, 5, 4), (3, 2))):
            n, c, h, w = shape
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            g = rng.standard_normal((n, c, oh, ow))
            out = T.adaptive_avg_pool2d(x, oh, ow)
            T.tsum(T.mul(out, T.constant(g))).backward()
            dref = np.zeros(shape)
            for i in range(oh):
                for j in range(ow):
                    hs, he = (i * h) // oh, -((-(i + 1) * h) // oh)
                    ws, we = (j * w) // ow, -((-(j + 1) * w) // ow)
                    dref[:, :, hs:he, ws:we] += g[:, :, i:i + 1, j:j + 1] / ((he - hs) * (we - ws))
            assert np.abs(out.data - pool_loops(x.data, oh, ow)).max() < 1e-12
            assert np.abs(x.grad - dref).max() < 1e-12

    def test_zero_extent_rejected(self):
        with pytest.raises(DimensionError):
            T.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 0, 2)

    def test_upsampling_rejected(self):
        with pytest.raises(DimensionError):
            T.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 8, 2)


class TestPointwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_relu_definition(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_range(self, rng):
        out = T.sigmoid(Tensor(rng.standard_normal(100) * 50)).data
        assert (out >= 0).all() and (out <= 1).all()

    def test_broadcast_singleton_extents(self, rng):
        a = rng.standard_normal((1, 4, 4))
        b = rng.standard_normal((3, 1, 1))
        out = T.mul(Tensor(a), Tensor(b))
        assert out.shape == (3, 4, 4)
        assert np.abs(out.data - a * b).max() < 1e-15

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 3\)"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))))

    def test_reshape_round_trip_identity(self, rng):
        x = rng.standard_normal((3, 4, 5))
        back = T.reshape(T.reshape(Tensor(x), (12, 5)), (3, 4, 5))
        assert np.array_equal(back.data, x)

    def test_reshape_bad_count(self):
        with pytest.raises(DimensionError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_permute_inverse(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = T.permute(T.permute(Tensor(x), (2, 0, 1)), (1, 2, 0))
        assert np.array_equal(out.data, x)


class TestBatchNorm:
    def test_statistics_oracle(self, rng):
        # per-channel mean 3, std 2 -> normalized output has mean 0, std 1
        from cstnet.nn import BatchNorm2d
        x = rng.standard_normal((8, 3, 4, 4)) * 2.0 + 3.0
        bn = BatchNorm2d(3, dtype=np.float64)
        out = bn(Tensor(x)).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.std(axis=(0, 2, 3)) - 1.0).max() < 1e-3

    def test_eval_uses_running_stats(self, rng):
        from cstnet.nn import BatchNorm2d
        bn = BatchNorm2d(2, dtype=np.float64)
        x = rng.standard_normal((16, 2, 3, 3)) + 5.0
        for _ in range(100):
            bn(Tensor(x))
        bn.eval()
        y = bn(Tensor(x)).data
        # running stats converge to the batch stats, so eval output ~ normalized
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 0.05

    def test_gamma_beta_shape_check(self, rng):
        from cstnet.tensor import batch_norm
        with pytest.raises(DimensionError):
            batch_norm(Tensor(rng.standard_normal((2, 3, 2, 2))),
                       Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       np.zeros(3), np.ones(3), training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_float64_two_pass_reference(self, rng, training):
        # output, running buffers and all three gradients against np.var
        # statistics and the textbook backward, all in float64
        x = rng.standard_normal((4, 3, 5, 2)) * 2.0 + 1.5
        gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
        mean0, var0 = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        g = rng.standard_normal(x.shape)
        xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta))
        running_mean, running_var = mean0.copy(), var0.copy()
        out = T.batch_norm(xt, gt, bt, running_mean, running_var, training=training)
        T.tsum(T.mul(out, T.constant(g))).backward()

        axes, shape = (0, 2, 3), (1, 3, 1, 1)
        mu, var = (x.mean(axis=axes), x.var(axis=axes)) if training else (mean0, var0)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu.reshape(shape)) * inv.reshape(shape)
        ref = gamma.reshape(shape) * xhat + beta.reshape(shape)
        dgamma, dbeta = (g * xhat).sum(axis=axes), g.sum(axis=axes)
        dxhat = g * gamma.reshape(shape)
        if training:
            m = x.size // 3
            dx = inv.reshape(shape) / m * (m * dxhat - dxhat.sum(axis=axes, keepdims=True)
                                           - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
            assert np.abs(running_mean - (0.9 * mean0 + 0.1 * mu)).max() < 1e-12
            assert np.abs(running_var - (0.9 * var0 + 0.1 * var)).max() < 1e-12
        else:
            dx = dxhat * inv.reshape(shape)
            assert np.array_equal(running_mean, mean0) and np.array_equal(running_var, var0)
        assert np.abs(out.data - ref).max() < 1e-12
        assert np.abs(xt.grad - dx).max() < 1e-12
        assert np.abs(gt.grad - dgamma).max() < 1e-12
        assert np.abs(bt.grad - dbeta).max() < 1e-12


class TestReductionsAndGather:
    def test_index_select_duplicates(self, rng):
        x = rng.standard_normal((4, 2))
        out = T.index_select(Tensor(x), 0, [1, 1, 3])
        assert np.array_equal(out.data, x[[1, 1, 3]])

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            T.index_select(Tensor(np.zeros((2, 2))), 0, [2])

    def test_concat_matches_numpy(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
        out = T.concat([Tensor(a), Tensor(b)], 1)
        assert np.array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_reduce_max_min(self, rng):
        x = rng.standard_normal((3, 5))
        assert np.array_equal(T.reduce_max(Tensor(x), 1).data, x.max(axis=1))
        assert np.array_equal(T.reduce_min(Tensor(x), 0).data, x.min(axis=0))

    def test_standardize_moments(self, rng):
        x = rng.standard_normal((4, 16)) * 3.0 + 1.0
        out = T.standardize(Tensor(x), -1, 1e-8).data
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.std(axis=1) - 1.0).max() < 1e-6
