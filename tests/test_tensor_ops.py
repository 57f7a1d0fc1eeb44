"""Forward behavior of the tensor kernels against small oracles."""

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from bitrunet import kernels, reference
from bitrunet.tensor import (
    Tape,
    Tensor,
    attention,
    concat,
    conv3d,
    conv_transpose3d,
    erf,
    gelu,
    layer_norm,
    matmul,
    mul,
    tmax,
    tsum,
)

rng = np.random.default_rng(1234)


class TestConv3d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.ones((1, 1, 4, 4, 4)))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        y = conv3d(x, Tensor(w), Tensor(np.zeros(1)))
        assert np.array_equal(y.data, x.data)

    def test_stride2_halves_spatial(self):
        x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)))
        w = Tensor(rng.standard_normal((2, 1, 3, 3, 3)))
        y = conv3d(x, w, Tensor(np.zeros(2)), stride=2)
        assert y.shape == (1, 2, 2, 2, 2)

    def test_zero_input_gives_broadcast_bias(self):
        bias = rng.standard_normal(3)
        y = conv3d(
            Tensor(np.zeros((2, 2, 4, 4, 4))),
            Tensor(rng.standard_normal((3, 2, 3, 3, 3))), Tensor(bias),
        )
        assert np.array_equal(y.data, np.broadcast_to(bias[:, None, None, None], (2, 3, 4, 4, 4)))

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((1, 3, 4, 4, 4)))
        with pytest.raises(ValueError, match="axis 1.*size 3.*expected 2"):
            conv3d(x, Tensor(np.zeros((1, 2, 3, 3, 3))), None)

    def test_zero_spatial_rejected(self):
        x = Tensor(np.zeros((1, 2, 4, 0, 4)))
        with pytest.raises(ValueError, match="axis 3.*zero"):
            conv3d(x, Tensor(np.zeros((1, 2, 3, 3, 3))), None)

    @pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 3, 5), (3, 3)])
    def test_non_3x3x3_weight_rejected(self, kernel):
        x = Tensor(np.zeros((1, 2, 4, 4, 4)))
        with pytest.raises(ValueError, match="not a 3x3x3 kernel"):
            conv3d(x, Tensor(np.zeros((1, 2) + kernel)), None)
        with pytest.raises(ValueError, match="not a 3x3x3 kernel"):
            conv_transpose3d(x, Tensor(np.zeros((2, 1) + kernel)), None)


class TestConvTranspose3d:
    def test_stride2_doubles_spatial(self):
        x = Tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3, 3)))
        y = conv_transpose3d(x, w, Tensor(np.zeros(1)), stride=2)
        assert y.shape == (1, 1, 4, 4, 4)

    def test_zero_input_gives_bias(self):
        bias = rng.standard_normal(2)
        y = conv_transpose3d(
            Tensor(np.zeros((1, 3, 2, 2, 2))),
            Tensor(rng.standard_normal((3, 2, 3, 3, 3))), Tensor(bias), stride=2,
        )
        assert np.array_equal(y.data, np.broadcast_to(bias[:, None, None, None], (1, 2, 4, 4, 4)))

    def test_channel_mismatch_names_axis(self):
        # the transposed weight is (Cin, Cout, 3, 3, 3)
        x = Tensor(np.zeros((1, 3, 2, 2, 2)))
        with pytest.raises(ValueError, match="axis 1.*size 3.*expected 2"):
            conv_transpose3d(x, Tensor(np.zeros((2, 3, 3, 3, 3))), None)


class TestMatmul:
    def test_identity(self):
        b = rng.standard_normal((3, 2))
        assert np.allclose(matmul(Tensor(np.eye(3)), Tensor(b)).data, b)

    def test_known_2x2_product(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestLayerNorm:
    """Tokens are columns: each token's row of features runs down axis -2
    and is normalized there."""

    def test_constant_row_collapses_to_zero(self):
        x = Tensor(np.full((5, 2), 3.7))
        y = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.abs(y.data).max() < 1e-3

    def test_already_normalized_row(self):
        x = Tensor(np.array([[1.0], [-1.0]]))
        y = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(y.data, [[1.0], [-1.0]], atol=1e-6)

    def test_random_row_statistics(self):
        x = Tensor(rng.standard_normal((2, 32, 4)))
        y = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert y.shape == (2, 32, 4)
        assert np.abs(y.mean(axis=-2)).max() < 1e-6
        assert np.abs(y.var(axis=-2) - 1.0).max() < 1e-4

    def test_affine_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            layer_norm(Tensor(np.zeros((5, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def _composed_attention(q, k, v, gy):
    """Output and (q, k, v) gradients of attention composed from six tape
    ops (transpose, matmul, scale, softmax, transpose, matmul), in plain
    numpy with the arithmetic and memory layouts each of those ops used."""
    scale = np.asarray(1.0 / np.sqrt(q.shape[-2]), dtype=q.dtype)
    qt = np.ascontiguousarray(q.swapaxes(-1, -2))
    s = np.matmul(qt, k) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    pt = np.ascontiguousarray(p.swapaxes(-1, -2))
    y = np.matmul(v, pt)
    gv = np.matmul(gy, pt.swapaxes(-1, -2))
    gp = np.ascontiguousarray(np.matmul(v.swapaxes(-1, -2), gy).swapaxes(-1, -2))
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    gq = np.ascontiguousarray(np.matmul(gs, k.swapaxes(-1, -2)).swapaxes(-1, -2))
    gk = np.matmul(qt.swapaxes(-1, -2), gs)
    return y, gq, gk, gv


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("n", [5, 64])
    def test_equals_the_composed_ops_bit_for_bit(self, dtype, heads, n):
        shape = (2, heads, 8, n)
        qkv = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
               for _ in range(3)]
        probe = Tensor(rng.standard_normal(shape).astype(dtype))
        with Tape() as tape:
            y = attention(*qkv)
            assert len(tape.nodes) == 1
            # the probe passes through tsum and mul unchanged as y's gradient
            tape.backward(tsum(mul(y, probe)))
        want = _composed_attention(*(t.data for t in qkv), probe.data)
        for got, ref in zip([y.data] + [t.grad for t in qkv], want):
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)


class TestPointwiseAndShape:
    def test_softmax_symmetry(self):
        # equal scores weight every token alike: each output is v's mean
        v = rng.standard_normal((1, 2, 3, 6))
        k = Tensor(rng.standard_normal((1, 2, 3, 6)))
        y = attention(Tensor(np.zeros((1, 2, 3, 6))), k, Tensor(v)).data
        assert np.allclose(y, np.broadcast_to(v.mean(axis=-1, keepdims=True), y.shape))

    def test_softmax_rows_are_probability_vectors(self):
        # with v the identity, output column i holds token i's weights
        q, k = (Tensor(rng.standard_normal((1, 7, 7)) * 10) for _ in range(2))
        y = attention(q, k, Tensor(np.eye(7)[None])).data
        assert (y >= 0).all()
        assert np.abs(y.sum(axis=-2) - 1.0).max() < 1e-12

    def test_concat_channels(self):
        a, b = np.zeros((1, 2, 3, 3, 3)), np.ones((1, 3, 3, 3, 3))
        y = concat([Tensor(a), Tensor(b)], axis=1)
        assert y.shape == (1, 5, 3, 3, 3)
        assert np.array_equal(y.data, np.concatenate([a, b], axis=1))

    def test_max_axis(self):
        x = rng.standard_normal((2, 5, 3))
        assert np.array_equal(tmax(Tensor(x), axis=1, keepdims=True).data, x.max(1, keepdims=True))


class TestErf:
    """The numpy erf against scipy.special.erf, its oracle."""

    def test_float64_grid_within_one_ulp(self):
        # both branches, the 1 and 6 switch points and both tails
        x = np.linspace(-30.0, 30.0, 2_000_001)
        got, want = erf(x), scipy_erf(x)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_switch_points_within_one_ulp(self):
        edges = np.array([1.0, 6.0])
        x = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 7.0)])
        x = np.concatenate([x, -x])
        got, want = erf(x), scipy_erf(x)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_special_values_bit_equal(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                      np.finfo(np.float64).smallest_normal * 0.75, -1e-310,
                      1e300, -1e300])
        got, want = erf(x), scipy_erf(x)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got, want, equal_nan=True)
        assert got[2:4].tolist() == [1.0, -1.0]
        assert np.isnan(got[4])

    def test_float32_subnormals_bit_equal(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([tiny, -tiny, tiny * 1000, -np.finfo(np.float32).smallest_normal / 3],
                     dtype=np.float32)
        assert np.array_equal(erf(x).view(np.uint32), scipy_erf(x).view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_returns_the_input_dtype_and_shape(self, dtype):
        # float32 is bit-equal to scipy; float64 is within 1 ulp, as on the grid
        x = np.random.default_rng(11).standard_normal((3, 4, 5)).astype(dtype)
        for arg in (x, x[:, ::2, 1:], x[0, 0, 0], x[:0]):
            got, want = erf(arg), scipy_erf(arg)
            assert (got.dtype, got.shape) == (np.dtype(dtype), np.shape(arg))
            if dtype == np.float32:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_float32_normal_samples_bit_equal(self):
        # 1.25 M samples: more than one block, and a partial last block
        x = np.random.default_rng(7).standard_normal(1_250_003).astype(np.float32)
        got, want = erf(x), scipy_erf(x)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_gelu_stays_float32(self):
        x = Tensor(rng.standard_normal((2, 8, 16)).astype(np.float32))
        y = gelu(x).data
        want = x.data * (0.5 * (1.0 + scipy_erf(x.data / np.float32(np.sqrt(2.0)))))
        assert y.dtype == np.float32
        assert np.allclose(y, want, rtol=1e-6, atol=1e-7)


class TestAdjointness:
    """<K(x), y> == <x, K^T(y)> for matmul's backward rule, 64-bit; the
    conv kernels' adjointness is an entry of ``reference.CHECKS``."""

    def _check(self, fwd, adj, x_shape, y_shape):
        for _ in range(5):
            x = rng.standard_normal(x_shape)
            y = rng.standard_normal(y_shape)
            lhs = float((fwd(x) * y).sum())
            rhs = float((x * adj(y)).sum())
            assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-6

    def test_matmul_fixed_left(self):
        # forward through the op, adjoint through the backward rule it records
        a = Tensor(rng.standard_normal((4, 6)))

        def adjoint(y):
            x = Tensor(np.zeros((6, 3)), requires_grad=True)
            with Tape() as tape:
                matmul(a, x)
            (node,) = tape.nodes
            node.rule(y)
            return x.grad

        self._check(lambda x: matmul(a, Tensor(x)).data, adjoint, (6, 3), (4, 3))


class TestKernelBackends:
    """The convolution primitives against the naive 7-loop oracle: the
    forward pass directly, both gradients through the adjoint identity
    <conv(x, w), gy> == <x, input_grad(gy)> == <w, weight_grad(x, gy)>."""

    # extents of one and two voxels, mixed extents, odd extents at stride 2
    # with and without padding, a batch of 2; float64 within 1e-10, float32
    # within the 1e-4 bound of the op-gradient suite
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-4)])
    @pytest.mark.parametrize("spatial,stride,pad", [
        ((1, 1, 1), 1, 1), ((2, 2, 2), 1, 1), ((2, 3, 4), 1, 1),
        ((1, 1, 1), 2, 1), ((2, 2, 2), 2, 1), ((2, 3, 4), 2, 1),
        ((5, 7, 3), 2, 0), ((5, 7, 3), 2, 1), ((3, 5, 9), 2, 0), ((7, 3, 5), 2, 1),
    ])
    def test_edge_extents(self, spatial, stride, pad, dtype, tol):
        local = np.random.default_rng(5)
        x = local.standard_normal((2, 3) + spatial)
        w = local.standard_normal((4, 3, 3, 3, 3))
        ref = reference.naive_conv3d(x, w, stride, pad)
        gy = local.standard_normal(ref.shape)
        errors = reference.conv_kernel_errors(x, w, gy, stride, pad, ref, dtype)
        assert all(e < tol for e in errors), errors

    @pytest.mark.parametrize("stride", [1, 2])
    def test_float32_in_float32_out(self, stride):
        x = rng.standard_normal((2, 3, 6, 5, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        y = kernels.conv3d_forward(x, w, stride, 1)
        gy = rng.standard_normal(y.shape).astype(np.float32)
        gx = kernels.conv3d_input_grad(gy, w, stride, 1, x.shape[2:])
        gw = kernels.conv3d_weight_grad(x, gy, stride, 1, (3, 3, 3))
        assert (y.dtype, gx.dtype, gw.dtype) == (np.float32,) * 3

    def test_out_size_arithmetic(self):
        assert kernels.conv_out_size(4, 3, 2, 1) == 2
        assert kernels.conv_out_size(5, 3, 2, 1) == 3
        assert kernels.conv_out_size(7, 3, 1, 1) == 7
