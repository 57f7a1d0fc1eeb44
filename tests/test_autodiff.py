"""Reverse-mode gradients against the central finite-difference oracle."""

import numpy as np
import pytest

from bitrunet import kernels
from bitrunet import tensor as T
from bitrunet.reference import finite_difference_grad, gradient_error
from bitrunet.tensor import (
    Tape,
    Tensor,
    add,
    conv3d,
    conv_transpose3d,
    div,
    matmul,
    mul,
    relu,
    sigmoid,
    tsum,
)

rng = np.random.default_rng(99)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(tsum(x))
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_half_quadratic_gradient_is_x(self):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        with Tape() as tape:
            tape.backward(mul(tsum(mul(x, x)), 0.5))
        assert np.allclose(x.grad, x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_empty_tape_rejected(self):
        with Tape() as tape:
            with pytest.raises(ValueError, match="empty"):
                tape.backward(Tensor(np.asarray(1.0)))

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.asarray([2.0]), requires_grad=True)
        with Tape() as tape:
            tape.backward(tsum(mul(x, x)))  # d/dx x^2 = 2x
        assert np.allclose(x.grad, [4.0])

    def test_backward_consumes_the_tape(self):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            loss = tsum(y)
            tape.backward(loss)
        assert len(tape.nodes) == 2 and tape.nodes == [None, None]
        assert y.grad is None and loss.grad is None
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_second_backward_on_a_spent_tape_raises(self):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
            first = x.grad.copy()
            with pytest.raises(RuntimeError, match="backward already ran on this tape"):
                tape.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_first_gradient_is_contiguous_in_the_tensors_dtype(self):
        # a strided slice of concat's gradient and a float64 product: the
        # slot keeps neither the strides nor the dtype
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        r = Tensor(rng.standard_normal((2, 3, 6)))
        with Tape() as tape:
            tape.backward(tsum(mul(T.concat([x, Tensor(np.zeros((2, 3, 2)))], axis=2), r)))
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous
        assert np.array_equal(x.grad, r.data[..., :4].astype(np.float32))

    def test_no_recording_without_tape(self):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        y = mul(x, 2.0)
        assert y.requires_grad is False


class TestFiniteDifferenceOracle:
    def test_sum_gives_ones(self):
        x = Tensor(rng.standard_normal((2, 3)))
        g = finite_difference_grad(lambda t: float(t.data.sum()), x)
        assert np.allclose(g, 1.0)

    def test_square_at_three(self):
        x = Tensor(np.asarray([3.0]))
        g = finite_difference_grad(lambda t: float(t.data[0] ** 2), x, h=1e-4)
        assert abs(g[0] - 6.0) < 1e-7

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda t: 0.0, Tensor(np.zeros(2)), h=0.0)

    def test_matches_backward_on_two_layer_net(self):
        w1 = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((1, 4)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((3, 2)))

        def forward():
            return tsum(sigmoid(matmul(w2, relu(matmul(w1, x)))))

        assert gradient_error([w1, w2], forward, h=1e-5) < 1e-6


class TestOpGradientSuite:
    def test_conv3d_gradients_directly(self):
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 2, 2, 2, 2)))

        def forward():
            return tsum(mul(conv3d(x, w, b, stride=2), probe))

        assert gradient_error([x, w, b], forward) < 1e-6


class TestDeadGradients:
    """A binary op's rule computes no gradient for an operand that needs none."""

    @pytest.mark.parametrize("op", [add, mul, div, matmul])
    @pytest.mark.parametrize("needs", [(True, False), (False, True)])
    def test_only_needed_operands_get_a_gradient_expression(self, monkeypatch, op, needs):
        shapes = []
        unbroadcast = T._unbroadcast
        monkeypatch.setattr(
            T, "_unbroadcast", lambda g, shape: shapes.append(shape) or unbroadcast(g, shape)
        )
        b_shape = (4, 2) if op is matmul else (1, 4)
        a = Tensor(rng.uniform(0.5, 1.5, (3, 4)), requires_grad=needs[0])
        b = Tensor(rng.uniform(0.5, 1.5, b_shape), requires_grad=needs[1])
        with Tape() as tape:
            tape.backward(tsum(op(a, b)))
        assert shapes == [(a.shape, b_shape)[needs.index(True)]]
        assert (a.grad is not None, b.grad is not None) == needs


class TestDeadConvGradients:
    """A conv rule computes only the gradients whose operand requires one."""

    @pytest.mark.parametrize("op,input_kernel", [
        (conv3d, "conv3d_input_grad"),
        (conv_transpose3d, "conv3d_forward"),
    ])
    @pytest.mark.parametrize("x_grad,w_grad", [(False, True), (True, False)])
    def test_only_needed_gradients_are_computed(
        self, monkeypatch, op, input_kernel, x_grad, w_grad
    ):
        calls = []
        for name in (input_kernel, "conv3d_weight_grad"):
            fn = getattr(kernels, name)
            monkeypatch.setattr(
                kernels, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
            )
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=w_grad)
        with Tape() as tape:
            y = op(x, w, None)
            calls.clear()
            tape.backward(tsum(y))
        assert calls == [input_kernel if x_grad else "conv3d_weight_grad"]
        assert (x.grad is not None, w.grad is not None) == (x_grad, w_grad)
