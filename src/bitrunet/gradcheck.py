"""Finite-difference verification of every differentiable kernel.

``finite_difference_grad`` is the independent oracle: central differences,
element by element, 64-bit. ``run_op_suite`` drives it over randomized
instances of each op and reports the worst relative error per op, and
``gradient_suite`` adds a full-model spot check to it; the ``gradcheck``
CLI subcommand and the acceptance tests both call that, and hold its
results to ``OP_BOUND`` and ``MODEL_BOUND``.
"""

import numpy as np

from . import tensor as T
from .model import BiTrUnetModel, ModelConfig, group_norm
from .training import TrainConfig, loss_terms


# bounds on the worst per-op and the full-model relative error
OP_BOUND = 1e-4
MODEL_BOUND = 1e-3


def finite_difference_grad(f, x, h=1e-4):
    """Central-difference gradient of scalar ``f`` with respect to ``x``.

    ``f`` is called with ``x`` after each in-place perturbation of
    ``x.data`` and must return a float (or scalar Tensor). The data buffer
    is restored before returning.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    flat = x.data.reshape(-1)
    g = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _value(f(x))
        flat[i] = orig - h
        fm = _value(f(x))
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(x.shape)


def _value(v):
    return v.item() if isinstance(v, T.Tensor) else float(v)


def relative_error(analytic, fd):
    scale = max(np.abs(fd).max(), np.abs(analytic).max(), 1e-10)
    return float(np.abs(analytic - fd).max() / scale)


def check_gradients(inputs, forward, h=1e-4):
    """Max relative error between tape gradients and finite differences.

    ``forward`` recomputes a scalar Tensor from the current contents of the
    ``inputs`` tensors, so the same closure serves both the analytic pass
    (under a tape) and the perturbed finite-difference evaluations (tape-free).
    """
    for t in inputs:
        t.zero_grad()
    with T.Tape() as tape:
        tape_loss = forward()
        tape.backward(tape_loss)
    worst = 0.0
    for t in inputs:
        if t.grad is None:
            raise AssertionError("input received no gradient")
        fd = finite_difference_grad(lambda _: forward(), t, h)
        worst = max(worst, relative_error(t.grad, fd))
    return worst


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _rand_away_from_zero(rng, shape, margin=0.1):
    d = rng.uniform(margin, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return T.Tensor(d, requires_grad=True)


def _probe(rng, out):
    # fixed random linear functional makes the upstream gradient non-uniform
    r = T.Tensor(rng.standard_normal(out))
    return lambda y: T.tsum(T.mul(y, r))


def _suite_builders():
    """name -> builder(rng) -> (inputs, forward)."""

    def b_add(rng):
        a, b = _rand(rng, (3, 4)), _rand(rng, (4,))
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(T.add(a, b))

    def b_mul(rng):
        a, b = _rand(rng, (3, 4)), _rand(rng, (3, 1))
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(T.mul(a, b))

    def b_div(rng):
        a = _rand(rng, (3, 4))
        b = T.Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(T.div(a, b))

    def b_matmul(rng):
        a, b = _rand(rng, (4, 5)), _rand(rng, (5, 3))
        p = _probe(rng, (4, 3))
        return [a, b], lambda: p(T.matmul(a, b))

    def b_matmul_batched(rng):
        a, b = _rand(rng, (2, 3, 4)), _rand(rng, (2, 4, 5))
        p = _probe(rng, (2, 3, 5))
        return [a, b], lambda: p(T.matmul(a, b))

    def b_relu(rng):
        x = _rand_away_from_zero(rng, (4, 5))
        p = _probe(rng, (4, 5))
        return [x], lambda: p(T.relu(x))

    def b_gelu(rng):
        x = _rand(rng, (4, 5), -2.0, 2.0)
        p = _probe(rng, (4, 5))
        return [x], lambda: p(T.gelu(x))

    def b_sigmoid(rng):
        x = _rand(rng, (4, 5), -3.0, 3.0)
        p = _probe(rng, (4, 5))
        return [x], lambda: p(T.sigmoid(x))

    def b_attention(rng):
        # batch 2, 2 heads, 3 features per head, 5 tokens
        q, k, v = (_rand(rng, (2, 2, 3, 5), -2.0, 2.0) for _ in range(3))
        p = _probe(rng, (2, 2, 3, 5))
        return [q, k, v], lambda: p(T.attention(q, k, v))

    def b_layer_norm(rng):
        # 6 features, 3 token columns
        x = _rand(rng, (2, 6, 3))
        g = T.Tensor(rng.uniform(0.5, 1.5, (6,)), requires_grad=True)
        b = _rand(rng, (6,))
        p = _probe(rng, (2, 6, 3))
        return [x, g, b], lambda: p(T.layer_norm(x, g, b))

    def group_norm_builder(channels, groups):
        def build(rng):
            x = _rand(rng, (2, channels, 2, 3, 2))
            g = T.Tensor(rng.uniform(0.5, 1.5, (channels,)), requires_grad=True)
            b = _rand(rng, (channels,))
            p = _probe(rng, x.shape)
            return [x, g, b], lambda: p(group_norm(x, g, b, groups))
        return build

    def b_conv3d_s1(rng):
        x = _rand(rng, (1, 2, 4, 3, 5))
        w = _rand(rng, (3, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (3,))
        p = _probe(rng, (1, 3, 4, 3, 5))
        return [x, w, bias], lambda: p(T.conv3d(x, w, bias))

    def b_conv3d_s2(rng):
        x = _rand(rng, (2, 2, 4, 4, 5))
        w = _rand(rng, (2, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (2, 2, 2, 2, 3))
        return [x, w, bias], lambda: p(T.conv3d(x, w, bias, stride=2))

    def b_conv_transpose_s2(rng):
        x = _rand(rng, (1, 3, 2, 3, 2))
        w = _rand(rng, (3, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (1, 2, 4, 6, 4))
        return [x, w, bias], lambda: p(T.conv_transpose3d(x, w, bias, stride=2))

    def b_conv_transpose_s1(rng):
        x = _rand(rng, (1, 2, 3, 4, 3))
        w = _rand(rng, (2, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (1, 2, 3, 4, 3))
        return [x, w, bias], lambda: p(T.conv_transpose3d(x, w, bias))

    def b_concat(rng):
        a, b = _rand(rng, (1, 2, 3, 3, 3)), _rand(rng, (1, 3, 3, 3, 3))
        p = _probe(rng, (1, 5, 3, 3, 3))
        return [a, b], lambda: p(T.concat([a, b], axis=1))

    def b_reshape(rng):
        x = _rand(rng, (2, 3, 4))
        p = _probe(rng, (6, 4))
        return [x], lambda: p(T.reshape(x, (6, 4)))

    def b_sum_axis(rng):
        x = _rand(rng, (3, 4, 2))
        p = _probe(rng, (3, 2))
        return [x], lambda: p(T.tsum(x, axis=1))

    def b_sum_axes(rng):
        x = _rand(rng, (2, 3, 3, 2, 4))
        p = _probe(rng, (2, 3))
        return [x], lambda: p(T.tsum(x, axis=(2, 3, 4)))

    def b_max_axis(rng):
        x = _rand(rng, (3, 4, 2))
        p = _probe(rng, (3, 1, 2))
        return [x], lambda: p(T.tmax(x, axis=1, keepdims=True))

    def loss_builder(classes):
        # batch 2, random labels, unequal weights so each term is checked
        def build(rng):
            scores = _rand(rng, (2, classes, 2, 3, 2), -2.0, 2.0)
            target = rng.integers(0, classes, (2, 2, 3, 2))
            cfg = TrainConfig(w_ce=0.7, w_dice=1.3)
            return [scores], lambda: loss_terms(scores, target, cfg)[0]
        return build

    return {
        "add": b_add,
        "mul": b_mul,
        "div": b_div,
        "matmul": b_matmul,
        "matmul_batched": b_matmul_batched,
        "relu": b_relu,
        "gelu": b_gelu,
        "sigmoid": b_sigmoid,
        "attention": b_attention,
        "layer_norm": b_layer_norm,
        # 2 groups of 2 channels; a cap of 4 on 6 channels falls back to 3 groups
        "group_norm": group_norm_builder(4, 2),
        "group_norm_uneven_cap": group_norm_builder(6, 4),
        "conv3d_stride1": b_conv3d_s1,
        "conv3d_stride2": b_conv3d_s2,
        "conv_transpose3d_stride2": b_conv_transpose_s2,
        "conv_transpose3d_stride1": b_conv_transpose_s1,
        "concat": b_concat,
        "reshape": b_reshape,
        "sum_axis": b_sum_axis,
        "sum_axes": b_sum_axes,
        "max_axis": b_max_axis,
        "loss_2_classes": loss_builder(2),
        "loss_4_classes": loss_builder(4),
    }


def run_op_suite(instances=20, seed=0, h=1e-4):
    """Per-op worst relative error over ``instances`` random instances."""
    rng = np.random.default_rng(seed)
    results = {}
    for name, builder in _suite_builders().items():
        worst = 0.0
        for _ in range(instances):
            inputs, forward = builder(rng)
            worst = max(worst, check_gradients(inputs, forward, h))
        results[name] = worst
    return results


def check_model_gradients(model, x, samples=50, seed=0, h=1e-6):
    """Spot-check tape gradients of a full model against finite differences.

    Perturbs ``samples`` randomly chosen parameter scalars. The loss is a
    fixed random linear functional (mean-scaled) of the forward output.
    Per-scalar error is |analytic - fd| / max(|fd|, |analytic|, 1e-3), the
    floor absorbing finite-difference noise on near-zero gradients.

    The network is only piecewise smooth (relu, max pooling), so a sample
    occasionally lands within the step of a kink where central differences
    straddle two branches. A genuinely wrong backward rule disagrees at
    every step size; a kink artifact vanishes once the step is inside the
    smooth piece. Each suspicious sample is therefore retried with smaller
    steps and its error is the minimum over the cascade. Returns the worst
    per-sample error.
    """
    rng = np.random.default_rng(seed)
    probe_data = rng.standard_normal(
        (x.shape[0], model.config.num_classes) + tuple(x.shape[2:])
    )
    # a mean keeps the loss O(1): the finite-difference noise floor scales
    # with the loss value, so a sum over all voxels would drown the signal
    probe = T.Tensor(probe_data.astype(model.dtype))

    def loss():
        return T.mul(T.tsum(T.mul(model.forward(x), probe)), 1.0 / probe_data.size)

    model.zero_grads()
    with T.Tape() as tape:
        tape.backward(loss())
    names = list(model.params)
    worst = 0.0
    for _ in range(samples):
        t = model.params[names[rng.integers(len(names))]]
        i = int(rng.integers(t.size))
        flat = t.data.reshape(-1)
        orig = flat[i]
        ga = float(t.grad.reshape(-1)[i])

        def err_at(step):
            flat[i] = orig + step
            fp = loss().item()
            flat[i] = orig - step
            fm = loss().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * step)
            return abs(ga - fd) / max(abs(fd), abs(ga), 1e-3)

        err = err_at(h)
        for smaller in (h / 10.0, h / 100.0):
            if err < 1e-5:
                break
            err = min(err, err_at(smaller))
        worst = max(worst, err)
    return worst


def gradient_suite(instances=20):
    """(worst relative error per op, full-model error): ``run_op_suite`` over
    ``instances`` random instances of each op, then 50 sampled parameters of
    a small float64 model at 16^3."""
    ops = run_op_suite(instances=instances, seed=0)
    cfg = ModelConfig(in_channels=2, base_width=4, num_classes=4, embed_dim=16,
                      vit_layers=1, heads=2, ffn_hidden=64, input_size=(16, 16, 16))
    model = BiTrUnetModel(cfg, seed=0, dtype=np.float64)
    x = T.Tensor(np.random.default_rng(1).standard_normal((1, 2, 16, 16, 16)))
    return ops, check_model_gradients(model, x, samples=50, seed=2)
