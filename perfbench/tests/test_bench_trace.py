"""The tracer: patching and unpatching, counts, and self time."""

import numpy as np
import pytest

import tracing
from bitrunet import kernels, model, tensor, training
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.tensor import Tape, Tensor


def small_model():
    cfg = ModelConfig(in_channels=4, base_width=4, num_classes=4, embed_dim=16,
                      vit_layers=1, heads=2, ffn_hidden=32, input_size=(16, 16, 16))
    return BiTrUnetModel(cfg, seed=0, dtype=np.float32)


def bindings():
    return {
        "kernels.conv3d_forward": kernels.conv3d_forward,
        "tensor.conv3d": tensor.conv3d,
        "model.conv3d": model.conv3d,
        "model.group_norm": model.group_norm,
        "training.save_checkpoint": training.save_checkpoint,
        "ConvBlock.__call__": model.ConvBlock.__call__,
        "Tape.backward": Tape.backward,
    }


def test_install_rebinds_every_lookup_and_uninstall_restores_it():
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert all(during[k] is not before[k] for k in before)
        # an imported name is rebound to the same wrapper as its original
        assert model.conv3d is tensor.conv3d
    finally:
        tracer.uninstall()
    assert bindings() == before
    with pytest.raises(RuntimeError):
        tracer.install()
        tracer.install()
    tracer.uninstall()


def test_training_step_records_kernels_tape_nodes_and_nested_spans():
    m = small_model()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 16, 16, 16)), dtype=np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with Tape() as tape:
            scores = m.forward(x)
            total = tensor.tsum(tensor.mul(scores, scores))
            tape.backward(total)
            nodes = len(tape.nodes)
    finally:
        tracer.uninstall()
    rows = tracer.summary()
    assert rows["tensor"]["tape_nodes"] == nodes
    assert rows["model.forward"]["calls"] == 1
    fwd = rows["kernels.conv3d_forward"]
    assert fwd["calls"] > 0 and fwd["gflop"] > 0
    assert rows["kernels.conv3d_weight_grad"]["calls"] > 0
    for row in rows.values():
        assert row["self_s"] <= row["busy_s"] + 1e-9 or row["calls"] == 0
    # every kernel span sits inside a conv op span
    names = [s[0] for s in tracer.spans]
    for name, _, _, parent, _ in tracer.spans:
        if name == "kernels.conv3d_forward" and parent >= 0:
            assert names[parent] in ("tensor.conv3d", "tensor.conv_transpose3d",
                                     "tensor.Tape.backward")


def test_forward_gflop_is_the_multiply_add_count():
    x = np.zeros((1, 3, 8, 8, 8))
    w = np.zeros((5, 3, 3, 3, 3))
    # stride 2, pad 1: 4^3 outputs, each 3*27 multiply-adds per output channel
    assert tracing._forward_gflop(x, w, 2, 1) == pytest.approx(2 * 5 * 3 * 27 * 64 / 1e9)
    gy = np.zeros((1, 5, 4, 4, 4))
    assert tracing._input_grad_gflop(gy, w, 2, 1, (8, 8, 8)) == pytest.approx(
        tracing._forward_gflop(x, w, 2, 1))
    assert tracing._weight_grad_gflop(x, gy, 2, 1, (3, 3, 3)) == pytest.approx(
        tracing._forward_gflop(x, w, 2, 1))


def test_float64_kernel_operands_are_counted():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kernels.conv3d_forward(np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 3, 3, 3)), 1, 1)
        kernels.conv3d_forward(np.zeros((1, 1, 4, 4, 4), np.float32),
                               np.zeros((1, 1, 3, 3, 3), np.float32), 1, 1)
    finally:
        tracer.uninstall()
    assert tracer.summary()["kernels"]["f64_calls"] == 1


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, True],
        ["b", 1.0, 4.0, 0, True],
        ["c", 2.0, 3.0, 1, True],
        ["b", 5.0, 7.0, 0, True],
        ["a", 8.0, 9.0, 0, False],  # nested in an "a": not busy twice
    ]
    rows = tracer.summary()
    assert rows["a"]["busy_s"] == 10.0
    assert rows["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0 + 1.0)
    assert rows["b"]["busy_s"] == 5.0
    assert rows["b"]["self_s"] == 4.0
    assert rows["c"]["self_s"] == 1.0
    assert rows["b"]["calls"] == 2


def test_summary_has_a_zero_row_for_every_installed_layer_not_called():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    rows = tracer.summary()
    assert rows["kernels.conv3d_weight_grad"] == {
        "calls": 0, "busy_s": 0.0, "self_s": 0.0, "gflop": 0}
    assert rows["nifti.read_nifti"]["bytes"] == 0
    assert rows["kernels"]["f64_calls"] == 0
    assert rows["tensor"]["tape_nodes"] == 0
    assert rows["model.VitBlock"]["calls"] == 0
    assert rows["cli.evaluate"]["calls"] == 0
    # an alias of a wrapped function is not a layer of its own
    assert "kernels.conv3d_forward_np" not in rows
    assert "no.such_layer" not in rows
