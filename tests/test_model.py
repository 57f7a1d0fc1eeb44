"""Architecture behavior: attention blocks, token embedding, forward
contract, tape memory, checkpointing."""

import tracemalloc
import weakref

import numpy as np
import pytest

from bitrunet import model as model_module
from bitrunet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from bitrunet.model import (
    BiTrUnetModel,
    CbamBlock,
    ConvBlock,
    ModelConfig,
    TransformerLayer,
    VitBlock,
    _Builder,
    cbam_apply,
    feature_embed,
    feature_map_back,
    group_norm,
    parameter_count,
    transformer_layer,
)
from bitrunet.reference import gradient_error
from bitrunet.tensor import Tape, Tensor, add, layer_norm, mul, reshape, tsum
from bitrunet.training import TrainConfig, loss_terms

rng = np.random.default_rng(7)


def tiny_config(**overrides):
    kw = dict(
        in_channels=2, base_width=4, num_classes=4, embed_dim=16,
        vit_layers=1, heads=2, ffn_hidden=32, input_size=(16, 16, 16),
    )
    kw.update(overrides)
    return ModelConfig(**kw)


def make_builder(dtype=np.float64):
    return _Builder({}, np.random.default_rng(0), dtype)


def zero_attention_and_ffn(layer):
    for t in (layer.wq, layer.bq, layer.wk, layer.bk, layer.wv, layer.bv,
              layer.wo, layer.bo, layer.w1, layer.b1, layer.w2, layer.b2):
        t.data[...] = 0.0


class TestModelConfig:
    def test_encoder_widths_ladder(self):
        assert ModelConfig(input_size=(32, 32, 32)).encoder_widths == [16, 32, 64, 128, 256]
        assert tiny_config().encoder_widths == [4, 8, 16, 32, 64]

    def test_heads_must_divide_embed_dim(self):
        with pytest.raises(ValueError, match="divisible by heads"):
            tiny_config(embed_dim=15)

    def test_input_divisibility(self):
        with pytest.raises(ValueError, match="axis 1.*not divisible by 16"):
            tiny_config(input_size=(16, 20, 16))

    @pytest.mark.parametrize("size", [(32, 32), (32, 32, 32, 32), ()])
    def test_input_size_needs_three_axes(self, size):
        with pytest.raises(ValueError, match="input_size must have 3 axes"):
            tiny_config(input_size=size)

    def test_text_roundtrip(self):
        cfg = tiny_config(input_size=(16, 32, 48))
        assert ModelConfig.from_text(cfg.to_text()) == cfg


class TestCbam:
    def test_zero_input_gives_zero_output(self):
        b = make_builder()
        block = CbamBlock(b, "c", 8, 8)
        out = cbam_apply(Tensor(np.zeros((1, 8, 4, 4, 4))), block)
        assert np.array_equal(out.data, np.zeros((1, 8, 4, 4, 4)))

    def test_shape_contract(self):
        b = make_builder()
        block = CbamBlock(b, "c", 8, 8)
        x = Tensor(rng.standard_normal((1, 8, 4, 4, 4)))
        assert cbam_apply(x, block).shape == x.shape

    def test_constructed_half_gain(self):
        # channel gate forced to 1 by a huge MLP bias, spatial conv zeroed:
        # the output must be exactly 0.5 * F
        b = make_builder()
        block = CbamBlock(b, "c", 4, 8)
        block.w1.data[...] = 0.0
        block.b1.data[...] = 0.0
        block.w2.data[...] = 0.0
        block.b2.data[...] = 500.0
        block.ws.data[...] = 0.0
        block.bs.data[...] = 0.0
        f = Tensor(rng.standard_normal((2, 4, 3, 3, 3)))
        out = cbam_apply(f, block)
        assert np.array_equal(out.data, 0.5 * f.data)

    def test_attention_maps_shapes_and_range(self):
        b = make_builder()
        block = CbamBlock(b, "c", 8, 8)
        f = Tensor(rng.standard_normal((2, 8, 4, 5, 6)))
        mc = block.channel_attention(f)
        ms = block.spatial_attention(f)
        assert mc.shape == (2, 8, 1, 1, 1)
        assert ms.shape == (2, 1, 4, 5, 6)
        for m in (mc.data, ms.data):
            assert (m > 0).all() and (m < 1).all()

    def test_channel_gate_desk_calculation(self):
        # sigmoid(mlp(spatial mean) + mlp(spatial max)) in plain numpy, and
        # finite differences for the gradient through both pools
        b = make_builder()
        block = CbamBlock(b, "c", 4, 2)
        f = Tensor(rng.standard_normal((2, 4, 3, 2, 4)), requires_grad=True)

        def mlp(v):
            h = np.maximum(v @ block.w1.data + block.b1.data, 0.0)
            return h @ block.w2.data + block.b2.data

        z = mlp(f.data.mean(axis=(2, 3, 4))) + mlp(f.data.max(axis=(2, 3, 4)))
        expect = (1.0 / (1.0 + np.exp(-z))).reshape(2, 4, 1, 1, 1)
        assert np.abs(block.channel_attention(f).data - expect).max() < 1e-12
        probe = Tensor(rng.standard_normal((2, 4, 1, 1, 1)))
        err = gradient_error(
            [f], lambda: tsum(mul(block.channel_attention(f), probe))
        )
        assert err < 1e-6

    def test_never_amplifies(self):
        b = make_builder()
        block = CbamBlock(b, "c", 8, 8)
        f = Tensor(rng.standard_normal((1, 8, 4, 4, 4)))
        out = cbam_apply(f, block)
        assert (np.abs(out.data) <= np.abs(f.data)).all()

    def test_channel_mismatch(self):
        b = make_builder()
        block = CbamBlock(b, "c", 8, 8)
        with pytest.raises(ValueError, match="axis 1"):
            cbam_apply(Tensor(np.zeros((1, 4, 2, 2, 2))), block)


def identity_vit(k_channels, spatial):
    """A ViT block rigged to be an exact identity map end to end."""
    cfg = tiny_config(embed_dim=k_channels, input_size=(16, 16, 16))
    b = make_builder()
    vit = VitBlock(b, "v", k_channels, spatial, cfg)
    for conv in (vit.proj, vit.back):
        conv.w.data[...] = 0.0
        for c in range(k_channels):
            conv.w.data[c, c, 1, 1, 1] = 1.0
        conv.b.data[...] = 0.0
    vit.pe.data[...] = 0.0
    for layer in vit.layers:
        zero_attention_and_ffn(layer)
    return vit


class TestFeatureEmbedding:
    def test_identity_projection_flattens(self):
        vit = identity_vit(4, (2, 2, 2))
        x = rng.standard_normal((1, 4, 2, 2, 2))
        z = feature_embed(Tensor(x), vit)
        assert z.shape == (1, 4, 8)
        assert np.array_equal(z.data, x.reshape(1, 4, 8))

    def test_token_count(self):
        vit = identity_vit(4, (4, 4, 4))
        z = feature_embed(Tensor(rng.standard_normal((1, 4, 4, 4, 4))), vit)
        assert z.shape[-1] == 64

    def test_roundtrip_with_identity_weights(self):
        vit = identity_vit(4, (3, 3, 3))
        x = rng.standard_normal((1, 4, 3, 3, 3))
        back = feature_map_back(feature_embed(Tensor(x), vit), vit, (3, 3, 3))
        assert np.allclose(back.data, x, atol=1e-12)

    def test_token_count_mismatch_with_pe(self):
        vit = identity_vit(4, (2, 2, 2))
        with pytest.raises(ValueError, match="positional embedding"):
            feature_embed(Tensor(rng.standard_normal((1, 4, 3, 3, 3))), vit)

    def test_map_back_shape_contract(self):
        cfg = tiny_config(embed_dim=8)
        b = make_builder()
        vit = VitBlock(b, "v", 5, (3, 3, 3), cfg)
        z = Tensor(rng.standard_normal((1, 8, 27)))
        out = feature_map_back(z, vit, (3, 3, 3))
        assert out.shape == (1, 5, 3, 3, 3)

    def test_map_back_token_mismatch(self):
        cfg = tiny_config(embed_dim=8)
        b = make_builder()
        vit = VitBlock(b, "v", 5, (3, 3, 3), cfg)
        with pytest.raises(ValueError, match="tokens"):
            feature_map_back(Tensor(np.zeros((1, 8, 26))), vit, (3, 3, 3))

    def test_map_back_zero_tokens_bias_only(self):
        cfg = tiny_config(embed_dim=8)
        b = make_builder()
        vit = VitBlock(b, "v", 5, (3, 3, 3), cfg)
        out = feature_map_back(Tensor(np.zeros((1, 8, 27))), vit, (3, 3, 3))
        expect = np.broadcast_to(vit.back.b.data[:, None, None, None], (1, 5, 3, 3, 3))
        assert np.array_equal(out.data, expect)


class TestTransformerLayer:
    def _layer(self, d=16, heads=2, ffn=32):
        b = make_builder()
        return TransformerLayer(b, "t", d, heads, ffn)

    def test_zero_branches_give_exact_identity(self):
        layer = self._layer()
        zero_attention_and_ffn(layer)
        layer.ln1_g.data[:] = rng.uniform(0.5, 2.0, 16)  # affine arbitrary
        layer.ln1_b.data[:] = rng.standard_normal(16)
        z = Tensor(rng.standard_normal((1, 16, 9)))
        out = transformer_layer(z, layer)
        assert np.abs(out.data - z.data).max() == 0.0

    def test_records_22_ops(self):
        # 2 layer norms, 9 for the q, k, v projections, attention, 3 to merge
        # the heads and project out, 2 residuals, 5 feed-forward; the probe
        # loss adds 2 more
        layer = self._layer()
        z = Tensor(rng.standard_normal((1, 16, 9)), requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 16, 9)))
        with Tape() as tape:
            y = transformer_layer(z, layer)
            assert len(tape.nodes) == 22
            tape.backward(tsum(mul(y, probe)))
        assert len(tape.nodes) == 24

    def test_single_head_desk_calculation(self):
        # d=2, N=2, Q=K=V=O=I, biases 0, LN affine identity, FFN zeroed:
        # compare with a direct numpy evaluation of
        # softmax(q^T k / sqrt(2)) mixing plus the residual
        layer = self._layer(d=2, heads=1, ffn=4)
        zero_attention_and_ffn(layer)
        for wt in (layer.wq, layer.wk, layer.wv, layer.wo):
            wt.data[...] = np.eye(2)
        z = np.array([[1.0, 2.0], [0.5, -1.0]])  # tokens are columns

        # desk calculation, plain numpy
        mu = z.mean(axis=0)
        sd = np.sqrt(z.var(axis=0) + 1e-5)
        zn = (z - mu) / sd
        scores = (zn.T @ zn) / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        mixed = zn @ a.T
        expected = mixed + z

        out = transformer_layer(Tensor(z[None]), layer)
        assert np.allclose(out.data[0], expected, atol=1e-10)


class TestGroupNorm:
    def test_normalizes_groups(self):
        x = Tensor(rng.standard_normal((2, 8, 4, 4, 4)))
        gamma = Tensor(np.ones(8))
        beta = Tensor(np.zeros(8))
        y = group_norm(x, gamma, beta, groups=4).data
        grouped = y.reshape(2, 4, -1)
        assert np.abs(grouped.mean(axis=-1)).max() < 1e-6
        assert np.abs(grouped.var(axis=-1) - 1.0).max() < 1e-3

    @staticmethod
    def _composed(x, gamma, beta, g):
        # reshape -> layer_norm with a unit affine -> reshape -> scale -> shift;
        # each slab is one token column
        n, c = x.shape[:2]
        slab = x.size // (n * g)
        y = reshape(x, (n, g, slab, 1))
        y = layer_norm(y, Tensor(np.ones(slab, x.dtype)), Tensor(np.zeros(slab, x.dtype)))
        y = mul(reshape(y, x.shape), reshape(gamma, (c, 1, 1, 1)))
        return add(y, reshape(beta, (c, 1, 1, 1)))

    @pytest.mark.parametrize("channels,cap,groups", [(8, 4, 4), (6, 4, 3), (16, 8, 8)])
    def test_one_op_equals_the_composition_bit_for_bit(self, channels, cap, groups):
        data = rng.standard_normal((2, channels, 4, 3, 5)).astype(np.float32)
        affine = rng.uniform(0.5, 1.5, (2, channels)).astype(np.float32)
        probe = Tensor(rng.standard_normal(data.shape).astype(np.float32))
        runs = []
        for norm in (lambda x, gm, bt: group_norm(x, gm, bt, cap),
                     lambda x, gm, bt: self._composed(x, gm, bt, groups)):
            x = Tensor(data.copy(), requires_grad=True)
            gamma = Tensor(affine[0].copy(), requires_grad=True)
            beta = Tensor(affine[1].copy(), requires_grad=True)
            with Tape() as tape:
                y = norm(x, gamma, beta)
                nodes = len(tape.nodes)
                tape.backward(tsum(mul(y, probe)))
            runs.append((nodes, y.data, x.grad, gamma.grad, beta.grad))
        fused, composed = runs
        assert (fused[0], composed[0]) == (1, 7)
        for a, b in zip(fused[1:], composed[1:]):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)


class TestForward:
    def test_shape_contract_32(self):
        cfg = ModelConfig(in_channels=4, base_width=4, num_classes=4, embed_dim=16,
                          vit_layers=1, heads=2, ffn_hidden=32, input_size=(32, 32, 32))
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32))
        assert model.forward(x).shape == (1, 4, 32, 32, 32)

    def test_divisibility_error_names_axis(self):
        model = BiTrUnetModel(tiny_config(), seed=0, dtype=np.float32)
        x = Tensor(np.zeros((1, 2, 16, 20, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="axis 3.*20"):
            model.forward(x)

    def test_stage_widths_and_bottleneck_size(self):
        cfg = ModelConfig(input_size=(32, 32, 32), embed_dim=32, vit_layers=1)
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        assert [s.w.shape[0] for s in model.enc] == [32, 64, 128, 256]
        assert model.init_block.w.shape[0] == 16
        assert model.vit_bottleneck.spatial == (2, 2, 2)  # 32 / 16
        assert model.vit_skip.spatial == (4, 4, 4)  # 32 / 8

    def test_gradients_reach_every_parameter(self):
        # no parameter may stay at zero gradient across all three seeds
        # (a single unlucky seed can legitimately kill a width-1 relu)
        cfg = tiny_config(input_size=(32, 32, 32))
        reached = None
        for seed in (0, 1, 2):
            model = BiTrUnetModel(cfg, seed=seed, dtype=np.float64)
            x = Tensor(np.random.default_rng(seed + 100).standard_normal((1, 2, 32, 32, 32)))
            with Tape() as tape:
                tape.backward(tsum(model.forward(x)))
            got = {k: v.grad is not None and bool(np.any(v.grad))
                   for k, v in model.params.items()}
            if reached is None:
                reached = got
            else:
                reached = {k: reached[k] or got[k] for k in got}
        dead = [k for k, ok in reached.items() if not ok]
        assert not dead, f"parameters with identically zero grads in all seeds: {dead}"

    def test_float32_model_stays_float32(self):
        # every activation on the tape and every parameter gradient; a
        # float64 constant mixed into one op would upcast everything after it
        cfg = tiny_config()
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 2, 16, 16, 16)).astype(np.float32))
        target = rng.integers(0, cfg.num_classes, (16, 16, 16))
        with Tape() as tape:
            scores = model.forward(x)
            loss = loss_terms(scores, target, TrainConfig())[0]
            # backward frees the nodes, so read their dtypes first
            dtypes = {n.slot.dtype for n in tape.nodes}
            tape.backward(loss)
        assert scores.dtype == np.float32
        wide = dtypes - {np.dtype(np.float32)}
        assert not wide, f"tape nodes with output dtype {wide}"
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name


class TestTapeMemory:
    """A rule keeps only the arrays its backward reads, and backward frees
    each of those and each intermediate gradient as it goes."""

    def _step(self, made=None):
        """Forward and loss of a float32 step under a tape; with a list
        ``made``, a weakref to every array a Tensor wraps during it."""
        cfg = tiny_config()
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 2, 16, 16, 16)).astype(np.float32))
        target = rng.integers(0, cfg.num_classes, (16, 16, 16))
        init = Tensor.__init__

        def tracking_init(t, *args, **kwargs):
            init(t, *args, **kwargs)
            made.append(weakref.ref(t.data))

        tape = Tape()
        with pytest.MonkeyPatch.context() as mp:
            if made is not None:
                mp.setattr(Tensor, "__init__", tracking_init)
            with tape:
                loss = loss_terms(model.forward(x), target, TrainConfig())[0]
        return model, tape, loss

    def test_activations_are_freed_while_the_tape_lives(self):
        made = []
        model, tape, loss = self._step(made)
        recorded = len(tape.nodes)
        params = {id(p.data) for p in model.params.values()}
        # what the rules read, parameters aside, is alive until backward
        held = [weakref.ref(c.cell_contents) for n in tape.nodes
                for c in n.rule.__closure__ or ()
                if isinstance(c.cell_contents, np.ndarray)
                and id(c.cell_contents) not in params]
        assert held and all(ref() is not None for ref in held)
        arrays = [ref for ref in made if ref() is not loss.data] + held
        tape.backward(loss)
        assert len(tape.nodes) == recorded
        assert all(node is None for node in tape.nodes)
        alive = sum(ref() is not None for ref in arrays)
        assert alive == 0, f"{alive} of {len(arrays)} arrays outlived backward"

    def test_conv_block_outputs_are_freed_during_the_forward_pass(self, monkeypatch):
        # group norm reads only xhat and relu only its mask, so neither the
        # conv output nor the group-norm output outlives its Python name
        made = {}

        def tracked(name, op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                made[name] = weakref.ref(out.data)
                return out
            return wrapper

        monkeypatch.setattr(model_module, "conv3d", tracked("conv", model_module.conv3d))
        monkeypatch.setattr(model_module, "group_norm",
                            tracked("norm", model_module.group_norm))
        block = ConvBlock(make_builder(np.float32), "blk", 2, 4, 1, 2)
        x = Tensor(rng.standard_normal((1, 2, 8, 8, 8)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            y = block(x)
            assert len(tape.nodes) == 3
            assert made["conv"]() is None and made["norm"]() is None
            tape.backward(tsum(y))
        for t in (x, block.w, block.b, block.gamma, block.beta):
            assert t.grad is not None and t.grad.shape == t.shape

    @pytest.mark.parametrize("later", ["a", "b"])
    def test_add_gives_each_operand_its_own_gradient(self, later):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        with Tape() as tape:
            # recorded first, so its rule runs after add's and accumulates
            # into the gradient add gave ``later``
            scaled = mul(a if later == "a" else b, 3.0)
            loss = tsum(add(add(a, b), scaled))
            tape.backward(loss)
        grads = {"a": a.grad, "b": b.grad}
        assert np.array_equal(grads[later], np.full((3, 4), 4.0))
        assert np.array_equal(grads["b" if later == "a" else "a"], np.ones((3, 4)))

    def test_only_parameter_gradients_survive(self):
        model, tape, loss = self._step()
        slots = [n.slot for n in tape.nodes]
        tape.backward(loss)
        assert all(slot.grad is None for slot in slots)
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name

    def test_parameter_gradients_are_float32_c_contiguous_and_their_own(self):
        model, tape, loss = self._step()
        tape.backward(loss)
        grads = list(model.params.items())
        for name, p in grads:
            assert p.grad.dtype == np.float32 and p.grad.flags.c_contiguous, name
            assert p.grad.shape == p.shape, name
        for i, (name, p) in enumerate(grads):
            for other, q in grads[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad), (name, other)

    def test_train_32_step_records_199_nodes(self):
        # the train-32 config: 22 nodes in each of its two transformer
        # layers, 155 in the convolutions, gates and loss
        cfg = ModelConfig(in_channels=4, num_classes=4, input_size=(32, 32, 32),
                          base_width=16, embed_dim=32, vit_layers=1, heads=4,
                          ffn_hidden=64)
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32))
        with Tape() as tape:
            loss_terms(model.forward(x), rng.integers(0, 4, (1, 32, 32, 32)), TrainConfig())
        assert len(tape.nodes) == 199

    def test_live_bytes_after_forward_and_loss_stay_bounded(self):
        # the train-32 config; its tape read 45 MB when rules held their
        # operand Tensors and 24.6 MB with slots
        cfg = ModelConfig(in_channels=4, num_classes=4, input_size=(32, 32, 32),
                          base_width=16, embed_dim=32, vit_layers=1, heads=4,
                          ffn_hidden=64)
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32))
        target = rng.integers(0, 4, (1, 32, 32, 32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = loss_terms(model.forward(x), target, TrainConfig())[0]
                live = tracemalloc.get_traced_memory()[0] - base
                tape.backward(loss)
        finally:
            tracemalloc.stop()
        assert live <= 30e6, f"{live / 1e6:.1f} MB live after forward and loss"
        assert all(p.grad is not None for p in model.params.values())


class TestCheckpoint:
    def test_forward_identical_after_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = BiTrUnetModel(cfg, seed=4, dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 2, 16, 16, 16)).astype(np.float32))
        before = model.forward(x).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        after = loaded.forward(x).data
        assert np.array_equal(before, after)

    def test_parameters_bit_exact(self, tmp_path):
        model = BiTrUnetModel(tiny_config(), seed=4, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data), name

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        model = BiTrUnetModel(tiny_config(), seed=4, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name, t in model.params.items():
            assert loaded.params[name].dtype == np.float32
            assert np.array_equal(t.data, loaded.params[name].data), name

    def test_load_peaks_near_the_parameter_bytes(self, tmp_path):
        # the train-32 config; reading the whole file and then copying each
        # parameter out of it peaked at about twice the parameter bytes
        cfg = ModelConfig(in_channels=4, num_classes=4, input_size=(32, 32, 32),
                          base_width=16, embed_dim=32, vit_layers=1, heads=4,
                          ffn_hidden=64)
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        param_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * param_bytes, f"{peak / param_bytes:.2f}x the parameter bytes"
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data), name

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_checkpoint("/nonexistent/path/model.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = BiTrUnetModel(tiny_config(), seed=0, dtype=np.float32)
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic.*byte 0"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = BiTrUnetModel(tiny_config(), seed=0, dtype=np.float32)
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="truncated.*byte"):
            load_checkpoint(path)

    def test_parameter_count_matches_hand_sum(self):
        # independent arithmetic over the block inventory, widths [4,8,16,32,64]
        cfg = ModelConfig(in_channels=4, base_width=4, num_classes=4, embed_dim=16,
                          vit_layers=1, heads=2, ffn_hidden=64, input_size=(16, 16, 16))
        model = BiTrUnetModel(cfg)

        def conv_block(cin, cout):
            return cout * cin * 27 + 3 * cout  # weight + bias + gn affine

        def cbam(c):
            h = max(1, c // 8)
            return 2 * c * h + h + c + 54 + 1  # mlp + spatial conv(2->1) + bias

        def vit(k, d, n_tokens, ffn):
            proj = d * k * 27 + d
            back = k * d * 27 + k
            per_layer = 4 * d * d + 4 * d + 4 * d + 2 * d * ffn + ffn + d
            return proj + d * n_tokens + per_layer + back

        w = [4, 8, 16, 32, 64]
        expected = conv_block(4, w[0])
        for i in range(4):
            expected += conv_block(w[i], w[i + 1]) + cbam(w[i + 1])
        expected += vit(w[3], 16, 2 ** 3, 64)  # skip path at 16/8 = 2
        expected += vit(w[4], 16, 1, 64)  # bottleneck at 16/16 = 1
        for cin, cout in zip(w[:0:-1], w[-2::-1]):
            expected += conv_block(cin, cout)  # transposed up block, same count
            expected += conv_block(2 * cout, cout)  # fuse after concat
        expected += 4 * 4 * 27 + 4  # final conv
        assert expected == 313411
        assert parameter_count(model) == expected
