"""Training recipe: schedule, Adam, augmentation, loss, loop."""

import numpy as np
import pytest

from bitrunet.data import make_sphere_case
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.reference import gradient_error
from bitrunet.tensor import Tape, Tensor
from bitrunet.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    augment,
    loss_terms,
    poly_lr,
    train_loop,
)

rng = np.random.default_rng(11)


class TestPolyLr:
    def test_initial_value_exact(self):
        assert poly_lr(0, TrainConfig(iters=1000)) == 2e-4

    def test_final_value_exact(self):
        assert poly_lr(1000, TrainConfig(iters=1000)) == 0.0

    def test_midpoint_closed_form(self):
        got = poly_lr(500, TrainConfig(iters=1000))
        assert got == pytest.approx(2e-4 * 0.5 ** 0.9, rel=1e-12)
        assert got == pytest.approx(1.0718e-4, rel=1e-4)

    def test_monotone_nonincreasing(self):
        s = TrainConfig(iters=137)
        vals = [poly_lr(i, s) for i in range(138)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            poly_lr(-1, TrainConfig(iters=10))
        with pytest.raises(ValueError):
            poly_lr(11, TrainConfig(iters=10))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        state = OptimizerState()
        for _ in range(5):
            adam_step({"p": p}, state, lr=0.1)
        assert np.array_equal(p.data, before)
        assert state.t == 5

    def test_hand_evaluated_first_step(self):
        # p=1, g=1, lr=0.1: bias correction gives mhat=1, vhat=1,
        # so p <- 1 - 0.1 / (1 + 1e-8)
        p = Tensor(np.asarray([1.0]), requires_grad=True)
        p.grad = np.asarray([1.0])
        adam_step({"p": p}, OptimizerState(), lr=0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_quadratic_convergence(self):
        p = Tensor(np.asarray([1.0]), requires_grad=True)
        state = OptimizerState()
        for _ in range(500):
            p.grad = 2.0 * p.data  # d/dp p^2
            adam_step({"p": p}, state, lr=0.05)
        assert abs(p.data[0]) < 1e-2

    def test_missing_grad_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="some_name"):
            adam_step({"some_name": p}, OptimizerState(), lr=0.1)


class TestAugment:
    def _case(self, size=12):
        image = rng.standard_normal((4, size, size, size)).astype(np.float32)
        label = rng.integers(0, 3, (size, size, size)).astype(np.uint8)
        return image, label

    def test_identity_crop(self):
        image, label = self._case()
        cfg = TrainConfig(shift=0.0, scale_min=1.0, scale_max=1.0)
        rng0 = np.random.default_rng(0)
        out_img, out_lab = augment(image, label, (12, 12, 12), cfg, rng0)
        assert np.array_equal(out_img, image)
        assert np.array_equal(out_lab, label)

    def test_seeded_determinism(self):
        image, label = self._case()
        cfg = TrainConfig()
        a_img, a_lab = augment(image, label, (8, 8, 8), cfg, np.random.default_rng(42))
        b_img, b_lab = augment(image, label, (8, 8, 8), cfg, np.random.default_rng(42))
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_lab, b_lab)

    def test_label_histogram_preserved(self):
        image, label = self._case()
        # identity crop, intensity varies
        rng3 = np.random.default_rng(3)
        _, out_lab = augment(image, label, (12, 12, 12), TrainConfig(), rng3)
        assert np.array_equal(np.bincount(out_lab.ravel()), np.bincount(label.ravel()))

    def test_crop_too_large(self):
        image, label = self._case(8)
        with pytest.raises(ValueError, match="crop"):
            augment(image, label, (16, 16, 16), TrainConfig(), np.random.default_rng(0))

    def test_intensity_transform_applied_per_channel(self):
        image, label = self._case()
        cfg = TrainConfig(shift=0.5, scale_min=0.5, scale_max=2.0)
        out_img, _ = augment(image, label, (12, 12, 12), cfg, np.random.default_rng(0))
        # replay the draws: 3 crop offsets (all 0 for an identity crop), then
        # scale and shift per channel
        replay = np.random.default_rng(0)
        assert [int(replay.integers(0, 1)) for _ in range(3)] == [0, 0, 0]
        transforms = []
        for c in range(image.shape[0]):
            s = replay.uniform(0.5, 2.0)
            delta = replay.uniform(-0.5, 0.5)
            transforms.append((s, delta))
            assert np.allclose(out_img[c], image[c] * s + delta, atol=1e-6)
        assert len(set(transforms)) == image.shape[0]


class TestLoss:
    def test_peaked_scores_give_near_zero_loss(self):
        target = rng.integers(0, 4, (1, 4, 4, 4))
        scores = np.full((1, 4, 4, 4, 4), -12.0)
        for c in range(4):
            scores[0, c][target[0] == c] = 12.0
        total, _, _ = loss_terms(Tensor(scores), target, TrainConfig())
        assert total.item() < 0.01

    def test_uniform_scores_ce_is_ln4(self):
        target = rng.integers(0, 4, (1, 2, 2, 2))
        scores = Tensor(np.zeros((1, 4, 2, 2, 2)))
        _, ce, _ = loss_terms(scores, target, TrainConfig())
        assert ce.item() == pytest.approx(np.log(4.0), rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        target = rng.integers(0, 3, (1, 2, 2, 2))
        scores = Tensor(rng.standard_normal((1, 3, 2, 2, 2)), requires_grad=True)
        cfg = TrainConfig()
        assert gradient_error(
            [scores], lambda: loss_terms(scores, target, cfg)[0], h=1e-5
        ) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_tape_node_in_the_scores_dtype_equal_to_the_formula(self, dtype):
        k = 3
        target = rng.integers(0, k, (2, 3, 4, 2))
        data = (rng.standard_normal((2, k, 3, 4, 2)) * 2).astype(dtype)
        scores = Tensor(data, requires_grad=True)
        cfg = TrainConfig(w_ce=0.7, w_dice=1.3)
        with Tape() as tape:
            total, ce, dice_loss = loss_terms(scores, target, cfg)
            assert len(tape.nodes) == 1 and tape.nodes[0].slot is total.slot
        assert not ce.requires_grad and not dice_loss.requires_grad
        # the same loss in float64 numpy
        x = data.astype(np.float64)
        e = np.exp(x - x.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        t = np.stack([target == c for c in range(k)], axis=1)
        axes = (0, 2, 3, 4)
        dice = (2.0 * (p * t).sum(axes) + 1e-5) / (p.sum(axes) + t.sum(axes) + 1e-5)
        want_ce = -np.log(p[t]).mean()
        want_dice = 1.0 - dice[1:].mean()
        want = {"total": 0.7 * want_ce + 1.3 * want_dice, "ce": want_ce,
                "dice": want_dice}
        rel = 1e-5 if dtype == np.float32 else 1e-12
        for name, got in (("total", total), ("ce", ce), ("dice", dice_loss)):
            assert got.dtype == dtype, name
            assert got.item() == pytest.approx(want[name], rel=rel), name

    def test_out_of_range_label_rejected(self):
        scores = Tensor(np.zeros((1, 3, 2, 2, 2)))
        bad = np.full((1, 2, 2, 2), 7)
        with pytest.raises(ValueError, match="outside"):
            loss_terms(scores, bad, TrainConfig())

    def test_loss_nonnegative(self):
        for _ in range(10):
            target = rng.integers(0, 4, (1, 2, 2, 2))
            scores = Tensor(rng.standard_normal((1, 4, 2, 2, 2)) * 3)
            assert loss_terms(scores, target, TrainConfig())[0].item() >= 0.0

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(w_ce=0.0, w_dice=0.0)
        with pytest.raises(ValueError):
            TrainConfig(w_ce=-1.0)


def _sphere_dataset(size=16):
    rec = make_sphere_case(size=size, radius=5, seed=1)
    return [(rec.volume.data, rec.label.astype(np.int64))]


def _tiny_train_model(size=16, seed=0):
    cfg = ModelConfig(in_channels=4, base_width=4, num_classes=2, embed_dim=16,
                      vit_layers=1, heads=2, ffn_hidden=32,
                      input_size=(size, size, size))
    return BiTrUnetModel(cfg, seed=seed, dtype=np.float32)


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_loop(_tiny_train_model(), [], TrainConfig(iters=1, augment=0))

    def test_zero_iterations_writes_initial_checkpoint_only(self, tmp_path):
        model = _tiny_train_model()
        out = tmp_path / "run"
        history = train_loop(model, _sphere_dataset(), TrainConfig(iters=0, augment=0), out_dir=out)
        assert history == []
        assert (out / "checkpoint_000000.ckpt").exists()
        assert not (out / "checkpoint_final.ckpt").exists()
        assert (out / "loss_log.tsv").read_text() == ""

    def test_initial_loss_envelope(self):
        model = _tiny_train_model()
        cfg = TrainConfig(iters=1, augment=0)
        history = train_loop(model, _sphere_dataset(), cfg)
        _, _, total, ce, dice = history[0]
        assert np.log(2.0) - 1.0 < ce < np.log(2.0) + 1.0
        assert 0.0 <= dice <= 1.0

    def test_loss_decreases(self):
        model = _tiny_train_model()
        cfg = TrainConfig(iters=30, augment=0, seed=0)
        history = train_loop(model, _sphere_dataset(), cfg)
        first = np.mean([h[2] for h in history[:5]])
        last = np.mean([h[2] for h in history[-5:]])
        assert last < first

    def test_seeded_runs_are_bit_identical(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            model = _tiny_train_model(seed=9)
            cfg = TrainConfig(iters=4, seed=5, augment=1)
            out = tmp_path / run
            train_loop(model, _sphere_dataset(), cfg, out_dir=out)
            outs.append((out / "checkpoint_final.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_log_format(self, tmp_path):
        model = _tiny_train_model()
        out = tmp_path / "run"
        cfg = TrainConfig(iters=3, augment=0)
        train_loop(model, _sphere_dataset(), cfg, out_dir=out)
        lines = (out / "loss_log.tsv").read_text().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            parts = line.split("\t")
            assert len(parts) == 5
            assert int(parts[0]) == i
            float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4])

    def test_gradient_accumulation_runs(self):
        model = _tiny_train_model()
        cfg = TrainConfig(iters=2, grad_accum=2, augment=0)
        history = train_loop(model, _sphere_dataset(), cfg)
        assert len(history) == 2
