"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; each also asserts, so a regression fails the suite loudly.
"""

import time

import numpy as np
import pytest

from bitrunet.data import make_sphere_case
from bitrunet.inference import apply_flip, flip_combos, tta_predict
from bitrunet.metrics import dice
from bitrunet.model import (
    BiTrUnetModel,
    ModelConfig,
    TransformerLayer,
    _Builder,
    transformer_layer,
)
from bitrunet.tensor import Tensor
from bitrunet.training import (
    TrainConfig,
    poly_lr,
    soft_dice_score,
    train_loop,
)

rng = np.random.default_rng(2024)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name}{' :: ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _passed(selftest_run, entry):
    """Whether the shared ``selftest`` run printed ``entry`` as passing."""
    return f"PASS  {entry}" in selftest_run[1]


def test_01_gradient_checks(selftest_run):
    elapsed = selftest_run[2]
    ok = (_passed(selftest_run, "op gradients vs central differences")
          and _passed(selftest_run, "model gradients vs central differences")
          and elapsed < 300)
    _report(1, "gradient suite", ok,
            f"op and full-model entries of selftest, whole run {elapsed:.0f}s")


def test_02_shape_contract():
    base = ModelConfig()
    ok = base.encoder_widths == [16, 32, 64, 128, 256]
    sizes = (16, 32, 48)
    checked = 0
    for h in sizes:
        for w in sizes:
            for d in sizes:
                cfg = ModelConfig(in_channels=4, base_width=4, num_classes=4,
                                  embed_dim=16, vit_layers=1, heads=2,
                                  ffn_hidden=32, input_size=(h, w, d))
                model = BiTrUnetModel(cfg, seed=0, dtype=np.float32)
                ok = ok and [s.w.shape[0] for s in model.enc] == [8, 16, 32, 64]
                ok = ok and model.vit_bottleneck.spatial == (h // 16, w // 16, d // 16)
                x = Tensor(rng.standard_normal((1, 4, h, w, d)).astype(np.float32))
                y = model.forward(x)
                ok = ok and y.shape == (1, 4, h, w, d)
                checked += 1
    _report(2, "forward shape contract", ok and checked == 27,
            f"{checked} size combinations, widths 4C..64C, bottleneck H/16")


def test_03_residual_identity():
    b = _Builder({}, np.random.default_rng(0), np.float64)
    layer = TransformerLayer(b, "t", 16, 2, 64)
    for t in (layer.wq, layer.bq, layer.wk, layer.bk, layer.wv, layer.bv,
              layer.wo, layer.bo, layer.w1, layer.b1, layer.w2, layer.b2):
        t.data[...] = 0.0
    layer.ln1_g.data[:] = rng.uniform(0.5, 2.0, 16)
    layer.ln2_b.data[:] = rng.standard_normal(16)
    z = Tensor(rng.standard_normal((1, 16, 27)))
    dev = float(np.abs(transformer_layer(z, layer).data - z.data).max())
    _report(3, "transformer residual identity", dev == 0.0,
            f"max abs deviation {dev}")


def test_04_overfit_smoke():
    t0 = time.time()
    rec = make_sphere_case(size=32, radius=10, contrast=3.0, noise=0.2, seed=42)
    cfg = ModelConfig(in_channels=4, base_width=16, num_classes=2, embed_dim=32,
                      vit_layers=1, heads=4, ffn_hidden=64,
                      input_size=(32, 32, 32))
    model = BiTrUnetModel(cfg, seed=3, dtype=np.float32)
    dataset = [(rec.volume.data, rec.label.astype(np.int64))]
    tc = TrainConfig(iters=300, base_lr=2e-4, power=0.9, seed=0, augment=0)
    history = train_loop(model, dataset, tc)
    scores = model.forward(Tensor(rec.volume.data[None], dtype=np.float32))
    sd = soft_dice_score(scores.data, rec.label[None].astype(np.int64), 2)
    elapsed = time.time() - t0
    ok = len(history) <= 300 and sd > 0.95 and elapsed < 900
    _report(4, "overfit smoke test", ok,
            f"soft dice {sd:.4f} after {len(history)} iters in {elapsed:.0f}s")


def test_05_tta_equivariance():
    rec = make_sphere_case(size=16, radius=5, seed=8)
    cfg = ModelConfig(in_channels=4, base_width=4, num_classes=2, embed_dim=16,
                      vit_layers=1, heads=2, ffn_hidden=32,
                      input_size=(16, 16, 16))
    model = BiTrUnetModel(cfg, seed=2, dtype=np.float32)
    train_loop(model, [(rec.volume.data, rec.label.astype(np.int64))],
               TrainConfig(iters=10, augment=0, seed=1))
    x = rec.volume.data
    base = tta_predict(model, x)
    worst = 0.0
    for combo in flip_combos():
        got = tta_predict(model, np.ascontiguousarray(apply_flip(x, combo)))
        worst = max(worst, float(np.abs(got - apply_flip(base, combo)).max()))
    _report(5, "TTA flip equivariance", worst < 1e-6,
            f"max deviation over 8 combos {worst:.2e}")


def test_06_voting_oracle(selftest_run):
    _report(6, "majority vote brute-force oracle",
            _passed(selftest_run, "majority vote vs brute force"),
            "150 random instances, exact equality")


def test_07_metrics_oracle(selftest_run):
    ok = _passed(selftest_run, "hd95 vs all-pairs oracle")
    for _ in range(110):
        density = rng.uniform(0.05, 0.5)
        a = rng.random((8, 8, 8)) < density
        b = rng.random((8, 8, 8)) < density
        na, nb = int(a.sum()), int(b.sum())
        inter = int((a & b).sum())
        dice_ref = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
        ok = ok and dice(a, b) == dice_ref
    empty = np.zeros((8, 8, 8), bool)
    one = empty.copy()
    one[4, 4, 4] = True
    ok = ok and dice(empty, empty) == 1.0 and dice(one, empty) == 0.0
    _report(7, "dice and hd95 brute-force oracles", ok,
            "110 random 8^3 pairs + empty-set conventions")


def test_08_postprocess_oracle(selftest_run):
    _report(8, "postprocessing flood-fill oracle + idempotence",
            _passed(selftest_run, "postprocess vs flood fill"),
            "110 random 8^3 and 20 6^3 masks, exact equality")


def test_09_format_roundtrips(selftest_run):
    _report(9, "format roundtrips + corruption rejection",
            _passed(selftest_run, "file format roundtrips"),
            "NIfTI, cache, checkpoint bit-exact; bad magic and CRC rejected")


def test_10_schedule_endpoints():
    sched = TrainConfig(iters=7050, base_lr=2e-4, power=0.9)
    start = poly_lr(0, sched)
    end = poly_lr(7050, sched)
    mid = poly_lr(7050 // 2, sched)
    closed = 2e-4 * (1.0 - (7050 // 2) / 7050) ** 0.9
    ok = (start == 2e-4 and end == 0.0
          and abs(mid - closed) <= 1e-12 * closed)
    _report(10, "poly schedule endpoints", ok,
            f"lr(0)={start}, lr(T)={end}, midpoint matches closed form")
