"""Training recipe: combined CE + soft-Dice loss, Adam, polynomial learning
rate decay, random crop and intensity augmentation, and a deterministic loop.

The loop writes one tab-separated log line per iteration
(iter, lr, total_loss, ce, dice) and periodic checkpoints. With a fixed seed
and single-threaded execution two runs produce bit-identical checkpoints.
"""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

# Adam moment decays and denominator guard, and the soft-Dice smoothing term
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DICE_EPS = 1e-5


@dataclass
class TrainConfig:
    """Every non-model key of a train file, with the file's defaults."""

    iters: int = 300
    base_lr: float = 2e-4
    power: float = 0.9
    batch_size: int = 1
    grad_accum: int = 1
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only
    w_ce: float = 1.0
    w_dice: float = 1.0
    augment: int = 1  # 1 = random crop and intensity augmentation, 0 = off
    shift: float = 0.1  # intensity shift drawn from [-shift, shift]
    scale_min: float = 0.9
    scale_max: float = 1.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        for name, low in (("iters", 0), ("batch_size", 1), ("grad_accum", 1),
                          ("checkpoint_every", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if self.augment not in (0, 1):
            raise ValueError(f"augment must be 0 or 1, got {self.augment}")
        if self.w_ce < 0 or self.w_dice < 0 or (self.w_ce == 0 and self.w_dice == 0):
            raise ValueError("loss weights w_ce and w_dice must be nonnegative "
                             "and not both zero")


# ---------------------------------------------------------------------------
# learning rate schedule
# ---------------------------------------------------------------------------

def poly_lr(it, cfg):
    """base_lr * (1 - iter/iters) ** power; exactly base_lr at 0, 0 at iters."""
    if not 0 <= it <= cfg.iters:
        raise ValueError(f"iteration {it} outside [0, {cfg.iters}]")
    frac = 1.0 - it / max(cfg.iters, 1)
    return cfg.base_lr * frac ** cfg.power


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, state, lr):
    """One bias-corrected Adam update over a name -> Tensor mapping."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name} has no gradient")
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def augment(image, label, crop, cfg, rng):
    """Random ``crop``-sized crop plus per-channel intensity scale and shift.

    ``image`` is (C, H, W, D); ``label`` (H, W, D) or None gets the same
    crop and is otherwise untouched. Draw order is fixed (3 offsets, then
    scale and shift per channel) so a seeded rng reproduces exactly.
    """
    ch, *spatial = image.shape
    for ax in range(3):
        if crop[ax] > spatial[ax]:
            raise ValueError(
                f"crop {crop} exceeds volume {tuple(spatial)} on axis {ax}"
            )
    off = [int(rng.integers(0, spatial[ax] - crop[ax] + 1)) for ax in range(3)]
    sl = tuple(slice(off[ax], off[ax] + crop[ax]) for ax in range(3))
    out = image[(slice(None),) + sl].copy()
    for c in range(ch):
        s = rng.uniform(cfg.scale_min, cfg.scale_max)
        delta = rng.uniform(-cfg.shift, cfg.shift)
        out[c] = out[c] * s + delta
    out_label = None if label is None else label[sl].copy()
    return out, out_label


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _one_hot(target, k, dtype):
    """(N, K, H, W, D) class indicator of the labels ``target``, (N, H, W, D)
    or a single (H, W, D) case."""
    target = np.asarray(target)
    if target.ndim == 3:
        target = target[None]
    if target.min() < 0 or target.max() >= k:
        raise ValueError(
            f"target labels outside [0, {k}): found {target.min()}..{target.max()}"
        )
    oh = np.zeros((target.shape[0], k) + target.shape[1:], dtype=dtype)
    for c in range(k):
        oh[:, c] = target == c
    return oh


def _softmax_dice(scores, onehot):
    """Log-softmax over the class axis of the raw ``scores``, its softmax,
    and each class's soft Dice with its denominator, all in the scores'
    dtype."""
    logp = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(logp)
    norm = p.sum(axis=1, keepdims=True)
    p /= norm
    logp -= np.log(norm)
    axes = (0, 2, 3, 4)
    den = p.sum(axis=axes) + onehot.sum(axis=axes) + DICE_EPS
    dice = (2.0 * (p * onehot).sum(axis=axes) + DICE_EPS) / den
    return logp, p, dice, den


def loss_terms(scores, target, cfg):
    """Total loss plus its cross-entropy and Dice components, one tape op.

    ``scores`` is a (N, K, H, W, D) Tensor of raw class scores, ``target``
    an integer array (N, H, W, D) of labels in [0, K); ``cfg`` gives the
    weights. ``total = w_ce * ce + w_dice * dice_loss``, where ``ce`` is the
    mean over voxels of -log p[target] and ``dice_loss`` is 1 minus the mean
    soft Dice (2 I_c + eps) / den_c of the K - 1 foreground classes, with
    I_c = sum p_c t_c and den_c = sum p_c + sum t_c + eps (Milletari et al.,
    V-Net 2016). Only ``total`` is recorded; ``ce`` and ``dice_loss`` are
    plain Tensors. The rule puts the analytic gradient into ``scores``:
    ``w_ce * (p - t) / n_vox`` for the cross-entropy, and for the Dice term
    ``g_p[c] = -w_dice / (K - 1) * (2 t_c - dice_c) / den_c`` on each
    foreground class (0 on the background), through the softmax as
    ``p * (g_p - sum_c p g_p)``.
    """
    k = scores.shape[1]
    if k < 2:
        raise ValueError(f"the loss needs at least 2 classes, got {k}")
    onehot = _one_hot(target, k, scores.dtype)
    logp, p, dice, den = _softmax_dice(scores.data, onehot)
    n_vox = logp.size // k
    ce = -(logp * onehot).sum() / n_vox
    dice_loss = 1.0 - dice[1:].sum() / (k - 1)
    total = T.Tensor(cfg.w_ce * ce + cfg.w_dice * dice_loss)
    if T._recording(scores):
        slot = scores.slot
        coef = np.zeros_like(den)
        coef[1:] = -cfg.w_dice / (k - 1) / den[1:]
        coef = coef.reshape(1, k, 1, 1, 1)
        def rule(gy):
            g_p = coef * (2.0 * onehot - dice.reshape(coef.shape))
            g = p * (g_p - (p * g_p).sum(axis=1, keepdims=True))
            g += cfg.w_ce / n_vox * (p - onehot)
            g *= gy
            T._accum(slot, g)
        T._record(total, rule)
    return total, T.Tensor(ce), T.Tensor(dice_loss)


def soft_dice_score(scores_data, target, num_classes):
    """Mean soft Dice over foreground classes, from raw score arrays."""
    onehot = _one_hot(target, num_classes, scores_data.dtype)
    return float(_softmax_dice(scores_data, onehot)[2][1:].mean())


# ---------------------------------------------------------------------------
# loop
# ---------------------------------------------------------------------------

def train_loop(model, dataset, cfg, out_dir=None):
    """Optimize ``model`` on (image, label) pairs; returns the loss history.

    ``dataset`` is a sequence of tuples (image (C,H,W,D) float array,
    label (H,W,D) int array with values in [0, num_classes)). When
    ``out_dir`` is given, writes ``loss_log.tsv`` and checkpoint files there.
    """
    if not dataset:
        raise ValueError("train_loop: dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    state = OptimizerState()
    history = []
    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_fh = open(os.path.join(out_dir, "loss_log.tsv"), "w")
        save_checkpoint(model, os.path.join(out_dir, "checkpoint_000000.ckpt"))
    try:
        for it in range(cfg.iters):
            lr = poly_lr(it, cfg)
            model.zero_grads()
            tot_v = ce_v = dice_v = 0.0
            for _ in range(cfg.grad_accum):
                images, labels = [], []
                for _ in range(cfg.batch_size):
                    idx = int(rng.integers(len(dataset)))
                    img, lab = dataset[idx]
                    if cfg.augment:
                        img, lab = augment(img, lab, model.config.input_size, cfg, rng)
                    images.append(img)
                    labels.append(lab)
                batch = T.Tensor(np.stack(images), dtype=model.dtype)
                target = np.stack(labels)
                with T.Tape() as tape:
                    total, ce, dice = loss_terms(model.forward(batch), target, cfg)
                    if cfg.grad_accum > 1:
                        total = T.mul(total, 1.0 / cfg.grad_accum)
                    tape.backward(total)
                tot_v += total.item()
                ce_v += ce.item() / cfg.grad_accum
                dice_v += dice.item() / cfg.grad_accum
            adam_step(model.params, state, lr)
            history.append((it, lr, tot_v, ce_v, dice_v))
            if log_fh is not None:
                log_fh.write(f"{it}\t{lr:.10g}\t{tot_v:.10g}\t{ce_v:.10g}\t{dice_v:.10g}\n")
                if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                    save_checkpoint(
                        model, os.path.join(out_dir, f"checkpoint_{it + 1:06d}.ckpt")
                    )
        if out_dir is not None and cfg.iters > 0:
            save_checkpoint(model, os.path.join(out_dir, "checkpoint_final.ckpt"))
    finally:
        if log_fh is not None:
            log_fh.close()
    return history
