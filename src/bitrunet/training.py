"""Training recipe: combined CE + soft-Dice loss, Adam, polynomial learning
rate decay, random crop and intensity augmentation, and a deterministic loop.

The loop writes one tab-separated log line per iteration
(iter, lr, total_loss, ce, dice) and periodic checkpoints. With a fixed seed
and single-threaded execution two runs produce bit-identical checkpoints.
"""

import os
from dataclasses import dataclass, field

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
    # (N, H, W, D) int -> (N, K, H, W, D) indicator
    oh = np.zeros((target.shape[0], k) + target.shape[1:], dtype=dtype)
    for c in range(k):
        oh[:, c] = target == c
    return oh


def loss_terms(scores, target, cfg):
    """Total loss plus its cross-entropy and Dice components (all Tensors).

    ``scores`` is (N, K, H, W, D) raw class scores, ``target`` an integer
    array (N, H, W, D) of labels in [0, K); ``cfg`` gives the weights.
    """
    k = scores.shape[1]
    target = np.asarray(target)
    if target.ndim == 3:
        target = target[None]
    if target.min() < 0 or target.max() >= k:
        raise ValueError(
            f"target labels outside [0, {k}): found {target.min()}..{target.max()}"
        )
    onehot = T.Tensor(_one_hot(target, k, scores.dtype))

    # stable log-softmax over the class axis; the max is a constant shift
    shift = T.Tensor(scores.data.max(axis=1, keepdims=True))
    z = T.sub(scores, shift)
    lse = T.add(T.log(T.tsum(T.exp(z), axis=1, keepdims=True)), shift)
    logp = T.sub(scores, lse)

    n_vox = target.size
    ce = T.mul(T.tsum(T.mul(logp, onehot)), -1.0 / n_vox)

    p = T.exp(logp)
    axes = (0, 2, 3, 4)
    inter = T.tsum(T.mul(p, onehot), axis=axes)
    p_sum = T.tsum(p, axis=axes)
    t_sum = T.Tensor(onehot.data.sum(axis=axes))
    dice_per_class = T.div(
        T.add(T.mul(inter, 2.0), DICE_EPS), T.add(T.add(p_sum, t_sum), DICE_EPS)
    )
    fg = np.ones(k, dtype=scores.dtype)
    fg[0] = 0.0
    mean_fg = T.mul(T.tsum(T.mul(dice_per_class, T.Tensor(fg))), 1.0 / (k - 1))
    dice_loss = T.sub(T.Tensor(np.asarray(1.0, dtype=scores.dtype)), mean_fg)

    total = T.add(T.mul(ce, cfg.w_ce), T.mul(dice_loss, cfg.w_dice))
    return total, ce, dice_loss


def soft_dice_score(scores_data, target, num_classes, eps=DICE_EPS):
    """Mean soft Dice over foreground classes, from raw score arrays."""
    z = scores_data - scores_data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    target = np.asarray(target)
    if target.ndim == 3:
        target = target[None]
    vals = []
    for c in range(1, num_classes):
        t = (target == c).astype(p.dtype)
        inter = float((p[:, c] * t).sum())
        denom = float(p[:, c].sum() + t.sum())
        vals.append((2.0 * inter + eps) / (denom + eps))
    return float(np.mean(vals))


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
