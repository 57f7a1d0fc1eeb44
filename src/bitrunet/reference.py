"""Brute-force oracles, and the one table of checks against them.

The oracles (``naive_conv3d`` to ``finite_difference_grad``) are
deliberately naive, with nested loops, exhaustive enumeration, all pairs
and central differences one element at a time, and call no production
code, so a fault in the program cannot hide in its oracle too. Each entry
of ``CHECKS`` runs part of the program on seeded inputs, compares it with
an oracle and returns True when all agree within the bound its docstring
gives; the two gradient entries, the slowest, come last. ``bitrunet
selftest`` prints one line per entry in table order, and the tests read
those lines. Importing this module loads no scipy module; the program
functions that need scipy import it when called.
"""

import gzip
import math
import os
import tempfile

import numpy as np

from . import kernels
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import CacheError, cache_case, load_case, make_sphere_case
from .inference import majority_vote, volume_threshold_postprocess
from .metrics import REGIONS, evaluate_case, hd95, surface_voxels
from .model import BiTrUnetModel, ModelConfig, group_norm
from .nifti import NiftiError, read_nifti, write_nifti
from .tensor import (
    Tape,
    Tensor,
    add,
    attention,
    concat,
    conv3d,
    conv_transpose3d,
    div,
    erf,
    gelu,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    tmax,
    tsum,
)
from .training import TrainConfig, loss_terms


def naive_conv3d(x, w, stride, pad):
    """Direct 7-nested-loop convolution, (N,Cin,H,W,D) x (Cout,Cin,kh,kw,kd)."""
    n, cin, ih, iw, idp = x.shape
    cout, _, kh, kw, kd = w.shape
    oh = (ih + 2 * pad - kh) // stride + 1
    ow = (iw + 2 * pad - kw) // stride + 1
    od = (idp + 2 * pad - kd) // stride + 1
    out = np.zeros((n, cout, oh, ow, od), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for ox in range(oh):
                for oy in range(ow):
                    for oz in range(od):
                        acc = 0.0
                        for c in range(cin):
                            for i in range(kh):
                                for j in range(kw):
                                    for k in range(kd):
                                        xi = ox * stride - pad + i
                                        yj = oy * stride - pad + j
                                        zk = oz * stride - pad + k
                                        if (
                                            0 <= xi < ih
                                            and 0 <= yj < iw
                                            and 0 <= zk < idp
                                        ):
                                            acc += x[b, c, xi, yj, zk] * w[o, c, i, j, k]
                        out[b, o, ox, oy, oz] = acc
    return out


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def brute_force_vote(masks, probs):
    """Exhaustive per-voxel evaluation of mode voting with probability
    tie-breaks, looping over every voxel and category."""
    n = len(masks)
    k = probs[0].shape[0]
    shape = masks[0].shape
    out = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(shape):
        votes = [int(masks[i][idx]) for i in range(n)]
        counts = [votes.count(c) for c in range(k)]
        top = max(counts)
        tied = [c for c in range(k) if counts[c] == top]
        if len(tied) == 1:
            out[idx] = tied[0]
            continue
        best = tied[0]
        best_p = sum(probs[i][(best,) + idx] for i in range(n)) / n
        for c in tied[1:]:
            pc = sum(probs[i][(c,) + idx] for i in range(n)) / n
            if pc > best_p:
                best, best_p = c, pc
        out[idx] = best
    return out


def flood_fill_components(binary):
    """26-connected component labeling by breadth-first flood fill.

    Returns (labels, count); labels are 1..count, background 0.
    """
    binary = np.asarray(binary, dtype=bool)
    labels = np.zeros(binary.shape, dtype=np.int64)
    shape = binary.shape
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    current = 0
    for seed in np.ndindex(shape):
        if not binary[seed] or labels[seed]:
            continue
        current += 1
        stack = [seed]
        labels[seed] = current
        while stack:
            x, y, z = stack.pop()
            for dx, dy, dz in offsets:
                nx, ny, nz = x + dx, y + dy, z + dz
                if (
                    0 <= nx < shape[0]
                    and 0 <= ny < shape[1]
                    and 0 <= nz < shape[2]
                    and binary[nx, ny, nz]
                    and not labels[nx, ny, nz]
                ):
                    labels[nx, ny, nz] = current
                    stack.append((nx, ny, nz))
    return labels, current


def brute_force_postprocess(mask, thresholds):
    """Reference small-component removal built on the flood fill."""
    out = np.asarray(mask).copy()
    for cls, thr in thresholds.items():
        if thr <= 0:
            continue
        labels, count = flood_fill_components(out == cls)
        for comp in range(1, count + 1):
            sel = labels == comp
            if sel.sum() < thr:
                out[sel] = 0
    return out


def brute_force_surface(binary):
    """Surface voxels by the direct definition: any 6-neighbor background
    or volume boundary."""
    binary = np.asarray(binary, dtype=bool)
    out = np.zeros_like(binary)
    shape = binary.shape
    for idx in np.ndindex(shape):
        if not binary[idx]:
            continue
        x, y, z = idx
        on_surface = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            nx, ny, nz = x + dx, y + dy, z + dz
            if not (0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]):
                on_surface = True
                break
            if not binary[nx, ny, nz]:
                on_surface = True
                break
        out[idx] = on_surface
    return out


def brute_force_hd95(pred, truth, spacing=(1.0, 1.0, 1.0)):
    """Nearest-surface distances of every surface voxel against every
    surface voxel of the other mask (no tree), both directions pooled, 95th
    percentile; 373.1287 when exactly one mask has no surface."""
    ps = np.argwhere(brute_force_surface(pred)).astype(np.float64)
    ts = np.argwhere(brute_force_surface(truth)).astype(np.float64)
    if len(ps) == 0 and len(ts) == 0:
        return 0.0
    if len(ps) == 0 or len(ts) == 0:
        return 373.1287
    sp = np.asarray(spacing, dtype=np.float64)
    dists = [np.sqrt((((v - dst) * sp) ** 2).sum(axis=1)).min()
             for src, dst in ((ps, ts), (ts, ps)) for v in src]
    return float(np.percentile(np.asarray(dists), 95))


def finite_difference_grad(f, x, h=1e-4):
    """Central-difference gradient of scalar ``f`` with respect to ``x``.

    ``f`` is called with ``x`` after each in-place perturbation of
    ``x.data`` and must return a float. The data buffer is restored before
    returning.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    flat = x.data.reshape(-1)
    g = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(x.shape)


# ---------------------------------------------------------------------------
# the checks: the program against the oracles above
# ---------------------------------------------------------------------------

def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), 1e-12)


def conv_kernel_errors(x, w, gy, stride, pad, ref, dtype=np.float64):
    """The max abs error of the forward conv kernel run in ``dtype`` against
    the 7-loop output ``ref``, then the relative errors of the input and
    weight gradients by <ref, gy> == <x, input_grad(gy)> ==
    <w, weight_grad(x, gy)>; all inf when an output has the wrong shape or
    dtype."""
    xd, wd, gyd = (a.astype(dtype) for a in (x, w, gy))
    outs = (kernels.conv3d_forward(xd, wd, stride, pad),
            kernels.conv3d_input_grad(gyd, wd, stride, pad, x.shape[2:]),
            kernels.conv3d_weight_grad(xd, gyd, stride, pad, w.shape[2:]))
    if [(o.shape, o.dtype) for o in outs] != [(a.shape, np.dtype(dtype)) for a in (ref, x, w)]:
        return (math.inf,) * 3
    lhs = float((ref * gy).sum())
    return (float(np.abs(outs[0] - ref).max()),
            *(_rel(lhs, float((a * g).sum())) for a, g in zip((x, w), outs[1:])))


def _conv_instances(rng):
    """5 random (x, w) of each of three shapes, at strides 1 and 2 and
    padding 0 and 1, each with its 7-loop output."""
    for _ in range(5):
        for x_shape, cout in (((1, 2, 5, 5, 5), 3), ((2, 2, 5, 5, 5), 3), ((2, 3, 6, 5, 7), 4)):
            x = rng.standard_normal(x_shape)
            w = rng.standard_normal((cout, x_shape[1], 3, 3, 3))
            for stride, pad in ((1, 0), (1, 1), (2, 0), (2, 1)):
                yield x, w, stride, pad, naive_conv3d(x, w, stride, pad)


def check_conv_forward():
    """conv3d_forward, and the tape's conv3d (padding 1), on
    ``_conv_instances``; within 1e-10."""
    for x, w, stride, pad, ref in _conv_instances(np.random.default_rng(0)):
        if not conv_kernel_errors(x, w, np.zeros_like(ref), stride, pad, ref)[0] < 1e-10:
            return False
        if pad == 1:
            y = conv3d(Tensor(x), Tensor(w), None, stride).data
            if y.shape != ref.shape or not np.abs(y - ref).max() < 1e-10:
                return False
    return True


def check_conv_grads():
    """Both conv gradient kernels as adjoints of the 7-loop convolution, on
    ``_conv_instances`` with 3 random output gradients each; within 1e-10
    relative."""
    rng = np.random.default_rng(1)
    for x, w, stride, pad, ref in _conv_instances(rng):
        for _ in range(3):
            errors = conv_kernel_errors(x, w, rng.standard_normal(ref.shape), stride, pad, ref)
            if not all(e < 1e-10 for e in errors[1:]):
                return False
    return True


def check_conv_edge_extents():
    """The three conv kernels, forward and adjoint, at extents of 1 and 2
    voxels, mixed extents, odd extents at stride 2 with and without
    padding; batch 2, 2->3 and 3->4 channels; float64 within 1e-10, float32
    within 1e-4, each output in its input's dtype."""
    rng = np.random.default_rng(2)
    for spatial, stride, pad in (
        ((1, 1, 1), 1, 1), ((2, 2, 2), 1, 1), ((2, 3, 4), 1, 1),
        ((1, 1, 1), 2, 1), ((2, 2, 2), 2, 1), ((2, 3, 4), 2, 1),
        ((5, 7, 3), 2, 0), ((5, 7, 3), 2, 1), ((3, 5, 9), 2, 0), ((7, 3, 5), 2, 1),
    ):
        for cin, cout in ((2, 3), (3, 4)):
            x = rng.standard_normal((2, cin) + spatial)
            w = rng.standard_normal((cout, cin, 3, 3, 3))
            ref = naive_conv3d(x, w, stride, pad)
            gy = rng.standard_normal(ref.shape)
            for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
                if not all(e < tol for e in conv_kernel_errors(x, w, gy, stride, pad, ref, dtype)):
                    return False
    return True


def check_matmul():
    """tensor.matmul, 5 random (4, 5) @ (5, 3); within 1e-10."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        if not np.abs(matmul(Tensor(a), Tensor(b)).data - naive_matmul(a, b)).max() < 1e-10:
            return False
    return True


def check_transposed_conv():
    """<conv3d(x), y> == <x, conv_transpose3d(y)> with one weight: strides 1
    and 2 on 4^3, stride 1 on (3, 4, 5), stride 2 on (4, 4, 6), 10 instances
    each; the output has x's shape, and the two sides agree within 1e-6
    relative."""
    rng = np.random.default_rng(4)
    for spatial, stride in (((4, 4, 4), 1), ((4, 4, 4), 2), ((3, 4, 5), 1), ((4, 4, 6), 2)):
        for _ in range(10):
            x = rng.standard_normal((1, 2) + spatial)
            w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
            cx = conv3d(Tensor(x), w, None, stride).data
            y = rng.standard_normal(cx.shape)
            ty = conv_transpose3d(Tensor(y), w, None, stride).data
            if ty.shape != x.shape or not _rel((cx * y).sum(), (x * ty).sum()) < 1e-6:
                return False
    return True


def check_erf():
    """tensor.erf against math.erf on 2,801 points of [-7, 7] (both branches
    and the tails): float64 within 2 ulp, float32 within 1 ulp, each
    returned in its input's dtype."""
    for dtype, ulps in ((np.float64, 2), (np.float32, 1)):
        grid = np.linspace(-7.0, 7.0, 2801).astype(dtype)
        want = np.array([math.erf(v) for v in grid.tolist()]).astype(dtype)
        got = erf(grid)
        if got.dtype != dtype or not np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))):
            return False
    return True


def check_vote():
    """majority_vote: 1 to 5 models on 120 random shapes of extents 1 to 4,
    then on 30 of 3^3, every other one with 2 models. Every third instance
    draws its probabilities from {0.2, 0.4}, forcing exact averaged ties
    that the lowest label must win. Exact equality."""
    rng = np.random.default_rng(5)
    for trial in range(150):
        n = 2 if trial >= 120 and trial % 2 else trial % 5 + 1
        shape = (3, 3, 3) if trial >= 120 else tuple(int(s) for s in rng.integers(1, 5, 3))
        draw = (lambda s: rng.choice([0.2, 0.4], s)) if trial % 3 == 2 else rng.random
        probs = [draw((4,) + shape) for _ in range(n)]
        masks = [rng.integers(0, 4, shape) for _ in range(n)]
        if not np.array_equal(majority_vote(masks, probs), brute_force_vote(masks, probs)):
            return False
    return True


def check_postprocess():
    """volume_threshold_postprocess, and that it leaves its own output
    unchanged: 110 random 4-label 8^3 masks and 20 of 6^3, a threshold of 1
    to 10 voxels per label. Exact equality."""
    rng = np.random.default_rng(6)
    for shape in [(8, 8, 8)] * 110 + [(6, 6, 6)] * 20:
        mask = rng.integers(0, 4, shape)
        thr = {c: int(rng.integers(1, 11)) for c in (1, 2, 3)}
        once = volume_threshold_postprocess(mask, thr)
        if not (np.array_equal(once, brute_force_postprocess(mask, thr))
                and np.array_equal(volume_threshold_postprocess(once, thr), once)):
            return False
    return True


def check_surface():
    """surface_voxels as bool and uint8 on 14 shapes with extents of 1 and
    2: the full mask (a boundary voxel is a surface voxel even where its
    mask fills that axis, so it is all surface iff its smallest extent is
    2 or less) and 5 random masks at each of 4 densities, each also with
    both corners set; then a mask touching all six faces and a strided
    view. Exact equality and a bool result."""
    rng = np.random.default_rng(7)
    masks = []
    for shape in ((1, 1, 1), (1, 1, 5), (1, 4, 3), (1, 5, 4), (1, 7, 4), (2, 1, 3), (2, 2, 2),
                  (2, 3, 6), (3, 1, 1), (3, 5, 7), (4, 5, 6), (5, 1, 2), (6, 6, 6), (9, 2, 5)):
        masks.append(np.ones(shape, dtype=bool))
        if surface_voxels(masks[-1]).all() != (min(shape) <= 2):
            return False
        for density in (0.3, 0.4, 0.7, 0.8) * 5:
            m = rng.random(shape) < density
            masks.append(m.copy())
            m[0, 0, 0] = m[-1, -1, -1] = True
            masks.append(m)
    faces = np.zeros((7, 6, 5), dtype=bool)
    faces[:, 1:5, 1:4] = faces[2:5, :, 2] = faces[3, 3, :] = True
    masks += [faces, (rng.random((9, 8, 10)) < 0.7)[1:8, ::2, 9:0:-3]]
    for mask in masks + [m.astype(np.uint8) for m in masks]:
        got = surface_voxels(mask)
        if got.dtype != bool or not np.array_equal(got, brute_force_surface(mask)):
            return False
    return True


def check_hd95():
    """hd95 both ways round at unit and three anisotropic spacings: 110
    random 8^3 and 20 random 6^3 pairs of density 0.05 to 0.5; per axis,
    boxes and 3 random masks on opposite faces; a core nested far inside a
    box that fills the array on four faces; both masks empty, and one.
    Within 1e-9."""
    rng = np.random.default_rng(8)
    pairs = []
    for shape in [(8, 8, 8)] * 110 + [(6, 6, 6)] * 20:
        density = rng.uniform(0.05, 0.5)
        pairs.append((rng.random(shape) < density, rng.random(shape) < density))
    for axis in range(3):
        a, b = np.zeros((6, 6, 6), dtype=bool), np.zeros((6, 6, 6), dtype=bool)
        a[:2, 1:4, 2:5] = b[3:, 2:5, 1:3] = True
        pairs.append((np.moveaxis(a, 0, axis), np.moveaxis(b, 0, axis)))
        for _ in range(3):
            a, b = np.zeros((7, 6, 8), dtype=bool), np.zeros((7, 6, 8), dtype=bool)
            a[:3], b[4:] = rng.random((2, 3, 6, 8)) < 0.4
            a[0, 0, 0] = b[-1, -1, -1] = True
            pairs.append((np.moveaxis(a, 0, axis), np.moveaxis(b, 0, axis)))
    outer, empty = np.zeros((18, 16, 15), dtype=bool), np.zeros((8, 8, 8), dtype=bool)
    outer[:, 1:15, :] = True
    inner, one = np.zeros_like(outer), empty.copy()
    inner[8:10, 7:9, 6:9] = one[4, 4, 4] = True
    pairs += [(outer, inner), (empty, empty), (one, empty)]
    for spacing in ((1.0, 1.0, 1.0), (1.5, 1.0, 0.5), (0.7, 2.5, 1.3), (1.2, 0.9, 2.0)):
        for a, b in pairs:
            ref = brute_force_hd95(a, b, spacing)
            if not all(abs(hd95(*ab, spacing) - ref) <= 1e-9 for ab in ((a, b), (b, a))):
                return False
    return True


def check_evaluate_crop():
    """evaluate_case, which scores the joint bounding box, against counts
    and the all-pairs HD95 of the full volume: blobs of labels 2, 1 and 4 in
    [1, 9)^3 of a 12^3 volume, so the box lies strictly inside, at unit and
    two anisotropic spacings. Within 1e-9."""
    rng = np.random.default_rng(9)

    def ratio(num, den):
        return 1.0 if den == 0 else num / den

    for spacing in ((1.0, 1.0, 1.0), (1.5, 1.0, 0.5), (1.0, 1.5, 0.8)):
        masks = []
        for _ in range(2):
            m = np.zeros((12, 12, 12), dtype=np.uint8)
            for label in (2, 1, 4):
                lo = rng.integers(1, 7, 3)
                hi = lo + rng.integers(1, 4, 3)
                m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = label
            masks.append(m)
        got = evaluate_case(masks[0], masks[1], spacing=spacing)
        for region in REGIONS:
            p, t = (np.isin(m, sorted(region.labels)) for m in masks)
            tp = np.count_nonzero(p & t)
            fp = np.count_nonzero(p & ~t)
            fn = np.count_nonzero(~p & t)
            tn = np.count_nonzero(~p & ~t)
            want = {
                "dice": ratio(2 * tp, 2 * tp + fp + fn),
                "hd95": brute_force_hd95(p, t, spacing),
                "sensitivity": ratio(tp, tp + fn),
                "specificity": ratio(tn, tn + fp),
            }
            if not all(abs(got[region.name][k] - want[k]) <= 1e-9 for k in want):
                return False
    return True


def check_roundtrips():
    """NIfTI (gzip and plain; float32 from C- and Fortran-ordered arrays, a
    uint8 (37, 11, 70) volume and its strided view ``[::2]``, a 4D int16
    (5, 6, 33, 2) volume and big-endian float32, so the writer's slab and
    row-block edges are crossed; the file holds the header, then the
    little-endian payload x-fastest, and stdlib gzip reads it), the case
    cache and a checkpoint each read back bit-exact; a bad NIfTI magic, a
    flipped cache CRC byte and a bad checkpoint magic each raise the
    format's own error."""
    rng = np.random.default_rng(10)
    with tempfile.TemporaryDirectory() as td:
        path = {name: os.path.join(td, name)
                for name in ("v.nii.gz", "v.nii", "c.btrc", "m.ckpt", "bad")}
        arrays = []
        for shape in ((5, 3, 4), (5, 4, 6)):
            vol = rng.standard_normal(shape).astype(np.float32)
            arrays += [vol, np.asfortranarray(vol)]
        wide = rng.integers(0, 256, (37, 11, 70), dtype=np.uint8)
        arrays += [
            wide,
            wide[::2],
            rng.integers(-1000, 1000, (5, 6, 33, 2), dtype=np.int16),
            rng.standard_normal((9, 10, 35)).astype(">f4"),
        ]
        for arr in arrays:
            payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes(order="F")
            for name, opener in (("v.nii.gz", gzip.open), ("v.nii", open)):
                write_nifti(path[name], arr)
                with opener(path[name], "rb") as fh:
                    raw = fh.read()
                hdr, back = read_nifti(path[name])
                if not (raw[hdr.vox_offset:] == payload and np.array_equal(arr, back)):
                    return False
        for seed in (42, 5):
            rec = make_sphere_case(size=16, radius=4, seed=seed)
            cache_case(rec, path["c.btrc"])
            back = load_case(path["c.btrc"])
            if not (np.array_equal(rec.volume.data, back.volume.data)
                    and np.array_equal(rec.label, back.label)):
                return False
        cfg = ModelConfig(in_channels=2, base_width=4, num_classes=4, embed_dim=16,
                          vit_layers=1, heads=2, ffn_hidden=32, input_size=(16, 16, 16))
        model = BiTrUnetModel(cfg, seed=4, dtype=np.float32)
        save_checkpoint(model, path["m.ckpt"])
        loaded = load_checkpoint(path["m.ckpt"]).params
        if any(not np.array_equal(t.data, loaded[k].data) for k, t in model.params.items()):
            return False
        for name, corrupt, reader, error in (
            ("v.nii", lambda b: b[:344] + b"ni5\x00" + b[348:], read_nifti, NiftiError),
            ("c.btrc", lambda b: b[:-1] + bytes([b[-1] ^ 0x01]), load_case, CacheError),
            ("m.ckpt", lambda b: b"XXXX" + b[4:], load_checkpoint, CheckpointError),
        ):
            with open(path[name], "rb") as src, open(path["bad"], "wb") as dst:
                dst.write(corrupt(src.read()))
            try:
                reader(path["bad"])
                return False
            except error:
                pass
    return True


def gradient_error(inputs, forward, h=1e-4):
    """Max relative error between tape gradients and finite differences.

    ``forward`` recomputes a scalar Tensor from the current contents of the
    ``inputs`` tensors, so the same closure serves both the analytic pass
    (under a tape) and the perturbed finite-difference evaluations (tape-free).
    """
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        tape_loss = forward()
        tape.backward(tape_loss)
    worst = 0.0
    for t in inputs:
        if t.grad is None:
            raise AssertionError("input received no gradient")
        fd = finite_difference_grad(lambda _: forward().item(), t, h)
        scale = max(np.abs(fd).max(), np.abs(t.grad).max(), 1e-10)
        worst = max(worst, float(np.abs(t.grad - fd).max() / scale))
    return worst


def model_gradient_error(model, x, samples=50, seed=0, h=1e-6):
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
    probe = Tensor(probe_data.astype(model.dtype))

    def loss():
        return mul(tsum(mul(model.forward(x), probe)), 1.0 / probe_data.size)

    model.zero_grads()
    with Tape() as tape:
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


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _rand_away_from_zero(rng, shape, margin=0.1):
    d = rng.uniform(margin, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return Tensor(d, requires_grad=True)


def _probe(rng, out):
    # fixed random linear functional makes the upstream gradient non-uniform
    r = Tensor(rng.standard_normal(out))
    return lambda y: tsum(mul(y, r))


def _gradient_builders():
    """name -> builder(rng) -> (inputs, forward)."""
    def b_add(rng):
        a, b = _rand(rng, (3, 4)), _rand(rng, (4,))
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(add(a, b))

    def b_mul(rng):
        a, b = _rand(rng, (3, 4)), _rand(rng, (3, 1))
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(mul(a, b))

    def b_div(rng):
        a = _rand(rng, (3, 4))
        b = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        p = _probe(rng, (3, 4))
        return [a, b], lambda: p(div(a, b))

    def b_matmul(rng):
        a, b = _rand(rng, (4, 5)), _rand(rng, (5, 3))
        p = _probe(rng, (4, 3))
        return [a, b], lambda: p(matmul(a, b))

    def b_matmul_batched(rng):
        a, b = _rand(rng, (2, 3, 4)), _rand(rng, (2, 4, 5))
        p = _probe(rng, (2, 3, 5))
        return [a, b], lambda: p(matmul(a, b))

    def b_relu(rng):
        x = _rand_away_from_zero(rng, (4, 5))
        p = _probe(rng, (4, 5))
        return [x], lambda: p(relu(x))

    def b_gelu(rng):
        x = _rand(rng, (4, 5), -2.0, 2.0)
        p = _probe(rng, (4, 5))
        return [x], lambda: p(gelu(x))

    def b_sigmoid(rng):
        x = _rand(rng, (4, 5), -3.0, 3.0)
        p = _probe(rng, (4, 5))
        return [x], lambda: p(sigmoid(x))

    def b_attention(rng):
        # batch 2, 2 heads, 3 features per head, 5 tokens
        q, k, v = (_rand(rng, (2, 2, 3, 5), -2.0, 2.0) for _ in range(3))
        p = _probe(rng, (2, 2, 3, 5))
        return [q, k, v], lambda: p(attention(q, k, v))

    def b_layer_norm(rng):
        # 6 features, 3 token columns
        x = _rand(rng, (2, 6, 3))
        g = Tensor(rng.uniform(0.5, 1.5, (6,)), requires_grad=True)
        b = _rand(rng, (6,))
        p = _probe(rng, (2, 6, 3))
        return [x, g, b], lambda: p(layer_norm(x, g, b))

    def group_norm_builder(channels, groups):
        def build(rng):
            x = _rand(rng, (2, channels, 2, 3, 2))
            g = Tensor(rng.uniform(0.5, 1.5, (channels,)), requires_grad=True)
            b = _rand(rng, (channels,))
            p = _probe(rng, x.shape)
            return [x, g, b], lambda: p(group_norm(x, g, b, groups))
        return build

    def b_conv3d_s1(rng):
        x = _rand(rng, (1, 2, 4, 3, 5))
        w = _rand(rng, (3, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (3,))
        p = _probe(rng, (1, 3, 4, 3, 5))
        return [x, w, bias], lambda: p(conv3d(x, w, bias))

    def b_conv3d_s2(rng):
        x = _rand(rng, (2, 2, 4, 4, 5))
        w = _rand(rng, (2, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (2, 2, 2, 2, 3))
        return [x, w, bias], lambda: p(conv3d(x, w, bias, stride=2))

    def b_conv_transpose_s2(rng):
        x = _rand(rng, (1, 3, 2, 3, 2))
        w = _rand(rng, (3, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (1, 2, 4, 6, 4))
        return [x, w, bias], lambda: p(conv_transpose3d(x, w, bias, stride=2))

    def b_conv_transpose_s1(rng):
        x = _rand(rng, (1, 2, 3, 4, 3))
        w = _rand(rng, (2, 2, 3, 3, 3), -0.5, 0.5)
        bias = _rand(rng, (2,))
        p = _probe(rng, (1, 2, 3, 4, 3))
        return [x, w, bias], lambda: p(conv_transpose3d(x, w, bias))

    def b_concat(rng):
        a, b = _rand(rng, (1, 2, 3, 3, 3)), _rand(rng, (1, 3, 3, 3, 3))
        p = _probe(rng, (1, 5, 3, 3, 3))
        return [a, b], lambda: p(concat([a, b], axis=1))

    def b_reshape(rng):
        x = _rand(rng, (2, 3, 4))
        p = _probe(rng, (6, 4))
        return [x], lambda: p(reshape(x, (6, 4)))

    def b_sum_axis(rng):
        x = _rand(rng, (3, 4, 2))
        p = _probe(rng, (3, 2))
        return [x], lambda: p(tsum(x, axis=1))

    def b_sum_axes(rng):
        x = _rand(rng, (2, 3, 3, 2, 4))
        p = _probe(rng, (2, 3))
        return [x], lambda: p(tsum(x, axis=(2, 3, 4)))

    def b_max_axis(rng):
        x = _rand(rng, (3, 4, 2))
        p = _probe(rng, (3, 1, 2))
        return [x], lambda: p(tmax(x, axis=1, keepdims=True))

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


def check_op_gradients():
    """Every differentiable op's tape gradients against central differences
    (h 1e-4), each input in turn: the ``_gradient_builders`` cases, 20
    random instances of each at seed 0, then 5 at seed 7. Worst relative
    error below 1e-4."""
    builders = _gradient_builders().values()
    for seed, instances in ((0, 20), (7, 5)):
        rng = np.random.default_rng(seed)
        for builder in builders:
            for _ in range(instances):
                if not gradient_error(*builder(rng)) < 1e-4:
                    return False
    return True


def check_model_gradients():
    """``model_gradient_error`` of two float64 models at 16^3 (2 -> 4
    classes, base width 4, embed 16, one layer of 2 heads, seed 0):
    ffn_hidden 64 on a seed-1 input with 50 sampled parameters at seed 2,
    and ffn_hidden 32 on a seed-5 input with 15 at seed 3. Worst per-scalar
    error below 1e-3."""
    for ffn_hidden, input_seed, samples, seed in ((64, 1, 50, 2), (32, 5, 15, 3)):
        cfg = ModelConfig(in_channels=2, base_width=4, num_classes=4, embed_dim=16,
                          vit_layers=1, heads=2, ffn_hidden=ffn_hidden,
                          input_size=(16, 16, 16))
        model = BiTrUnetModel(cfg, seed=0, dtype=np.float64)
        x = Tensor(np.random.default_rng(input_seed).standard_normal((1, 2, 16, 16, 16)))
        if not model_gradient_error(model, x, samples, seed) < 1e-3:
            return False
    return True


# name -> check, in the order ``bitrunet selftest`` runs and prints them
CHECKS = {
    "conv3d vs naive loop oracle": check_conv_forward,
    "conv3d input/weight grads vs naive (adjoint)": check_conv_grads,
    "conv3d kernels at edge extents, strides and dtypes": check_conv_edge_extents,
    "matmul vs triple loop oracle": check_matmul,
    "transposed conv adjointness": check_transposed_conv,
    "erf vs math.erf": check_erf,
    "majority vote vs brute force": check_vote,
    "postprocess vs flood fill": check_postprocess,
    "surface voxels vs brute-force oracle": check_surface,
    "hd95 vs all-pairs oracle": check_hd95,
    "evaluate_case on crop vs full-volume metrics": check_evaluate_crop,
    "file format roundtrips": check_roundtrips,
    "op gradients vs central differences": check_op_gradients,
    "model gradients vs central differences": check_model_gradients,
}
