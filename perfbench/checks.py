"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output is right). The
files are read here with the benchmark's own readers, and the expected
values are computed here, apart from the program's code; the only program
code used is ``bitrunet.reference`` (the brute-force oracles) and
``load_checkpoint`` for the question whether a checkpoint loads.
"""

import gzip
import math
import struct

import numpy as np
from scipy.spatial import cKDTree

EXTERNAL = np.array([0, 1, 2, 4], dtype=np.uint8)
REGIONS = {"WT": (1, 2, 4), "TC": (1, 4), "ET": (4,)}


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_mask(path):
    """A uint8 NIfTI-1 volume (gzip or plain, little-endian) as [x, y, z]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    ndim = struct.unpack_from("<h", buf, 40)[0]
    dims = struct.unpack_from(f"<{ndim}h", buf, 42)
    datatype = struct.unpack_from("<h", buf, 70)[0]
    if datatype != 2:
        raise ValueError(f"{path}: datatype {datatype}, expected uint8 (2)")
    offset = int(struct.unpack_from("<f", buf, 108)[0])
    count = int(np.prod(dims))
    return np.frombuffer(buf, np.uint8, count, offset).reshape(dims, order="F")


def read_probs(path):
    """A probability dump: raw little-endian float32 plus its .hdr sidecar."""
    dims = None
    with open(str(path) + ".hdr") as fh:
        for line in fh:
            if line.startswith("dims:"):
                dims = tuple(int(t) for t in line.split(":", 1)[1].split())
    if dims is None:
        raise ValueError(f"{path}.hdr: no dims line")
    return np.fromfile(path, dtype="<f4").reshape(dims)


def read_report(path):
    """case -> region -> (dice, hd95) from an evaluation report."""
    out = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        if not line:
            break
        case, region, dice, hd95 = line.split("\t")[:4]
        out.setdefault(case, {})[region] = (float(dice), float(hd95))
    return out


# ---------------------------------------------------------------------------
# train-32
# ---------------------------------------------------------------------------

def check_loss_log(path, iters):
    """One finite 5-column row per iteration; the loss falls."""
    with open(path) as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    problems = []
    if len(rows) != iters:
        return [f"{path}: {len(rows)} rows, expected {iters}"]
    totals = []
    for i, row in enumerate(rows):
        if len(row) != 5:
            return [f"{path}: row {i} has {len(row)} columns, expected 5"]
        values = [float(v) for v in row]
        if int(values[0]) != i or not all(math.isfinite(v) for v in values):
            problems.append(f"{path}: row {i} is {row}")
        totals.append(values[2])
    n = max(1, iters // 4)
    first, last = np.mean(totals[:n]), np.mean(totals[-n:])
    if not last < first:
        problems.append(
            f"{path}: loss does not fall (first {n} mean {first:.6g}, last {n} mean {last:.6g})"
        )
    return problems


def check_trained(initial, final):
    """Two loaded models: finite parameters, changed by training."""
    problems = []
    changed = 0
    for name, p in final.params.items():
        if not np.isfinite(p.data).all():
            problems.append(f"final checkpoint: parameter {name} is not finite")
        changed += not np.array_equal(p.data, initial.params[name].data)
    if changed == 0:
        problems.append("final checkpoint equals the initial one")
    return problems


# ---------------------------------------------------------------------------
# segment-32
# ---------------------------------------------------------------------------

def check_probs(probs, label, tol=1e-5):
    """Non-negative and summing to 1 over classes at every voxel."""
    problems = []
    if (probs < 0).any():
        problems.append(f"{label}: negative probabilities")
    worst = float(np.abs(probs.astype(np.float64).sum(axis=0) - 1.0).max())
    if not worst <= tol:
        problems.append(f"{label}: class sums differ from 1 by up to {worst:.3g}")
    return problems


def check_labels(mask, label):
    extra = sorted(set(np.unique(mask).tolist()) - set(EXTERNAL.tolist()))
    return [f"{label}: labels {extra} outside {{0, 1, 2, 4}}"] if extra else []


def expected_ensemble(dumps, et_threshold, reference):
    """The voted, postprocessed mask by the brute-force oracles, in external labels."""
    probs = [d.astype(np.float64) for d in dumps]
    masks = [p.argmax(axis=0) for p in probs]
    voted = reference.brute_force_vote(masks, probs)
    cleaned = reference.brute_force_postprocess(voted, {3: et_threshold})
    return EXTERNAL[cleaned]


def check_equal(got, want, label):
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    bad = int((got != want).sum())
    return [f"{label}: {bad} voxels differ"] if bad else []


# ---------------------------------------------------------------------------
# evaluate-brats
# ---------------------------------------------------------------------------

def expected_dice(pred, truth):
    """2|P and T| / (|P| + |T|) from voxel counts; 1 when both are empty."""
    p, t = int(pred.sum()), int(truth.sum())
    if p + t == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(pred & truth)) / (p + t)


def _surface_points(mask, lo):
    """Coordinates of voxels with a background 6-neighbour (outside counts)."""
    m = np.pad(mask, 1)
    inner = m[1:-1, 1:-1, 1:-1].copy()
    for ax in range(3):
        for step in (-1, 1):
            inner &= np.roll(m, step, axis=ax)[1:-1, 1:-1, 1:-1]
    return np.argwhere(mask & ~inner).astype(np.float64) + lo


def expected_hd95(pred, truth):
    """Pooled 95th percentile of nearest-surface distances, by KD-tree.

    Surfaces are taken on the bounding box of both masks grown by one
    voxel; beyond it everything is background, so the box changes nothing.
    Returns None when a surface is empty.
    """
    both = pred | truth
    if not pred.any() or not truth.any():
        return None
    idx = np.argwhere(both)
    lo = np.maximum(idx.min(axis=0) - 1, 0)
    hi = idx.max(axis=0) + 2
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    ps = _surface_points(pred[box], lo)
    ts = _surface_points(truth[box], lo)
    d_pt = cKDTree(ts).query(ps)[0]
    d_tp = cKDTree(ps).query(ts)[0]
    return float(np.percentile(np.concatenate([d_pt, d_tp]), 95))


def check_report(report, cases, sentinel, tol=1e-6):
    """Compare reported Dice and HD95 with values computed here.

    ``cases`` maps case id -> (pred, truth, shift) where ``shift`` is the
    length in voxels of a pure shift, or None.
    """
    problems = []
    for case, (pred, truth, shift) in cases.items():
        rows = report.get(case)
        if rows is None:
            problems.append(f"{case}: missing from the report")
            continue
        for region, labels in REGIONS.items():
            p = np.isin(pred, labels)
            t = np.isin(truth, labels)
            dice, hd = rows[region]
            want_dice = expected_dice(p, t)
            if abs(dice - want_dice) > tol:
                problems.append(f"{case} {region}: dice {dice}, expected {want_dice:.6f}")
            want_hd = expected_hd95(p, t)
            if want_hd is None:
                if p.any() or t.any():
                    want_hd = sentinel
                else:
                    want_hd = 0.0
            if abs(hd - want_hd) > tol:
                problems.append(f"{case} {region}: hd95 {hd}, expected {want_hd:.6f}")
            if shift is not None and p.any() and t.any() and hd > shift + tol:
                problems.append(f"{case} {region}: hd95 {hd} exceeds the {shift}-voxel shift")
    return problems
