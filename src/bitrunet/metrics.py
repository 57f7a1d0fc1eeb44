"""Segmentation metrics over the three overlapping tumor regions.

Masks are in the external label vocabulary {0, 1, 2, 4}. Regions:
whole tumor {1, 2, 4}, tumor core {1, 4}, enhancing tumor {4}.

A surface voxel is a foreground voxel with at least one of its six axis
neighbors background, or lying on the volume boundary. ``surface_voxels``
erodes a copy of the mask padded with one voxel of background on every
face by six ANDs with its axis-shifted views, so the boundary counts as
background. HD95 pools the nearest-surface distances from both directions
into one set and takes the 95th percentile.

Cropping to a box that holds every foreground voxel of both masks changes
no result: outside the box both masks are background, so the erosion marks
the same surface voxels, and all of them lie inside the box, so every
nearest-surface distance is the same. ``evaluate_case`` scores every
region on the joint box of the two masks' nonzero voxels, which it takes
from the projections ``check_labels`` returns, and adds the voxels outside
it to the true negatives; ``hd95`` crops again, to the box
of its own region's two masks. Per region, ``evaluate_case`` counts |P|,
|T| and |P∩T| once and takes Dice, sensitivity and specificity from those
counts, by the same formulas ``dice``, ``sensitivity`` and ``specificity``
use.

``hd95`` finds each surface voxel's nearest surface voxel of the other
mask with a k-d tree query over the surface voxels' physical coordinates
(Bentley 1975), so its cost follows the surface, not the volume. The trees
split at the sliding midpoint of each cell rather than at the median
(Maneewongvatana & Mount 1999): cheaper to build, and the queries stay
exact. The distances are the exact Euclidean ones a distance transform
gives.
"""

from dataclasses import dataclass

import numpy as np

# one empty and one nonempty surface: distance is undefined, report this
HD95_EMPTY_SENTINEL = 373.1287


@dataclass(frozen=True)
class RegionSpec:
    name: str
    labels: frozenset


REGIONS = (
    RegionSpec("WT", frozenset({1, 2, 4})),
    RegionSpec("TC", frozenset({1, 4})),
    RegionSpec("ET", frozenset({4})),
)


def check_labels(mask, source):
    """Raise a ValueError naming ``source`` and the first label, in memory
    order, outside {0, 1, 2, 4}; otherwise return the projections of the
    nonzero voxels onto each axis, as ``_projections`` gives them. One pass
    over the volume in cache-sized slabs along its slowest axis in memory,
    with no sort and no full-volume temporary."""
    mask = np.asarray(mask)
    slow = int(np.argmax(np.abs(mask.strides)))
    others = tuple(a for a in range(mask.ndim) if a != slow)
    along = np.zeros(mask.shape[slow], dtype=bool)
    across = np.zeros([mask.shape[a] for a in others], dtype=bool)
    step = max(1, (1 << 18) // max(1, across.size))
    cut = [slice(None)] * mask.ndim
    for start in range(0, along.size, step):
        cut[slow] = slice(start, start + step)
        slab = mask[tuple(cut)]
        nonzero = slab != 0
        bad = nonzero & (slab != 1) & (slab != 2) & (slab != 4)
        if bad.any():
            # raveled alike, both are in memory order
            label = np.ravel(slab, order="K")[np.ravel(bad, order="K")][0]
            # str() of a numpy scalar is the shortest repr at its own precision
            label = int(label) if float(label).is_integer() else str(label)
            raise ValueError(f"{source}: label {label} is not one of 0, 1, 2, 4")
        along[start : start + step] = nonzero.any(axis=others)
        across |= nonzero.any(axis=slow)
    hits = _projections(across)
    hits.insert(slow, along)
    return hits


def region_mask(mask, region):
    """Boolean volume: voxel label belongs to the region's label set."""
    mask = np.asarray(mask)
    first, *rest = sorted(region.labels)
    out = mask == first
    for label in rest:
        out |= mask == label
    return out


def _check_shapes(pred, truth, what):
    if pred.shape != truth.shape:
        raise ValueError(f"{what}: shape mismatch {pred.shape} vs {truth.shape}")


def _bools(pred, truth, what):
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    _check_shapes(pred, truth, what)
    return pred, truth


def _counts(pred, truth):
    """(TP, FP, TN, FN) of two boolean masks of one shape, from |P|, |T|
    and |P∩T|."""
    p = int(np.count_nonzero(pred))
    t = int(np.count_nonzero(truth))
    tp = int(np.count_nonzero(pred & truth))
    return tp, p - tp, pred.size - p - t + tp, t - tp


def _dice(tp, fp, fn):
    return 1.0 if tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)


def _sensitivity(tp, fn):
    return 1.0 if tp + fn == 0 else tp / (tp + fn)


def _specificity(tn, fp):
    return 1.0 if tn + fp == 0 else tn / (tn + fp)


def dice(pred, truth):
    """2|P∩T| / (|P|+|T|); both empty -> 1.0, exactly one empty -> 0.0."""
    tp, fp, _, fn = _counts(*_bools(pred, truth, "dice"))
    return _dice(tp, fp, fn)


def confusion_counts(pred, truth):
    """(TP, FP, TN, FN) voxel counts of two masks of one shape."""
    return _counts(*_bools(pred, truth, "confusion"))


def sensitivity(pred, truth):
    """TP / (TP + FN); defined as 1.0 when the truth is empty."""
    tp, _, _, fn = confusion_counts(pred, truth)
    return _sensitivity(tp, fn)


def specificity(pred, truth):
    """TN / (TN + FP); defined as 1.0 when the truth covers everything."""
    _, fp, tn, _ = confusion_counts(pred, truth)
    return _specificity(tn, fp)


def surface_voxels(mask):
    """Foreground voxels with a 6-neighbor background or on the boundary."""
    mask = np.asarray(mask, dtype=bool)
    inner = tuple(slice(1, n + 1) for n in mask.shape)
    padded = np.zeros(tuple(n + 2 for n in mask.shape), dtype=bool)
    core = padded[inner]
    core[...] = mask
    eroded = core.copy()
    for axis, n in enumerate(mask.shape):
        for start in (0, 2):
            shifted = list(inner)
            shifted[axis] = slice(start, start + n)
            eroded &= padded[tuple(shifted)]
    eroded ^= core  # every eroded voxel is foreground
    return eroded


def _projections(nonzero):
    """Per axis, a boolean vector marking the indices at which ``nonzero``
    holds a True voxel."""
    axes = range(nonzero.ndim)
    return [nonzero.any(axis=tuple(a for a in axes if a != axis)) for axis in axes]


def _box(projections):
    """Slices of the smallest box that holds every voxel marked in the
    ``projections`` onto each axis; an empty box when there is none."""
    box = []
    for hits in projections:
        hit = np.flatnonzero(hits)
        if hit.size == 0:
            return (slice(0, 0),) * len(projections)
        box.append(slice(hit[0], hit[-1] + 1))
    return tuple(box)


def hd95(pred, truth, spacing=(1.0, 1.0, 1.0)):
    """95th percentile of surface-to-nearest-surface distances, both
    directions pooled into one set.

    Both masks are first cropped to the box of ``pred | truth``. Each
    surface voxel's distance to the other mask's surface is a nearest
    neighbor query on a k-d tree of that surface's coordinates in
    ``spacing`` units.

    Both empty -> 0.0; exactly one empty -> ``HD95_EMPTY_SENTINEL``.
    """
    # imported here: scipy.spatial would add to every command's start-up
    from scipy.spatial import KDTree

    pred, truth = _bools(pred, truth, "hd95")
    box = _box(_projections(pred | truth))
    scale = np.asarray(spacing, dtype=np.float64)
    ps = np.argwhere(surface_voxels(pred[box])) * scale
    ts = np.argwhere(surface_voxels(truth[box])) * scale
    if len(ps) == 0 and len(ts) == 0:
        return 0.0
    if len(ps) == 0 or len(ts) == 0:
        return HD95_EMPTY_SENTINEL
    d_to_truth = KDTree(ts, balanced_tree=False).query(ps)[0]
    d_to_pred = KDTree(ps, balanced_tree=False).query(ts)[0]
    return float(np.percentile(np.concatenate([d_to_truth, d_to_pred]), 95))


def evaluate_case(pred_mask, truth_mask, spacing=(1.0, 1.0, 1.0),
                  sources=("prediction", "truth")):
    """Per-region dice, hd95, sensitivity and specificity for one case,
    scored on the joint bounding box of the two masks' nonzero voxels.

    Both masks must be 3D and hold only the labels {0, 1, 2, 4}; ``sources``
    names them in the error otherwise.
    """
    pred_mask = np.asarray(pred_mask)
    truth_mask = np.asarray(truth_mask)
    for mask, source in ((pred_mask, sources[0]), (truth_mask, sources[1])):
        if mask.ndim != 3:
            raise ValueError(f"{source}: mask of shape {mask.shape} is not 3D")
    _check_shapes(pred_mask, truth_mask, "evaluate_case")
    pred_hits = check_labels(pred_mask, sources[0])
    truth_hits = check_labels(truth_mask, sources[1])
    box = _box([p | t for p, t in zip(pred_hits, truth_hits)])
    pred_box, truth_box = pred_mask[box], truth_mask[box]
    out = {}
    for region in REGIONS:
        p = region_mask(pred_box, region)
        t = region_mask(truth_box, region)
        tp, fp, tn, fn = _counts(p, t)
        tn += pred_mask.size - p.size  # every voxel outside the box too
        out[region.name] = {
            "dice": _dice(tp, fp, fn),
            "hd95": hd95(p, t, spacing),
            "sensitivity": _sensitivity(tp, fn),
            "specificity": _specificity(tn, fp),
        }
    return out


SUMMARY_STATS = ("mean", "sd", "median", "p25", "p75")


def summarize(values):
    """Mean, population sd, median and quartiles (linear interpolation)."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        raise ValueError("summarize: no values")
    return {
        "mean": float(v.mean()),
        "sd": float(v.std(ddof=0)),
        "median": float(np.percentile(v, 50)),
        "p25": float(np.percentile(v, 25)),
        "p75": float(np.percentile(v, 75)),
    }


METRIC_NAMES = ("dice", "hd95", "sensitivity", "specificity")


def format_report(case_results):
    """Tab-separated evaluation report plus a summary statistics block.

    ``case_results`` maps case id -> region -> metric -> value.
    """
    lines = ["case\tregion\tdice\thd95\tsensitivity\tspecificity"]
    for case_id in sorted(case_results):
        for region in REGIONS:
            m = case_results[case_id][region.name]
            lines.append(
                f"{case_id}\t{region.name}\t{m['dice']:.6f}\t{m['hd95']:.6f}"
                f"\t{m['sensitivity']:.6f}\t{m['specificity']:.6f}"
            )
    lines.append("")
    lines.append("summary\tregion\tmetric\t" + "\t".join(SUMMARY_STATS))
    for region in REGIONS:
        for metric in METRIC_NAMES:
            stats = summarize(
                case_results[cid][region.name][metric] for cid in case_results
            )
            vals = "\t".join(f"{stats[s]:.6f}" for s in SUMMARY_STATS)
            lines.append(f"summary\t{region.name}\t{metric}\t{vals}")
    return "\n".join(lines) + "\n"
