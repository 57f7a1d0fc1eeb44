"""Inference: 8-way flip test-time augmentation, per-voxel majority voting
with averaged-probability tie-breaking, and small-component postprocessing.

Everything here is tape-free numpy on frozen models. A prediction is the
per-model probabilities of ``predict_probs`` or ``tta_predict`` fed to
``mask_from_probs``, which votes, postprocesses and converts the internal
labels 0..K-1 to the external vocabulary {0, 1, 2, 4} at the very end.
"""

import itertools
import os

import numpy as np

from . import tensor
from .tensor import Tensor

# external BraTS-style label values, index = internal label
EXTERNAL_LABELS = np.array([0, 1, 2, 4], dtype=np.uint8)

# enhancing tumor is the only class cleaned by default; small spurious ET
# components cost disproportionately, the other classes keep everything
DEFAULT_ET_THRESHOLD = 50


def internal_to_external(mask):
    return EXTERNAL_LABELS[mask]


def external_to_internal(mask):
    lut = np.zeros(int(EXTERNAL_LABELS.max()) + 1, dtype=np.uint8)
    for internal, ext in enumerate(EXTERNAL_LABELS):
        lut[ext] = internal
    mask = np.asarray(mask)
    bad = ~np.isin(mask, EXTERNAL_LABELS)
    if bad.any():
        raise ValueError(
            f"mask contains labels outside {EXTERNAL_LABELS.tolist()}: "
            f"{sorted(np.unique(mask[bad]).tolist())}"
        )
    return lut[mask]


def flip_combos():
    """All 8 (flip-H, flip-W, flip-D) combinations, identity first."""
    return [c for c in itertools.product((False, True), repeat=3)]


def apply_flip(vol, combo):
    """Flip the trailing three (spatial) axes selected by ``combo``."""
    axes = [vol.ndim - 3 + i for i in range(3) if combo[i]]
    return np.flip(vol, axes) if axes else vol


def predict_probs(model, x):
    """Single-pass class probabilities (K, H, W, D) for input (C, H, W, D)."""
    x = np.asarray(x)
    scores = model.forward(Tensor(x[None], dtype=getattr(model, "dtype", x.dtype)))
    s = scores.data[0].astype(np.float64)
    s -= s.max(axis=0, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=0, keepdims=True)


def _blas_threads_api():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when neither a build bundled with numpy nor a system one is found."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def tta_predict(model, x):
    """Mean class probabilities over the 8 flip variants of the input.

    Each variant is flipped, pushed through ``predict_probs`` and un-flipped.
    The variants are independent, so a thread pool runs them: 2 workers,
    with OpenBLAS held to one thread, when there are 2 usable CPUs and the
    OpenBLAS thread setter is found, else 1. The maps come back in
    ``flip_combos()`` order and are summed in float64 in that order, so the
    result does not depend on which worker ran which variant. When a
    variant raises, the ones not yet started are cancelled and the error
    propagates.
    """
    # imported here: concurrent.futures would add to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    x = np.asarray(x)
    if tensor._ACTIVE_TAPE is not None:
        raise ValueError("tta_predict: a Tape is active; TTA runs without one")

    def flipped_probs(combo):
        return apply_flip(predict_probs(model, np.ascontiguousarray(apply_flip(x, combo))), combo)

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # not Linux: every CPU counts
        cpus = os.cpu_count() or 1
    blas = _blas_threads_api() if cpus >= 2 else None
    if blas is not None:
        get, put = blas
        before = get()
        put(1)
    try:
        with ThreadPoolExecutor(1 if blas is None else 2) as pool:
            return sum(pool.map(flipped_probs, flip_combos())) / 8.0
    finally:
        if blas is not None:
            put(before)


def majority_vote(masks, probs):
    """Per-voxel mode over model votes; ties go to the tied category with the
    largest averaged probability, then to the lowest label index."""
    if len(masks) == 0:
        raise ValueError("majority_vote: empty model list")
    if len(masks) != len(probs):
        raise ValueError("majority_vote: need one probability map per mask")
    shape = masks[0].shape
    for m in masks[1:]:
        if m.shape != shape:
            raise ValueError(f"majority_vote: mask shapes differ: {m.shape} vs {shape}")
    k = probs[0].shape[0]
    for p in probs:
        if p.shape != (k,) + shape:
            raise ValueError(
                f"majority_vote: probability map shape {p.shape} does not "
                f"match masks {(k,) + shape}"
            )
    votes = np.stack(masks)
    counts = np.stack([(votes == c).sum(axis=0) for c in range(k)])
    tied = counts == counts.max(axis=0, keepdims=True)
    mean_probs = np.mean(np.stack(probs), axis=0, dtype=np.float64)
    candidates = np.where(tied, mean_probs, -np.inf)
    # argmax takes the first maximum: the lowest tied label wins final ties
    return candidates.argmax(axis=0).astype(masks[0].dtype)


_CONN26 = np.ones((3, 3, 3), dtype=bool)


def volume_threshold_postprocess(mask, thresholds):
    """Drop the 26-connected components of each label smaller than its
    threshold in ``thresholds`` ({label: min_voxels}); labels absent from
    it, or with a threshold of 0, keep everything."""
    out = np.asarray(mask).copy()
    for cls, thr in thresholds.items():
        if thr <= 0:
            continue
        # imported here: scipy.ndimage would add to every command's start-up
        from scipy import ndimage

        comp, n = ndimage.label(out == cls, structure=_CONN26)
        if n == 0:
            continue
        sizes = np.bincount(comp.ravel())
        small = np.flatnonzero(sizes < thr)
        small = small[small > 0]
        if small.size:
            out[np.isin(comp, small)] = 0
    return out


def mask_from_probs(probs, thresholds):
    """Argmax each model's probability map, vote across models, then drop
    small components per ``thresholds``; returns a mask in the external
    label vocabulary."""
    masks = [p.argmax(axis=0) for p in probs]
    voted = majority_vote(masks, probs)
    return internal_to_external(volume_threshold_postprocess(voted, thresholds))
