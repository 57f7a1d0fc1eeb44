"""Synthetic inputs for the benchmark, made from a seed.

A case is a labelled ball of nested shells, outermost first: edema (2),
tumor core (1), enhancing tumor (4). All three BraTS regions are therefore
non-empty: whole tumor is the outer ball, tumor core the middle ball and
enhancing tumor the inner ball. The same seed always gives the same inputs.
"""

from dataclasses import dataclass

import numpy as np

# per-modality intensity of background, edema, core and enhancing voxels
# (rows T1, T1c, T2, FLAIR), so every region is visible in some modality
_CONTRAST = np.array(
    [
        [0.0, 0.4, 0.7, 0.9],
        [0.0, 0.5, 0.6, 2.0],
        [0.0, 1.6, 1.0, 0.8],
        [0.0, 1.8, 1.2, 1.0],
    ],
    dtype=np.float32,
)
_LABEL_INDEX = {0: 0, 2: 1, 1: 2, 4: 3}  # external label -> _CONTRAST column


@dataclass(frozen=True)
class Shells:
    """Centre (voxels) and radii (outer, middle, inner) of one tumor."""

    centre: tuple
    radii: tuple


def shell_mask(shape, shells):
    """uint8 volume of the given shape with labels 2 / 1 / 4, outside in."""
    axes = [
        (np.arange(n, dtype=np.float32) - c) ** 2
        for n, c in zip(shape, shells.centre)
    ]
    d2 = axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
    mask = np.zeros(shape, dtype=np.uint8)
    for label, r in zip((2, 1, 4), shells.radii):
        mask[d2 <= r * r] = label
    return mask


def draw_shells(rng, shape, radii_ranges, jitter):
    """Seeded shells: centre near the middle, each radius in its range."""
    centre = tuple(n // 2 + int(rng.integers(-jitter, jitter + 1)) for n in shape)
    radii = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in radii_ranges)
    return Shells(centre, radii)


def mri_case(rng, size, radii_ranges, jitter=2, noise=0.2):
    """A 4-modality (4, S, S, S) float32 volume and its uint8 label mask."""
    shape = (size, size, size)
    label = shell_mask(shape, draw_shells(rng, shape, radii_ranges, jitter))
    index = np.zeros(5, dtype=np.intp)
    for ext, col in _LABEL_INDEX.items():
        index[ext] = col
    image = _CONTRAST[:, index[label]]
    image = image + rng.normal(0.0, noise, image.shape).astype(np.float32)
    return image.astype(np.float32), label
