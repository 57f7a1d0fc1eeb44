"""Case handling: modality stacking, intensity normalization, the binary
case cache, padding helpers and a synthetic sphere case for smoke tests.

Cache file layout (little-endian, trailing CRC32 of everything before it):

    magic    4 bytes "BTRC"
    version  u32 (1)
    id_len   u32, id utf-8
    dims     u32 * 4 (C, H, W, D)
    spacing  f32 * 3
    flags    u8 (bit 0: label present; the other bits are 0)
    image    f32 * C*H*W*D, C order
    label    u8 * H*W*D (external label values), if present
    crc      u32, CRC32 of all preceding bytes
"""

import io
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import _Reader
from .nifti import read_nifti

MODALITY_ORDER = ("t1", "t1c", "t2", "flair")

CACHE_MAGIC = b"BTRC"
CACHE_VERSION = 1


class CacheError(ValueError):
    """Malformed case cache file."""


@dataclass
class Volume4D:
    """Stacked modalities (4, H, W, D) with spacing and normalization audit."""

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    norm_params: list | None = None  # per modality (mean, sd) actually applied

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise ValueError(f"Volume4D needs (C, H, W, D), got {self.data.shape}")


@dataclass
class CaseRecord:
    case_id: str
    volume: Volume4D
    label: np.ndarray | None = None  # (H, W, D) external labels, uint8

    def __post_init__(self):
        if self.label is not None:
            self.label = np.asarray(self.label, dtype=np.uint8)
            if self.label.shape != self.volume.data.shape[1:]:
                raise ValueError(
                    f"label shape {self.label.shape} does not match volume "
                    f"{self.volume.data.shape[1:]}"
                )


def check_same_spacing(a, a_spacing, b, b_spacing):
    """Raise naming both sources unless the spacings agree within 1e-6 relative."""
    if not all(math.isclose(u, v, rel_tol=1e-6) for u, v in zip(a_spacing, b_spacing)):
        shown = [" x ".join(f"{v:g}" for v in sp) for sp in (a_spacing, b_spacing)]
        raise ValueError(f"voxel spacing differs: {a} has {shown[0]}, {b} has {shown[1]}")


def stack_modalities(paths):
    """Load four NIfTI volumes in [T1, T1c, T2, FLAIR] order into one array."""
    if len(paths) != 4:
        raise ValueError(f"need 4 modality paths, got {len(paths)}")
    vols = []
    spacing = None
    shape = None
    for name, path in zip(MODALITY_ORDER, paths):
        hdr, data = read_nifti(path)
        if data.ndim != 3:
            raise ValueError(f"{name} volume {path} is {data.ndim}D, expected 3D")
        if shape is None:
            shape, spacing = data.shape, hdr.spacing
        elif data.shape != shape:
            raise ValueError(
                f"{name} volume {path} has shape {data.shape}, "
                f"other modalities have {shape}"
            )
        else:
            check_same_spacing(paths[0], spacing, path, hdr.spacing)
        vols.append(np.asarray(data, dtype=np.float32))
    return Volume4D(np.stack(vols), spacing=spacing)


def normalize(volume):
    """Z-score each modality over its nonzero voxels; zeros stay zero."""
    out = volume.data.copy()
    params = []
    for c in range(out.shape[0]):
        nz = out[c] != 0
        if not nz.any():
            params.append((0.0, 1.0))
            continue
        mean = float(out[c][nz].mean())
        sd = float(out[c][nz].std())
        if sd == 0.0:
            sd = 1.0
        out[c][nz] = (out[c][nz] - mean) / sd
        params.append((mean, sd))
    return Volume4D(out, spacing=volume.spacing, norm_params=params)


def cache_case(record, path):
    """Serialize a case to the checksummed binary cache format."""
    vol = record.volume
    c, h, w, d = vol.data.shape
    idb = record.case_id.encode()
    parts = [
        CACHE_MAGIC,
        struct.pack("<I", CACHE_VERSION),
        struct.pack("<I", len(idb)),
        idb,
        struct.pack("<4I", c, h, w, d),
        struct.pack("<3f", *vol.spacing),
        struct.pack("<B", 1 if record.label is not None else 0),
        np.ascontiguousarray(vol.data, dtype="<f4").tobytes(),
    ]
    if record.label is not None:
        parts.append(np.ascontiguousarray(record.label, dtype=np.uint8).tobytes())
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_case(path):
    """Read a cache file back; verifies magic, version and CRC32, then that
    the case id is UTF-8, every dimension and spacing is positive (spacing
    finite too) and no unknown flag bit is set."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 4 or buf[:4] != CACHE_MAGIC:
        raise CacheError(
            f"{path}: bad magic {buf[:4]!r} at byte 0, expected {CACHE_MAGIC!r}"
        )
    if len(buf) < 8:
        raise CacheError(f"{path}: truncated at byte {len(buf)}")
    body, crc_stored = buf[:-4], struct.unpack("<I", buf[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CacheError(f"{path}: CRC32 mismatch, file is corrupt")
    r = _Reader(io.BytesIO(body), len(body), str(path), CacheError)
    r.take(4, "magic")  # checked above
    version = r.u32("version")
    if version != CACHE_VERSION:
        raise CacheError(
            f"{path}: version {version} at byte 4, expected {CACHE_VERSION}"
        )
    id_len = r.u32("id length")
    id_at = r.pos
    try:
        case_id = r.take(id_len, "case id").decode()
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: case id at byte {id_at} is not UTF-8 ({exc.reason})") from exc
    dims_at = r.pos
    c, h, w, d = r.unpack("<4I", "dims")
    if 0 in (c, h, w, d):
        raise CacheError(
            f"{path}: dims {c} x {h} x {w} x {d} at byte {dims_at}; "
            f"every dimension must be positive"
        )
    spacing_at = r.pos
    spacing = r.unpack("<3f", "spacing")
    for i, v in enumerate(spacing):
        if not (math.isfinite(v) and v > 0):
            raise CacheError(
                f"{path}: spacing[{i}] = {v:g} at byte {spacing_at + 4 * i}; "
                f"voxel spacing must be positive and finite"
            )
    (flags,) = r.unpack("<B", "flags")
    if flags > 1:
        raise CacheError(
            f"{path}: flags {flags:#04x} at byte {r.pos - 1}; only bit 0 (label present) "
            f"is defined"
        )
    image = np.frombuffer(r.take(4 * c * h * w * d, "image payload"), dtype="<f4")
    image = image.reshape(c, h, w, d).copy()
    label = None
    if flags & 1:
        label = np.frombuffer(r.take(h * w * d, "label payload"), dtype=np.uint8)
        label = label.reshape(h, w, d).copy()
    if r.pos != len(body):
        raise CacheError(
            f"{path}: {len(body) - r.pos} unexpected bytes at byte {r.pos}"
        )
    return CaseRecord(
        case_id=case_id,
        volume=Volume4D(image, spacing=tuple(spacing)),
        label=label,
    )


def pad_to_shape(data, target):
    """Zero-pad the trailing three axes symmetrically up to ``target``.

    Returns (padded, slices) where ``slices`` recovers the original region.
    """
    spatial = data.shape[-3:]
    pads = []
    slices = []
    for have, want in zip(spatial, target):
        if want < have:
            raise ValueError(f"cannot pad {have} down to {want}")
        lo = (want - have) // 2
        pads.append((lo, want - have - lo))
        slices.append(slice(lo, lo + have))
    width = [(0, 0)] * (data.ndim - 3) + pads
    return np.pad(data, width), tuple(slices)


def make_sphere_case(size=32, radius=10, contrast=3.0, noise=0.2, seed=42,
                     case_id="sphere", modalities=4):
    """A noisy volume with a centered bright sphere labeled 1."""
    rng = np.random.default_rng(seed)
    grid = np.mgrid[0:size, 0:size, 0:size]
    sphere = ((grid - size // 2) ** 2).sum(axis=0) <= radius ** 2
    image = rng.normal(0.0, noise, (modalities, size, size, size)).astype(np.float32)
    image += contrast * sphere[None]
    return CaseRecord(
        case_id=case_id,
        volume=Volume4D(image),
        label=sphere.astype(np.uint8),
    )
