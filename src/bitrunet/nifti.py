"""NIfTI-1 reader and writer covering the subset the pipeline needs.

Single-file volumes (magic "n+1\\0"), uint8 / int16 / float32 payloads,
3D or 4D dims, little- or big-endian (decided by the sizeof_hdr
sentinel), plain or gzip streams (sniffed by the gzip magic bytes).

Data on disk is x-fastest; in memory the array is indexed [x, y, z]
(mapped onto the model's (H, W, D)). The writer sets dims, datatype,
spacing, the data offset and an identity scaling; every other header field
(the affine among them) is zero. Gzip output is written with a zeroed
mtime so identical inputs give byte-identical files.
"""

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

HEADER_SIZE = 348
MAGIC = b"n+1\x00"

# NIfTI-1 datatype codes
_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32}
_CODES = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4, np.dtype(np.float32): 16}


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI file."""


@dataclass
class NiftiHeader:
    dims: tuple
    datatype: int
    bitpix: int
    pixdim: tuple  # voxel spacing for the spatial axes
    vox_offset: int
    scl_slope: float
    scl_inter: float
    endian: str  # "<" or ">"

    @property
    def spacing(self):
        return self.pixdim[:3]


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        try:
            with gzip.open(path, "rb") as fh:
                return fh.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise NiftiError(f"{path}: corrupt or truncated gzip stream: {exc}") from exc
    with open(path, "rb") as fh:
        return fh.read()


def parse_header(buf, label="<nifti>"):
    if len(buf) < HEADER_SIZE:
        raise NiftiError(
            f"{label}: file too short for a NIfTI-1 header "
            f"({len(buf)} < {HEADER_SIZE} bytes)"
        )
    endian = None
    for e in ("<", ">"):
        if struct.unpack(f"{e}i", buf[0:4])[0] == HEADER_SIZE:
            endian = e
            break
    if endian is None:
        raise NiftiError(
            f"{label}: sizeof_hdr at byte 0 is not {HEADER_SIZE} in either "
            f"byte order; not a NIfTI-1 file"
        )
    magic = buf[344:348]
    if magic != MAGIC:
        raise NiftiError(
            f"{label}: bad magic {magic!r} at byte 344, expected {MAGIC!r}"
        )
    dim = struct.unpack(f"{endian}8h", buf[40:56])
    if dim[0] not in (3, 4):
        raise NiftiError(
            f"{label}: dim[0] = {dim[0]} at byte 40; only 3D or 4D supported"
        )
    dims = tuple(dim[1 : 1 + dim[0]])
    for i, n in enumerate(dims, start=1):
        if n <= 0:
            raise NiftiError(
                f"{label}: dim[{i}] = {n} at byte {40 + 2 * i}; "
                f"every dimension must be positive"
            )
    datatype, bitpix = struct.unpack(f"{endian}2h", buf[70:74])
    if datatype not in _DTYPES:
        raise NiftiError(
            f"{label}: unsupported datatype code {datatype} at byte 70 "
            f"(supported: {sorted(_DTYPES)})"
        )
    pixdim = struct.unpack(f"{endian}8f", buf[76:108])
    for i in (1, 2, 3):
        if not (math.isfinite(pixdim[i]) and pixdim[i] > 0):
            raise NiftiError(
                f"{label}: pixdim[{i}] = {pixdim[i]:g} at byte {76 + 4 * i}; "
                f"voxel spacing must be positive and finite"
            )
    vox_offset, scl_slope, scl_inter = struct.unpack(f"{endian}3f", buf[108:120])
    for name, value, at in (("vox_offset", vox_offset, 108),
                            ("scl_slope", scl_slope, 112),
                            ("scl_inter", scl_inter, 116)):
        if not math.isfinite(value):
            raise NiftiError(f"{label}: {name} {value:g} at byte {at} is not finite")
    if vox_offset < HEADER_SIZE + 4:
        raise NiftiError(
            f"{label}: vox_offset {vox_offset:g} at byte 108 is below "
            f"{HEADER_SIZE + 4}; voxel data cannot start inside the header"
        )
    return NiftiHeader(
        dims=dims,
        datatype=datatype,
        bitpix=bitpix,
        pixdim=tuple(pixdim[1:4]),
        vox_offset=int(vox_offset),
        scl_slope=scl_slope,
        scl_inter=scl_inter,
        endian=endian,
    )


def read_nifti(path):
    """Parse one volume; returns (NiftiHeader, ndarray indexed [x, y, z(, t)]).

    Values are rescaled to float32 by scl_slope/scl_inter when the header
    requests a non-identity scaling.
    """
    buf = _open_maybe_gzip(path)
    hdr = parse_header(buf, str(path))
    count = int(np.prod(hdr.dims))
    dt = np.dtype(_DTYPES[hdr.datatype]).newbyteorder(hdr.endian)
    start = hdr.vox_offset
    need = count * dt.itemsize
    if len(buf) < start + need:
        raise NiftiError(
            f"{path}: truncated payload at byte {len(buf)}: "
            f"need {start + need} bytes for {hdr.dims} voxels"
        )
    data = np.frombuffer(buf[start : start + need], dtype=dt)
    data = data.reshape(hdr.dims, order="F")
    slope, inter = hdr.scl_slope, hdr.scl_inter
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        data = (data.astype(np.float32) * np.float32(slope)) + np.float32(inter)
    return hdr, data


def write_nifti(path, data, spacing=(1.0, 1.0, 1.0)):
    """Write an [x, y, z(, t)] array as a single-file little-endian NIfTI-1
    volume with voxel spacing ``spacing``.

    Gzip-compresses when the path ends in .gz. The payload keeps the
    array's dtype (uint8, int16 or float32), unscaled.
    """
    data = np.asarray(data)
    if data.dtype not in _CODES:
        raise NiftiError(f"cannot write dtype {data.dtype}; use uint8/int16/float32")
    raw = bytearray(HEADER_SIZE)
    struct.pack_into("<i", raw, 0, HEADER_SIZE)
    dim = [data.ndim] + list(data.shape) + [1] * (7 - data.ndim)
    struct.pack_into("<8h", raw, 40, *dim)
    struct.pack_into("<2h", raw, 70, _CODES[data.dtype], data.dtype.itemsize * 8)
    struct.pack_into("<8f", raw, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", raw, 108, float(HEADER_SIZE + 4), 1.0, 0.0)
    raw[344:348] = MAGIC
    payload = bytes(raw) + b"\x00\x00\x00\x00" + data.astype(
        data.dtype.newbyteorder("<")
    ).tobytes(order="F")
    path = str(path)
    if path.endswith(".gz"):
        with open(path, "wb") as fh:
            with gzip.GzipFile(
                filename="", fileobj=fh, mode="wb", mtime=0
            ) as gz:
                gz.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)
