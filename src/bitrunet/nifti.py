"""NIfTI-1 reader and writer covering the subset the pipeline needs.

Single-file volumes (magic "n+1\\0"), uint8 / int16 / float32 payloads,
3D or 4D dims, little- or big-endian (decided by the sizeof_hdr
sentinel), plain or gzip streams (sniffed by the gzip magic bytes).

Data on disk is x-fastest; in memory the array is indexed [x, y, z]
(mapped onto the model's (H, W, D)). The writer sets dims, datatype,
spacing, the data offset and an identity scaling; every other header field
(the affine among them) is zero.

The writer streams: it fills one C-contiguous buffer of ``SLAB_Z`` (x, y)
planes in on-disk order, by transposing copies of ``BLOCK_Y`` y-rows at a
time (blocks small enough that the strided reads of a C-ordered array stay
in cache), and writes the buffer (or its deflate output) before filling the next slab, so
no copy of the whole volume is made. Gzip output is one member at zlib
level 1 with a zeroed mtime, so identical inputs give byte-identical
files. Level 1 deflates a 240x240x155 label mask about twice as fast as
level 6 and its stream inflates faster; the file is about three times
larger, still over 100:1 for a label mask. The reader inflates a gzip
file in one call per member and accepts what ``gzip.open`` accepts:
concatenated members and trailing zero padding after the last one.
"""

import gzip
import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
SLAB_Z = 32  # (x, y) planes the writer buffers at a time
BLOCK_Y = 8  # y-rows per transposing copy into the buffer

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


def _read_bytes(path):
    """The file's bytes, inflated when they start with the gzip magic.

    ``gzip.decompress`` inflates each member in one call and joins the
    members; it takes the headers, trailing zero padding and errors exactly
    as ``gzip.open`` does.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise NiftiError(f"{path}: corrupt or truncated gzip stream: {exc}") from exc


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
    buf = _read_bytes(path)
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
    data = np.frombuffer(buf, dtype=dt, count=count, offset=start)
    data = data.reshape(hdr.dims, order="F")
    slope, inter = hdr.scl_slope, hdr.scl_inter
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        data = (data.astype(np.float32) * np.float32(slope)) + np.float32(inter)
    return hdr, data


def _pixdim(spacing):
    """The three voxel spacings as float32, as the header stores them;
    NiftiError for any spacing the reader would reject."""
    values = [float(v) for v in spacing]
    if len(values) != 3:
        raise NiftiError(
            f"cannot write spacing {spacing!r}; give 3 values, one per spatial axis"
        )
    with np.errstate(over="ignore"):
        pixdim = np.array(values, dtype=np.float32)
    for i, value in enumerate(pixdim, start=1):
        if not (math.isfinite(value) and value > 0):
            raise NiftiError(
                f"cannot write spacing {spacing!r}: pixdim[{i}] is {value:g} as "
                f"float32; voxel spacing must be positive and finite"
            )
    return pixdim


def _slabs(data):
    """The payload in on-disk order (x fastest, z before t) as little-endian
    C-contiguous arrays of at most ``SLAB_Z`` planes, all views of one buffer
    that is refilled for each slab."""
    vols = [data] if data.ndim == 3 else [data[..., t] for t in range(data.shape[3])]
    nx, ny, nz = data.shape[:3]
    buf = np.empty((min(SLAB_Z, nz), ny, nx), data.dtype.newbyteorder("<"))
    for vol in vols:
        for z in range(0, nz, SLAB_Z):
            slab = buf[: min(SLAB_Z, nz - z)]
            for y in range(0, ny, BLOCK_Y):
                slab[:, y : y + BLOCK_Y] = vol[:, y : y + BLOCK_Y, z : z + len(slab)].T
            yield slab


def write_nifti(path, data, spacing=(1.0, 1.0, 1.0)):
    """Write an [x, y, z(, t)] array as a single-file little-endian NIfTI-1
    volume with voxel spacing ``spacing``.

    Gzip-compresses when the path ends in .gz. The payload keeps the
    array's dtype (uint8, int16 or float32), unscaled.
    """
    data = np.asarray(data)
    code = _CODES.get(data.dtype.newbyteorder("="))  # either byte order in memory
    if code is None:
        raise NiftiError(f"cannot write dtype {data.dtype}; use uint8/int16/float32")
    if data.ndim not in (3, 4) or 0 in data.shape:
        raise NiftiError(
            f"cannot write shape {data.shape}; use 3D or 4D with every dimension positive"
        )
    pixdim = _pixdim(spacing)
    head = bytearray(HEADER_SIZE + 4)  # the header and an empty extension
    struct.pack_into("<i", head, 0, HEADER_SIZE)
    dim = [data.ndim] + list(data.shape) + [1] * (7 - data.ndim)
    struct.pack_into("<8h", head, 40, *dim)
    struct.pack_into("<2h", head, 70, code, data.dtype.itemsize * 8)
    struct.pack_into("<8f", head, 76, 1.0, *pixdim, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", head, 108, float(HEADER_SIZE + 4), 1.0, 0.0)
    head[344:348] = MAGIC
    chunks = itertools.chain([head], _slabs(data))
    with open(path, "wb") as fh:
        if str(path).endswith(".gz"):
            deflate = zlib.compressobj(1, zlib.DEFLATED, 31)  # one gzip member
            for chunk in chunks:
                fh.write(deflate.compress(chunk))
            fh.write(deflate.flush())
        else:
            fh.writelines(chunks)
