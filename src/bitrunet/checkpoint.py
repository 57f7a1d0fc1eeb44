"""Model checkpoints: a little-endian binary file, bit-exact on roundtrip.

Layout:

    magic       4 bytes  "BTRU"
    version     u32      2 (version 1 files, which lack the CRC32, still load)
    config_len  u32
    config      utf-8 key=value lines (ModelConfig.to_text)
    n_params    u32
    per parameter, in registry order:
        name_len u32, name utf-8, rank u32, dims u32 * rank,
        data float32 * prod(dims)
    crc         u32, CRC32 of all preceding bytes (version 2 only)

Parameters are stored as 32-bit floats; loading yields a float32 model.
Every parse failure reports the byte offset it happened at. The CRC32 is
checked after the whole file parses, so a malformed file is reported by
its first bad field and a well-formed one with a flipped bit by its CRC32.
"""

import os
import struct
import sys
import zlib

import numpy as np

from .model import BiTrUnetModel, ModelConfig

MAGIC = b"BTRU"
VERSION = 2


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


class _Reader:
    """Bounds-checked reads from a binary stream of ``size`` bytes; running
    past its end raises ``error`` naming the field and the byte offset.
    Keeps the CRC32 of every byte read so far. The case cache reads through
    it too."""

    def __init__(self, fh, size, label, error=CheckpointError):
        self.fh = fh
        self.size = size
        self.pos = 0
        self.crc = 0
        self.label = label
        self.error = error

    def _fits(self, n, what, got):
        """Advance past a read of ``n`` bytes that got ``got``; fewer, or
        None for a read not tried, means the stream ended first."""
        if got != n:
            raise self.error(
                f"{self.label}: truncated while reading {what} at byte {self.pos} "
                f"(need {n} bytes, {self.size - self.pos} left)"
            )
        self.pos += n

    def take(self, n, what):
        out = self.fh.read(n) if self.pos + n <= self.size else b""
        self._fits(n, what, len(out))
        self.crc = zlib.crc32(out, self.crc)
        return out

    def read_into(self, array, what):
        """Fill the C-contiguous ``array`` from the stream with no
        intermediate copy."""
        view = memoryview(array).cast("B")
        n = view.nbytes
        self._fits(n, what, self.fh.readinto(view) if self.pos + n <= self.size else None)
        self.crc = zlib.crc32(view, self.crc)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def u32(self, what):
        return self.unpack("<I", what)[0]


def save_checkpoint(model, path):
    """Write all parameters (cast to float32) plus the config, each chunk as
    it is built, then the CRC32 of every byte written before it."""
    crc = 0
    with open(path, "wb") as fh:

        def put(chunk):
            nonlocal crc
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)

        cfg = model.config.to_text().encode()
        put(MAGIC + struct.pack("<II", VERSION, len(cfg)) + cfg)
        put(struct.pack("<I", len(model.params)))
        for name, t in model.params.items():
            nb = name.encode()
            put(struct.pack("<I", len(nb)) + nb
                + struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape))
            put(np.ascontiguousarray(t.data, dtype="<f4"))
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path):
    """Rebuild the model from a checkpoint written by ``save_checkpoint``,
    reading each parameter straight into the model's own array."""
    with open(path, "rb") as fh:
        r = _Reader(fh, os.fstat(fh.fileno()).st_size, str(path))
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise CheckpointError(
                f"{path}: bad magic {magic!r} at byte 0, expected {MAGIC!r}"
            )
        version = r.u32("version")
        if version not in (1, VERSION):
            raise CheckpointError(
                f"{path}: unsupported version {version} at byte 4, expected 1 or {VERSION}"
            )
        cfg_len = r.u32("config length")
        raw_config = r.take(cfg_len, "config")
        try:
            config = ModelConfig.from_text(raw_config.decode())
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad config block at byte 12: {exc}") from exc
        try:
            model = BiTrUnetModel(config, seed=None, dtype=np.float32)
        except MemoryError as exc:
            raise CheckpointError(
                f"{path}: config block at byte 12 describes a model that does "
                f"not fit in memory: {exc}"
            ) from exc
        n_params = r.u32("parameter count")
        if n_params != len(model.params):
            raise CheckpointError(
                f"{path}: {n_params} parameters in file, model needs "
                f"{len(model.params)}"
            )
        seen = set()
        for _ in range(n_params):
            name_len = r.u32("name length")
            name_at = r.pos
            try:
                name = r.take(name_len, "name").decode()
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"{path}: parameter name at byte {name_at} is not UTF-8 ({exc.reason})"
                ) from exc
            if name not in model.params:
                raise CheckpointError(
                    f"{path}: unknown parameter {name!r} near byte {r.pos}"
                )
            if name in seen:
                raise CheckpointError(
                    f"{path}: parameter {name!r} repeated at byte {name_at}"
                )
            seen.add(name)
            rank = r.u32(f"{name} rank")
            dims = r.unpack(f"<{rank}I", f"{name} dims")
            t = model.params[name]
            if dims != t.shape:
                raise CheckpointError(
                    f"{path}: parameter {name} has dims {dims} in file, "
                    f"expected {t.shape}"
                )
            r.read_into(t.data, f"{name} data")
            if sys.byteorder == "big":
                t.data.byteswap(inplace=True)
        body_end, body_crc = r.pos, r.crc
        stored = r.u32("CRC32") if version >= 2 else None
        if r.pos != r.size:
            raise CheckpointError(
                f"{path}: {r.size - r.pos} trailing bytes at byte {r.pos}"
            )
        if stored is not None and body_crc != stored:
            raise CheckpointError(
                f"{path}: CRC32 mismatch at byte {body_end}, file is corrupt"
            )
        return model
