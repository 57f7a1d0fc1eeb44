"""File formats: NIfTI subset, the case cache, stacking and normalization."""

import gzip
import re
import struct
import zlib

import numpy as np
import pytest

from bitrunet.data import (
    CacheError,
    CaseRecord,
    Volume4D,
    cache_case,
    load_case,
    make_sphere_case,
    normalize,
    pad_to_shape,
    stack_modalities,
)
from bitrunet.nifti import (
    HEADER_SIZE,
    NiftiError,
    read_nifti,
    write_nifti,
)

rng = np.random.default_rng(77)


class TestNifti:
    def test_float32_roundtrip_bit_exact(self, tmp_path):
        vol = rng.standard_normal((4, 4, 4)).astype(np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        hdr, back = read_nifti(path)
        assert back.dtype == np.float32
        assert np.array_equal(vol, back)
        assert hdr.dims == (4, 4, 4)

    def test_gzip_roundtrip_and_deterministic_bytes(self, tmp_path):
        # one slab, and 70 planes: several slabs through one deflate stream
        for shape in ((3, 5, 2), (7, 6, 70)):
            vol = rng.standard_normal(shape).astype(np.float32)
            p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
            write_nifti(p1, vol)
            write_nifti(p2, vol)
            assert p1.read_bytes() == p2.read_bytes()
            _, back = read_nifti(p1)
            assert np.array_equal(vol, back)

    def test_uint8_roundtrip(self, tmp_path):
        vol = rng.integers(0, 5, (4, 4, 4)).astype(np.uint8)
        path = tmp_path / "m.nii.gz"
        write_nifti(path, vol, spacing=(1.0, 1.5, 2.0))
        hdr, back = read_nifti(path)
        assert np.array_equal(vol, back)
        assert hdr.spacing == pytest.approx((1.0, 1.5, 2.0))

    def test_bad_magic_rejected(self, tmp_path):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"bad!"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="bad magic.*byte 344"):
            read_nifti(path)

    def test_not_a_nifti(self, tmp_path):
        path = tmp_path / "x.nii"
        path.write_bytes(b"\x00" * 400)
        with pytest.raises(NiftiError, match="sizeof_hdr"):
            read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 70, 64)  # float64 code, unsupported
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="datatype.*64"):
            read_nifti(path)

    @pytest.mark.parametrize("offset", [0.0, -4.0])
    def test_vox_offset_inside_header_rejected(self, tmp_path, offset):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, offset)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="vox_offset.*byte 108"):
            read_nifti(path)

    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_dim_rejected(self, tmp_path, value):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 42, value)  # dim[1]
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match=rf"dim\[1\] = {value} at byte 42"):
            read_nifti(path)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_bad_pixdim_rejected(self, tmp_path, value):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 80, value)  # pixdim[1]
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match=rf"pixdim\[1\] = {value:g} at byte 80"):
            read_nifti(path)

    def test_truncated_payload(self, tmp_path):
        vol = np.zeros((4, 4, 4), dtype=np.float32)
        path = tmp_path / "v.nii"
        write_nifti(path, vol)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(path)

    def test_scl_slope_inter_applied(self, tmp_path):
        # int16 value 3 with slope 2.0 and inter 1.0 reads as 7.0
        path = tmp_path / "s.nii"
        data = np.full((2, 2, 2), 3, dtype=np.int16)
        write_nifti(path, data)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2f", raw, 112, 2.0, 1.0)  # scl_slope, scl_inter
        path.write_bytes(bytes(raw))
        _, back = read_nifti(path)
        assert back.dtype == np.float32
        assert (back == 7.0).all()

    def test_big_endian_read(self, tmp_path):
        # byte-swapped header and payload must parse identically
        path = tmp_path / "be.nii"
        data = rng.standard_normal((3, 2, 2)).astype(np.float32)
        raw = bytearray(HEADER_SIZE)
        struct.pack_into(">i", raw, 0, HEADER_SIZE)
        struct.pack_into(">8h", raw, 40, 3, 3, 2, 2, 1, 1, 1, 1)
        struct.pack_into(">2h", raw, 70, 16, 32)
        struct.pack_into(">8f", raw, 76, 1, 1, 1, 1, 1, 1, 1, 1)
        struct.pack_into(">3f", raw, 108, 352.0, 1.0, 0.0)
        raw[344:348] = b"n+1\x00"
        path.write_bytes(bytes(raw) + b"\x00" * 4 + data.astype(">f4").tobytes(order="F"))
        hdr, back = read_nifti(path)
        assert hdr.endian == ">"
        assert np.array_equal(back.astype(np.float32), data)

    def test_4d_volume(self, tmp_path):
        vol = rng.standard_normal((3, 3, 3, 2)).astype(np.float32)
        path = tmp_path / "v4.nii"
        write_nifti(path, vol)
        _, back = read_nifti(path)
        assert np.array_equal(vol, back)


def _on_disk(vol, spacing=(1.0, 1.0, 1.0)):
    """The NIfTI bytes of ``vol`` built by hand: header, empty extension,
    then the payload x-fastest."""
    head = bytearray(HEADER_SIZE)
    struct.pack_into("<i", head, 0, HEADER_SIZE)
    struct.pack_into("<8h", head, 40, vol.ndim, *vol.shape, *[1] * (7 - vol.ndim))
    struct.pack_into("<2h", head, 70, {1: 2, 2: 4, 4: 16}[vol.itemsize], 8 * vol.itemsize)
    struct.pack_into("<8f", head, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", head, 108, HEADER_SIZE + 4.0, 1.0, 0.0)
    head[344:348] = b"n+1\x00"
    return bytes(head) + bytes(4) + vol.astype(vol.dtype.newbyteorder("<")).tobytes(order="F")


def _volume(dtype, shape):
    if dtype == np.float32:
        return rng.standard_normal(shape).astype(np.float32)
    return rng.integers(-300 if dtype == np.int16 else 0, 255, shape).astype(dtype)


class TestNiftiCodec:
    """The streamed writer and the one-shot reader against stdlib gzip and
    a layout built by hand."""

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("shape", [(5, 3, 4), (3, 4, 2, 3)], ids=["3d", "4d"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    def test_roundtrip(self, tmp_path, dtype, shape, suffix):
        vol = _volume(dtype, shape)
        path = tmp_path / f"v{suffix}"
        write_nifti(path, vol, spacing=(0.5, 1.0, 2.5))
        hdr, back = read_nifti(path)
        assert back.dtype == dtype and back.shape == shape
        assert np.array_equal(back, vol)
        assert hdr.dims == shape and hdr.spacing == (0.5, 1.0, 2.5)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_memory_layout_gives_the_same_file(self, tmp_path, layout):
        vol = _volume(np.int16, (6, 5, 7))
        arg = {
            "C": np.ascontiguousarray(vol),
            "F": np.asfortranarray(vol),
            "strided": np.repeat(vol, 2, axis=1)[:, ::2],
        }[layout]
        assert np.array_equal(arg, vol)
        path = tmp_path / "v.nii.gz"
        write_nifti(path, arg)
        raw = path.read_bytes()
        assert gzip.decompress(raw) == _on_disk(vol)
        write_nifti(tmp_path / "v.nii", arg)
        assert (tmp_path / "v.nii").read_bytes() == _on_disk(vol)
        write_nifti(path, arg)
        assert path.read_bytes() == raw
        _, back = read_nifti(path)
        assert np.array_equal(back, vol)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4, 2, 2), (4, 0, 4)])
    def test_shape_the_reader_rejects_is_not_written(self, tmp_path, shape):
        path = tmp_path / "v.nii"
        with pytest.raises(NiftiError, match=r"cannot write shape"):
            write_nifti(path, np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("spacing,named", [
        ((0, 1, 1), "pixdim[1] is 0"),
        ((1, float("nan"), 1), "pixdim[2] is nan"),
        ((1, 1, -1), "pixdim[3] is -1"),
        ((1e-50, 1, 1), "pixdim[1] is 0"),  # rounds to zero as float32
        ((1e300, 1, 1), "pixdim[1] is inf"),
        ((1, 1), "give 3 values"),
        ((1, 1, 1, 1), "give 3 values"),
    ], ids=["zero", "nan", "negative", "underflow", "overflow", "two-values",
            "four-values"])
    def test_spacing_the_reader_rejects_is_not_written(self, tmp_path, spacing, named):
        path = tmp_path / "v.nii"
        with pytest.raises(NiftiError, match=re.escape(f"cannot write spacing {spacing!r}")) as info:
            write_nifti(path, np.zeros((2, 2, 2), dtype=np.uint8), spacing=spacing)
        assert named in str(info.value)
        assert not path.exists()

    def test_gzip_stream_is_one_member_with_a_zero_mtime(self, tmp_path):
        for shape in ((7, 6, 5), (7, 6, 70)):  # one slab, then several
            vol = _volume(np.uint8, shape)
            path = tmp_path / "m.nii.gz"
            write_nifti(path, vol)
            raw = path.read_bytes()
            assert raw[:4] == b"\x1f\x8b\x08\x00" and raw[4:8] == bytes(4)
            member = zlib.decompressobj(31)
            assert member.decompress(raw) == _on_disk(vol)
            assert member.eof and member.unused_data == b""

    def test_concatenated_members_and_zero_padding(self, tmp_path):
        vol = _volume(np.float32, (6, 5, 4))
        plain = _on_disk(vol)
        split = HEADER_SIZE + 4 + 123  # inside the payload
        files = {
            "two-members": gzip.compress(plain[:split], mtime=0)
            + gzip.compress(plain[split:], mtime=0),
            "zero-padding": gzip.compress(plain, mtime=0) + bytes(9),
            "padded-members": gzip.compress(plain[:split], mtime=0) + bytes(3)
            + gzip.compress(plain[split:], mtime=0) + bytes(1),
        }
        for name, raw in files.items():
            path = tmp_path / f"{name}.nii.gz"
            path.write_bytes(raw)
            _, back = read_nifti(path)
            assert np.array_equal(back, vol), name

    @pytest.mark.parametrize("tail", [b"\x01", bytes(4) + b"\x01", b"\x1f", b"\x1f\x8b"])
    def test_bytes_after_the_last_member_rejected(self, tmp_path, tail):
        vol = _volume(np.uint8, (4, 3, 2))
        path = tmp_path / "m.nii.gz"
        path.write_bytes(gzip.compress(_on_disk(vol), mtime=0) + tail)
        with pytest.raises(NiftiError, match="corrupt or truncated gzip stream"):
            read_nifti(path)

    def test_accepts_what_gzip_open_accepts(self, tmp_path):
        # Every cut and every single-bit flip of a small gzip file, and a
        # header with the optional fields set: read_nifti reads the file as
        # it reads the bytes gzip.open inflates, and fails when that fails.
        vol = _volume(np.uint8, (3, 2, 2))
        packed = gzip.compress(_on_disk(vol), mtime=0)
        # FEXTRA, FNAME, FCOMMENT and an unchecked FHCRC in front of one deflate body
        optional = (packed[:3] + bytes([0b11110]) + packed[4:10] + b"\x02\x00xy"
                    + b"m.nii\x00" + b"note\x00" + b"\xff\xff" + packed[10:])
        files = [packed[:cut] for cut in range(2, len(packed))] + [optional]
        for at in range(len(packed)):
            for bit in range(8):
                bad = bytearray(packed)
                bad[at] ^= 1 << bit
                files.append(bytes(bad))

        def outcome(path):
            try:
                hdr, back = read_nifti(path)
            except NiftiError as exc:
                return str(exc).replace(str(path), "<path>")
            return hdr, back.dtype, back.tobytes()

        packed_path, plain_path = tmp_path / "m.nii.gz", tmp_path / "m.nii"
        loaded = 0
        for raw in files:
            if raw[:2] != b"\x1f\x8b":
                continue  # not sniffed as gzip
            packed_path.write_bytes(raw)
            try:
                with gzip.open(packed_path, "rb") as fh:
                    plain_path.write_bytes(fh.read())
            except (EOFError, OSError, zlib.error):
                with pytest.raises(NiftiError, match="corrupt or truncated gzip stream"):
                    read_nifti(packed_path)
            else:
                got = outcome(packed_path)
                assert got == outcome(plain_path)
                loaded += not isinstance(got, str)
        assert loaded > 8


class TestStackNormalize:
    def _write_modalities(self, tmp_path, shape=(2, 2, 2)):
        paths = []
        for m in ("t1", "t1c", "t2", "flair"):
            vol = rng.standard_normal(shape).astype(np.float32)
            p = tmp_path / f"case_{m}.nii.gz"
            write_nifti(p, vol)
            paths.append(str(p))
        return paths

    def test_stacking_shape_and_order(self, tmp_path):
        paths = self._write_modalities(tmp_path)
        vol = stack_modalities(paths)
        assert vol.data.shape == (4, 2, 2, 2)
        for c, p in enumerate(paths):
            _, m = read_nifti(p)
            assert np.array_equal(vol.data[c], m)

    def test_spatial_mismatch_rejected(self, tmp_path):
        paths = self._write_modalities(tmp_path)
        write_nifti(paths[2], np.zeros((3, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="t2.*shape"):
            stack_modalities(paths)

    def test_normalize_hand_zscore(self):
        data = np.zeros((4, 2, 2, 2), dtype=np.float32)
        data[0, 0, 0, 0] = 2.0
        data[0, 0, 0, 1] = 4.0
        out = normalize(Volume4D(data))
        # nonzero voxels {2, 4}: mean 3, population sd 1 -> {-1, +1}
        assert out.data[0, 0, 0, 0] == pytest.approx(-1.0)
        assert out.data[0, 0, 0, 1] == pytest.approx(1.0)
        assert out.norm_params[0] == (3.0, 1.0)

    def test_normalize_preserves_zero_background(self):
        data = rng.standard_normal((4, 3, 3, 3)).astype(np.float32) + 5.0
        data[:, 0, 0, :] = 0.0
        out = normalize(Volume4D(data))
        assert (out.data[:, 0, 0, :] == 0.0).all()

    def test_normalize_all_zero_modality_stays_zero(self):
        data = np.zeros((4, 2, 2, 2), dtype=np.float32)
        out = normalize(Volume4D(data))
        assert (out.data == 0.0).all()

    def test_normalize_idempotent_statistics(self):
        data = rng.standard_normal((4, 6, 6, 6)).astype(np.float32) + 3.0
        once = normalize(Volume4D(data))
        twice = normalize(once)
        for c in range(4):
            nz = twice.data[c][twice.data[c] != 0]
            assert abs(nz.mean()) < 1e-5
            assert abs(nz.std() - 1.0) < 1e-5


class TestCache:
    def test_roundtrip(self, tmp_path):
        rec = make_sphere_case(size=16, radius=4, seed=5)
        path = tmp_path / "c.btrc"
        cache_case(rec, path)
        back = load_case(path)
        assert back.case_id == rec.case_id
        assert np.array_equal(back.volume.data, rec.volume.data)
        assert np.array_equal(back.label, rec.label)
        assert back.volume.spacing == rec.volume.spacing

    def test_roundtrip_without_label(self, tmp_path):
        rec = make_sphere_case(size=16, radius=4)
        rec = CaseRecord(case_id="x", volume=rec.volume, label=None)
        path = tmp_path / "c.btrc"
        cache_case(rec, path)
        assert load_case(path).label is None

    def test_crc_flip_detected(self, tmp_path):
        rec = make_sphere_case(size=8, radius=2)
        path = tmp_path / "c.btrc"
        cache_case(rec, path)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheError, match="CRC32"):
            load_case(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.btrc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CacheError, match="bad magic"):
            load_case(path)

    def test_version_mismatch(self, tmp_path):
        rec = make_sphere_case(size=8, radius=2)
        path = tmp_path / "c.btrc"
        cache_case(rec, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        body = bytes(raw[:-4])
        import zlib
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CacheError, match="version 99"):
            load_case(path)

    def test_truncated_header_names_field_and_offset(self, tmp_path):
        # cut after the version field, with a CRC32 that matches the cut body
        import zlib
        body = b"BTRC" + struct.pack("<I", 1)
        path = tmp_path / "c.btrc"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CacheError, match="id length at byte 8"):
            load_case(path)

    def test_size_arithmetic(self, tmp_path):
        # 4 x 16^3 float32 image + 16^3 uint8 label + header well under 1 KiB
        rec = make_sphere_case(size=16, radius=4)
        path = tmp_path / "c.btrc"
        cache_case(rec, path)
        payload = 4 * 16 ** 3 * 4 + 16 ** 3
        size = path.stat().st_size
        assert payload < size <= payload + 1024


class TestPadding:
    def test_pad_and_recover(self):
        x = rng.standard_normal((4, 10, 16, 13)).astype(np.float32)
        padded, sl = pad_to_shape(x, (16, 16, 16))
        assert padded.shape == (4, 16, 16, 16)
        assert np.array_equal(padded[(slice(None),) + sl], x)
        # padding is zero outside the original region
        total = np.abs(padded).sum()
        assert total == pytest.approx(np.abs(x).sum(), rel=1e-6)

    def test_cannot_shrink(self):
        with pytest.raises(ValueError, match="pad"):
            pad_to_shape(np.zeros((4, 20, 16, 16)), (16, 16, 16))
