"""Corrupted inputs to the checkpoint, case-cache, NIfTI and
probability-dump parsers: each either loads or fails with its own typed
error (CLI exit code 2), never with a stray exception."""

import gzip
import math
import struct
import zlib

import numpy as np
import pytest

from bitrunet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from bitrunet.cli import cli
from bitrunet.data import CacheError, CaseRecord, Volume4D, cache_case, load_case
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.nifti import NiftiError, read_nifti, write_nifti

# the smallest model the architecture allows, so each load is cheap
SMALL = ModelConfig(
    in_channels=1, base_width=1, num_classes=2, embed_dim=2, vit_layers=0,
    heads=1, ffn_hidden=2, input_size=(16, 16, 16), norm_groups=1,
)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(file bytes, header end, per parameter the (start, end) byte spans of
    its name length, name, rank, dims and data fields)."""
    model = BiTrUnetModel(SMALL, seed=3)
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(model, path)
    buf = path.read_bytes()
    header_end = 16 + struct.unpack_from("<I", buf, 8)[0]
    spans = []
    pos = header_end
    for t in model.params.values():
        fields = []
        for size in (4, struct.unpack_from("<I", buf, pos)[0], 4, 4 * t.ndim, 4 * t.size):
            fields.append((pos, pos + size))
            pos += size
        spans.append(fields)
    assert pos + 4 == len(buf)  # the CRC32 trailer
    return buf, header_end, spans


def _write(path, data):
    path.write_bytes(data)
    return path


class TestCheckpointFuzz:
    def test_truncations_and_bit_flips(self, checkpoint, tmp_path):
        # Cuts: every byte of the header and config, and the first and last
        # byte of each parameter field (every cut inside one field fails the
        # same read). Flips: all 8 bits of every header byte, and one bit of
        # every parameter-name byte, the bit cycling with the offset so each
        # bit position is hit.
        buf, header_end, spans = checkpoint
        path = tmp_path / "bad.ckpt"
        cuts = list(range(header_end))
        for lo, hi in (f for fields in spans for f in fields if f[1] > f[0]):
            cuts += sorted({lo, hi - 1})
        for cut in cuts:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(_write(path, buf[:cut]))
        flips = [(at, bit) for at in range(header_end) for bit in range(8)]
        flips += [(at, at % 8) for fields in spans for at in range(*fields[1])]
        for at, bit in flips:
            bad = bytearray(buf)
            bad[at] ^= 1 << bit
            try:
                load_checkpoint(_write(path, bytes(bad)))
            except CheckpointError:
                pass

    def test_non_utf8_name_names_its_offset(self, checkpoint, tmp_path):
        buf, _, spans = checkpoint
        lo = spans[5][1][0]
        bad = bytearray(buf)
        bad[lo] |= 0x80
        with pytest.raises(CheckpointError, match=f"name at byte {lo} is not UTF-8"):
            load_checkpoint(_write(tmp_path / "bad.ckpt", bytes(bad)))

    @pytest.mark.parametrize("key,value", [
        ("heads", "0"), ("norm_groups", "0"), ("cbam_reduction", "0"),
        ("in_channels", "0"), ("vit_layers", "-1"), ("input_size", "16,16"),
    ])
    def test_config_value_out_of_range(self, checkpoint, tmp_path, key, value):
        buf, header_end, _ = checkpoint
        config = buf[12 : header_end - 4].decode()
        old = next(ln for ln in config.splitlines() if ln.startswith(f"{key}="))
        config = config.replace(old, f"{key}={value}").encode()
        bad = buf[:8] + struct.pack("<I", len(config)) + config + buf[header_end - 4 :]
        with pytest.raises(CheckpointError, match=f"bad config block.*{key}"):
            load_checkpoint(_write(tmp_path / "bad.ckpt", bad))

    def test_repeated_config_key(self, checkpoint, tmp_path):
        buf, header_end, _ = checkpoint
        config = (buf[12 : header_end - 4].decode() + "heads=1\n").encode()
        bad = buf[:8] + struct.pack("<I", len(config)) + config + buf[header_end - 4 :]
        with pytest.raises(CheckpointError,
                           match="bad config block.*model config: key 'heads' is given twice"):
            load_checkpoint(_write(tmp_path / "bad.ckpt", bad))

    def test_config_too_large_to_allocate(self, case_cache, tmp_path, capsys):
        # a well-formed version 2 file, CRC32 and all, whose config block
        # asks for 2^20 base channels and which holds no parameters
        config = SMALL.to_text().replace("base_width=1\n", "base_width=1048576\n").encode()
        body = b"BTRU" + struct.pack("<II", 2, len(config)) + config + struct.pack("<I", 0)
        path = _write(tmp_path / "huge.ckpt", _with_crc(body))
        with pytest.raises(CheckpointError,
                           match="config block at byte 12 describes a model that does not fit"):
            load_checkpoint(path)
        case = _write(tmp_path / "case.btrc", case_cache[0])
        out = tmp_path / "mask.nii.gz"
        assert cli(["predict", "--models", str(path), "--input", str(case),
                    "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_payload_bit_flip_fails_the_crc(self, checkpoint, tmp_path):
        # one bit in the middle of each parameter's data, then in the CRC
        buf, _, spans = checkpoint
        path = tmp_path / "bad.ckpt"
        flips = [(lo + hi) // 2 for fields in spans for lo, hi in fields[4:]]
        for at in flips + [len(buf) - 1]:
            bad = bytearray(buf)
            bad[at] ^= 1 << (at % 8)
            with pytest.raises(CheckpointError, match=f"CRC32 mismatch at byte {len(buf) - 4}"):
                load_checkpoint(_write(path, bytes(bad)))

    def test_cut_inside_the_crc_is_truncated(self, checkpoint, tmp_path):
        buf, _, _ = checkpoint
        for cut in range(len(buf) - 4, len(buf)):
            with pytest.raises(CheckpointError,
                               match=f"truncated while reading CRC32 at byte {len(buf) - 4}"):
                load_checkpoint(_write(tmp_path / "bad.ckpt", buf[:cut]))

    def test_version_1_file_loads_bit_exactly(self, tmp_path):
        # the version 1 layout built by hand: no CRC32 trailer
        model = BiTrUnetModel(SMALL, seed=5)
        cfg = SMALL.to_text().encode()
        parts = [b"BTRU", struct.pack("<II", 1, len(cfg)), cfg,
                 struct.pack("<I", len(model.params))]
        for name, t in model.params.items():
            parts += [struct.pack("<I", len(name.encode())), name.encode(),
                      struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape),
                      t.data.astype("<f4").tobytes()]
        v1 = b"".join(parts)
        loaded = load_checkpoint(_write(tmp_path / "v1.ckpt", v1))
        for name, t in model.params.items():
            assert loaded.params[name].data.dtype == np.float32
            assert np.array_equal(loaded.params[name].data, t.data), name
        with pytest.raises(CheckpointError, match=f"4 trailing bytes at byte {len(v1)}"):
            load_checkpoint(_write(tmp_path / "v1.ckpt", _with_crc(v1)))


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def case_cache(tmp_path_factory):
    """(file bytes, start offset of every field of the body, then its end)."""
    rng = np.random.default_rng(8)
    record = CaseRecord(
        case_id="case-ö",
        volume=Volume4D(rng.standard_normal((2, 3, 2, 2)), spacing=(1.0, 0.5, 2.0)),
        label=rng.integers(0, 3, (3, 2, 2)),
    )
    path = tmp_path_factory.mktemp("cache") / "small.btrc"
    cache_case(record, path)
    buf = path.read_bytes()
    id_len = len(record.case_id.encode())
    # magic, version, id length, id, dims, spacing, flags, image, label
    sizes = (4, 4, 4, id_len, 16, 12, 1, 4 * 2 * 3 * 2 * 2, 3 * 2 * 2)
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + size)
    assert starts[-1] == len(buf) - 4
    return buf, starts


class TestCaseCacheFuzz:
    def test_truncations(self, case_cache, tmp_path):
        # Cut at every field boundary and at the first and last byte inside
        # each field, once with the CRC32 of the cut body appended (the
        # reader must name the truncation) and once without (the stored
        # CRC32 no longer matches).
        buf, starts = case_cache
        body = buf[:-4]
        path = tmp_path / "bad.btrc"
        cuts = set()
        for lo, hi in zip(starts, starts[1:]):
            cuts |= {lo, lo + 1, hi - 1}
        for cut in sorted(cuts):
            expected = "bad magic" if cut < 4 else "truncated"
            with pytest.raises(CacheError, match=expected):
                load_case(_write(path, _with_crc(body[:cut])))
            with pytest.raises(CacheError):
                load_case(_write(path, buf[:cut]))

    def test_bit_flips(self, case_cache, tmp_path):
        # Every bit of every header byte and one bit of every payload byte
        # (the bit cycling with the offset). With the CRC32 recomputed each
        # file either loads a well-formed case or raises CacheError; with
        # the stored CRC32 kept every flip is caught.
        buf, starts = case_cache
        body = buf[:-4]
        header_end = starts[7]
        flips = [(at, bit) for at in range(header_end) for bit in range(8)]
        flips += [(at, at % 8) for at in range(header_end, len(body))]
        path = tmp_path / "bad.btrc"
        loaded = 0
        for at, bit in flips:
            bad = bytearray(body)
            bad[at] ^= 1 << bit
            try:
                rec = load_case(_write(path, _with_crc(bytes(bad))))
            except CacheError:
                pass
            else:
                loaded += 1
                assert min(rec.volume.data.shape) > 0
                assert all(math.isfinite(v) and v > 0 for v in rec.volume.spacing)
            with pytest.raises(CacheError):
                load_case(_write(path, bytes(bad) + buf[-4:]))
        assert loaded > 0

    @pytest.mark.parametrize("field,value,message", [
        ("case id", b"case-\xff\xfe", "case id at byte 12 is not UTF-8"),
        ("dims", struct.pack("<4I", 2, 3, 0, 2), "dims 2 x 3 x 0 x 2 at byte 19"),
        ("spacing", struct.pack("<3f", -1.0, 0.5, 2.0), r"spacing\[0\] = -1 at byte 35"),
        ("spacing", struct.pack("<3f", 1.0, math.nan, 2.0), r"spacing\[1\] = nan at byte 39"),
        ("spacing", struct.pack("<3f", 1.0, 0.5, 0.0), r"spacing\[2\] = 0 at byte 43"),
        ("flags", b"\x03", "flags 0x03 at byte 47"),
    ], ids=["non-utf8-id", "zero-dim", "negative-spacing", "nan-spacing", "zero-spacing",
            "unknown-flag"])
    def test_bad_field_with_valid_crc_is_cache_error(
        self, case_cache, checkpoint, tmp_path, capsys, field, value, message
    ):
        buf, starts = case_cache
        field_at = {"case id": 3, "dims": 4, "spacing": 5, "flags": 6}[field]
        lo, hi = starts[field_at], starts[field_at + 1]
        assert len(value) == hi - lo
        body = buf[:lo] + value + buf[hi:-4]
        if field == "dims":
            body = body[: starts[7]]  # no payload for an empty volume
        path = _write(tmp_path / "bad.btrc", _with_crc(body))
        with pytest.raises(CacheError, match=message):
            load_case(path)
        ckpt = _write(tmp_path / "small.ckpt", checkpoint[0])
        out = tmp_path / "mask.nii.gz"
        assert cli(["predict", "--models", str(ckpt), "--input", str(path),
                    "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()


# byte offsets at which the NIfTI-1 header fields start, then the
# extension bytes and the voxel data; each field ends where the next starts
NIFTI_FIELDS = (
    0, 4, 14, 32, 36, 38, 39, 40, 56, 60, 64, 68, 70, 72, 74, 76, 108, 112,
    116, 120, 122, 123, 124, 128, 132, 136, 140, 144, 148, 228, 252, 254,
    256, 260, 264, 268, 272, 276, 280, 296, 312, 328, 344, 348, 352,
)


@pytest.fixture(scope="module")
def nifti_mask(tmp_path_factory):
    """(plain .nii bytes, .nii.gz bytes) of one small labelled mask."""
    mask = np.zeros((5, 4, 3), dtype=np.uint8)
    mask[1:4, 1:3, :2] = 2
    mask[2, 1, 0] = 4
    mask[2, 2, 1] = 1
    root = tmp_path_factory.mktemp("nifti")
    write_nifti(root / "m.nii", mask)
    write_nifti(root / "m.nii.gz", mask)
    return (root / "m.nii").read_bytes(), (root / "m.nii.gz").read_bytes()


class TestNiftiFuzz:
    """Each corrupted file is read directly, then scored by ``evaluate``
    against the intact mask: a ``NiftiError`` must be exit code 2, and no
    file may raise anything else."""

    @staticmethod
    def _check(tmp_path, name, data, intact, seen=None):
        """Whether ``data`` is malformed. A file that loads is scored only
        if no earlier file in ``seen`` loaded to the same spacing and
        voxels, since ``evaluate`` reads nothing else."""
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        for d in (pred, truth):
            d.mkdir(exist_ok=True)
        path = _write(pred / name, data)
        _write(truth / name, intact)
        try:
            hdr, mask = read_nifti(path)
        except NiftiError:
            malformed = True
        else:
            malformed = False
            if seen is not None:
                key = (hdr.spacing, mask.dtype.str, mask.shape, mask.tobytes())
                if key in seen:
                    return False
                seen.add(key)
        code = cli(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert (code == 2) if malformed else (code in (0, 2))
        return malformed

    def test_truncations(self, nifti_mask, tmp_path, capsys):
        # The plain file cut at every header field boundary and inside the
        # voxel data, the same cuts gzip-compressed, and the gzip file cut
        # at every byte of its stream: every one is malformed.
        plain, packed = nifti_mask
        cuts = [c for c in NIFTI_FIELDS if c < len(plain)]
        cuts += [len(plain) - 1, (352 + len(plain)) // 2]
        for cut in cuts:
            assert self._check(tmp_path, "m.nii", plain[:cut], plain)
            assert self._check(tmp_path, "m.nii.gz", gzip.compress(plain[:cut]), packed)
        for cut in range(len(packed)):
            assert self._check(tmp_path, "m.nii.gz", packed[:cut], packed)
        capsys.readouterr()

    def test_bit_flips(self, nifti_mask, tmp_path, capsys):
        # Every bit of every byte of the plain file and of the gzip file.
        plain, packed = nifti_mask
        loaded, seen = 0, set()
        for name, data in (("m.nii", plain), ("m.nii.gz", packed)):
            for at in range(len(data)):
                for bit in range(8):
                    bad = bytearray(data)
                    bad[at] ^= 1 << bit
                    loaded += not self._check(tmp_path, name, bytes(bad), data, seen)
        assert loaded > len(seen) > 0
        capsys.readouterr()

    @pytest.mark.parametrize("field,at", [
        ("vox_offset", 108), ("scl_slope", 112), ("scl_inter", 116),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_header_float(self, nifti_mask, tmp_path, capsys, field, at, value):
        plain, _ = nifti_mask
        bad = plain[:at] + struct.pack("<f", value) + plain[at + 4 :]
        message = f"{field} {value:g} at byte {at} is not finite"
        with pytest.raises(NiftiError, match=message):
            read_nifti(_write(tmp_path / "m.nii", bad))
        assert self._check(tmp_path, "m.nii", bad, plain)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["truncated", "invalid-block-type", "crc"])
    def test_bad_gzip_stream(self, nifti_mask, tmp_path, capsys, corrupt):
        _, packed = nifti_mask
        bad = bytearray(packed)
        if corrupt == "truncated":
            bad = bad[:-9]
        elif corrupt == "invalid-block-type":
            bad[10] |= 0b110  # BTYPE 11 of the first deflate block is reserved
        else:
            bad[-8] ^= 0xFF
        with pytest.raises(NiftiError, match="corrupt or truncated gzip stream"):
            read_nifti(_write(tmp_path / "m.nii.gz", bytes(bad)))
        assert self._check(tmp_path, "m.nii.gz", bytes(bad), packed)
        assert str(tmp_path / "pred" / "m.nii.gz") in capsys.readouterr().err


GOOD_SIDECAR = (
    "dims: 4 2 2 2\nspacing: 1.5 1.0 2.0\nclasses: 0 1 2 4\n"
    "dtype: float32 little-endian\n"
)


def _dump(path, sidecar, floats):
    np.full(floats, 0.25, dtype="<f4").tofile(path)
    with open(str(path) + ".hdr", "wb") as fh:
        fh.write(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
    return path


class TestProbDumpSidecar:
    def test_good_sidecar_keeps_its_spacing(self, tmp_path):
        dump = _dump(tmp_path / "p.f32", GOOD_SIDECAR, 32)
        out = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), "--out", str(out)]) == 0
        hdr, mask = read_nifti(out)
        assert mask.shape == (2, 2, 2)
        assert hdr.spacing == (1.5, 1.0, 2.0)

    @pytest.mark.parametrize("sidecar,floats", [
        (GOOD_SIDECAR.replace("dims: 4", "dims: 5"), 40),
        (GOOD_SIDECAR.replace("dims: 4 2", "dims: 4 0"), 0),
        (GOOD_SIDECAR.replace("4 2 2 2", "4 2 x 2"), 32),
        (GOOD_SIDECAR.replace("spacing: 1.5 1.0 2.0\n", ""), 32),
        (GOOD_SIDECAR.replace("1.5 1.0 2.0", "1.5 0 2.0"), 32),
        (GOOD_SIDECAR.replace("1.5 1.0 2.0", "1.5 nan 2.0"), 32),
        (GOOD_SIDECAR.encode() + b"\xff\xfe\n", 32),
        (GOOD_SIDECAR + "spacing: 2.0 2.0 2.0\n", 32),
    ], ids=["five-classes", "zero-extent", "non-integer", "no-spacing", "zero-spacing",
            "nan-spacing", "non-utf8", "repeated-spacing"])
    def test_bad_sidecar_is_data_error_naming_it(self, tmp_path, capsys, sidecar, floats):
        dump = _dump(tmp_path / "p.f32", sidecar, floats)
        out = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), "--out", str(out)]) == 2
        assert f"{dump}.hdr" in capsys.readouterr().err
        assert not out.exists()

    def test_spacing_disagreement_is_data_error(self, tmp_path, capsys):
        a = _dump(tmp_path / "a.f32", GOOD_SIDECAR, 32)
        b = _dump(tmp_path / "b.f32", GOOD_SIDECAR.replace("1.5 1.0", "1.5 1.1"), 32)
        assert cli(["ensemble", "--probs", str(a), str(b), "--out",
                    str(tmp_path / "voted.nii.gz")]) == 2
        err = capsys.readouterr().err
        assert "spacing" in err and str(a) in err and str(b) in err
