"""Corrupted inputs to the checkpoint and probability-dump parsers: each
either loads or fails with its own typed error (CLI exit code 2), never
with a stray exception."""

import struct

import numpy as np
import pytest

from bitrunet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from bitrunet.cli import cli
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.nifti import read_nifti

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
    assert pos == len(buf)
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
        ("in_channels", "0"), ("vit_layers", "-1"),
    ])
    def test_config_value_out_of_range(self, checkpoint, tmp_path, key, value):
        buf, header_end, _ = checkpoint
        config = buf[12 : header_end - 4].decode()
        old = next(ln for ln in config.splitlines() if ln.startswith(f"{key}="))
        config = config.replace(old, f"{key}={value}").encode()
        bad = buf[:8] + struct.pack("<I", len(config)) + config + buf[header_end - 4 :]
        with pytest.raises(CheckpointError, match=f"bad config block.*{key}"):
            load_checkpoint(_write(tmp_path / "bad.ckpt", bad))


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
    ], ids=["five-classes", "zero-extent", "non-integer", "no-spacing", "zero-spacing",
            "nan-spacing", "non-utf8"])
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
