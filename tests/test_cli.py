"""End-to-end command-line workflows on synthetic data."""

import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import bitrunet
from bitrunet import reference
from bitrunet.checkpoint import load_checkpoint, save_checkpoint
from bitrunet.cli import _TRAIN_KEYS, _load_train_config, cli
from bitrunet.data import cache_case, load_case, make_sphere_case
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.nifti import read_nifti, write_nifti
from bitrunet.training import TrainConfig

rng = np.random.default_rng(55)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic case NIfTIs, a cache dir, and a short trained run."""
    root = tmp_path_factory.mktemp("ws")
    raw = root / "raw"
    raw.mkdir()
    rec = make_sphere_case(size=16, radius=5, contrast=3.0, noise=0.2, seed=21)
    for c, m in enumerate(("t1", "t1c", "t2", "flair")):
        write_nifti(raw / f"case1_{m}.nii.gz", rec.volume.data[c])
    write_nifti(raw / "case1_seg.nii.gz", rec.label.astype(np.uint8))

    cache = root / "cache"
    cache.mkdir()
    code = cli([
        "preprocess",
        "--t1", str(raw / "case1_t1.nii.gz"),
        "--t1c", str(raw / "case1_t1c.nii.gz"),
        "--t2", str(raw / "case1_t2.nii.gz"),
        "--flair", str(raw / "case1_flair.nii.gz"),
        "--label", str(raw / "case1_seg.nii.gz"),
        "--case-id", "case1",
        "--out", str(cache / "case1.btrc"),
    ])
    assert code == 0

    cfg = root / "train.cfg"
    cfg.write_text(
        "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\nffn_hidden=32\n"
        "num_classes=2\ncrop_size=16\niters=12\nseed=3\naugment=0\n"
        "checkpoint_every=6\n"
    )
    run = root / "run"
    assert cli(["train", "--data", str(cache), "--out", str(run),
                "--config", str(cfg)]) == 0
    return root


class TestPreprocess(object):
    def test_cache_contents(self, workspace):
        rec = load_case(workspace / "cache" / "case1.btrc")
        assert rec.case_id == "case1"
        assert rec.volume.data.shape == (4, 16, 16, 16)
        assert sorted(np.unique(rec.label).tolist()) == [0, 1]
        # preprocess z-scores each modality over nonzero voxels
        nz = rec.volume.data[0][rec.volume.data[0] != 0]
        assert abs(nz.mean()) < 1e-4

    def test_modality_spacing_mismatch_is_data_error(self, tmp_path, capsys):
        # 10 * 2**-20 (about 1e-5 relative, exact in float32) is over the
        # 1e-6 relative tolerance that evaluate and ensemble also apply
        paths = {}
        for m in ("t1", "t1c", "t2", "flair"):
            paths[m] = tmp_path / f"{m}.nii.gz"
            x = 1.0 + 10 * 2.0**-20 if m == "t2" else 1.0
            write_nifti(paths[m], np.ones((4, 4, 4), np.float32), spacing=(x, 1.0, 1.0))
        args = ["preprocess", "--case-id", "c", "--out", str(tmp_path / "c.btrc")]
        for m, path in paths.items():
            args += [f"--{m}", str(path)]
        assert cli(args) == 2
        err = capsys.readouterr().err
        assert "spacing" in err
        assert str(paths["t1"]) in err and str(paths["t2"]) in err
        assert not (tmp_path / "c.btrc").exists()

    @pytest.mark.parametrize("value, dtype", [(260, np.int16), (2.7, np.float32),
                                              (-1, np.int16)])
    def test_label_outside_vocabulary_is_data_error(self, tmp_path, capsys, value, dtype):
        # a uint8 cast would store these as 4, 2 and 255
        paths = {}
        for m in ("t1", "t1c", "t2", "flair"):
            paths[m] = tmp_path / f"{m}.nii.gz"
            write_nifti(paths[m], np.ones((4, 4, 4), np.float32))
        label = np.zeros((4, 4, 4), dtype=dtype)
        label[1:3, 1:3, 1:3] = 2
        label[2, 3, 1] = value
        paths["label"] = tmp_path / "seg.nii.gz"
        write_nifti(paths["label"], label)
        out = tmp_path / "c.btrc"
        args = ["preprocess", "--case-id", "c", "--out", str(out)]
        for m, path in paths.items():
            args += [f"--{m}", str(path)]
        assert cli(args) == 2
        err = capsys.readouterr().err
        assert f"{paths['label']}: label {value} is not one of 0, 1, 2, 4" in err
        assert not out.exists()


class TestTrain(object):
    def test_run_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "loss_log.tsv").exists()
        assert (run / "checkpoint_000000.ckpt").exists()
        assert (run / "checkpoint_000006.ckpt").exists()
        assert (run / "checkpoint_final.ckpt").exists()
        lines = (run / "loss_log.tsv").read_text().strip().split("\n")
        assert len(lines) == 12
        assert float(lines[0].split("\t")[1]) == pytest.approx(2e-4)

    def test_truncated_cache_is_data_error(self, tmp_path, capsys):
        # cut after the version field, with a CRC32 that matches the cut body
        body = b"BTRC" + struct.pack("<I", 1)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "cut.btrc").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iters=1\n")
        code = cli(["train", "--data", str(cache), "--out", str(tmp_path / "run"),
                    "--config", str(cfg)])
        assert code == 2
        assert "id length at byte 8" in capsys.readouterr().err

    def test_labels_beyond_num_classes_are_data_error(self, workspace, tmp_path, capsys):
        # the sphere case has internal labels {0, 1}
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\n"
            "num_classes=1\ncrop_size=16\niters=2\naugment=0\n"
        )
        run = tmp_path / "run"
        code = cli(["train", "--data", str(workspace / "cache"), "--out", str(run),
                    "--config", str(cfg)])
        assert code == 2
        assert str(workspace / "cache" / "case1.btrc") in capsys.readouterr().err
        assert not run.exists() or not any(run.iterdir())

    @pytest.mark.parametrize("num_classes", [1, 5])
    def test_num_classes_outside_the_labels_is_data_error(self, tmp_path, capsys,
                                                          num_classes):
        # an all-background case fits any num_classes, so only the range
        # check stands between 1 (a loss over no foreground class) or 5 (a
        # class with no output label) and a run
        rec = make_sphere_case(size=16, radius=5, seed=21)
        cache = tmp_path / "cache"
        cache.mkdir()
        cache_case(replace(rec, label=np.zeros_like(rec.label)), cache / "bg.btrc")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\n"
            f"num_classes={num_classes}\ncrop_size=16\niters=2\naugment=0\n"
        )
        run = tmp_path / "run"
        code = cli(["train", "--data", str(cache), "--out", str(run),
                    "--config", str(cfg)])
        assert code == 2
        assert f"{cfg}: num_classes={num_classes} is outside 2..4" in capsys.readouterr().err
        assert not run.exists()

    def test_case_smaller_than_the_crop_is_data_error(self, workspace, tmp_path, capsys):
        # the workspace case is 16^3; augmentation crops 32^3 from it
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\n"
            "num_classes=2\ncrop_size=32\niters=2\naugment=1\n"
        )
        run = tmp_path / "run"
        run.mkdir()
        code = cli(["train", "--data", str(workspace / "cache"), "--out", str(run),
                    "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(workspace / "cache" / "case1.btrc") in err
        assert "(16, 16, 16) must be at least the crop (32, 32, 32)" in err
        assert list(run.iterdir()) == []


# every train-file key with its default: a changed default changes what an
# existing train file means
_DEFAULTS = {
    "in_channels": 4, "base_width": 16, "num_classes": 4, "embed_dim": 384,
    "vit_layers": 4, "heads": 8, "ffn_hidden": 0, "cbam_reduction": 8,
    "norm_groups": 8, "crop_size": 32, "iters": 300, "base_lr": 2e-4,
    "power": 0.9, "batch_size": 1, "grad_accum": 1, "seed": 0,
    "checkpoint_every": 0, "w_ce": 1.0, "w_dice": 1.0, "augment": 1,
    "shift": 0.1, "scale_min": 0.9, "scale_max": 1.1,
}


class TestTrainConfig(object):
    def test_keys_are_the_config_fields(self):
        want = {f.name for f in fields(ModelConfig) if f.name != "input_size"}
        want |= {f.name for f in fields(TrainConfig)} | {"crop_size"}
        assert set(_TRAIN_KEYS) == want

    def test_defaults_unchanged(self):
        assert {k: default for k, (_, default) in _TRAIN_KEYS.items()} == _DEFAULTS
        for k, (cast, default) in _TRAIN_KEYS.items():
            assert type(default) is cast, k

    def test_every_key_reaches_its_config(self, tmp_path):
        values = {
            "in_channels": 3, "base_width": 8, "num_classes": 3, "embed_dim": 24,
            "vit_layers": 2, "heads": 3, "ffn_hidden": 40, "cbam_reduction": 4,
            "norm_groups": 4, "crop_size": 48, "iters": 7, "base_lr": 1e-3,
            "power": 0.5, "batch_size": 2, "grad_accum": 3, "seed": 11,
            "checkpoint_every": 2, "w_ce": 0.5, "w_dice": 2.0, "augment": 0,
            "shift": 0.25, "scale_min": 0.8, "scale_max": 1.3,
        }
        assert set(values) == set(_DEFAULTS)
        assert all(values[k] != _DEFAULTS[k] for k in values)
        path = tmp_path / "train.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        model_cfg, train_cfg = _load_train_config(str(path))
        assert model_cfg.input_size == (48, 48, 48)
        for k, v in values.items():
            if k != "crop_size":
                cfg = model_cfg if hasattr(model_cfg, k) else train_cfg
                assert getattr(cfg, k) == v, k

    def test_readme_lists_every_key_and_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Training config keys")[1].split("\n#")[0]
        listed = {
            k: float(re.match(r"[-+.\de]+", default).group())
            for k, default in re.findall(r"`(\w+)`\s+\(([^)]*)\)", section)
        }
        assert listed == {k: default for k, (_, default) in _TRAIN_KEYS.items()}

    @pytest.mark.parametrize("key,value", [
        ("iters", -2), ("batch_size", 0), ("grad_accum", 0),
        ("checkpoint_every", -1), ("augment", 2),
    ])
    def test_bad_count_is_data_error(self, workspace, tmp_path, capsys, key, value):
        settings = dict(base_width=4, embed_dim=16, vit_layers=1, heads=2,
                        num_classes=2, crop_size=16, iters=2, augment=0)
        settings[key] = value
        text = "".join(f"{k}={v}\n" for k, v in settings.items())
        code, _ = self._train(workspace, tmp_path, text)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.ckpt"))

    @pytest.mark.parametrize("key,value", [
        ("w_ce", "nan"), ("w_dice", "inf"), ("base_lr", "inf"), ("base_lr", "-1"),
        ("base_lr", "0"), ("power", "nan"), ("shift", "-inf"), ("scale_max", "inf"),
    ])
    def test_bad_float_is_data_error(self, workspace, tmp_path, capsys, key, value):
        # nan or inf trains to nan checkpoints, and a negative rate ascends
        settings = dict(base_width=4, embed_dim=16, vit_layers=1, heads=2,
                        num_classes=2, crop_size=16, iters=2, augment=0)
        settings[key] = value
        text = "".join(f"{k}={v}\n" for k, v in settings.items())
        code, run = self._train(workspace, tmp_path, text)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not run.exists()

    def _train(self, workspace, tmp_path, text):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(text)
        run = tmp_path / "run"
        code = cli(["train", "--data", str(workspace / "cache"), "--out", str(run),
                    "--config", str(cfg)])
        return code, run

    @pytest.mark.parametrize("key,value", [
        ("iters", "abc"), ("base_lr", "fast"), ("crop_size", "1.5"),
    ])
    def test_unparsable_value_names_key_and_file(self, workspace, tmp_path, capsys, key, value):
        code, run = self._train(workspace, tmp_path, f"{key}={value}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and str(tmp_path / "train.cfg") in err
        assert not run.exists()

    def test_repeated_key_names_key_and_file(self, workspace, tmp_path, capsys):
        code, run = self._train(workspace, tmp_path, "iters=0\niters=2\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'train.cfg'}: key 'iters' is given twice" in err
        assert not run.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("w_ce", "nan", "w_ce must be finite, got nan"),
        ("augment", "3", "augment must be 0 or 1, got 3"),
        ("crop_size", "24", "input spatial axis 0 size 24 not divisible by 16"),
        ("heads", "3", "embed_dim 16 not divisible by heads 3"),
    ])
    def test_rejected_value_names_the_file(self, workspace, tmp_path, capsys,
                                           key, value, message):
        settings = dict(base_width=4, embed_dim=16, vit_layers=1, heads=2,
                        num_classes=2, crop_size=16, iters=2, augment=0)
        settings[key] = value
        text = "".join(f"{k}={v}\n" for k, v in settings.items())
        code, run = self._train(workspace, tmp_path, text)
        assert code == 2
        assert f"{tmp_path / 'train.cfg'}: {message}" in capsys.readouterr().err
        assert not run.exists()

    def test_unknown_key_is_data_error(self, workspace, tmp_path, capsys):
        code, _ = self._train(
            workspace, tmp_path,
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\n"
            "num_classes=2\ncrop_size=16\niter=5\naugment=0\n",
        )
        assert code == 2
        assert "iter" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.ckpt"))

    def test_key_unused_by_other_settings_is_accepted(self, workspace, tmp_path):
        # shift only matters with augmentation on, but it is a known key
        code, run = self._train(
            workspace, tmp_path,
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\n"
            "num_classes=2\ncrop_size=16\niters=0\naugment=0\nshift=0.2\n",
        )
        assert code == 0
        assert (run / "checkpoint_000000.ckpt").exists()


class TestPredict(object):
    def test_labels_in_external_vocabulary(self, workspace, tmp_path):
        out = tmp_path / "seg.nii.gz"
        code = cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(out), "--tta",
        ])
        assert code == 0
        _, mask = read_nifti(out)
        assert set(np.unique(mask).tolist()) <= {0, 1, 2, 4}
        assert mask.shape == (16, 16, 16)

    def test_dump_lists_the_models_classes(self, workspace, tmp_path):
        # the workspace model has num_classes=2: labels 0 and 1 only
        dump = tmp_path / "p.f32"
        assert cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "seg.nii.gz"), "--dump-probs", str(dump),
        ]) == 0
        header = (tmp_path / "p.f32.hdr").read_text().splitlines()
        assert "dims: 2 16 16 16" in header
        assert "classes: 0 1" in header

    def test_deterministic_output_bytes(self, workspace, tmp_path):
        args = [
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--tta",
        ]
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        assert cli(args + ["--out", str(a)]) == 0
        assert cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_predict_from_case_directory(self, workspace, tmp_path):
        out = tmp_path / "seg_dir.nii.gz"
        code = cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "raw"),
            "--out", str(out),
        ])
        # the raw dir also contains case1_seg.nii.gz; modality matching must
        # still find exactly one file per modality
        assert code == 0

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        code = cli([
            "predict", "--models", str(tmp_path / "none.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "x.nii.gz"),
        ])
        assert code == 2

    def test_checkpoint_missing_config_key_is_data_error(self, workspace, tmp_path, capsys):
        buf = (workspace / "run" / "checkpoint_final.ckpt").read_bytes()
        cfg_len = struct.unpack("<I", buf[8:12])[0]
        config = buf[12 : 12 + cfg_len].decode()
        lines = [ln for ln in config.splitlines(True) if not ln.startswith("norm_groups=")]
        assert len(lines) == len(config.splitlines()) - 1
        new_cfg = "".join(lines).encode()
        ckpt = tmp_path / "no_norm_groups.ckpt"
        ckpt.write_bytes(
            buf[:8] + struct.pack("<I", len(new_cfg)) + new_cfg + buf[12 + cfg_len :]
        )
        code = cli([
            "predict", "--models", str(ckpt),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "x.nii.gz"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "norm_groups" in err
        assert str(ckpt) in err

    def test_checkpoint_payload_bit_flip_is_data_error(self, workspace, tmp_path, capsys):
        buf = bytearray((workspace / "run" / "checkpoint_final.ckpt").read_bytes())
        buf[len(buf) // 2] ^= 0x10  # inside some parameter's float32 data
        ckpt = tmp_path / "flipped.ckpt"
        ckpt.write_bytes(bytes(buf))
        code = cli([
            "predict", "--models", str(ckpt),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "x.nii.gz"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: CRC32 mismatch" in err
        assert not (tmp_path / "x.nii.gz").exists()

    def test_checkpoint_repeated_parameter_is_data_error(self, workspace, tmp_path, capsys):
        # e2.cbam.spatial_w renamed to e1.cbam.spatial_w: the count still
        # matches, but one name is repeated and the other is missing
        buf = (workspace / "run" / "checkpoint_final.ckpt").read_bytes()
        assert buf.count(b"e2.cbam.spatial_w") == 1
        at = buf.index(b"e2.cbam.spatial_w")
        ckpt = tmp_path / "repeated.ckpt"
        ckpt.write_bytes(buf.replace(b"e2.cbam.spatial_w", b"e1.cbam.spatial_w"))
        code = cli([
            "predict", "--models", str(ckpt),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "x.nii.gz"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'e1.cbam.spatial_w' repeated at byte {at}" in err

    @pytest.mark.parametrize("field, value", [("in_channels", 2), ("num_classes", 4),
                                              ("input_size", (32, 32, 32))])
    def test_checkpoints_that_disagree_are_data_error(self, workspace, tmp_path, capsys,
                                                      field, value):
        first = workspace / "run" / "checkpoint_final.ckpt"
        cfg = replace(load_checkpoint(first).config, **{field: value})
        other = tmp_path / "other.ckpt"
        save_checkpoint(BiTrUnetModel(cfg, seed=0, dtype=np.float32), other)
        seg = tmp_path / "seg.nii.gz"
        assert cli(["predict", "--models", str(first), str(other),
                    "--input", str(workspace / "cache" / "case1.btrc"),
                    "--out", str(seg)]) == 2
        err = capsys.readouterr().err
        mine = getattr(load_checkpoint(first).config, field)
        assert f"{first} has {field}={mine} but {other} has {field}={value};" in err
        assert not seg.exists()

    def test_checkpoint_with_more_classes_than_labels_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        cfg = replace(load_checkpoint(workspace / "run" / "checkpoint_final.ckpt").config,
                      num_classes=5)
        ckpt = tmp_path / "five.ckpt"
        save_checkpoint(BiTrUnetModel(cfg, seed=0, dtype=np.float32), ckpt)
        seg = tmp_path / "seg.nii.gz"
        assert cli(["predict", "--models", str(ckpt),
                    "--input", str(workspace / "cache" / "case1.btrc"),
                    "--out", str(seg)]) == 2
        assert f"{ckpt}: num_classes=5 exceeds the 4 output labels" in capsys.readouterr().err
        assert not seg.exists()

    def test_case_smaller_than_the_model_input(self, workspace, tmp_path):
        # a 14^3 case padded to the 16^3 model: the mask, the dump and the
        # ensemble of the dump all cover the case's own voxels
        rec = make_sphere_case(size=14, radius=4, seed=5)
        case = tmp_path / "small.btrc"
        cache_case(rec, case)
        dump, seg, voted = tmp_path / "p.f32", tmp_path / "seg.nii.gz", tmp_path / "v.nii.gz"
        assert cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(case), "--out", str(seg), "--dump-probs", str(dump), "--tta",
        ]) == 0
        assert "dims: 2 14 14 14" in (tmp_path / "p.f32.hdr").read_text().splitlines()
        assert cli(["ensemble", "--probs", str(dump), "--out", str(voted)]) == 0
        _, a = read_nifti(seg)
        _, b = read_nifti(voted)
        assert a.shape == b.shape == (14, 14, 14)
        assert np.array_equal(a, b)


class TestEnsemble(object):
    def test_prob_dump_then_ensemble(self, workspace, tmp_path):
        dump1 = tmp_path / "p1.f32"
        dump2 = tmp_path / "p2.f32"
        for dump in (dump1, dump2):
            assert cli([
                "predict",
                "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
                "--input", str(workspace / "cache" / "case1.btrc"),
                "--out", str(tmp_path / "tmp.nii.gz"),
                "--dump-probs", str(dump),
            ]) == 0
        assert (tmp_path / "p1.f32.hdr").exists()
        out = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump1), str(dump2),
                    "--out", str(out)]) == 0
        _, mask = read_nifti(out)
        assert set(np.unique(mask).tolist()) <= {0, 1, 2, 4}

    def test_identical_dumps_equal_single_prediction(self, workspace, tmp_path):
        dump = tmp_path / "p.f32"
        seg = tmp_path / "direct.nii.gz"
        assert cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(seg), "--dump-probs", str(dump),
        ]) == 0
        voted = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), str(dump), str(dump),
                    "--out", str(voted)]) == 0
        _, a = read_nifti(seg)
        _, b = read_nifti(voted)
        assert np.array_equal(a, b)


    def test_ensemble_keeps_input_spacing(self, workspace, tmp_path):
        rec = load_case(workspace / "cache" / "case1.btrc")
        rec.volume.spacing = (1.5, 1.0, 2.0)
        case = tmp_path / "aniso.btrc"
        cache_case(rec, case)
        dump = tmp_path / "p.f32"
        direct = tmp_path / "direct.nii.gz"
        assert cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(case), "--out", str(direct), "--dump-probs", str(dump),
        ]) == 0
        assert "spacing: 1.5 1.0 2.0\n" in (tmp_path / "p.f32.hdr").read_text()
        voted = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), "--out", str(voted)]) == 0
        assert read_nifti(voted)[0].spacing == read_nifti(direct)[0].spacing == (1.5, 1.0, 2.0)


    @pytest.mark.parametrize("value, where", [
        (np.nan, (0, 3, 4, 5)), (-5.0, (1, 0, 0, 0)), (-5.0, (1, 15, 15, 15)),
        (np.inf, (1, 2, 2, 2)),
    ])
    def test_dump_that_is_not_probabilities_is_data_error(self, workspace, tmp_path,
                                                          capsys, value, where):
        dump = tmp_path / "p.f32"
        assert cli([
            "predict",
            "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
            "--input", str(workspace / "cache" / "case1.btrc"),
            "--out", str(tmp_path / "direct.nii.gz"), "--dump-probs", str(dump),
        ]) == 0
        probs = np.fromfile(dump, dtype="<f4").reshape(2, 16, 16, 16)
        if value == -5.0:
            probs[where[0]] = value  # one class negative everywhere
        else:
            probs[where] = value
        probs.tofile(dump)
        voted = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), "--out", str(voted)]) == 2
        err = capsys.readouterr().err
        first = (where[0], 0, 0, 0) if value == -5.0 else where
        assert f"{dump}: value {value} at (class, h, w, d) = {first} is not" in err
        assert not voted.exists()


class TestEvaluate(object):
    def test_identical_dirs_give_perfect_scores(self, tmp_path):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        mask = rng.choice([0, 1, 2, 4], (8, 8, 8)).astype(np.uint8)
        write_nifti(pred / "case1.nii.gz", mask)
        write_nifti(truth / "case1.nii.gz", mask)
        report = tmp_path / "report.tsv"
        assert cli(["evaluate", "--pred", str(pred), "--truth", str(truth),
                    "--out", str(report)]) == 0
        text = report.read_text()
        for line in text.strip().split("\n"):
            if line.startswith("case1"):
                parts = line.split("\t")
                assert float(parts[2]) == 1.0  # dice
                assert float(parts[3]) == 0.0  # hd95

    @pytest.mark.parametrize("side", ["pred", "truth"])
    def test_label_outside_vocabulary_is_data_error(self, tmp_path, capsys, side):
        # a truth of all 3s against an all-zero prediction must not score
        # as a perfect empty-vs-empty match
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        for k, d in dirs.items():
            d.mkdir()
            mask = np.full((6, 6, 6), 3 if k == side else 0, dtype=np.uint8)
            write_nifti(d / "case1.nii.gz", mask)
        assert cli(["evaluate", "--pred", str(dirs["pred"]),
                    "--truth", str(dirs["truth"])]) == 2
        err = capsys.readouterr().err
        assert str(dirs[side] / "case1.nii.gz") in err
        assert "label 3" in err

    def test_spacing_mismatch_is_data_error(self, tmp_path, capsys):
        # HD95 needs one voxel spacing: a 2 mm prediction against a 1 mm
        # truth must not be scored with the prediction's spacing
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        mask = rng.choice([0, 1, 2, 4], (6, 6, 6)).astype(np.uint8)
        for k, d in dirs.items():
            d.mkdir()
            spacing = (2.0, 1.0, 1.0) if k == "pred" else (1.0, 1.0, 1.0)
            write_nifti(d / "case1.nii.gz", mask, spacing=spacing)
        assert cli(["evaluate", "--pred", str(dirs["pred"]),
                    "--truth", str(dirs["truth"])]) == 2
        err = capsys.readouterr().err
        assert "spacing" in err
        for d in dirs.values():
            assert str(d / "case1.nii.gz") in err

    def test_no_matching_files_is_data_error(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert cli(["evaluate", "--pred", str(a), "--truth", str(b)]) == 2

    def test_case_id_strips_only_the_suffix(self, tmp_path):
        # ".nii" inside a name is part of the case id: both cases are scored
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        empty = np.zeros((6, 6, 6), dtype=np.uint8)
        tumor = empty.copy()
        tumor[1:4, 2:5, 1:3] = 2
        for k, d in dirs.items():
            d.mkdir()
            write_nifti(d / "case.nii_1.nii.gz", tumor)
            write_nifti(d / "case_1.nii.gz", tumor if k == "truth" else empty)
        report = tmp_path / "report.tsv"
        assert cli(["evaluate", "--pred", str(dirs["pred"]), "--truth",
                    str(dirs["truth"]), "--out", str(report)]) == 0
        rows = {tuple(ln.split("\t")[:2]): ln.split("\t")[2]
                for ln in report.read_text().splitlines() if ln.startswith("case")}
        assert rows[("case.nii_1", "WT")] == "1.000000"
        assert rows[("case_1", "WT")] == "0.000000"

    @pytest.mark.parametrize("names", [("a.nii", "a.nii.gz"), ("a.nii.gz", "a.nii")])
    def test_two_files_with_one_case_id_is_data_error(self, tmp_path, capsys, names):
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        mask = np.zeros((4, 4, 4), dtype=np.uint8)
        for d in dirs.values():
            d.mkdir()
        for name in names:
            write_nifti(dirs["pred"] / name, mask)
        write_nifti(dirs["truth"] / names[0], mask)
        report = tmp_path / "report.tsv"
        assert cli(["evaluate", "--pred", str(dirs["pred"]), "--truth",
                    str(dirs["truth"]), "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert str(dirs["pred"] / "a.nii") in err
        assert str(dirs["pred"] / "a.nii.gz") in err
        assert not report.exists()

    @pytest.mark.parametrize("four_d", [("pred", "truth"), ("pred",), ("truth",)])
    def test_mask_that_is_not_3d_is_data_error(self, tmp_path, capsys, four_d):
        # a (4, 4, 4, 1) mask is read as 4D; it is named, never scored
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        mask = np.zeros((4, 4, 4, 1), dtype=np.uint8)
        mask[1:3, 1:3, 1:3] = 2
        for k, d in dirs.items():
            d.mkdir()
            write_nifti(d / "a.nii.gz", mask if k in four_d else mask[..., 0])
        report = tmp_path / "report.tsv"
        assert cli(["evaluate", "--pred", str(dirs["pred"]), "--truth",
                    str(dirs["truth"]), "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"{dirs[four_d[0]] / 'a.nii.gz'}: mask of shape (4, 4, 4, 1) is not 3D" in err
        assert not report.exists()


class TestChecks(object):
    def test_selftest_exits_zero(self, selftest_run):
        code, out, _ = selftest_run
        assert code == 0
        assert out == [f"PASS  {name}" for name in reference.CHECKS] + ["selftest PASSED"]
        assert len(out) == 15
        assert "PASS  conv3d input/weight grads vs naive (adjoint)" in out
        assert "PASS  evaluate_case on crop vs full-volume metrics" in out
        assert "PASS  conv3d kernels at edge extents, strides and dtypes" in out

    def test_selftest_failing_check(self, monkeypatch, capsys):
        # a failure is reported and the checks after it still run
        monkeypatch.setattr(reference, "CHECKS", {
            "broken": lambda: False, "sound": lambda: True,
        })
        assert cli(["selftest"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL  broken", "PASS  sound", "selftest FAILED",
        ]

    def test_selftest_raising_check(self, monkeypatch, capsys):
        # a check that raises fails with its exception named, whatever its
        # type, and the checks after it still run
        def raises(exc):
            def check():
                raise exc
            return check

        monkeypatch.setattr(reference, "CHECKS", {
            "sound": lambda: True,
            "broken": lambda: False,
            "typed": raises(ValueError("bad cache")),
            "untyped": raises(KeyError("w")),
            "last": lambda: True,
        })
        assert cli(["selftest"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "PASS  sound", "FAIL  broken", "FAIL  typed: ValueError: bad cache",
            "FAIL  untyped: KeyError: 'w'", "PASS  last", "selftest FAILED",
        ]


def _scipy_modules_after(statements):
    """Names of the scipy modules loaded after running ``statements`` in a
    fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(bitrunet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, bitrunet\nassert bitrunet.__file__ == {bitrunet.__file__!r}\n"
             f"{statements}\n"
             "print('loaded:', *sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return proc.stdout.splitlines()[-1].split()[1:]


class TestStartUp(object):
    """Which scipy modules each command loads: training needs numpy only."""

    def test_train_loads_no_scipy(self, workspace, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "base_width=4\nembed_dim=16\nvit_layers=1\nheads=2\nffn_hidden=32\n"
            "num_classes=2\ncrop_size=16\niters=2\nseed=3\naugment=1\n"
        )
        argv = ["train", "--data", str(workspace / "cache"),
                "--out", str(tmp_path / "run"), "--config", str(cfg)]
        loaded = _scipy_modules_after(
            f"from bitrunet.cli import cli\nassert cli({argv!r}) == 0")
        assert loaded == []
        assert (tmp_path / "run" / "checkpoint_final.ckpt").exists()

    def test_predict_loads_ndimage_and_nothing_else(self, workspace, tmp_path):
        # postprocessing is predict's one use of scipy; scipy.ndimage itself
        # imports scipy.special, so that comes along, but gelu adds nothing
        argv = ["predict",
                "--models", str(workspace / "run" / "checkpoint_final.ckpt"),
                "--input", str(workspace / "cache" / "case1.btrc"),
                "--out", str(tmp_path / "seg.nii.gz")]
        loaded = _scipy_modules_after(
            f"from bitrunet.cli import cli\nassert cli({argv!r}) == 0")
        assert "scipy.ndimage" in loaded
        assert loaded == _scipy_modules_after("from scipy import ndimage")
        unpostprocessed = _scipy_modules_after(
            f"from bitrunet.cli import cli\n"
            f"assert cli({argv + ['--postproc-threshold', '0']!r}) == 0")
        assert unpostprocessed == []


    def test_evaluate_loads_no_ndimage(self, tmp_path):
        # the surface erosion is numpy's; only the k-d tree comes from scipy
        dirs = {k: tmp_path / k for k in ("pred", "truth")}
        mask = np.zeros((8, 8, 8), dtype=np.uint8)
        mask[2:6, 2:6, 2:6] = 2
        mask[3:5, 3:5, 3:5] = 4
        for d in dirs.values():
            d.mkdir()
            write_nifti(d / "case1.nii.gz", mask)
        argv = ["evaluate", "--pred", str(dirs["pred"]), "--truth", str(dirs["truth"]),
                "--out", str(tmp_path / "report.tsv")]
        loaded = _scipy_modules_after(
            f"from bitrunet.cli import cli\nassert cli({argv!r}) == 0")
        assert "scipy.spatial" in loaded
        assert not [m for m in loaded if m.startswith("scipy.ndimage")]
        assert (tmp_path / "report.tsv").exists()


class TestUsage(object):
    def test_unknown_command(self):
        assert cli(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli(["selftest", "--bogus"]) == 1

    def test_missing_required(self):
        assert cli(["predict"]) == 1

    @pytest.mark.parametrize("value", ["-1", "-50", "two"])
    def test_negative_postproc_threshold(self, workspace, tmp_path, capsys, value):
        seg = tmp_path / "seg.nii.gz"
        dump = tmp_path / "p.f32"
        ckpt = str(workspace / "run" / "checkpoint_final.ckpt")
        case = str(workspace / "cache" / "case1.btrc")
        assert cli(["predict", "--models", ckpt, "--input", case, "--out", str(seg),
                    "--dump-probs", str(dump), "--postproc-threshold", value]) == 1
        assert "--postproc-threshold" in capsys.readouterr().err
        assert not seg.exists() and not dump.exists()
        assert cli(["predict", "--models", ckpt, "--input", case, "--out", str(seg),
                    "--dump-probs", str(dump)]) == 0
        voted = tmp_path / "voted.nii.gz"
        assert cli(["ensemble", "--probs", str(dump), "--out", str(voted),
                    "--postproc-threshold", value]) == 1
        assert "--postproc-threshold" in capsys.readouterr().err
        assert not voted.exists()
        assert cli(["ensemble", "--probs", str(dump), "--out", str(voted),
                    "--postproc-threshold", "0"]) == 0
