"""Command-line interface.

Subcommands: preprocess, train, predict, ensemble, evaluate, selftest.
Exit codes: 0 success, 1 usage error, 2 data or check failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .data import (
    CacheError,
    CaseRecord,
    cache_case,
    check_same_spacing,
    load_case,
    normalize,
    pad_to_shape,
    stack_modalities,
    MODALITY_ORDER,
)
from .inference import (
    DEFAULT_ET_THRESHOLD,
    EXTERNAL_LABELS,
    external_to_internal,
    mask_from_probs,
    predict_probs,
    tta_predict,
)
from .metrics import check_labels, evaluate_case, format_report
from .model import BiTrUnetModel, ModelConfig, parse_key_values
from .nifti import NiftiError, read_nifti, write_nifti
from .training import TrainConfig, train_loop


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _non_negative(text):
    """An argparse type: an integer of 0 or more, else a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of 0 or more")
    return n


def _build_parser():
    p = _Parser(prog="bitrunet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("preprocess", help="stack modality NIfTIs into a cache file")
    for m in MODALITY_ORDER:
        pp.add_argument(f"--{m}", required=True, help=f"{m.upper()} NIfTI path")
    pp.add_argument("--label", help="segmentation label NIfTI path")
    pp.add_argument("--case-id", required=True)
    pp.add_argument("--out", required=True, help="output .btrc path")
    pp.add_argument("--no-normalize", action="store_true")

    tr = sub.add_parser("train", help="train from a directory of cache files")
    tr.add_argument("--data", required=True, help="directory of .btrc files")
    tr.add_argument("--out", required=True, help="run directory")
    tr.add_argument("--config", required=True, help="key=value config file")

    pr = sub.add_parser("predict", help="segment one case")
    pr.add_argument("--models", nargs="+", required=True, help="checkpoint file(s)")
    pr.add_argument("--input", required=True, help=".btrc file or case directory")
    pr.add_argument("--out", required=True, help="output mask NIfTI path")
    pr.add_argument("--tta", action="store_true", help="average the 8 flip variants")
    pr.add_argument("--postproc-threshold", type=_non_negative, default=DEFAULT_ET_THRESHOLD,
                    help="min ET component volume in voxels, 0 disables")
    pr.add_argument("--dump-probs", help="also write raw float32 probabilities here")

    en = sub.add_parser("ensemble", help="vote over dumped probability maps")
    en.add_argument("--probs", nargs="+", required=True,
                    help="probability dumps from predict --dump-probs")
    en.add_argument("--out", required=True)
    en.add_argument("--postproc-threshold", type=_non_negative, default=DEFAULT_ET_THRESHOLD,
                    help="min ET component volume in voxels, 0 disables")

    ev = sub.add_parser("evaluate", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted masks")
    ev.add_argument("--truth", required=True, help="directory of reference masks")
    ev.add_argument("--out", help="report path (default: stdout)")

    sub.add_parser("selftest", help="run the brute-force and finite-difference oracle checks")
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

# train config key -> (type, default); a key not listed here is an error.
# The keys are the fields of ModelConfig and TrainConfig, except that
# crop_size stands in for the model's input size on every axis.
_TRAIN_KEYS = {
    f.name: (f.type, f.default)
    for f in fields(ModelConfig) + fields(TrainConfig)
    if f.name != "input_size"
}
_TRAIN_KEYS["crop_size"] = (int, 32)


def _load_train_config(path):
    """(ModelConfig, TrainConfig) of a train file; an unset key takes its default."""
    with open(path) as fh:
        kv = parse_key_values(fh.read(), path)
    unknown = sorted(set(kv) - set(_TRAIN_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    c = {k: default for k, (_, default) in _TRAIN_KEYS.items()}
    for k, text in kv.items():
        cast = _TRAIN_KEYS[k][0]
        try:
            c[k] = cast(text)
        except ValueError:
            raise ValueError(
                f"{path}: {k}={text!r} is not a valid {cast.__name__}"
            ) from None
    crop = c.pop("crop_size")
    try:
        train_cfg = TrainConfig(**{f.name: c.pop(f.name) for f in fields(TrainConfig)})
        return ModelConfig(input_size=(crop,) * 3, **c), train_cfg
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _find_modality_files(case_dir):
    names = sorted(os.listdir(case_dir))
    paths = []
    for m in MODALITY_ORDER:
        hits = [
            n
            for n in names
            for ext in (".nii", ".nii.gz")
            if n == f"{m}{ext}" or n.endswith(f"_{m}{ext}")
        ]
        if len(hits) != 1:
            raise ValueError(
                f"{case_dir}: expected exactly one {m} NIfTI, found {hits}"
            )
        paths.append(os.path.join(case_dir, hits[0]))
    return paths


def _load_input_case(path):
    if os.path.isdir(path):
        vol = normalize(stack_modalities(_find_modality_files(path)))
        return CaseRecord(case_id=os.path.basename(os.path.normpath(path)), volume=vol)
    return load_case(path)


class ProbDumpError(ValueError):
    """Malformed probability dump or sidecar header."""


def _write_prob_dump(path, probs, spacing):
    np.ascontiguousarray(probs, dtype="<f4").tofile(path)
    with open(path + ".hdr", "w") as fh:
        fh.write("dims: " + " ".join(str(n) for n in probs.shape) + "\n")
        fh.write("spacing: " + " ".join(repr(float(v)) for v in spacing) + "\n")
        classes = EXTERNAL_LABELS[: len(probs)]
        fh.write("classes: " + " ".join(str(v) for v in classes) + "\n")
        fh.write("dtype: float32 little-endian\n")


def _sidecar_numbers(hdr_path, fields, key, cast, count):
    """The ``count`` numbers of the sidecar's ``key:`` line, each positive
    and finite."""
    if key not in fields:
        raise ProbDumpError(f"{hdr_path}: no '{key}:' line")
    try:
        values = tuple(cast(t) for t in fields[key].split())
    except ValueError:
        values = ()
    if len(values) != count or not all(0 < v < math.inf for v in values):
        raise ProbDumpError(
            f"{hdr_path}: '{key}:' must hold {count} positive numbers, "
            f"got {fields[key].strip()!r}"
        )
    return values


def _read_prob_dump(path):
    """(float32 probabilities (K, H, W, D), voxel spacing) of one dump."""
    hdr_path = path + ".hdr"
    if not os.path.exists(hdr_path):
        raise ProbDumpError(f"{path}: missing sidecar header {hdr_path}")
    try:
        with open(hdr_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ProbDumpError(
            f"{hdr_path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    fields = {}
    for key, _, value in (line.partition(":") for line in lines):
        if key in fields:
            raise ProbDumpError(f"{hdr_path}: key {key!r} is given twice")
        fields[key] = value
    dims = _sidecar_numbers(hdr_path, fields, "dims", int, 4)
    if dims[0] > len(EXTERNAL_LABELS):
        raise ProbDumpError(
            f"{hdr_path}: 'dims:' gives {dims[0]} classes, more than the "
            f"{len(EXTERNAL_LABELS)} labels {EXTERNAL_LABELS.tolist()}"
        )
    spacing = _sidecar_numbers(hdr_path, fields, "spacing", float, 3)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != math.prod(dims):
        raise ProbDumpError(f"{path}: payload has {raw.size} floats, header says {dims}")
    probs = raw.reshape(dims)
    # a NaN makes min() NaN, which compares false
    if not (probs.min() >= 0 and probs.max() < math.inf):
        index = np.unravel_index(np.argmax(~((probs >= 0) & (probs < math.inf))), dims)
        raise ProbDumpError(
            f"{path}: value {probs[index]} at (class, h, w, d) = "
            f"{tuple(int(i) for i in index)} is not a finite probability of 0 or more"
        )
    return probs, spacing


def _thresholds(et_threshold):
    """The ``{label: min_voxels}`` postprocessing of an ET threshold."""
    return {3: et_threshold} if et_threshold > 0 else {}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_preprocess(args):
    paths = [getattr(args, m) for m in MODALITY_ORDER]
    vol = stack_modalities(paths)
    if not args.no_normalize:
        vol = normalize(vol)
    label = None
    if args.label:
        _, label_data = read_nifti(args.label)
        check_labels(label_data, args.label)  # before a cast could wrap a label
        label = np.asarray(label_data, dtype=np.uint8)
    record = CaseRecord(case_id=args.case_id, volume=vol, label=label)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    cache_case(record, args.out)
    print(f"cached {args.case_id}: image {vol.data.shape} -> {args.out}")
    return 0


def _cmd_train(args):
    model_cfg, train_cfg = _load_train_config(args.config)
    files = sorted(
        os.path.join(args.data, f)
        for f in os.listdir(args.data)
        if f.endswith(".btrc")
    )
    if not files:
        raise ValueError(f"{args.data}: no .btrc cache files found")
    dataset = []
    for f in files:
        rec = load_case(f)
        if rec.label is None:
            raise ValueError(f"{f}: case has no label, cannot train on it")
        label = external_to_internal(rec.label).astype(np.int64)
        if label.max() >= model_cfg.num_classes:
            raise ValueError(
                f"{f}: internal labels 0..{label.max()} do not fit "
                f"num_classes={model_cfg.num_classes}"
            )
        # augmentation crops at random; without it the case is the crop
        shape, crop = rec.volume.data.shape[1:], model_cfg.input_size
        aug = train_cfg.augment
        if not (all(s >= c for s, c in zip(shape, crop)) if aug else shape == crop):
            raise ValueError(
                f"{f}: volume {shape} must be {'at least' if aug else 'exactly'} "
                f"the crop {crop} on every axis with augment={aug}"
            )
        dataset.append((rec.volume.data, label))
    if not 2 <= model_cfg.num_classes <= len(EXTERNAL_LABELS):
        raise ValueError(
            f"{args.config}: num_classes={model_cfg.num_classes} is outside "
            f"2..{len(EXTERNAL_LABELS)}"
        )
    model = BiTrUnetModel(model_cfg, seed=train_cfg.seed, dtype=np.float32)
    history = train_loop(model, dataset, train_cfg, out_dir=args.out)
    if history:
        it, lr, total, ce, dce = history[-1]
        print(f"trained {len(history)} iters; final loss {total:.5f} "
              f"(ce {ce:.5f}, dice {dce:.5f})")
    else:
        print("zero iterations requested; wrote the initial checkpoint only")
    print(f"run artifacts in {args.out}")
    return 0


def _cmd_predict(args):
    models = [load_checkpoint(p) for p in args.models]
    first = models[0].config
    if first.num_classes > len(EXTERNAL_LABELS):
        raise ValueError(
            f"{args.models[0]}: num_classes={first.num_classes} exceeds the "
            f"{len(EXTERNAL_LABELS)} output labels"
        )
    for path, model in zip(args.models[1:], models[1:]):
        for field in ("in_channels", "num_classes", "input_size"):
            mine, theirs = getattr(first, field), getattr(model.config, field)
            if mine != theirs:
                raise ValueError(
                    f"{args.models[0]} has {field}={mine} but {path} has "
                    f"{field}={theirs}; every checkpoint must agree"
                )
    record = _load_input_case(args.input)
    target = models[0].config.input_size
    data, region = pad_to_shape(record.volume.data, target)
    predictor = tta_predict if args.tta else predict_probs
    # back to the case's own voxels before voting, postprocessing and the dump
    probs = [predictor(m, data)[(slice(None),) + region] for m in models]
    mask = mask_from_probs(probs, _thresholds(args.postproc_threshold))
    if args.dump_probs:
        _write_prob_dump(
            args.dump_probs, np.mean(np.stack(probs), axis=0), record.volume.spacing
        )
    write_nifti(args.out, mask.astype(np.uint8), spacing=record.volume.spacing)
    labels = sorted(np.unique(mask).tolist())
    print(f"wrote {args.out} (labels present: {labels})")
    return 0


def _cmd_ensemble(args):
    dumps = [_read_prob_dump(p) for p in args.probs]
    first, spacing = dumps[0]
    for path, (p, sp) in zip(args.probs, dumps):
        if p.shape != first.shape:
            raise ValueError(f"{path}: shape {p.shape} differs from {first.shape}")
        check_same_spacing(args.probs[0], spacing, path, sp)
    mask = mask_from_probs([p for p, _ in dumps], _thresholds(args.postproc_threshold))
    write_nifti(args.out, mask.astype(np.uint8), spacing=spacing)
    print(f"wrote {args.out} from {len(dumps)} probability maps")
    return 0


def _cmd_evaluate(args):
    def mask_files(d):
        """Case id -> path of each .nii / .nii.gz file in ``d``; the id is
        the name without that suffix, and two files with one id are an
        error."""
        files = {}
        for f in sorted(os.listdir(d)):
            for suffix in (".nii.gz", ".nii"):
                if f.endswith(suffix):
                    case_id = f[: -len(suffix)]
                    if case_id in files:
                        raise ValueError(
                            f"{files[case_id]} and {os.path.join(d, f)} both "
                            f"give case id {case_id!r}"
                        )
                    files[case_id] = os.path.join(d, f)
                    break
        return files

    preds = mask_files(args.pred)
    truths = mask_files(args.truth)
    common = sorted(set(preds) & set(truths))
    if not common:
        raise ValueError(
            f"no case id in both {args.pred} and {args.truth}"
        )
    results = {}
    for case_id in common:
        pred_hdr, pred = read_nifti(preds[case_id])
        truth_hdr, truth = read_nifti(truths[case_id])
        check_same_spacing(
            preds[case_id], pred_hdr.spacing, truths[case_id], truth_hdr.spacing
        )
        results[case_id] = evaluate_case(
            np.asarray(pred), np.asarray(truth), spacing=pred_hdr.spacing,
            sources=(preds[case_id], truths[case_id]),
        )
    report = format_report(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote {args.out} ({len(common)} cases)")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_selftest(args):
    from . import reference  # here, so that no other command pays to import it

    ok = True
    for name, check in reference.CHECKS.items():
        # a check that raises fails alone; the ones after it still run
        try:
            passed = bool(check())
        except Exception as exc:
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
            ok = False
            continue
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 2


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "ensemble": _cmd_ensemble,
    "evaluate": _cmd_evaluate,
    "selftest": _cmd_selftest,
}

_DATA_ERRORS = (
    NiftiError,
    CacheError,
    CheckpointError,
    ProbDumpError,
    ValueError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    PermissionError,
)


def cli(argv=None):
    """Entry point used by tests; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"bitrunet {args.command}: {exc}\n")
        return 2


def main():
    sys.exit(cli())
