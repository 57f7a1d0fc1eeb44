"""Command-line interface.

Subcommands: preprocess, train, predict, ensemble, evaluate, gradcheck,
selftest. Exit codes: 0 success, 1 usage error, 2 data or check failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import reference
from .checkpoint import CheckpointError, load_checkpoint
from .data import (
    CacheError,
    CaseRecord,
    cache_case,
    check_same_spacing,
    load_case,
    make_sphere_case,
    normalize,
    pad_to_shape,
    stack_modalities,
    MODALITY_ORDER,
)
from .gradcheck import check_model_gradients, run_op_suite
from .inference import (
    DEFAULT_ET_THRESHOLD,
    EXTERNAL_LABELS,
    external_to_internal,
    majority_vote,
    mask_from_probs,
    predict_probs,
    tta_predict,
    volume_threshold_postprocess,
)
from .metrics import (
    REGIONS,
    check_labels,
    evaluate_case,
    format_report,
    hd95,
    surface_voxels,
)
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


def _min_voxels(text):
    """The value of ``--postproc-threshold``: a voxel count, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a voxel count of 0 or more (0 disables postprocessing)"
        )
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
    pr.add_argument("--postproc-threshold", type=_min_voxels, default=DEFAULT_ET_THRESHOLD,
                    help="min ET component volume in voxels, 0 disables")
    pr.add_argument("--dump-probs", help="also write raw float32 probabilities here")

    en = sub.add_parser("ensemble", help="vote over dumped probability maps")
    en.add_argument("--probs", nargs="+", required=True,
                    help="probability dumps from predict --dump-probs")
    en.add_argument("--out", required=True)
    en.add_argument("--postproc-threshold", type=_min_voxels, default=DEFAULT_ET_THRESHOLD,
                    help="min ET component volume in voxels, 0 disables")

    ev = sub.add_parser("evaluate", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted masks")
    ev.add_argument("--truth", required=True, help="directory of reference masks")
    ev.add_argument("--out", help="report path (default: stdout)")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.add_argument("--instances", type=int, default=20)

    sub.add_parser("selftest", help="run the brute-force oracle comparisons")
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
    fields = {key: value for key, _, value in (line.partition(":") for line in lines)}
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


def _cmd_gradcheck(args):
    results = run_op_suite(instances=args.instances)
    worst = 0.0
    for name in sorted(results):
        print(f"  {name:28s} {results[name]:.3e}")
        worst = max(worst, results[name])
    from .tensor import Tensor

    cfg = ModelConfig(
        in_channels=2, base_width=4, num_classes=4, embed_dim=16,
        vit_layers=1, heads=2, ffn_hidden=32, input_size=(16, 16, 16),
    )
    model = BiTrUnetModel(cfg, seed=0, dtype=np.float64)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 16, 16, 16)))
    model_err = check_model_gradients(model, x, samples=50)
    print(f"  {'full model':28s} {model_err:.3e}")
    print(f"max relative error (ops): {worst:.3e}")
    ok = worst < 1e-4 and model_err < 1e-3
    print("gradcheck", "PASSED" if ok else "FAILED")
    return 0 if ok else 2


def _cmd_selftest(args):
    import gzip
    import tempfile

    from . import kernels
    from .tensor import Tensor, conv3d, conv_transpose3d, erf

    rng = np.random.default_rng(0)
    checks = []

    def run(name, fn):
        ok = bool(fn())
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    def conv_vs_naive():
        worst = 0.0
        for _ in range(5):
            x = rng.standard_normal((1, 2, 5, 5, 5))
            w = rng.standard_normal((3, 2, 3, 3, 3))
            for stride in (1, 2):
                got = kernels.conv3d_forward(x, w, stride, 1)
                ref = reference.naive_conv3d(x, w, stride, 1)
                worst = max(worst, float(np.abs(got - ref).max()))
        return worst < 1e-9

    def conv_grads_vs_naive():
        # <naive(x, w), gy> == <x, input_grad(gy)> == <w, weight_grad(x, gy)>
        worst = 0.0
        for _ in range(5):
            x = rng.standard_normal((2, 2, 5, 5, 5))
            w = rng.standard_normal((3, 2, 3, 3, 3))
            for stride in (1, 2):
                ref = reference.naive_conv3d(x, w, stride, 1)
                gy = rng.standard_normal(ref.shape)
                lhs = float((ref * gy).sum())
                gx = kernels.conv3d_input_grad(gy, w, stride, 1, x.shape[2:])
                gw = kernels.conv3d_weight_grad(x, gy, stride, 1, w.shape[2:])
                for rhs in (float((x * gx).sum()), float((w * gw).sum())):
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        return worst < 1e-10

    def conv_edge_extents():
        # single-voxel, two-voxel and mixed extents, odd extents at stride 2
        # with and without padding, batch 2, in float64 and float32
        cases = [((1, 1, 1), 1, 1), ((2, 2, 2), 2, 1), ((2, 3, 4), 1, 1),
                 ((5, 7, 3), 2, 0), ((7, 3, 5), 2, 1)]
        for spatial, stride, pad in cases:
            x = rng.standard_normal((2, 2) + spatial)
            w = rng.standard_normal((3, 2, 3, 3, 3))
            ref = reference.naive_conv3d(x, w, stride, pad)
            gy = rng.standard_normal(ref.shape)
            lhs = float((ref * gy).sum())
            for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
                xd, wd, gyd = (a.astype(dtype) for a in (x, w, gy))
                y = kernels.conv3d_forward(xd, wd, stride, pad)
                gx = kernels.conv3d_input_grad(gyd, wd, stride, pad, spatial)
                gw = kernels.conv3d_weight_grad(xd, gyd, stride, pad, w.shape[2:])
                if {y.dtype, gx.dtype, gw.dtype} != {np.dtype(dtype)}:
                    return False
                if y.shape != ref.shape or np.abs(y - ref).max() >= tol:
                    return False
                for rhs in (float((x * gx).sum()), float((w * gw).sum())):
                    if abs(lhs - rhs) / max(abs(lhs), 1e-12) >= tol:
                        return False
        return True

    def matmul_vs_naive():
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        return np.abs(a @ b - reference.naive_matmul(a, b)).max() < 1e-10

    def adjointness():
        worst = 0.0
        for _ in range(5):
            x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)))
            y = Tensor(rng.standard_normal((1, 3, 2, 2, 2)))
            w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
            lhs = float((conv3d(x, w, None, stride=2).data * y.data).sum())
            rhs = float((x.data * conv_transpose3d(y, w, None, stride=2).data).sum())
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        return worst < 1e-6

    def erf_vs_math():
        # both branches of the approximation and the tails, in both dtypes:
        # float64 within 2 ulp of the C library's erf, float32 within 1 ulp
        for dtype, ulps in ((np.float64, 2), (np.float32, 1)):
            grid = np.linspace(-7.0, 7.0, 2801).astype(dtype)
            want = np.array([math.erf(v) for v in grid.tolist()]).astype(dtype)
            got = erf(grid)
            if got.dtype != dtype or np.any(
                np.abs(got - want) > ulps * np.spacing(np.abs(want))
            ):
                return False
        return True

    def vote_oracle():
        for _ in range(20):
            n = int(rng.integers(1, 5))
            masks = [rng.integers(0, 4, (3, 3, 3)) for _ in range(n)]
            probs = [rng.random((4, 3, 3, 3)) for _ in range(n)]
            got = majority_vote(masks, probs)
            ref = reference.brute_force_vote(masks, probs)
            if not np.array_equal(got, ref):
                return False
        return True

    def postproc_oracle():
        for _ in range(20):
            mask = rng.integers(0, 4, (6, 6, 6))
            thr = {1: 3, 2: 5, 3: 2}
            got = volume_threshold_postprocess(mask, thr)
            ref = reference.brute_force_postprocess(mask, thr)
            if not np.array_equal(got, ref):
                return False
        return True

    def hd95_oracle():
        # random masks, then boxes touching opposite faces of the volume
        pairs = [(rng.random((6, 6, 6)) < 0.2, rng.random((6, 6, 6)) < 0.2)
                 for _ in range(10)]
        for axis in range(3):
            a = np.zeros((6, 6, 6), dtype=bool)
            b = np.zeros((6, 6, 6), dtype=bool)
            a[:2, 1:4, 2:5] = True
            b[3:, 2:5, 1:3] = True
            pairs.append((np.moveaxis(a, 0, axis), np.moveaxis(b, 0, axis)))
        for spacing in ((1.0, 1.0, 1.0), (1.5, 1.0, 0.5)):
            for a, b in pairs:
                ref = reference.brute_force_hd95(a, b, spacing)
                if abs(hd95(a, b, spacing) - ref) > 1e-9:
                    return False
        return True

    def surface_oracle():
        # masks that fill the array or touch every face, and extents of 1:
        # a boundary voxel is a surface voxel even when its mask fills that
        # axis, so padding the erosion with foreground would fail here
        masks = [np.ones(shape, dtype=bool)
                 for shape in ((1, 1, 1), (1, 4, 3), (3, 1, 1), (4, 5, 6))]
        for shape in ((1, 5, 4), (5, 1, 2), (2, 3, 6), (6, 6, 6)):
            m = rng.random(shape) < 0.7
            m[0, 0, 0] = m[-1, -1, -1] = True
            masks.append(m)
        return all(np.array_equal(surface_voxels(m), reference.brute_force_surface(m))
                   for m in masks)

    def crop_vs_full():
        # small labelled blobs in [1, 9)^3 of a 12^3 volume: the joint box
        # lies strictly inside, so evaluate_case scores a real crop
        def ratio(num, den):
            return 1.0 if den == 0 else num / den

        for spacing in ((1.0, 1.0, 1.0), (1.5, 1.0, 0.5)):
            masks = []
            for _ in range(2):
                m = np.zeros((12, 12, 12), dtype=np.uint8)
                for label in (2, 1, 4):
                    lo = rng.integers(1, 7, 3)
                    hi = lo + rng.integers(1, 4, 3)
                    m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = label
                masks.append(m)
            got = evaluate_case(masks[0], masks[1], spacing=spacing)
            for region in REGIONS:
                p, t = (np.isin(m, sorted(region.labels)) for m in masks)
                tp = np.count_nonzero(p & t)
                fp = np.count_nonzero(p & ~t)
                fn = np.count_nonzero(~p & t)
                tn = np.count_nonzero(~p & ~t)
                want = {
                    "dice": ratio(2 * tp, 2 * tp + fp + fn),
                    "hd95": reference.brute_force_hd95(p, t, spacing),
                    "sensitivity": ratio(tp, tp + fn),
                    "specificity": ratio(tn, tn + fp),
                }
                scores = got[region.name]
                if any(abs(scores[k] - want[k]) > 1e-9 for k in want):
                    return False
        return True

    def roundtrips():
        with tempfile.TemporaryDirectory() as td:
            # the file holds the header, then the payload x-fastest, whatever
            # the array's memory order; stdlib gzip must read it too
            vol = rng.standard_normal((5, 3, 4)).astype(np.float32)
            path = os.path.join(td, "v.nii.gz")
            for arr in (vol, np.asfortranarray(vol)):
                write_nifti(path, arr)
                with gzip.open(path, "rb") as fh:
                    raw = fh.read()
                hdr, back = read_nifti(path)
                payload = raw[hdr.vox_offset :]
                if payload != vol.tobytes(order="F") or not np.array_equal(vol, back):
                    return False
            rec = make_sphere_case(size=16, radius=4)
            cpath = os.path.join(td, "c.btrc")
            cache_case(rec, cpath)
            rec2 = load_case(cpath)
            return np.array_equal(rec.volume.data, rec2.volume.data) and np.array_equal(
                rec.label, rec2.label
            )

    run("conv3d vs naive loop oracle", conv_vs_naive)
    run("conv3d input/weight grads vs naive (adjoint)", conv_grads_vs_naive)
    run("conv3d kernels at edge extents, strides and dtypes", conv_edge_extents)
    run("matmul vs triple loop oracle", matmul_vs_naive)
    run("transposed conv adjointness", adjointness)
    run("erf vs math.erf", erf_vs_math)
    run("majority vote vs brute force", vote_oracle)
    run("postprocess vs flood fill", postproc_oracle)
    run("surface voxels vs brute-force oracle", surface_oracle)
    run("hd95 vs all-pairs oracle", hd95_oracle)
    run("evaluate_case on crop vs full-volume metrics", crop_vs_full)
    run("file format roundtrips", roundtrips)
    ok = all(checks)
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 2


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "ensemble": _cmd_ensemble,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
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
