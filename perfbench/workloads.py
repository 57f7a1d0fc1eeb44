"""The three workloads: inputs, the operations of one round, and checks.

Every operation is one in-process call of the ``bitrunet`` CLI. A round is
a fixed list of operations, the same in every run, so the share of failed
operations does not depend on how many rounds fit in a run. Each round
returns the wall time of each unit of work it finished (its samples) and
the number of units it processed: training iterations for ``train-32``,
cases for ``segment-32`` and case pairs for ``evaluate-brats``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

import checks
import synth
from bitrunet import reference, training
from bitrunet.checkpoint import load_checkpoint, save_checkpoint
from bitrunet.data import CaseRecord, Volume4D, cache_case
from bitrunet.inference import DEFAULT_ET_THRESHOLD
from bitrunet.metrics import HD95_EMPTY_SENTINEL
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.nifti import write_nifti


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark scale."""

    edge: int  # case edge and model input for train-32 and segment-32
    model: dict  # model config keys beyond in_channels and num_classes
    iters: int  # training iterations per train call
    train_cases: int
    radii: tuple  # (lo, hi) of the outer, middle and inner shell radius
    volume: tuple  # evaluate-brats volume shape
    volume_radii: tuple
    volume_jitter: int


FULL = Size(
    edge=32,
    model=dict(base_width=16, embed_dim=32, vit_layers=1, heads=4, ffn_hidden=64),
    iters=10,
    train_cases=2,
    radii=((9, 11), (6, 7), (3, 4)),
    volume=(240, 240, 155),
    volume_radii=((30, 40), (16, 22), (7, 11)),
    volume_jitter=10,
)

# the same workloads small enough for the benchmark's own tests
TOY = Size(
    edge=16,
    model=dict(base_width=4, embed_dim=16, vit_layers=1, heads=2, ffn_hidden=32),
    iters=4,
    train_cases=1,
    radii=((5, 6), (3, 4), (2, 2)),
    volume=(64, 64, 48),
    volume_radii=((12, 16), (7, 9), (3, 5)),
    volume_jitter=3,
)

SIZES = {"full": FULL, "toy": TOY}


@dataclass
class Round:
    samples: list = field(default_factory=list)  # seconds per unit of work
    units: int = 0


def _model_config(size):
    return ModelConfig(
        in_channels=4, num_classes=4, input_size=(size.edge,) * 3, **size.model
    )


def _cache(image, label, case_id, path):
    cache_case(CaseRecord(case_id=case_id, volume=Volume4D(image), label=label), path)


class Workload:
    """Base: subclasses make inputs in ``setup`` and run one round in ``round``."""

    name = ""

    def __init__(self, size, seed):
        self.size = size
        self.seed = seed
        self.rounds = []  # (outputs of a round, whether its operations succeeded)

    def setup(self, root):
        raise NotImplementedError

    def round(self, ops, root, index):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError


NOTHING_CHECKED = "no round in which every operation succeeded: no output was checked"


class Train(Workload):
    """``bitrunet train`` on cached cases; a sample is one iteration."""

    name = "train-32"

    def setup(self, root):
        rng = np.random.default_rng(self.seed)
        size = self.size
        data = root / "cases"
        data.mkdir()
        for i in range(size.train_cases):
            image, label = synth.mri_case(rng, size.edge, size.radii)
            _cache(image, label, f"case{i}", data / f"case{i}.btrc")
        cfg = dict(size.model, in_channels=4, num_classes=4, crop_size=size.edge,
                   iters=size.iters, seed=self.seed, augment=1)
        config = root / "train.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
        self.data, self.config = data, config

    def round(self, ops, root, index):
        out = root / f"run{index}"
        stamps = []
        adam_step = training.adam_step

        def timed_adam_step(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        # the end of each Adam step closes an iteration; the first iteration
        # is warm-up, so the samples are the gaps between consecutive ends
        training.adam_step = timed_adam_step
        try:
            ok = ops("train", "--data", self.data, "--out", out, "--config", self.config)
        finally:
            training.adam_step = adam_step
        self.rounds.append((out, ok))
        if not ok:
            return Round()
        return Round(samples=np.diff(stamps).tolist(), units=self.size.iters)

    def check(self):
        done = [out for out, ok in self.rounds if ok]
        if not done:
            return [NOTHING_CHECKED]
        problems = []
        for out in done:
            problems += checks.check_loss_log(out / "loss_log.tsv", self.size.iters)
        initial = load_checkpoint(done[0] / "checkpoint_000000.ckpt")
        final = load_checkpoint(done[0] / "checkpoint_final.ckpt")
        return problems + checks.check_trained(initial, final)


class Segment(Workload):
    """Per case: ``predict --tta --dump-probs`` with each of two checkpoints,
    then ``ensemble`` over the two dumps. A round is one case and the same
    case flipped on seeded axes; a sample is one case."""

    name = "segment-32"

    def setup(self, root):
        rng = np.random.default_rng(self.seed)
        cfg = _model_config(self.size)
        self.models = []
        for i in range(2):
            model = BiTrUnetModel(cfg, seed=int(rng.integers(2**31)), dtype=np.float32)
            path = root / f"model{i}.ckpt"
            save_checkpoint(model, path)
            self.models.append(path)
        image, label = synth.mri_case(rng, self.size.edge, self.size.radii)
        axes = [ax for ax in range(3) if rng.random() < 0.5] or [int(rng.integers(3))]
        self.flip_axes = tuple(axes)
        flipped = np.flip(image, [ax + 1 for ax in axes]).copy()
        self.cases = {"case": root / "case.btrc", "flipped": root / "flipped.btrc"}
        _cache(image, label, "case", self.cases["case"])
        _cache(flipped, np.flip(label, axes).copy(), "flipped", self.cases["flipped"])

    def round(self, ops, root, index):
        result = Round()
        oks = []
        for case, path in self.cases.items():
            out = root / f"round{index}" / case
            out.mkdir(parents=True)
            start = time.perf_counter()
            ok = True
            for m, model in enumerate(self.models):
                ok &= ops("predict", "--models", model, "--input", path,
                          "--out", out / f"model{m}.nii.gz", "--tta",
                          "--dump-probs", out / f"model{m}.f32")
            ok &= ops("ensemble", "--probs", out / "model0.f32", out / "model1.f32",
                      "--out", out / "voted.nii.gz")
            elapsed = time.perf_counter() - start
            oks.append(ok)
            if ok:
                result.samples.append(elapsed)
                result.units += 1
        self.rounds.append((root / f"round{index}", oks))
        return result

    def check(self):
        done = [out for out, oks in self.rounds if all(oks)]
        if not done:
            return [NOTHING_CHECKED]
        out = done[0]
        problems = []
        voted = {}
        for case in self.cases:
            dumps = []
            for m in range(len(self.models)):
                dump = checks.read_probs(out / case / f"model{m}.f32")
                problems += checks.check_probs(dump, f"{case} model{m} dump")
                dumps.append(dump)
                mask = checks.read_mask(out / case / f"model{m}.nii.gz")
                problems += checks.check_labels(mask, f"{case} model{m} mask")
            voted[case] = checks.read_mask(out / case / "voted.nii.gz")
            problems += checks.check_labels(voted[case], f"{case} voted mask")
            if case == "case":
                want = checks.expected_ensemble(dumps, DEFAULT_ET_THRESHOLD, reference)
                problems += checks.check_equal(voted[case], want, "voted mask vs oracles")
        problems += checks.check_equal(
            voted["flipped"], np.flip(voted["case"], self.flip_axes),
            f"mask of the case flipped on axes {self.flip_axes}",
        )
        return problems


class Evaluate(Workload):
    """``bitrunet evaluate`` over a directory of three gzip NIfTI case pairs:
    a pure shift, a shift with resized shells, and a pure shift whose
    prediction has no enhancing tumor. A round is ``PASSES`` calls; a
    sample is one call's time per case pair."""

    name = "evaluate-brats"
    # one call takes about 19 s at the full size; two give a run two samples
    # spread over about 38 s, since the machine's speed drifts within a minute
    PASSES = 2

    def setup(self, root):
        rng = np.random.default_rng(self.seed)
        size = self.size
        self.cases = {}
        for case in ("shift", "resized", "no-et"):
            shells = synth.draw_shells(rng, size.volume, size.volume_radii,
                                       size.volume_jitter)
            axis = int(rng.integers(3))
            k = int(rng.integers(1, 4))
            centre = list(shells.centre)
            centre[axis] += k
            radii = shells.radii
            if case == "resized":
                radii = tuple(r + int(rng.integers(-2, 3)) for r in radii)
            truth = synth.shell_mask(size.volume, shells)
            pred = synth.shell_mask(size.volume, synth.Shells(tuple(centre), radii))
            if case == "no-et":
                pred[pred == 4] = 1
            shift = None if case == "resized" else k
            self.cases[case] = (pred, truth, shift)
            for kind, mask in (("pred", pred), ("truth", truth)):
                (root / kind).mkdir(exist_ok=True)
                write_nifti(root / kind / f"{case}.nii.gz", mask)
        self.root = root

    def round(self, ops, root, index):
        result = Round()
        reports = []  # one per call, or None where the call failed
        for n in range(self.PASSES):
            report = root / f"report{index}-{n}.tsv"
            start = time.perf_counter()
            ok = ops("evaluate", "--pred", self.root / "pred", "--truth", self.root / "truth",
                     "--out", report)
            elapsed = time.perf_counter() - start
            reports.append(report if ok else None)
            if ok:
                result.samples.append(elapsed / len(self.cases))
                result.units += len(self.cases)
        self.rounds.append(reports)
        return result

    def check(self):
        done = [reports for reports in self.rounds if all(reports)]
        if not done:
            return [NOTHING_CHECKED]
        first, *others = done[0]
        problems = checks.check_report(
            checks.read_report(first), self.cases, HD95_EMPTY_SENTINEL
        )
        problems += [f"{report}: differs from {first}, a call on the same case pairs"
                     for report in others if report.read_bytes() != first.read_bytes()]
        return problems


WORKLOADS = {w.name: w for w in (Train, Segment, Evaluate)}
