"""Each correctness check passes the right output and rejects a wrong one."""

import numpy as np
import pytest

import checks
import synth
import workloads
from bitrunet import reference
from bitrunet.metrics import HD95_EMPTY_SENTINEL, evaluate_case, format_report


def write_log(path, totals):
    with open(path, "w") as fh:
        for i, t in enumerate(totals):
            fh.write(f"{i}\t0.0002\t{t}\t{t / 2}\t{t / 2}\n")


def test_loss_log_accepts_a_falling_loss(tmp_path):
    write_log(tmp_path / "log", [2.4, 2.3, 2.2, 2.1])
    assert checks.check_loss_log(tmp_path / "log", 4) == []


@pytest.mark.parametrize("totals", [[2.0, 2.0, 2.0, 2.0], [2.1, 2.2, 2.3, 2.4],
                                    [2.4, 2.3, float("nan"), 2.1]])
def test_loss_log_rejects_a_loss_that_does_not_fall_or_is_not_finite(tmp_path, totals):
    write_log(tmp_path / "log", totals)
    assert checks.check_loss_log(tmp_path / "log", 4)


def test_loss_log_rejects_missing_rows_and_columns(tmp_path):
    write_log(tmp_path / "log", [2.4, 2.3, 2.2])
    assert checks.check_loss_log(tmp_path / "log", 4)
    (tmp_path / "cols").write_text("0\t1\t2\t3\n" * 4)
    assert checks.check_loss_log(tmp_path / "cols", 4)


def softmax_probs(rng, shape=(4, 6, 5, 4)):
    e = np.exp(rng.normal(0.0, 2.0, shape))
    return (e / e.sum(axis=0)).astype(np.float32)


def test_probs_check_rejects_maps_that_do_not_sum_to_one():
    probs = softmax_probs(np.random.default_rng(0))
    assert checks.check_probs(probs, "p") == []
    assert checks.check_probs(probs * np.float32(1.001), "p")
    wrong = probs.copy()
    wrong[1, 0, 0, 0] += 1e-4
    assert checks.check_probs(wrong, "p")


def test_probs_check_rejects_negative_values():
    probs = softmax_probs(np.random.default_rng(1))
    probs[0, 1, 1, 1] = -probs[0, 1, 1, 1]
    probs[1, 1, 1, 1] += 2 * abs(probs[0, 1, 1, 1])
    assert checks.check_probs(probs, "p")


def test_labels_check():
    assert checks.check_labels(np.array([0, 1, 2, 4], np.uint8), "m") == []
    assert checks.check_labels(np.array([0, 3], np.uint8), "m")


def test_ensemble_oracle_rejects_a_mask_flipped_on_one_axis():
    rng = np.random.default_rng(2)
    dumps = [softmax_probs(rng, (4, 7, 6, 5)) for _ in range(2)]
    want = checks.expected_ensemble(dumps, 3, reference)
    assert checks.check_equal(want.copy(), want, "voted") == []
    assert not np.array_equal(np.flip(want, 0), want)
    assert checks.check_equal(np.flip(want, 0), want, "voted")


def test_flipped_case_check_rejects_a_flip_on_the_wrong_axis():
    rng = np.random.default_rng(3)
    mask = checks.EXTERNAL[rng.integers(0, 4, (6, 7, 8))]
    flipped = np.flip(mask, (0, 2))
    assert checks.check_equal(flipped, np.flip(mask, (0, 2)), "flip") == []
    assert checks.check_equal(np.flip(mask, 0), np.flip(mask, (0, 2)), "flip")


def shell_pair(shift, et_empty=False):
    shape = (40, 36, 30)
    truth = synth.shell_mask(shape, synth.Shells((20, 18, 15), (10, 6, 3)))
    pred = synth.shell_mask(shape, synth.Shells((20 + shift, 18, 15), (10, 6, 3)))
    if et_empty:
        pred[pred == 4] = 1
    return pred, truth


@pytest.fixture
def report_of(tmp_path):
    def make(pred, truth):
        path = tmp_path / "report.tsv"
        path.write_text(format_report({"c": evaluate_case(pred, truth)}))
        return checks.read_report(path)
    return make


def test_report_of_the_program_passes(report_of):
    pred, truth = shell_pair(2)
    report = report_of(pred, truth)
    assert checks.check_report(report, {"c": (pred, truth, 2)}, HD95_EMPTY_SENTINEL) == []


@pytest.mark.parametrize("column,delta", [(1, 1.0), (1, -1.0), (0, 0.01)])
def test_report_rejects_hd95_off_by_one_voxel_and_a_wrong_dice(report_of, column, delta):
    pred, truth = shell_pair(0)
    pred = synth.shell_mask(pred.shape, synth.Shells((20, 18, 15), (11, 6, 3)))
    report = report_of(pred, truth)
    row = list(report["c"]["WT"])
    row[column] += delta
    report["c"]["WT"] = tuple(row)
    assert checks.check_report(report, {"c": (pred, truth, None)}, HD95_EMPTY_SENTINEL)


def test_report_rejects_hd95_above_a_pure_shift(report_of):
    pred, truth = shell_pair(1)
    report = report_of(pred, truth)
    assert checks.check_report(report, {"c": (pred, truth, 1)}, HD95_EMPTY_SENTINEL) == []
    # the same numbers claimed for a case that was not shifted at all
    assert checks.check_report(report, {"c": (pred, truth, 0)}, HD95_EMPTY_SENTINEL)


def test_report_expects_the_sentinel_when_et_is_empty(report_of):
    pred, truth = shell_pair(1, et_empty=True)
    report = report_of(pred, truth)
    assert report["c"]["ET"][1] == pytest.approx(HD95_EMPTY_SENTINEL)
    assert checks.check_report(report, {"c": (pred, truth, 1)}, HD95_EMPTY_SENTINEL) == []
    report["c"]["ET"] = (report["c"]["ET"][0], 0.0)
    assert checks.check_report(report, {"c": (pred, truth, 1)}, HD95_EMPTY_SENTINEL)


def test_kd_tree_hd95_matches_the_all_pairs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.random((7, 6, 5)) < 0.3
        b = rng.random((7, 6, 5)) < 0.3
        assert checks.expected_hd95(a, b) == pytest.approx(
            reference.brute_force_hd95(a, b), abs=1e-12)


def test_read_mask_reads_what_the_program_writes(tmp_path):
    from bitrunet.nifti import write_nifti

    mask = checks.EXTERNAL[np.random.default_rng(5).integers(0, 4, (5, 6, 7))]
    for name in ("m.nii", "m.nii.gz"):
        write_nifti(tmp_path / name, mask)
        assert np.array_equal(checks.read_mask(tmp_path / name), mask)


@pytest.mark.parametrize("name,rounds", [
    ("train-32", [("run0", False)]),
    ("segment-32", [("round0", [True, False])]),
    ("evaluate-brats", [["report0-0.tsv", None]]),
])
def test_a_run_without_a_complete_round_is_not_correct(name, rounds):
    workload = workloads.WORKLOADS[name](workloads.TOY, 1)
    workload.rounds = rounds
    assert workload.check() == [workloads.NOTHING_CHECKED]


def test_evaluate_rejects_a_second_call_that_differs_from_the_first(tmp_path):
    workload = workloads.Evaluate(workloads.TOY, 1)
    workload.setup(tmp_path)
    results = {case: evaluate_case(pred, truth)
               for case, (pred, truth, _) in workload.cases.items()}
    reports = [tmp_path / f"report{n}.tsv" for n in range(workload.PASSES)]
    for report in reports:
        report.write_text(format_report(results))
    workload.rounds = [reports]
    assert workload.check() == []
    reports[-1].write_text(reports[-1].read_text().replace("WT", "TC", 1))
    assert workload.check()
