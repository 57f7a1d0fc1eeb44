"""The whole benchmark at toy size: every workload, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_all_workloads_run_and_pass_their_checks(trace, kind):
    proc = run("--workload", "all", "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[kind]}
    assert set(result["metrics"]) == names
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    counts = []
    for _ in range(2):
        proc = run("--workload", "segment-32", "--seed", "4", "--seconds", "0.1",
                   "--trace", "1", "--size", "toy")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".gflop", "tape_nodes", "f64_calls"))})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.conv3d_forward.calls"] > 0


def test_fails_on_a_per_layer_metric_whose_layer_is_not_in_the_program(tmp_path):
    spec = json.loads(json.dumps(SPEC))
    renamed = next(m for m in spec["per_layer"] if m["name"] == "model.group_norm.calls")
    renamed["name"] = "model.group_norm_renamed.calls"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "bitrunet", tmp_path / "src" / "bitrunet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "evaluate-brats", "--seed", "1", "--seconds", "0.1",
                           "--trace", "1", "--size", "toy"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert "model.group_norm_renamed.calls" not in result["metrics"]
    assert "no figure for model.group_norm_renamed.calls" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "train-32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
