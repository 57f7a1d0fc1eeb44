"""Run the benchmark over seeds 1-10 and report each metric's spread.

    python3 perfbench/spread.py [--write perfbench/reference.json]

For each workload of BENCHMARK.json and each end-to-end metric this prints
the median of the ten per-seed values and the distance between their first
and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound. It
then makes one traced run per workload with seed 1. ``--write`` stores all
of it, with the environment of the runs, as the reference figures that
README.md cites.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--write", type=Path, help="store the figures in this file")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    reference = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in names:
        runs = []
        for seed in SEEDS:
            r = run(name, seed, seconds, 0)
            runs.append(r)
            print(f"{name} seed {seed}: wall {r['wall_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        summary = {"failed_share": [r["failed"] / r["attempted"] for r in runs],
                   "wall_s": [r["wall_s"] for r in runs], "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            summary["end_to_end"][m["name"]] = {
                "median": statistics.median(values), "spread": s,
                "bound": m["bound"], "unit": m["unit"], "values": values,
            }
            print(f"  {name} {m['name']}: median {statistics.median(values):.4g} "
                  f"{m['unit']}, spread {s:.3f} (bound {m['bound']})", flush=True)
        r = run(name, TRACE_SEED, seconds, 1)
        summary["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
        reference["workloads"][name] = summary
    if args.write:
        env = json.loads((ROOT / ".perfbench" / f"run-{names[-1]}-seed{SEEDS[-1]}"
                          "-trace0.json").read_text())["environment"]
        reference["environment"] = env
        args.write.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
