"""Benchmark of the bitrunet program, end to end and per layer.

    python3 perfbench/run.py --workload train-32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. One run sets up its workload's inputs from ``--seed``, runs
whole rounds of operations for ``--seconds`` seconds, checks the outputs
and prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics, measured on traced rounds that alternate with untraced ones.
``--workload all`` runs every workload, each in a process of its own.
"""

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: every workload at a few seconds' size, for tests")
    return p.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec


class Ops:
    """Runs one CLI operation in-process and counts attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, *argv):
        argv = [str(a) for a in argv]
        self.attempted += 1
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            try:
                code = self.cli(argv)
            except Exception:  # an uncaught error is a failed operation
                traceback.print_exc()
                code = None
        if code != 0:
            self.failed += 1
            self.errors.append(f"bitrunet {' '.join(argv)} -> {code}\n{log.getvalue()}")
        return code == 0


def blas_threads():
    """Thread count of each loaded OpenBLAS library, by path."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    from bitrunet.backend import ACTIVE_BACKEND

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": ACTIVE_BACKEND,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def run_workload(args, spec):
    src = ROOT / "src"
    if not (src / "bitrunet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'bitrunet'}")
    sys.path.insert(0, str(src))
    import bitrunet.cli

    if Path(bitrunet.__file__).resolve().parent != src / "bitrunet":
        sys.exit(f"perfbench: imported {bitrunet.__file__}, not the checkout's program")

    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, spec, workload, work, bitrunet.cli.cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_seconds():
    """Time to import the program's CLI in a fresh interpreter, numpy loaded."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


_IMPORT_PROBE = (
    "import time, numpy; start = time.perf_counter(); import bitrunet.cli; "
    "print(time.perf_counter() - start)"
)


def measure(args, spec, workload, work, cli):
    # one set-up is an import of the program plus making and writing the inputs
    setup_times = []
    for i in range(SETUP_REPEATS):
        root = work / f"setup{i}"
        root.mkdir()
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup(root)
        setup_times.append(imported + time.perf_counter() - start)
    ops = Ops(cli)
    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # samples of untraced and traced rounds
    units = 0
    index = rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        plain += workload.round(ops, root, index).samples
        index += 1
        if tracer is not None:
            tracer.install()
            try:
                result = workload.round(ops, root, index)
            finally:
                tracer.uninstall()
            traced += result.samples
            units += result.units
            index += 1
        # start another round only if it should end within the run's time
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not plain:
        sys.exit("perfbench: no operation succeeded:\n" + "\n".join(ops.errors))
    problems = workload.check()

    if tracer is None:
        values = {
            "item_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        values = layer_values(tracer, units, plain, traced)
        wanted = spec["per_layer"]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    # a layer the tracer did not find (renamed, merged, removed) has no figure;
    # reading it as 0 would look like a gain
    problems += [f"no figure for {m['name']}: the program has no such layer"
                 for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "setup_times": setup_times, "samples": plain, "traced_samples": traced,
        "problems": problems, "failed_operations": ops.errors, "values": values,
    }
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in problems + ops.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({"correct": not problems, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 1 if problems else 0


def layer_values(tracer, units, plain, traced):
    """Every layer's figures, each per unit of work of the traced rounds."""
    values = {}
    for name, row in tracer.summary().items():
        for quantity, total in row.items():
            values[f"{name}.{quantity}"] = total / units if units else 0.0
    if plain and traced:
        overhead = statistics.median(traced) - statistics.median(plain)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    return values


def run_all(args, spec):
    """Each workload in a process of its own, one after another."""
    results = {}
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            status = 1
            sys.stderr.write(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
        if result is None:
            continue
        results[w["name"]] = result
        print(f"{w['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {names} or all")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
