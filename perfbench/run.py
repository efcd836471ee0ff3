"""Benchmark for vbnn: fit, predict and diagnose, end to end and by layer.

    python3 perfbench/run.py --workload fit-n800 --seed 0 --seconds 10 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` (or with ``--workload all``) every workload runs in a fresh
child process and a combined table is printed.  ``--smoke`` runs every
workload at tiny sizes, traced and untraced, and checks each result's
schema and metric names against BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fit-n800", "fit-n3200-t2", "predict-diagnose-20k")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def host_info() -> dict:
    """The machine and software a result was measured on."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        size = _read(f"{base}/index{index}/size")
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip() + " per core"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
    }


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args) -> int:
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.smoke:
        spec = workloads.smoke_spec(spec)
    work = ROOT / ".perfbench-work" / f"{spec.name}-{args.seed}-{os.getpid()}"
    result = workloads.run(spec, args.seed, args.seconds, bool(args.trace), work, args.smoke)

    checks = result["checks"]
    print("host " + json.dumps(host_info()))
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for note in result["notes"]:
        print("  " + note)
    for failure in checks.failures:
        print("  FAILED " + failure)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44} {len(checks.failures) / checks.attempted:>16.6g} ratio "
          f"({len(checks.failures)} failed of {checks.attempted} checks)")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(_result_line(not checks.failures, checks.attempted, len(checks.failures), metrics))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict | None:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"workload {workload} exited with code {proc.returncode}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def schema_problems(result: dict | None, expected: dict) -> list[str]:
    """Ways a result line breaks the contract for the metrics ``expected``."""
    if result is None:
        return ["no result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, doc in metrics.items():
        value = doc.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and doc.get("unit") != expected[name]:
            problems.append(f"{name}: unit {doc.get('unit')!r}, expected {expected[name]!r}")
    return problems


def run_all(args) -> int:
    traces = (0, 1) if args.smoke else (args.trace,)
    if args.smoke:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                    for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    attempted = failed = 0
    metrics, problems = {}, []
    for workload in WORKLOAD_NAMES:
        for trace in traces:
            seconds = 1 if args.smoke else args.seconds
            result = _child(workload, args.seed, seconds, trace, args.smoke)
            if args.smoke:
                problems += [f"{workload} trace {trace}: {p}"
                             for p in schema_problems(result, expected[trace])]
            if result is None:
                failed += 1
                attempted += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, doc in result["metrics"].items():
                metrics[f"{workload}.{name}"] = doc
    print("summary")
    for name, doc in metrics.items():
        print(f"  {name:<60} {doc['value']:>16.6g} {doc['unit']}")
    for problem in problems:
        print("  SCHEMA " + problem)
    if args.smoke:
        print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10,
                        help="minimum measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; with all workloads, also check the result schema")
    args = parser.parse_args(argv)

    # Before numpy is imported anywhere: BLAS/OpenMP pools stay single
    # threaded, so threads=1 really is one thread and threads=2 is the
    # program's own pool.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "vbnn" / "__init__.py").is_file():
        print(f"error: no vbnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
