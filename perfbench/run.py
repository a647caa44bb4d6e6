"""Run one hardneg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and from nowhere else. With --trace 0 the result carries
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, and the spans are written to perfbench/out/. The last stdout line
is the JSON result; the lines before it give the environment, the sample
counts and each metric with its unit. Exit status: 0 when every output was
correct, 1 on a correctness violation, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One process, one thread: BLAS may use at most this many, and never more than nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
# Imports cannot be repeated in one interpreter, so set-up times them in fresh ones.
IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import hardneg; print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_seconds() -> list:
    """Library import time in IMPORT_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(BLAS_THREADS, nproc)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hardneg
        import numpy
        from harness import median, result_line
        from workloads import WORKLOADS, Session
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(hardneg.__file__).resolve().parents:
        print(f"perfbench: hardneg was imported from {hardneg.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]

    session = Session(workload, args.seed, bool(args.trace))
    session.install()
    try:
        imported = time.perf_counter()
        session.setup()
        imports_s = import_seconds()
        setup_s = median(imports_s) + median(session.setup_repeats_s)
        session.measure(args.seconds)
        if args.trace:
            metrics = session.per_layer()
            metrics["trace.overhead_frac"] = session.overhead_replay()
        else:
            metrics = session.end_to_end(setup_s)
    finally:
        session.uninstall()

    if set(metrics) != set(units):
        print(f"perfbench: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        session.tracer.write_jsonl(out / f"trace-{workload.name}-seed{args.seed}.jsonl")
    environment = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": blas_threads, "shape": workload.shape(),
        "import_s": imported - PROCESS_START, "fresh_imports_s": imports_s,
        "setup_repeats_s": session.setup_repeats_s,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({"samples": session.samples()}))
    for problem in session.tally.raised + session.tally.violations:
        print(f"failed: {problem}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:42s} {metrics[name]:>16.6g} {units[name]}")
    print(result_line(session.tally, metrics, units))
    return 0 if session.tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
