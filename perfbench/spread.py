"""Run one workload on several seeds and print each metric's run-to-run spread.

    python3 perfbench/spread.py --workload desk_train --seeds 1-10 [--trace 0]

For every metric: the median of the runs, the interquartile distance as a
share of the median (statistics.quantiles, n=4), and for end-to-end metrics
the bound from BENCHMARK.json. Runs are sequential; the run length is the
benchmark's own run_seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import median, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    status = 0
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            if not done.stdout.strip():
                continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, runs in values.items():
        spread = relative_spread(runs) if median(runs) else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "within a third of bound" if spread < bound / 3 else
            "within bound" if spread <= bound else "OUTSIDE BOUND")
        print(f"{name:40s} median {median(runs):14.6g} spread {spread:7.4f} "
              f"bound {bound} {verdict}")
        print(f"{'':40s} runs " + " ".join(f"{v:.4g}" for v in runs))
    return status


if __name__ == "__main__":
    sys.exit(main())
