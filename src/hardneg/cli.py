"""Command-line entry points.

Subcommands: solve (one instance, closed form), oracle (grid search, or a
randomized solver-vs-oracle sweep), experiment (paired desk-scale training
runs), and cases (static SVG of the candidate landscape). All output is
JSON on stdout, CSV for tabular histories, SVG for figures. Exit codes:
0 success, 1 runtime failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .arc_solver import ArcProblem, optimal_arc_distance
from .batch_engine import VARIANTS
from .errors import (
    ConfigError,
    DegenerateArc,
    DegenerateSegment,
    DimensionMismatch,
    HardNegError,
    InvalidBatchShape,
    NearZeroVector,
    NonFiniteInput,
    OddClassCount,
    ParseError,
)
from .losses import LossConfig
from .gradients import LOSS_REGISTRY
from .oracle import check_resolution, grid_min_arc, grid_min_segment
from .segment_solver import SegmentProblem, optimal_segment_distance
from .trainer import SyntheticSpec, evaluate, train
from .vectorized import arc_candidate_table, objective

INPUT_ERRORS = (
    ParseError,
    ConfigError,
    DegenerateArc,
    DegenerateSegment,
    DimensionMismatch,
    NearZeroVector,
    NonFiniteInput,
    InvalidBatchShape,
    OddClassCount,
)

SWEEP_DIMS = (3, 8, 64, 512)

# Bounds on an experiment config. A step holds (B, B) matrices and, for the
# loop_ losses, a solver row for each of about B^2 / 8 combinations, so more
# than 4,096 samples or dimensions is far beyond desk scale; a million
# full-batch steps take hours even at the desk shape. Beyond these, a run
# failed an allocation, or ran without end, after writing its manifest.
MAX_BATCH_SIZE = 4096
MAX_DIMENSION = 4096
MAX_STEPS = 10**6
# A rate this large already replaces each row by its normalized gradient;
# near 1e150 the squared row norms overflow and the step reads as diverged.
MAX_LEARNING_RATE = 1e6
SPEC_INTEGERS = ("num_classes", "samples_per_class", "dimension", "seed")


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to any file outputs."""

    command: str
    config_path: str
    out_dir: str
    seed: int | None
    timestamp: str
    version: str = __version__


def _write_manifest(command, config_path, out_dir, seed):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=command,
        config_path=str(config_path),
        out_dir=str(out),
        seed=seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    _emit(asdict(manifest), out / "manifest.json")
    return out


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _load_instance(path):
    payload = _read_json(path)
    try:
        points = tuple(
            np.asarray(payload[key], dtype=float) for key in ("x1", "x2", "y1", "y2")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"instance must hold numeric x1, x2, y1, y2: {exc}") from exc
    if not all(np.all(np.isfinite(p)) for p in points):
        raise ParseError(f"instance {path} holds a non-finite coordinate")
    variant = payload.get("variant", "arc")
    if variant not in VARIANTS:
        raise ParseError(f"unknown variant {variant!r} in {path}; available: {list(VARIANTS)}")
    return points, variant


def _emit(payload, path=None) -> None:
    """Write payload as indented JSON and a newline, to the file at path or to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _variant_problem(points, variant):
    """An instance's problem with its variant's closed-form solver and grid oracle."""
    if variant == "segment":
        return SegmentProblem.from_endpoints(*points), optimal_segment_distance, grid_min_segment
    return ArcProblem.from_endpoints(*points), optimal_arc_distance, grid_min_arc


def _solve_payload(points, variant):
    problem, solve, _ = _variant_problem(points, variant)
    sol = solve(problem)
    if variant == "segment":
        return {
            "variant": "segment",
            "case_id": int(sol.case_id),
            "k1": float(sol.k1),
            "k2": float(sol.k2),
            "p1": sol.p1.tolist(),
            "p2": sol.p2.tolist(),
            "distance": float(sol.distance),
        }
    return {
        "variant": "arc",
        "case_id": int(sol.candidate.case_id),
        "alpha": float(sol.candidate.alpha),
        "beta": float(sol.candidate.beta),
        "p1": sol.p1.tolist(),
        "p2": sol.p2.tolist(),
        "distance": float(sol.distance),
    }


def cmd_solve(args) -> int:
    points, instance_variant = _load_instance(args.instance)
    variant = args.variant or instance_variant
    payload = _solve_payload(points, variant)
    _emit(payload)
    if args.out_dir:
        out = _write_manifest("solve", args.instance, args.out_dir, args.seed)
        _emit(payload, out / "solution.json")
    return 0


def _oracle_payload(points, variant, resolution):
    problem, _, grid = _variant_problem(points, variant)
    result = grid(problem, resolution)
    return {
        "best_params": [float(v) for v in result.best_params],
        "best_distance": float(result.best_distance),
        "resolution": float(result.resolution),
        "evaluations": int(result.evaluations),
    }


def _random_instance(rng, dim, variant):
    points = rng.normal(size=(4, dim))
    if variant == "arc":
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    return tuple(points)


def _run_sweep(args) -> int:
    out = _write_manifest("oracle-sweep", args.instance or "", args.out_dir, args.seed)
    rng = np.random.default_rng(args.seed)
    variant = args.variant or "arc"
    rows = []
    for idx in range(args.sweep):
        dim = SWEEP_DIMS[idx % len(SWEEP_DIMS)]
        problem, solve, grid = _variant_problem(_random_instance(rng, dim, variant), variant)
        solver_d = solve(problem).distance
        oracle_d = grid(problem, args.resolution).best_distance
        scale = (float(np.linalg.norm(problem.u) + np.linalg.norm(problem.v))
                 if variant == "segment" else 1.0)
        rows.append((idx, dim, solver_d, oracle_d, oracle_d - solver_d, scale))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "dim", "solver", "oracle", "gap", "scale"])
        writer.writerows(rows)
    gaps = [r[4] for r in rows]
    summary = {
        "instances": len(rows),
        "variant": variant,
        "resolution": args.resolution,
        "max_gap": max(gaps),
        "mean_gap": float(np.mean(gaps)),
        "solver_above_oracle": int(sum(1 for g in gaps if g < -1e-9)),
        "gap_above_tolerance": int(
            sum(1 for r in rows if r[4] > 2e-3 * r[5])
        ),
    }
    _emit(summary, out / "sweep_summary.json")
    _emit(summary)
    return 0


def cmd_oracle(args) -> int:
    if args.sweep:
        return _run_sweep(args)
    if not args.instance:
        raise ParseError("oracle needs an instance file or --sweep N")
    points, instance_variant = _load_instance(args.instance)
    variant = args.variant or instance_variant
    payload = _oracle_payload(points, variant, args.resolution)
    _emit(payload)
    if args.out_dir:
        out = _write_manifest("oracle", args.instance, args.out_dir, args.seed)
        _emit(payload, out / "oracle.json")
    return 0


def _config_int(value, name):
    """An integer config value; non-numbers, bools and fractional floats are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _load_experiment_config(path):
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"experiment config must be a JSON object, got {type(payload).__name__}")
    spec_fields = payload.get("spec", {})
    if not isinstance(spec_fields, dict):
        raise ConfigError(f"spec must be a JSON object, got {spec_fields!r}")
    spec_fields = {key: _config_int(value, f"spec.{key}") if key in SPEC_INTEGERS else value
                   for key, value in spec_fields.items()}
    try:
        spec = SyntheticSpec(**spec_fields)
        if spec.num_classes < 2:
            raise ValueError(f"spec needs at least 2 classes, got {spec.num_classes}")
        losses = payload["losses"]
        config = LossConfig(**payload.get("loss_config", {}))
        steps = _config_int(payload.get("steps", 100), "steps")
        lr = float(payload.get("learning_rate", 0.05))
        seeds = payload.get("seeds", [0])
        variant = payload.get("variant", "arc")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    if not (isinstance(losses, list) and losses and all(isinstance(n, str) for n in losses)):
        raise ConfigError(f"losses must be a non-empty list of loss names, got {losses!r}")
    if not (isinstance(seeds, list) and seeds):
        raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
    seeds = [_config_int(s, "seed") for s in seeds]
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {seeds}")
    unknown = [name for name in losses if name not in LOSS_REGISTRY]
    if unknown:
        raise ConfigError(f"unknown losses {unknown}; available: {sorted(LOSS_REGISTRY)}")
    if spec.seed < 0:
        raise ConfigError(f"spec.seed must be nonnegative, got {spec.seed}")
    if spec.num_classes * spec.samples_per_class > MAX_BATCH_SIZE:
        raise ConfigError(f"spec holds {spec.num_classes * spec.samples_per_class} samples; "
                          f"at most {MAX_BATCH_SIZE} are supported")
    if spec.dimension > MAX_DIMENSION:
        raise ConfigError(f"spec.dimension must be at most {MAX_DIMENSION}, got {spec.dimension}")
    if not 0 <= steps <= MAX_STEPS:
        raise ConfigError(f"steps must lie in [0, {MAX_STEPS}], got {steps}")
    if not (math.isfinite(lr) and 0.0 < lr <= MAX_LEARNING_RATE):
        raise ConfigError(f"learning_rate must lie in (0, {MAX_LEARNING_RATE:g}], got {lr}")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; available: {list(VARIANTS)}")
    return spec, losses, config, steps, lr, seeds, variant


def cmd_experiment(args) -> int:
    spec, losses, config, steps, lr, seeds, variant = _load_experiment_config(args.config)
    out = _write_manifest("experiment", args.config, args.out_dir, seeds[0])
    summary = {"spec": asdict(spec), "steps": steps, "learning_rate": lr, "runs": []}
    finals: dict = {name: [] for name in losses}
    for name in losses:
        for seed in seeds:
            start = time.perf_counter()
            state = train(spec, name, config, steps, learning_rate=lr,
                          seed=seed, variant=variant)
            train_s = time.perf_counter() - start
            history_path = out / f"history_{name}_seed{seed}.csv"
            with open(history_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "loss", "recall_at_1"])
                writer.writerows(state.history)
            start = time.perf_counter()
            report = evaluate(state.embeddings)
            evaluate_s = time.perf_counter() - start
            final_recall = state.history[-1][2]
            finals[name].append(final_recall)
            summary["runs"].append(
                {
                    "loss": name,
                    "seed": seed,
                    "final_loss": state.history[-1][1],
                    "final_recall_at_1": final_recall,
                    "recall_at_k": {str(k): v for k, v in report.recall_at_k.items()},
                    "nmi": report.nmi,
                    "f1": report.f1,
                    "history_csv": history_path.name,
                    "train_s": train_s,
                    "evaluate_s": evaluate_s,
                }
            )
    summary["median_final_recall_at_1"] = {
        name: statistics.median(vals) for name, vals in finals.items()
    }
    _emit(summary, out / "summary.json")
    _emit(summary)
    return 0


# Cells per side of the objective heat map in the cases figure.
_SVG_GRID = 80


def _svg_color(value: float) -> str:
    """Map a normalized objective value in [0, 1] to a blue-to-white ramp."""
    level = int(round(255 * min(max(value, 0.0), 1.0)))
    return f"rgb({level},{level},255)"


def render_cases_svg(problem: ArcProblem) -> str:
    """SVG of the objective over the feasible box with all case candidates.

    Feasible candidates are filled, infeasible outlined, the winner ringed;
    candidates a collapsed arc rules out are not drawn. Degenerate boxes
    (collapsed arcs) get a hairline extent so the figure stays well formed.
    """
    winner = optimal_arc_distance(problem)
    cases, alphas, betas, f_values, ok, allowed = arc_candidate_table(
        *(p[None] for p in (problem.x1, problem.x2, problem.y1, problem.y2))
    )
    a0 = max(problem.alpha0, 1e-6)
    b0 = max(problem.beta0, 1e-6)
    size, margin = 420, 45
    cell = size / _SVG_GRID
    al = (np.arange(_SVG_GRID) + 0.5) * a0 / _SVG_GRID
    be = (np.arange(_SVG_GRID) + 0.5) * b0 / _SVG_GRID
    co = problem.coeffs
    values = objective(co.a, co.b, co.c, co.d, np.sin(al)[:, None], np.cos(al)[:, None],
                       np.sin(be), np.cos(be))
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0

    def sx(alpha):
        return margin + (alpha / a0) * size

    def sy(beta):
        return margin + size - (beta / b0) * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 2 * margin}" '
        f'height="{size + 2 * margin}" viewBox="0 0 {size + 2 * margin} {size + 2 * margin}">',
        f'<rect x="0" y="0" width="{size + 2 * margin}" height="{size + 2 * margin}" fill="white"/>',
    ]
    for i in range(_SVG_GRID):
        for j in range(_SVG_GRID):
            shade = _svg_color((values[i, j] - lo) / span)
            parts.append(
                f'<rect x="{margin + i * cell:.2f}" y="{margin + size - (j + 1) * cell:.2f}" '
                f'width="{cell + 0.5:.2f}" height="{cell + 0.5:.2f}" fill="{shade}"/>'
            )
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for slot in np.flatnonzero(allowed[:, 0]):
        fill = "#1a6e1a" if ok[slot, 0] else "none"
        parts.append(
            f'<circle cx="{sx(alphas[slot, 0]):.2f}" cy="{sy(betas[slot, 0]):.2f}" r="5" '
            f'fill="{fill}" stroke="#333333" stroke-width="1.5">'
            f"<title>case {cases[slot]}: f={f_values[slot, 0]:.6f}</title></circle>"
        )
    best = winner.candidate
    parts.append(
        f'<circle cx="{sx(best.alpha):.2f}" cy="{sy(best.beta):.2f}" r="9" '
        'fill="none" stroke="#cc2222" stroke-width="2.5"/>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 12}" font-size="13" font-family="monospace">'
        f"winner: case {best.case_id}, distance {winner.distance:.6f}</text>"
    )
    parts.append(
        f'<text x="{margin + size / 2 - 30}" y="{size + 2 * margin - 8}" '
        'font-size="12" font-family="monospace">alpha</text>'
    )
    parts.append(
        f'<text x="8" y="{margin + size / 2}" font-size="12" font-family="monospace">beta</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_cases(args) -> int:
    points, _ = _load_instance(args.instance)
    problem = ArcProblem.from_endpoints(*points)
    svg = render_cases_svg(problem)
    if args.out_dir:
        out = _write_manifest("cases", args.instance, args.out_dir, args.seed)
        path = out / "cases.svg"
        path.write_text(svg)
        _emit({"svg": str(path)})
    else:
        sys.stdout.write(svg + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardneg",
        description="Optimal hard-negative distances between arcs or segments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance in closed form")
    solve.add_argument("instance")
    solve.add_argument("--variant", choices=VARIANTS, default=None)
    solve.add_argument("--out-dir", default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="grid-search an instance or sweep")
    oracle.add_argument("instance", nargs="?", default=None)
    oracle.add_argument("--variant", choices=VARIANTS, default=None)
    oracle.add_argument("--resolution", type=float, default=1e-3)
    oracle.add_argument("--sweep", type=int, default=0, metavar="N")
    oracle.add_argument("--out-dir", default=None)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=cmd_oracle)

    experiment = sub.add_parser("experiment", help="paired desk-scale training")
    experiment.add_argument("config")
    experiment.add_argument("--out-dir", required=True)
    experiment.set_defaults(func=cmd_experiment)

    cases = sub.add_parser("cases", help="SVG of the nine candidate cases")
    cases.add_argument("instance")
    cases.add_argument("--out-dir", default=None)
    cases.add_argument("--seed", type=int, default=0)
    cases.set_defaults(func=cmd_cases)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            _check_oracle_args(args)
        return args.func(args)
    except INPUT_ERRORS as exc:
        _error_payload(exc)
        return 2
    except HardNegError as exc:
        _error_payload(exc)
        return 1


def _check_oracle_args(args) -> None:
    """Reject bad oracle flags before any grid is built or file written."""
    if args.sweep < 0:
        raise ParseError(f"--sweep must be nonnegative, got {args.sweep}")
    if args.sweep and not args.out_dir:
        raise ParseError("--sweep requires --out-dir")
    if args.sweep and args.seed < 0:
        raise ParseError(f"--seed of a sweep must be nonnegative, got {args.seed}")
    try:
        check_resolution(args.resolution)
    except ValueError as exc:
        raise ParseError(f"--resolution: {exc}") from exc


def _error_payload(exc) -> None:
    _emit({"error": type(exc).__name__, "message": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
