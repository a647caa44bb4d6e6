"""The hardneg workloads: what one pass runs, how it is timed and checked.

Every workload runs the same pass, with its own shape and mix:

1. train phase: for each loss (and, on desk_train, each loop_ loss on the
   segment variant) one `trainer.train` call followed by `trainer.evaluate`,
   the calls `hardneg experiment` makes. Closed loop: one caller, each call
   waits for the previous one.
2. verify phase: random arc and segment instances (oracle_verify's sweep)
   plus a few rows of each run's first distance table are built, solved by
   the scalar solvers, checked by the grid oracle, then solved again per
   variant and dimension in one stacked call.
3. check phase (untimed, untraced): every output of the pass is checked.

Passes repeat until the requested seconds have elapsed; at least one pass
always runs. Inputs come from the workload seed and the pass index only.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from hardneg import batch_engine, gradients, losses, trainer
from hardneg.arc_solver import ArcProblem, optimal_arc_distance
from hardneg.oracle import grid_min_arc, grid_min_segment
from hardneg.segment_solver import SegmentProblem, optimal_segment_distance
from hardneg.vectorized import solve_arc_stack, solve_segment_stack

from harness import Tally, Tracer, median

LOSSES = (
    "triplet", "loop_triplet", "hphn_triplet", "loop_hphn",
    "lifted_structure", "loop_ls", "ms", "loop_ms",
)
LOOP_LOSSES = tuple(name for name in LOSSES if name.startswith("loop_"))
HINGE_LOSSES = tuple(name for name in LOSSES if name not in ("ms", "loop_ms"))

# Value-only loss functions, and the names gradients.py calls them by.
VALUE_FN = {
    "triplet": losses.triplet, "loop_triplet": losses.loop_triplet,
    "hphn_triplet": losses.hphn_triplet, "loop_hphn": losses.loop_hphn,
    "lifted_structure": losses.lifted_structure, "loop_ls": losses.loop_ls,
    "ms": losses.ms_loss, "loop_ms": losses.loop_ms,
}
GRADIENTS_ALIAS = {
    "triplet": "_triplet_loss", "loop_triplet": "loop_triplet",
    "hphn_triplet": "_hphn_loss", "loop_hphn": "loop_hphn",
    "lifted_structure": "_ls_loss", "loop_ls": "loop_ls",
    "ms": "_ms_loss", "loop_ms": "loop_ms",
}

CONCENTRATION = 2.5
LOSS_CONFIG = losses.LossConfig(margin=0.2)
LEARNING_RATE = 0.05

# Acceptance gates (tests/test_acceptance.py), applied to every instance.
RESOLUTION = 1e-3
ABOVE_ORACLE = 1e-9
MAX_GAP = 2e-3  # scaled by |u| + |v| for segments
STACK_VS_SCALAR = 1e-12
ENVELOPE_SLACK = 1e-12
FD_STEP = 1e-6
FD_RTOL = 1e-3
FD_DIRECTIONS = 3  # a point straddling a kink is redrawn, never waived

SETUP_REPEATS = 5
OVERHEAD_REPLAY_S = 3.0  # replay time per side when measuring tracing overhead
WARMUP_CLASSES, WARMUP_PER_CLASS = 4, 4


@dataclass(frozen=True)
class Workload:
    name: str
    num_classes: int
    samples_per_class: int
    dimension: int
    steps: int  # optimizer steps per train() call
    segment_runs: bool  # also train each loop_ loss on the segment variant
    spot_rows: int  # rows grid-checked from each run's first table
    sweep_dims: tuple = ()
    sweep_per_dim: int = 0  # random instances per dimension and variant

    @property
    def batch_size(self) -> int:
        return self.num_classes * self.samples_per_class

    def plan(self) -> list:
        runs = [(name, "arc") for name in LOSSES]
        if self.segment_runs:
            runs += [(name, "segment") for name in LOOP_LOSSES]
        return runs

    def shape(self) -> dict:
        return {
            "classes": self.num_classes, "samples_per_class": self.samples_per_class,
            "batch": self.batch_size, "dimension": self.dimension,
            "concentration": CONCENTRATION, "margin": LOSS_CONFIG.margin,
            "learning_rate": LEARNING_RATE, "steps_per_run": self.steps,
            "runs_per_pass": len(self.plan()), "spot_rows_per_table": self.spot_rows,
            "sweep_dims": list(self.sweep_dims), "sweep_per_dim": self.sweep_per_dim,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_train", 8, 16, 16, steps=5, segment_runs=True, spot_rows=2),
        # Not the ROADMAP's 128 x 4 at D=256: too few samples, and too noisy (NOTES.md).
        Workload("wide_train", 32, 4, 64, steps=3, segment_runs=False, spot_rows=6),
        Workload("oracle_verify", 4, 4, 8, steps=5, segment_runs=False, spot_rows=1,
                 sweep_dims=(3, 8, 64, 512), sweep_per_dim=4),
    )
}


@dataclass
class TableRecord:
    embeddings: np.ndarray
    labels: np.ndarray
    samples_per_class: int
    combos: np.ndarray
    distances: np.ndarray
    case_id: np.ndarray
    variant: str


@dataclass
class Run:
    """One train + evaluate call pair, with what the check phase needs."""

    loss: str
    variant: str
    train_s: float = 0.0
    evaluate_s: float = 0.0
    steps_done: int = 0
    raised: str | None = None
    grad_raised: int = 0
    first_batch: object = None
    first_grad: np.ndarray | None = None
    tables: list = field(default_factory=list)
    grad_starts: list = field(default_factory=list)  # perf_counter at each loss_and_grad call

    @property
    def step_s(self) -> list:
        """Wall time of each optimizer step: one loss_and_grad start to the next."""
        if self.raised:
            return []
        return list(np.diff(self.grad_starts[:self.steps_done + 1]))


@dataclass
class Instance:
    """Four endpoints checked as one variant; `table` links a spot row to its run."""

    points: np.ndarray
    variant: str
    table: tuple | None = None  # (run, table distance) for spot rows
    spot: bool = False
    distance: float = np.nan
    oracle: float = np.nan
    evaluations: int = 0
    stacked: float = np.nan
    case_id: int = -1
    seconds: float = 0.0  # build + scalar solve + grid oracle

    @property
    def group(self) -> tuple:
        return (self.variant, len(self.points[0]), self.spot)


def _seed(*words) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(w) for w in words]))


def _synthetic_spec(w: Workload, data_seed: int):
    return trainer.SyntheticSpec(
        num_classes=w.num_classes, samples_per_class=w.samples_per_class,
        dimension=w.dimension, concentration=CONCENTRATION, seed=data_seed,
    )


def _unit_rows(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _loss_value(name: str, batch, table) -> losses.LossValue:
    fn = VALUE_FN[name]
    return fn(batch, table, LOSS_CONFIG) if name in LOOP_LOSSES else fn(batch, LOSS_CONFIG)


class Session:
    """One benchmark process: the workload, its seed, spans and tallies."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.tracer = Tracer(trace)
        self.tally = Tally()
        self.current: Run | None = None
        self.runs: list = []  # every run of every timed pass
        self.instance_s: dict = {}  # per instance group: build + solve + grid seconds
        self.stack_s = 0.0  # stacked solves of the verify phase, all passes
        self.pass_timed_s: list = []
        self.counters: dict = {}
        self.peak_rss_mb = None
        self._train_peak_mb = None
        self.setup_repeats_s: list = []
        self._captures: list = []

    # -- seams ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the library seams; capture always, spans only when tracing."""
        self._capture(trainer, "loss_and_grad", self._capture_grad)
        self._capture(gradients, "optimal_distance_table", self._capture_table)
        if not self.tracer.enabled:
            return
        patch = self.tracer.patch
        patch(trainer, "generate_synthetic", "trainer.generate_synthetic")
        patch(trainer, "recall_at_k", "trainer.recall_at_k")
        patch(trainer, "loss_and_grad", "gradients.loss_and_grad",
              lambda name, batch, config, variant="arc": {"loss": name, "variant": variant})
        patch(gradients, "optimal_distance_table", "batch_engine.optimal_distance_table",
              lambda batch, variant="arc": {"variant": variant})
        for module in (gradients, losses, batch_engine):
            patch(module, "build_pairs", "batch_engine.build_pairs")
        for attr in ("pairwise", "ms_mining", "loop_ms_mining"):
            patch(gradients, attr, f"losses.{attr}")
        for name, attr in GRADIENTS_ALIAS.items():
            patch(gradients, attr, f"losses.{name}")
        for attr in ("solve_arc_stack", "solve_segment_stack"):
            patch(batch_engine, attr, f"vectorized.{attr}", _stack_attrs)

    def uninstall(self) -> None:
        self.tracer.restore()
        while self._captures:
            module, attr, original = self._captures.pop()
            setattr(module, attr, original)

    def _capture(self, module, attr, make) -> None:
        original = getattr(module, attr)
        self._captures.append((module, attr, original))
        setattr(module, attr, make(original))

    def _capture_grad(self, original):
        def loss_and_grad(name, batch, config, variant="arc"):
            run = self.current
            if run is not None:
                run.grad_starts.append(time.perf_counter())
            try:
                result = original(name, batch, config, variant)
            except Exception:
                if run is not None:
                    run.grad_raised += 1
                raise
            if run is not None and run.first_grad is None:
                run.first_batch, run.first_grad = batch, result[1]
            return result

        return loss_and_grad

    def _capture_table(self, original):
        def optimal_distance_table(batch, variant="arc"):
            table = original(batch, variant=variant)
            if self.current is not None:
                self.current.tables.append(TableRecord(
                    batch.embeddings, batch.labels, batch.samples_per_class,
                    table.combos, table.distances, table.solution.case_id, variant,
                ))
            return table

        return optimal_distance_table

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Generate pass-0 inputs and warm every loss and variant, several times."""
        with self.tracer.paused():
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                trainer.generate_synthetic(_synthetic_spec(self.w, self._data_seed(0)))
                self._sweep(0)
                self._warm_up()
                self.setup_repeats_s.append(time.perf_counter() - start)

    def _warm_up(self) -> None:
        spec = trainer.SyntheticSpec(WARMUP_CLASSES, WARMUP_PER_CLASS, self.w.dimension,
                                     CONCENTRATION, 0)
        batch = trainer.generate_synthetic(spec)
        for name, variant in self.w.plan():
            try:
                trainer.loss_and_grad(name, batch, LOSS_CONFIG, variant)
            except Exception:  # a variant that fails is counted in the timed passes
                pass
        trainer.evaluate(batch)
        # Short arcs: the verify path is warmed without a large oracle grid.
        rng = _seed(self.seed, 0, 9)
        warm = []
        for dim in sorted({self.w.dimension, *self.w.sweep_dims}):
            ends = _unit_rows(rng.normal(size=(2, dim)))
            jitter = 0.05 / np.sqrt(dim) * rng.normal(size=(4, dim))
            points = _unit_rows(np.repeat(ends, 2, axis=0) + jitter)
            warm += [Instance(points, "arc"), Instance(points, "segment")]
        self._verify(warm)

    # -- timed passes -----------------------------------------------------

    def _data_seed(self, pass_index: int) -> int:
        return int(np.random.SeedSequence([self.seed, pass_index]).generate_state(1)[0])

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        pass_index = 0
        while pass_index == 0 or time.perf_counter() - start < seconds:
            self.tracer.pass_index = pass_index
            runs, instances, timed_s = self.run_pass(pass_index)
            self.pass_timed_s.append(timed_s)
            if pass_index == 0:
                self.peak_rss_mb = self._train_peak_mb
            with self.tracer.paused():
                self.check_pass(pass_index, runs, instances)
            for run in runs:  # keep the timings, drop the arrays
                run.first_batch = run.first_grad = None
                run.tables = []
            pass_index += 1

    def run_pass(self, pass_index: int, record: bool = True):
        """Train phase then verify phase; returns (runs, instances, timed seconds)."""
        spec = _synthetic_spec(self.w, self._data_seed(pass_index))
        runs = []
        for loss, variant in self.w.plan():
            runs.append(self._train_run(spec, loss, variant, pass_index))
        self.current = None
        # Peak memory of set-up and training, before any oracle grid of the pass.
        self._train_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        instances = self._sweep(pass_index) + self._spot_rows(runs, pass_index)
        start = time.perf_counter()
        stack_s = self._verify(instances)
        verify_s = time.perf_counter() - start
        train_s = sum(r.train_s + r.evaluate_s for r in runs)
        if record:
            self.runs.extend(runs)
            for inst in instances:
                self.instance_s.setdefault(inst.group, []).append(inst.seconds)
            self.stack_s += stack_s
        return runs, instances, train_s + verify_s

    def _train_run(self, spec, loss: str, variant: str, pass_index: int) -> Run:
        run = Run(loss, variant)
        self.current = run
        self.tracer.run_id = f"{pass_index}:{loss}:{variant}"
        call = self.tracer.call
        start = time.perf_counter()
        try:
            state = call("trainer.train", trainer.train, spec, loss, LOSS_CONFIG, self.w.steps,
                         learning_rate=LEARNING_RATE, variant=variant,
                         attrs={"loss": loss, "variant": variant, "steps": self.w.steps})
            trained = time.perf_counter()
            call("trainer.evaluate", trainer.evaluate, state.embeddings)
            run.evaluate_s = time.perf_counter() - trained
            run.train_s = trained - start
            run.steps_done = self.w.steps
        except Exception as exc:  # counted as a failed run, never dropped
            run.train_s = time.perf_counter() - start
            run.raised = f"{type(exc).__name__}: {exc}"
        return run

    def _sweep(self, pass_index: int) -> list:
        rng = _seed(self.seed, pass_index, 1)
        instances = []
        for dim in self.w.sweep_dims:
            for _ in range(self.w.sweep_per_dim):
                instances.append(Instance(_unit_rows(rng.normal(size=(4, dim))), "arc"))
                instances.append(Instance(rng.normal(size=(4, dim)), "segment"))
        return instances

    def _spot_rows(self, runs: list, pass_index: int) -> list:
        """A few rows of each run's first table, each checked as both variants."""
        instances = []
        for index, run in enumerate(runs):
            if not run.tables:
                continue
            table = run.tables[0]
            rng = _seed(self.seed, pass_index, 2, index)
            rows = rng.choice(len(table.combos), size=min(self.w.spot_rows, len(table.combos)),
                              replace=False)
            for row in np.sort(rows):
                points = table.embeddings[table.combos[row]]
                link = (run, float(table.distances[row]))
                for variant in ("arc", "segment"):
                    instances.append(Instance(
                        points, variant, link if variant == table.variant else None, spot=True))
        return instances

    def _verify(self, instances: list) -> float:
        """Build, solve and grid-check each instance; then one stacked call per group.

        Returns the seconds spent in the stacked calls.
        """
        call = self.tracer.call
        groups: dict = {}
        for inst in instances:
            start = time.perf_counter()
            if inst.variant == "arc":
                problem = call("arc_solver.from_endpoints", ArcProblem.from_endpoints,
                               *inst.points)
                solution = call("arc_solver.optimal_arc_distance", optimal_arc_distance,
                                problem)
                grid = call("oracle.grid_min_arc", grid_min_arc, problem, RESOLUTION)
            else:
                problem = SegmentProblem.from_endpoints(*inst.points)
                solution = call("segment_solver.optimal_segment_distance",
                                optimal_segment_distance, problem)
                grid = call("oracle.grid_min_segment", grid_min_segment, problem, RESOLUTION)
            inst.seconds = time.perf_counter() - start
            inst.distance, inst.oracle = solution.distance, grid.best_distance
            inst.evaluations = grid.evaluations
            endpoints = (problem.x1, problem.x2, problem.y1, problem.y2)
            groups.setdefault((inst.variant, len(inst.points[0])), []).append((inst, endpoints))
        start = time.perf_counter()
        for (variant, _), members in groups.items():
            stacks = [np.stack([ends[k] for _, ends in members]) for k in range(4)]
            if variant == "arc":
                sol = call("vectorized.solve_arc_stack", solve_arc_stack, *stacks,
                           attrs=_stack_attrs(*stacks))
            else:
                sol = call("vectorized.solve_segment_stack", solve_segment_stack, *stacks,
                           attrs=_stack_attrs(*stacks))
            for (inst, _), dist, case in zip(members, sol.distance, sol.case_id):
                inst.stacked, inst.case_id = float(dist), int(case)
        return time.perf_counter() - start

    # -- checks -----------------------------------------------------------

    def check_pass(self, pass_index: int, runs: list, instances: list) -> None:
        """Check every output of one pass; every violation fails an operation."""
        tally = self.tally
        tally.attempt(len(runs) + len(instances))
        table_rows: dict = {}
        for inst in instances:
            problem = _instance_violation(inst)
            if problem:
                tally.fail_check(f"pass {pass_index} {inst.variant} instance: {problem}")
            if inst.table is not None and _gate(inst, inst.table[1]):
                table_rows.setdefault(id(inst.table[0]), []).append(
                    f"table row {inst.table[1]:.17g} vs oracle {inst.oracle:.17g}")
        batch0 = trainer.generate_synthetic(_synthetic_spec(self.w, self._data_seed(pass_index)))
        fd = FiniteDifference(batch0, _seed(self.seed, pass_index, 3))
        for run in runs:
            problems = table_rows.get(id(run), []) + self._run_violations(run, batch0, fd)
            label = f"pass {pass_index} {run.loss}/{run.variant}"
            if problems:
                tally.fail_check(f"{label}: {'; '.join(problems)}")
            elif run.raised:
                tally.fail_raised(f"{label} raised {run.raised}")
        if pass_index == 0:
            self._pass_counters(runs, instances, batch0)

    def _run_violations(self, run: Run, batch0, fd) -> list:
        problems = []
        expected = batch_engine.combination_count(self.w.batch_size, self.w.samples_per_class)
        for table in run.tables:
            if len(table.combos) != expected:
                problems.append(f"{len(table.combos)} combinations, expected {expected}")
            gap = _envelope_gap(table)
            if np.any(gap < -ENVELOPE_SLACK):
                problems.append(f"envelope bound broken by {-gap.min():.3e}")
        if run.first_grad is not None:
            if not np.array_equal(run.first_batch.embeddings, batch0.embeddings):
                problems.append("step-0 batch differs from the generated inputs")
            else:
                err = fd.check(run.loss, run.variant, run.first_grad)
                if err > FD_RTOL:
                    problems.append(f"finite-difference relative error {err:.3e}")
        return problems

    def _pass_counters(self, runs: list, instances: list, batch0) -> None:
        """Exact counts over pass 0, whose inputs depend on the seed only."""
        counters = self.counters
        counters["gradients.failures"] = sum(run.grad_raised for run in runs)
        counters["oracle.evaluations"] = sum(inst.evaluations for inst in instances)
        arc_tables = [t for run in runs for t in run.tables if t.variant == "arc"]
        counters["batch_engine.combinations"] = len(arc_tables[0].combos)
        # Paper-effect counters over every arc table row and sweep instance.
        cases = [t.case_id for t in arc_tables]
        gains = [_envelope_gap(t) for t in arc_tables]
        sweep = [i for i in instances if i.variant == "arc" and not i.spot]
        for inst in sweep:
            p = _unit_rows(inst.points)
            endpoint = min(np.linalg.norm(p[a] - p[b]) for a in (0, 1) for b in (2, 3))
            cases.append(np.array([inst.case_id]))
            gains.append(np.array([endpoint - inst.stacked]))
        counters["case_wins"] = np.bincount(np.concatenate(cases), minlength=9)[:9]
        gain = np.concatenate(gains)
        counters["endpoint_gain_mean"] = float(np.mean(gain))
        if self.tracer.enabled:
            table0 = batch_engine.optimal_distance_table(batch0, "arc")
            for loss in HINGE_LOSSES:
                terms = _loss_value(loss, batch0, table0).per_term
                active = sum(1 for _, value in terms if value > 0.0)
                counters[f"losses.active_frac.{loss}"] = active / len(terms)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        """Medians over every sample of the run. See NOTES.md."""
        metrics = {"setup_s": setup_s}
        # The median pass: per plan entry, the median train + evaluate time.
        # A run that raised counts its time and no steps.
        entries: dict = {}
        for run in self.runs:
            entries.setdefault((run.loss, run.variant), []).append(run)
        steps = sum(median(r.steps_done for r in runs) for runs in entries.values())
        pass_s = sum(median(r.train_s + r.evaluate_s for r in runs) for runs in entries.values())
        metrics["steps_per_s"] = steps / pass_s
        for loss in LOSSES:
            metrics[f"step_ms.{loss}"] = median(self._step_samples(loss)) * 1e3
        # The median instance of each group (variant, dimension, spot row or
        # sweep), weighted by the group's size, plus the stacked solves.
        count = sum(len(times) for times in self.instance_s.values())
        verify_s = sum(len(times) * median(times) for times in self.instance_s.values())
        metrics["instances_per_s"] = count / (verify_s + self.stack_s)
        metrics["peak_rss_mb"] = self.peak_rss_mb
        metrics["ok_frac"] = self.tally.ok_frac
        return metrics

    def _step_samples(self, loss: str) -> list:
        return [t for r in self.runs if r.loss == loss and r.variant == "arc" for t in r.step_s]

    def samples(self) -> dict:
        counts = {f"step_ms.{loss}": len(self._step_samples(loss)) for loss in LOSSES}
        return {
            "passes": len(self.pass_timed_s),
            "setup_s": len(self.setup_repeats_s),
            "steps_per_s": len(self.runs),
            "instances_per_s": sum(len(times) for times in self.instance_s.values()),
            **counts,
        }

    def overhead_replay(self) -> float:
        """Replay pass 0 untraced and traced in turn: fastest traced over fastest untraced, minus 1.

        The replays run warm, after the measured passes, so the first pass's
        cold start does not count as tracing cost; short passes are replayed
        several times. Call after per_layer(): the traced replays add spans.
        """
        pairs = max(1, math.ceil(OVERHEAD_REPLAY_S / min(self.pass_timed_s)))
        untraced, traced = [], []
        for _ in range(pairs):
            with self.tracer.paused():
                untraced.append(self.run_pass(0, record=False)[2])
            traced.append(self.run_pass(0, record=False)[2])
        return min(traced) / min(untraced) - 1.0

    def per_layer(self) -> dict:
        return layer_metrics(self)


def _stack_attrs(x1, *_):
    rows, dim = np.shape(x1)
    return {"rows": int(rows), "dim": int(dim)}


def _batch_like(record, embeddings):
    return batch_engine.LabeledBatch(embeddings=embeddings, labels=record.labels,
                                     samples_per_class=record.samples_per_class)


def _envelope_gap(table: TableRecord) -> np.ndarray:
    """Best endpoint cross distance minus the optimal distance, per row."""
    dist, _ = losses.pairwise(_batch_like(table, table.embeddings))
    i, j, k, l = table.combos.T
    endpoint = np.minimum(np.minimum(dist[i, k], dist[i, l]), np.minimum(dist[j, k], dist[j, l]))
    return endpoint - table.distances


def _gate(inst: Instance, distance: float) -> bool:
    """True when `distance` fails the acceptance gates against the oracle."""
    scale = 1.0
    if inst.variant == "segment":
        p = inst.points
        scale = float(np.linalg.norm(p[0] - p[1]) + np.linalg.norm(p[2] - p[3]))
    return not (distance <= inst.oracle + ABOVE_ORACLE
                and inst.oracle - distance <= MAX_GAP * scale)


def _instance_violation(inst: Instance) -> str:
    if _gate(inst, inst.distance):
        return f"solver {inst.distance:.17g} vs oracle {inst.oracle:.17g}"
    if not abs(inst.stacked - inst.distance) <= STACK_VS_SCALAR:
        return f"stacked {inst.stacked:.17g} vs scalar {inst.distance:.17g}"
    return ""


class FiniteDifference:
    """Directional central differences of loss values around one batch.

    Directions are random unit tangents shared by every run of a pass, so
    the perturbed batches and their tables are built once per direction.
    """

    def __init__(self, batch, rng: np.random.Generator):
        self.batch = batch
        self.rng = rng
        self.directions: list = []
        self._values: dict = {}
        self._tables: dict = {}

    def _direction(self, k: int) -> np.ndarray:
        while len(self.directions) <= k:
            emb = self.batch.embeddings
            v = self.rng.normal(size=emb.shape)
            v -= np.sum(v * emb, axis=1, keepdims=True) * emb
            self.directions.append(v / np.linalg.norm(v))
        return self.directions[k]

    def _value(self, name: str, variant: str, k: int, sign: float) -> float:
        key = (name, variant, k, sign)
        if key not in self._values:
            emb = self.batch.embeddings + sign * FD_STEP * self._direction(k)
            batch = batch_engine.LabeledBatch(
                embeddings=emb / np.linalg.norm(emb, axis=1, keepdims=True),
                labels=self.batch.labels, samples_per_class=self.batch.samples_per_class,
            )
            table = None
            if name in LOOP_LOSSES:
                tkey = (variant, k, sign)
                if tkey not in self._tables:
                    self._tables[tkey] = batch_engine.optimal_distance_table(batch, variant)
                table = self._tables[tkey]
            self._values[key] = _loss_value(name, batch, table).total
        return self._values[key]

    def check(self, name: str, variant: str, grad: np.ndarray) -> float:
        """Smallest relative error over up to FD_DIRECTIONS directions."""
        best = np.inf
        for k in range(FD_DIRECTIONS):
            analytic = float(np.sum(grad * self._direction(k)))
            numeric = (self._value(name, variant, k, 1.0)
                       - self._value(name, variant, k, -1.0)) / (2.0 * FD_STEP)
            scale = max(abs(analytic), abs(numeric), 1e-12)
            best = min(best, abs(numeric - analytic) / scale)
            if best <= FD_RTOL:
                break
        return best


def layer_metrics(session: Session) -> dict:
    """Per-layer metrics from the recorded spans and the pass-0 counters."""
    tracer = session.tracer
    spans = tracer.spans
    selfs = tracer.self_times()
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)

    def pick(name, test=None):
        return [k for k, s in enumerate(spans)
                if s[0] == name and not s[6].get("raised") and (test is None or test(k, s))]

    def dur(k):
        return spans[k][2] - spans[k][1]

    def med(indices, scale, own=False):
        return median(selfs[k] if own else dur(k) for k in indices) * scale

    m = {}
    trains = pick("trainer.train")
    m["trainer.generate_ms"] = med(pick("trainer.generate_synthetic"), 1e3)
    m["trainer.recall_ms"] = med(
        pick("trainer.recall_at_k",
             lambda k, s: s[3] is not None and spans[s[3]][0] == "trainer.train"), 1e3)
    m["trainer.evaluate_ms"] = med(pick("trainer.evaluate"), 1e3)
    m["trainer.train_self_ms"] = (
        sum(selfs[k] for k in trains) / sum(spans[k][6]["steps"] for k in trains) * 1e3)
    for loss in LOSSES:
        calls = pick("gradients.loss_and_grad",
                     lambda k, s: s[6]["loss"] == loss and s[6]["variant"] == "arc")
        m[f"gradients.{loss}_ms"] = med(calls, 1e3)
        m[f"gradients.{loss}_self_ms"] = med(calls, 1e3, own=True)
    m["gradients.failures"] = session.counters["gradients.failures"]
    for loss in LOSSES:
        m[f"losses.{loss}_ms"] = med(pick(f"losses.{loss}"), 1e3, own=True)
    for loss in HINGE_LOSSES:
        m[f"losses.active_frac.{loss}"] = session.counters[f"losses.active_frac.{loss}"]
    m["batch_engine.build_pairs_ms"] = med(pick("batch_engine.build_pairs"), 1e3)
    tables = pick("batch_engine.optimal_distance_table", lambda k, s: s[6]["variant"] == "arc")
    m["batch_engine.table_ms"] = med(tables, 1e3)
    m["batch_engine.table_overhead_ms"] = median(
        dur(k) - sum(dur(c) for c in children.get(k, ()) if spans[c][0].startswith("vectorized."))
        for k in tables) * 1e3
    m["batch_engine.combinations"] = session.counters["batch_engine.combinations"]
    arc = pick("vectorized.solve_arc_stack")
    m["vectorized.arc_solve_ms"] = med(arc, 1e3)
    m["vectorized.arc_solve_us_per_row"] = (
        sum(dur(k) for k in arc) / sum(spans[k][6]["rows"] for k in arc) * 1e6)
    m["vectorized.gather_mb"] = max(
        4 * spans[k][6]["rows"] * spans[k][6]["dim"] * 8 for k in arc) / 2**20
    seg = pick("vectorized.solve_segment_stack")
    m["vectorized.segment_solve_us_per_row"] = (
        sum(dur(k) for k in seg) / sum(spans[k][6]["rows"] for k in seg) * 1e6)
    wins = session.counters["case_wins"]
    for case in range(9):
        m[f"vectorized.case_wins.{case}"] = int(wins[case])
    m["vectorized.noncorner_frac"] = float(wins[:5].sum() / wins.sum())
    m["vectorized.endpoint_gain_mean"] = session.counters["endpoint_gain_mean"]
    m["arc_solver.problem_build_us"] = med(pick("arc_solver.from_endpoints"), 1e6)
    m["arc_solver.solve_us"] = med(pick("arc_solver.optimal_arc_distance"), 1e6)
    m["segment_solver.solve_us"] = med(pick("segment_solver.optimal_segment_distance"), 1e6)
    m["oracle.arc_grid_ms"] = med(pick("oracle.grid_min_arc"), 1e3)
    m["oracle.segment_grid_ms"] = med(pick("oracle.grid_min_segment"), 1e3)
    m["oracle.evaluations"] = session.counters["oracle.evaluations"]
    e2e = session.end_to_end(0.0)
    m["trace.steps_per_s"] = e2e["steps_per_s"]
    m["trace.instances_per_s"] = e2e["instances_per_s"]
    m["trace.spans"] = len(spans)
    return m
