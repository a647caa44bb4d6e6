"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload once at a tiny shape, so it checks the plumbing (metric
names, emission, failure accounting, span arithmetic), not the timings.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from hardneg import trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each workload's structure at a size that runs in well under a second.
TINY = {
    "desk_train": dict(num_classes=4, samples_per_class=4, dimension=8, steps=2, spot_rows=1),
    "wide_train": dict(num_classes=4, samples_per_class=4, dimension=8, steps=1, spot_rows=1),
    "oracle_verify": dict(num_classes=3, samples_per_class=2, dimension=4, steps=2,
                          sweep_dims=(3,), sweep_per_dim=1),
}


def tiny_session(name: str, trace: bool, seed: int = 0) -> workloads.Session:
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    session = workloads.Session(workload, seed, trace)
    session.install()
    try:
        session.setup()
        session.measure(0.0)
        if trace:
            session.metrics = session.per_layer()
            session.metrics["trace.overhead_frac"] = session.overhead_replay()
        else:
            session.metrics = session.end_to_end(0.1)
    finally:
        session.uninstall()
    return session


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5, 10, 11):
            values = list(rng.normal(size=n))
            self.assertEqual(harness.median(values), statistics.median(values))
            q1, q2, q3 = harness.quartiles(values)
            self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
            self.assertAlmostEqual(harness.relative_spread(values), (q3 - q1) / abs(q2))

    def test_single_value_and_empty(self):
        self.assertEqual(harness.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(harness.relative_spread([4.0, 4.0, 4.0]), 0.0)
        with self.assertRaises(ValueError):
            harness.median([])


class MetricNameTest(unittest.TestCase):
    def test_declared_names_and_units(self):
        declared = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in declared]
        self.assertEqual(len(names), len(set(names)))
        for metric in declared:
            self.assertRegex(metric["name"], r"\A[A-Za-z0-9_.-]+\Z")
            self.assertTrue(harness.METRIC_NAME.match(metric["name"]), metric["name"])
            self.assertEqual(harness.check_unit(metric["unit"]), metric["unit"])
            self.assertIn(metric["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_bad_name_is_refused(self):
        for bad in ("", "has space", "_lead", "x" * 65, "a/b"):
            with self.assertRaises(ValueError):
                harness.check_metric_name(bad)

    def test_workloads_match_declaration(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))


class EmissionTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_by_every_workload(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"] for m in SPEC[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    session = tiny_session(name, trace)
                    self.assertEqual(set(session.metrics), declared)
                    self.assertTrue(all(np.isfinite(v) for v in session.metrics.values()))
                    self.assertTrue(session.tally.correct, session.tally.violations)

    def test_same_seed_gives_same_counts(self):
        first, second = tiny_session("desk_train", True), tiny_session("desk_train", True)
        for name in ("batch_engine.combinations", "oracle.evaluations",
                     "vectorized.endpoint_gain_mean", "vectorized.case_wins.0"):
            self.assertEqual(first.metrics[name], second.metrics[name])

    def test_every_step_is_one_sample_within_its_train_call(self):
        session = tiny_session("desk_train", False)
        steps = session.w.steps * len(session.pass_timed_s)
        self.assertEqual(session.samples()["step_ms.triplet"], steps)
        for run in session.runs:
            if not run.raised:
                self.assertEqual(len(run.step_s), session.w.steps)
                self.assertLessEqual(sum(run.step_s), run.train_s)

    def test_result_line_has_exactly_four_keys(self):
        tally = harness.Tally(attempted=3, failed=1)
        line = json.loads(harness.result_line(tally, {"setup_s": 0.5}, {"setup_s": "s"}))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["setup_s"], {"value": 0.5, "unit": "s"})


class FailureAccountingTest(unittest.TestCase):
    def test_raising_run_is_counted_as_failed_not_dropped(self):
        original = trainer.train

        def train(spec, loss, *args, variant="arc", **kwargs):
            if (loss, variant) == ("loop_ms", "segment"):
                raise RuntimeError("injected")
            return original(spec, loss, *args, variant=variant, **kwargs)

        with mock.patch.object(trainer, "train", train):
            session = tiny_session("desk_train", False)
        injected = [r for r in session.runs if r.raised and "injected" in r.raised]
        self.assertEqual(len(injected), len(session.pass_timed_s))
        self.assertEqual(session.tally.failed, sum(1 for r in session.runs if r.raised))
        self.assertGreaterEqual(session.tally.attempted, len(session.runs))
        self.assertLess(session.metrics["ok_frac"], 1.0)
        self.assertTrue(session.tally.correct)  # raising is a failure, not a wrong output

    def test_instance_beyond_the_gates_is_a_violation(self):
        inst = workloads.Instance(np.eye(4)[:, :3], "arc", distance=0.5, oracle=0.49,
                                  stacked=0.5)
        self.assertIn("oracle", workloads._instance_violation(inst))
        inst = workloads.Instance(np.eye(4)[:, :3], "arc", distance=0.5, oracle=0.5,
                                  stacked=0.5 + 1e-9)
        self.assertIn("stacked", workloads._instance_violation(inst))
        inst.stacked = 0.5
        self.assertEqual(workloads._instance_violation(inst), "")
        tally = harness.Tally()
        tally.attempt()
        tally.fail_check("wrong")
        self.assertFalse(tally.correct)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = harness.Tracer(True)

        def leaf():
            time.sleep(0.01)

        def outer():
            tracer.call("inner", leaf)
            time.sleep(0.01)

        tracer.call("outer", outer)
        outer_span, inner_span = tracer.spans
        self.assertEqual(inner_span[3], 0)
        own = tracer.self_times()
        self.assertAlmostEqual(own[0] + own[1], outer_span[2] - outer_span[1], places=9)
        self.assertGreater(own[1], 0.009)

    def test_disabled_and_paused_record_nothing(self):
        for tracer in (harness.Tracer(False), harness.Tracer(True)):
            with tracer.paused():
                self.assertEqual(tracer.call("x", lambda: 7), 7)
            self.assertEqual(tracer.spans, [])

    def test_patch_and_restore(self):
        tracer = harness.Tracer(True)
        module = mock.Mock()
        module.fn = lambda a: a + 1
        original = module.fn
        tracer.patch(module, "fn", "layer.fn", lambda a: {"a": a})
        self.assertEqual(module.fn(1), 2)
        self.assertEqual(tracer.spans[0][0], "layer.fn")
        self.assertEqual(tracer.spans[0][6], {"a": 1})
        tracer.restore()
        self.assertIs(module.fn, original)


if __name__ == "__main__":
    unittest.main()
