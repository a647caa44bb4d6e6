"""Measurement plumbing shared by every workload.

Holds the order statistics, the metric-name rule, the span recorder used by
the traced run, and the tally of attempted and failed operations. Nothing
here knows about hardneg; workloads.py wires it to the library.
"""

from __future__ import annotations

import contextlib
import json
import re
import statistics
import time
from dataclasses import dataclass, field

# A metric name: starts with a letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), as statistics.quantiles(n=4).

    A single value is its own quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not UNIT_NAME.match(unit):
        raise ValueError(f"bad unit {unit!r}")
    return unit


class Tracer:
    """Spans around calls into the library, kept in memory until the run ends.

    A span is [name, start, end, parent index, run id, pass index, attrs].
    Disabled, every call goes straight through and nothing is recorded;
    paused, calls go through unrecorded (used while outputs are checked).
    Library seams are wrapped by rebinding module attributes from outside,
    and restore() puts the originals back.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.run_id = None
        self.pass_index = 0
        self._stack: list = []
        self._paused = 0
        self._patches: list = []

    @property
    def recording(self) -> bool:
        return self.enabled and not self._paused

    def call(self, name, fn, *args, attrs=None, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.run_id, self.pass_index, attrs or {}]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[6] = {**span[6], "raised": True}
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, name: str, attrs_of=None) -> None:
        """Record a span named `name` around every call of module.attr."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of and self.recording else None
            return self.call(name, original, *args, attrs=attrs, **kwargs)

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run", "pass", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class Tally:
    """Attempted and failed operations, plus the correctness violations.

    A run that raised is failed but is not a wrong output; a violation (a
    table row, gradient or instance that failed a check) is both failed and
    wrong, and makes the whole benchmark run exit non-zero.
    """

    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    raised: list = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail_raised(self, what: str) -> None:
        self.failed += 1
        self.raised.append(what)

    def fail_check(self, what: str) -> None:
        self.failed += 1
        self.violations.append(what)

    @property
    def correct(self) -> bool:
        return not self.violations

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    """The benchmark's last stdout line: one JSON object, exactly four keys."""
    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                check_metric_name(name): {"value": float(value), "unit": check_unit(units[name])}
                for name, value in metrics.items()
            },
        }
    )
