"""Closed loop, child-process runner and span tracer."""

from __future__ import annotations

import collections
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The package cannot be installed here, so children find it through
#: PYTHONPATH, relative to the checkout root they run in.
CHILD_PYTHONPATH = "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": CHILD_PYTHONPATH}

#: (kind, message); kind "wrong" is a wrong result, "error" an
#: exception or an unexpected exit code.
Failure = Tuple[str, str]


class Op(NamedTuple):
    """One operation of a workload, built before its timed region.

    ``key`` names the input: a workload runs the same inputs again in
    every cycle, and operations with equal keys do the same work.
    """

    kind: str
    key: Hashable
    run: Callable[[], object]
    check: Callable[[object], Optional[Failure]]
    last_in_cycle: bool = True


class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    seconds: float


def python_child(args: List[str], timeout: float = 60.0) -> Child:
    """Run the interpreter on ``args`` from the checkout root.

    A child still running at ``timeout`` is killed and reaped, and
    ``subprocess.TimeoutExpired`` ends the run.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
        capture_output=True, text=True, timeout=timeout,
    )
    return Child(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0)


class Tracer:
    """Spans and counts kept in memory, written out when the run ends.

    A span is [name, start_ns, end_ns, parent, op, child_ns]: ``op`` is
    the index of the operation's root span, shared by every span of one
    operation, and ``child_ns`` the part of the span covered by its
    children.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts = collections.Counter()

    def begin(self, name: str) -> None:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        op = self.stack[0] if self.stack else index
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op, 0])
        self.stack.append(index)

    def end(self) -> None:
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter_ns()
        if self.stack:
            self.spans[self.stack[-1]][5] += span[2] - span[1]

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with a span around every call."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()
        return traced

    def wrap_calls(self, name: str, func: Callable) -> Callable:
        """``func`` counted and timed per call, without spans.

        Kernel calls run millions of times at a few microseconds each,
        too many to keep one span apiece.  Their count and time go to
        ``<name>.calls`` and ``<name>.ns``, and their time counts as
        child time of the enclosing span.
        """
        counts, spans, stack = self.counts, self.spans, self.stack
        clock = time.perf_counter_ns
        calls, total = name + ".calls", name + ".ns"

        def counted(*args):
            t0 = clock()
            result = func(*args)
            dt = clock() - t0
            counts[calls] += 1
            counts[total] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result
        return counted

    def totals(self):
        """{name: [calls, total_ns, self_ns]}; self time excludes children."""
        out = collections.defaultdict(lambda: [0, 0, 0])
        for name, start, end, _parent, _op, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return dict(out)

    def dump(self) -> dict:
        base = self.spans[0][1] if self.spans else 0
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns"],
            "spans": [[n, s - base, e - base, p, o, c] for n, s, e, p, o, c in self.spans],
            "counts": dict(self.counts),
            "totals": self.totals(),
        }


MAX_OVERRUN = 2


class LoopResult(NamedTuple):
    keys: List[Hashable]  # the input of each operation
    latencies: List[float]  # seconds per operation
    traced_latencies: List[float]  # the same operations, run again traced
    failures: List[Failure]

    def fastest(self, cycle: List[Hashable]) -> List[float]:
        """The fastest time of each input, once per place in ``cycle``.

        Inputs that never ran are left out.
        """
        best: Dict[Hashable, float] = {}
        for key, seconds in zip(self.keys, self.latencies):
            best[key] = min(best.get(key, seconds), seconds)
        return [best[key] for key in cycle if key in best]


def _timed(op: Op, latencies: List[float], failures: List[Failure],
           tracer: Optional[Tracer] = None) -> None:
    if tracer is not None:
        tracer.begin("op." + op.kind)
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation, counted, not fatal
        out = exc
    latencies.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.end()
    if isinstance(out, Exception):
        failures.append(("error", f"{op.kind}: {type(out).__name__}: {out}"))
        return
    verdict = op.check(out)
    if verdict is not None:
        failures.append(verdict)


def closed_loop(workload, seconds: float, tracer: Optional[Tracer] = None) -> LoopResult:
    """One client: the next operation starts when the last one is checked.

    Only ``op.run()`` is timed; building the operation and checking its
    output happen between operations.  With a tracer, every operation
    runs twice back to back, untraced and then traced, so the tracing
    overhead is measured on the same inputs at nearly the same moment.
    The loop stops at the first cycle boundary after ``seconds`` of wall
    time, and in any case after ``MAX_OVERRUN * seconds``, so that a
    slowed-down program still ends its run in time.
    """
    result = LoopResult([], [], [], [])
    start = time.perf_counter()
    while True:
        op = workload.next_op()
        result.keys.append(op.key)
        _timed(op, result.latencies, result.failures)
        if tracer is not None:
            with workload.traced(tracer):
                _timed(op, result.traced_latencies, result.failures, tracer)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (op.last_in_cycle or elapsed >= MAX_OVERRUN * seconds):
            return result


def traced_cycle(workload, tracer: Tracer) -> List[Failure]:
    """One cycle of ``workload``, every operation traced; its failures."""
    latencies: List[float] = []
    failures: List[Failure] = []
    for _ in workload.keys:
        with workload.traced(tracer):
            _timed(workload.next_op(), latencies, failures, tracer)
    return failures


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
