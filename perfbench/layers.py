"""Per-layer metrics of a traced run: span totals, counts and probes.

Span-derived metrics describe the workload's own traced operations and
read 0 on a workload that never enters the layer.  Probes time one
layer in isolation on fixed seeded inputs, so they read the same on
every workload; they run only in traced runs, after the traced loop.
The multivector and notation metrics come from a probe too: one traced
epoch of the algebra products.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import List, NamedTuple

from cltwist import ALGORITHMS, cli

import reference
from harness import Tracer, python_child, traced_cycle
from workloads import SELFTEST_N, AlgebraProducts, signs_pairs, wide_mask

PROBE_REPEATS = 5


def _ns_per_call(func, pairs, mu) -> float:
    runs = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        for p, q in pairs:
            func(p, q, mu)
        runs.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(runs)


def kernel_probes(seed: int) -> dict:
    rng = random.Random(seed)
    wide = signs_pairs(rng)
    narrow = [(rng.getrandbits(8), rng.getrandbits(8)) for _ in range(1024)]
    width = 1 << SELFTEST_N
    selftest = [(rng.randrange(width), rng.randrange(width)) for _ in range(4096)]
    return {
        "kernel.closed_ns": _ns_per_call(ALGORITHMS["closed"], wide, -1),
        "kernel.closed_narrow_ns": _ns_per_call(ALGORITHMS["closed"], narrow, -1),
        "kernel.oracle_ns": _ns_per_call(ALGORITHMS["oracle"], selftest, -1),
        "kernel.recursive_ns": _ns_per_call(ALGORITHMS["recursive"], selftest, -1),
        "kernel.tree_ns": _ns_per_call(ALGORITHMS["tree"], selftest, -1),
        "kernel.closed_selftest_ns": _ns_per_call(ALGORITHMS["closed"], selftest, -1),
    }


def _numpy_import_ms() -> float:
    """numpy's cumulative time in ``-X importtime`` of ``import cltwist``."""
    child = python_child(["-X", "importtime", "-c", "import cltwist"])
    for line in child.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1000
    return 0.0  # numpy is not imported at all


class Command(NamedTuple):
    kind: str
    argv: List[str]
    code: int
    stdout: str


_SELFTEST_5 = ("ok: 4x1024 pairs x 2 mu, 0 mismatches\n"
               "ok: 32768 triples x 2 mu, 0 mismatches\n")


def cli_commands(rng: random.Random) -> List[Command]:
    """One cycle of CLI commands with their expected stdout and exit code.

    The first two are the README's worked examples.
    """
    cmds = [
        Command("sign", ["sign", "2636", "1143"], 0, "-1\n"),
        Command("mul", ["mul", "e_347ac * e_123567b"], 0, "-e_{12456abc}\n"),
    ]
    for algo in ("oracle", "recursive", "tree", "closed"):
        p, q, mu = wide_mask(rng, 64), wide_mask(rng, 64), rng.choice((1, -1))
        cmds.append(Command("sign", ["sign", str(p), str(q), "--algo", algo, "--mu", f"{mu:+d}"],
                            0, f"{reference.sign(p, q, mu):+d}\n"))
    a, b = rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12)
    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    spell = lambda m: "e_" + reference.blade_text(m, "e")[3:-1]
    expected = {a ^ b: coeff * reference.sign(a, b, -1)}
    cmds.append(Command("mul", ["mul", f"{coeff} {spell(a)} * {spell(b)}"],
                        0, reference.format_terms(expected, "e") + "\n"))
    p, q = wide_mask(rng, 64), wide_mask(rng, 64)
    cmds.append(Command("mul", ["mul", f"i_{p} * i_{q}", "--i-form"],
                        0, reference.format_terms({p ^ q: reference.sign(p, q, -1)}, "i") + "\n"))
    p, q = wide_mask(rng, 64), wide_mask(rng, 64)
    cmds.append(Command("trace", ["trace", str(p), str(q)],
                        0, "\n".join(reference.trace_lines(p, q, -1)) + "\n"))
    cmds.append(Command("table", ["table", "6", "--mu", "sym"], 0,
                        reference.table_text(6, None, " ")))
    cmds.append(Command("table", ["table", "6", "--blocks"], 0, reference.letters_text(6, " ")))
    cmds.append(Command("table", ["table", "6", "--format", "csv"], 0,
                        reference.table_text(6, -1, ",")))
    cmds.append(Command("selftest", ["selftest", "--n", "5"], 0, _SELFTEST_5))
    digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4999))
    cmds.append(Command("malformed", ["mul", "e_21"], 2, ""))
    cmds.append(Command("malformed", ["table", "13"], 2, ""))
    # Raises ValueError today, so a child exits 1: a known defect that
    # must stay in the data, counted in cli.failed_commands.
    cmds.append(Command("malformed", ["mul", "i_" + digits], 2, ""))
    return cmds


def _run_main(argv):
    """``cli.main(argv)`` in this process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad input this way
            code = exc.code
        except Exception:  # uncaught, it would print a traceback and exit 1
            code = 1
    return code or 0, out.getvalue(), time.perf_counter() - t0


def cli_probes(seed: int, setup_seconds):
    """Start-up and per-command times, and the commands that failed.

    Every command runs in-process three times; the first run's exit code
    and stdout are checked.  Returns (metrics, failures).
    """
    interpreter = [python_child(["-c", "pass"]).seconds for _ in range(PROBE_REPEATS)]
    out = {
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.import_ms": statistics.median(setup_seconds) * 1e3,
        "cli.numpy_import_ms": statistics.median(
            _numpy_import_ms() for _ in range(3)),
    }
    by_kind, failures = {}, []
    for cmd in cli_commands(random.Random(seed)):
        runs = [_run_main(cmd.argv) for _ in range(3)]
        code, stdout, _ = runs[0]
        what = "cltwist " + " ".join(a if len(a) < 40 else a[:20] + "..." for a in cmd.argv)
        if code != cmd.code:
            failures.append(("error", f"{what}: exit {code}, expected {cmd.code}"))
        elif stdout != cmd.stdout:
            failures.append(("wrong", f"{what}: stdout {stdout[:60]!r}, expected {cmd.stdout[:60]!r}"))
        by_kind.setdefault(cmd.kind, []).append(statistics.median(r[2] for r in runs))
    for kind, times in by_kind.items():
        out[f"cli.main_ms.{kind}"] = statistics.median(times) * 1e3
    out["cli.failed_commands"] = len(failures)
    return out, failures


def algebra_probe(seed: int):
    """multivector and notation metrics from one traced epoch of products.

    No end-to-end workload enters these layers (README.md says why), so
    every traced run measures them here.  Returns (metrics, failures).
    """
    products = AlgebraProducts(seed)
    products.warm_up()
    tracer = Tracer()
    failures = traced_cycle(products, tracer)
    measured = span_metrics(tracer, len(products.keys))
    return {name: value for name, value in measured.items()
            if name.startswith(("multivector.", "notation."))}, failures


def span_metrics(tracer, op_count: int) -> dict:
    """Layer metrics from the traced loop's spans and counts."""
    totals = tracer.totals()
    counts = tracer.counts

    def self_ms(name, per_call=False):
        calls, _, self_ns = totals.get(name, (0, 0, 0))
        base = calls if per_call else op_count
        return self_ns / base / 1e6 if base else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    op_ns = sum(v[1] for k, v in totals.items() if k.startswith("op."))
    mul = totals.get("multivector.mul", (0, 0, 0))
    render = totals.get("tables.render_table", (0, 0, 0))
    selftest = totals.get("selftest.run_selftest", (0, 0, 0))
    return {
        "kernel.calls": ratio(counts["kernel.calls"], op_count),
        "kernel.share": ratio(counts["kernel.ns"], op_ns),
        "multivector.mul_ms": self_ms("multivector.mul"),
        "multivector.mul_ns_per_term_pair": ratio(mul[1], counts["multivector.term_pairs"]),
        "multivector.evaluate_ms": self_ms("multivector.parse"),
        "multivector.format_ms": self_ms("multivector.format"),
        "multivector.term_pairs": ratio(counts["multivector.term_pairs"], op_count),
        "notation.parse_expression_ms": self_ms("notation.parse_expression"),
        "notation.tokens": ratio(counts["notation.tokens"], op_count),
        "tables.build_direct_ms": self_ms("tables.table_direct", per_call=True),
        "tables.build_blocks_ms": self_ms("tables.table_blocks", per_call=True),
        "tables.render_ms": self_ms("tables.render_table", per_call=True),
        "tables.render_mib_per_s": ratio(counts["tables.render_bytes"] / 2 ** 20, render[1] / 1e9),
        "tables.letters_ms": self_ms("tables.render_block_letters", per_call=True),
        "selftest.run_ms": self_ms("selftest.run_selftest", per_call=True),
        "selftest.kernel_share": ratio(selftest[1] - selftest[2], selftest[1]),
    }
