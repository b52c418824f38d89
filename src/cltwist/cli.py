"""Command-line front end.

Subcommands:

  sign P Q        twist sign of a blade pair, printed as +1 or -1
  mul EXPR        evaluate a multivector expression, print it canonically
  table N         full twist table (or --blocks for the letter view)
  trace P Q       bit-pair walk of the tree algorithm, one line per step
  selftest        exhaustive four-way and cocycle suites
  bench           time the sign algorithms on a fixed random workload

Exit codes: 0 success, 1 self-test failure, 2 usage error or input
outside the library's contract (also a ``mul`` result too long to
print), 74 (sysexits ``EX_IOERR``) when writing stdout fails, as on a
full disk, 141 (128 + SIGPIPE) when stdout is closed before the output
is written, as by ``| head``.

argparse checks only the syntax of the arguments.  Their ranges are
checked by the library itself: a handler that gets a ValueError
(NotationError is one) writes nothing to stdout, and :func:`main`
prints ``cltwist <command>: <message>`` on one stderr line.

Only ``table`` needs numpy; its handler imports the table module, so
the other commands never load it.  ``selftest`` imports the self-test
module, which works on bit planes without numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import bench as bench_mod
from .kernel import ALGORITHMS, DEFAULT_N, tree_trace
from .multivector import Algebra
from .notation import UnrepresentableError

__all__ = ["main"]

#: Exit status when stdout closes early: 128 + SIGPIPE, as a shell
#: reports a process the signal killed.
_EXIT_BROKEN_PIPE = 141

#: Exit status when writing stdout fails otherwise: sysexits EX_IOERR.
_EXIT_IO_ERROR = 74

_MU_VALUES = {"+1": 1, "-1": -1, "sym": None}


def _add_mu(parser, symbolic: bool = False):
    choices = ["+1", "-1", "sym"] if symbolic else ["+1", "-1"]
    parser.add_argument(
        "--mu", choices=choices, default="-1",
        help="generator square (default -1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltwist",
        description="Blade sign kernel, twist tables and multivectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sign = sub.add_parser("sign", help="twist sign of a blade pair")
    p_sign.add_argument("p", type=int)
    p_sign.add_argument("q", type=int)
    _add_mu(p_sign)
    p_sign.add_argument(
        "--algo", choices=sorted(ALGORITHMS), default="closed",
        help="sign algorithm (default closed)",
    )

    p_mul = sub.add_parser("mul", help="evaluate a multivector expression")
    p_mul.add_argument("expr")
    _add_mu(p_mul)
    p_mul.add_argument(
        "--i-form", action="store_true",
        help="print blades as i_<index> instead of e-form",
    )

    p_table = sub.add_parser("table", help="print a twist table")
    p_table.add_argument("n", type=int)
    _add_mu(p_table, symbolic=True)
    p_table.add_argument(
        "--format", choices=["text", "csv"], default="text",
    )
    p_table.add_argument(
        "--blocks", action="store_true",
        help="half-resolution letter view (always symbolic)",
    )

    p_trace = sub.add_parser("trace", help="tree walk of a blade pair")
    p_trace.add_argument("p", type=int)
    p_trace.add_argument("q", type=int)
    _add_mu(p_trace)

    p_self = sub.add_parser("selftest", help="exhaustive consistency suites")
    p_self.add_argument(
        "--n", type=int, default=DEFAULT_N,
        help=f"bit width: checks all pairs below 2**n (default {DEFAULT_N})",
    )

    p_bench = sub.add_parser("bench", help="time the sign algorithms")
    p_bench.add_argument(
        "--pairs", type=int, default=bench_mod.DEFAULT_PAIRS,
        help=f"workload size (default {bench_mod.DEFAULT_PAIRS})",
    )
    _add_mu(p_bench)
    p_bench.add_argument(
        "--json", action="store_true",
        help="print one JSON object with the timings and the platform",
    )

    return parser


def _cmd_sign(args) -> int:
    func = ALGORITHMS[args.algo]
    print(f"{func(args.p, args.q, _MU_VALUES[args.mu]):+d}")
    return 0


def _cmd_mul(args) -> int:
    value = Algebra(_MU_VALUES[args.mu]).parse(args.expr)
    try:
        text = value.format("i" if args.i_form else "e")
    except UnrepresentableError:
        # generators past the e-form alphabet: fall back silently
        text = value.format("i")
    print(text)
    return 0


def _cmd_table(args) -> int:
    from . import tables

    if args.blocks:
        chunks = tables._letter_chunks(args.n, args.format)
    else:
        table = tables.table_direct(args.n)
        chunks = tables._table_chunks(table, args.format, _MU_VALUES[args.mu])
    # str, not bytes to sys.stdout.buffer: callers may capture stdout
    # with a text-only stream
    for pieces in chunks:
        sys.stdout.write("".join(pieces))
    return 0


def _cmd_trace(args) -> int:
    mu = _MU_VALUES[args.mu]
    steps = tree_trace(args.p, args.q, mu)
    sign = 1
    for step in steps:
        print(f"({step.bit_p},{step.bit_q}) -> {step.state}")
        sign = step.sign
    print(f"clf = {sign:+d}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    report = selftest.run_selftest(args.n)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    mu = _MU_VALUES[args.mu]
    results = bench_mod.run_bench(args.pairs, mu)
    if args.json:
        print(bench_mod._json_report(results, mu))
    else:
        sys.stdout.write(bench_mod.format_report(results))
    return 0


_DISPATCH = {
    "sign": _cmd_sign,
    "mul": _cmd_mul,
    "table": _cmd_table,
    "trace": _cmd_trace,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        # flush here, so that a closed pipe raises inside this try
        sys.stdout.flush()
    except ValueError as exc:
        print(f"cltwist {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.
        _drop_stdout()
        return _EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"cltwist {args.command}: {exc}", file=sys.stderr)
        _drop_stdout()
        return _EXIT_IO_ERROR
    return code


def _drop_stdout():
    """Point stdout at devnull, so that the interpreter's flush at exit
    does not raise again and print a traceback (the recipe in the
    signal module's documentation)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
