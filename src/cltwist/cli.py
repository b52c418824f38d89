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
full disk, or stdout is closed at start-up, 141 (128 + SIGPIPE) when
the reader closes the pipe before the output is written, as ``| head``
does.  Each holds with stderr closed, or open only for reading, too:
the complaint is then lost.

argparse checks the syntax of the arguments, and that ``--mu``,
``--format`` and ``--algo`` are among their choices.  The ranges of the
other arguments are checked by the library itself: a handler that gets
a ValueError (NotationError is one) writes nothing to stdout, and
:func:`main` prints ``cltwist <command>: <message>`` on one stderr
line.  The one check of the CLI's own, a numeric ``--mu`` with
``table --blocks``, raises the same way.

Building the parser needs only the kernel.  Each handler imports the
layers it uses: ``mul`` the multivectors and the notation, ``table``
the table module (and numpy, which no other command loads),
``selftest`` the self-test, which works on bit planes without numpy,
and ``bench`` the benchmark module.  ``sign`` and ``trace`` use the
kernel alone.
"""

import argparse
import os
import sys
from typing import List, Optional

from .kernel import ALGORITHMS, DEFAULT_N, DEFAULT_PAIRS, tree_trace

__all__ = ["main"]

#: Exit status when stdout closes early: 128 + SIGPIPE, as a shell
#: reports a process the signal killed.
_EXIT_BROKEN_PIPE = 141

#: Exit status when writing stdout fails otherwise: sysexits EX_IOERR.
_EXIT_IO_ERROR = 74

_MU_VALUES = {"+1": 1, "-1": -1, "sym": None}

#: Rows of a table per write to stdout: the memory ``table`` holds for
#: its text scales with it, not with the table.
_WRITE_ROWS = 256


def _add_mu(parser, symbolic: bool = False):
    # None where "sym" is a choice, so that a command can tell an
    # explicit --mu from the default
    parser.add_argument(
        "--mu", choices=[k for k, mu in _MU_VALUES.items() if symbolic or mu],
        default=None if symbolic else "-1",
        help="generator square (default -1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltwist",
        description="Blade sign kernel, twist tables and multivectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sign = sub.add_parser("sign", help="twist sign of a blade pair")
    p_sign.set_defaults(run=_cmd_sign)
    p_sign.add_argument("p", type=int)
    p_sign.add_argument("q", type=int)
    _add_mu(p_sign)
    p_sign.add_argument(
        "--algo", choices=sorted(ALGORITHMS), default="closed",
        help="sign algorithm (default closed)",
    )

    p_mul = sub.add_parser("mul", help="evaluate a multivector expression")
    p_mul.set_defaults(run=_cmd_mul)
    p_mul.add_argument("expr")
    _add_mu(p_mul)
    p_mul.add_argument(
        "--i-form", action="store_true",
        help="print blades as i_<index> instead of e-form",
    )

    p_table = sub.add_parser("table", help="print a twist table")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("n", type=int)
    _add_mu(p_table, symbolic=True)
    p_table.add_argument(
        "--format", choices=["text", "csv"], default="text",
    )
    p_table.add_argument(
        "--blocks", action="store_true",
        help="half-resolution letter view (always symbolic: no --mu +1/-1)",
    )

    p_trace = sub.add_parser("trace", help="tree walk of a blade pair")
    p_trace.set_defaults(run=_cmd_trace)
    p_trace.add_argument("p", type=int)
    p_trace.add_argument("q", type=int)
    _add_mu(p_trace)

    p_self = sub.add_parser("selftest", help="exhaustive consistency suites")
    p_self.set_defaults(run=_cmd_selftest)
    p_self.add_argument(
        "--n", type=int, default=DEFAULT_N,
        help=f"bit width: checks all pairs below 2**n (default {DEFAULT_N})",
    )

    p_bench = sub.add_parser("bench", help="time the sign algorithms")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument(
        "--pairs", type=int, default=DEFAULT_PAIRS,
        help=f"workload size (default {DEFAULT_PAIRS})",
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
    from .multivector import Algebra
    from .notation import UnrepresentableError

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
        if args.mu not in (None, "sym"):
            raise ValueError(
                f"--blocks is always symbolic, not --mu {args.mu}"
            )
        grid = tables._letter_pieces(args.n, args.format)
    else:
        table = tables.table_direct(args.n)
        grid = tables._table_pieces(
            table, args.format, _MU_VALUES[args.mu or "-1"]
        )
    # _WRITE_ROWS rows per write, so that no str of the whole text is
    # built; str, not bytes to sys.stdout.buffer: callers may capture
    # stdout with a text-only stream
    for start in range(0, len(grid), _WRITE_ROWS):
        rows = grid[start:start + _WRITE_ROWS]
        sys.stdout.write("".join(rows.ravel().tolist()))
    return 0


def _cmd_trace(args) -> int:
    mu = _MU_VALUES[args.mu]
    steps = tree_trace(args.p, args.q, mu)
    for step in steps:
        print(f"({step.bit_p},{step.bit_q}) -> {step.state}")
    print(f"clf = {steps[-1].sign if steps else 1:+d}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    report = selftest.run_selftest(args.n)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    from . import bench

    mu = _MU_VALUES[args.mu]
    results = bench.run_bench(args.pairs, mu)
    if args.json:
        print(bench._json_report(results, mu))
    else:
        sys.stdout.write(bench.format_report(results))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:  # a write of no bytes fails where fd 2 is not open for writing
        os.write(sys.stderr.fileno(), b"")
    except ValueError:  # io.UnsupportedOperation: a stream with no fd
        pass
    except (AttributeError, OSError):
        # sys.stderr is None (fd 2 was closed when the interpreter
        # started) or cannot be written: argparse would print a usage
        # error on stdout, or on 3.10 raise; as sys.stderr the file is
        # closed at exit
        sys.stderr = open(os.devnull, "w")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        _complain(args, "stdout is closed")
        return _EXIT_IO_ERROR
    try:
        code = args.run(args)
        # flush here, so that a closed pipe raises inside this try
        sys.stdout.flush()
    except ValueError as exc:
        _complain(args, exc)
        return 2
    except BrokenPipeError:
        # The reader went away.
        _drop_stdout()
        return _EXIT_BROKEN_PIPE
    except OSError as exc:
        _complain(args, exc)
        _drop_stdout()
        return _EXIT_IO_ERROR
    return code


def _complain(args, message):
    """Print ``cltwist <command>: <message>`` on one stderr line, if it
    can: with stderr closed the line is lost, and the exit code says it
    alone."""
    try:
        print(f"cltwist {args.command}: {message}", file=sys.stderr)
    except OSError:  # fd 2 reused by a file not open for writing
        pass


def _drop_stdout():
    """Point stdout at devnull, so that the interpreter's flush at exit
    does not raise again and print a traceback (the recipe in the
    signal module's documentation)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
