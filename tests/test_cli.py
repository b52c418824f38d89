import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltwist import bench, cli, kernel
from cltwist.multivector import Algebra
from cltwist.tables import (
    MAX_DIM, render_block_letters, render_table, table_blocks,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestSign:
    def test_worked_example(self, capsys):
        assert run_cli("sign", "2636", "1143", "--mu", "-1") == 0
        assert capsys.readouterr().out == "-1\n"

    def test_scalar_pair(self, capsys):
        assert run_cli("sign", "0", "0") == 0
        assert capsys.readouterr().out == "+1\n"

    def test_positive_mu(self, capsys):
        assert run_cli("sign", "13", "6", "--mu", "+1") == 0
        assert capsys.readouterr().out == "-1\n"

    def test_default_mu_is_negative(self, capsys):
        run_cli("sign", "13", "6")
        assert capsys.readouterr().out == "+1\n"

    @pytest.mark.parametrize("algo", ["oracle", "recursive", "tree", "closed"])
    def test_algo_selection(self, capsys, algo):
        assert run_cli("sign", "2636", "1143", "--algo", algo) == 0
        assert capsys.readouterr().out == "-1\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("sign", "abc", "3"),
            ("sign", "-5", "3"),
            ("sign", "3",),
            ("sign", "3", "4", "--mu", "sym"),
            ("sign", "3", "4", "--algo", "magic"),
            ("sign", str(1 << 64), "0"),
        ],
    )
    def test_usage_errors(self, capsys, args):
        assert run_cli(*args) == 2
        assert capsys.readouterr().err != ""


class TestMul:
    def test_worked_example(self, capsys):
        assert run_cli("mul", "e_347ac * e_123567b", "--mu", "-1") == 0
        assert capsys.readouterr().out == "-e_{12456abc}\n"

    def test_small_product(self, capsys):
        assert run_cli("mul", "e_134 * e_23", "--mu", "-1") == 0
        assert capsys.readouterr().out == "e_{124}\n"

    def test_trivial(self, capsys):
        assert run_cli("mul", "1 * 1") == 0
        assert capsys.readouterr().out == "1\n"

    def test_i_form_output(self, capsys):
        assert run_cli("mul", "i_2636 * i_1143", "--mu", "-1", "--i-form") == 0
        assert capsys.readouterr().out == "-i_3643\n"

    def test_sum_canonicalization(self, capsys):
        run_cli("mul", "e_2 + e_1 + e_2")
        assert capsys.readouterr().out == "e_{1} + 2 e_{2}\n"

    def test_terms_ascend_by_index(self, capsys):
        run_cli("mul", "e_12 + e_3 + 1")
        assert capsys.readouterr().out == "1 + e_{12} + e_{3}\n"

    def test_zero(self, capsys):
        run_cli("mul", "e_1 - e_1")
        assert capsys.readouterr().out == "0\n"

    def test_parse_error_exit_2(self, capsys):
        assert run_cli("mul", "e_1 + + e_2") == 2
        err = capsys.readouterr().err
        assert "at byte" in err

    def test_bad_blade_diagnostic(self, capsys):
        assert run_cli("mul", "e_11") == 2
        assert "at byte 0" in capsys.readouterr().err

    def test_kelvin_sign_is_not_generator_k(self, capsys):
        # str.lower() folds U+212A to k; the subscript must not
        assert run_cli("mul", "e_\u212a") == 2
        assert capsys.readouterr().err == (
            "cltwist mul: invalid generator character '\u212a' in"
            " 'e_\u212a' (at byte 0)\n"
        )

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("i_" + "7" * 5000, "5000 digits does not fit in 64 bits"),
            ("7" * 5000 + " e_1", "5000 digits is too long"),
        ],
    )
    @pytest.mark.usefixtures("default_int_digit_limit")
    def test_long_digit_string_exit_2(self, capsys, expr, message):
        assert run_cli("mul", expr) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "at byte 0" in captured.err

    @pytest.mark.usefixtures("default_int_digit_limit")
    def test_result_past_digit_limit_exit_2(self, capsys):
        # 3000-digit factors parse; their 6000-digit product cannot print
        sevens = "7" * 3000
        assert run_cli("mul", f"{sevens} * {sevens}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("cltwist mul: ")
        assert f"{sys.get_int_max_str_digits()} digits" in captured.err

    def test_leading_zeros_in_index_form(self, capsys):
        assert run_cli("mul", "i_" + "0" * 5000 + "1") == 0
        assert capsys.readouterr().out == "e_{1}\n"

    def test_high_generator_falls_back_to_i_form(self, capsys):
        blade = 1 << 40  # generator 41, beyond the e-form alphabet
        assert run_cli("mul", f"i_1 * i_{blade}") == 0
        assert capsys.readouterr().out == f"i_{blade | 1}\n"

    def test_output_reparses_to_same_value(self, capsys):
        from cltwist.multivector import Algebra

        expr = "1/2 e_12 * e_23 - 7 e_1 + 3/4"
        run_cli("mul", expr, "--mu", "+1")
        printed = capsys.readouterr().out.strip()
        alg = Algebra(mu=1)
        assert alg.parse(printed) == alg.parse(expr)


class TestTable:
    def test_symbolic_dimension_1(self, capsys):
        assert run_cli("table", "1", "--mu", "sym") == 0
        assert capsys.readouterr().out == "1 1\n1 m\n"

    def test_csv_negative_mu(self, capsys):
        assert run_cli("table", "2", "--mu", "-1", "--format", "csv") == 0
        out = capsys.readouterr().out
        assert out == "1,1,1,1\n1,-1,1,-1\n1,-1,-1,1\n1,1,-1,-1\n"

    def test_blocks_view(self, capsys):
        assert run_cli("table", "4", "--blocks") == 0
        out = capsys.readouterr().out
        assert out.startswith("A A A A A A A A\n")
        assert out.splitlines()[1] == "B mB B mB B mB B mB"
        assert len(out.splitlines()) == 8

    def test_blocks_csv(self, capsys):
        run_cli("table", "2", "--blocks", "--format", "csv")
        assert capsys.readouterr().out == "A,A\nB,mB\n"

    def test_default_mu_substitution(self, capsys):
        run_cli("table", "1")
        assert capsys.readouterr().out == "1 1\n1 -1\n"

    def test_streamed_output_equals_render(self, capsys):
        # n = 9 spans two 256-row chunks
        assert run_cli("table", "9", "--format", "csv", "--mu", "+1") == 0
        out = capsys.readouterr().out
        assert out == render_table(table_blocks(9), "csv", 1)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
    def test_streamed_letters_equal_render(self, capsys, n, fmt):
        # the writes are cut every 256 rows of the piece grid, whose
        # width follows the tile width, so every n and both formats
        assert run_cli("table", str(n), "--blocks", "--format", fmt) == 0
        assert capsys.readouterr().out == render_block_letters(n, fmt)

    def test_streamed_symbolic_equals_render(self, capsys):
        assert run_cli("table", "10", "--mu", "sym") == 0
        out = capsys.readouterr().out
        assert out == render_table(table_blocks(10), "text", None)

    @pytest.mark.parametrize("mu", ["+1", "-1", "sym"])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_output_equals_render_of_the_block_table(self, capsys, n, fmt, mu):
        # the command builds with table_direct; table_blocks is the
        # independent construction it must agree with
        assert run_cli("table", str(n), "--format", fmt, "--mu", mu) == 0
        out = capsys.readouterr().out
        assert out == render_table(table_blocks(n), fmt, cli._MU_VALUES[mu])

    @pytest.mark.parametrize("argv", [
        ["--mu", "-1"], ["--mu", "sym"], ["--blocks"],
        ["--mu", "+1", "--format", "csv"],
    ])
    def test_streams_at_most_256_rows_per_write(self, monkeypatch, argv):
        # the command never holds the text of the whole table: each write
        # is a run of whole rows, at most 256 of them
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli("table", "10", *argv) == 0
        lines = [text.count("\n") for text in stdout.writes]
        assert len(lines) > 1 and max(lines) <= 256
        assert all(text.endswith("\n") for text in stdout.writes)
        assert sum(lines) == (512 if "--blocks" in argv else 1024)

    @pytest.mark.parametrize("argv", [
        ["--mu", "sym"], ["--mu", "sym", "--format", "csv"],
        ["--mu", "+1"], ["--mu", "-1", "--format", "csv"],
    ])
    def test_table_12_never_builds_the_grid(self, monkeypatch, argv):
        # the direct table is rendered from its generator rows, so the
        # command's peak stays below the 16 MiB grid it never builds
        import tracemalloc

        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            assert run_cli("table", str(MAX_DIM), *argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 2 * MAX_DIM

    def test_closed_pipe_exits_141_silently(self, child_env):
        # the reader takes one line and goes away while the writer still
        # has megabytes of table to send
        proc = subprocess.Popen(
            [sys.executable, "-m", "cltwist", "table", "11"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        )
        assert proc.stdout.readline().startswith(b"1 1 1 ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""  # no traceback
        assert proc.returncode == 141

    def test_out_of_range(self, capsys):
        assert run_cli("table", "13") == 2
        assert run_cli("table", "0") == 2
        capsys.readouterr()

    def test_blocks_needs_dimension_2(self, capsys):
        assert run_cli("table", "1", "--blocks") == 2
        assert "at least 2" in capsys.readouterr().err


class TestTrace:
    def test_worked_example(self, capsys):
        assert run_cli("trace", "2636", "1143", "--mu", "-1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        states = [line.split("-> ")[1] for line in lines[:12]]
        assert states == [
            "B", "-B", "-A", "-A", "-A", "B",
            "-B", "B", "A", "-B", "B", "-B",
        ]
        assert lines[0] == "(1,0) -> B"
        assert lines[-1] == "clf = -1"

    def test_scalar_pair(self, capsys):
        assert run_cli("trace", "0", "0") == 0
        assert capsys.readouterr().out == "clf = +1\n"

    def test_single_step(self, capsys):
        assert run_cli("trace", "1", "1", "--mu", "-1") == 0
        assert capsys.readouterr().out == "(1,1) -> -B\nclf = -1\n"

    def test_agrees_with_sign(self, capsys):
        for p, q in ((7, 9), (100, 200), (12345, 54321)):
            run_cli("trace", str(p), str(q))
            trace_out = capsys.readouterr().out
            run_cli("sign", str(p), str(q))
            sign_out = capsys.readouterr().out.strip()
            assert trace_out.strip().endswith(f"clf = {sign_out}")


class TestSelftest:
    def test_small_run(self, capsys):
        assert run_cli("selftest", "--n", "4") == 0
        out = capsys.readouterr().out
        assert out == (
            "ok: 4x256 pairs x 2 mu, 0 mismatches\n"
            "ok: 4096 triples x 2 mu, 0 mismatches\n"
        )

    def test_injected_fault_exits_1(self, capsys, monkeypatch):
        real = kernel.twist_tree

        def broken(p, q, mu):
            if (p, q) == (6, 3):
                return -real(p, q, mu)
            return real(p, q, mu)

        monkeypatch.setitem(kernel.ALGORITHMS, "tree", broken)
        assert run_cli("selftest", "--n", "3") == 1
        out = capsys.readouterr().out
        assert out.startswith("mismatch: p=6 q=3")
        assert "tree=" in out

    def test_width_validated(self, capsys):
        assert run_cli("selftest", "--n", "0") == 2
        assert run_cli("selftest", "--n", "13") == 2
        capsys.readouterr()


class TestBench:
    def test_report_shape(self, capsys):
        assert run_cli("bench", "--pairs", "50") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        names = [line.split()[0] for line in lines]
        assert names == ["oracle", "recursive", "tree", "closed"]
        for line in lines:
            assert "ns/op" in line
            assert "(50 pairs)" in line

    def test_pairs_validated(self, capsys):
        assert run_cli("bench", "--pairs", "0") == 2
        capsys.readouterr()

    def test_json_report(self, child_env):
        # a fresh interpreter, to see that numpy stays unloaded
        out = _fresh_python(
            "import sys\n"
            "from cltwist import cli\n"
            "argv = ['bench', '--pairs', '50', '--mu', '+1', '--json']\n"
            "code = cli.main(argv)\n"
            "print(code, 'numpy' in sys.modules)\n",
            child_env,
        )
        *report, status = out.splitlines()
        assert status == "0 False"
        assert len(report) == 1
        data = json.loads(report[0])
        assert set(data) == {
            "seed", "pairs", "mu", "ns_per_op", "python", "platform",
            "cpu_count", "numpy",
        }
        workload = (data["seed"], data["pairs"], data["mu"])
        assert workload == (bench._SEED, 50, 1)
        assert list(data["ns_per_op"]) == list(kernel.ALGORITHMS)
        assert all(v > 0 for v in data["ns_per_op"].values())
        assert data["python"] == platform.python_version()
        assert data["cpu_count"] == os.cpu_count()
        assert data["numpy"] == metadata.version("numpy")

    def test_json_numpy_version_null_without_numpy(self, monkeypatch):
        def missing(name):
            raise metadata.PackageNotFoundError(name)

        monkeypatch.setattr(metadata, "version", missing)
        results = bench.run_bench(5, -1)
        assert json.loads(bench._json_report(results, -1))["numpy"] is None

    def test_workload_is_deterministic(self):
        from cltwist.bench import make_workload

        assert make_workload(100) == make_workload(100)
        ps, qs = make_workload(3)
        assert all(0 <= v < (1 << 64) for v in ps + qs)

    def test_workload_above_the_cap_refused_before_it_is_built(
        self, monkeypatch
    ):
        def no_random(seed):
            raise AssertionError("workload built")

        monkeypatch.setattr(bench.random, "Random", no_random)
        with pytest.raises(ValueError, match="^need at most 1000000 pairs"):
            bench.make_workload(10**6 + 1)
        assert bench.MAX_PAIRS == 10**6

    @pytest.mark.parametrize("pairs", [True, 2.0, 0], ids=repr)
    def test_pairs_is_exactly_a_positive_int(self, pairs):
        message = f"^need at least one pair, got {pairs!r}$"
        with pytest.raises(ValueError, match=message):
            bench.make_workload(pairs)
        with pytest.raises(ValueError, match=message):
            bench.run_bench(pairs)


class TestDispatch:
    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run_cli("sign", "1", "2", "--fast") == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "13"],
        ["table", "1", "--blocks"],
        ["table", "3", "--blocks", "--mu", "+1"],
        ["table", "3", "--blocks", "--mu", "-1"],
        ["selftest", "--n", "0"],
        ["bench", "--pairs", "0"],
        ["bench", "--pairs", "1000001"],
        ["sign", str(1 << 64), "0"],
        ["sign", "-5", "3"],
        ["trace", "-1", "2"],
        ["mul", "e_21"],
        ["mul", "e_\u212a"],
    ],
    ids=" ".join,
)
def test_input_outside_contract_is_one_error_line(capsys, argv):
    # argparse checks syntax only; the library rejects the value and
    # main reports it on one line, before anything reaches stdout
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"cltwist {argv[0]}: ")
    assert "Traceback" not in captured.err
    assert "usage:" not in captured.err


def _declared_console_script(name):
    """The console-script entry point that pyproject.toml declares as *name*."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] in pyproject.toml has no {name!r}"
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def _write_launcher(bin_dir, entry_point):
    """Write the launcher an installer generates for a console script."""
    bin_dir.mkdir()
    path = bin_dir / entry_point.name
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry_point.module} import {entry_point.attr}\n"
        f"sys.exit({entry_point.attr}())\n"
    )
    path.chmod(0o755)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sign", "1", "2"], ["table", "3"], ["table", "12"],
    ["selftest", "--n", "2"],
])
def test_write_error_exits_74_with_one_line(child_env, argv):
    # a write that fails for want of space is not a self-test failure
    # (exit 1) and prints no traceback
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "cltwist", *argv], stdout=full,
            stderr=subprocess.PIPE, env=child_env, timeout=60,
        )
    assert proc.stderr.decode() == (
        f"cltwist {argv[0]}: [Errno 28] No space left on device\n"
    )
    assert proc.returncode == 74


def _run_redirected(child_env, redirects, argv, **kwargs):
    """Run ``python -m cltwist`` under sh with ``redirects`` applied to
    it, so that ``>&-`` closes fd 1 before the interpreter starts."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirects}', "sh",
         sys.executable, "-m", "cltwist", *argv],
        env=child_env, timeout=60, **kwargs,
    )


needs_sh = pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")


@needs_sh
@pytest.mark.parametrize("argv", [
    ["sign", "1", "2"], ["table", "3"], ["selftest", "--n", "3"],
    ["mul", "e_1"],
])
def test_closed_stdout_exits_74_with_one_line(child_env, argv):
    # the interpreter then has no sys.stdout to write to at all
    proc = _run_redirected(child_env, ">&-", argv, stderr=subprocess.PIPE)
    assert proc.stderr.decode() == f"cltwist {argv[0]}: stdout is closed\n"
    assert proc.returncode == 74


@needs_sh
@pytest.mark.parametrize("argv", [["mul", "e_"], ["sign"]])
def test_closed_stderr_keeps_the_exit_code_and_stdout_clean(child_env, argv):
    # a complaint with nowhere to go is dropped, not printed on stdout;
    # argparse's usage error too
    proc = _run_redirected(child_env, "2>&-", argv, stdout=subprocess.PIPE)
    assert proc.stdout == b""
    assert proc.returncode == 2


@needs_sh
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_with_closed_stderr_exits_74(child_env):
    proc = _run_redirected(child_env, "2>&- >/dev/full", ["table", "3"])
    assert proc.returncode == 74


@needs_sh
def test_closed_stdout_and_stderr_exit_74(child_env):
    proc = _run_redirected(child_env, ">&- 2>&-", ["sign", "1", "2"])
    assert proc.returncode == 74


@needs_sh
@pytest.mark.parametrize("argv", [["sign"], ["sign", "--bogus", "1", "2"]])
def test_read_only_stderr_keeps_the_usage_exit_code(child_env, argv):
    # fd 2 open but not for writing, as a launcher may leave it: the
    # usage error is lost, not raised (argparse on 3.10 lets the write's
    # OSError out) and not printed on stdout
    proc = _run_redirected(child_env, "2</dev/null", argv,
                           stdout=subprocess.PIPE)
    assert proc.stdout == b""
    assert proc.returncode == 2


def test_console_script_installed(tmp_path, child_env):
    # What an install would put on PATH, built from the declaration in
    # pyproject.toml, so a source checkout checks it without installing.
    entry_point = _declared_console_script("cltwist")
    assert callable(entry_point.load())
    _write_launcher(tmp_path / "bin", entry_point)
    child_env["PATH"] = os.pathsep.join(
        [str(tmp_path / "bin"), child_env.get("PATH", "")]
    )

    out = subprocess.run(
        ["cltwist", "sign", "2636", "1143", "--mu", "-1"],
        capture_output=True, text=True, env=child_env,
    )
    assert out.returncode == 0
    assert out.stdout == "-1\n"

    # exit code 2 reaches the shell only through main()'s return value
    out = subprocess.run(
        ["cltwist", "mul", "e_21"],
        capture_output=True, text=True, env=child_env,
    )
    assert out.returncode == 2
    assert out.stderr != ""


@pytest.mark.skipif(
    shutil.which("cltwist") is None, reason="cltwist is not installed on PATH"
)
def test_console_script_on_path(child_env):
    out = subprocess.run(
        ["cltwist", "sign", "2636", "1143", "--mu", "-1"],
        capture_output=True, text=True, env=child_env,
    )
    assert out.returncode == 0
    assert out.stdout == "-1\n"


def test_python_dash_m_entry(child_env):
    out = subprocess.run(
        [sys.executable, "-m", "cltwist", "mul", "e_134 * e_23", "--mu", "-1"],
        capture_output=True, text=True, env=child_env,
    )
    assert out.returncode == 0
    assert out.stdout == "e_{124}\n"


# numpy is for the table layer only: the self-test works on bit planes,
# Python ints.  dataclasses, which loads inspect, is used nowhere.  Each
# check runs in a fresh interpreter, since this process has long since
# imported them.

_UNLOADED = (
    "print([m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')])"
)


def _fresh_python(code, env):
    """stdout of ``python -c code`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_leaves_numpy_unloaded(child_env):
    out = _fresh_python("import sys, cltwist\n" + _UNLOADED, child_env)
    assert out == "[False, False, False]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sign", "2636", "1143", "--mu", "-1"],
        ["mul", "e_134 * e_23", "--mu", "-1"],
        ["trace", "5", "3", "--mu", "+1"],
        ["bench", "--pairs", "100"],
        ["selftest", "--n", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_leaves_numpy_unloaded(child_env, argv):
    out = _fresh_python(
        "import sys\n"
        "from cltwist import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code)\n" + _UNLOADED,
        child_env,
    )
    assert out.splitlines()[-2:] == ["0", "[False, False, False]"]


def test_import_loads_only_the_kernel(child_env):
    # against a snapshot, so that what site preloads does not count
    out = _fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cltwist\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if m.startswith('cltwist')))\n"
        "print(sorted(added & {'cltwist._record', 'cltwist.bench',"
        " 'fractions', 'decimal', 'numpy', '__future__'}))\n",
        child_env,
    )
    assert out == "['cltwist', 'cltwist.kernel']\n[]\n"


# Building the parser needs only the kernel; each handler imports the
# layers it uses.
_LAYERS = ("cltwist.multivector", "cltwist.notation", "cltwist.bench")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["sign", "2636", "1143"], [False, False, False],
                     id="sign"),
        pytest.param(["trace", "5", "3"], [False, False, False], id="trace"),
        pytest.param(["selftest", "--n", "4"], [False, False, False],
                     id="selftest"),
        pytest.param(["bench", "--pairs", "100"], [False, False, True],
                     id="bench"),
        pytest.param(["mul", "e_134 * e_23"], [True, True, False], id="mul"),
    ],
)
def test_command_loads_only_its_layers(child_env, argv, loaded):
    out = _fresh_python(
        "import sys\n"
        "from cltwist import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code)\n"
        f"print([m in sys.modules for m in {_LAYERS!r}])\n",
        child_env,
    )
    assert out.splitlines()[-2:] == ["0", str(loaded)]


def test_run_selftest_leaves_numpy_unloaded(child_env):
    out = _fresh_python(
        "import sys\n"
        "from cltwist import run_selftest\n"
        "print(run_selftest(6).ok)\n" + _UNLOADED,
        child_env,
    )
    assert out == "True\n[False, False, False]\n"


def test_tables_import_leaves_the_self_test_unloaded(child_env):
    # the table layer checks bilinearity with its own extension, so it
    # loads none of the self-test's plane code
    out = _fresh_python(
        "import sys, cltwist.tables\n"
        "print([m in sys.modules for m in ('cltwist._batch',"
        " 'cltwist.selftest')])\n",
        child_env,
    )
    assert out == "[False, False]\n"


def test_star_import_and_dir_cover_all(child_env):
    # dir() first: the star import caches every lazy name it binds
    out = _fresh_python(
        "import cltwist\n"
        "print(sorted(set(cltwist.__all__) - set(dir(cltwist))))\n"
        "names = {}\n"
        "exec('from cltwist import *', names)\n"
        "print(sorted(set(cltwist.__all__) - set(names)))\n",
        child_env,
    )
    assert out == "[]\n[]\n"


# The public contract, written here a second time on purpose: every name
# the package exports, in order, with the module that defines it.
_PUBLIC = {
    "ALGORITHMS": "kernel",
    "Algebra": "multivector",
    "ExpressionSyntaxError": "notation",
    "MAX_DIM": "kernel",
    "MalformedBladeError": "notation",
    "Multivector": "multivector",
    "NotationError": "notation",
    "SymbolicSign": "tables",
    "TraceStep": "kernel",
    "TwistTable": "tables",
    "UnrepresentableError": "notation",
    "blade_product": "kernel",
    "format_blade": "notation",
    "grade": "kernel",
    "grade_sign": "kernel",
    "parse_blade": "notation",
    "parse_expression": "notation",
    "render_block_letters": "tables",
    "render_table": "tables",
    "run_selftest": "selftest",
    "table_blocks": "tables",
    "table_direct": "tables",
    "tree_trace": "kernel",
    "twist": "kernel",
    "twist_closed": "kernel",
    "twist_oracle": "kernel",
    "twist_recursive": "kernel",
    "twist_symbolic": "tables",
    "twist_tree": "kernel",
}


def test_all_is_the_public_contract():
    import cltwist

    assert cltwist.__all__ == [*_PUBLIC, "__version__"]


def test_lazy_name_is_the_submodule_object(child_env):
    # every public name, read from the package, is the object of the
    # module that defines it
    out = _fresh_python(
        "import importlib, cltwist\n"
        f"public = {_PUBLIC!r}\n"
        "values = {name: getattr(cltwist, name) for name in public}\n"
        "print([name for name, module in public.items() if values[name]"
        " is not getattr(importlib.import_module(f'cltwist.{module}'),"
        " name)])\n",
        child_env,
    )
    assert out == "[]\n"


def test_lazy_error_class_catches_the_notation_error(child_env):
    out = _fresh_python(
        "import cltwist\n"
        "try:\n"
        "    cltwist.Algebra(-1).parse('e_21')\n"
        "except cltwist.NotationError as exc:\n"
        "    print(type(exc).__name__)\n",
        child_env,
    )
    assert out == "ExpressionSyntaxError\n"


def test_multivector_unpickles_after_a_bare_import(child_env):
    text = "1/2 e_{12} - 3 e_4 + 7"
    data = pickle.dumps(Algebra(-1).parse(text))
    out = _fresh_python(
        "import pickle, sys\n"
        "import cltwist\n"
        "print('cltwist.multivector' in sys.modules)\n"
        f"value = pickle.loads({data!r})\n"
        f"print(value == cltwist.Algebra(-1).parse({text!r}))\n",
        child_env,
    )
    assert out == "False\nTrue\n"


def test_unknown_name_raises_attribute_error(child_env):
    out = _fresh_python(
        "import cltwist\n"
        "try:\n"
        "    cltwist.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n",
        child_env,
    )
    assert "no_such_name" in out


# --- the CLI contract, fuzzed ---------------------------------------------

#: Masks near both ends of the 64-bit range, a few past each end.
_MASKS = st.integers(-2, 1 << 10) | st.integers((1 << 64) - (1 << 10), (1 << 64) + 2)

#: Table and self-test widths: every accepted one up to 10, so that an
#: example stays fast, and out-of-range ones on both sides.
_WIDTHS = st.integers(0, 10) | st.just(13)

#: Each numeric ``--mu`` spelling with the mu it means, and the
#: symbolic ones, which only ``table`` takes.
_MU_FLAGS = [
    ([], -1), (["--mu", "+1"], 1), (["--mu", "-1"], -1), (["--mu=+1"], 1),
    (["--mu=-1"], -1),
]
_SYMBOLIC_MU_FLAGS = [([], None), (["--mu", "sym"], None), (["--mu=sym"], None)]

_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")

_GENERATORS = "123456789abcdefghijklmnopqrstuvwxyz"


def _usually(draw, right, wrong):
    """One of ``right``, or one of ``wrong`` in one example in 16."""
    return draw(st.sampled_from(wrong if draw(st.integers(0, 15)) == 15 else right))


@st.composite
def _int_arg(draw, values):
    """An int argument: mostly a spelling that ``int()``, and so
    argparse, reads; now and then one it refuses."""
    value = draw(values)
    return _usually(draw, [
        str(value), f" {value} ", f"{value:_}", f"0{value}", f"+{value}",
        str(value).translate(_ARABIC_INDIC),
    ], ["", "x", hex(value), f"{value}.0"])


@st.composite
def _expression(draw):
    """Text from the notation grammar, with a noise character inserted
    into one example in three."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["rational", "e", "i", "both"]))
            factor = []
            if kind in ("rational", "both"):
                num = draw(st.integers(0, 99))
                den = draw(st.integers(0, 9))
                factor.append(f"{num}/{den}" if den != 1 else str(num))
            if kind == "i":
                factor.append(f"i_{draw(_MASKS)}")
            elif kind != "rational":
                gens = draw(st.sets(st.sampled_from(_GENERATORS), min_size=1, max_size=5))
                factor.append("e_{%s}" % "".join(sorted(gens, key=_GENERATORS.index)))
            factors.append(" ".join(factor))
        terms.append(" * ".join(factors))
    # a leading "-" with no space after it reads as an option to argparse
    text = draw(st.sampled_from(["", "- ", "-"])) + draw(
        st.sampled_from([" + ", " - ", "+"])).join(terms)
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(text)))
        noise = draw(st.sampled_from(list("+-*/_{}()eiz0 \t\n?\xa0\u212a")))
        text = text[:at] + noise + text[at:]
    return text


def _arranged(draw, positionals, options):
    """argv tail: the option chunks in any order, split around the
    positionals, which keep theirs."""
    chunks = draw(st.permutations(options))
    cut = draw(st.integers(0, len(chunks)))
    head = [arg for chunk in chunks[:cut] for arg in chunk]
    tail = [arg for chunk in chunks[cut:] for arg in chunk]
    return head + positionals + tail


@st.composite
def _cli_cases(draw):
    """(argv, check): check(stdout) holds of any run that exits 0, whose
    int arguments ``int()`` reads, as argparse does."""
    command = draw(st.sampled_from(["sign", "mul", "trace", "table", "selftest"]))
    flags = _MU_FLAGS + _SYMBOLIC_MU_FLAGS if command == "table" else _MU_FLAGS
    mu_flag, mu = _usually(draw, flags, [(["--mu=1"], 1), (["--mu", "m"], None)])
    if command in ("sign", "trace"):
        p, q = draw(_int_arg(_MASKS)), draw(_int_arg(_MASKS))
        options = [mu_flag]
        if command == "sign":
            algo = _usually(draw, sorted(kernel.ALGORITHMS), ["fast", "Closed"])
            options.append(["--algo", algo])

            def check(out):
                assert out == f"{kernel.twist(int(p), int(q), mu):+d}\n"
        else:
            def check(out):
                sign = kernel.twist_tree(int(p), int(q), mu)
                assert out.splitlines()[-1] == f"clf = {sign:+d}"
        return [command] + _arranged(draw, [p, q], options), check
    if command == "mul":
        expr = draw(_expression())
        options = [mu_flag] + draw(st.sampled_from([[], [["--i-form"]]]))

        def check(out):
            algebra = Algebra(mu)
            assert algebra.parse(out) == algebra.parse(expr)

        return [command] + _arranged(draw, [expr], options), check
    n = draw(_int_arg(_WIDTHS))
    if command == "selftest":
        def check(out):
            assert out == (
                f"ok: 4x{4 ** int(n)} pairs x 2 mu, 0 mismatches\n"
                f"ok: {8 ** int(n)} triples x 2 mu, 0 mismatches\n"
            )

        return [command, "--n", n], check
    blocks = draw(st.booleans())
    fmt = _usually(draw, ["text", "csv"], ["tsv"])
    options = [mu_flag, ["--format", fmt]] + [["--blocks"]] * blocks

    def check(out):
        assert out.count("\n") == 1 << (int(n) - blocks)

    return [command] + _arranged(draw, [n], options), check


def test_cli_contract_fuzz(capsys):
    """argv from each command's grammar, run in process: argparse errors
    exit 2 by SystemExit; the library's refusals return 2 with nothing
    on stdout and one ``cltwist <command>: `` line on stderr; a success
    prints what the library computes.  A fixed 300 examples, widths up
    to 10 and no ``bench`` keep this to a few seconds of tier-1."""
    codes = []

    @settings(max_examples=300, deadline=None)
    @given(case=_cli_cases())
    def run(case):
        argv, check = case
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            out, err = capsys.readouterr()
            assert exc.code == 2 and out == "" and err.startswith("usage: ")
            codes.append("argparse")
            return
        out, err = capsys.readouterr()
        codes.append(code)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.startswith(f"cltwist {argv[0]}: ")
            assert err.endswith("\n") and err.count("\n") == 1
        elif code == 0:
            assert err == ""
            check(out)

    run()
    # most examples get past argparse, and many of them succeed
    assert codes.count("argparse") < len(codes) / 3
    assert codes.count(0) > len(codes) / 4
