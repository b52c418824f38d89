import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python that imports cltwist from this checkout.

    ``src`` goes first on PYTHONPATH, so a subprocess finds the package
    whatever the caller's PYTHONPATH is, and also when it is unset.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def default_int_digit_limit():
    """CPython's default int-string digit limit (4300) for one test.

    Tests that cross the limit assume its default; this holds them to it
    whatever PYTHONINTMAXSTRDIGITS the caller runs with.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def table_difference():
    """A function naming where two twist tables differ, for an assert
    message: n, the first differing cell (p, q) in row-major order and
    both codes there (the two widths, if those differ)."""

    def describe(got, want):
        if got.n != want.n:
            return f"n = {got.n} against n = {want.n}"
        off = got.codes != want.codes
        if not off.any():
            return f"n = {got.n}: every cell is equal"
        p, q = divmod(int(off.argmax()), 1 << got.n)
        return (
            f"n = {got.n}: first differing cell (p, q) = ({p}, {q}),"
            f" code {got.codes[p, q]} against {want.codes[p, q]}"
        )

    return describe
