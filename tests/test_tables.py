import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cltwist import kernel
from cltwist.tables import (
    MAX_DIM,
    SymbolicSign,
    TwistTable,
    render_block_letters,
    render_table,
    table_blocks,
    table_direct,
    twist_symbolic,
)
from cltwist.tables import _LETTER_SPELL, _SPELL, _block_rounds

masks = st.integers(min_value=0, max_value=(1 << 64) - 1)

# Frozen renderings.  Row p of the dimension-n table holds the sign of
# i_p * i_q for q = 0 .. 2**n - 1, symbolic in the generator square m.
GOLDEN_1 = "1 1\n1 m\n"

GOLDEN_2 = (
    "1 1 1 1\n"
    "1 m 1 m\n"
    "1 -1 m -m\n"
    "1 -m m -1\n"
)

GOLDEN_3 = (
    "1 1 1 1 1 1 1 1\n"
    "1 m 1 m 1 m 1 m\n"
    "1 -1 m -m 1 -1 m -m\n"
    "1 -m m -1 1 -m m -1\n"
    "1 -1 -1 1 m -m -m m\n"
    "1 -m -1 m m -1 -m 1\n"
    "1 1 -m -m m m -1 -1\n"
    "1 m -m -1 m 1 -1 -m\n"
)

GOLDEN_4_LETTERS = (
    "A A A A A A A A\n"
    "B mB B mB B mB B mB\n"
    "B -B mB -mB B -B mB -mB\n"
    "A -mA mA -A A -mA mA -A\n"
    "B -B -B B mB -mB -mB mB\n"
    "A -mA -A mA mA -A -mA A\n"
    "A A -mA -mA mA mA -A -A\n"
    "B mB -mB -B mB B -B -mB\n"
)


class TestSymbolicSign:
    def test_four_distinct_values(self):
        values = {
            SymbolicSign(1, 0), SymbolicSign(-1, 0),
            SymbolicSign(1, 1), SymbolicSign(-1, 1),
        }
        assert len(values) == 4
        assert {str(v) for v in values} == {"1", "-1", "m", "-m"}

    def test_multiplication(self):
        m = SymbolicSign(1, 1)
        assert m * m == SymbolicSign(1, 0)  # mu squared is 1
        assert -m == SymbolicSign(-1, 1)
        assert str(SymbolicSign(-1, 0) * m) == "-m"

    def test_substitute(self):
        m = SymbolicSign(1, 1)
        assert m.substitute(1) == 1
        assert m.substitute(-1) == -1
        assert (-m).substitute(-1) == 1
        assert SymbolicSign(-1, 0).substitute(1) == -1

    def test_codes(self):
        for code in range(4):
            assert SymbolicSign.from_code(code).code == code
        with pytest.raises(ValueError):
            SymbolicSign.from_code(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolicSign(0, 0)
        with pytest.raises(ValueError):
            SymbolicSign(1, 2)
        with pytest.raises(ValueError):
            SymbolicSign(1, 1).substitute(0)
        with pytest.raises(ValueError):
            SymbolicSign(1, 1).substitute(True)
        with pytest.raises(ValueError):
            table_direct(1).substitute(True)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SymbolicSign(1, 1).sign = -1


@given(p=masks, q=masks)
def test_twist_symbolic_matches_kernel(p, q):
    s = twist_symbolic(p, q)
    assert s.substitute(1) == kernel.twist(p, q, 1)
    assert s.substitute(-1) == kernel.twist(p, q, -1)


class TestGoldenTables:
    def test_dimension_1(self):
        assert render_table(table_direct(1), "text", None) == GOLDEN_1

    def test_dimension_2(self):
        assert render_table(table_direct(2), "text", None) == GOLDEN_2

    def test_dimension_3(self):
        assert render_table(table_direct(3), "text", None) == GOLDEN_3

    def test_dimension_4_letter_view(self):
        assert render_block_letters(4) == GOLDEN_4_LETTERS

    def test_small_letter_grid(self):
        assert render_block_letters(2) == "A A\nB mB\n"

    def test_numeric_substitution(self):
        assert render_table(table_direct(1), "text", -1) == "1 1\n1 -1\n"
        assert render_table(table_direct(1), "text", 1) == "1 1\n1 1\n"

    def test_csv(self):
        out = render_table(table_direct(2), "csv", -1)
        rows = out.splitlines()
        assert rows[3] == "1,1,-1,-1"
        assert out.endswith("\n")
        assert "\r" not in out

    def test_entry_lookup(self):
        t = table_direct(3)
        assert t.entry(4, 3) == SymbolicSign(1, 0)
        assert t[1, 1] == SymbolicSign(1, 1)
        assert str(t[3, 3]) == "-1"


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_blocks_equal_direct(n):
    assert table_blocks(n) == table_direct(n)


def test_blocks_equal_direct_n8():
    assert table_blocks(8) == table_direct(8)


def test_blocks_peak_memory():
    # the 16 MiB result, plus the last round's codes and letters at a
    # quarter of that each: no letters grid or copy at full size
    tracemalloc.start()
    try:
        table_blocks(MAX_DIM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


def test_direct_peak_memory():
    # the 16 MiB result, plus one block of rows of working arrays
    tracemalloc.start()
    try:
        table_direct(MAX_DIM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


@pytest.mark.parametrize("n", range(1, 9))
def test_border_is_unit(n):
    t = table_direct(n)
    assert not t.codes[0, :].any()
    assert not t.codes[:, 0].any()


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_substitution_matches_kernel(n, mu):
    got = table_direct(n).substitute(mu)
    size = 1 << n
    for p in range(size):
        for q in range(size):
            assert got[p, q] == kernel.twist(p, q, mu)


def test_substitution_is_int8_pm1():
    s = table_blocks(6).substitute(-1)
    assert s.dtype == np.int8
    assert set(np.unique(s)) == {-1, 1}


def _closed_form_letters(n):
    """Letter view read off the closed form: the twist of (p, q) as the
    coefficient, and letter A or B by the grade parity of row p."""
    codes = table_direct(n - 1).codes
    row_par = np.bitwise_count(np.arange(codes.shape[0], dtype=np.uint32)) & 1
    letters = np.broadcast_to(
        row_par.astype(np.int8).reshape(-1, 1), codes.shape
    )
    return codes, letters


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_letter_grid_against_substitution_rounds(n):
    # growing the blocks and reading the grid off the closed form must
    # agree; coefficients commute with the letters, so the order of
    # scaling and substitution cannot matter
    grown = _block_rounds(np.zeros((1, 1), dtype=np.int8), n - 1)
    codes, letters = _closed_form_letters(n)
    assert np.array_equal(grown & 3, codes)
    assert np.array_equal(grown >> 2, letters)


def test_letter_assignment_follows_grade_parity():
    letters = _block_rounds(np.zeros((1, 1), dtype=np.int8), 3) >> 2
    for p in range(8):
        expected = p.bit_count() & 1
        assert (letters[p] == expected).all()


def _times(c, f):
    """Product of two spelled coefficients from {"", "-", "m", "-m"}."""
    neg = c.startswith("-") != f.startswith("-")
    mu = c.endswith("m") != f.endswith("m")
    return "-" * neg + "m" * mu


@pytest.mark.parametrize("c", ["", "-", "m", "-m"])
@pytest.mark.parametrize("letter", ["A", "B"])
def test_one_substitution_round(letter, c):
    # the rule written out: c*A -> [[cA, cA], [cB, mcB]] and
    # c*B -> [[cB, -cB], [cA, -mcA]]
    if letter == "A":
        rule = [[c + "A", c + "A"], [c + "B", _times(c, "m") + "B"]]
    else:
        rule = [[c + "B", _times(c, "-") + "B"],
                [c + "A", _times(c, "-m") + "A"]]
    cell = np.array([[_LETTER_SPELL.index(c + letter)]], dtype=np.int8)
    grown = _block_rounds(cell, 1)
    assert [[_LETTER_SPELL[x] for x in row] for row in grown.tolist()] == rule


class TestValidation:
    @pytest.mark.parametrize("bad", [0, 13, -1, 2.0, "3", True])
    def test_dimension_range(self, bad):
        with pytest.raises(ValueError):
            table_direct(bad)
        with pytest.raises(ValueError):
            table_blocks(bad)

    def test_blocks_needs_two(self):
        with pytest.raises(ValueError):
            render_block_letters(1)

    def test_max_dim(self):
        assert MAX_DIM == 12

    def test_render_formats(self):
        t = table_direct(1)
        with pytest.raises(ValueError):
            render_table(t, "json", None)
        with pytest.raises(ValueError):
            render_table(t, "text", 2)
        with pytest.raises(ValueError, match=r"mu must be \+1 or -1, got True"):
            render_table(t, "text", True)
        with pytest.raises(ValueError):
            render_block_letters(2, "json")

    def test_table_immutable(self):
        t = table_direct(2)
        with pytest.raises(AttributeError):
            t.n = 3
        with pytest.raises(ValueError):
            t.codes[0, 0] = 1

    def test_table_does_not_alias_caller_array(self):
        codes = table_direct(3).codes.copy()
        table = TwistTable(3, codes)
        codes[:] = 3
        assert table == table_direct(3)
        assert codes.flags.writeable  # the caller's array stays theirs

    def test_codes_shape_checked(self):
        with pytest.raises(ValueError):
            TwistTable(2, np.zeros((3, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            TwistTable(1, np.zeros((2, 2), dtype=np.int16))


@pytest.mark.parametrize("build", [table_direct, table_blocks])
def test_entry_rejects_masks_outside_table(build):
    t = build(3)
    assert t.entry(7, 5) == twist_symbolic(7, 5)
    for p, q in ((-1, 5), (5, -1), (8, 0), (0, 8), (1 << 64, 0)):
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*3\)"):
            t.entry(p, q)
        with pytest.raises(ValueError):
            t[p, q]


def test_tables_equal_and_not():
    assert table_direct(3) == table_blocks(3)
    assert table_direct(2) != table_direct(3)


def test_large_table_row_zero():
    # the generator keeps working at the cap; spot-check the frame
    t = table_blocks(10)
    assert t.codes.shape == (1024, 1024)
    assert not t.codes[0].any()
    assert t.entry(1, 1) == SymbolicSign(1, 1)


# --- the chunked renderer against a per-cell reference ---------------------

def _reference_render(cells, spell, sep):
    return "".join(
        sep.join(spell[c] for c in row) + "\n" for row in cells.tolist()
    )


@pytest.mark.parametrize("mu", [None, 1, -1])
@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("build", [table_direct, table_blocks])
@pytest.mark.parametrize("n", range(1, 11))
def test_render_matches_reference(n, build, format, sep, mu):
    # n >= 9 crosses the 256-row chunk boundary
    table = build(n)
    if mu is None:
        spell = _SPELL
    else:
        spell = [
            str(SymbolicSign.from_code(c).substitute(mu)) for c in range(4)
        ]
    expected = _reference_render(table.codes, spell, sep)
    assert render_table(table, format, mu) == expected


@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("n", range(2, 11))
def test_block_letters_match_reference(n, format, sep):
    codes, letters = _closed_form_letters(n)
    coeff = {"1": "", "-1": "-", "m": "m", "-m": "-m"}
    spell = [coeff[_SPELL[c & 3]] + "AB"[c >> 2] for c in range(8)]
    expected = _reference_render(codes + 4 * letters, spell, sep)
    assert render_block_letters(n, format) == expected
