import copy
import hashlib
import inspect
import json
import re
import pickle
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cltwist import _batch, kernel, tables
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
from cltwist.tables import (
    _LETTER_SPELL, _SPELL, _block_rounds, _doubled,
)

masks = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _copies(value):
    """``value`` through copy, deepcopy and a pickle round trip."""
    return [copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value))]


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
        # exactly an int, as for masks: a float, a bool or a numpy
        # integer is turned away
        for bad in (1.0, -1.0, True, np.int8(1), "1"):
            with pytest.raises(ValueError, match="sign must be"):
                SymbolicSign(bad, 0)
        for bad in (1.0, 0.0, True, False, np.int64(1), "0"):
            with pytest.raises(ValueError, match="mu_power must be"):
                SymbolicSign(1, bad)
        for bad in (1.0, 0.0, True, np.int8(2), "2"):
            with pytest.raises(ValueError, match="code must be"):
                SymbolicSign.from_code(bad)
        for bad in (True, np.True_):
            with pytest.raises(ValueError):
                SymbolicSign(1, 1).substitute(bad)
            with pytest.raises(ValueError):
                table_direct(1).substitute(bad)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SymbolicSign(1, 1).sign = -1

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mu_power", [0, 1])
    def test_parts_and_repr(self, sign, mu_power):
        value = SymbolicSign(sign, mu_power)
        assert (value.sign, value.mu_power) == (sign, mu_power)
        assert repr(value) == (
            f"SymbolicSign(sign={sign:+d}, mu_power={mu_power})"
        )

    def test_other_types_are_not_signs(self):
        one = SymbolicSign(1, 0)
        assert not one == 1 and one != 1
        for other in (1, -1, None):
            with pytest.raises(TypeError):
                one * other
            with pytest.raises(TypeError):
                other * one

    @pytest.mark.parametrize("code", range(4))
    def test_copies_and_pickles(self, code):
        sign = SymbolicSign.from_code(code)
        for twin in _copies(sign):
            assert type(twin) is SymbolicSign
            assert twin == sign and twin.code == code

    @pytest.mark.parametrize("code", range(4))
    def test_each_value_is_one_shared_object(self, code):
        # the four signs are built once, so every source gives the same
        # object and equality is identity
        sign = SymbolicSign.from_code(code)
        sources = [
            SymbolicSign(sign.sign, sign.mu_power),
            SymbolicSign.from_code(code),
            SymbolicSign.from_code(code ^ 2) * SymbolicSign(1, 1),
            SymbolicSign(-1, 0) * SymbolicSign.from_code(code ^ 1),
            -SymbolicSign.from_code(code ^ 1),
            *_copies(sign),
        ]
        assert all(source is sign for source in sources)

    def test_pickles_of_the_earlier_instances_load_as_shared_ones(self):
        # a pickle made before the signs were shared: it calls
        # from_code, so it loads as the shared sign
        data = (b"c__builtin__\ngetattr\np0\n(ccltwist.tables\nSymbolicSign"
                b"\np1\nVfrom_code\np2\ntp3\nRp4\n(I3\ntp5\nRp6\n.")
        assert pickle.loads(data) is SymbolicSign(-1, 1)


@given(p=masks, q=masks)
def test_twist_symbolic_matches_kernel(p, q):
    s = twist_symbolic(p, q)
    assert s.substitute(1) == kernel.twist(p, q, 1)
    assert s.substitute(-1) == kernel.twist(p, q, -1)


@given(data=st.data())
def test_twist_symbolic_is_the_table_entry(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    cell = st.integers(min_value=0, max_value=(1 << n) - 1)
    p, q = data.draw(cell), data.draw(cell)
    sign = twist_symbolic(p, q)
    assert sign is table_direct(n)[p, q] is table_blocks(n).entry(p, q)


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

    @pytest.mark.parametrize("key", [5, (1,), (1, 2, 3), [1, 2], "ab", None],
                             ids=repr)
    def test_a_key_that_is_not_a_pair_is_a_type_error(self, key):
        message = re.escape(f"table key must be a pair (p, q), got {key!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            table_direct(2)[key]


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_blocks_equal_direct(n, table_difference):
    blocks, direct = table_blocks(n), table_direct(n)
    assert blocks == direct, table_difference(blocks, direct)


def test_blocks_equal_direct_n8(table_difference):
    blocks, direct = table_blocks(8), table_direct(8)
    assert blocks == direct, table_difference(blocks, direct)


def test_table_difference_names_the_first_differing_cell(table_difference):
    direct = table_direct(3)
    codes = direct.codes.copy()
    codes[6, 3] ^= 2
    codes[5, 6] ^= 1
    # the fixture reads n and codes alone; the flipped codes are not a
    # table the constructor would take
    flipped = SimpleNamespace(n=3, codes=codes)
    assert table_difference(flipped, direct) == (
        "n = 3: first differing cell (p, q) = (5, 6),"
        f" code {codes[5, 6]} against {direct.codes[5, 6]}"
    )
    assert table_difference(direct, table_direct(4)) == "n = 3 against n = 4"


def test_blocks_peak_memory():
    # the 16 MiB result plus the 2 MiB gather index and a copy of a
    # quarter of it: no letters grid or copy at full size; the tiling is
    # built afresh, as in a new process
    tables._tiling.cache_clear()
    tracemalloc.start()
    try:
        table_blocks(MAX_DIM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20


def test_constructor_peak_memory():
    # the 16 MiB table built from the caller's generator entries and one
    # full-size comparison with the caller's array: no copy of it, and
    # no range mask while every code is in range
    codes = table_blocks(MAX_DIM).codes.copy()
    tracemalloc.start()
    try:
        table = TwistTable(MAX_DIM, codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 34 << 20
    assert not np.shares_memory(table.codes, codes)


def test_direct_peak_memory():
    # the 48 KiB generator rows and the doubling they come from; the
    # first read of codes builds the 16 MiB grid, plus one row
    tracemalloc.start()
    try:
        table = table_direct(MAX_DIM)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table.codes
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 1 << 18
    assert read <= 20 << 20


@pytest.mark.parametrize("format, mu", [
    ("text", None), ("csv", None), ("text", 1), ("csv", -1),
])
def test_direct_table_renders_without_its_grid(format, mu):
    # the renderer reads the generator rows alone, so the 16 MiB grid
    # of a direct table is never built: the key, shift and generator
    # columns of every row, the spelled blocks and the piece grid
    tracemalloc.start()
    try:
        tables._table_pieces(table_direct(MAX_DIM), format, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 2 * MAX_DIM


def test_letters_peak_memory():
    # the spelled tile rows, the gather index and the pieces: the 4 MiB
    # letter grid is never built; the tiling is built afresh
    tables._tiling.cache_clear()
    tracemalloc.start()
    try:
        tables._letter_pieces(MAX_DIM, "text")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _assert_rows_are_lines(grid, text):
    # the piece grid has one row per text line, and row p joins to line
    # p with its newline: the CLI writes whole rows from it
    lines = text.splitlines(keepends=True)
    assert grid.ndim == 2 and grid.dtype == object
    assert len(grid) == len(lines)
    for row, line in zip(grid.tolist(), lines):
        assert "".join(row) == line


@pytest.mark.parametrize("mu", [None, 1, -1])
@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("build", [table_direct, table_blocks])
@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_table_piece_grid_rows_are_lines(n, build, fmt, mu):
    table = build(n)
    grid = tables._table_pieces(table, fmt, mu)
    assert grid.shape[0] == 1 << n
    _assert_rows_are_lines(grid, render_table(table, fmt, mu))


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
def test_letter_piece_grid_rows_are_lines(n, fmt):
    grid = tables._letter_pieces(n, fmt)
    assert grid.shape[0] == 1 << n - 1
    _assert_rows_are_lines(grid, render_block_letters(n, fmt))


def _assert_cells_closed_form(codes, cells):
    for p, q in cells:
        assert int(codes[p, q]) == twist_symbolic(p, q).code, (p, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_direct_every_cell_is_the_closed_form(n):
    # the build evaluates only the generator rows; every other cell is
    # an XOR of rows, so pin each one to the scalar closed form
    size = 1 << n
    cells = [(p, q) for p in range(size) for q in range(size)]
    _assert_cells_closed_form(table_direct(n).codes, cells)


def test_direct_cells_at_max_dim_are_the_closed_form():
    size = 1 << MAX_DIM
    gens = [1 << k for k in range(MAX_DIM)]
    rng = np.random.default_rng(12)
    cells = [(e, q) for e in gens for q in range(size)]
    cells += [(p, e) for e in gens for p in range(size)]
    cells += rng.integers(0, size, size=(4096, 2)).tolist()
    _assert_cells_closed_form(table_direct(MAX_DIM).codes, cells)


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


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_two_level_build_is_the_round_by_round_substitution(n):
    # the builders gather tiles of k rounds onto a coarse grid of n - k;
    # substitution is a morphism, so that is n rounds, one at a time
    def rounds(count):
        return _block_rounds(np.zeros((1, 1), dtype=np.int8), count)

    assert np.array_equal(table_blocks(n).codes, rounds(n) & 3)
    if n >= 2:
        # the letter view spells the tile rows where the index puts them
        tile_rows, index = tables._tiling(n - 1)
        placed = tile_rows[index].reshape(len(index), -1)
        assert np.array_equal(placed, rounds(n - 1))


@pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
def test_tiling_memo_is_never_written(n):
    # every builder and renderer at a width shares one tiling per round
    # count; a caller that wrote into it would change the next output.
    # The letters renders hand its read-only index to _spelled, which
    # raises if it writes there
    table = table_blocks(n)
    letters = render_block_letters(n)
    assert table_blocks(n) == table
    assert render_block_letters(n) == letters
    for rounds in (n, n - 1):
        fresh = inspect.unwrap(tables._tiling)(rounds)
        for held, built in zip(tables._tiling(rounds), fresh):
            assert not held.flags.writeable
            assert np.array_equal(held, built)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_block_substitution_is_the_tree_walk(n):
    # one rule: cell (p, q) after n rounds from A is the final state of
    # the tree walk over (p, q), letter and sign, at both mu (+A for the
    # empty walk of (0, 0))
    grown = _block_rounds(np.zeros((1, 1), dtype=np.int8), n).tolist()
    for mu in (1, -1):
        for p, row in enumerate(grown):
            for q, cell in enumerate(row):
                steps = kernel.tree_trace(p, q, mu)
                state = steps[-1].state if steps else "A"
                value = kernel._VALUE[mu][cell & 3]
                expected = ("-" if value < 0 else "") + "AB"[cell >> 2]
                assert state == expected, (p, q, mu)


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
        with pytest.raises(ValueError, match=r"mu must be \+1 or -1, got np.True_"):
            render_table(t, "text", np.True_)
        with pytest.raises(ValueError):
            render_block_letters(2, "json")

    def test_table_immutable(self):
        t = table_direct(2)
        with pytest.raises(AttributeError):
            t.n = 3
        with pytest.raises(ValueError):
            t.codes[0, 0] = 1

    @pytest.mark.parametrize("build", [table_direct, table_blocks])
    def test_table_copies_and_pickles(self, build):
        table = build(4)
        for twin in _copies(table):
            assert type(twin) is TwistTable and twin == table
            assert not twin.codes.flags.writeable

    def test_unpickled_codes_are_checked_again(self):
        # a table is rebuilt through its constructor, so a tampered
        # payload fails as any caller's codes would
        rebuild, (n, codes) = table_direct(3).__reduce__()
        assert rebuild(n, codes) == table_direct(3)
        for cell in ((0, 0), (1, 1), (2, 3)):
            bad = codes.copy()
            bad[cell] ^= 1
            with pytest.raises(ValueError, match="bilinear"):
                rebuild(n, bad)
        bad = codes.copy()
        bad[0, 0] = 4
        with pytest.raises(ValueError, match="0..3"):
            rebuild(n, bad)

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
        with pytest.raises(TypeError, match="numpy array, got list"):
            TwistTable(1, [[0, 0], [0, 2]])
        # codes outside 0..3: -1 rendered as "-m", 4..7 raised IndexError
        # from the renderer
        for bad in (-1, 4, 7, -128, 127):
            codes = table_direct(3).codes.copy()
            codes[5, 6] = bad
            with pytest.raises(ValueError, match=r"codes must be in 0\.\.3"):
                TwistTable(3, codes)
        # codes in 0..3 that are not bilinear
        with pytest.raises(ValueError, match="codes must be bilinear"):
            TwistTable(2, np.full((4, 4), 3, dtype=np.int8))
        assert TwistTable(2, table_direct(2).codes).codes.max() == 3

    @pytest.mark.parametrize("n", [3, 12])
    def test_bad_codes_named_by_their_first_cell(self, n):
        # two bad cells, at (5, 6) and (6, 3): the first in row-major
        # order is named, not the first in column-major order
        direct = table_direct(n).codes
        codes = direct.copy()
        codes[5, 6] = 7
        codes[6, 3] = 4
        with pytest.raises(ValueError) as info:
            TwistTable(n, codes)
        message = "codes must be in 0..3, got 7 at (p, q) = (5, 6)"
        assert str(info.value) == message
        # neither index is a generator, so each flip leaves the generator
        # entries, and the table they fix, as they are
        codes = direct.copy()
        codes[5, 6] ^= 1
        codes[6, 3] ^= 2
        with pytest.raises(ValueError) as info:
            TwistTable(n, codes)
        assert str(info.value) == (
            "codes must be bilinear in p and in q under XOR, got"
            f" {direct[5, 6] ^ 1} at (p, q) = (5, 6), so linear-p fails at"
            " (p, k, q) = (4, 1, 6): s(p^e_k,q) != s(p,q)*s(e_k,q)"
        )

    @pytest.mark.parametrize("n, cell, flip, first, identity", [
        (3, (1, 2), 1, (1, 3), (1, 1, 2)),
        (12, (4, 64), 2, (4, 65), (4, 1, 64)),
    ], ids=["n=3", "n=12"])
    def test_a_flipped_generator_entry_is_named_by_its_identity(
        self, n, cell, flip, first, identity
    ):
        # a generator entry is its own extension, so the first cell off
        # is a later one that the entry fixes; the identity named there
        # reads the entry itself
        codes = table_direct(n).codes.copy()
        codes[cell] ^= flip
        with pytest.raises(ValueError) as info:
            TwistTable(n, codes)
        p, q = first
        assert str(info.value) == (
            "codes must be bilinear in p and in q under XOR, got"
            f" {codes[p, q]} at (p, q) = ({p}, {q}), so linear-q fails at"
            f" (p, k, q) = {identity}: s(p,q^e_k) != s(p,q)*s(p,e_k)"
        )
        p, k, q = identity
        e = 1 << (k - 1)
        assert cell in {(p, q ^ e), (p, q), (p, e)}

    def test_codes_must_be_exactly_a_numpy_array(self):
        # a subclass keeps its own behaviour: with cell (1, 1) masked,
        # entry(1, 1) raised MaskError while the renderer and substitute
        # read the data under the mask
        class Codes(np.ndarray):
            pass

        codes = table_direct(2).codes
        mask = np.zeros(codes.shape, dtype=bool)
        mask[1, 1] = True
        with pytest.raises(
            TypeError, match="codes must be a numpy array, got MaskedArray"
        ):
            TwistTable(2, np.ma.array(codes, mask=mask))
        with pytest.raises(TypeError, match="numpy array, got Codes"):
            TwistTable(2, codes.view(Codes))
        assert type(TwistTable(2, codes).codes) is np.ndarray

    def test_render_takes_only_tables(self):
        # the renderer relies on bilinearity, which only TwistTable
        # checks: random codes behind a .codes attribute rendered wrong
        # rows, and a code of 9 raised a bare IndexError
        rng = np.random.default_rng(16)
        codes = rng.integers(0, 4, size=(16, 16)).astype(np.int8)
        assert not _bilinear(codes)
        out_of_range = codes.copy()
        out_of_range[3, 5] = 9
        for fake in (codes, out_of_range):
            for format, mu in (("text", None), ("csv", -1)):
                with pytest.raises(
                    TypeError,
                    match="table must be a TwistTable, got SimpleNamespace",
                ):
                    render_table(SimpleNamespace(codes=fake), format, mu)


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
    assert not table_direct(1) == 1 and table_direct(1) != 1


def test_table_repr():
    assert repr(table_direct(3)) == "<TwistTable n=3 (8x8)>"


def _cells(n):
    return [(p, q) for p in range(1 << n) for q in range(1 << n)]


#: What a caller can read of a twist table, other than time and memory.
_OBSERVATIONS = {
    "repr": repr,
    "equal to blocks": lambda t: t == table_blocks(t.n),
    "blocks equal to it": lambda t: table_blocks(t.n) == t,
    "unequal": lambda t: (t != table_blocks(t.n), table_blocks(t.n) != t),
    "copies": lambda t: [
        (type(twin), twin == table_blocks(t.n), twin.codes.flags.writeable)
        for twin in _copies(t)
    ],
    "entry": lambda t: [t.entry(p, q) for p, q in _cells(t.n)],
    "getitem": lambda t: [t[p, q] for p, q in _cells(t.n)],
    "substitute": lambda t: [t.substitute(mu).tolist() for mu in (1, -1)],
    "codes": lambda t: t.codes.tolist(),
}


@pytest.mark.parametrize("observe", _OBSERVATIONS.values(), ids=_OBSERVATIONS)
@pytest.mark.parametrize("n", [1, 3, 6])
def test_the_deferred_grid_cannot_be_observed(n, observe):
    # a direct table builds its grid on the first read of codes: each
    # read, as that first read and after it, sees what a built table shows
    read = table_direct(n)
    read.codes
    expected = observe(table_blocks(n))
    assert observe(table_direct(n)) == expected
    assert observe(read) == expected
    # the constructor rebuilds the caller's codes from their generator
    # entries, as a direct table is built, and keeps that build
    assert observe(TwistTable(n, table_blocks(n).codes)) == expected


@pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "read"])
def test_deferred_codes_are_one_read_only_slot(read_first):
    table = table_direct(4)
    if read_first:
        table.codes
    with pytest.raises(AttributeError, match="immutable: cannot set 'codes'"):
        table.codes = table_blocks(4).codes
    with pytest.raises(AttributeError, match="immutable: cannot delete"):
        del table.codes
    with pytest.raises(AttributeError, match="no attribute 'grid'"):
        table.grid
    codes = table.codes
    assert table.codes is codes and not codes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        codes[0, 0] = 1
    assert table == table_blocks(4)


def test_large_table_row_zero():
    # the generator keeps working at the cap; spot-check the frame
    t = table_blocks(10)
    assert t.codes.shape == (1024, 1024)
    assert not t.codes[0].any()
    assert t.entry(1, 1) == SymbolicSign(1, 1)


# --- the renderer against a per-cell reference -----------------------------

#: sha256 of every render at n = 1..12, recorded before the renderer
#: read a table's generator rows in place of its grid.
_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_27.json").read_text()
)["output_sha256"]["digests"]


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("format", ["text", "csv"])
@pytest.mark.parametrize("n", [11, 12])
def test_top_width_renders_keep_their_digests(n, format):
    # every cell, at the widths the other render tests only sample
    for name, build in (("direct", table_direct), ("blocks", table_blocks)):
        for mu in (None, 1, -1):
            key = f"render_table {name} n={n} mu={mu} {format}"
            assert _sha256(render_table(build(n), format, mu)) == _DIGESTS[key]
    key = f"render_block_letters n={n} {format}"
    assert _sha256(render_block_letters(n, format)) == _DIGESTS[key]


def _reference_render(cells, spell, sep):
    return "".join(
        sep.join(spell[c] for c in row) + "\n" for row in cells.tolist()
    )


def _spelling(mu):
    """Spelling of codes 0..3: symbolic for mu None, else the values."""
    if mu is None:
        return _SPELL
    return [str(SymbolicSign.from_code(c).substitute(mu)) for c in range(4)]


#: Spelling of a letter grid's cells, coefficient in bits 0-1 and
#: letter in bit 2.
_LETTERS = [
    {"1": "", "-1": "-", "m": "m", "-m": "-m"}[_SPELL[c & 3]] + "AB"[c >> 2]
    for c in range(8)
]

#: Rows checked at n = 11 and 12: the first, both sides of row 256
#: (where ``cltwist table`` starts its second write), and the last.
_TOP_ROWS = [0, 1, 255, 256, 257, -1]


@pytest.mark.parametrize("mu", [None, 1, -1])
@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("build", [table_direct, table_blocks])
@pytest.mark.parametrize("n", range(1, 11))
def test_render_matches_reference(n, build, format, sep, mu):
    table = build(n)
    expected = _reference_render(table.codes, _spelling(mu), sep)
    assert render_table(table, format, mu) == expected


@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("n", range(2, 11))
def test_block_letters_match_reference(n, format, sep):
    codes, letters = _closed_form_letters(n)
    expected = _reference_render(codes + 4 * letters, _LETTERS, sep)
    assert render_block_letters(n, format) == expected


@pytest.mark.parametrize("mu", [None, 1, -1])
@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("build", [table_direct, table_blocks])
@pytest.mark.parametrize("n", [11, 12])
def test_render_rows_at_top_widths(n, build, format, sep, mu):
    table = build(n)
    lines = render_table(table, format, mu).splitlines(keepends=True)
    assert len(lines) == 1 << n
    expected = _reference_render(table.codes[_TOP_ROWS], _spelling(mu), sep)
    assert "".join(lines[p] for p in _TOP_ROWS) == expected


@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("n", [11, 12])
def test_block_letters_rows_at_top_widths(n, format, sep):
    codes, letters = _closed_form_letters(n)
    lines = render_block_letters(n, format).splitlines(keepends=True)
    assert len(lines) == codes.shape[0]
    cells = codes[_TOP_ROWS] + 4 * letters[_TOP_ROWS]
    expected = _reference_render(cells, _LETTERS, sep)
    assert "".join(lines[p] for p in _TOP_ROWS) == expected


def _first_blocks(cells):
    """Each row's first column block, B = 2**min(k, k // 2 + 1) columns
    of 2**k, and the shift ``cells[p, jB]`` of its block j, as the
    renderer splits a row."""
    k = cells.shape[1].bit_length() - 1
    width = 1 << min(k, k // 2 + 1)
    return cells[:, :width], cells[:, ::width]


@pytest.mark.parametrize("n", range(1, 13))
def test_real_tables_take_the_block_path(n):
    # the renderer trusts its input: every column block of a built table
    # is its row's first block XORed by a code in 0..3, which is 0 in
    # column 0
    for cells in (table_direct(n).codes, table_blocks(n).codes):
        first, shifts = _first_blocks(cells)
        assert not (shifts & ~3).any()
        blocks = first[:, None, :] ^ shifts[:, :, None]
        assert np.array_equal(blocks.reshape(cells.shape), cells)


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_row_keys_class_rows_as_their_first_blocks(n):
    # equal keys mean equal first blocks, and there are as many keys as
    # distinct first blocks: thousands for a random bilinear table at
    # n = 11 and 12; with a numeric table's fold, the folded blocks.
    # The keys and the other columns read come from the generator rows
    # alone, and must be the grid's own columns
    twists = (table_direct(n), table_blocks(n), _random_bilinear(n))
    cases = [(table, None) for table in twists]
    cases += [(table, tables._fold(mu)) for mu in (1, -1) for table in twists]
    for table, fold in cases:
        cells, gen_rows = table.codes, table._gen_rows
        if fold is not None:
            cells, gen_rows = fold[cells], fold[gen_rows]
        first, shifts = _first_blocks(cells)
        width = first.shape[1]
        keys, read_first, read_shifts = tables._row_reads(gen_rows, width)
        assert np.array_equal(read_first, first)
        assert np.array_equal(read_shifts, shifts)
        _, rows, row_key = np.unique(
            keys, return_index=True, return_inverse=True
        )
        assert np.array_equal(first[rows][row_key], first)
        assert len(rows) == len(np.unique(first, axis=0))


@pytest.mark.parametrize("mu", [1, -1])
def test_fold_is_the_sign_bit_of_the_value(mu):
    # a numeric table is rendered from its folded codes, so the fold must
    # keep bilinearity (an XOR homomorphism onto {0, 1}) and spell what
    # _VALUE spells: equal fold exactly for equal value
    fold = tables._fold(mu).tolist()
    assert sorted(set(fold)) == [0, 1]
    for c in range(4):
        for a in range(4):
            assert fold[c ^ a] == fold[c] ^ fold[a]
            same_value = tables._VALUE[mu][c] == tables._VALUE[mu][a]
            assert (fold[c] == fold[a]) == same_value


# --- the constructor's bilinearity check -------------------------------------

def _bilinear(codes):
    """Brute force: ``codes[p ^ r, q] == codes[p, q] ^ codes[r, q]`` and
    ``codes[p, q ^ r] == codes[p, q] ^ codes[p, r]`` for all p, q, r,
    taking r in turn and stopping at the first that fails."""
    idx = np.arange(codes.shape[0])
    return all(
        np.array_equal(codes[idx ^ r], codes ^ codes[r])
        and np.array_equal(codes[:, idx ^ r], codes ^ codes[:, r, None])
        for r in idx
    )


def _assert_renders(table):
    for mu in (None, 1, -1):
        for format, sep in (("text", " "), ("csv", ",")):
            expected = _reference_render(table.codes, _spelling(mu), sep)
            assert render_table(table, format, mu) == expected


def _takes_exactly_bilinear(codes) -> bool:
    """Whether ``TwistTable`` takes ``codes``: it must raise ValueError
    exactly when they are not bilinear, and a table it takes must
    render as the cell-by-cell reference does."""
    n = codes.shape[0].bit_length() - 1
    if not _bilinear(codes):
        with pytest.raises(ValueError, match="codes must be bilinear"):
            TwistTable(n, codes)
        return False
    _assert_renders(TwistTable(n, codes))
    return True


@pytest.mark.parametrize("n", range(1, 11))
def test_random_codes_render_cell_by_cell(n):
    size = 1 << n
    rng = np.random.default_rng(n)
    codes = rng.integers(0, 4, size=(size, size)).astype(np.int8)
    _takes_exactly_bilinear(codes)


@pytest.mark.parametrize(
    "where", ["first column", "inner block", "last column"]
)
@pytest.mark.parametrize("n", range(1, 11))
def test_a_flipped_cell_renders_cell_by_cell(n, where):
    # one cell of row 2**n - 2 (row 1 at n = 1); only
    # the generator entry of n = 1 leaves a bilinear table
    size = 1 << n
    p = size - 2 if size > 2 else 1
    q = {"first column": 0, "inner block": size // 2 + 1,
         "last column": size - 1}[where] % size
    codes = table_direct(n).codes.copy()
    codes[p, q] ^= 1 + p % 3
    assert _takes_exactly_bilinear(codes) == (n == 1 and q == 1)


def _random_bilinear(n):
    """A table from a random generator matrix, which the builders never
    make (its diagonal need not be the blade squares), expanded by XOR
    along q and then along p."""
    size = 1 << n
    rng = np.random.default_rng(100 + n)
    gens = rng.integers(0, 4, size=(n, n)).astype(np.int8)
    return TwistTable(n, _doubled(_doubled(gens.T, size).T, size))


def _planes_rebuild(codes) -> bool:
    """Whether both bit planes of ``codes`` pass the self-test's plane
    rebuild, :func:`cltwist._batch.first_difference`: the reference
    where the brute-force :func:`_bilinear` is too slow."""
    n = codes.shape[0].bit_length() - 1
    planes = (np.packbits(codes & bit, bitorder="little") for bit in (1, 2))
    return all(
        _batch.first_difference(int.from_bytes(plane, "little"), n) is None
        for plane in planes
    )


@pytest.mark.parametrize("row", [None, "first", "middle block", "last"])
@pytest.mark.parametrize("n", [11, 12])
def test_constructor_decides_as_the_plane_rebuild_at_top_widths(n, row):
    # the two bilinearity tests, each on its own format, agree on a built
    # table and on one flipped cell in row 0, in a middle 256-row block
    # and in the last row
    size = 1 << n
    codes = table_direct(n).codes.copy()
    if row is not None:
        p = {"first": 0, "middle block": size // 2 + 3, "last": size - 1}[row]
        codes[p, size // 3] ^= 1 + p % 3
    try:
        TwistTable(n, codes)
        accepted = True
    except ValueError as exc:
        # neither index is a generator, so the flip is the one cell off,
        # and linear-p by the lowest bit of p fails there
        q = size // 3
        identity = (p ^ 1, 1, q) if p else (0, 1, q)
        assert str(exc) == (
            "codes must be bilinear in p and in q under XOR, got"
            f" {codes[p, q]} at (p, q) = ({p}, {q}), so linear-p fails at"
            f" (p, k, q) = {identity}: s(p^e_k,q) != s(p,q)*s(e_k,q)"
        )
        accepted = False
    assert accepted == _planes_rebuild(codes) == (row is None)


@pytest.mark.parametrize("n", range(1, 11))
def test_any_bilinear_table_renders(n):
    _assert_renders(_random_bilinear(n))


@pytest.mark.parametrize("mu", [None, 1, -1])
@pytest.mark.parametrize("format, sep", [("text", " "), ("csv", ",")])
@pytest.mark.parametrize("n", [11, 12])
def test_any_bilinear_table_renders_at_top_widths(n, format, sep, mu):
    # thousands of distinct first blocks, so the palette the renderer
    # spells in one pass spans thousands of rows, as no built table's
    # does
    table = _random_bilinear(n)
    first, _ = _first_blocks(table.codes)
    assert len(np.unique(first, axis=0)) > 256
    lines = render_table(table, format, mu).splitlines(keepends=True)
    assert len(lines) == 1 << n
    expected = _reference_render(table.codes[_TOP_ROWS], _spelling(mu), sep)
    assert "".join(lines[p] for p in _TOP_ROWS) == expected


# --- the two builders stay independent ---------------------------------------

def _names(code):
    """Global and attribute names that ``code`` and the code nested in it
    use."""
    nested = (c for c in code.co_consts if hasattr(c, "co_names"))
    return set(code.co_names).union(*map(_names, nested))


def test_block_builder_shares_nothing_with_the_direct_one():
    # the cross-check of the two builders means something only while the
    # block construction uses neither the extension nor the closed form
    banned = {"_generator_rows", "_doubled", "_parity_above", "twist_closed"}
    for f in (table_blocks, tables._tiling, tables._block_rounds):
        # unwrapped: the memo's wrapper has no code of its own
        assert not _names(inspect.unwrap(f).__code__) & banned, f.__name__


def _closed_form_table(n):
    """Every cell of the twist table by the closed form, on numpy
    arrays: the negation bit is the parity of the inversions, the
    generators of p above one of q, and the mu bit that of the shared
    generators."""
    masks = np.arange(1 << n, dtype=np.uint16)
    above = np.zeros_like(masks)  # bit k: parity of the bits above k
    for shift in range(1, n):
        above ^= masks >> shift
    neg = np.bitwise_count(above[:, None] & masks) & 1
    mu_power = np.bitwise_count(masks[:, None] & masks) & 1
    return TwistTable(n, (neg | mu_power << 1).astype(np.int8))


def test_direct_builder_shares_nothing_with_the_others(table_difference):
    # the direct table extends the defining relations; the cross-checks
    # compare three independent derivations only while it uses neither
    # the closed form nor the block substitution
    banned = {"_parity_above", "twist_closed", "bitwise_count", "_RULE",
              "_block_rounds", "_tiling"}
    for f in (table_direct, tables._generator_rows, tables._doubled,
              TwistTable._fill, TwistTable.__getattr__):
        assert not _names(f.__code__) & banned, f.__name__
    for n in range(1, 11):
        direct, closed = table_direct(n), _closed_form_table(n)
        assert direct == closed, table_difference(direct, closed)
