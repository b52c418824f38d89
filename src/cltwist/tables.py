"""Twist tables: the full 2**n by 2**n matrix of blade sign factors.

Entries are symbolic in the generator square mu, so they live in the
four-element set {1, -1, m, -m} ("m" spells mu in machine output).
That set is a Klein four-group under multiplication, which lets a
whole table sit in a numpy int8 array of two-bit codes:

    bit 0   negation flag
    bit 1   power of mu (mu**2 = 1)

and entry products become XOR.  Two independent constructions are
provided and cross-checked by the test suite, with each other and with
the kernel's closed form:

* :func:`table_direct` writes the defining relations as the n*n
  generator entries (e_j, e_i), e_j e_i = -e_i e_j for i < j and
  e_i e_i = mu, and XORs every other cell together from them, since
  the twist is the one bicharacter with those entries; it evaluates
  no sign formula;
* :func:`table_blocks` grows the table by block substitution, doubling
  the resolution per round starting from the single letter A.  The
  substitution is the rule table ``kernel._RULE``, the one that
  :func:`cltwist.kernel.twist_tree` walks: n rounds from A put at cell
  (p, q) the final state of the tree walk over (p, q).

:func:`render_block_letters` shows that block construction after
n - 1 rounds: a half-resolution grid in which each cell is a
coefficiented letter such as ``-mB``.  The coefficient is the twist of
the cell's indices and the letter records the row's grade parity.

Block substitution is a morphism: n rounds from A are k rounds applied
cell by cell to the grid of n - k rounds, and a coefficient rides
along, sigma**k(c*X) = c * sigma**k(X).  So both grids are built in two
levels (:func:`_tiling`, built once per width): a coarse grid of n - k
rounds, k = ceil(n / 2), and the 8 coefficiented tiles of k rounds
from A and from B, whose rows one gather index puts in place.

The twist is a bicharacter, so a row's codes are linear in q as well:
``codes[p, q ^ r] == codes[p, q] ^ codes[p, r]``, and its n*n
generator entries fix the whole table.  The table that a set of
generator entries fixes is built in two doubling passes: the generator
rows ``codes[e_j, :]`` along q (:func:`_generator_rows`), then every
row along p, which :class:`TwistTable` makes on the first read of
``codes``.  :func:`table_direct` runs the first pass on the defining
relations and keeps its rows.  The :class:`TwistTable` constructor
runs both on a caller's own generator entries and compares the build
with the caller's codes, since codes are bilinear exactly when they
equal it; it keeps the build.  So every table is bilinear, and its n
generator rows fix it.  (The self-test, whose format is the bit plane,
not the array, has its own extension:
:func:`cltwist._batch.first_difference`.)

One helper, :func:`_spelled`, spells a set of column blocks once each
and gathers every row's pieces from them into one piece grid, a row of
str pieces per text row; both renderers join it, and the CLI writes it
a run of rows at a time.  :func:`render_table` relies on bilinearity:
:func:`_table_pieces` classes a table's rows by their leading block of
columns and builds every row from shifted copies of its block, so it
takes nothing but a :class:`TwistTable`.  It reads the columns it
needs off the table's generator rows, so rendering never builds a
direct table's grid.  :func:`render_block_letters` spells the tile
rows of :func:`_tiling` and places them by its gather index, so its
grid is never built.

Fixing mu maps the four codes onto {1, -1}, and the map is a
homomorphism, so a numeric table is a bilinear form with one bit per
cell.  The renderer reads it through that fold (:func:`_fold`, derived
from ``kernel._VALUE``): leading blocks that spell alike are one block,
with 2 shifted copies, not 4.
"""

from functools import lru_cache

import numpy as np

from ._record import Frozen
from .kernel import (
    _LINEAR_IN, MAX_DIM, _RULE, _VALUE, _check_dim, _check_masks, _check_mu,
    _failing_identity, twist_closed,
)

__all__ = [
    "MAX_DIM",
    "SymbolicSign",
    "TwistTable",
    "render_block_letters",
    "render_table",
    "table_blocks",
    "table_direct",
    "twist_symbolic",
]

_SPELL = ("1", "-1", "m", "-m")


class SymbolicSign(Frozen):
    """One of {1, -1, m, -m}: a sign times an optional factor of mu."""

    __slots__ = ("code",)

    def __new__(cls, sign: int = 1, mu_power: int = 0):
        # Exactly int: a float, a bool or a numpy integer is turned away.
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if type(mu_power) is not int or mu_power not in (0, 1):
            raise ValueError(f"mu_power must be 0 or 1, got {mu_power!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "code", (sign < 0) | (mu_power << 1))
        return self

    def __reduce__(self):
        return SymbolicSign.from_code, (self.code,)

    @classmethod
    def from_code(cls, code: int) -> "SymbolicSign":
        if type(code) is not int or not 0 <= code <= 3:
            raise ValueError(f"code must be in 0..3, got {code!r}")
        return cls(-1 if code & 1 else 1, (code >> 1) & 1)

    @property
    def sign(self) -> int:
        return -1 if self.code & 1 else 1

    @property
    def mu_power(self) -> int:
        return (self.code >> 1) & 1

    def __mul__(self, other):
        if not isinstance(other, SymbolicSign):
            return NotImplemented
        return SymbolicSign.from_code(self.code ^ other.code)

    def __neg__(self):
        return SymbolicSign.from_code(self.code ^ 1)

    def substitute(self, mu: int) -> int:
        """Numeric value once mu is fixed to +1 or -1."""
        _check_mu(mu)
        return _VALUE[mu][self.code]

    def __eq__(self, other):
        if isinstance(other, SymbolicSign):
            return self.code == other.code
        return NotImplemented

    def __hash__(self):
        return hash((SymbolicSign, self.code))

    def __str__(self):
        return _SPELL[self.code]

    def __repr__(self):
        return f"SymbolicSign(sign={self.sign:+d}, mu_power={self.mu_power})"


def twist_symbolic(p: int, q: int) -> SymbolicSign:
    """Symbolic twist of a blade pair, exact for any 64-bit masks.

    At mu = +1 the twist is the bare reordering sign; the mu power is
    the parity of the shared generators.  Masks outside [0, 2**64)
    raise ValueError.
    """
    return SymbolicSign(twist_closed(p, q, 1), (p & q).bit_count() & 1)


class TwistTable(Frozen):
    """Dense table of symbolic twists for all blade pairs below 2**n.

    ``codes`` is a 2**n square numpy int8 array of codes in 0..3,
    bilinear in p and in q under XOR as every twist is; anything else
    raises TypeError (not exactly a numpy array: a subclass such as a
    masked array is turned away) or ValueError.  A code out of range,
    or off the bilinear table that the generator entries (e_j, e_i)
    fix, is named by its first cell (p, q) in row-major order; codes off
    it also by the identity that fails there, as the self-test's
    certificate names it (``kernel._failing_identity``).

    A table also keeps its generator rows ``codes[e_j, :]``, an n by
    2**n array that fixes every cell, and the renderer reads nothing
    else.  A table from :func:`table_direct` holds only those rows
    until ``codes`` is first read: that read builds the grid and sets
    the ``codes`` slot once, so it is the same read-only array on every
    read after, and nothing but time and memory tells the two apart.
    (Threads racing on that first read may each build one; each gets an
    equal array.)  The constructor builds its table that way too, from
    the caller's generator entries, and keeps that build, so the
    caller's array is neither copied nor kept.
    """

    __slots__ = ("n", "codes", "_gen_rows")

    def __new__(cls, n: int, codes: np.ndarray):
        if type(codes) is not np.ndarray:
            raise TypeError(
                f"codes must be a numpy array, got {type(codes).__name__}"
            )
        _check_dim(n)
        size = 1 << n
        if codes.shape != (size, size) or codes.dtype != np.int8:
            raise ValueError("codes must be a 2**n square int8 array")
        if codes.min() < 0 or codes.max() > 3:
            raise ValueError("codes must be in 0..3"
                             + _first_cell(codes, codes & ~3))
        # bilinear exactly when the codes equal the table that their own
        # generator entries fix, built as a direct table's is
        gens = 1 << np.arange(n)
        gen_rows = _generator_rows(codes[gens[:, None], gens])
        built = _doubled(gen_rows, size)
        if not np.array_equal(built, codes):
            off = built != codes
            kind, pkq = _failing_identity(*np.argwhere(off)[0].tolist())
            raise ValueError("codes must be bilinear in p and in q under XOR"
                             + _first_cell(codes, off) + f", so {kind} fails"
                             f" at (p, k, q) = {pkq}: {_LINEAR_IN[kind]}")
        return object.__new__(cls)._fill(n, gen_rows, built)

    def _fill(self, n: int, gen_rows: np.ndarray, codes=None):
        """Fill the slots of this table from a builder's generator rows
        ``gen_rows`` and, if it has one, its grid ``codes``: arrays the
        builder has just made and keeps no other reference to.  Without
        a grid, ``codes`` is built on its first read
        (:meth:`__getattr__`).  Returns the table."""
        gen_rows.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_gen_rows", gen_rows)
        if codes is not None:
            codes.setflags(write=False)
            object.__setattr__(self, "codes", codes)
        return self

    def __getattr__(self, name):
        # reached only when the normal lookup fails, which for ``codes``
        # means its slot is still empty: build the grid, the doubling
        # pass along p, and fill the slot, so that every later read
        # finds it there
        if name != "codes":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        codes = _doubled(self._gen_rows, 1 << self.n)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        return codes

    def __reduce__(self):
        # through the constructor, so a copy is checked as any input is
        return TwistTable, (self.n, self.codes)

    def entry(self, p: int, q: int) -> SymbolicSign:
        """Twist of (p, q); masks outside [0, 2**n) raise ValueError."""
        _check_masks(p, q, self.n)
        return SymbolicSign.from_code(int(self.codes[p, q]))

    def __getitem__(self, pq) -> SymbolicSign:
        if not isinstance(pq, tuple) or len(pq) != 2:
            raise TypeError(f"table key must be a pair (p, q), got {pq!r}")
        return self.entry(*pq)

    def substitute(self, mu: int) -> np.ndarray:
        """int8 matrix of +-1 with mu fixed."""
        _check_mu(mu)
        return np.array(_VALUE[mu], np.int8).take(self.codes)

    def __eq__(self, other):
        if isinstance(other, TwistTable):
            return self.n == other.n and np.array_equal(
                self.codes, other.codes
            )
        return NotImplemented

    def __repr__(self):
        size = 1 << self.n
        return f"<TwistTable n={self.n} ({size}x{size})>"


def table_direct(n: int) -> TwistTable:
    """Twist table from the defining relations of the algebra.

    The relations are the generator entries: e_j e_i = -e_i e_j for
    i < j puts code 1 (a negation) at (e_j, e_i), strictly below the
    diagonal, and e_i e_i = mu puts code 2 (one factor of mu) on it.
    The twist is the one bicharacter with those entries, so they fix
    every other cell.  The table is built as far as its generator rows
    (:func:`_generator_rows`, 48 KiB at n = 12); its 2**n square grid
    is built on the first read of ``codes``, which rendering never
    makes.
    """
    _check_dim(n)
    entries = np.tri(n, k=-1, dtype=np.int8) | np.eye(n, dtype=np.int8) << 1
    return object.__new__(TwistTable)._fill(n, _generator_rows(entries))


def _first_cell(codes: np.ndarray, off: np.ndarray) -> str:
    """The code in ``codes`` at the first nonzero cell (p, q) of
    ``off``, in row-major order, spelled for an error message."""
    p, q = np.argwhere(off)[0]
    return f", got {codes[p, q]} at (p, q) = ({p}, {q})"


def _generator_rows(entries: np.ndarray) -> np.ndarray:
    """The n by 2**n generator rows, row j the codes of (e_j, q) for
    every q, of the bilinear table whose generator entry (e_j, e_i) is
    ``entries[j, i]``, for the n by n ``entries``: the doubling pass
    along q.  The pass along p, :func:`_doubled` of these rows, gives
    the whole table."""
    # contiguous, so that each doubling along p XORs a contiguous row
    return np.ascontiguousarray(_doubled(entries.T, 1 << len(entries)).T)


def _doubled(factors: np.ndarray, count: int) -> np.ndarray:
    """Row i, for each i below the power of two ``count``, is the XOR of
    ``factors[k]`` over every bit k of i (zeros for i = 0), built by
    doublings: rows e .. 2e - 1 are ``rows[0:e] ^ factors[k]`` for
    e = 2**k."""
    out = np.empty((count,) + factors.shape[1:], dtype=factors.dtype)
    out[0] = 0
    for k in range(count.bit_length() - 1):
        e = 1 << k
        np.bitwise_xor(out[:e], factors[k], out=out[e:2 * e])
    return out


#: Spelling of a coefficiented letter: its code in bits 0-1, its
#: letter in bit 2 (0 is A, 1 is B).
_LETTER_SPELL = ("A", "-A", "mA", "-mA", "B", "-B", "mB", "-mB")

#: ``_BLOCKS[cell]``: the 2x2 block of int8 cells that ``kernel._RULE``
#: grows the coefficiented letter ``cell`` into.  The block of
#: ``cell = 4 * X + c`` is the rule's 4 cells for the letter X,
#: row-major, with the code c XORed into each.
_BLOCKS = np.array(
    [[letter << 2 | code ^ c for letter, code in _RULE[x:x + 4]]
     for x in (0, 4) for c in range(4)], np.int8
).reshape(8, 2, 2)


def _block_rounds(cells: np.ndarray, rounds: int) -> np.ndarray:
    """Coefficiented letters after ``rounds`` rounds of block substitution.

    Each round turns every cell into its 2x2 block of ``_BLOCKS``, by
    ``kernel._RULE``:

        c*A  ->  [[cA,  cA], [cB,  mcB]]
        c*B  ->  [[cB, -cB], [cA, -mcA]]

    so entry (a, b) of the block of cell (R, Q) lands at
    (2R + a, 2Q + b) of the grown grid.
    """
    for _ in range(rounds):
        rows, cols = cells.shape
        cells = _BLOCKS[cells].swapaxes(1, 2).reshape(2 * rows, 2 * cols)
    return cells


@lru_cache(maxsize=None)
def _tiling(rounds: int):
    """:func:`_block_rounds` from the letter A, ``rounds`` rounds, in two
    levels: ``(tile_rows, index)``, whose grid row p is the tile rows
    ``index[p]`` side by side, letters kept.  Built once per width and
    shared by every caller, so both arrays are read-only.

    With k = ceil(rounds / 2), k rounds from the column [A, B] give the
    tiles of A and of B, one above the other, and tile
    ``4 * letter + code`` is its letter's tile XOR its code, so row r
    of tile c is row ``c * 2**k + r`` of ``tile_rows``.  The coarse grid
    is the letters after rounds - k <= k rounds: the top left corner of
    A's tile, whose first cell is A.  Grid row ``P * 2**k + r`` holds
    row r of the tile of each coarse cell (P, Q), so its index is
    ``coarse[P] * 2**k + r``.
    """
    k = (rounds + 1) // 2
    size = 1 << k
    letters = _block_rounds(np.array([[0], [4]], dtype=np.int8), k)
    corner = 1 << rounds - k
    coarse = letters[:corner, :corner]
    tiles = letters.reshape(2, 1, -1) ^ np.arange(4, dtype=np.int8)[:, None]
    index = ((coarse.astype(np.intp) << k)[:, None, :]
             + np.arange(size)[:, None])
    tiling = tiles.reshape(-1, size), index.reshape(-1, len(coarse))
    for array in tiling:
        array.setflags(write=False)
    return tiling


def table_blocks(n: int) -> TwistTable:
    """Twist table grown by block substitution from the letter A.

    After n rounds each cell's coefficient is the twist of its indices;
    dropping the letters leaves the table.
    """
    _check_dim(n)
    tile_rows, index = _tiling(n)
    codes = tile_rows & 3
    grid = np.empty((len(index),) * 2, dtype=np.int8)
    rows = grid.reshape(index.shape + (-1,))
    # every index is in range; any mode but "raise" writes straight
    # into ``out``, where "raise" would gather into a buffer and copy it.
    # take copies an index it may not write, as this shared one, so it
    # is given 1,024 rows at a time: at most 512 KiB of copy at n = 12
    for start in range(0, len(index), 1024):
        block = slice(start, start + 1024)
        codes.take(index[block], axis=0, out=rows[block], mode="clip")
    return object.__new__(TwistTable)._fill(n, grid[1 << np.arange(n)], grid)


# --- rendering -------------------------------------------------------------

def _separator(format: str) -> str:
    if format not in ("text", "csv"):
        raise ValueError(f"format must be 'text' or 'csv', got {format!r}")
    return " " if format == "text" else ","


def _fold(mu: int) -> np.ndarray:
    """Sign bit of each code's value at ``mu``, read off ``_VALUE``: 4
    int8 entries, ``c & 1`` at mu = +1 and ``c ^ c >> 1 & 1`` at mu = -1.

    Fixing mu maps the Klein four-group of codes onto {1, -1}, so the
    fold is an XOR homomorphism onto {0, 1}: a folded table is bilinear
    too, with one bit per cell.
    """
    return np.array([value < 0 for value in _VALUE[mu]], np.int8)


def _row_reads(gen_rows: np.ndarray, width: int):
    """The columns of a twist table that the renderer reads, for every
    row p, from the table's generator rows ``gen_rows`` (``codes[e_j,
    :]``, or a numeric table's folded ones), for a power of two
    ``width``: ``(keys, first, shifts)``.

    ``keys`` holds an int64 per row, equal for two rows exactly when
    their first ``width`` columns are; ``first[p]`` is that first block,
    ``codes[p, :width]``; and ``shifts[p, j]`` is the row's code at
    column ``j * width``.

    A table is linear in p too, so row p of the columns read is the XOR
    of those of the generator rows at the bits of p: one
    :func:`_doubled` of the generator rows' columns gives every row's.
    The key is the row's codes at the generator columns 1, 2, 4, ...
    below ``width``, which by linearity in q fix its first block (column
    0 is 0), one byte each, padded to 8 bytes with column 0 (``width``
    is at most 2**7 for n <= 12, so 8 bytes hold them).  The first block
    and the shifts follow, padded with column 0 to whole int64 words, so
    that the doubling XORs int64 words and the key is read in place.
    """
    size = gen_rows.shape[1]
    w = width.bit_length() - 1
    count = size // width
    columns = ([1 << i for i in range(w)] + [0] * (8 - w)
               + list(range(width)) + list(range(0, size, width))
               + [0] * (-(width + count) % 8))
    # take, unlike a fancy index along axis 1, keeps the rows contiguous
    picked = gen_rows.take(columns, axis=1)
    reads = _doubled(picked.view(np.int64), size)
    codes = reads.view(np.int8)
    return (reads[:, 0], codes[:, 8:8 + width],
            codes[:, 8 + width:8 + width + count])


#: ``_WORDS[spell, sep]``: the little-endian uint32 word of each
#: ``entry + sep``, padded with NUL, for every spelling and separator
#: that :func:`_spelled` is given.
_WORDS = {
    (spell, sep): np.array(
        [int.from_bytes((s + sep).encode("ascii"), "little") for s in spell],
        "<u4",
    )
    for spell in (_SPELL, _LETTER_SPELL) for sep in " ,"
}


def _spelled(blocks: np.ndarray, index: np.ndarray, spell, sep: str):
    """Text whose row p is the blocks ``index[p]`` side by side: code c
    of a row of ``blocks`` spelled ``spell[c]``, entries separated by
    ``sep``.

    Returns the piece grid: a 2-d object array of str pieces, one row
    per text row, whose row p concatenates to row p of the text, newline
    included.

    Every block is spelled once, in one pass: every code indexes the
    table ``_WORDS[spell, sep]`` of little-endian uint32 words, each
    ``entry + sep`` padded with NUL, every block row is closed by a
    newline word, and deleting the NULs from the words' bytes leaves one
    line per block, ending in ``sep``.  The palette holds those lines,
    then each again with a newline for its final ``sep``, so a row's
    last piece is the one half a palette further on.  One gather of the
    palette picks every row's pieces, and a second its last pieces from
    that half; ``index``, which may be shared, is only read.
    """
    cells = np.empty((len(blocks), blocks.shape[1] + 1), "<u4")
    # every code is in range; "clip", unlike "raise", writes straight
    # into the column slice
    _WORDS[spell, sep].take(blocks, out=cells[:, :-1], mode="clip")
    cells[:, -1] = ord("\n")
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    lines = text.split("\n")[:-1]
    palette = np.array(lines + [line[:-1] + "\n" for line in lines],
                       dtype=object)
    pieces = palette[index]
    pieces[:, -1] = palette[index[:, -1] + len(lines)]
    return pieces


def _table_pieces(table: TwistTable, format: str, mu):
    """:func:`render_table` as a :func:`_spelled` piece grid, with code c
    spelled ``_SPELL[c]`` (``_SPELL[fold[c]]`` for a numeric table, whose
    ``fold`` is :func:`_fold`), read from the table's generator rows
    alone.

    Each row is split into blocks B = 2**min(n, n // 2 + 1) columns wide.
    A twist row is linear in q, so ``codes[p, 0]`` is 0 and block j of
    row p is its first block XORed by the shift ``codes[p, jB]``, a code
    in 0..3.  The fold is a homomorphism, so the same holds of folded
    codes, with a shift in {0, 1}, and the folded generator rows fix
    them; it is applied to those rows only, never to the whole table.

    So rows are classed by their first block, through one int key per
    row that ``np.unique`` sorts; :func:`_row_reads` gives the keys, the
    first blocks and the shifts from one XOR extension along p of the
    generator rows' columns.  Each distinct first block is spelled in
    each of its XOR variants (4, or 2 folded): block j of row p is block
    ``variants * class + shift`` of those.
    """
    # the renderer relies on bilinearity, which only the class vouches for
    if not isinstance(table, TwistTable):
        raise TypeError(
            f"table must be a TwistTable, got {type(table).__name__}"
        )
    sep = _separator(format)
    n = table.n
    width = 1 << min(n, n // 2 + 1)
    gen_rows, variants = table._gen_rows, 4
    if mu is not None:
        _check_mu(mu)
        # a fold is onto {0, 1}, whose values are 1 and -1 at either mu
        gen_rows, variants = _fold(mu).take(gen_rows), 2
    keys, first, shifts = _row_reads(gen_rows, width)
    _, first_rows, row_class = np.unique(
        keys, return_index=True, return_inverse=True
    )
    first = first[first_rows]
    blocks = (first[:, None, :]
              ^ np.arange(variants, dtype=np.int8)[:, None]).reshape(-1, width)
    return _spelled(blocks, variants * row_class[:, None] + shifts,
                    _SPELL, sep)


def render_table(table: TwistTable, format: str = "text", mu=None) -> str:
    """Whole table as text, one row per line.

    format "text" separates entries with single spaces, "csv" with
    commas; both use LF line endings, no header, entries spelled from
    {1, -1, m, -m}.  mu None keeps entries symbolic, +1 or -1
    substitutes numbers.  Anything but a :class:`TwistTable` raises
    TypeError.
    """
    return "".join(_table_pieces(table, format, mu).ravel().tolist())


def _letter_pieces(n: int, format: str):
    """:func:`render_block_letters` as a :func:`_spelled` piece grid:
    each tile row of :func:`_tiling` is spelled once and placed by its
    index, so the letter grid itself is never built."""
    sep = _separator(format)
    _check_dim(n, low=2)
    tile_rows, index = _tiling(n - 1)
    return _spelled(tile_rows, index, _LETTER_SPELL, sep)


def render_block_letters(n: int, format: str = "text") -> str:
    """Half-resolution table of coefficiented letters, e.g. "-mB": the
    block construction after n - 1 rounds, spelled tile row by tile row
    and placed by the tiles' gather index.

    format is "text" or "csv", as for :func:`render_table`; n must be at
    least 2.
    """
    return "".join(_letter_pieces(n, format).ravel().tolist())
