"""Twist tables: the full 2**n by 2**n matrix of blade sign factors.

Entries are symbolic in the generator square mu, so they live in the
four-element set {1, -1, m, -m} ("m" spells mu in machine output).
That set is a Klein four-group under multiplication, which lets a
whole table sit in a numpy int8 array of two-bit codes:

    bit 0   negation flag
    bit 1   power of mu (mu**2 = 1)

and entry products become XOR.  Two independent constructions are
provided and cross-checked by the test suite:

* :func:`table_direct` evaluates the closed form on the n generator
  rows p = e_k only and XORs the other rows together from them, since
  the twist is bilinear in p;
* :func:`table_blocks` grows the table by block substitution, doubling
  the resolution per round starting from the single letter A.

:func:`render_block_letters` shows that block construction after
n - 1 rounds: a half-resolution grid in which each cell is a
coefficiented letter such as ``-mB``.  The coefficient is the twist of
the cell's indices and the letter records the row's grade parity.

The twist is a bicharacter, so a row's codes are linear in q as well:
``codes[p, q ^ r] == codes[p, q] ^ codes[p, r]``.  Every
:class:`TwistTable` is bilinear: the builders make it so, and the
constructor checks each bit plane of a caller's codes once, with the
test the self-test's certificate uses
(:func:`cltwist._batch.first_difference`).  The renderer, one function
(:func:`_render_chunks`) for tables and letter grids alike, relies on
it to spell each distinct leading block of columns once and build
every row by joining shifted copies of its block.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ._batch import first_difference
from .kernel import (
    MAX_DIM, _check_dim, _check_masks, _check_mu, _parity_above, twist_closed,
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

#: Value of each code once mu is fixed: ``_VALUE[mu][code]``.
_VALUE = {1: (1, -1, 1, -1), -1: (1, -1, -1, 1)}


class SymbolicSign:
    """One of {1, -1, m, -m}: a sign times an optional factor of mu."""

    __slots__ = ("_code",)

    def __init__(self, sign: int = 1, mu_power: int = 0):
        # Exactly int: a float, a bool or a numpy integer is turned away.
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if type(mu_power) is not int or mu_power not in (0, 1):
            raise ValueError(f"mu_power must be 0 or 1, got {mu_power!r}")
        object.__setattr__(self, "_code", (sign < 0) | (mu_power << 1))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicSign is immutable")

    def __reduce__(self):
        return SymbolicSign.from_code, (self._code,)

    @classmethod
    def from_code(cls, code: int) -> "SymbolicSign":
        if type(code) is not int or not 0 <= code <= 3:
            raise ValueError(f"code must be in 0..3, got {code!r}")
        return cls(-1 if code & 1 else 1, (code >> 1) & 1)

    @property
    def sign(self) -> int:
        return -1 if self._code & 1 else 1

    @property
    def mu_power(self) -> int:
        return (self._code >> 1) & 1

    @property
    def code(self) -> int:
        return self._code

    def __mul__(self, other):
        if not isinstance(other, SymbolicSign):
            return NotImplemented
        return SymbolicSign.from_code(self._code ^ other._code)

    def __neg__(self):
        return SymbolicSign.from_code(self._code ^ 1)

    def substitute(self, mu: int) -> int:
        """Numeric value once mu is fixed to +1 or -1."""
        _check_mu(mu)
        return _VALUE[mu][self._code]

    def __eq__(self, other):
        if isinstance(other, SymbolicSign):
            return self._code == other._code
        return NotImplemented

    def __hash__(self):
        return hash((SymbolicSign, self._code))

    def __str__(self):
        return _SPELL[self._code]

    def __repr__(self):
        return f"SymbolicSign(sign={self.sign:+d}, mu_power={self.mu_power})"


def twist_symbolic(p: int, q: int) -> SymbolicSign:
    """Symbolic twist of a blade pair, exact for any 64-bit masks.

    At mu = +1 the twist is the bare reordering sign; the mu power is
    the parity of the shared generators.  Masks outside [0, 2**64)
    raise ValueError.
    """
    return SymbolicSign(twist_closed(p, q, 1), (p & q).bit_count() & 1)


class TwistTable:
    """Dense table of symbolic twists for all blade pairs below 2**n.

    ``codes`` is a 2**n square numpy int8 array of codes in 0..3,
    bilinear in p and in q under XOR as every twist is; anything else
    raises TypeError (not an array) or ValueError.
    """

    __slots__ = ("n", "codes")

    def __init__(self, n: int, codes: np.ndarray):
        if not isinstance(codes, np.ndarray):
            raise TypeError(
                f"codes must be a numpy array, got {type(codes).__name__}"
            )
        # a copy, so that the caller's array cannot change the table
        self._hold(n, codes.copy())
        if (self.codes & ~3).any():
            raise ValueError("codes must be in 0..3")
        for bit in (1, 2):
            # packed in row blocks: small temporaries, reused
            chunks = [np.packbits(self.codes[rows] & bit, bitorder="little")
                      for rows in _row_blocks(1 << n)]
            plane = int.from_bytes(b"".join(chunks), "little")
            if first_difference(plane, n) is not None:
                raise ValueError(
                    "codes must be bilinear in p and in q under XOR"
                )

    @classmethod
    def _adopt(cls, n: int, codes: np.ndarray) -> "TwistTable":
        """Table over ``codes`` itself, for an array a builder has just
        made and keeps no other reference to."""
        table = object.__new__(cls)
        table._hold(n, codes)
        return table

    def _hold(self, n: int, codes: np.ndarray):
        _check_dim(n)
        size = 1 << n
        if codes.shape != (size, size) or codes.dtype != np.int8:
            raise ValueError("codes must be a 2**n square int8 array")
        codes.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("TwistTable is immutable")

    def __reduce__(self):
        # through the constructor, so a copy is checked as any input is
        return TwistTable, (self.n, self.codes)

    def entry(self, p: int, q: int) -> SymbolicSign:
        """Twist of (p, q); masks outside [0, 2**n) raise ValueError."""
        _check_masks(p, q, self.n)
        return SymbolicSign.from_code(int(self.codes[p, q]))

    def __getitem__(self, pq) -> SymbolicSign:
        p, q = pq
        return self.entry(p, q)

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
        return f"<TwistTable n={self.n} ({self.codes.shape[0]}x{self.codes.shape[1]})>"


#: Rows per block of the renderer and of the constructor's bilinearity
#: check: working buffers scale with it, not with the table.
_CHUNK_ROWS = 256


def _row_blocks(rows: int):
    """Slices of at most ``_CHUNK_ROWS`` consecutive rows covering
    ``range(rows)``, in order."""
    for start in range(0, rows, _CHUNK_ROWS):
        yield slice(start, min(start + _CHUNK_ROWS, rows))


def table_direct(n: int) -> TwistTable:
    """Twist table from the closed form on its generator rows.

    The code of (p, q) is linear in p over GF(2): its negation bit is
    the parity of ``_parity_above(p) & q`` and its mu bit that of
    ``p & q``, both linear in p.  So row 0 is all zeros, the closed
    form gives the n rows p = e_k, and each further row is an XOR of
    rows already built: doubling k fills rows e_k .. 2e_k - 1 as
    ``rows[0:e_k] ^ row(e_k)``.
    """
    _check_dim(n)
    size = 1 << n
    gens = np.left_shift(1, np.arange(n, dtype=np.uint64)).reshape(-1, 1)
    q = np.arange(size, dtype=np.uint64)
    neg = np.bitwise_count(_parity_above(gens) & q) & 1
    mu_power = np.bitwise_count(gens & q) & 1
    gen_rows = (neg | mu_power << 1).astype(np.int8)
    return TwistTable._adopt(n, _doubled(gen_rows, size))


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


def _block_rounds(cells: np.ndarray, rounds: int) -> np.ndarray:
    """Coefficiented letters after ``rounds`` rounds of block substitution.

    Each round turns every cell into a 2x2 block:

        c*A  ->  [[cA,  cA], [cB,  mcB]]
        c*B  ->  [[cB, -cB], [cA, -mcA]]

    The right column negates exactly the B cells, which is
    ``cells ^ (cells >> 2)``; the bottom row swaps the letter (xor 4)
    and its right cell also takes a factor mu (xor 6).
    """
    for _ in range(rounds):
        m = cells.shape[0]
        right = cells >> 2
        right ^= cells
        grown = np.empty((2 * m, 2 * m), dtype=np.int8)
        grown[0::2, 0::2] = cells
        grown[0::2, 1::2] = right
        np.bitwise_xor(cells, 4, out=grown[1::2, 0::2])
        np.bitwise_xor(right, 6, out=grown[1::2, 1::2])
        cells = grown
    return cells


def table_blocks(n: int) -> TwistTable:
    """Twist table grown by block substitution from the letter A.

    After n rounds each cell's coefficient is the twist of its indices;
    dropping the letters leaves the table.
    """
    _check_dim(n)
    cells = _block_rounds(np.zeros((1, 1), dtype=np.int8), n)
    cells &= 3
    return TwistTable._adopt(n, cells)


# --- rendering -------------------------------------------------------------

def _separator(format: str) -> str:
    if format not in ("text", "csv"):
        raise ValueError(f"format must be 'text' or 'csv', got {format!r}")
    return " " if format == "text" else ","


def _render_chunks(codes: np.ndarray, spell, sep: str):
    """Text of ``codes``, a twist table or a letter grid, with code c
    spelled ``spell[c]``, entries separated by ``sep``, in row chunks.

    Each row is split into blocks B = 2**min(k, k // 2 + 1) columns wide
    for 2**k columns.  A twist row is linear in q, so ``codes[p, 0]`` is
    0 and block j of row p is its first block XORed by the shift
    ``codes[p, jB]``, a code in 0..3.  A letter grid holds a twist
    table's codes plus its letter, bit 2, which is constant along a
    row, so the shift ``codes[p, jB] ^ codes[p, 0]`` cancels it.

    So each distinct first block is spelled once in each of its 4 XOR
    variants, in one pass: every code indexes a fixed-width bytes table
    of ``entry + sep`` (the block's last column: ``entry + "\n"``)
    padded with NUL, and deleting the NULs leaves one line per variant.
    The palette holds each line ending in ``sep``, then each again
    ending in a newline: piece ``4 * class + shift`` spells a block,
    and in a row's last block the piece half a palette further on, its
    newline copy.

    Each chunk is a list of str pieces that concatenate to the text of
    up to ``_CHUNK_ROWS`` rows, so a caller that wants the whole text
    joins every piece once.
    """
    k = codes.shape[1].bit_length() - 1
    width = 1 << min(k, k // 2 + 1)
    shifts = codes[:, ::width] ^ codes[:, :1]
    first = np.ascontiguousarray(codes[:, :width])
    distinct, row_class = np.unique(
        first.view(f"V{width}").ravel(), return_inverse=True
    )
    variants = (distinct.view(np.int8).reshape(-1, 1, width)
                ^ np.arange(4, dtype=np.int8)[:, None]).reshape(-1, width)
    dtype = f"S{1 + max(map(len, spell))}"
    inner = np.array([(s + sep).encode("ascii") for s in spell], dtype)
    last = np.array([(s + "\n").encode("ascii") for s in spell], dtype)
    cells = inner.take(variants)
    cells[:, -1] = last.take(variants[:, -1])
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    lines = text.split("\n")[:-1]
    palette = np.array(
        [line + sep for line in lines] + [line + "\n" for line in lines],
        dtype=object,
    )
    for block_rows in _row_blocks(len(row_class)):
        index = 4 * row_class[block_rows, None] + shifts[block_rows]
        index[:, -1] += len(lines)
        yield palette[index].ravel().tolist()


def _joined(chunks) -> str:
    """The text of an iterator of chunks, joined in one pass."""
    return "".join(chain.from_iterable(chunks))


def _table_chunks(table: TwistTable, format: str, mu):
    """:func:`render_table` as an iterator of row chunks."""
    sep = _separator(format)
    if mu is None:
        return _render_chunks(table.codes, _SPELL, sep)
    _check_mu(mu)
    return _render_chunks(table.codes, [str(v) for v in _VALUE[mu]], sep)


def render_table(table: TwistTable, format: str = "text", mu=None) -> str:
    """Whole table as text, one row per line.

    format "text" separates entries with single spaces, "csv" with
    commas; both use LF line endings, no header, entries spelled from
    {1, -1, m, -m}.  mu None keeps entries symbolic, +1 or -1
    substitutes numbers.
    """
    return _joined(_table_chunks(table, format, mu))


def _letter_chunks(n: int, format: str):
    """:func:`render_block_letters` as an iterator of row chunks."""
    sep = _separator(format)
    _check_dim(n, low=2)
    cells = _block_rounds(np.zeros((1, 1), dtype=np.int8), n - 1)
    return _render_chunks(cells, _LETTER_SPELL, sep)


def render_block_letters(n: int, format: str = "text") -> str:
    """Half-resolution table of coefficiented letters, e.g. "-mB"."""
    return _joined(_letter_chunks(n, format))
