"""Twist tables: the full 2**n by 2**n matrix of blade sign factors.

Entries are symbolic in the generator square mu, so they live in the
four-element set {1, -1, m, -m} ("m" spells mu in machine output).
That set is a Klein four-group under multiplication, which lets a
whole table sit in a numpy int8 array of two-bit codes:

    bit 0   negation flag
    bit 1   power of mu (mu**2 = 1)

and entry products become XOR.  Two independent constructions are
provided and cross-checked by the test suite:

* :func:`table_direct` evaluates the closed form for every cell;
* :func:`table_blocks` grows the table by block substitution, doubling
  the resolution per round starting from the single letter A.

:func:`render_block_letters` shows that block construction after
n - 1 rounds: a half-resolution grid in which each cell is a
coefficiented letter such as ``-mB``.  The coefficient is the twist of
the cell's indices and the letter records the row's grade parity.
"""

from __future__ import annotations

import numpy as np

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
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if mu_power not in (0, 1):
            raise ValueError(f"mu_power must be 0 or 1, got {mu_power!r}")
        object.__setattr__(self, "_code", (sign < 0) | (mu_power << 1))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicSign is immutable")

    @classmethod
    def from_code(cls, code: int) -> "SymbolicSign":
        if not 0 <= code <= 3:
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
    """Dense table of symbolic twists for all blade pairs below 2**n."""

    __slots__ = ("n", "codes")

    def __init__(self, n: int, codes: np.ndarray):
        # a copy, so that the caller's array cannot change the table
        self._hold(n, codes.copy())

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
        neg = self.codes & 1
        if mu == 1:
            return (1 - 2 * neg).astype(np.int8)
        mup = self.codes >> 1
        return (1 - 2 * (neg ^ mup)).astype(np.int8)

    def __eq__(self, other):
        if isinstance(other, TwistTable):
            return self.n == other.n and np.array_equal(
                self.codes, other.codes
            )
        return NotImplemented

    def __repr__(self):
        return f"<TwistTable n={self.n} ({self.codes.shape[0]}x{self.codes.shape[1]})>"


#: Rows per block of the direct build and of the renderer: working
#: buffers scale with it, not with the table.
_CHUNK_ROWS = 256


def table_direct(n: int) -> TwistTable:
    """Twist table built cell-by-cell from the closed form."""
    _check_dim(n)
    size = 1 << n
    p = np.arange(size, dtype=np.uint64).reshape(-1, 1)
    x = _parity_above(p)
    # Masks stay below 2**MAX_DIM, so the cells of a row block fit in
    # 16 bits: a quarter of the memory of uint64 cells.
    p, x = p.astype(np.uint16), x.astype(np.uint16)
    q = np.arange(size, dtype=np.uint16)
    codes = np.empty((size, size), dtype=np.int8)
    for start in range(0, size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        neg = np.bitwise_count(x[rows] & q) & 1
        mu_power = np.bitwise_count(p[rows] & q) & 1
        np.bitwise_or(
            neg, mu_power << 1, out=codes[rows], casting="unsafe"
        )
    return TwistTable._adopt(n, codes)


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
    """ASCII text of ``codes`` spelled through ``spell``, in row chunks.

    Each code indexes a fixed-width bytes table of ``entry + sep`` (the
    last column: ``entry + "\n"``) padded with NUL; deleting the NULs
    from a chunk's bytes leaves exactly its text.
    """
    width = 1 + max(map(len, spell))
    dtype = f"S{width}"
    inner = np.array([(s + sep).encode("ascii") for s in spell], dtype)
    last = np.array([(s + "\n").encode("ascii") for s in spell], dtype)
    rows, cols = codes.shape
    buf = np.empty((min(rows, _CHUNK_ROWS), cols), dtype)
    for start in range(0, rows, _CHUNK_ROWS):
        block = codes[start:start + _CHUNK_ROWS]
        out = buf[:block.shape[0]]
        np.take(inner, block[:, :-1], out=out[:, :-1])
        np.take(last, block[:, -1], out=out[:, -1])
        yield out.tobytes().translate(None, b"\0")


def _table_chunks(table: TwistTable, format: str, mu):
    """:func:`render_table` as an iterator of ASCII byte chunks."""
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
    return b"".join(_table_chunks(table, format, mu)).decode("ascii")


def _letter_chunks(n: int, format: str):
    """:func:`render_block_letters` as an iterator of ASCII byte chunks."""
    sep = _separator(format)
    _check_dim(n, low=2)
    cells = _block_rounds(np.zeros((1, 1), dtype=np.int8), n - 1)
    return _render_chunks(cells, _LETTER_SPELL, sep)


def render_block_letters(n: int, format: str = "text") -> str:
    """Half-resolution table of coefficiented letters, e.g. "-mB"."""
    return b"".join(_letter_chunks(n, format)).decode("ascii")
