"""Plane forms of the four sign algorithms, for the whole grid of blade
pairs below ``2**n`` at once.

A bit plane is one Python int that holds one bit for every cell
(p, q) of the 2**n by 2**n grid, at bit ``p * 2**n + q``: row p is
the 2**n bits from ``p * 2**n`` up.  One AND or XOR of two planes is
then one Boolean step on every cell at once.  This is bitslicing (E.
Biham, "A fast new DES implementation in software", FSE 1997), and it
fits the twist, whose sign parity is a GF(2) bicharacter.

Each form takes a :class:`Grid` of width n and the generator square
``mu`` and returns the plane of sign parities: 1 where the scalar
algorithm gives -1.  P_i is the plane of bit i of p, Q_j that of bit
j of q, and R_j the 2**n-bit row pattern of Q_j.  Each form follows its
own scalar algorithm's method, so agreement between them is still a
cross-check:

* :func:`oracle_parity`    the XOR of P_i & Q_j over the inversion pairs
                           i > j, and i = j when mu < 0
* :func:`recursive_parity` strips one low bit pair per step
* :func:`tree_parity`      steps the twist-tree automaton, high bit first
* :func:`closed_parity`    one ``kernel._parity_above`` per row

The tree form's step is the algebraic normal form (the XOR of ANDs) of
the transitions of ``kernel._FLAT_TREES``, the automaton ``twist_tree``
walks, computed from that table alone, so the form stays independent
of the other three.

:func:`first_difference` is the one bilinearity test: the self-test's
certificate puts a parity plane to it, and the ``TwistTable``
constructor each bit plane of its codes.

:data:`ARRAY_FORMS` maps each scalar function in
:data:`cltwist.kernel.ALGORITHMS` to its form.  A caller holding some
other function (a wrapped or a deliberately faulty one) finds nothing
there and must call it pair by pair.  Nothing here checks its input,
and nothing here imports numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Tuple

from . import kernel


def _tiled(pattern: int, period: int, length: int) -> int:
    """The ``period``-bit ``pattern`` repeated to fill ``length`` bits,
    a power of two times ``period``, by doublings."""
    while period < length:
        pattern |= pattern << period
        period <<= 1
    return pattern


@lru_cache(maxsize=None)
def row_patterns(n: int) -> Tuple[int, ...]:
    """R_j for each j below n: bit q of it is bit j of q, for q below
    2**n."""
    return tuple(
        _tiled(((1 << (1 << j)) - 1) << (1 << j), 2 << j, 1 << n)
        for j in range(n)
    )


def _doubled(factors, n: int) -> int:
    """The plane of width n whose row m is the XOR of ``factors[j]``
    over every bit j of m (0 for m = 0), for the n factors, rows of
    2**n bits, built by doublings: rows e .. 2e - 1 are rows 0 .. e - 1
    XORed with ``factors[j]``, for e = 2**j."""
    size = 1 << n
    plane = 0
    span = size  # bits in the rows built so far
    for factor in factors:
        plane |= (plane ^ _tiled(factor, size, span)) << span
        span <<= 1
    return plane


def joined(rows, n: int) -> int:
    """The plane whose row p is ``rows[p]``, for the 2**n rows of width
    n.  Rows of a byte or more are joined as bytes."""
    if n < 3:
        return sum(row << (p << n) for p, row in enumerate(rows))
    width = 1 << n >> 3
    return int.from_bytes(
        b"".join([row.to_bytes(width, "little") for row in rows]), "little"
    )


def split(plane: int, n: int) -> Iterator[int]:
    """The 2**n rows of a plane of width n, row 0 first: the inverse of
    :func:`joined`."""
    size = 1 << n
    if n < 3:
        return (plane >> (p << n) & ((1 << size) - 1) for p in range(size))
    width = size >> 3
    data = plane.to_bytes(width << n, "little")
    return (int.from_bytes(data[start:start + width], "little")
            for start in range(0, len(data), width))


def first_set(plane: int, n: int) -> Optional[Tuple[int, int]]:
    """The first cell (p, q) in row-major order whose bit is set in the
    plane, its lowest set bit; None for the empty plane."""
    if not plane:
        return None
    return divmod((plane & -plane).bit_length() - 1, 1 << n)


class Grid:
    """The grid of blade pairs (p, q) below 2**n, as bit planes.

    ``q`` holds the n planes Q_j, ``rows`` their row patterns R_j, and
    ``ones`` the plane of every cell.  A plane P_i is a row pattern
    along p, so :meth:`p` builds it on demand rather than holding n of
    them.
    """

    __slots__ = ("n", "size", "ones", "rows", "q")

    def __init__(self, n: int):
        self.n = n
        self.size = 1 << n
        cells = self.size << n
        self.ones = (1 << cells) - 1
        self.rows = row_patterns(n)
        self.q = [_tiled(row, self.size, cells) for row in self.rows]

    def p(self, i: int) -> int:
        """P_i: whole rows of ones where bit i of p is set."""
        block = 1 << i << self.n  # 2**i rows
        cells = self.size << self.n
        return _tiled(((1 << block) - 1) << block, 2 * block, cells)


def oracle_parity(grid: Grid, mu: int) -> int:
    """Parity of the inversion pairs (i in p, j in q, i > j), one pair
    of generator positions per step, plus the shared generators when
    mu < 0: O(n**2) plane steps, straight from the definition."""
    parity = 0
    for i in range(grid.n):
        p_i = grid.p(i)
        # j == i is a shared generator: a factor mu, not an inversion
        for q_j in grid.q[:i + (mu < 0)]:
            parity ^= p_i & q_j
    return parity


def recursive_parity(grid: Grid, mu: int) -> int:
    """Strip the low bit pair (a, b) of (p, q) once per bit.  A set b
    passes every generator left in p, and also squares to mu when a is
    set too.  ``rest`` is the running XOR of the p planes not yet
    stripped: the parity of the generators left in p."""
    rest = 0
    for i in range(grid.n):
        rest ^= grid.p(i)
    parity = 0
    for k in range(grid.n):
        a = grid.p(k)
        rest ^= a
        flip = rest ^ a if mu < 0 else rest
        parity ^= grid.q[k] & flip
    return parity


def _anf(values) -> Tuple[Tuple[int, ...], ...]:
    """The algebraic normal form of a Boolean function of three bits,
    given by its 8 values at ``x0 << 2 | x1 << 1 | x2``: its monomials
    whose coefficient is 1, each as the positions of its variables
    (none for the constant 1), by the Moebius transform."""
    coeffs = [int(value) for value in values]
    for bit in (1, 2, 4):
        for index in range(8):
            if index & bit:
                coeffs[index] ^= coeffs[index ^ bit]
    return tuple(
        tuple(k for k in range(3) if index >> (2 - k) & 1)
        for index in range(8) if coeffs[index]
    )


#: One automaton step of ``kernel._FLAT_TREES[mu]`` as two polynomials
#: in the bits of its index ``letter << 2 | p_bit << 1 | q_bit``: the
#: next letter's, and the sign flip's.
_TREE_ANF = {
    mu: (_anf(letter for letter, _ in flat),
         _anf(sign < 0 for _, sign in flat))
    for mu, flat in kernel._FLAT_TREES.items()
}


def _anf_value(monomials, variables, ones: int) -> int:
    """The plane of a polynomial from :func:`_anf`, on the three planes
    ``variables``; ``ones`` is the constant 1."""
    value = 0
    for monomial in monomials:
        term = ones
        if monomial:
            term = variables[monomial[0]]
            for k in monomial[1:]:
                term &= variables[k]
        value ^= term
    return value


def tree_parity(grid: Grid, mu: int) -> int:
    """Walk the twist tree from +A over the bit pairs, highest first,
    on a letter plane and a sign plane; the sign parity is the final
    sign plane.  Each step evaluates the transition table's algebraic
    normal form on the planes.  The walk starts at the top pair of the
    width: the zero pairs above it would leave +A as it is."""
    letter_poly, sign_poly = _TREE_ANF[mu]
    letter = sign = 0
    for k in range(grid.n - 1, -1, -1):
        variables = (letter, grid.p(k), grid.q[k])
        letter = _anf_value(letter_poly, variables, grid.ones)
        sign ^= _anf_value(sign_poly, variables, grid.ones)
    return sign


def closed_parity(grid: Grid, mu: int) -> int:
    """Row p is the parity of ``_parity_above(p) & q``, and also of
    ``p & q`` when mu < 0: the XOR of the row patterns R_j over the set
    bits j of that mask, looked up among every such XOR."""
    combos = [0]  # the XOR of R_j over the bits j of each mask
    for row in grid.rows:
        combos += [x ^ row for x in combos]
    shared = mu < 0
    return joined(
        (combos[kernel._parity_above(p) ^ (p if shared else 0)]
         for p in range(grid.size)),
        grid.n,
    )


def first_difference(plane: int, n: int) -> Optional[Tuple[int, int]]:
    """The first cell (p, q), in row-major order, where the plane of
    width n differs from the GF(2)-bilinear form of its generator
    entries, the bits of (e_j, e_i); None if there is none.

    Each generator row e_j is rebuilt as the XOR of the row patterns
    R_i over its generator entries, and every row p as the XOR of the
    generator rows over the bits of p, by doublings of the plane; the
    rebuilt plane is compared with the given one.  A plane
    has no difference exactly when it is linear in p and in q: when
    ``s[p ^ r, q] == s[p, q] ^ s[r, q]`` and
    ``s[p, q ^ r] == s[p, q] ^ s[p, r]`` for all p, q, r.
    """
    size = 1 << n
    patterns = row_patterns(n)
    gen_rows = []
    for j in range(n):
        start = size << j
        # masked before the shift, which then reads one row
        row = (plane & ((1 << size) - 1) << start) >> start
        gen_row = 0
        for i, pattern in enumerate(patterns):
            if row >> (1 << i) & 1:
                gen_row ^= pattern
        gen_rows.append(gen_row)
    return first_set(plane ^ _doubled(gen_rows, n), n)


#: Plane form of each scalar algorithm, keyed by the function object.
ARRAY_FORMS = {
    kernel.twist_oracle: oracle_parity,
    kernel.twist_recursive: recursive_parity,
    kernel.twist_tree: tree_parity,
    kernel.twist_closed: closed_parity,
}
