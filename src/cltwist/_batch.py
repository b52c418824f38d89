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
j of q, and R_j the 2**n-bit row pattern of Q_j.  P_i and R_j are one
formula, :func:`_bit_pattern`, the int whose bit x is bit b of x: bit
n + i of the cell index for P_i, bit j of q for R_j.  A grid holds the
planes P_i and Q_j for as long as it lives; the row patterns R_j, and
the XOR of them over every mask, are built once per width.  Each form
follows its own scalar algorithm's method, so agreement between them
is still a cross-check:

* :func:`oracle_parity`    the XOR of P_i & Q_j over the inversion pairs
                           i > j, and i = j when mu < 0
* :func:`recursive_parity` strips one low bit pair per step
* :func:`tree_parity`      steps the twist-tree automaton, high bit first
* :func:`closed_parity`    one ``kernel._parity_above`` per row

The tree form's step is the algebraic normal form (the XOR of ANDs) of
the transitions of ``kernel._RULE``, the rule table ``twist_tree``
walks, with the sign of each code read off ``kernel._VALUE``, computed
from those tables alone, so the form stays independent of the other
three.  ``_RULE`` keeps +A at the bit pair (0, 0), so neither
polynomial has a constant term.

:func:`first_difference` is the bilinearity test on planes: the
self-test's certificate puts a parity plane to it.  Tables, whose
format is a numpy array, have their own, the two doubling passes of
``tables`` that build a direct table (``tables._generator_rows`` and
``tables._doubled``), and import nothing from here.

:data:`PLANE_FORMS` maps each scalar function in
:data:`cltwist.kernel.ALGORITHMS` to its form.  A caller holding some
other function (a wrapped or a deliberately faulty one) finds nothing
there and must call it pair by pair.  Nothing here checks its input,
and nothing here imports numpy.
"""

from functools import lru_cache
from typing import List, Optional, Tuple

from . import kernel


def _tiled(pattern: int, period: int, length: int) -> int:
    """The ``period``-bit ``pattern`` repeated to fill ``length`` bits,
    a power of two times ``period``, by doublings."""
    while period < length:
        pattern |= pattern << period
        period <<= 1
    return pattern


def _bit_pattern(b: int, length: int) -> int:
    """The ``length``-bit int whose bit x is bit b of x: runs of 2**b
    zeros and 2**b ones, for a power of two ``length`` of at least
    2**(b + 1)."""
    run = 1 << b
    return _tiled(((1 << run) - 1) << run, 2 * run, length)


@lru_cache(maxsize=None)
def row_patterns(n: int) -> Tuple[int, ...]:
    """R_j for each j below n: bit q of it is bit j of q, for q below
    2**n."""
    return tuple(_bit_pattern(j, 1 << n) for j in range(n))


@lru_cache(maxsize=None)
def row_combos(n: int) -> Tuple[int, ...]:
    """The XOR of the row patterns R_j over the set bits j of each mask
    m below 2**n: bit q of entry m is the parity of ``m & q``."""
    combos = [0]
    for row in row_patterns(n):
        combos += [x ^ row for x in combos]
    return tuple(combos)


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


def split(plane: int, n: int) -> List[int]:
    """The 2**n rows of a plane of width n, row 0 first: the inverse of
    :func:`joined`.  Each pass splits every part into its low and high
    halves, until the parts are rows."""
    parts = [plane]
    for level in reversed(range(n, 2 * n)):
        bits = 1 << level  # bits in each half
        low = (1 << bits) - 1
        parts = [half for part in parts for half in (part & low, part >> bits)]
    return parts


def first_set(plane: int, n: int) -> Optional[Tuple[int, int]]:
    """The first cell (p, q) in row-major order whose bit is set in the
    plane, its lowest set bit; None for the empty plane."""
    if not plane:
        return None
    return divmod((plane & -plane).bit_length() - 1, 1 << n)


class Grid:
    """The grid of blade pairs (p, q) below 2**n, as bit planes.

    ``p`` holds the n planes P_i, whole rows of ones where bit i of p
    is set, and ``q`` the n planes Q_j, the row patterns R_j repeated
    down every row.  Each plane is 4**n bits, so a grid of width 12
    holds 24 planes of 2 MiB: a self-test builds one, and nothing keeps
    it after.
    """

    __slots__ = ("n", "p", "q")

    def __init__(self, n: int):
        self.n = n
        cells = 1 << 2 * n
        # bit i of p is bit n + i of the cell's index p * 2**n + q
        self.p = [_bit_pattern(n + i, cells) for i in range(n)]
        self.q = [_tiled(row, 1 << n, cells) for row in row_patterns(n)]


def oracle_parity(grid: Grid, mu: int) -> int:
    """Parity of the inversion pairs (i in p, j in q, i > j), one pair
    of generator positions per step, plus the shared generators when
    mu < 0: O(n**2) plane steps, straight from the definition."""
    parity = 0
    for i in range(grid.n):
        p_i = grid.p[i]
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
    for p_i in grid.p:
        rest ^= p_i
    parity = 0
    for k, a in enumerate(grid.p):
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


#: One step of the rule table ``kernel._RULE`` at each mu as two
#: polynomials in the bits of its index ``letter << 2 | p_bit << 1 |
#: q_bit``: the next letter's, and the sign flip's, which is 1 where the
#: code's value at mu (``kernel._VALUE``) is -1.
_TREE_ANF = {
    mu: (_anf(letter for letter, _ in kernel._RULE),
         _anf(value[code] < 0 for _, code in kernel._RULE))
    for mu, value in kernel._VALUE.items()
}


def _anf_value(monomials, variables) -> int:
    """The plane of a polynomial from :func:`_anf` with no constant
    term, as every one in :data:`_TREE_ANF` is, on the three planes
    ``variables``."""
    value = 0
    for monomial in monomials:
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
        variables = (letter, grid.p[k], grid.q[k])
        letter = _anf_value(letter_poly, variables)
        sign ^= _anf_value(sign_poly, variables)
    return sign


def closed_parity(grid: Grid, mu: int) -> int:
    """Row p is the parity of ``_parity_above(p) & q``, and also of
    ``p & q`` when mu < 0: the XOR of the row patterns R_j over the set
    bits j of that mask, looked up in :func:`row_combos`, the table of
    every such XOR, built once per width."""
    combos = row_combos(grid.n)
    shared = mu < 0
    return joined(
        (combos[kernel._parity_above(p) ^ (p if shared else 0)]
         for p in range(1 << grid.n)),
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
PLANE_FORMS = {
    kernel.twist_oracle: oracle_parity,
    kernel.twist_recursive: recursive_parity,
    kernel.twist_tree: tree_parity,
    kernel.twist_closed: closed_parity,
}
