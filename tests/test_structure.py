"""Structure laws of the Clifford algebra, checked on the twist tables.

Each law follows from the axioms alone, so it checks both builders
without any of the four sign algorithms.  The laws read the symbolic
codes (bit 0: negation, bit 1: a factor mu) and the grades |p|:

* commutation: s(p,q)·s(q,p) = (-1)^(|p||q| + |p∧q|), so
  ``codes ^ codes.T`` has bit 1 clear and bit 0 equal to that parity;
* blade squares: s(p,p) = (-1)^(|p|(|p|-1)/2) · mu^|p| on the diagonal;
* centre: the blades that commute with every generator are the scalar
  for even n, and the scalar and the pseudoscalar for odd n;
* simplicity: the algebra is simple exactly when its centre is a field,
  that is, when n is even or the pseudoscalar squares to -1.

Each law is also shown to catch one flipped cell.
"""

import numpy as np
import pytest

from cltwist.tables import SymbolicSign, table_blocks, table_direct

WIDTHS = range(1, 13)
BUILDERS = [table_direct, table_blocks]

#: Rows per block: at n = 12 a block's temporaries stay near 8 MiB.
ROWS = 256


def _grades(n):
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint16))


def commutation_fault(codes):
    """First (p, q) where the commutation law fails, or None."""
    size = codes.shape[0]
    q = np.arange(size, dtype=np.uint16)
    odd = _grades(size.bit_length() - 1) & 1
    for start in range(0, size, ROWS):
        rows = slice(start, start + ROWS)
        d = codes[rows] ^ codes[:, rows].T
        shared = np.bitwise_count(q[rows, None] & q) & 1
        want = (odd[rows, None] & odd) ^ shared
        bad = np.argwhere(d != want)
        if bad.size:
            return start + int(bad[0][0]), int(bad[0][1])
    return None


def squares_fault(codes):
    """First p where the diagonal is not the blade square, or None."""
    g = _grades(codes.shape[0].bit_length() - 1).astype(int)
    want = ((g * (g - 1) // 2) & 1) | ((g & 1) << 1)
    bad = np.flatnonzero(np.diagonal(codes) != want)
    return int(bad[0]) if bad.size else None


def centre(codes, n):
    """Blades that commute with every generator e_1 .. e_n."""
    gens = 1 << np.arange(n)
    d = codes[:, gens] ^ codes[gens, :].T
    return np.flatnonzero(~(d & 1).any(axis=1)).tolist()


def is_simple(codes, n, mu):
    """Whether the centre, read from the table, is a field."""
    central = centre(codes, n)
    if central == [0]:
        return True
    top = (1 << n) - 1
    square = SymbolicSign.from_code(int(codes[top, top])).substitute(mu)
    return central == [0, top] and square == -1


def classified_simple(n, mu):
    """Simplicity from the classification of real Clifford algebras:
    Cl(p, q) with p + q odd splits exactly when p - q = 1 (mod 4)."""
    return n % 2 == 0 or (mu * n) % 4 != 1


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("build", BUILDERS)
def test_commutation(build, n):
    assert commutation_fault(build(n).codes) is None


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("build", BUILDERS)
def test_blade_squares(build, n):
    assert squares_fault(build(n).codes) is None


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("build", BUILDERS)
def test_centre(build, n):
    top = (1 << n) - 1
    assert centre(build(n).codes, n) == ([0] if n % 2 == 0 else [0, top])


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("build", BUILDERS)
def test_simplicity(build, n):
    codes = build(n).codes
    for mu in (1, -1):
        assert is_simple(codes, n, mu) == classified_simple(n, mu)


@pytest.mark.parametrize(
    "n, mu, simple",
    [
        (1, 1, False),  # R + R
        (1, -1, True),  # the complex numbers
        (3, 1, True),  # M2(C)
        (3, -1, False),  # H + H
        (2, 1, True),  # M2(R)
        (2, -1, True),  # the quaternions
    ],
)
def test_simplicity_small_cases(n, mu, simple):
    assert is_simple(table_direct(n).codes, n, mu) is simple


# --- each law catches one flipped cell ---------------------------------------

@pytest.mark.parametrize("bit", [1, 2])
@pytest.mark.parametrize("p, q", [(0, 1), (5, 3), (3, 12), (15, 14)])
def test_commutation_catches_flip_off_diagonal(p, q, bit):
    codes = table_direct(4).codes.copy()
    codes[p, q] ^= bit
    assert commutation_fault(codes) in {(p, q), (q, p)}


@pytest.mark.parametrize("bit", [1, 2])
@pytest.mark.parametrize("p", [0, 1, 6, 7, 15])
def test_squares_catch_flip_on_diagonal(p, bit):
    codes = table_blocks(4).codes.copy()
    codes[p, p] ^= bit
    assert squares_fault(codes) == p
    assert commutation_fault(codes) is None  # blind to the diagonal


@pytest.mark.parametrize("n", [3, 4])
def test_centre_catches_flip(n):
    codes = table_direct(n).codes.copy()
    codes[0, 1] ^= 1  # the scalar no longer commutes with e_1
    assert 0 not in centre(codes, n)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_simplicity_catches_flip(n):
    codes = table_direct(n).codes.copy()
    top = (1 << n) - 1
    codes[top, top] ^= 1  # the pseudoscalar square changes sign
    for mu in (1, -1):
        assert is_simple(codes, n, mu) != classified_simple(n, mu)
