import random

import pytest

from cltwist import _batch, kernel
from cltwist._batch import PLANE_FORMS, Grid


def _scalar_plane(scalar, mu, n):
    """The plane of ``scalar``'s sign parities below 2**n, pair by pair:
    bit ``p * 2**n + q`` set where it gives -1."""
    size = 1 << n
    return sum(1 << (p << n | q) for p in range(size) for q in range(size)
               if scalar(p, q, mu) < 0)


def test_every_algorithm_has_an_array_form():
    assert set(PLANE_FORMS) == set(kernel.ALGORITHMS.values())


def _bits(plane, n):
    """The cells of a plane of width n as a str of digits, cell
    ``p << n | q`` at position ``p << n | q``."""
    return format(plane, f"0{4 ** n}b")[::-1]


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_planes_by_their_definition(n):
    cells = [(p, q) for p in range(1 << n) for q in range(1 << n)]
    grid = Grid(n)
    assert len(grid.p) == len(grid.q) == n
    for i in range(n):
        assert _bits(grid.p[i], n) == "".join(str(p >> i & 1)
                                               for p, _ in cells), i
        assert _bits(grid.q[i], n) == "".join(str(q >> i & 1)
                                               for _, q in cells), i
    combos = _batch.row_combos(n)
    assert len(combos) == 1 << n
    for m, row in enumerate(combos):
        assert row < 1 << (1 << n), m
        for q in range(1 << n):
            assert row >> q & 1 == (m & q).bit_count() & 1, (m, q)


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("name", list(kernel.ALGORITHMS))
def test_array_form_matches_scalar_on_every_pair_at_width_8(name, mu):
    scalar = kernel.ALGORITHMS[name]
    got = PLANE_FORMS[scalar](Grid(8), mu)
    assert type(got) is int
    assert got == _scalar_plane(scalar, mu, 8)


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", range(1, 8))
def test_plane_forms_match_scalar_on_every_pair_below_width_8(n, mu):
    grid = Grid(n)
    for scalar, form in PLANE_FORMS.items():
        assert form(grid, mu) == _scalar_plane(scalar, mu, n), scalar.__name__


@pytest.mark.parametrize("mu", [1, -1])
def test_anf_tree_step_reproduces_every_transition(mu):
    # the 8 entries of the rule table at once: bit i of each variable
    # plane is that variable's bit in the table index i
    letter_poly, sign_poly = _batch._TREE_ANF[mu]
    variables = (0b11110000, 0b11001100, 0b10101010)  # letter, p, q
    letters = _batch._anf_value(letter_poly, variables)
    flips = _batch._anf_value(sign_poly, variables)
    for index, (letter, code) in enumerate(kernel._RULE):
        assert letters >> index & 1 == letter, index
        assert flips >> index & 1 == (kernel._VALUE[mu][code] < 0), index


@pytest.mark.parametrize("mu", [1, -1])
def test_tree_step_polynomials_have_no_constant_term(mu):
    # _anf_value evaluates no empty monomial: the tree step maps the
    # all-zero index, +A at the bit pair (0, 0), to +A with code 0
    assert kernel._RULE[0] == (0, 0), (
        "tree_parity starts its walk at the width's top pair, which"
        " needs the zero pairs above it to leave +A as it is"
    )
    for poly in _batch._TREE_ANF[mu]:
        assert () not in poly, (
            f"{poly} has a constant term, so tree_parity's start at the"
            " top pair of the width would not match twist_tree"
        )


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("width", [1, 2, 4, 5, 7])
def test_tree_form_matches_twist_tree_at_widths_off_the_step(width, mu):
    # the plane walk starts every cell at the top pair of the width, and
    # twist_tree at the top set bit of its pair: the zero pairs between
    # must leave +A as it is, at widths off a multiple of 3 as well
    got = _batch.tree_parity(Grid(width), mu)
    assert got == _scalar_plane(kernel.twist_tree, mu, width)


@pytest.mark.parametrize("n", range(1, 13))
def test_split_inverts_joined(n):
    rng = random.Random(n)
    rows = [rng.getrandbits(1 << n) for _ in range(1 << n)]
    plane = _batch.joined(rows, n)
    assert plane < 1 << 4 ** n
    assert list(_batch.split(plane, n)) == rows
    assert plane == sum(row << (p << n) for p, row in enumerate(rows))
