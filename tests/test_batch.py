import random

import pytest

from cltwist import _batch, kernel
from cltwist._batch import ARRAY_FORMS, Grid


def _scalar_plane(scalar, mu, n):
    """The plane of ``scalar``'s sign parities below 2**n, pair by pair:
    bit ``p * 2**n + q`` set where it gives -1."""
    size = 1 << n
    return sum(1 << (p << n | q) for p in range(size) for q in range(size)
               if scalar(p, q, mu) < 0)


def test_every_algorithm_has_an_array_form():
    assert set(ARRAY_FORMS) == set(kernel.ALGORITHMS.values())


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("name", list(kernel.ALGORITHMS))
def test_array_form_matches_scalar_on_every_pair_at_width_8(name, mu):
    scalar = kernel.ALGORITHMS[name]
    got = ARRAY_FORMS[scalar](Grid(8), mu)
    assert type(got) is int
    assert got == _scalar_plane(scalar, mu, 8)


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", range(1, 8))
def test_plane_forms_match_scalar_on_every_pair_below_width_8(n, mu):
    grid = Grid(n)
    for scalar, form in ARRAY_FORMS.items():
        assert form(grid, mu) == _scalar_plane(scalar, mu, n), scalar.__name__


@pytest.mark.parametrize("mu", [1, -1])
def test_anf_tree_step_reproduces_every_transition(mu):
    # the 8 transitions of one mu at once: bit i of each variable plane
    # is that variable's bit in the table index i
    flat = kernel._FLAT_TREES[mu]
    letter_poly, sign_poly = _batch._TREE_ANF[mu]
    variables = (0b11110000, 0b11001100, 0b10101010)  # letter, p, q
    letters = _batch._anf_value(letter_poly, variables, 0xFF)
    flips = _batch._anf_value(sign_poly, variables, 0xFF)
    for index, (letter, sign) in enumerate(flat):
        assert letters >> index & 1 == letter, index
        assert flips >> index & 1 == (sign < 0), index


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("width", [1, 2, 4, 5, 7])
def test_tree_form_matches_twist_tree_at_widths_off_the_step(width, mu):
    # the plane walk starts every cell at the top pair of the width, and
    # twist_tree at the top set bit of its pair: the zero pairs between
    # must leave +A as it is, at widths off a multiple of 3 as well
    got = _batch.tree_parity(Grid(width), mu)
    assert got == _scalar_plane(kernel.twist_tree, mu, width)


@pytest.mark.parametrize("n", range(1, 6))
def test_split_inverts_joined(n):
    rng = random.Random(n)
    rows = [rng.getrandbits(1 << n) for _ in range(1 << n)]
    plane = _batch.joined(rows, n)
    assert plane < 1 << 4 ** n
    assert list(_batch.split(plane, n)) == rows
    assert plane == sum(row << (p << n) for p, row in enumerate(rows))
