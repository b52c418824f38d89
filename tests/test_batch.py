import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cltwist import _batch, kernel
from cltwist._batch import ARRAY_FORMS

masks = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_every_algorithm_has_an_array_form():
    assert set(ARRAY_FORMS) == set(kernel.ALGORITHMS.values())


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("name", list(kernel.ALGORITHMS))
def test_array_form_matches_scalar_on_every_pair_at_width_8(name, mu):
    scalar = kernel.ALGORITHMS[name]
    idx = np.arange(256, dtype=np.uint64)
    got = ARRAY_FORMS[scalar](idx[:, None], idx[None, :], mu, 8)
    assert got.dtype == np.uint8
    want = [[int(scalar(p, q, mu) < 0) for q in range(256)] for p in range(256)]
    assert got.tolist() == want


@given(st.lists(st.tuples(masks, masks), min_size=1, max_size=8),
       st.sampled_from([1, -1]))
def test_array_forms_match_scalar_on_64_bit_masks(pairs, mu):
    p = np.array([a for a, _ in pairs], dtype=np.uint64)
    q = np.array([b for _, b in pairs], dtype=np.uint64)
    for scalar, form in ARRAY_FORMS.items():
        want = [int(scalar(a, b, mu) < 0) for a, b in pairs]
        assert form(p, q, mu, 64).tolist() == want, scalar.__name__


@pytest.mark.parametrize("mu", [1, -1])
def test_composed_tree_step_is_three_single_steps(mu):
    flat = kernel._FLAT_TREES[mu]
    steps = _batch._TREE_STEPS[mu]
    assert steps.shape == (256,) and steps.dtype == np.uint8
    for index in range(256):
        p_bits, q_bits = index >> 5, index >> 2 & 7
        neg, letter = index >> 1 & 1, index & 1
        for k in (2, 1, 0):  # the highest pair first
            letter, sign = flat[letter << 2 | (p_bits >> k & 1) << 1
                                | (q_bits >> k & 1)]
            neg ^= sign < 0
        assert steps[index] == neg << 1 | letter, index


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("width", [1, 2, 4, 5, 7])
def test_tree_form_matches_twist_tree_at_widths_off_the_step(width, mu):
    # three pairs per lookup: none of these widths is a multiple of 3
    size = 1 << width
    idx = np.arange(size, dtype=np.uint64)
    got = _batch.tree_parity(idx[:, None], idx[None, :], mu, width)
    want = [[int(kernel.twist_tree(p, q, mu) < 0) for q in range(size)]
            for p in range(size)]
    assert got.tolist() == want
