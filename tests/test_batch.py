import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cltwist import kernel
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
