import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltwist import kernel
from cltwist.kernel import (
    ALGORITHMS,
    blade_product,
    grade,
    grade_sign,
    tree_trace,
    twist,
    twist_closed,
    twist_oracle,
    twist_recursive,
    twist_tree,
)
from cltwist.tables import twist_symbolic

masks = st.integers(min_value=0, max_value=(1 << 64) - 1)
mus = st.sampled_from([1, -1])
# negative and wide ints as well as valid masks
any_ints = st.one_of(masks, st.integers(), st.integers(min_value=1 << 64))


def test_grade_basics():
    assert grade(0) == 0
    assert grade(0b1011) == 3
    assert grade_sign(0) == 1
    assert grade_sign(0b1011) == -1
    assert grade_sign(0b11) == 1


def test_known_products():
    # e1 e3 e4 times e2 e3: one swap chain and a cancelling e3 pair
    assert twist(13, 6, mu=1) == -1
    assert twist(13, 6, mu=-1) == 1
    assert blade_product(13, 6, -1) == (1, 11)
    assert blade_product(13, 6, 1) == (-1, 11)

    assert blade_product(2636, 1143, -1) == (-1, 3643)


def test_identity_blade():
    for p in (0, 1, 7, 100, (1 << 64) - 1):
        for mu in (1, -1):
            assert twist(0, p, mu) == 1
            assert twist(p, 0, mu) == 1


def test_generator_squares():
    for k in range(10):
        b = 1 << k
        assert twist(b, b, mu=1) == 1
        assert twist(b, b, mu=-1) == -1


def test_exhaustive_agreement_small():
    # all four implementations, every pair of 5-bit masks
    algos = list(ALGORITHMS.values())
    for mu in (1, -1):
        for p in range(32):
            for q in range(32):
                signs = {f(p, q, mu) for f in algos}
                assert len(signs) == 1, (p, q, mu)


def test_closed_every_fold_stage():
    # one generator each side: the inversion bit travels through every
    # shift of the parity folds, from both ends of the 64-bit mask
    for k in range(64):
        for j in range(64):
            for mu in (1, -1):
                p, q = 1 << k, 1 << j
                assert twist_closed(p, q, mu) == twist_oracle(p, q, mu), (k, j, mu)
    # all 63 generators above e_1 pass it
    assert twist_closed((1 << 64) - 1, 1, 1) == -1


@given(p=masks, q=masks, mu=mus)
def test_agreement_random_64bit(p, q, mu):
    expected = twist_oracle(p, q, mu)
    assert twist_recursive(p, q, mu) == expected
    assert twist_tree(p, q, mu) == expected
    assert twist_closed(p, q, mu) == expected


@given(p=masks, mu=mus)
def test_blade_square(p, mu):
    # i_p * i_p = mu^grade * (-1)^(grade choose 2)
    b = grade(p)
    expected = (mu ** b) * (-1) ** (b * (b - 1) // 2)
    assert twist(p, p, mu) == expected


@given(p=masks, q=masks, r=masks, mu=mus)
def test_cocycle_random(p, q, r, mu):
    lhs = twist(p, q, mu) * twist(p ^ q, r, mu)
    rhs = twist(q, r, mu) * twist(p, q ^ r, mu)
    assert lhs == rhs


@given(p=st.integers(min_value=0, max_value=(1 << 63) - 1), mu=mus)
def test_first_generator_laws(p, mu):
    assert twist(1, 2 * p, mu) == 1
    assert twist(1, 2 * p + 1, mu) == mu
    assert twist(2 * p, 1, mu) == grade_sign(p)
    assert twist(2 * p + 1, 1, mu) == grade_sign(p) * mu


@given(p=masks, q=masks, mu=mus)
def test_product_mask_is_xor(p, q, mu):
    sign, mask = blade_product(p, q, mu)
    assert mask == p ^ q
    assert sign == twist(p, q, mu)


def test_trace_empty_for_scalars():
    assert tree_trace(0, 0, 1) == []
    assert tree_trace(0, 0, -1) == []


def test_trace_step_count():
    assert len(tree_trace(1, 1, -1)) == 1
    assert len(tree_trace(2636, 1143, -1)) == 12
    assert len(tree_trace(1, 1 << 40, 1)) == 41


def test_trace_known_path():
    states = [s.state for s in tree_trace(2636, 1143, -1)]
    assert states == [
        "B", "-B", "-A", "-A", "-A", "B",
        "-B", "B", "A", "-B", "B", "-B",
    ]


@given(p=masks, q=masks, mu=mus)
def test_trace_consistency(p, q, mu):
    steps = tree_trace(p, q, mu)
    width = max(p.bit_length(), q.bit_length())
    assert len(steps) == width
    if steps:
        assert steps[-1].sign == twist_tree(p, q, mu)
    # the letter tracks the parity of p-bits consumed so far
    consumed = 0
    for step in steps:
        consumed += step.bit_p
        assert step.letter == ("A" if consumed % 2 == 0 else "B")
    # bit pairs spell out p and q, most significant first
    rebuilt_p = 0
    rebuilt_q = 0
    for step in steps:
        rebuilt_p = (rebuilt_p << 1) | step.bit_p
        rebuilt_q = (rebuilt_q << 1) | step.bit_q
    assert rebuilt_p == p
    assert rebuilt_q == q


def test_trace_state_strings():
    step = tree_trace(1, 1, -1)[0]
    assert step.state == "-B"
    assert step.sign == -1
    assert (step.bit_p, step.bit_q) == (1, 1)


@pytest.mark.parametrize(
    "func", [*ALGORITHMS.values(), tree_trace, blade_product]
)
def test_mu_validation(func):
    with pytest.raises(ValueError):
        func(1, 2, 0)
    with pytest.raises(ValueError):
        func(1, 2, 2)
    with pytest.raises(ValueError, match="got True"):
        func(1, 2, True)


SIGN_ENTRY_POINTS = {
    **ALGORITHMS,
    "tree_trace": tree_trace,
    "blade_product": blade_product,
    "twist_symbolic": lambda p, q, mu: twist_symbolic(p, q),
}


@pytest.mark.parametrize("bad", [-1, 1 << 64, 1 << 70])
@pytest.mark.parametrize("name", list(SIGN_ENTRY_POINTS))
def test_mask_validation(name, bad):
    func = SIGN_ENTRY_POINTS[name]
    for p, q in ((bad, 3), (3, bad)):
        for mu in (1, -1):
            with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
                func(p, q, mu)


@pytest.mark.parametrize("bad", [-1, 1 << 64, 1 << 70])
@pytest.mark.parametrize("func", [grade, grade_sign])
def test_grade_mask_validation(func, bad):
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        func(bad)


def test_grade_accepts_widest_mask():
    assert grade((1 << 64) - 1) == 64
    assert grade_sign((1 << 64) - 1) == 1


@given(p=any_ints, q=any_ints, mu=mus)
def test_algorithms_agree_or_all_reject(p, q, mu):
    outcomes = set()
    for func in ALGORITHMS.values():
        try:
            outcomes.add(func(p, q, mu))
        except ValueError as exc:
            outcomes.add(str(exc))
    assert len(outcomes) == 1, outcomes


def test_algorithms_registry():
    assert set(ALGORITHMS) == {"oracle", "recursive", "tree", "closed"}
    assert ALGORITHMS["closed"] is twist_closed
    assert kernel.twist is twist_closed


@settings(max_examples=30)
@given(p=masks, q=masks)
def test_mu_only_flips_on_shared_bits(p, q):
    # the two conventions differ exactly by the parity of p & q
    flip = -1 if (p & q).bit_count() & 1 else 1
    assert twist(p, q, 1) == twist(p, q, -1) * flip
