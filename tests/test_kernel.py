import re
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
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
from cltwist.multivector import Algebra
from cltwist.notation import format_blade
from cltwist.tables import (
    SymbolicSign,
    render_table,
    table_direct,
    twist_symbolic,
)

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


def test_tree_transitions():
    # letter A (0) or B (1) is the parity of the p bits read so far, high
    # bit first: a p bit toggles it, a q bit passes exactly those p bits
    # (the code's negation bit), and a p bit and a q bit at the same place
    # square to mu (its mu bit).  By induction on the bits read,
    # twist_tree is then the inversion parity times mu**popcount(p & q) at
    # every width, and at both mu, which only the code's value reads.
    assert len(kernel._RULE) == 8
    for letter in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                step = kernel._RULE[letter << 2 | a << 1 | b]
                code = (b & letter) | (a & b) << 1
                assert step == (letter ^ a, code), (letter, a, b)
    # a code's value: its negation bit, times mu for its mu bit
    for mu in (1, -1):
        assert kernel._VALUE[mu] == tuple(
            (-1) ** (code & 1) * mu ** (code >> 1) for code in range(4)
        )


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_every_accepted_mu_gives_an_int(name):
    # _check_mu accepts exactly the ints 1 and -1, and the sign is a
    # plain int
    for mu in (1, -1):
        for p, q in ((3, 3), (5, 9), (0, 0)):
            sign = ALGORITHMS[name](p, q, mu)
            assert type(sign) is int, (mu, p, q)
    # a value equal to +1 or -1 that is not exactly an int is no mu
    for mu in (1.0, -1.0, np.int64(-1)):
        with pytest.raises(ValueError, match=r"mu must be \+1 or -1"):
            ALGORITHMS[name](3, 3, mu)


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
    with pytest.raises(ValueError, match="got np.True_"):
        func(1, 2, np.True_)


#: Every public entry point that takes mu, as a function of mu alone,
#: and its results at mu = +1 and at mu = -1.  e_{134} * e_{23} is
#: -e_{124} at mu = +1 and e_{124} at mu = -1.
MU_ENTRY_POINTS = {
    **{name: (partial(f, 13, 6), (-1, 1)) for name, f in ALGORITHMS.items()},
    "twist": (partial(twist, 13, 6), (-1, 1)),
    "tree_trace": (
        lambda mu: tree_trace(13, 6, mu)[-1].state, ("-B", "B")
    ),
    "blade_product": (partial(blade_product, 13, 6), ((-1, 11), (1, 11))),
    "Algebra": (
        lambda mu: str(Algebra(mu).blade(13) * Algebra(mu).blade(6)),
        ("-e_{124}", "e_{124}"),
    ),
    "SymbolicSign.substitute": (
        lambda mu: SymbolicSign(-1, 1).substitute(mu), (-1, 1)
    ),
    "TwistTable.substitute": (
        lambda mu: table_direct(1).substitute(mu).tolist(),
        ([[1, 1], [1, 1]], [[1, 1], [1, -1]]),
    ),
    "render_table": (
        lambda mu: render_table(table_direct(1), "text", mu),
        ("1 1\n1 1\n", "1 1\n1 -1\n"),
    ),
}
#: Not exactly the int +1 or -1, though most are equal to one of them.
NON_MUS = [
    1.0, -1.0, np.int64(-1), np.float64(-1), Fraction(-1), Decimal(-1),
    -1 + 0j, np.complex128(-1), True, np.True_, 0, 2, "1", None,
]


@pytest.mark.parametrize("name", list(MU_ENTRY_POINTS))
def test_mu_is_exactly_plus_or_minus_one(name):
    func, results = MU_ENTRY_POINTS[name]
    assert (func(1), func(-1)) == results
    for bad in NON_MUS:
        if bad is None and name == "render_table":
            continue  # None asks for the symbolic table
        message = re.escape(f"mu must be +1 or -1, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            func(bad)


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


#: Not exactly an int: each is a TypeError, whatever its value.
NON_INT_MASKS = [1.0, "3", None, np.int64(3), True]


@pytest.mark.parametrize("bad", NON_INT_MASKS, ids=repr)
@pytest.mark.parametrize("name", list(SIGN_ENTRY_POINTS))
def test_mask_type_validation(name, bad):
    func = SIGN_ENTRY_POINTS[name]
    for p, q in ((bad, 3), (3, bad)):
        for mu in (1, -1):
            with pytest.raises(
                TypeError, match=r"must be ints in \[0, 2\*\*64\), got p="
            ):
                func(p, q, mu)


SINGLE_MASK_ENTRY_POINTS = {
    "grade": grade,
    "grade_sign": grade_sign,
    "format_blade": format_blade,
    "Algebra.blade": Algebra(-1).blade,
    "Multivector.coefficient": Algebra(-1).blade(3).coefficient,
    "TwistTable.entry(p,0)": lambda p: table_direct(2).entry(p, 0),
    "TwistTable.entry(0,q)": lambda q: table_direct(2).entry(0, q),
}


@pytest.mark.parametrize("bad", NON_INT_MASKS, ids=repr)
@pytest.mark.parametrize("name", list(SINGLE_MASK_ENTRY_POINTS))
def test_single_mask_type_validation(name, bad):
    with pytest.raises(TypeError, match="blade masks must be ints in"):
        SINGLE_MASK_ENTRY_POINTS[name](bad)


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


def _names(code):
    """Global and attribute names that ``code`` and the code nested in it
    use."""
    nested = (c for c in code.co_consts if hasattr(c, "co_names"))
    return set(code.co_names).union(*map(_names, nested))


def test_oracle_shares_nothing_with_the_other_algorithms():
    # the ground truth of the cross-check builds its sign from generator
    # lists alone: no popcount, parity fold, tree table, library sort or
    # other algorithm
    banned = {f.__name__ for f in ALGORITHMS.values() if f is not twist_oracle}
    banned |= {"bit_count", "_parity_above", "_RULE", "twist",
               "blade_product", "sorted", "sort"}
    for f in (twist_oracle, kernel._generators):
        assert not _names(f.__code__) & banned, f.__name__


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


@pytest.mark.parametrize("n", range(1, 6))
def test_failing_identity_reads_the_first_difference(n):
    # where a table first differs from the bilinear form of its own
    # generator entries, the named identity reads that cell once, and
    # every other cell it reads once is earlier in row-major order or a
    # generator entry, so it holds there: the identity fails
    def generator_cell(p, q):
        return p.bit_count() == 1 and q.bit_count() == 1

    size = 1 << n
    for p in range(size):
        for q in range(size):
            if generator_cell(p, q):
                continue
            kind, (a, k, b) = kernel._failing_identity(p, q)
            assert kind in kernel._LINEAR_IN and 1 <= k <= n
            e = 1 << (k - 1)
            if kind == "linear-p":
                cells = [(a ^ e, b), (a, b), (e, b)]
            else:
                cells = [(a, b ^ e), (a, b), (a, e)]
            odd = {cell for cell in cells if cells.count(cell) % 2}
            assert (p, q) in odd, (p, q)
            assert all(cell < (p, q) or generator_cell(*cell)
                       for cell in odd - {(p, q)}), (p, q)
