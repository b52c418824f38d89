import copy
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltwist.multivector import Algebra, Multivector

neg = Algebra(mu=-1)
pos = Algebra(mu=1)


def coeffs(draw_blades=st.integers(min_value=0, max_value=(1 << 10) - 1)):
    rationals = st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    )
    return st.dictionaries(draw_blades, rationals, max_size=8)


def multivectors(algebra):
    return coeffs().map(lambda c: algebra.multivector(c))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        v = neg.multivector({3: 0, 5: 2})
        assert len(v) == 1
        assert v.coefficient(3) == 0
        assert v.coefficient(5) == 2

    def test_int_coefficients_become_fractions(self):
        v = neg.blade(1, 2)
        assert v.coefficient(1) == Fraction(2)
        assert isinstance(v.coefficient(1), Fraction)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            neg.blade(1, 0.5)

    def test_rejects_bad_masks(self):
        with pytest.raises(ValueError):
            neg.blade(-1)
        with pytest.raises(ValueError):
            neg.blade(1 << 64)
        v = neg.blade(3)
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
                v.coefficient(bad)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            Algebra(mu=0)
        with pytest.raises(ValueError):
            Algebra(mu=True)
        with pytest.raises(ValueError):
            Algebra(mu=np.True_)
        # a number equal to +1 or -1 that is not exactly an int is no mu
        with pytest.raises(ValueError, match=r"got 1\.0"):
            Algebra(1.0)
        with pytest.raises(ValueError, match=r"got np\.int64\(-1\)"):
            Algebra(np.int64(-1))

    def test_immutable(self):
        v = neg.blade(3)
        with pytest.raises(AttributeError):
            v.extra = 1

    @pytest.mark.parametrize("algebra", ["x", None, -1, Algebra])
    def test_rejects_an_algebra_that_is_not_one(self, algebra):
        with pytest.raises(TypeError, match="algebra must be an Algebra"):
            Multivector(algebra, {1: 1})

    @pytest.mark.parametrize("table", [[(1, 2)], ((1, 2),), "e_1", 3])
    def test_rejects_a_table_that_is_not_a_mapping(self, table):
        message = "coeffs must be a mapping of masks to coefficients"
        with pytest.raises(TypeError, match=message):
            neg.multivector(table)
        with pytest.raises(TypeError, match=message):
            Multivector(neg, table)

    def test_accepts_a_dict_subclass(self):
        class Table(dict):
            pass

        assert neg.multivector(Table({1: 2, 6: 0})) == neg.blade(1, 2)

    def test_algebra_and_truth(self):
        v = neg.blade(3)
        assert v.algebra is neg and v.mu == -1
        assert Multivector(pos, {}).algebra is pos
        assert bool(v) and bool(pos.scalar(2))
        assert not neg.zero() and not neg.multivector({3: 0})

    @pytest.mark.parametrize("text", ["0", "-3/4", "e_1 + 1/2 e_{23} - 7 e_4"])
    @pytest.mark.parametrize("algebra", [pos, neg])
    def test_copies_and_pickles(self, algebra, text):
        value = algebra.parse(text)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is Multivector and twin == value
            assert twin.mu == value.mu
            assert list(twin.terms()) == list(value.terms())


class TestEquality:
    def test_structural(self):
        assert neg.parse("e_1 + e_2") == neg.parse("e_2 + e_1")
        assert neg.parse("2 e_1") != neg.parse("e_1")

    def test_algebras_distinguished(self):
        assert neg.blade(1) != pos.blade(1)
        assert neg != pos
        assert Algebra(-1) == Algebra(-1)

    def test_hashable(self):
        seen = {neg.parse("e_1 + e_2"), neg.parse("e_2 + e_1")}
        assert len(seen) == 1

    def test_mixed_algebra_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            neg.blade(1) + pos.blade(1)
        with pytest.raises(ValueError):
            neg.blade(1) * pos.blade(1)


class TestArithmetic:
    @pytest.mark.parametrize("other", [0.5, None])
    def test_operands_of_other_types_raise(self, other):
        v = neg.blade(1)
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        for op in ops:
            with pytest.raises(TypeError):
                op(v, other)
            with pytest.raises(TypeError):  # reflected
                op(other, v)
        assert v != other and not v == other

    @pytest.mark.parametrize(
        "scalar", [np.int64(2), np.int8(2), np.bool_(True), np.float64(2.0)]
    )
    def test_numpy_scalar_operands_raise(self, scalar):
        # not exactly int: numpy's own operators must not convert the
        # scalar to a Python number and call back on the reflected side
        v = neg.blade(1)
        ops = (operator.add, operator.sub, operator.mul, operator.truediv)
        for op in ops:
            with pytest.raises(TypeError):
                op(v, scalar)
            with pytest.raises(TypeError):  # reflected
                op(scalar, v)

    def test_equality_with_a_number_is_false(self):
        assert not neg.scalar(1) == 1 and neg.scalar(1) != 1
        assert not neg.zero() == 0

    def test_scalars_lift(self):
        assert neg.blade(1) + 1 == neg.parse("1 + e_1")
        assert 1 + neg.blade(1) == neg.parse("1 + e_1")
        assert neg.blade(1) - 1 == neg.parse("e_1 - 1")
        assert 2 - neg.scalar(1) == neg.scalar(1)

    def test_scalar_multiplication(self):
        v = neg.parse("e_1 + 2 e_2")
        assert 3 * v == neg.parse("3 e_1 + 6 e_2")
        assert v * Fraction(1, 2) == neg.parse("1/2 e_1 + e_2")
        assert v / 2 == neg.parse("1/2 e_1 + e_2")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            neg.blade(1) / 0

    def test_generator_square(self):
        e1 = neg.blade(1)
        assert e1 * e1 == neg.scalar(-1)
        assert pos.blade(1) * pos.blade(1) == pos.scalar(1)

    def test_known_blade_product(self):
        # e1 e3 e4 times e2 e3 at both conventions
        a = "e_134 * e_23"
        assert pos.parse(a) == pos.parse("-e_124")
        assert neg.parse(a) == neg.parse("e_124")

    def test_power(self):
        v = neg.parse("1 + e_12")
        assert v ** 0 == neg.scalar(1)
        assert v ** 2 == v * v
        assert v ** 3 == v * v * v
        with pytest.raises(ValueError):
            v ** -1

    @pytest.mark.parametrize("algebra", [pos, neg], ids=["mu+1", "mu-1"])
    def test_power_equals_repeated_products(self, algebra):
        x = algebra.parse("e_12 + e_3 + 1/2 e_14")
        product = algebra.scalar(1)
        for n in range(41):
            assert x ** n == product, n
            product = product * x

    def test_large_power_by_squaring(self):
        # one product per power would take seconds here
        x = neg.parse("e_12 + e_3 + 1/2 e_14")
        assert x ** 10_000 == (x ** 100) ** 100

    @pytest.mark.parametrize("n", [True, False, 0.5, 2.0, np.int64(2)])
    def test_power_needs_an_int_that_is_not_a_bool(self, n):
        with pytest.raises(ValueError, match="non-negative integer powers"):
            neg.blade(1) ** n

    def test_anticommuting_generators(self):
        e1, e2 = neg.blade(1), neg.blade(2)
        assert e1 * e2 == -(e2 * e1)


class TestQuaternions:
    # mu = -1, two generators: 1, e1, e2, e12 behave as 1, i, j, k
    i = neg.blade(0b01)
    j = neg.blade(0b10)
    k = neg.blade(0b11)
    one = neg.scalar(1)

    def test_squares(self):
        assert self.i * self.i == -self.one
        assert self.j * self.j == -self.one
        assert self.k * self.k == -self.one

    def test_products(self):
        assert self.i * self.j == self.k
        assert self.j * self.i == -self.k
        assert self.j * self.k == self.i
        assert self.k * self.j == -self.i
        assert self.k * self.i == self.j
        assert self.i * self.k == -self.j

    def test_norm_of_unit_quaternion(self):
        q = (self.one + self.i + self.j + self.k) / 2
        conj = (self.one - self.i - self.j - self.k) / 2
        assert q * conj == self.one


class TestGrades:
    def test_grades_listing(self):
        v = neg.parse("1 + e_1 + e_12 + e_123")
        assert v.grades() == [0, 1, 2, 3]

    def test_grade_part(self):
        v = neg.parse("1 + e_1 + e_2 + e_12")
        assert v.grade_part(1) == neg.parse("e_1 + e_2")
        assert v.grade_part(5).is_zero()

    @pytest.mark.parametrize("k", ["a", None, True, False, 1.0, np.int64(1)])
    def test_grade_part_needs_an_int_that_is_not_a_bool(self, k):
        v = neg.parse("1 + e_1 + e_12")
        with pytest.raises(TypeError, match="grade must be an int"):
            v.grade_part(k)

    def test_terms_ascending_by_index(self):
        v = neg.parse("e_12 + e_3 + 1")
        assert [m for m, _ in v.terms()] == [0, 0b011, 0b100]


class TestFormatting:
    def test_zero(self):
        assert str(neg.zero()) == "0"
        assert neg.parse("0") == neg.zero()

    def test_scalars(self):
        assert str(neg.scalar(5)) == "5"
        assert str(neg.scalar(Fraction(-3, 4))) == "-3/4"

    def test_unit_coefficients_suppressed(self):
        assert str(neg.parse("e_12")) == "e_{12}"
        assert str(neg.parse("-e_12")) == "-e_{12}"

    def test_mixed(self):
        v = neg.parse("2 e_1 - 3/4 e_{23} + 5")
        assert str(v) == "5 + 2 e_{1} - 3/4 e_{23}"

    def test_i_style(self):
        v = neg.parse("i_2636")
        assert v.format("i") == "i_2636"
        assert v.format("e") == "e_{347ac}"

    @pytest.mark.parametrize("v", [neg.zero(), neg.scalar(1), neg.blade(1)])
    def test_unknown_style_raises(self, v):
        # also without a blade term, where no blade is spelled
        with pytest.raises(ValueError, match="unknown blade style 'x'"):
            v.format("x")


@settings(max_examples=60)
@given(v=multivectors(neg))
def test_format_parse_round_trip(v):
    assert neg.parse(v.format("e")) == v
    assert neg.parse(v.format("i")) == v


@settings(max_examples=40)
@given(a=multivectors(neg), b=multivectors(neg), c=multivectors(neg))
def test_ring_laws_negative_mu(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=40)
@given(a=multivectors(pos), b=multivectors(pos), c=multivectors(pos))
def test_ring_laws_positive_mu(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=multivectors(neg))
def test_additive_group(a):
    assert a + neg.zero() == a
    assert a - a == neg.zero()
    assert -(-a) == a


def test_repr_mentions_convention():
    assert "mu=-1" in repr(neg.blade(1))
    assert "mu=-1" in repr(neg)


def test_float_mu_is_stored_as_int():
    # a float mu is refused, so the stored mu is always the int given
    with pytest.raises(ValueError, match=r"mu must be \+1 or -1, got 1\.0"):
        Algebra(1.0)
    alg = Algebra(1)
    assert alg.mu == 1 and type(alg.mu) is int
    assert repr(alg) == "Algebra(mu=+1)"
    assert "mu=+1" in repr(alg.blade(1))


def _count_constructions(monkeypatch):
    calls = []
    real = Multivector.__new__

    def counting(cls, algebra, coeffs):
        calls.append(1)
        return real(cls, algebra, coeffs)

    monkeypatch.setattr(Multivector, "__new__", counting)
    return calls


@pytest.mark.parametrize("terms", [16, 256])
def test_parse_builds_one_multivector(monkeypatch, terms):
    # a sum evaluates into one table, not one multivector per term
    text = " + ".join(f"{k + 1}/{k + 2} i_{k} * e_1" for k in range(terms))
    calls = _count_constructions(monkeypatch)
    value = neg.parse(text)
    assert len(calls) <= 2
    assert len(value) == terms


_factors = st.tuples(
    st.none() | st.fractions(min_value=0, max_value=9, max_denominator=5),
    st.none() | st.integers(min_value=0, max_value=(1 << 12) - 1),
).filter(lambda f: f != (None, None))
_terms = st.tuples(
    st.sampled_from([1, -1]), st.lists(_factors, min_size=1, max_size=4)
)


def _factor_text(coeff, mask):
    parts = [] if coeff is None else [str(coeff)]
    if mask is not None:
        parts.append(f"i_{mask}")
    return " ".join(parts)


@settings(max_examples=60)
@given(
    algebra=st.sampled_from([neg, pos]),
    terms=st.lists(_terms, min_size=1, max_size=6),
)
def test_parse_matches_public_fold(algebra, terms):
    text = ""
    expected = algebra.zero()
    for sign, factors in terms:
        op = ("-" if sign < 0 else "") if not text else (
            " - " if sign < 0 else " + "
        )
        text += op + " * ".join(_factor_text(c, m) for c, m in factors)
        product = algebra.scalar(sign)
        for coeff, mask in factors:
            product = product * algebra.blade(
                0 if mask is None else mask, 1 if coeff is None else coeff
            )
        expected = expected + product
    assert algebra.parse(text) == expected
