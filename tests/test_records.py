"""The package's six immutable records behave as frozen dataclasses:
construction, repr, equality, hash, immutability, pattern matching,
copy and pickle.  The value types share their immutability guard."""

import copy
import pickle
from fractions import Fraction

import pytest

from cltwist.bench import BenchResult
from cltwist.multivector import Algebra
from cltwist.notation import Expression, Factor, Term
from cltwist.selftest import Mismatch, SelftestReport
from cltwist.tables import SymbolicSign, table_direct

FACTOR = Factor(Fraction(3, 4), 0b110)
TERM = Term(-1, (FACTOR, Factor(None, 1)))

#: (record, its fields by name, its exact repr)
CASES = [
    (FACTOR, {"coeff": Fraction(3, 4), "blade": 6},
     "Factor(coeff=Fraction(3, 4), blade=6)"),
    (TERM, {"sign": -1, "factors": (FACTOR, Factor(None, 1))},
     "Term(sign=-1, factors=(Factor(coeff=Fraction(3, 4), blade=6),"
     " Factor(coeff=None, blade=1)))"),
    (Expression((TERM,)), {"terms": (TERM,)},
     "Expression(terms=(Term(sign=-1, factors=(Factor(coeff=Fraction(3, 4),"
     " blade=6), Factor(coeff=None, blade=1))),))"),
    (Mismatch("pairs", 1, (5, 9), {"closed": 1}),
     {"kind": "pairs", "mu": 1, "indices": (5, 9), "signs": {"closed": 1},
      "_algo": "closed"},
     "Mismatch(kind='pairs', mu=1, indices=(5, 9), signs={'closed': 1},"
     " _algo='closed')"),
    (SelftestReport(3, 64, 512, 4, ()),
     {"n": 3, "pair_count": 64, "triple_count": 512, "algorithm_count": 4,
      "mismatches": ()},
     "SelftestReport(n=3, pair_count=64, triple_count=512,"
     " algorithm_count=4, mismatches=())"),
    (BenchResult("closed", 50, 812.5),
     {"name": "closed", "pairs": 50, "ns_per_op": 812.5},
     "BenchResult(name='closed', pairs=50, ns_per_op=812.5)"),
]
IDS = [type(record).__name__ for record, _, _ in CASES]
cases = pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)


@cases
def test_repr(record, fields, text):
    assert repr(record) == text


@cases
def test_construction_positional_and_by_keyword(record, fields, text):
    cls = type(record)
    assert cls.__match_args__ == tuple(fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(*fields.values()) == record
    assert cls(**fields) == record
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_mismatch_algorithm_defaults_to_closed():
    assert Mismatch("triples", -1, (1, 2, 3), {})._algo == "closed"
    tree = Mismatch("triples", -1, (1, 2, 3), {}, _algo="tree")
    assert tree._algo == "tree"
    assert tree != Mismatch("triples", -1, (1, 2, 3), {})


@cases
def test_equal_only_to_the_same_class(record, fields, text):
    values = tuple(fields.values())
    assert record == type(record)(*values)
    assert record != values
    assert record != list(values)
    # a subclass is another record class with the same fields
    twin = type("Twin", (type(record),), {})(*values)
    assert record != twin and twin != record


def test_equal_fields_of_another_record_class_are_not_equal():
    assert Factor(-1, (FACTOR,)) != Term(-1, (FACTOR,))
    fields = ("pairs", 1, (5, 9), {}, ())
    assert Mismatch(*fields) != SelftestReport(*fields)


@cases
def test_hash_of_the_field_tuple(record, fields, text):
    values = tuple(fields.values())
    if isinstance(record, Mismatch):  # its signs are a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)
        assert hash(record) == hash(type(record)(*values))


@cases
def test_fields_cannot_be_set_or_deleted(record, fields, text):
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # a record is built in __new__: calling __init__ again changes nothing
    record.__init__(*[None] * len(fields))
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text


@cases
def test_copies_and_pickles(record, fields, text):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields)), None)


def test_records_match_by_position():
    match TERM:
        case Term(sign, (Factor(coeff, blade), Factor(None, 1))):
            assert (sign, coeff, blade) == (-1, Fraction(3, 4), 6)
        case _:
            pytest.fail("no match")
    match Mismatch("linear-p", 1, (5, 4, 9), {}):
        case Mismatch(kind, mu, indices, signs, algo):
            assert (kind, mu, indices, signs, algo) == (
                "linear-p", 1, (5, 4, 9), {}, "closed")
        case _:
            pytest.fail("no match")


ALGEBRA = Algebra(1)

#: (value, its attribute names, other valid constructor arguments): each
#: value type on the records' frozen base, whose records
#: test_fields_cannot_be_set_or_deleted covers
VALUES = [
    (SymbolicSign(-1, 1), ["_code", "sign", "mu_power", "code"], (1, 0)),
    (table_direct(2), ["n", "codes"], (1, table_direct(1).codes)),
    (ALGEBRA.parse("3/4 e_12 - e_3"), ["_algebra", "_coeffs", "algebra"],
     (Algebra(-1), {})),
    (ALGEBRA, ["_mu", "mu"], (-1,)),
]


@pytest.mark.parametrize(
    "value, names, args", VALUES,
    ids=[type(value).__name__ for value, _, _ in VALUES],
)
def test_values_cannot_be_set_or_deleted(value, names, args):
    before = copy.deepcopy(value)
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # a value is built in __new__: calling __init__ again changes nothing
    value.__init__(*args)
    assert type(value) is type(before) and value == before
    assert repr(value) == repr(before)


def test_algebra_copies_and_pickles_through_its_constructor():
    for twin in (copy.copy(ALGEBRA), copy.deepcopy(ALGEBRA),
                 pickle.loads(pickle.dumps(ALGEBRA))):
        assert type(twin) is Algebra and twin == ALGEBRA
        assert twin.mu == 1 and hash(twin) == hash(ALGEBRA)
    # a copy is made by the constructor, which checks mu again
    assert ALGEBRA.__reduce__() == (Algebra, (1,))
