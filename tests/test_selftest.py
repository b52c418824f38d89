import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cltwist import _batch, kernel, selftest
from cltwist.cli import main
from cltwist.selftest import Mismatch, run_selftest
from cltwist.tables import table_direct


def test_clean_run():
    report = run_selftest(4)
    assert report.ok
    assert report.pair_count == 256
    assert report.triple_count == 4096
    assert report.algorithm_count == 4
    assert report.mismatches == ()


@pytest.mark.parametrize(
    "n, pairs, triples",
    [(1, 4, 8), (3, 64, 512), (10, 1048576, 1073741824),
     (11, 4194304, 8589934592)],
)
def test_summary_lines(n, pairs, triples):
    assert run_selftest(n).lines() == [
        f"ok: 4x{pairs} pairs x 2 mu, 0 mismatches",
        f"ok: {triples} triples x 2 mu, 0 mismatches",
    ]


def test_default_width_summary():
    report = run_selftest()
    assert report.lines()[0] == "ok: 4x65536 pairs x 2 mu, 0 mismatches"


def _broken_tree(p, q, mu):
    sign = kernel.twist_tree(p, q, mu)
    if p == 5 and q == 9:
        return -sign
    return sign


def test_fault_in_one_algorithm_is_caught():
    algos = dict(kernel.ALGORITHMS, tree=_broken_tree)
    report = run_selftest(4, algorithms=algos)
    assert not report.ok
    first = report.mismatches[0]
    assert first.kind == "pairs"
    assert first.indices == (5, 9)
    assert first.signs["tree"] == -first.signs["closed"]
    text = first.describe()
    assert "p=5" in text and "q=9" in text
    assert "tree=" in text and "oracle=" in text


@pytest.mark.parametrize(
    "faults, first",
    [
        ({(5, 3), (5, 9)}, (5, 3)),  # one row: the lowest q
        ({(5, 9), (6, 1)}, (5, 9)),  # two rows: the earlier row
    ],
)
def test_first_mismatch_in_row_major_order(faults, first):
    def broken(p, q, mu):
        sign = kernel.twist_tree(p, q, mu)
        return -sign if (p, q) in faults else sign

    algos = dict(kernel.ALGORITHMS, tree=broken)
    report = run_selftest(4, algorithms=algos)
    pairs = [m for m in report.mismatches if m.kind == "pairs"]
    assert [m.indices for m in pairs] == [first, first]  # once per mu
    assert [m.mu for m in pairs] == [1, -1]
    assert pairs[0].signs["tree"] == -pairs[0].signs["oracle"]


def test_fault_in_closed_breaks_cocycle_too():
    # the cocycle table is built from the closed algorithm, so a fault
    # there must surface even if every algorithm agrees
    def broken(p, q, mu):
        if (p, q) == (3, 5):
            return -kernel.twist_closed(p, q, mu)
        return kernel.twist_closed(p, q, mu)

    report = run_selftest(3, algorithms={"closed": broken})
    kinds = {m.kind for m in report.mismatches}
    assert "triples" in kinds
    assert not report.ok
    assert any("cocycle violation" in m.describe() for m in report.mismatches)


def test_single_algorithm_cannot_disagree_on_pairs():
    report = run_selftest(3, algorithms={"closed": kernel.twist_closed})
    assert report.ok
    assert report.algorithm_count == 1


def test_a_value_that_is_not_a_sign_is_a_pairs_mismatch():
    # one function cannot disagree with itself, and an all-zero table
    # is trivially bilinear: only the pairs suite can catch this
    report = run_selftest(3, algorithms={"closed": lambda p, q, mu: 0})
    assert [(m.kind, m.indices) for m in report.mismatches] == [
        ("pairs", (0, 0)), ("pairs", (0, 0)),
    ]
    assert report.lines() == [
        "mismatch: p=0 q=0 mu=+1 closed=+0"
        " rerun: cltwist sign 0 0 --algo closed --mu +1",
        "mismatch: p=0 q=0 mu=-1 closed=+0"
        " rerun: cltwist sign 0 0 --algo closed --mu -1",
    ]


def _pairs_lines(p, q, signs):
    """The two pairs lines, at mu = +1 and -1, of a mismatch at (p, q)
    whose algorithms return the spelled ``signs`` at both mu."""
    algs = " ".join(f"{name}={sign}" for name, sign in signs.items())
    return [
        f"mismatch: p={p} q={q} mu={mu:+d} {algs} rerun: " + "; ".join(
            f"cltwist sign {p} {q} --algo {name} --mu {mu:+d}"
            for name in signs
        )
        for mu in (1, -1)
    ]


@pytest.mark.parametrize("value", [2**70, 255])
def test_a_value_too_big_for_a_sign_is_only_a_pairs_mismatch(value):
    # the certificate reads the value's sign bit, so a positive value
    # everywhere is the all-+1 table: bilinear, with nothing to wrap
    def big(p, q, mu):
        return value

    alone = run_selftest(2, algorithms={"closed": big})
    assert alone.lines() == _pairs_lines(0, 0, {"closed": f"+{value}"})
    four = run_selftest(2, algorithms=dict(kernel.ALGORITHMS, closed=big))
    assert four.lines() == _pairs_lines(0, 0, {
        "oracle": "+1", "recursive": "+1", "tree": "+1", "closed": f"+{value}",
    })


def test_a_value_that_is_not_an_integer_is_reported_exactly():
    half = run_selftest(1, algorithms={"closed": lambda p, q, mu: 0.5})
    assert half.lines() == _pairs_lines(0, 0, {"closed": "+0.5"})
    algos = dict(kernel.ALGORITHMS, tree=lambda p, q, mu: -0.75)
    assert run_selftest(1, algorithms=algos).lines() == _pairs_lines(0, 0, {
        "oracle": "+1", "recursive": "+1", "tree": "-0.75", "closed": "+1",
    })


def test_a_value_is_reported_as_returned_whatever_its_block_holds():
    # values of other types in the same block, or too big for an int64,
    # must not turn a returned int into a float
    def tree(p, q, mu):
        if (p, q) == (1, 2):
            return -kernel.twist_tree(p, q, mu)
        return 0.5 if (p, q) == (3, 3) else kernel.twist_tree(p, q, mu)

    def closed(p, q, mu):
        return 2**63 if (p, q) == (3, 3) else kernel.twist_closed(p, q, mu)

    report = run_selftest(2, dict(kernel.ALGORITHMS, tree=tree))
    assert report.lines() == _pairs_lines(1, 2, {
        "oracle": "+1", "recursive": "+1", "tree": "-1", "closed": "+1",
    })
    assert all(type(m.signs["tree"]) is int for m in report.mismatches)
    lines = run_selftest(2, dict(kernel.ALGORITHMS, closed=closed)).lines()
    assert [line for line in lines if line.startswith("mismatch")] == (
        _pairs_lines(3, 3, {"oracle": "-1", "recursive": "-1", "tree": "-1",
                            "closed": f"+{2**63}"})
    )


def _where_negative(value):
    """The oracle, returning ``value`` wherever its sign is -1."""
    def f(p, q, mu):
        return value if kernel.twist_oracle(p, q, mu) < 0 else 1
    return f


@pytest.mark.parametrize("value, spelled", [
    (np.int8(-127), "-127"),  # its square wraps to 1 in int8
    (np.uint8(255), "+255"),  # so does this one's in uint8
    (np.int16(-32767), "-32767"),
    (None, "None"),
    ("-1", "'-1'"),
    (-1 + 0j, "(-1+0j)"),  # equal to -1, with no sign bit to read
    ([-1], "[-1]"),
    (float("nan"), "+nan"),
    (np.float64("nan"), "+nan"),
    (Fraction(-1, 2), "Fraction(-1, 2)"),
    (np.array([-1, -1]), "array([-1, -1])"),
    (np.array([]), "array([], dtype=float64)"),
])
def test_a_value_of_any_type_that_is_not_a_sign_is_a_mismatch(value, spelled):
    # the first sign -1 is at p = 2, q = 1 for mu = +1, and at p = q = 1
    # for mu = -1; whatever parity the value is given, the table the
    # certificate checks stays bilinear
    first = {1: (2, 1), -1: (1, 1)}
    for algos in ({"oracle": kernel.twist_oracle,
                   "closed": _where_negative(value)},
                  {"closed": _where_negative(value)}):
        report = run_selftest(3, algos)
        assert [(m.kind, m.mu, m.indices) for m in report.mismatches] == [
            ("pairs", mu, first[mu]) for mu in (1, -1)
        ]
        signs = {"oracle": "-1", "closed": spelled}
        assert report.lines()[0] == _pairs_lines(2, 1, {
            name: signs[name] for name in algos
        })[0]


@pytest.mark.parametrize("value", [-1, -1.0, Fraction(-1), np.int8(-1),
                                   np.int64(-1), np.float64(-1)])
def test_a_value_equal_to_minus_one_is_a_sign(value):
    algos = {"oracle": kernel.twist_oracle, "closed": _where_negative(value)}
    assert run_selftest(4, algos).ok


@pytest.mark.parametrize("value, spelled", [
    (Fraction(1, 2), "Fraction(1, 2)"), (None, "None"), ("x", "'x'"),
    (np.ma.masked, "masked"),  # its format warns rather than raises
])
def test_a_value_that_takes_no_sign_is_described_by_its_repr(value, spelled):
    assert run_selftest(1, {"closed": lambda p, q, mu: value}).lines() == (
        _pairs_lines(0, 0, {"closed": spelled})
    )


def test_an_array_value_is_a_mismatch_on_one_line():
    algos = {"oracle": kernel.twist_oracle,
             "closed": lambda p, q, mu: np.array([1, -1])}
    assert run_selftest(2, algos).lines()[0] == (
        "mismatch: p=0 q=0 mu=+1 oracle=+1 closed=array([ 1, -1]) rerun:"
        " cltwist sign 0 0 --algo oracle --mu +1;"
        " cltwist sign 0 0 --algo closed --mu +1"
    )
    # a repr of several lines is joined into one
    square = run_selftest(1, {"closed": lambda p, q, mu: np.eye(2, dtype=int)})
    assert square.lines() == _pairs_lines(0, 0, {
        "closed": "array([[1, 0], [0, 1]])",
    })
    # an array of one element is compared as its element
    assert run_selftest(3, {"oracle": kernel.twist_oracle,
                            "closed": _where_negative(np.array([-1]))}).ok


def test_scalar_path_calls_once_per_pair_in_row_major_order():
    # n = 9: 512 rows of 512 calls each; the masks arrive as plain ints
    expected = ((p, q, mu) for mu in (1, -1)
                for p in range(512) for q in range(512))
    wrong = []

    def recorded(p, q, mu):
        call = (p, q, mu)
        if type(p) is not int or type(q) is not int or call != next(expected):
            wrong.append(call)
        return kernel.twist_closed(p, q, mu)

    assert run_selftest(9, algorithms={"recorded": recorded}).ok
    assert not wrong, wrong[:5]
    assert next(expected, None) is None


def test_mismatch_lines_precede_counts():
    algos = dict(kernel.ALGORITHMS, tree=_broken_tree)
    lines = run_selftest(4, algorithms=algos).lines()
    assert lines[0].startswith("mismatch:")
    assert all(not line.startswith("ok:") for line in lines)


def test_width_validation():
    for bad in (0, 13, "8", 2.5, True):
        with pytest.raises(ValueError):
            run_selftest(bad)


def test_empty_algorithm_map_rejected():
    with pytest.raises(ValueError):
        run_selftest(3, algorithms={})


@pytest.mark.parametrize("algorithms", [[1, 2], ["closed"], "closed"])
def test_algorithms_that_are_not_a_mapping_rejected(algorithms):
    message = "algorithms must be a mapping of names to sign functions"
    with pytest.raises(TypeError, match=message):
        run_selftest(3, algorithms=algorithms)


class _Name(str):
    pass


@pytest.mark.parametrize(
    "algorithms, entry",
    [
        ({"x": []}, "'x': []"),
        ({"closed": kernel.twist_closed, "x": 5}, "'x': 5"),
        ({1: kernel.twist_closed}, "1: <function twist_closed"),
        ({_Name("closed"): kernel.twist_closed}, "'closed': <function"),
    ],
    ids=["unhashable-value", "int-value", "int-name", "str-subclass-name"],
)
def test_algorithm_entries_checked_before_any_suite(algorithms, entry):
    calls = []

    def counted(p, q, mu):
        calls.append((p, q, mu))
        return kernel.twist_closed(p, q, mu)

    message = "algorithms must map str names to sign functions, got "
    with pytest.raises(TypeError) as info:
        run_selftest(2, algorithms={"counted": counted, **algorithms})
    assert str(info.value).startswith(message + entry)
    assert calls == []


def test_unhashable_algorithm_called_pair_by_pair():
    # the plane forms are looked up by identity, which needs no hash
    class Unhashable:
        __hash__ = None

        def __call__(self, p, q, mu):
            return kernel.twist_closed(p, q, mu)

    report = run_selftest(2, {"f": Unhashable()})
    assert report.ok and report.algorithm_count == 1


def test_algorithms_in_a_dict_subclass_accepted():
    class Algorithms(dict):
        pass

    report = run_selftest(3, algorithms=Algorithms(kernel.ALGORITHMS))
    assert report.ok and report.algorithm_count == 4


def test_mismatch_describe_triple():
    m = Mismatch("triples", -1, (1, 2, 3), {})
    assert m.describe() == (
        "cocycle violation: p=1 q=2 r=3 mu=-1 rerun:"
        " cltwist sign 1 2 --algo closed --mu -1;"
        " cltwist sign 3 3 --algo closed --mu -1;"
        " cltwist sign 2 3 --algo closed --mu -1;"
        " cltwist sign 1 1 --algo closed --mu -1"
    )


@pytest.mark.parametrize(
    "kind, calls",
    [
        ("linear-p", ["13 9", "5 9", "8 9"]),
        ("linear-q", ["5 1", "5 9", "5 8"]),
    ],
)
def test_mismatch_describe_certificate_rerun(kind, calls):
    # (p, k, q) = (5, 4, 9): e_4 is the mask 8
    text = Mismatch(kind, 1, (5, 4, 9), {}).describe()
    identity = kernel._LINEAR_IN[kind]
    assert text.startswith(f"bilinearity violation: {identity} at p=5 k=4 q=9")
    assert text.endswith(" rerun: " + "; ".join(
        f"cltwist sign {pq} --algo closed --mu +1" for pq in calls
    ))


def test_pairs_rerun_names_only_algorithms_the_cli_knows():
    signs = {"faulty": -1, "tree": 1, "closed": 1}
    assert Mismatch("pairs", -1, (5, 9), signs).describe() == (
        "mismatch: p=5 q=9 mu=-1 faulty=-1 tree=+1 closed=+1 rerun:"
        " cltwist sign 5 9 --algo tree --mu -1;"
        " cltwist sign 5 9 --algo closed --mu -1"
    )
    alone = Mismatch("pairs", 1, (5, 9), {"faulty": 0})
    assert alone.describe() == "mismatch: p=5 q=9 mu=+1 faulty=+0"


def _rerun_signs(line, capsys):
    """Run each ``cltwist sign`` call at the end of ``line`` through the
    CLI; the signs it prints, in order."""
    signs = []
    for call in line.split(" rerun: ")[1].split("; "):
        argv = call.split()
        assert argv[:2] == ["cltwist", "sign"]
        assert main(argv[1:]) == 0
        signs.append(int(capsys.readouterr().out))
    return signs


def test_every_failing_line_reruns_through_the_cli(capsys):
    def broken(p, q, mu):
        sign = kernel.twist_closed(p, q, mu)
        return -sign if (p, q) == (3, 5) else sign

    algos = dict(kernel.ALGORITHMS, closed=broken)
    lines = run_selftest(4, algorithms=algos).lines()
    kinds = [line.split(":")[0] for line in lines]
    assert kinds == ["mismatch", "bilinearity violation",
                     "cocycle violation"] * 2
    for line, mu in zip(lines, [1] * 3 + [-1] * 3):
        assert line.count(" rerun: ") == 1
        assert line.endswith(f"--mu {mu:+d}")
        signs = _rerun_signs(line, capsys)
        # the calls run the true algorithms, so the identities now hold
        if line.startswith("mismatch"):
            assert signs == [kernel.twist_closed(3, 5, mu)] * 4
        elif line.startswith("cocycle"):
            assert signs[0] * signs[1] == signs[2] * signs[3]
        else:
            assert signs[0] == signs[1] * signs[2]


@pytest.mark.parametrize("name", ["tree", "faulty"])
def test_certificate_reruns_the_algorithm_whose_table_it_checked(name, capsys):
    # without "closed" in the map the cocycle checks the first
    # algorithm's table, so the calls name it; an algorithm the CLI does
    # not know gets no calls, as in the pairs suite
    def bad(p, q, mu):
        sign = kernel.twist_tree(p, q, mu)
        return -sign if (p, q) == (3, 5) else sign

    algos = {name: bad, "recursive": kernel.twist_recursive}
    lines = run_selftest(3, algorithms=algos).lines()
    assert [line.split(":")[0] for line in lines] == [
        "mismatch", "bilinearity violation", "cocycle violation"] * 2
    for line in lines[1:3] + lines[4:6]:
        if name == "faulty":
            assert " rerun: " not in line
        else:
            calls = line.split(" rerun: ")[1].split("; ")
            assert all(" --algo tree --mu " in call for call in calls)
            _rerun_signs(line, capsys)  # each call runs and exits 0
    # with "closed" in the map its table is the one checked, so a fault
    # in the first algorithm is a pairs mismatch only
    report = run_selftest(
        3, algorithms={"tree": bad, "closed": kernel.twist_closed}
    )
    assert [m.kind for m in report.mismatches] == ["pairs", "pairs"]


def test_mixed_map_reports_plain_ints_in_map_order():
    # plane forms for the built-ins, the scalar loop for the injected one
    def faulty(p, q, mu):
        sign = kernel.twist_closed(p, q, mu)
        return -sign if (p, q) == (5, 9) else sign

    algos = {
        "recursive": kernel.twist_recursive,
        "faulty": faulty,
        "closed": kernel.twist_closed,
        "tree": kernel.twist_tree,
        "oracle": kernel.twist_oracle,
    }
    report = run_selftest(4, algorithms=algos)
    pairs = [m for m in report.mismatches if m.kind == "pairs"]
    assert [m.indices for m in pairs] == [(5, 9), (5, 9)]
    for m in pairs:
        assert list(m.signs) == list(algos)
        assert all(type(v) is int for v in m.indices)
        assert all(type(v) is int for v in m.signs.values())
        assert m.signs["faulty"] == -m.signs["closed"] == -m.signs["oracle"]


def test_fault_in_an_array_form_found_in_a_later_row_block(monkeypatch):
    # n = 9: the fault is bit 300 * 2**9 + 7 of the plane, in a row past
    # the first 256
    def broken(grid, mu):
        return _batch.tree_parity(grid, mu) ^ 1 << (300 << 9 | 7)

    monkeypatch.setitem(_batch.PLANE_FORMS, kernel.twist_tree, broken)
    report = run_selftest(9)
    assert [m.kind for m in report.mismatches] == ["pairs", "pairs"]
    for m in report.mismatches:
        assert m.indices == (300, 7)
        assert all(type(v) is int for v in m.indices)
        assert m.signs["tree"] == -m.signs["closed"]


def _first_triple(table):
    """The cocycle search over whole rows at once: the reference the
    row-blocked suite is compared against."""
    size = table.shape[0]
    idx = np.arange(size)
    xor_grid = idx[:, None] ^ idx[None, :]
    for p in range(size):
        lhs = table[p, :, None] * table[p ^ idx, :]
        rhs = table * table[p][xor_grid]
        if not np.array_equal(lhs, rhs):
            q, r = np.argwhere(lhs != rhs)[0]
            return (p, int(q), int(r))
    return None


def _parities(signs):
    """The uint8 sign parities of a table of +-1: 1 where negative."""
    return (signs < 0).astype(np.uint8)


def _plane(table):
    """The bit plane of a square uint8 parity table: cell (p, q) at bit
    ``p * size + q``."""
    packed = np.packbits(table, axis=None, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _width(table):
    return table.shape[0].bit_length() - 1


def _certificate(table, mu):
    """What ``run_selftest`` reports for a parity table: nothing if it
    rebuilds from its generator entries, else the identity that fails
    at its first difference and a violating triple, if any."""
    return selftest._certificate(_plane(table), _width(table), mu, "closed")


def _rebuilds(table):
    return _batch.first_difference(_plane(table), _width(table)) is None


def _failing_identities(table):
    """Every (kind, (p, k, q)) whose certificate identity fails in the
    parity table, each checked on its own: the scan the rebuild is
    compared against."""
    size = table.shape[0]
    idx = np.arange(size)
    failing = set()
    for k in range(1, size.bit_length()):
        e = 1 << (k - 1)
        # [p, q] is s(p^e_k, q) vs s(p, q)*s(e_k, q), and
        # s(p, q^e_k) vs s(p, q)*s(p, e_k)
        in_p = table[idx ^ e] != table ^ table[e]
        in_q = table[:, idx ^ e] != table ^ table[:, e, None]
        for kind, bad in (("linear-p", in_p), ("linear-q", in_q)):
            failing |= {(kind, (int(p), k, int(q)))
                        for p, q in np.argwhere(bad)}
    return failing


def _names_a_failing_identity(table, mu):
    """The certificate of a parity table passes exactly when no identity
    fails; otherwise it names one that does, then a triple that
    violates the cocycle, if it names one."""
    failing = _failing_identities(table)
    certificate = _certificate(table, mu)
    if not failing:
        return certificate == []
    linear, *triple = certificate
    signs = 1 - 2 * table.astype(np.int8)
    return ((linear.kind, linear.indices) in failing
            and all(_violates_cocycle(signs, *m.indices) for m in triple))


@pytest.mark.parametrize("cell", [(300, 5), (3, 400), (0, 511)])
def test_blocked_cocycle_suite_finds_the_row_major_first_triple(cell):
    signs = table_direct(9).substitute(-1)
    signs[cell] *= -1
    table = _plane(_parities(signs))
    miss = selftest._cocycle_suite(table, 9, -1, range(512), "closed")
    assert miss.kind == "triples"
    assert miss.indices == _first_triple(signs)


def _violates_cocycle(table, p, q, r):
    s = lambda a, b: int(table[a, b])
    return s(p, q) * s(p ^ q, r) != s(q, r) * s(p, q ^ r)


def _identity_fails(table, linear):
    p, k, q = linear.indices
    e = 1 << (k - 1)
    if linear.kind == "linear-p":
        return table[p ^ e, q] != table[p, q] * table[e, q]
    return table[p, q ^ e] != table[p, q] * table[p, e]


def _quadratic_in_q(table):
    # times (-1)**(p_1 q_1 q_2): still linear in p, no longer in q
    idx = np.arange(table.shape[0])
    odd = (idx[:, None] & idx[None, :] & 1) & (idx[None, :] >> 1)
    return table * (1 - 2 * odd).astype(np.int8)


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize(
    "cell", [(5, 9), (0, 3), (31, 31), None],
    ids=["cell-5-9", "cell-0-3", "cell-31-31", "quadratic-in-q"],
)
def test_certificate_names_its_failure_and_a_violating_triple(cell, mu):
    signs = table_direct(5).substitute(mu)
    assert _certificate(_parities(signs), mu) == []
    if cell is None:
        signs, kind = _quadratic_in_q(signs), "linear-q"
    else:
        signs[cell] *= -1
        kind = "linear-p"
    linear, triple = _certificate(_parities(signs), mu)
    assert linear.kind == kind and linear.mu == mu
    assert _identity_fails(signs, linear)
    p, k, q = linear.indices
    assert triple.kind == "triples"
    assert _violates_cocycle(signs, *triple.indices)
    assert all(type(v) is int for v in linear.indices + triple.indices)
    assert linear.describe().startswith("bilinearity violation: s(")
    assert f"p={p} k={k} q={q} mu={mu:+d}" in linear.describe()


def test_certificate_failure_reaches_the_report():
    def broken(p, q, mu):
        if (p, q) == (3, 5):
            return -kernel.twist_closed(p, q, mu)
        return kernel.twist_closed(p, q, mu)

    report = run_selftest(4, algorithms={"closed": broken})
    assert [m.kind for m in report.mismatches] == [
        "linear-p", "triples", "linear-p", "triples",
    ]
    lines = report.lines()
    assert lines[0].startswith("bilinearity violation:")
    assert lines[1].startswith("cocycle violation:")


def _coboundary_twisted(table):
    # times (-1)**(f(p)+f(q)+f(p^q)) with f(p) = p_0 p_1 p_2: still a
    # cocycle, since a coboundary is one, but no longer bilinear
    idx = np.arange(table.shape[0])
    f = (idx & 7) == 7
    odd = f[:, None] ^ f[None, :] ^ f[idx[:, None] ^ idx[None, :]]
    return table * (1 - 2 * odd).astype(np.int8)


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", [3, 5])
def test_certificate_rejects_a_cocycle_that_is_not_bilinear(n, mu):
    signs = _coboundary_twisted(table_direct(n).substitute(mu))
    table = _parities(signs)
    triple = selftest._cocycle_suite(_plane(table), n, mu, range(1 << n),
                                     "closed")
    assert triple is None
    [linear] = _certificate(table, mu)  # and no triple
    assert linear.kind in ("linear-p", "linear-q") and linear.mu == mu
    assert _identity_fails(signs, linear)


def test_selftest_rejects_a_cocycle_that_is_not_bilinear():
    tables = {
        mu: _coboundary_twisted(table_direct(3).substitute(mu))
        for mu in (1, -1)
    }
    report = run_selftest(
        3, algorithms={"closed": lambda p, q, mu: int(tables[mu][p, q])}
    )
    assert not report.ok
    assert [m.mu for m in report.mismatches] == [1, -1]
    assert all(m.kind.startswith("linear-") for m in report.mismatches)
    assert report.lines()[0].startswith("bilinearity violation:")


def _flipped(table, cell):
    out = table.copy()
    out[cell] *= -1
    return out


def _certificate_cases(n, mu):
    """(name, parity table) pairs for which the rebuild must decide as
    the scan of every identity does."""
    table = table_direct(n).substitute(mu)
    last = (1 << n) - 1
    cases = [
        ("true", table),
        ("row-0", _flipped(table, (0, last))),
        ("column-0", _flipped(table, (last, 0))),
        ("inner", _flipped(table, (last, last))),
        ("quadratic-in-q", _quadratic_in_q(table)),
        ("coboundary", _coboundary_twisted(table)),
    ]
    return [(name, _parities(signs)) for name, signs in cases]


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rebuild_decides_as_the_scan(n, mu):
    cases = _certificate_cases(n, mu)
    for name, table in cases:
        assert _rebuilds(table) == (not _failing_identities(table)), name
        assert _names_a_failing_identity(table, mu), name
    # below n = 2 and n = 3 the quadratic and the coboundary factors
    # are 1; at n = 1 the inner cell is the generator entry (1, 1),
    # and either sign there is bilinear
    passing = ["true"]
    if n == 1:
        passing += ["inner", "quadratic-in-q"]
    if n < 3:
        passing += ["coboundary"]
    assert [name for name, table in cases if _rebuilds(table)] == passing


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("cell", [(300, 5), (256, 256), (511, 300), (5, 300)])
def test_rebuild_decides_as_the_scan_across_row_blocks(cell, mu):
    # n = 9: cells in both halves of the 512 rows, row 256 among them
    table = _parities(table_direct(9).substitute(mu))
    assert _rebuilds(table) and _certificate(table, mu) == []
    table[cell] ^= 1
    assert not _rebuilds(table)
    assert _names_a_failing_identity(table, mu)


def _bits(count, width):
    """Bit j of each i below ``count``, for j below ``width``."""
    return (np.arange(count)[:, None] >> np.arange(width)) & 1


def _bilinear_forms(n):
    """Every GF(2)-bilinear parity table at width n, the parity of the
    sum of p_j q_i c[j, i], one per n*n generator matrix c."""
    masks = _bits(1 << n, n)
    mats = _bits(1 << n * n, n * n).reshape(-1, n, n)
    forms = np.einsum("pj,cji,qi->cpq", masks, mats, masks)
    return (forms & 1).astype(np.uint8)


def test_rebuild_accepts_exactly_the_bilinear_parity_tables():
    # all 65,536 parity tables at n = 2, cell c of table i being bit c
    # of i: the rebuild passes exactly the 16 bilinear forms
    tables = _bits(1 << 16, 16).astype(np.uint8).reshape(-1, 4, 4)
    passing = [i for i, table in enumerate(tables) if _rebuilds(table)]
    assert passing == sorted(
        int(form.ravel() @ (1 << np.arange(16))) for form in _bilinear_forms(2)
    )
    # at n = 2 and n = 3 the rebuild and the scan of every identity
    # each pass exactly the bilinear forms, among all of them and 2,000
    # seeded random tables, and a failing certificate names an identity
    # that fails
    rng = np.random.default_rng(20261019)
    for n in (2, 3):
        forms = _bilinear_forms(n)
        bilinear = {form.tobytes() for form in forms}
        randoms = rng.integers(0, 2, (2000,) + forms.shape[1:], np.uint8)
        for table in np.concatenate([forms, randoms]):
            expected = table.tobytes() in bilinear
            assert _rebuilds(table) == expected
            assert (not _failing_identities(table)) == expected
            assert _names_a_failing_identity(table, 1)


def test_selftest_peak_memory():
    # the suites work on bit planes of 0.5 MiB at n = 11: the grid's 2n
    # planes of p's and q's bits, one plane per algorithm and a few
    # working ones, beside the 0.5 MiB table of row pattern XORs, built
    # afresh as in a new process
    _batch.row_combos.cache_clear()
    tracemalloc.start()
    try:
        run_selftest(11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 << 20


def _fault_corpus(count=120, seed=20261019):
    """Seeded fault maps at n = 1..7: (n, algorithms, broken plane form).

    Each map flips one or two cells to the opposite sign, at one mu or
    both, in one algorithm: through a scalar wrapper in the map, or
    through a plane form patched in for a built-in (then the third
    item is ``(function, form)``, else None).  Maps hold all four
    algorithms, the faulty one alone, or it and one other.
    """
    rng = random.Random(seed)
    names = list(kernel.ALGORITHMS)
    for i in range(count):
        n = 1 + i % 7
        size = 1 << n
        name = rng.choice(names)
        cells = {(rng.randrange(size), rng.randrange(size))
                 for _ in range(rng.choice((1, 2)))}
        mus = rng.choice(((1,), (-1,), (1, -1)))
        shape = rng.choice(("all", "alone", "pair"))
        if shape == "all":
            algos = dict(kernel.ALGORITHMS)
        elif shape == "alone":
            algos = {name: kernel.ALGORITHMS[name]}
        else:
            other = rng.choice([m for m in names if m != name])
            algos = {name: kernel.ALGORITHMS[name],
                     other: kernel.ALGORITHMS[other]}
        true = kernel.ALGORITHMS[name]
        if rng.random() < 0.5:
            def scalar(p, q, mu, true=true, cells=cells, mus=mus):
                sign = true(p, q, mu)
                return -sign if mu in mus and (p, q) in cells else sign

            yield n, {**algos, name: scalar}, None
        else:
            def form(grid, mu, true=_batch.PLANE_FORMS[true], cells=cells,
                     mus=mus):
                parity = true(grid, mu)
                if mu in mus:
                    for a, b in cells:
                        parity ^= 1 << (a << grid.n | b)
                return parity

            yield n, algos, (true, form)


#: sha256 of the JSON list of ``lines()`` of every report of the fault
#: corpus, with each certificate failure named from the rebuild's first
#: difference.  A report of a +-1-valued algorithm does not depend on
#: how the suites store their tables.
_CORPUS_SHA256 = (
    "49d137d07fa1dccf6ef9e530d2bef5f9c475dcc48f5f0fa8c5923da0b8df880b"
)


def test_fault_corpus_reports_are_unchanged():
    reports = []
    for n, algos, patch in _fault_corpus():
        with pytest.MonkeyPatch.context() as mp:
            if patch is not None:
                mp.setitem(_batch.PLANE_FORMS, *patch)
            reports.append(run_selftest(n, algorithms=algos).lines())
    kinds = {line.split(":")[0] for lines in reports for line in lines}
    assert kinds == {"mismatch", "bilinearity violation", "cocycle violation"}
    text = json.dumps(reports).encode("ascii")
    assert hashlib.sha256(text).hexdigest() == _CORPUS_SHA256
