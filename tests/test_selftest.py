import tracemalloc

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
    identity = selftest._LINEAR_IN[kind]
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
    # array forms for the built-ins, the scalar loop for the injected one
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
    # n = 9 walks two blocks of 256 rows; the fault sits in the second
    def broken(p, q, mu, width):
        parity = _batch.tree_parity(p, q, mu, width)
        parity[(p == 300) & (q == 7)] ^= 1
        return parity

    monkeypatch.setitem(_batch.ARRAY_FORMS, kernel.twist_tree, broken)
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


@pytest.mark.parametrize("cell", [(300, 5), (3, 400), (0, 511)])
def test_blocked_cocycle_suite_finds_the_row_major_first_triple(cell):
    table = table_direct(9).substitute(-1)
    table[cell] *= -1
    miss = selftest._cocycle_suite(table, -1)
    assert miss.kind == "triples"
    assert miss.indices == _first_triple(table)


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
    table = table_direct(5).substitute(mu)
    assert selftest._bilinear_certificate(table, mu) == []
    if cell is None:
        table, kind = _quadratic_in_q(table), "linear-q"
    else:
        table[cell] *= -1
        kind = "linear-p"
    linear, triple = selftest._bilinear_certificate(table, mu)
    assert linear.kind == kind and linear.mu == mu
    assert _identity_fails(table, linear)
    p, k, q = linear.indices
    assert triple.kind == "triples"
    assert _violates_cocycle(table, *triple.indices)
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
    table = _coboundary_twisted(table_direct(n).substitute(mu))
    assert selftest._cocycle_suite(table, mu) is None
    [linear] = selftest._bilinear_certificate(table, mu)  # and no triple
    assert linear.kind in ("linear-p", "linear-q") and linear.mu == mu
    assert _identity_fails(table, linear)


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
    """(name, table) pairs for which the rebuild must decide as the
    per-k scan does."""
    table = table_direct(n).substitute(mu)
    last = (1 << n) - 1
    zero = table.copy()
    zero[last // 2 + 1, last] = 0
    return [
        ("true", table),
        ("row-0", _flipped(table, (0, last))),
        ("column-0", _flipped(table, (last, 0))),
        ("inner", _flipped(table, (last, last))),
        ("quadratic-in-q", _quadratic_in_q(table)),
        ("coboundary", _coboundary_twisted(table)),
        ("zero-entry", zero),
    ]


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rebuild_decides_as_the_scan(n, mu):
    cases = _certificate_cases(n, mu)
    for name, table in cases:
        scan = selftest._bilinear_scan(table, mu)
        assert selftest._rebuilds(table) == (scan == []), name
        assert selftest._bilinear_certificate(table, mu) == scan, name
    # below n = 2 and n = 3 the quadratic and the coboundary factors
    # are 1; at n = 1 the inner cell is the generator entry (1, 1),
    # and either sign there is bilinear
    passing = ["true"]
    if n == 1:
        passing += ["inner", "quadratic-in-q"]
    if n < 3:
        passing += ["coboundary"]
    assert [name for name, table in cases
            if selftest._rebuilds(table)] == passing


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("cell", [(300, 5), (256, 256), (511, 300), (5, 300)])
def test_rebuild_decides_as_the_scan_across_row_blocks(cell, mu):
    # n = 9: two blocks of 256 rows; row 256 starts the second
    table = table_direct(9).substitute(mu)
    assert selftest._rebuilds(table)
    assert selftest._bilinear_scan(table, mu) == []
    table[cell] *= -1
    assert not selftest._rebuilds(table)
    scan = selftest._bilinear_scan(table, mu)
    assert scan and selftest._bilinear_certificate(table, mu) == scan


def test_certificate_of_a_table_the_rebuild_rejects_is_the_scan():
    # all zeros satisfies every identity, 0 == 0 * 0, though its
    # generator entries are not signs: the scan decides, and passes it
    table = np.zeros((8, 8), dtype=np.int8)
    assert not selftest._rebuilds(table)
    assert selftest._bilinear_scan(table, 1) == []
    assert selftest._bilinear_certificate(table, 1) == []


def test_selftest_peak_memory():
    # the suites work in row blocks: the 4 MiB int8 table at n = 11 and
    # the buffers of one block
    tracemalloc.start()
    try:
        run_selftest(11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 << 20
