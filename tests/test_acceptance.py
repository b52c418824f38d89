"""Acceptance gate.

One test per shipped guarantee, each with its stated budget.  Every
test announces itself with a single PASS line (printed straight to the
terminal, bypassing capture); a missing PASS line plus a pytest
failure is the fail signal.  A failing count names its first
counterexample and the ``cltwist sign`` calls that rerun it; the tests
at the end check those messages on injected faults.
"""

import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from cltwist import cli, kernel
from cltwist.kernel import (
    ALGORITHMS,
    blade_product,
    grade_sign,
    tree_trace,
    twist,
    twist_closed,
)
from cltwist.multivector import Algebra
from cltwist.selftest import Mismatch
from cltwist.tables import (
    render_block_letters,
    render_table,
    table_blocks,
    table_direct,
)

SEED = 20260819


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_criterion_1_worked_12bit_example(announce, capsys):
    t0 = time.perf_counter()

    assert run_cli("sign", "2636", "1143", "--mu", "-1") == 0
    assert capsys.readouterr().out == "-1\n"

    assert run_cli("mul", "i_2636 * i_1143", "--mu", "-1", "--i-form") == 0
    assert capsys.readouterr().out == "-i_3643\n"
    alg = Algebra(mu=-1)
    assert alg.parse("i_2636 * i_1143") == alg.blade(3643, -1)

    states = [s.state for s in tree_trace(2636, 1143, -1)]
    assert states == [
        "B", "-B", "-A", "-A", "-A", "B",
        "-B", "B", "A", "-B", "B", "-B",
    ]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"PASS 1: 12-bit worked example, sign/mul/trace ({elapsed:.3f}s)")


def test_criterion_2_three_generator_product(announce):
    t0 = time.perf_counter()

    assert Algebra(mu=1).parse("e_134 * e_23") == Algebra(mu=1).parse("-e_124")
    assert Algebra(mu=-1).parse("e_134 * e_23") == Algebra(mu=-1).parse("e_124")
    # same thing at the kernel level
    assert blade_product(0b1101, 0b0110, 1) == (-1, 0b1011)
    assert blade_product(0b1101, 0b0110, -1) == (1, 0b1011)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"PASS 2: e_134 * e_23 at both conventions ({elapsed:.3f}s)")


def test_criterion_3_golden_tables(announce):
    t0 = time.perf_counter()

    assert render_table(table_direct(1), "text", None) == "1 1\n1 m\n"
    assert render_table(table_direct(2), "text", None) == (
        "1 1 1 1\n"
        "1 m 1 m\n"
        "1 -1 m -m\n"
        "1 -m m -1\n"
    )
    assert render_table(table_direct(3), "text", None) == (
        "1 1 1 1 1 1 1 1\n"
        "1 m 1 m 1 m 1 m\n"
        "1 -1 m -m 1 -1 m -m\n"
        "1 -m m -1 1 -m m -1\n"
        "1 -1 -1 1 m -m -m m\n"
        "1 -m -1 m m -1 -m 1\n"
        "1 1 -m -m m m -1 -1\n"
        "1 m -m -1 m 1 -1 -m\n"
    )
    assert render_block_letters(4) == (
        "A A A A A A A A\n"
        "B mB B mB B mB B mB\n"
        "B -B mB -mB B -B mB -mB\n"
        "A -mA mA -A A -mA mA -A\n"
        "B -B -B B mB -mB -mB mB\n"
        "A -mA -A mA mA -A -mA A\n"
        "A A -mA -mA mA mA -A -A\n"
        "B mB -mB -B mB B -B -mB\n"
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"PASS 3: golden tables n=1,2,3 and n=4 letters ({elapsed:.3f}s)")


def _pair_mismatch(algorithms, p, q, mu):
    """The four signs of (p, q) and their ``cltwist sign`` reruns, as
    ``run_selftest`` reports a mismatch."""
    signs = {name: f(p, q, mu) for name, f in algorithms.items()}
    return Mismatch("pairs", mu, (p, q), signs).describe()


def _four_way(algorithms, width):
    """Pairs below 2**width, at both mu, where the four sign functions
    disagree: their count, and the first one described (None if none)."""
    funcs = list(algorithms.values())
    mismatches = 0
    first = None
    for mu in (1, -1):
        for p in range(1 << width):
            for q in range(1 << width):
                s0 = funcs[0](p, q, mu)
                if (
                    funcs[1](p, q, mu) != s0
                    or funcs[2](p, q, mu) != s0
                    or funcs[3](p, q, mu) != s0
                ):
                    mismatches += 1
                    if first is None:
                        first = _pair_mismatch(algorithms, p, q, mu)
    return mismatches, first


def test_criterion_4_four_way_equivalence(announce):
    funcs = list(ALGORITHMS.values())
    assert len(funcs) == 4

    t0 = time.perf_counter()
    mismatches, first = _four_way(ALGORITHMS, 10)
    elapsed = time.perf_counter() - t0
    assert mismatches == 0, f"{mismatches} mismatches, first {first}"
    assert elapsed < 60.0

    rng = random.Random(SEED)
    for _ in range(100_000):
        p = rng.getrandbits(64)
        q = rng.getrandbits(64)
        mu = rng.choice((1, -1))
        s0 = funcs[0](p, q, mu)
        assert (
            funcs[1](p, q, mu) == s0
            and funcs[2](p, q, mu) == s0
            and funcs[3](p, q, mu) == s0
        ), _pair_mismatch(ALGORITHMS, p, q, mu)

    announce(
        "PASS 4: four-way agreement, exhaustive 2x2^20 pairs"
        f" ({elapsed:.1f}s) + 1e5 random 64-bit pairs"
    )


def _sign_table(n, mu):
    size = 1 << n
    table = np.empty((size, size), dtype=np.int8)
    for p in range(size):
        for q in range(size):
            table[p, q] = twist_closed(p, q, mu)
    return table


def _first_cocycle_violation(table, mu):
    """The first triple (p, q, r), in row-major order, of the square
    sign ``table`` at ``mu`` whose cocycle identity fails, described
    (None if none).  Each p checks every (q, r) at once."""
    size = len(table)
    idx = np.arange(size)
    xor_grid = idx[:, None] ^ idx[None, :]
    for p in range(size):
        lhs = table[p, :, None] * table[p ^ idx, :]
        rhs = table * table[p][xor_grid]
        if not np.array_equal(lhs, rhs):
            q, r = np.argwhere(lhs != rhs)[0].tolist()
            return Mismatch("triples", mu, (p, q, r), {}).describe()
    return None


def _random_cocycle_violation(sign, rng, count):
    """The first of ``count`` random 64-bit triples, each at a random
    mu, whose cocycle identity fails under the sign function ``sign``,
    described (None if none)."""
    for _ in range(count):
        p = rng.getrandbits(64)
        q = rng.getrandbits(64)
        r = rng.getrandbits(64)
        mu = rng.choice((1, -1))
        lhs = sign(p, q, mu) * sign(p ^ q, r, mu)
        rhs = sign(q, r, mu) * sign(p, q ^ r, mu)
        if lhs != rhs:
            return Mismatch("triples", mu, (p, q, r), {}).describe()
    return None


def test_criterion_5_cocycle(announce):
    t0 = time.perf_counter()
    for mu in (1, -1):
        first = _first_cocycle_violation(_sign_table(6, mu), mu)
        assert first is None, first
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    first = _random_cocycle_violation(twist, random.Random(SEED + 5), 100_000)
    assert first is None, first

    announce(
        "PASS 5: cocycle identity, exhaustive 2x2^18 triples"
        f" ({elapsed:.1f}s) + 1e5 random 64-bit triples"
    )


def test_criterion_6_first_generator_lemmas(announce):
    t0 = time.perf_counter()
    for mu in (1, -1):
        for p in range(1 << 16):
            sp = grade_sign(p)
            assert twist(1, 2 * p, mu) == 1
            assert twist(1, 2 * p + 1, mu) == mu
            assert twist(2 * p, 1, mu) == sp
            assert twist(2 * p + 1, 1, mu) == sp * mu
    elapsed = time.perf_counter() - t0
    announce(
        f"PASS 6: first-generator lemmas for all p < 2^16, both mu"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_7_block_law(announce, table_difference):
    t0 = time.perf_counter()
    for mu in (1, -1):
        for p in range(1 << 8):
            sp = grade_sign(p)
            for q in range(1 << 8):
                base = twist(p, q, mu)
                assert twist(2 * p, 2 * q, mu) == base
                assert twist(2 * p + 1, 2 * q, mu) == base
                assert twist(2 * p, 2 * q + 1, mu) == sp * base
                assert twist(2 * p + 1, 2 * q + 1, mu) == sp * mu * base
    for n in range(1, 9):
        blocks, direct = table_blocks(n), table_direct(n)
        assert blocks == direct, table_difference(blocks, direct)
    elapsed = time.perf_counter() - t0
    announce(
        "PASS 7: halving block law for p,q < 2^8 and"
        f" table_blocks == table_direct up to n=8 ({elapsed:.1f}s)"
    )


# quaternion units as (sign, unit) with 1, i, j, k encoded 0, 1, 2, 3
_QUATERNION = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _cocycle_violations(table, mu):
    """Triples (p, q, r) of the square sign ``table`` of the closed form
    at ``mu`` whose cocycle identity fails: their count, and the first
    in row-major order described (None if none)."""
    size = len(table)
    violations = 0
    first = None
    for p in range(size):
        for q in range(size):
            for r in range(size):
                lhs = table[p, q] * table[p ^ q, r]
                rhs = table[q, r] * table[p, q ^ r]
                if lhs != rhs:
                    violations += 1
                    if first is None:
                        first = (p, q, r)
    return violations, first and Mismatch("triples", mu, first, {}).describe()


def test_criterion_8_complex_and_quaternion_tables(announce):
    t0 = time.perf_counter()

    # one generator at mu=-1: the complex numbers
    assert np.array_equal(
        table_direct(1).substitute(-1),
        np.array([[1, 1], [1, -1]], dtype=np.int8),
    )
    assert blade_product(1, 1, -1) == (-1, 0)

    # two generators at mu=-1: the quaternions, with e_1, e_2, e_12
    # playing i, j, k
    for (a, b), (sign, unit) in _QUATERNION.items():
        assert blade_product(a, b, -1) == (sign, unit), (a, b)

    # three generators stay associative: every cocycle triple holds,
    # so this is not an octonion table
    violations, first = _cocycle_violations(_sign_table(3, -1), -1)
    assert violations == 0, f"{violations} violations, first {first}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(
        "PASS 8: complex/quaternion correspondence and associative"
        f" 512-triple check ({elapsed:.3f}s)"
    )


def _random_multivector(rng, algebra):
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        mask = rng.randrange(1 << 10)
        coeffs[mask] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return algebra.multivector(coeffs)


def test_criterion_9_multivector_ring_laws(announce):
    rng = random.Random(SEED + 9)
    algebras = (Algebra(mu=1), Algebra(mu=-1))
    t0 = time.perf_counter()
    for k in range(1000):
        algebra = algebras[k & 1]
        a = _random_multivector(rng, algebra)
        b = _random_multivector(rng, algebra)
        c = _random_multivector(rng, algebra)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        "PASS 9: associativity and distributivity on 1000 random"
        f" triples, both mu, exact ({elapsed:.1f}s)"
    )


# --- the gate's failure messages ---------------------------------------------

def test_criterion_4_names_its_first_mismatch():
    def faulty(p, q, mu):
        sign = kernel.twist_tree(p, q, mu)
        return -sign if (p, q) in ((5, 3), (6, 2)) else sign

    algorithms = dict(ALGORITHMS, tree=faulty)
    assert _four_way(algorithms, 3) == (4, (
        "mismatch: p=5 q=3 mu=+1 oracle=+1 recursive=+1 tree=-1 closed=+1"
        " rerun: cltwist sign 5 3 --algo oracle --mu +1;"
        " cltwist sign 5 3 --algo recursive --mu +1;"
        " cltwist sign 5 3 --algo tree --mu +1;"
        " cltwist sign 5 3 --algo closed --mu +1"
    ))


def test_criterion_8_names_its_first_violating_triple():
    table = _sign_table(3, -1)
    table[3, 5] *= -1
    violations, first = _cocycle_violations(table, -1)
    assert violations > 0
    assert first.startswith("cocycle violation: p=1 q=2 r=5 mu=-1 rerun:")


def test_criterion_5_names_its_first_violating_triple():
    # the exhaustive part names the triple criterion 8's search finds
    table = _sign_table(3, -1)
    table[3, 5] *= -1
    first = _first_cocycle_violation(table, -1)
    assert first == _cocycle_violations(table, -1)[1]
    assert first.startswith("cocycle violation: p=1 q=2 r=5 mu=-1 rerun:")

    # the random part names a triple that violates it, with its reruns
    def faulty(p, q, mu):
        sign = twist(p, q, mu)
        return -sign if p % 3 == 0 else sign

    first = _random_cocycle_violation(faulty, random.Random(SEED + 5), 1000)
    found = re.fullmatch(
        r"cocycle violation: p=(\d+) q=(\d+) r=(\d+) mu=([+-]1) rerun: .*",
        first,
    )
    p, q, r, mu = map(int, found.groups())
    lhs = faulty(p, q, mu) * faulty(p ^ q, r, mu)
    assert lhs != faulty(q, r, mu) * faulty(p, q ^ r, mu)
    assert f"cltwist sign {p} {q} --algo closed --mu {mu:+d};" in first
