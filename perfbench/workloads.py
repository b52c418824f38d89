"""The workloads.  Each is one closed-loop client in one process.

Every workload draws all of its inputs from ``random.Random(seed)``
and checks outputs against :mod:`reference`, outside the timed region.
Why each workload exists, and which layer it loads and which it
bypasses, is in README.md next to this file.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, NamedTuple

import numpy as np

import cltwist
import cltwist.multivector
from cltwist import (
    ALGORITHMS,
    Algebra,
    render_block_letters,
    render_table,
    run_selftest,
    table_blocks,
    table_direct,
)

import reference
from harness import Op


@contextmanager
def _patched(obj, name: str, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def wide_mask(rng: random.Random, bits: int) -> int:
    """Random mask of exactly ``bits`` bits: the top bit is set."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


SIGNS_BATCH = 1024
SIGNS_WIDTHS = range(1, 65)


def _lengths(rng: random.Random, count: int) -> List[int]:
    """``count`` bit lengths, each of 1..64 equally often, shuffled."""
    lengths = [SIGNS_WIDTHS[i % len(SIGNS_WIDTHS)] for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def signs_pairs(rng: random.Random, count: int = SIGNS_BATCH):
    """``count`` pairs whose p and q lengths are uniform over 1..64."""
    return [(wide_mask(rng, a), wide_mask(rng, b))
            for a, b in zip(_lengths(rng, count), _lengths(rng, count))]


class Signs:
    """64 fixed batches of 1,024 pairs through ``blade_product``.

    Batch w holds p masks of exactly w bits, and q masks whose lengths
    run over 1..64 equally often, so over one cycle of the 64 batches
    the two lengths are uniform and independent.  The closed form loops
    once per bit of p, so operation times spread evenly from the
    narrowest batch to the widest: p50 is the time at about 32 bits and
    p90 at about 58.  Identical batches would instead put p50 wherever
    the machine's speed happened to sit during the run.  A cycle runs
    each batch once with mu = 1 and once with mu = -1, in seeded order.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.batches = [
            [(wide_mask(self.rng, w), wide_mask(self.rng, b))
             for b in _lengths(self.rng, SIGNS_BATCH)]
            for w in SIGNS_WIDTHS
        ]
        self.expected = {
            (i, mu): [reference.sign(p, q, mu) for p, q in batch]
            for i, batch in enumerate(self.batches) for mu in (1, -1)
        }
        self.blade_product = cltwist.blade_product
        self.keys = list(self.expected)
        self.queue: List[tuple] = []

    def warm_up(self) -> None:
        for _ in range(4):
            self.next_op().run()

    def next_op(self) -> Op:
        if not self.queue:
            self.queue = self.rng.sample(self.keys, len(self.keys))
        index, mu = key = self.queue.pop()
        pairs = self.batches[index]

        def run():
            product = self.blade_product
            return [product(p, q, mu) for p, q in pairs]

        return Op("batch", key, run, lambda out: self._check(index, mu, out), not self.queue)

    def _check(self, index, mu, out):
        signs = self.expected[index, mu]
        for k, (p, q) in enumerate(self.batches[index]):
            if out[k] != (signs[k], p ^ q):
                return ("wrong", f"blade_product({p}, {q}, {mu}) = {out[k]},"
                                 f" expected {(signs[k], p ^ q)}")
        return None

    @contextmanager
    def traced(self, tracer):
        self.blade_product = tracer.wrap_calls("kernel", cltwist.blade_product)
        try:
            yield
        finally:
            self.blade_product = cltwist.blade_product


#: The expression grammar's tokens, counted for ``notation.tokens``.
_TOKEN = re.compile(r"[ei](?:_?\{[0-9a-z]+\}|_?[0-9a-z]+)?|[0-9]+|[-+*/]")

_GRID = 8  # the (U_a, U_b) plane is cut into 8 x 8 cells of width 1
_OFFSET = _GRID // 2  # row i uses columns i and i + _OFFSET (mod _GRID)
_SCHEDULE_SEED = 0x5C4ED


class _Product(NamedTuple):
    mu: int
    a: Dict[int, Fraction]
    b: Dict[int, Fraction]
    text_a: str
    text_b: str
    style: str
    checked: bool


class AlgebraProducts:
    """Parse two sums, multiply, format, re-parse and compare.

    Not an end-to-end workload: README.md says why.  Every traced run
    runs one epoch of it to measure the multivector and notation layers.

    Each factor is a sum of k = round(2**U) blades, U uniform on (0, 8),
    so k runs from 1 to 256.  An epoch is 16 products, on the cells
    (i, i) and (i, i + 4 mod 8) of the 8 x 8 grid of (U_a, U_b): two in
    each row and two in each column.  The (i, i + 4) product of every
    even row has an i-form factor, A in rows 0 and 4 and B in rows 2
    and 6: 1 in 8 factors overall.  The point inside each cell comes
    from a fixed schedule, the same for every seed, so every seed sees
    the same mix of sizes; the seed draws mu, the blades and the
    coefficients once, and the order of every epoch.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        sched = random.Random(_SCHEDULE_SEED)
        self.cells = [(i, j, i + sched.random(), j + sched.random())
                      for i in range(_GRID) for j in (i, (i + _OFFSET) % _GRID)]
        self.algebras = {1: Algebra(1), -1: Algebra(-1)}
        self.products = self._products()
        self.keys = list(range(len(self.products)))
        self.expected = {k: reference.product(spec.a, spec.b, spec.mu)
                         for k, spec in enumerate(self.products) if spec.checked}
        self.queue: List[int] = []
        self.tracer = None
        self.parse = lambda alg, text: alg.parse(text)
        self.mul = lambda a, b: a * b
        self.format = lambda c, style: c.format(style)

    def _factor(self, u: float, i_form: bool):
        rng = self.rng
        k = round(2 ** u)
        # An i-form factor's blades are one random 64-bit coset
        # {w | m : m < 2**8}.  A product then still has at most 256
        # distinct blades, as with e-form factors; fully independent
        # 64-bit blades would give up to 65,536, and re-parsing a sum is
        # quadratic in its term count (2,048 terms take about 12 s).
        high = (1 << 63 | rng.getrandbits(55) << 8) if i_form else 0
        terms = {
            high | m: Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))
            for m in rng.sample(range(256), k)
        }
        return terms, reference.format_terms(terms, "i" if i_form else "e")

    def _products(self) -> List[_Product]:
        rng = self.rng
        checked = rng.sample(range(len(self.cells)), len(self.cells) // 4)
        products = []
        for index, (i, j, u_a, u_b) in enumerate(self.cells):
            i_form = i % 2 == 0 and j != i
            a, text_a = self._factor(u_a, i_form and i % 4 == 0)
            b, text_b = self._factor(u_b, i_form and i % 4 == 2)
            products.append(_Product(rng.choice((1, -1)), a, b, text_a, text_b,
                                     "i" if i_form else "e", index in checked))
        return products

    def warm_up(self) -> None:
        alg = self.algebras[-1]
        for text in ("1/2 e_{1} * e_{12} - 3 e_{2}", "i_5 + 2/3 i_9"):
            alg.parse(alg.parse(text).format("i"))

    def next_op(self) -> Op:
        if not self.queue:
            self.queue = self.rng.sample(self.keys, len(self.keys))
        key = self.queue.pop()
        spec = self.products[key]
        alg = self.algebras[spec.mu]

        def run():
            parse, mul, fmt = self.parse, self.mul, self.format
            a = parse(alg, spec.text_a)
            b = parse(alg, spec.text_b)
            c = mul(a, b)
            text = fmt(c, spec.style)
            return a, b, c, text, parse(alg, text) == c

        return Op("product", key, run, lambda out: self._check(key, out), not self.queue)

    def _check(self, key: int, out):
        spec = self.products[key]
        a, b, c, text, round_trip = out
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["multivector.term_pairs"] += len(a) * len(b)
            counts["notation.tokens"] += sum(
                len(_TOKEN.findall(t)) for t in (spec.text_a, spec.text_b, text)
            )
        if not round_trip:
            return ("wrong", f"re-parsing {text[:60]!r}... gives another multivector")
        if not spec.checked:
            return None
        expected = self.expected[key]
        if dict(a.terms()) != spec.a or dict(b.terms()) != spec.b:
            return ("wrong", f"parse({spec.text_a[:60]!r}...) gives other terms")
        if dict(c.terms()) != expected:
            return ("wrong", f"product of {spec.text_a[:40]!r}... and {spec.text_b[:40]!r}... mu={spec.mu}")
        if text != reference.format_terms(expected, spec.style):
            return ("wrong", f"format gives {text[:60]!r}...")
        return None

    @contextmanager
    def traced(self, tracer):
        mod = cltwist.multivector
        saved = self.parse, self.mul, self.format
        self.parse = tracer.wrap("multivector.parse", self.parse)
        self.mul = tracer.wrap("multivector.mul", self.mul)
        self.format = tracer.wrap("multivector.format", self.format)
        self.tracer = tracer
        try:
            with _patched(mod, "parse_expression",
                          tracer.wrap("notation.parse_expression", mod.parse_expression)), \
                 _patched(mod, "blade_product",
                          tracer.wrap_calls("kernel", mod.blade_product)):
                yield
        finally:
            self.parse, self.mul, self.format = saved
            self.tracer = None


#: n = 11 and run_selftest(7) took 0.4 to 1.4 s per job, so a run timed
#: each job only 6 or 7 times: too few to find the machine's fast level
#: (README.md, "Why the fastest repeat").  At these sizes a cycle takes
#: about 1.4 s and a 40 s run times each job 30 to 120 times.
EXHAUSTIVE_N = 10
SELFTEST_N = 6
#: Sorted by fastest time, the kinds are letters < selftest < blocks <
#: direct (about 76, 79, 228 and 266 ms on a 2-core x86 box).  With
#: these weights p50 sits inside the selftest ops (12.5%..62.5%) and p90
#: inside the direct ops (75%..100%).  Letters and selftest are close
#: enough that their order can swap, which moves p50 by a few percent.
EXHAUSTIVE_CYCLE = ("selftest", "direct", "selftest", "letters",
                    "selftest", "direct", "selftest", "blocks")
_SAMPLED_CELLS = 32


class Exhaustive:
    """Self-test and full tables, in a fixed weighted cycle."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.keys = list(EXHAUSTIVE_CYCLE)
        self.position = self.rng.randrange(len(EXHAUSTIVE_CYCLE))
        self.ops_done = 0
        self.tracer = None
        self.algorithms = None  # None: run_selftest's own default
        self.fn = {
            "selftest": run_selftest, "direct": table_direct,
            "blocks": table_blocks, "render": render_table,
            "letters": render_block_letters,
        }
        # direct ops are compared with the latest blocks table
        self.blocks_codes = table_blocks(EXHAUSTIVE_N).codes

    def warm_up(self) -> None:
        run_selftest(3)
        render_table(table_direct(4), "csv", -1)
        render_table(table_blocks(4), "text", None)
        render_block_letters(4)

    def run_kind(self, kind: str):
        f = self.fn
        if kind == "selftest":
            return f["selftest"](SELFTEST_N, algorithms=self.algorithms)
        if kind == "blocks":
            table = f["blocks"](EXHAUSTIVE_N)
            return table, f["render"](table, "text", None)
        if kind == "direct":
            table = f["direct"](EXHAUSTIVE_N)
            return table, f["render"](table, "csv", -1)
        return f["letters"](EXHAUSTIVE_N)

    def next_op(self) -> Op:
        kind = EXHAUSTIVE_CYCLE[self.position]
        self.position = (self.position + 1) % len(EXHAUSTIVE_CYCLE)
        self.ops_done += 1
        return Op(kind, kind, lambda: self.run_kind(kind),
                  lambda out: self._check(kind, out),
                  self.ops_done % len(EXHAUSTIVE_CYCLE) == 0)

    def _cells(self):
        size = 1 << EXHAUSTIVE_N
        return [(self.rng.randrange(size), self.rng.randrange(size))
                for _ in range(_SAMPLED_CELLS)]

    def _check_text(self, what, text, rows, cell, sep):
        lines = text.split("\n")
        if len(lines) != rows + 1 or lines[-1]:
            return ("wrong", f"{what}: {len(lines) - 1} lines, expected {rows}")
        for p, q in self._cells():
            p, q = p % rows, q % rows
            row = lines[p].split(sep)
            if len(row) != rows or row[q] != cell(p, q):
                return ("wrong", f"{what}: cell ({p}, {q}) is not {cell(p, q)!r}")
        return None

    def _check(self, kind, out):
        size = 1 << EXHAUSTIVE_N
        if kind == "selftest":
            if not out.ok:
                return ("wrong", f"run_selftest({SELFTEST_N}): {out.lines()[0]}")
            if (out.pair_count, out.triple_count, out.algorithm_count) != (
                    4 ** SELFTEST_N, 8 ** SELFTEST_N, 4):
                return ("wrong", f"run_selftest({SELFTEST_N}) covered the wrong cases")
            return None
        if kind == "letters":
            return self._check_text(f"render_block_letters({EXHAUSTIVE_N})", out,
                                    size // 2, reference.letter_cell, " ")
        table, text = out
        if self.tracer is not None:
            self.tracer.counts["tables.render_bytes"] += len(text)
        for p, q in self._cells():
            neg, mu_power = reference.twist_parts(p, q)
            if int(table.codes[p, q]) != neg | mu_power << 1:
                return ("wrong", f"table_{kind}({EXHAUSTIVE_N}) cell ({p}, {q})")
        if kind == "blocks":
            self.blocks_codes = table.codes
        elif not np.array_equal(table.codes, self.blocks_codes):
            return ("wrong", f"table_direct({EXHAUSTIVE_N}) != table_blocks({EXHAUSTIVE_N})")
        if kind == "blocks":
            return self._check_text("render_table(text, mu=None)", text, size,
                                    lambda p, q: reference.cell(p, q, None), " ")
        return self._check_text("render_table(csv, mu=-1)", text, size,
                                lambda p, q: reference.cell(p, q, -1), ",")

    @contextmanager
    def traced(self, tracer):
        saved = self.fn
        self.fn = {
            "selftest": tracer.wrap("selftest.run_selftest", run_selftest),
            "direct": tracer.wrap("tables.table_direct", table_direct),
            "blocks": tracer.wrap("tables.table_blocks", table_blocks),
            "render": tracer.wrap("tables.render_table", render_table),
            "letters": tracer.wrap("tables.render_block_letters", render_block_letters),
        }
        self.algorithms = {name: tracer.wrap_calls("kernel", f)
                           for name, f in ALGORITHMS.items()}
        self.tracer = tracer
        try:
            yield
        finally:
            self.fn, self.algorithms, self.tracer = saved, None, None

    def peak_alloc_mib(self) -> float:
        """Largest tracemalloc peak over one op of each table kind."""
        import tracemalloc
        peak = 0
        for kind in ("blocks", "direct", "letters"):
            tracemalloc.start()
            try:
                self.run_kind(kind)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2 ** 20


WORKLOADS = {
    "signs": Signs,
    "exhaustive": Exhaustive,
}
