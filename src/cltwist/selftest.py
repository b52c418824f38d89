"""Built-in consistency suites for the sign kernel.

Two suites run back to back:

* four-way agreement: every registered sign algorithm is evaluated on
  every pair (p, q) below 2**n and the results must coincide;
* cocycle: the signs gathered from the closed-form algorithm must
  satisfy s(p,q)*s(p^q,r) == s(q,r)*s(p,q^r) for every triple, which
  is associativity of the blade product.

Both run at mu = +1 and mu = -1.  The algorithm map is a parameter so
a harness can inject a faulty implementation and watch the suite
catch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kernel

__all__ = ["Mismatch", "SelftestReport", "run_selftest"]

DEFAULT_N = 8


@dataclass(frozen=True)
class Mismatch:
    """First failing case of a suite, with everything needed to rerun it."""

    kind: str  # "pairs" or "triples"
    mu: int
    indices: Tuple[int, ...]  # (p, q) or (p, q, r)
    signs: Dict[str, int]  # per-algorithm signs for the pairs suite

    def describe(self) -> str:
        idx = " ".join(
            f"{name}={value}"
            for name, value in zip(("p", "q", "r"), self.indices)
        )
        if self.kind == "pairs":
            algs = " ".join(
                f"{name}={sign:+d}" for name, sign in self.signs.items()
            )
            return f"mismatch: {idx} mu={self.mu:+d} {algs}"
        return f"cocycle violation: {idx} mu={self.mu:+d}"


@dataclass(frozen=True)
class SelftestReport:
    n: int
    pair_count: int
    triple_count: int
    algorithm_count: int
    mismatches: Tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self) -> List[str]:
        """Human summary, one line per suite; counterexamples first."""
        out = [m.describe() for m in self.mismatches]
        if self.ok:
            out.append(
                f"ok: {self.algorithm_count}x{self.pair_count} pairs"
                f" x 2 mu, 0 mismatches"
            )
            out.append(f"ok: {self.triple_count} triples x 2 mu, 0 mismatches")
        return out


def _pairs_suite(n: int, mu: int, algorithms) -> Tuple[Optional[Mismatch], np.ndarray]:
    """Exhaustive four-way agreement below 2**n.

    Returns the first mismatch (or None) and the closed-form sign
    table, reused by the cocycle suite so an injected fault in the
    closed algorithm propagates there too.
    """
    size = 1 << n
    table = np.empty((size, size), dtype=np.int8)
    first = None
    for p in range(size):
        rows = {
            name: [f(p, q, mu) for q in range(size)]
            for name, f in algorithms.items()
        }
        ref, *others = rows.values()
        table[p] = rows.get("closed", ref)
        if first is None and any(row != ref for row in others):
            columns = enumerate(zip(*rows.values()))
            q, signs = next((q, s) for q, s in columns if len(set(s)) > 1)
            first = Mismatch("pairs", mu, (p, q), dict(zip(rows, signs)))
    return first, table


def _cocycle_suite(table: np.ndarray, mu: int) -> Optional[Mismatch]:
    """All triples over the table's index range, vectorized row by row."""
    size = table.shape[0]
    idx = np.arange(size)
    xor_grid = idx[:, None] ^ idx[None, :]  # [q, r] -> q^r
    for p in range(size):
        # s(p,q)*s(p^q,r) vs s(q,r)*s(p,q^r) for all q, r
        lhs = table[p, :, None] * table[p ^ idx, :]
        rhs = table * table[p][xor_grid]
        if not np.array_equal(lhs, rhs):
            q, r = np.argwhere(lhs != rhs)[0]
            return Mismatch("triples", mu, (p, int(q), int(r)), {})
    return None


def run_selftest(n: int = DEFAULT_N, algorithms=None) -> SelftestReport:
    """Run both suites at width ``n`` (all masks below 2**n), both mu."""
    kernel._check_dim(n)
    if algorithms is None:
        algorithms = kernel.ALGORITHMS
    elif not algorithms:
        raise ValueError("algorithms must name at least one sign function")
    size = 1 << n
    mismatches: List[Mismatch] = []
    for mu in (1, -1):
        pair_miss, table = _pairs_suite(n, mu, algorithms)
        if pair_miss is not None:
            mismatches.append(pair_miss)
        triple_miss = _cocycle_suite(table, mu)
        if triple_miss is not None:
            mismatches.append(triple_miss)
    return SelftestReport(
        n=n,
        pair_count=size * size,
        triple_count=size ** 3,
        algorithm_count=len(algorithms),
        mismatches=tuple(mismatches),
    )
