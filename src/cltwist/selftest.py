"""Built-in consistency suites for the sign kernel.

Two suites run back to back:

* four-way agreement: every registered sign algorithm is evaluated on
  every pair (p, q) below 2**n and the results must coincide;
* cocycle: the signs gathered from the closed-form algorithm (the
  map's first, if it has none) must satisfy
  s(p,q)*s(p^q,r) == s(q,r)*s(p,q^r) for every triple, which is
  associativity of the blade product.

Both run at mu = +1 and mu = -1, over the grid of pairs in blocks of
``tables._CHUNK_ROWS`` rows, so working memory does not grow with the
table.  A built-in algorithm is evaluated a whole block at a time
through its array form (:mod:`cltwist._batch`); any other function in
the algorithm map is called pair by pair.  The map is a parameter so
a harness can inject a faulty implementation and watch the suite
catch it.

At every width the cocycle suite checks a bilinearity certificate,
2*n*4**n identities:

    s(p^e_k, q) == s(p, q) * s(e_k, q)   and
    s(p, q^e_k) == s(p, q) * s(p, e_k)

for every p, q and generator e_k.  A table that passes is a
bimultiplicative form, and a bimultiplicative form satisfies the
cocycle identity on every triple (the twisted group algebra view of
Albuquerque & Majid), so the certificate covers all 8**n triples.  It
is stricter than a search over the triples: a cocycle that is not
bilinear fails it.

Both suites work on sign parities, 1 where s is negative: {+1, -1}
under multiplication is Z/2 under XOR, so every comparison is an XOR
of parities, and bimultiplicative means GF(2)-bilinear.  The array
forms return parities; only a function called pair by pair returns
values, and each of those is coded once, as its sign parity plus 2
if it is not a sign, so the pairs suite compares every algorithm's
codes with one table of parities alike and reports a value that is
not a sign exactly as returned.  A parity table passes every
identity exactly when it is the bilinear form of its n*n generator
entries s(e_j, e_i).  So the certificate first rebuilds the table from
them and compares, with ``tables._rebuilds``: the XOR row doublings
``tables.table_direct`` uses, and the same test the ``TwistTable``
constructor puts to a caller's codes.  Only a table that does not
rebuild goes to the per-k scan of the identities, which names the
first failing (p, k, q), followed by the first violating triple among
the rows involved, if they hold one.
Each reported line ends with the ``cltwist sign`` calls that rerun it.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kernel
from ._batch import ARRAY_FORMS
from ._record import Record
from .tables import _rebuilds, _row_blocks

__all__ = ["Mismatch", "SelftestReport", "run_selftest"]

#: The identity each certificate kind checks, as ``describe`` spells it.
_LINEAR_IN = {
    "linear-p": "s(p^e_k,q) != s(p,q)*s(e_k,q)",
    "linear-q": "s(p,q^e_k) != s(p,q)*s(p,e_k)",
}


def _signed(value) -> str:
    """``value`` with its sign, as ``f"{value:+}"``; its repr where its
    type takes no sign in a format, or warns when given one (numpy's
    masked constant).  A repr of several lines, such as a 2-d array's,
    is joined into one."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return f"{value:+}"
    except (TypeError, ValueError, Warning):
        return " ".join(line.strip() for line in repr(value).splitlines())


class Mismatch(Record):
    """First failing case of a suite, with everything needed to rerun it.

    ``kind`` is "pairs" (indices (p, q)), "triples" (p, q, r), or one
    of the certificate's "linear-p" and "linear-q" (p, k, q), where
    generator e_k is the mask ``1 << (k - 1)``.
    """

    kind: str
    mu: int
    indices: Tuple[int, ...]
    # per-algorithm values for the pairs suite: +-1 for an array form,
    # else exactly what the function returned
    signs: Dict[str, object]
    _algo: str = "closed"  # whose table the cocycle and certificate check

    def describe(self) -> str:
        """One line naming the failure, ending in the ``cltwist sign``
        calls that rerun it (none for algorithms the CLI does not
        know)."""
        names = ("p", "k", "q") if self.kind in _LINEAR_IN else ("p", "q", "r")
        idx = " ".join(
            f"{name}={value}" for name, value in zip(names, self.indices)
        )
        if self.kind == "pairs":
            algs = " ".join(
                f"{name}={_signed(sign)}" for name, sign in self.signs.items()
            )
            text = f"mismatch: {idx} mu={self.mu:+d} {algs}"
        elif self.kind == "triples":
            text = f"cocycle violation: {idx} mu={self.mu:+d}"
        else:
            text = (
                f"bilinearity violation: {_LINEAR_IN[self.kind]} at {idx}"
                f" mu={self.mu:+d}"
            )
        calls = "; ".join(
            f"cltwist sign {p} {q} --algo {algo} --mu {self.mu:+d}"
            for p, q, algo in self._rerun()
        )
        return f"{text} rerun: {calls}" if calls else text

    def _rerun(self) -> List[Tuple[int, int, str]]:
        """(p, q, algorithm) of each sign call that reproduces the
        failure.  The cocycle and the certificate check the table of
        one algorithm, ``_algo``, so their calls use it."""
        if self.kind == "pairs":
            p, q = self.indices
            known = [name for name in self.signs if name in kernel.ALGORITHMS]
            return [(p, q, name) for name in known]
        if self._algo not in kernel.ALGORITHMS:
            return []
        if self.kind == "triples":
            p, q, r = self.indices
            pairs = [(p, q), (p ^ q, r), (q, r), (p, q ^ r)]
        else:
            p, k, q = self.indices
            e = 1 << (k - 1)
            if self.kind == "linear-p":
                pairs = [(p ^ e, q), (p, q), (e, q)]
            else:
                pairs = [(p, q ^ e), (p, q), (p, e)]
        return [(a, b, self._algo) for a, b in pairs]


class SelftestReport(Record):
    """Outcome of :func:`run_selftest`.  ``triple_count`` counts the
    triples the cocycle suite covers through the bilinearity
    certificate."""

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


def _block(f, p: np.ndarray, q: np.ndarray, mu: int, n: int):
    """``f`` on the grid ``p`` (a column) by ``q`` (a row), as uint8
    codes (see :func:`_code`) and the values themselves.

    An array form gives its sign parities as they come, codes 0 and 1,
    and no values.  Any other function is called once per pair, in
    row-major order, on plain int masks; its values come back in an
    object array, each one exactly as returned, and each is coded once.
    """
    form = ARRAY_FORMS.get(f)
    if form is not None:
        return form(p, q, mu, n), None
    values = np.frompyfunc(f, 3, 1)(p, q, mu)
    with np.errstate(invalid="ignore"):  # a NaN has no sign bit
        return np.frompyfunc(_code, 1, 1)(values).astype(np.uint8), values


def _code(value) -> int:
    """The sign parity of ``value``, its sign bit (0 where ``value < 0``
    cannot be decided), plus 2 unless ``value`` equals the sign that
    bit gives.  So only values equal to +1 and -1 code as 0 and 1; an
    array of more than one element or of none, whose comparisons have
    no single truth value, codes as 2."""
    try:
        bit = bool(value < 0)
    except (TypeError, ValueError):
        bit = False
    try:
        return bit + 2 * (not value == (-1 if bit else 1))
    except (TypeError, ValueError):
        return bit + 2


def _pairs_suite(
    n: int, mu: int, algorithms, kept: str
) -> Tuple[Optional[Mismatch], np.ndarray]:
    """Exhaustive four-way agreement below 2**n.

    Returns the first mismatch in row-major order (or None) and the
    parity table of the algorithm ``kept`` (its codes' low bit), reused
    by the bilinearity certificate so an injected fault in it
    propagates there too.  A cell mismatches where some algorithm's
    code differs from that parity: its parity differs, or it returned
    a value that is not a sign.
    """
    size = 1 << n
    table = np.empty((size, size), dtype=np.uint8)
    masks = np.arange(size, dtype=np.uint64)
    q = masks[None, :]
    first = None
    for rows in _row_blocks(size):
        p = masks[rows, None]
        blocks = {
            name: _block(f, p, q, mu, n) for name, f in algorithms.items()
        }
        ref = table[rows] = blocks[kept][0] & 1
        if first is None:
            bad = np.zeros(ref.shape, dtype=bool)
            for codes, _ in blocks.values():
                bad |= codes != ref
            if bad.any():
                i, j = divmod(int(bad.argmax()), size)
                signs = {name: 1 - 2 * codes.item(i, j) if values is None
                         else values[i, j]
                         for name, (codes, values) in blocks.items()}
                first = Mismatch("pairs", mu, (rows.start + i, j), signs)
    return first, table


def _cocycle_suite(
    table: np.ndarray, mu: int, ps, algo: str
) -> Optional[Mismatch]:
    """First triple (p, q, r) in row-major order whose cocycle identity
    fails in the parity table of algorithm ``algo``, with p in the
    ascending ``ps``; the certificate's reporter.  The q axis is walked
    in row blocks, each with its own grid of q^r."""
    size = table.shape[0]
    idx = np.arange(size)
    for p in ps:
        for rows in _row_blocks(size):
            q = idx[rows]
            # s(p,q)*s(p^q,r) vs s(q,r)*s(p,q^r) for q in block, all r
            lhs = table[p, rows, None] ^ table[p ^ q]
            bad = lhs != (table[rows] ^ table[p][q[:, None] ^ idx])
            if bad.any():
                i, r = divmod(int(bad.argmax()), size)
                indices = (p, rows.start + i, r)
                return Mismatch("triples", mu, indices, {}, algo)
    return None


def _bilinear_scan(table: np.ndarray, mu: int, algo: str) -> List[Mismatch]:
    """Check each (p, k, q) identity of the certificate on the parity
    table of algorithm ``algo``, in row blocks.

    Returns no mismatch, or the first failing (p, k, q) followed by the
    first cocycle violation among the rows its identity involves (none
    if those rows hold none).
    """
    size = table.shape[0]
    idx = np.arange(size)
    for rows in _row_blocks(size):
        block = table[rows]
        m = block.shape[0]
        for k in range(size.bit_length() - 1):
            e = 1 << k
            # linear in p: s(p^e_k, q) == s(p, q) * s(e_k, q)
            in_p = table[idx[rows] ^ e] != block ^ table[e]
            # linear in q: s(p, q^e_k) == s(p, q) * s(p, e_k); the 4-d
            # view pairs each column with its partner q^e_k
            v = block.reshape(m, -1, 2, e)
            in_q = v[:, :, ::-1] != v ^ block[:, e].reshape(m, 1, 1, 1)
            for kind, bad in (("linear-p", in_p), ("linear-q", in_q)):
                if bad.any():
                    i, q = divmod(int(bad.argmax()), size)
                    p = rows.start + i
                    involved = {p, p ^ e, e} if kind == "linear-p" else {p}
                    found = [Mismatch(kind, mu, (p, k + 1, q), {}, algo)]
                    triple = _cocycle_suite(table, mu, sorted(involved), algo)
                    return found if triple is None else found + [triple]
    return []


def run_selftest(n: int = kernel.DEFAULT_N, algorithms=None) -> SelftestReport:
    """Run both suites at width ``n`` (all masks below 2**n), both mu."""
    kernel._check_dim(n)
    if algorithms is None:
        algorithms = kernel.ALGORITHMS
    elif not algorithms:
        raise ValueError("algorithms must name at least one sign function")
    size = 1 << n
    # the cocycle suite checks the closed form's table, if it is there
    kept = "closed" if "closed" in algorithms else next(iter(algorithms))
    mismatches: List[Mismatch] = []
    for mu in (1, -1):
        pair_miss, table = _pairs_suite(n, mu, algorithms, kept)
        if pair_miss is not None:
            mismatches.append(pair_miss)
        if not _rebuilds(table):
            mismatches += _bilinear_scan(table, mu, kept)
    return SelftestReport(
        n=n,
        pair_count=size * size,
        triple_count=size ** 3,
        algorithm_count=len(algorithms),
        mismatches=tuple(mismatches),
    )
