"""Built-in consistency suites for the sign kernel.

Two suites run back to back:

* four-way agreement: every registered sign algorithm is evaluated on
  every pair (p, q) below 2**n and the results must coincide;
* cocycle: the signs gathered from the closed-form algorithm (the
  map's first, if it has none) must satisfy
  s(p,q)*s(p^q,r) == s(q,r)*s(p,q^r) for every triple, which is
  associativity of the blade product.

Both run at mu = +1 and mu = -1, on bit planes (:mod:`cltwist._batch`):
one Python int holds a Boolean value for every pair (p, q) below 2**n,
at bit ``p * 2**n + q``, so one AND or XOR of two planes is one step
on the whole grid, and the suites never load numpy.  A built-in
algorithm gives its plane through its plane form; any other function
in the algorithm map is called pair by pair, and only one row of its
values is held at a time.  The map is a parameter so a harness can
inject a faulty implementation and watch the suite catch it.

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
of parities, and bimultiplicative means GF(2)-bilinear.  The plane
forms return parities; only a function called pair by pair returns
values, and each of those is coded once, as its sign parity plus 2
if it is not a sign, into two planes, so the pairs suite compares
every algorithm's codes with one plane of parities alike and reports
a value that is not a sign exactly as returned.  A parity plane
passes every identity exactly when it is the bilinear form of its n*n
generator entries s(e_j, e_i).  So the certificate rebuilds the plane
from them and compares, with ``_batch.first_difference``; the
``TwistTable`` constructor does the same to a caller's int8 codes,
rebuilding them as its own module builds a direct table
(``tables._generator_rows``, then ``tables._doubled``).  A plane
that does not rebuild names the identity that fails at its first
difference, a (p, k, q), followed by the first violating triple among
the rows involved, if they hold one; one function,
``kernel._failing_identity``, turns a first difference into that
identity for both formats.
Each reported line ends with the ``cltwist sign`` calls that rerun it.
"""

import warnings
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

from . import kernel
from ._batch import (
    PLANE_FORMS, Grid, first_difference, first_set, joined, row_patterns,
    split,
)
from ._record import Record

__all__ = ["Mismatch", "SelftestReport", "run_selftest"]


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
    # per-algorithm values for the pairs suite: +-1 for a plane form,
    # else exactly what the function returned
    signs: Dict[str, object]
    _algo: str = "closed"  # whose table the cocycle and certificate check

    def describe(self) -> str:
        """One line naming the failure, ending in the ``cltwist sign``
        calls that rerun it (none for algorithms the CLI does not
        know)."""
        identity = kernel._LINEAR_IN.get(self.kind)
        names = ("p", "q", "r") if identity is None else ("p", "k", "q")
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
                f"bilinearity violation: {identity} at {idx}"
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


#: The digits of a row of codes (see :func:`_code`), one byte each,
#: highest q first: its sign parities, and where it is not a sign.
_PARITY_DIGITS = bytes.maketrans(b"\0\1\2\3", b"0101")
_NOT_SIGN_DIGITS = bytes.maketrans(b"\0\1\2\3", b"0011")


def _called_planes(grid: Grid, mu: int, called, planes, kept: str):
    """Call each function of ``called`` once per pair, in row-major
    order, on plain int masks, and add its two planes to ``planes``:
    the parity of each value's code, and where it is not a sign.

    Only the current row's values are held, until the first row where
    some algorithm's code differs from the parity of ``kept``'s; that
    row's values are returned, by name, for the report (an empty map if
    no row differs).  The rows of the planes already in ``planes`` are
    read alongside, to tell.
    """
    n = grid.n
    masks = range(1 << n)
    formed = list(planes)
    rows = {name: ([], []) for name in called}
    held = None
    for p, *formed_rows in zip(masks, *(split(planes[name][0], n)
                                        for name in formed)):
        values = {name: [f(p, q, mu) for q in masks]
                  for name, f in called.items()}
        codes = {name: (row, 0) for name, row in zip(formed, formed_rows)}
        for name, row_values in values.items():
            digits = bytes(map(_code, reversed(row_values)))
            codes[name] = (int(digits.translate(_PARITY_DIGITS), 2),
                           int(digits.translate(_NOT_SIGN_DIGITS), 2))
            for plane_rows, row in zip(rows[name], codes[name]):
                plane_rows.append(row)
        if held is None:
            ref = codes[kept][0]
            if any((parity ^ ref) | not_sign
                   for parity, not_sign in codes.values()):
                held = values
    for name, (parities, not_signs) in rows.items():
        planes[name] = (joined(parities, n), joined(not_signs, n))
    return held or {}


def _pairs_suite(
    grid: Grid, mu: int, algorithms, forms, kept: str
) -> Tuple[Optional[Mismatch], int]:
    """Exhaustive four-way agreement below 2**n.

    ``forms`` maps the ``id`` of each scalar function that has a plane
    form to that form; every other algorithm is called pair by pair.
    Returns the first mismatch in row-major order (or None) and the
    parity plane of the algorithm ``kept`` (its codes' low bit), reused
    by the bilinearity certificate so an injected fault in it
    propagates there too.  A cell mismatches where some algorithm's
    code differs from that parity: its parity differs, or it returned
    a value that is not a sign.  The first one is the lowest set bit of
    the OR of the difference planes.
    """
    planes = {}
    called = {}
    for name, f in algorithms.items():
        form = forms.get(id(f))
        if form is None:
            called[name] = f
        else:
            planes[name] = (form(grid, mu), 0)
    values = _called_planes(grid, mu, called, planes, kept) if called else {}
    ref = planes[kept][0]
    differ = 0
    for parity, not_sign in planes.values():
        differ |= (parity ^ ref) | not_sign
    cell = first_set(differ, grid.n)
    if cell is None:
        return None, ref
    p, q = cell
    bit = p << grid.n | q
    signs = {name: values[name][q] if name in values
             else 1 - 2 * (planes[name][0] >> bit & 1)
             for name in algorithms}
    return Mismatch("pairs", mu, cell, signs), ref


def _cocycle_suite(
    table: int, n: int, mu: int, ps, algo: str
) -> Optional[Mismatch]:
    """First triple (p, q, r) in row-major order whose cocycle identity
    fails in the parity plane of width n of algorithm ``algo``, with p
    in the ascending ``ps``; the certificate's reporter.  Each (p, q)
    checks every r at once, on rows."""
    rows = split(table, n)
    ones = (1 << (1 << n)) - 1
    for p in ps:
        # shifted[q] is row p with bit q ^ r at r: s(p, q^r)
        shifted = [rows[p]]
        for j, pattern in enumerate(row_patterns(n)):
            e = 1 << j
            shifted += [(x & pattern) >> e | (x << e & pattern)
                        for x in shifted]
        for q, row in enumerate(rows):
            # s(p,q)*s(p^q,r) vs s(q,r)*s(p,q^r), for every r at once
            lhs = rows[p ^ q] ^ (ones if rows[p] >> q & 1 else 0)
            bad = lhs ^ row ^ shifted[q]
            if bad:
                r = (bad & -bad).bit_length() - 1
                return Mismatch("triples", mu, (p, q, r), {}, algo)
    return None


def _certificate(table: int, n: int, mu: int, algo: str) -> List[Mismatch]:
    """The bilinearity certificate on the parity plane of width n of
    algorithm ``algo``.

    Returns no mismatch if the table rebuilds from its generator
    entries.  Otherwise one identity through its first difference fails,
    the one ``kernel._failing_identity`` names.  The first cocycle
    violation among the rows that identity reads follows it, if those
    rows hold one.
    """
    cell = first_difference(table, n)
    if cell is None:
        return []
    kind, (p, k, q) = kernel._failing_identity(*cell)
    found = Mismatch(kind, mu, (p, k, q), {}, algo)
    e = 1 << (k - 1)
    involved = {p, e, p ^ e} if kind == "linear-p" else {p}
    triple = _cocycle_suite(table, n, mu, sorted(involved), algo)
    return [found] if triple is None else [found, triple]


def run_selftest(n: int = kernel.DEFAULT_N, algorithms=None) -> SelftestReport:
    """Run both suites at width ``n`` (all masks below 2**n), both mu."""
    kernel._check_dim(n)
    if algorithms is None:
        algorithms = kernel.ALGORITHMS
    elif not isinstance(algorithms, Mapping):
        raise TypeError(
            "algorithms must be a mapping of names to sign functions,"
            f" got {type(algorithms).__name__}"
        )
    elif not algorithms:
        raise ValueError("algorithms must name at least one sign function")
    # every entry, before any suite runs: a report names each function
    # by its key, as ``--algo <name>``
    for name, func in algorithms.items():
        if type(name) is not str or not callable(func):
            raise TypeError(
                "algorithms must map str names to sign functions,"
                f" got {name!r}: {func!r}"
            )
    size = 1 << n
    # the cocycle suite checks the closed form's table, if it is there
    kept = "closed" if "closed" in algorithms else next(iter(algorithms))
    grid = Grid(n)
    # plane forms by identity: an injected callable need not be hashable
    forms = {id(g): form for g, form in PLANE_FORMS.items()}
    mismatches: List[Mismatch] = []
    for mu in (1, -1):
        pair_miss, table = _pairs_suite(grid, mu, algorithms, forms, kept)
        if pair_miss is not None:
            mismatches.append(pair_miss)
        mismatches += _certificate(table, n, mu, kept)
    return SelftestReport(
        n=n,
        pair_count=size * size,
        triple_count=size ** 3,
        algorithm_count=len(algorithms),
        mismatches=tuple(mismatches),
    )
