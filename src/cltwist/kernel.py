"""Sign kernel for products of Clifford basis blades.

Basis blades are encoded as integer bitmasks: bit k-1 set means the
generator e_k is a factor, so the scalar blade is 0, e_1 is 1 and
e_{134} is 0b1101 = 13.  Blade masks form a group under XOR, and the
product of two basis blades is

    i_p * i_q = twist(p, q, mu) * i_(p XOR q)

where mu (+1 or -1) is the common square of the generators and the
twist is a sign.  Four independent algorithms compute that sign:

* :func:`twist_oracle`    insertion-sorts the joined generator lists by
                           adjacent swaps, then cancels equal neighbours
                           in one pass (ground truth)
* :func:`twist_recursive` strips one low bit pair per step
* :func:`twist_tree`      walks the twist tree over bit pairs, high bit
                           first, by the rule table of the block
                           substitution
* :func:`twist_closed`    popcount formula; the fastest, and the default

They are checked against each other exhaustively by the self-test and
acceptance suites up to 12 bits.  At every 64-bit pair, two tests
prove the tree and closed forms: ``test_tree_transitions`` checks the
8 entries of the rule table ``_RULE`` against the rule they encode, at
both mu, which proves :func:`twist_tree` by induction on the bits
read, and ``test_closed_every_fold_stage`` checks :func:`twist_closed`
on every pair of generators, which fixes it everywhere because the
closed form is GF(2)-bilinear by construction (a parity fold, AND and
a popcount parity).  ``_RULE`` is the paper's block substitution, one
symbolic table that :mod:`cltwist.tables` grows its block tables by,
and ``_VALUE`` the value of a symbolic code at each mu; both are
written only here.  Everything here is a pure function on Python ints,
and this module never imports numpy.  Each algorithm also has a plane
form, following the same method on bit planes, Python ints with one bit
per blade pair of a whole grid, in the private :mod:`cltwist._batch`;
the self-test uses those for the built-in functions, while
``ALGORITHMS`` and the acceptance suites stay scalar.

Mask contract: blades are plain ints in ``[0, 2**64)``, one bit per
generator e_1 through e_64.  Every function that takes a blade pair
raises :class:`TypeError` for a mask that is not an int (a bool or a
numpy integer included) and :class:`ValueError` for an int that is
negative or 2**64 or above.  ``mu`` is likewise a plain int, +1 or
-1; anything else, even a value equal to one of them (a float, a
complex, a bool or a numpy scalar), raises :class:`ValueError`.  Widths
are plain ints too.  The other layers check their input with the same
helpers, so each rule and its message is written once, here.
"""

from typing import Callable, Dict, List, NamedTuple, Tuple

__all__ = [
    "ALGORITHMS",
    "MAX_DIM",
    "TraceStep",
    "blade_product",
    "grade",
    "grade_sign",
    "tree_trace",
    "twist",
    "twist_closed",
    "twist_oracle",
    "twist_recursive",
    "twist_tree",
]

#: Largest width of a twist table or an exhaustive self-test: 4**12
#: table entries is the in-memory ceiling.  It lives here, away from
#: numpy, with the width check :func:`_check_dim`;
#: :mod:`cltwist.tables` re-exports it.
MAX_DIM = 12

#: Width of the self-test when none is given (``run_selftest``,
#: ``cltwist selftest``).
DEFAULT_N = 8

#: Size of the ``cltwist bench`` workload when none is given
#: (``bench.run_bench``, ``cltwist bench --pairs``).  It lives here
#: with ``DEFAULT_N``, so that the CLI parser needs only this module.
DEFAULT_PAIRS = 20_000


#: Width of a blade mask: one bit per generator e_1 through e_64.
MASK_BITS = 64


def _check_mu(mu: int) -> None:
    if type(mu) is not int or mu != 1 and mu != -1:
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")


def _check_masks(p: int, q: int, bits: int = MASK_BITS) -> None:
    # Exactly int: a float, a bool or a numpy integer is turned away.
    if type(p) is not int or type(q) is not int:
        raise TypeError(
            f"blade masks must be ints in [0, 2**{bits}), got p={p!r}, q={q!r}"
        )
    # A negative int shifts down to -1, so one test covers both ends.
    if (p | q) >> bits:
        raise ValueError(
            f"blade masks must be in [0, 2**{bits}), got p={p:#x}, q={q:#x}"
        )


def _check_dim(n: int, low: int = 1) -> None:
    """Table and self-test width: an int in ``low..MAX_DIM``."""
    if type(n) is not int or not low <= n <= MAX_DIM:
        raise ValueError(
            f"dimension must be an integer of at least {low} and at most"
            f" {MAX_DIM}, got {n!r}"
        )


def grade(p: int) -> int:
    """Number of generator factors of blade ``p``, i.e. its popcount."""
    _check_masks(p, 0)
    return p.bit_count()


def grade_sign(p: int) -> int:
    """+1 for even-grade blades, -1 for odd.

    This is the sign picked up when one generator anticommutes past
    every factor of ``p``.
    """
    _check_masks(p, 0)
    return -1 if p.bit_count() & 1 else 1


def _generators(p: int) -> List[int]:
    """Ascending 0-based generator positions of a blade mask."""
    return [k for k in range(p.bit_length()) if (p >> k) & 1]


def twist_oracle(p: int, q: int, mu: int) -> int:
    """Product sign computed the long way, straight from the axioms.

    Factors both blades into ascending generator lists, concatenates
    them and insertion-sorts back to ascending order: each generator
    moves left by adjacent swaps, and each swap is one anticommutation
    and flips the sign, so the swaps are the inversions of the joined
    list.  One pass over adjacent pairs then cancels equal neighbours
    (each is one generator square, a factor of mu).  Quadratic in the
    grades; this is the reference the fast kernels are validated
    against, not something to call in a loop.
    """
    _check_mu(mu)
    _check_masks(p, q)
    seq = _generators(p) + _generators(q)
    sign = 1
    for i in range(1, len(seq)):
        while i and seq[i - 1] > seq[i]:
            seq[i - 1], seq[i] = seq[i], seq[i - 1]
            sign = -sign
            i -= 1
    # each generator is at most twice in seq, so equal pairs never overlap
    for a, b in zip(seq, seq[1:]):
        if a == b and mu < 0:  # e_k * e_k = mu
            sign = -sign
    return sign


def twist_recursive(p: int, q: int, mu: int) -> int:
    """Product sign by stripping one low bit pair per step.

    One step maps (2u+a, 2v+b) down to (u, v); the step factor is 1
    when b = 0, grade_sign(u) when b = 1, times mu when additionally
    a = 1.  Terminates when both masks reach zero.
    """
    _check_mu(mu)
    _check_masks(p, q)
    sign = 1
    while p | q:
        a = p & 1
        b = q & 1
        p >>= 1
        q >>= 1
        if b:
            if p.bit_count() & 1:
                sign = -sign
            if a and mu < 0:
                sign = -sign
    return sign


#: Value of each symbolic code once mu is fixed: ``_VALUE[mu][code]``.
#: A code is a sign times a power of mu, bit 0 the negation and bit 1
#: the power (mu**2 = 1), so the codes multiply by XOR.
_VALUE = {1: (1, -1, 1, -1), -1: (1, -1, -1, 1)}

# The twist tree and the block substitution are one rule on the signed
# letters: each letter is rewritten into a 2x2 block of coefficiented
# letters,
#
#     c*A  ->  [[cA,  cA], [cB,  mcB]]
#     c*B  ->  [[cB, -cB], [cA, -mcA]]
#
# and the block's cell (p_bit, q_bit) is the tree's branch for that bit
# pair.  Entry ``letter << 2 | p_bit << 1 | q_bit`` (A is 0, B is 1) is
# the (next letter, code) of that cell, for c = 1; the letter is the
# parity of the p bits read.  ``twist_tree`` walks it, high bit first,
# and ``tables._block_rounds`` grows every cell by it.
_RULE = (
    (0, 0), (0, 0), (1, 0), (1, 2),  # A: 00 01 10 11
    (1, 0), (1, 1), (0, 0), (0, 3),  # B: 00 01 10 11
)


class TraceStep(NamedTuple):
    """One automaton transition: the state reached after consuming the
    bit pair (bit_p, bit_q)."""

    letter: str  # "A" or "B"
    sign: int  # cumulative sign at this node, +1 or -1
    bit_p: int
    bit_q: int

    @property
    def state(self) -> str:
        """The signed node name, e.g. ``"-B"``."""
        return ("-" if self.sign < 0 else "") + self.letter


def twist_tree(p: int, q: int, mu: int) -> int:
    """Product sign by walking the twist tree, highest bit pair first.

    The shorter mask is zero padded on the left so both bit strings
    have equal length.  The walk starts at +A; only the sign of the
    final state matters.
    """
    _check_mu(mu)
    _check_masks(p, q)
    letter = code = 0
    # the index letter << 2 | p_bit << 1 | q_bit, spelled with + and *:
    # CPython specialises int + and *, not shifts and ORs
    for k in range(max(p.bit_length(), q.bit_length()) - 1, -1, -1):
        letter, c = _RULE[letter * 4 + ((p >> k) & 1) * 2 + ((q >> k) & 1)]
        code ^= c
    return _VALUE[mu][code]


def tree_trace(p: int, q: int, mu: int) -> List[TraceStep]:
    """Full tree walk for ``twist_tree``, one step per bit pair.

    Returns the empty list for p = q = 0 (nothing to consume; the sign
    is +1).  The last step's state decides the sign.
    """
    _check_mu(mu)
    _check_masks(p, q)
    value = _VALUE[mu]
    letter = code = 0
    steps: List[TraceStep] = []
    for k in range(max(p.bit_length(), q.bit_length()) - 1, -1, -1):
        a = (p >> k) & 1
        b = (q >> k) & 1
        letter, c = _RULE[letter * 4 + a * 2 + b]
        code ^= c
        steps.append(TraceStep("AB"[letter], value[code], a, b))
    return steps


def _parity_above(p: int) -> int:
    """Mask whose bit k is the parity of the bits of ``p`` above k.

    A parallel-prefix XOR (Warren, *Hacker's Delight*) on a Python int:
    six folds reach across all 64 bits, so the cost does not depend on
    how wide ``p`` is.  A wider mask would come out wrong, hence the
    mask contract.  :func:`twist_closed` and the plane form
    ``_batch.closed_parity`` are its only callers.
    """
    x = p >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    x ^= x >> 32
    return x


def twist_closed(p: int, q: int, mu: int) -> int:
    """Product sign in closed form.

    The reordering sign is (-1)**inversions, an inversion being a
    generator pair (i in p, k in q) with i above k (Dorst, Fontijne &
    Mann, *Geometric Algebra for Computer Science*); the cancellation
    factor is mu**popcount(p & q).  Bit k of ``_parity_above(p)`` is the
    parity of the generators of p above k, so the inversion parity is
    the popcount of that mask against q.  When mu < 0, XOR-ing p into
    the mask adds the shared generators to the same popcount: a fixed
    number of shifts and one popcount for any 64-bit masks, and no
    loop.
    """
    _check_mu(mu)
    _check_masks(p, q)
    x = _parity_above(p)
    if mu < 0:
        x ^= p
    return -1 if (x & q).bit_count() & 1 else 1


#: The identity each kind of bilinearity failure breaks, as the
#: self-test's report and the ``TwistTable`` constructor spell it.
_LINEAR_IN = {
    "linear-p": "s(p^e_k,q) != s(p,q)*s(e_k,q)",
    "linear-q": "s(p,q^e_k) != s(p,q)*s(p,e_k)",
}


def _failing_identity(p: int, q: int) -> tuple:
    """The identity of ``_LINEAR_IN`` that fails at (p, q), the first
    cell, in row-major order, where a table differs from the bilinear
    form of its own generator entries: ``(kind, (p', k, q'))``, with
    generator e_k the mask ``1 << (k - 1)``.

    Every earlier cell matches the bilinear form, so the identity
    through (p, q) whose other cells are all earlier fails, named by
    the lowest bit: for p of two or more bits, linear-p at
    (p ^ e_k, k, q), with rows p ^ e_k and e_k both earlier; for p = 0,
    linear-p at (0, 1, q); for a generator p, linear-q at (p, 1, 0) if
    q = 0, else at (p, i, q ^ e_i), with both columns earlier (a
    generator cell rebuilds by construction).
    """
    if p & (p - 1):
        e = p & -p
        return "linear-p", (p ^ e, e.bit_length(), q)
    if p == 0:
        return "linear-p", (0, 1, q)
    e = q & -q
    return "linear-q", (p, 1, 0) if q == 0 else (p, e.bit_length(), q ^ e)


#: Default sign kernel (the fastest validated one).
twist = twist_closed


def blade_product(p: int, q: int, mu: int) -> Tuple[int, int]:
    """Product of two basis blades: (sign, p XOR q).

    ``i_p * i_q == sign * i_(p XOR q)``.
    """
    return twist_closed(p, q, mu), p ^ q


#: The four sign algorithms keyed by their CLI names, in canonical order.
ALGORITHMS: Dict[str, Callable[[int, int, int], int]] = {
    "oracle": twist_oracle,
    "recursive": twist_recursive,
    "tree": twist_tree,
    "closed": twist_closed,
}
