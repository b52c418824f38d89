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
* :func:`twist_tree`      4-state automaton over bit pairs, high bit first
* :func:`twist_closed`    popcount formula; the fastest, and the default

They are checked against each other exhaustively by the self-test and
acceptance suites up to 12 bits.  At every 64-bit pair, two tests
prove the tree and closed forms: ``test_tree_transitions`` checks all
16 transitions of the tree automaton against the rule they encode,
which proves :func:`twist_tree` by induction on the bits read, and
``test_closed_every_fold_stage`` checks :func:`twist_closed` on every
pair of generators, which fixes it everywhere because the closed form
is GF(2)-bilinear by construction (a parity fold, AND and a popcount
parity).  Everything here is a pure function on Python ints, and this
module never imports numpy.  Each algorithm also has a plane form,
following the same method on bit planes, Python ints with one bit per
blade pair of a whole grid, in the private :mod:`cltwist._batch`; the
self-test uses those for the built-in functions, while ``ALGORITHMS``
and the acceptance suites stay scalar.

Mask contract: blades are plain ints in ``[0, 2**64)``, one bit per
generator e_1 through e_64.  Every function that takes a blade pair
raises :class:`TypeError` for a mask that is not an int (a bool or a
numpy integer included) and :class:`ValueError` for an int that is
negative or 2**64 or above; likewise :class:`ValueError` for a ``mu``
other than +1 or -1, or a bool (Python's or numpy's).  The other
layers check their input with the same helpers, so each rule and its
message is written once, here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

__all__ = [
    "ALGORITHMS",
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


#: Width of a blade mask: one bit per generator e_1 through e_64.
MASK_BITS = 64


def _check_mu(mu: int) -> None:
    # True == 1, so a bool needs its own test; False already fails.
    # Python's bool and numpy's are both named "bool"; an int +1 or -1
    # never reaches the name test.
    if mu != -1 and (
        mu != 1 or type(mu) is not int and type(mu).__name__ == "bool"
    ):
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
    """Table and self-test width: an int in ``low..MAX_DIM``, not a bool."""
    if type(n) is bool or not isinstance(n, int) or not low <= n <= MAX_DIM:
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


# The twist tree consists of four components, one per signed letter,
# repeating indefinitely; walking it is a 4-state automaton on states
# {A, -A, B, -B}.  Consuming the bit pair (p-bit, q-bit) moves
# p-bit-th branch then q-bit-th leaf.  A negated state behaves like
# the positive one with the running sign flipped, so the tables below
# carry (next letter, sign factor).  Letter A (0) means an even number
# of p-bits consumed so far, B (1) odd.  The component shape depends
# on mu, so both automata ship and are picked at call time.
# Index: letter << 2 | p_bit << 1 | q_bit.
_FLAT_TREES = {
    1: (
        (0, 1), (0, 1), (1, 1), (1, 1),  # A: 00 01 10 11
        (1, 1), (1, -1), (0, 1), (0, -1),  # B: 00 01 10 11
    ),
    -1: (
        (0, 1), (0, 1), (1, 1), (1, -1),  # A: 00 01 10 11
        (1, 1), (1, -1), (0, 1), (0, 1),  # B: 00 01 10 11
    ),
}


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
    flat = _FLAT_TREES[mu]
    letter = 0
    sign = 1
    for k in range(max(p.bit_length(), q.bit_length()) - 1, -1, -1):
        letter, s = flat[letter << 2 | ((p >> k) & 1) << 1 | ((q >> k) & 1)]
        sign *= s
    return sign


def tree_trace(p: int, q: int, mu: int) -> List[TraceStep]:
    """Full tree walk for ``twist_tree``, one step per bit pair.

    Returns the empty list for p = q = 0 (nothing to consume; the sign
    is +1).  The last step's state decides the sign.
    """
    _check_mu(mu)
    _check_masks(p, q)
    flat = _FLAT_TREES[mu]
    letter = 0
    sign = 1
    steps: List[TraceStep] = []
    for k in range(max(p.bit_length(), q.bit_length()) - 1, -1, -1):
        a = (p >> k) & 1
        b = (q >> k) & 1
        letter, s = flat[letter << 2 | a << 1 | b]
        sign *= s
        steps.append(TraceStep("AB"[letter], sign, a, b))
    return steps


def _parity_above(p):
    """Mask whose bit k is the parity of the bits of ``p`` above k.

    A parallel-prefix XOR (Warren, *Hacker's Delight*): six folds reach
    across all 64 bits, so the cost does not depend on how wide ``p``
    is.  A wider mask would come out wrong, hence the mask contract.
    Only ``>>`` and ``^`` are used, so ``p`` may be a Python int or a
    numpy ``uint64`` array.
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
    one popcount of that mask against q: a fixed number of shifts for
    any 64-bit masks, and no loop.
    """
    _check_mu(mu)
    _check_masks(p, q)
    swaps = (_parity_above(p) & q).bit_count()
    if mu < 0:
        swaps += (p & q).bit_count()
    return -1 if swaps & 1 else 1


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
