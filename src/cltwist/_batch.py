"""Array forms of the four sign algorithms, for whole grids of blade pairs.

Each form takes broadcastable ``uint64`` arrays of masks ``p`` and
``q``, the generator square ``mu`` and a ``width`` (every mask is below
``2**width``), and returns the sign parity as ``uint8``: 0 where the
scalar algorithm gives +1, 1 where it gives -1.  Each one follows its
own scalar algorithm's method, so agreement between them is still a
cross-check:

* :func:`oracle_parity`    counts the inversion pairs one by one
* :func:`recursive_parity` strips one low bit pair per step
* :func:`tree_parity`      steps the twist-tree automaton, high bit first
* :func:`closed_parity`    the parallel-prefix popcount formula

The tree form takes three bit pairs per table lookup: its 256-entry
table composes three steps of ``kernel._FLAT_TREES``, the automaton
``twist_tree`` walks, and is built from that alone, so the form stays
independent of the other three.

:data:`ARRAY_FORMS` maps each scalar function in
:data:`cltwist.kernel.ALGORITHMS` to its form.  A caller holding some
other function (a wrapped or a deliberately faulty one) finds nothing
there and must call it pair by pair.  Nothing here checks its input:
the callers build the masks themselves.
"""

from __future__ import annotations

import numpy as np

from . import kernel


def _zeros(p, q) -> np.ndarray:
    return np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q)), np.uint8)


def _bits(x, width):
    """Bit k of every mask of ``x`` as a uint8 array, for k below width."""
    return [((x >> k) & 1).astype(np.uint8) for k in range(width)]


def oracle_parity(p, q, mu, width):
    """Parity of the inversion pairs (i in p, j in q, i > j), one pair
    of generator positions per step, plus the shared generators when
    mu < 0: O(width**2) array steps, straight from the definition."""
    p_bits, q_bits = _bits(p, width), _bits(q, width)
    parity = _zeros(p, q)
    pair = np.empty_like(parity)
    for i in range(width):
        # j == i is a shared generator: a factor mu, not an inversion
        for j in range(i + (mu < 0)):
            np.bitwise_and(p_bits[i], q_bits[j], out=pair)
            parity ^= pair
    return parity


def recursive_parity(p, q, mu, width):
    """Strip the low bit pair (a, b) of (p, q) ``width`` times.  A set
    b passes every generator left in p, and also squares to mu when a
    is set too."""
    parity = _zeros(p, q)
    step = np.empty_like(parity)
    for _ in range(width):
        a = (p & 1).astype(np.uint8)
        b = (q & 1).astype(np.uint8)
        p = p >> 1
        q = q >> 1
        flip = np.bitwise_count(p) & 1
        if mu < 0:
            flip ^= a
        np.bitwise_and(b, flip, out=step)
        parity ^= step
    return parity


def _tree_steps(flat) -> np.ndarray:
    """Three steps of ``kernel._FLAT_TREES[mu]`` as one lookup on a
    uint8 state.

    The state is ``neg << 1 | letter``, the running sign's parity and
    the automaton's letter.  The index puts three bit pairs above it,
    ``p_bits << 5 | q_bits << 2 | state``, where ``p_bits`` and
    ``q_bits`` hold the pairs' bits of p and q, highest first; the
    entry is the state after stepping through the three pairs in that
    order.
    """
    steps = np.empty(256, np.uint8)
    for index in range(256):
        neg, letter = index >> 1 & 1, index & 1
        for k in (2, 1, 0):
            pair = (index >> (5 + k) & 1) << 1 | (index >> (2 + k) & 1)
            letter, sign = flat[letter << 2 | pair]
            neg ^= sign < 0
        steps[index] = neg << 1 | letter
    return steps


_TREE_STEPS = {
    mu: _tree_steps(flat) for mu, flat in kernel._FLAT_TREES.items()
}


def tree_parity(p, q, mu, width):
    """Walk the twist tree from +A over the bit pairs, highest first,
    three pairs per lookup; the sign parity is the final state's
    negation bit.  The walk starts at the multiple of 3 at or above
    ``width``: the zero pairs it adds on top leave +A as it is, at
    either mu."""
    steps = _TREE_STEPS[mu]
    state = _zeros(p, q)
    for k in range(-(-width // 3) * 3 - 3, -1, -3):
        state |= ((p >> k) & 7).astype(np.uint8) << 5
        state |= ((q >> k) & 7).astype(np.uint8) << 2
        np.take(steps, state, out=state, mode="clip")
    return state >> 1


def closed_parity(p, q, mu, width):
    """Popcount of ``_parity_above(p) & q``, plus ``p & q`` when mu < 0.
    It reaches across all 64 bits whatever the width."""
    x = kernel._parity_above(p) & q
    if mu < 0:
        x ^= p & q
    return np.bitwise_count(x) & 1


#: Array form of each scalar algorithm, keyed by the function object.
ARRAY_FORMS = {
    kernel.twist_oracle: oracle_parity,
    kernel.twist_recursive: recursive_parity,
    kernel.twist_tree: tree_parity,
    kernel.twist_closed: closed_parity,
}
