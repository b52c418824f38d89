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


def _tree_step(flat) -> np.ndarray:
    """``kernel._FLAT_TREES[mu]`` as one lookup on a uint8 state.

    The state is ``neg << 1 | letter``, the running sign's parity and
    the automaton's letter.  The index puts the bit pair above it,
    ``p_bit << 3 | q_bit << 2 | state``, so that a step only ORs the
    pair into the state before the lookup.
    """
    step = np.empty(16, np.uint8)
    for index in range(16):
        pair, neg, letter = index >> 2, index >> 1 & 1, index & 1
        nxt, sign = flat[letter << 2 | pair]
        step[index] = (neg ^ (sign < 0)) << 1 | nxt
    return step


_TREE_STEPS = {mu: _tree_step(flat) for mu, flat in kernel._FLAT_TREES.items()}


def tree_parity(p, q, mu, width):
    """Walk the twist tree from +A over the bit pairs, highest first;
    the sign parity is the final state's negation bit."""
    step = _TREE_STEPS[mu]
    state = _zeros(p, q)
    for k in range(width - 1, -1, -1):
        state |= ((p >> k) & 1).astype(np.uint8) << 3
        state |= ((q >> k) & 1).astype(np.uint8) << 2
        np.take(step, state, out=state)
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
