"""Reference answers computed without calling cltwist.

The benchmark checks the program against these, so they are written
from the definition and share no code with the package.  The sign of
i_p * i_q is (-1)**inversions * mu**popcount(p & q), an inversion being
a generator of q that has to move left past a generator of p with a
higher index.  Here the inversions are counted per set bit of q, the
other way round from the package's closed form, which walks the bits
of p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

SUBSCRIPTS = "123456789abcdefghijklmnopqrstuvwxyz"
_SYMBOLIC = ("1", "-1", "m", "-m")


def twist_parts(p: int, q: int):
    """(inversion parity, mu power) of the product i_p * i_q."""
    inversions = 0
    rest = q
    while rest:
        low = rest & -rest
        inversions += (p >> low.bit_length()).bit_count()
        rest ^= low
    return inversions & 1, (p & q).bit_count() & 1


def sign(p: int, q: int, mu: int) -> int:
    neg, mu_power = twist_parts(p, q)
    if mu < 0:
        neg ^= mu_power
    return -1 if neg else 1


def cell(p: int, q: int, mu) -> str:
    """One twist-table entry as render_table spells it (mu None: symbolic)."""
    neg, mu_power = twist_parts(p, q)
    if mu is None:
        return _SYMBOLIC[neg | mu_power << 1]
    if mu < 0:
        neg ^= mu_power
    return "-1" if neg else "1"


def letter_cell(p: int, q: int) -> str:
    """One entry of the half-resolution block view, e.g. ``-mB``."""
    neg, mu_power = twist_parts(p, q)
    return ("-" if neg else "") + ("m" if mu_power else "") + "AB"[p.bit_count() & 1]


def table_text(n: int, mu, sep: str) -> str:
    size = 1 << n
    return "".join(
        sep.join(cell(p, q, mu) for q in range(size)) + "\n" for p in range(size)
    )


def letters_text(n: int, sep: str) -> str:
    size = 1 << (n - 1)
    return "".join(
        sep.join(letter_cell(p, q) for q in range(size)) + "\n"
        for p in range(size)
    )


def trace_lines(p: int, q: int, mu: int) -> List[str]:
    """Tree walk, highest bit pair first.

    After consuming the bit pairs above position k the walk sits where
    a walk of (p >> k, q >> k) ends: its letter is the parity of the
    p-bits consumed and its sign is the twist of the two prefixes.
    """
    lines = []
    last = 1
    for k in range(max(p.bit_length(), q.bit_length()) - 1, -1, -1):
        hp, hq = p >> k, q >> k
        last = sign(hp, hq, mu)
        state = ("-" if last < 0 else "") + "AB"[hp.bit_count() & 1]
        lines.append(f"({hp & 1},{hq & 1}) -> {state}")
    lines.append(f"clf = {last:+d}")
    return lines


def blade_text(mask: int, style: str) -> str:
    if style == "i":
        return f"i_{mask}"
    return "e_{" + "".join(
        SUBSCRIPTS[k] for k in range(mask.bit_length()) if mask >> k & 1
    ) + "}"


def product(a: Dict[int, Fraction], b: Dict[int, Fraction], mu: int):
    """Exact product of two {mask: coefficient} sums, zero terms dropped."""
    out: Dict[int, Fraction] = {}
    for p, cp in a.items():
        for q, cq in b.items():
            m = p ^ q
            out[m] = out.get(m, 0) + sign(p, q, mu) * cp * cq
    return {m: c for m, c in out.items() if c}


def format_terms(terms: Dict[int, Fraction], style: str) -> str:
    """Canonical multivector text: ascending masks, as the README prints."""
    if not terms:
        return "0"
    parts = []
    for mask in sorted(terms):
        coeff = terms[mask]
        if coeff < 0:
            parts.append("-" if not parts else " - ")
            coeff = -coeff
        elif parts:
            parts.append(" + ")
        blade = blade_text(mask, style) if mask else ""
        if coeff != 1 or not blade:
            parts.append(str(coeff) + (" " if blade else ""))
        parts.append(blade)
    return "".join(parts)


def _self_check() -> None:
    # The README's worked values; a wrong reference would fail every run.
    if sign(2636, 1143, -1) != -1:
        raise RuntimeError("reference sign disagrees with sign 2636 1143 -> -1")
    a, b = 2636, 1143  # e_347ac, e_123567b
    got = format_terms(product({a: Fraction(1)}, {b: Fraction(1)}, -1), "e")
    if got != "-e_{12456abc}":
        raise RuntimeError(f"reference product gives {got}, not -e_{{12456abc}}")


_self_check()
