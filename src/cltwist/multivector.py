"""Exact multivector arithmetic on top of the sign kernel.

A multivector is a finite formal sum of blades with rational
coefficients, stored sparsely as ``{mask: Fraction}``.  All arithmetic
is exact; there is no float anywhere in this layer.  Values are
immutable and hashable, and two multivectors compare equal exactly
when they have the same generator-square convention and the same
coefficient table.

An :class:`Algebra` pins the convention (``mu`` is the shared square
of the generators, +1 or -1) and acts as the factory:

>>> alg = Algebra(mu=-1)
>>> a = alg.parse("e_{13} + 2 e_2")
>>> b = alg.blade(0b11)  # e_{12}
>>> print(a * b)
2 e_{1} - e_{23}
"""

import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterator, Tuple, Union

from ._record import Frozen
from .kernel import _check_masks, _check_mu, blade_product
from .notation import Expression, _check_style, format_blade, parse_expression

__all__ = ["Algebra", "Multivector"]

Scalar = Union[int, Fraction]


class Algebra(Frozen):
    """Context fixing the generator square; factory for multivectors."""

    __slots__ = ("mu",)

    def __new__(cls, mu: int = -1):
        _check_mu(mu)
        self = object.__new__(cls)
        object.__setattr__(self, "mu", mu)
        return self

    def __reduce__(self):
        # through the constructor, so a copy checks mu as any input is
        return Algebra, (self.mu,)

    def multivector(self, coeffs: Dict[int, Scalar]) -> "Multivector":
        """Multivector from a {mask: coefficient} table."""
        return Multivector(self, coeffs)

    def blade(self, mask: int, coeff: Scalar = 1) -> "Multivector":
        return Multivector(self, {mask: coeff})

    def scalar(self, value: Scalar) -> "Multivector":
        return Multivector(self, {0: value})

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def parse(self, text: str) -> "Multivector":
        """Evaluate expression text (see :mod:`cltwist.notation`)."""
        return self._evaluate(parse_expression(text))

    def _evaluate(self, expr: Expression) -> "Multivector":
        # Each term is a single monomial: fold its factors into one
        # (sign, mask, coefficient), then sum the monomials in one dict.
        out: Dict[int, Scalar] = {}
        for term in expr.terms:
            sign, mask, coeff = term.sign, 0, 1
            for factor in term.factors:
                if factor.coeff is not None:
                    coeff *= factor.coeff
                if factor.blade is not None:
                    s, mask = blade_product(mask, factor.blade, self.mu)
                    sign *= s
            out[mask] = out.get(mask, 0) + sign * coeff
        return Multivector(self, out)

    def __eq__(self, other):
        return isinstance(other, Algebra) and other.mu == self.mu

    def __hash__(self):
        return hash((Algebra, self.mu))

    def __repr__(self):
        return f"Algebra(mu={self.mu:+d})"


def _as_fraction(value: Scalar) -> Fraction:
    # Exactly int or Fraction: a subclass may order or print otherwise,
    # and then format() would not parse back.
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {value!r}")


class Multivector(Frozen):
    """Immutable sparse sum of blades with Fraction coefficients."""

    __slots__ = ("algebra", "_coeffs")

    # numpy's scalar operators would otherwise take over where ours
    # return NotImplemented, turn a numpy scalar into a Python number and
    # call back; None makes them return NotImplemented too, so a numpy
    # scalar operand is a TypeError on either side
    __array_ufunc__ = None

    def __new__(cls, algebra: Algebra, coeffs: Dict[int, Scalar]):
        if not isinstance(algebra, Algebra):
            raise TypeError(f"algebra must be an Algebra, got {algebra!r}")
        if not isinstance(coeffs, Mapping):
            raise TypeError(
                "coeffs must be a mapping of masks to coefficients,"
                f" got {type(coeffs).__name__}"
            )
        table: Dict[int, Fraction] = {}
        for mask, value in coeffs.items():
            _check_masks(mask, 0)
            c = _as_fraction(value)
            if c:  # canonical: zero coefficients never stored
                table[mask] = c
        self = object.__new__(cls)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_coeffs", table)
        return self

    def __reduce__(self):
        return Multivector, (self.algebra, self._coeffs)

    @property
    def mu(self) -> int:
        return self.algebra.mu

    def coefficient(self, mask: int) -> Fraction:
        _check_masks(mask, 0)
        return self._coeffs.get(mask, Fraction(0))

    def terms(self) -> Iterator[Tuple[int, Fraction]]:
        """Pairs (mask, coefficient), ascending by blade index."""
        for mask in sorted(self._coeffs):
            yield mask, self._coeffs[mask]

    def grades(self):
        return sorted({m.bit_count() for m in self._coeffs})

    def grade_part(self, k: int) -> "Multivector":
        """Projection onto grade ``k``, an int."""
        if type(k) is not int:
            raise TypeError(f"grade must be an int, got {k!r}")
        return Multivector(
            self.algebra,
            {m: c for m, c in self._coeffs.items() if m.bit_count() == k},
        )

    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return (
                self.algebra == other.algebra
                and self._coeffs == other._coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, frozenset(self._coeffs.items())))

    def _operand(self, other):
        """``other`` as a multivector of this algebra, or None if it is
        neither a multivector nor a scalar."""
        if isinstance(other, (int, Fraction)):
            return self.algebra.scalar(other)
        if not isinstance(other, Multivector):
            return None
        if self.algebra != other.algebra:
            raise ValueError("multivectors from different algebras")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for mask, c in other._coeffs.items():
            out[mask] = out.get(mask, Fraction(0)) + c
        return Multivector(self.algebra, out)

    __radd__ = __add__  # addition commutes

    def __neg__(self):
        return Multivector(
            self.algebra, {m: -c for m, c in self._coeffs.items()}
        )

    def __sub__(self, other):
        # checked before negating: -True is an int, and the negation of
        # a Fraction subclass a Fraction, which the check would let pass
        other = self._operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        # not -self + other, which would name "+" in the TypeError
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Multivector(
                self.algebra, {m: v * c for m, v in self._coeffs.items()}
            )
        other = self._operand(other)
        if other is None:
            return NotImplemented
        mu = self.algebra.mu
        out: Dict[int, Fraction] = {}
        for p, cp in self._coeffs.items():
            for q, cq in other._coeffs.items():
                sign, mask = blade_product(p, q, mu)
                out[mask] = out.get(mask, Fraction(0)) + sign * cp * cq
        return Multivector(self.algebra, out)

    # a multivector on the left takes its own __mul__, so only a scalar
    # or a refused type gets here, and scalars commute
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self.__mul__(Fraction(1) / c)
        return NotImplemented

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("only non-negative integer powers")
        # by repeated squaring: the product is associative
        result = self.algebra.scalar(1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # --- rendering --------------------------------------------------------

    def format(self, style: str = "e") -> str:
        """Canonical text; parses back to an equal multivector.

        ``style`` spells the blades as in ``format_blade``: "e" or "i",
        any other raises ValueError, whatever the terms.  A coefficient
        with more digits than the interpreter's int-string limit
        (``sys.get_int_max_str_digits()``), which ``parse`` would refuse,
        raises ValueError naming that limit.
        """
        _check_style(style)
        if not self._coeffs:
            return "0"
        parts = []
        for mask, coeff in self.terms():
            lead = not parts
            if coeff < 0:
                parts.append("-" if lead else " - ")
                coeff = -coeff
            elif not lead:
                parts.append(" + ")
            blade = format_blade(mask, style) if mask else ""
            if coeff != 1 or not blade:
                try:
                    parts.append(str(coeff))
                except ValueError:  # past the int-string digit limit
                    raise ValueError(
                        "a coefficient has more than"
                        f" {sys.get_int_max_str_digits()} digits, the"
                        " interpreter's limit for integer strings"
                    ) from None
                if blade:
                    parts.append(" ")
            parts.append(blade)
        return "".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"<Multivector mu={self.mu:+d} {self.format()}>"
