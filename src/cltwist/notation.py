"""Text notations for blades, and the multivector expression grammar.

Two blade spellings exist:

* generator form ``e_{134}`` (also accepted: ``e134``, ``e_134``):
  each subscript character names one generator, drawn from the
  alphabet 1-9 then a-z for generators 1 through 35, in strictly
  ascending order;
* index form ``i_13`` (also ``i13``, ``i_{13}``): the decimal blade
  mask, usable for any 64-bit blade.

``"1"`` is the scalar blade (mask 0).  Input is case insensitive;
canonical output is lowercase, braced for the generator form.

Expressions follow a small grammar with ``*`` binding tighter than
``+``/``-``::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := rational | blade | rational blade

Rationals are integers or integer/integer pairs such as ``3/4``.  The
leading sign is accepted so that printed multivectors like ``-e_{12}``
re-parse.  Whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .kernel import MASK_BITS, _check_masks

__all__ = [
    "Expression",
    "ExpressionSyntaxError",
    "Factor",
    "InvalidDigitError",
    "MalformedBladeError",
    "MAX_NAMED_GENERATOR",
    "MASK_BITS",
    "NotationError",
    "Term",
    "UnknownTokenError",
    "UnrepresentableError",
    "format_blade",
    "parse_blade",
    "parse_expression",
]

#: Subscript alphabet: character k names generator k+1.
_SUBSCRIPTS = "123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_TO_GEN = {c: k for k, c in enumerate(_SUBSCRIPTS, start=1)}

#: Largest generator the subscript alphabet can name.
MAX_NAMED_GENERATOR = 35

#: Decimal digits of 2**64 - 1, the longest index-form subscript.
_MAX_INDEX_DIGITS = len(str((1 << MASK_BITS) - 1))


class NotationError(ValueError):
    """Base class for blade and expression text errors."""


class MalformedBladeError(NotationError):
    """Structurally bad blade token: duplicates, ordering, emptiness."""


class InvalidDigitError(NotationError):
    """Subscript character outside the 1-9, a-z alphabet."""


class UnrepresentableError(NotationError):
    """The blade has no spelling in the requested style."""


class ExpressionSyntaxError(NotationError):
    """Expression text does not match the grammar.

    ``offset`` is the byte offset of the offending input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownTokenError(ExpressionSyntaxError):
    """Input contains a character no token can start with."""


def parse_blade(text: str) -> int:
    """Blade mask named by ``text`` (generator form, index form or "1")."""
    t = text.strip().lower()
    if t == "1":
        return 0
    if not t or t[0] not in "ei":
        raise MalformedBladeError(f"not a blade token: {text!r}")
    payload = t[1:]
    if payload.startswith("_"):
        payload = payload[1:]
    if payload.startswith("{"):
        if not payload.endswith("}"):
            raise MalformedBladeError(f"unbalanced braces in {text!r}")
        payload = payload[1:-1]
    if not payload:
        raise MalformedBladeError(f"missing subscript in {text!r}")
    if t[0] == "i":
        if not payload.isascii() or not payload.isdigit():
            raise MalformedBladeError(
                f"index form needs a decimal subscript: {text!r}"
            )
        # Strip zeros and bound the length before int(), whose
        # digit limit would otherwise raise a bare ValueError.
        digits = payload.lstrip("0") or "0"
        if len(digits) > _MAX_INDEX_DIGITS:
            raise MalformedBladeError(
                f"blade index of {len(digits)} digits does not fit in"
                f" {MASK_BITS} bits"
            )
        value = int(digits)
        if value >> MASK_BITS:
            raise MalformedBladeError(
                f"blade index {value} does not fit in {MASK_BITS} bits"
            )
        return value
    mask = 0
    last = 0
    for c in payload:
        gen = _CHAR_TO_GEN.get(c)
        if gen is None:
            raise InvalidDigitError(
                f"invalid generator character {c!r} in {text!r}"
            )
        if gen == last:
            raise MalformedBladeError(f"duplicate generator {c!r} in {text!r}")
        if gen < last:
            raise MalformedBladeError(
                f"subscripts must be strictly ascending in {text!r}"
            )
        mask |= 1 << (gen - 1)
        last = gen
    return mask


def format_blade(p: int, style: str = "e") -> str:
    """Canonical spelling of blade ``p``; round-trips with parse_blade.

    ``style`` is ``"e"`` for the generator form or ``"i"`` for the
    index form.  The generator form only reaches generator 35; above
    that it raises :class:`UnrepresentableError` and the index form
    must be used.
    """
    _check_masks(p, 0)
    if style == "i":
        return f"i_{p}"
    if style == "e":
        if p == 0:
            return "1"
        if p.bit_length() > MAX_NAMED_GENERATOR:
            raise UnrepresentableError(
                f"blade {p} uses generators above {MAX_NAMED_GENERATOR};"
                " use the index form"
            )
        chars = "".join(
            _SUBSCRIPTS[k] for k in range(p.bit_length()) if (p >> k) & 1
        )
        return "e_{" + chars + "}"
    raise ValueError(f"unknown blade style {style!r}")


# --- expression parsing ---------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One multiplicand: a rational, a blade, or a rational times a blade."""

    coeff: Optional[Fraction]
    blade: Optional[int]


@dataclass(frozen=True)
class Term:
    """A signed product chain of factors."""

    sign: int
    factors: Tuple[Factor, ...]


@dataclass(frozen=True)
class Expression:
    """A sum of terms; the shape the multivector layer evaluates."""

    terms: Tuple[Term, ...]


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<BLADE>[ei](?:_?\{[0-9a-z]+\}|_?[0-9a-z]+)?)
      | (?P<NUMBER>[0-9]+)
      | (?P<OP>[+*/-])
    """,
    re.VERBOSE | re.IGNORECASE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # BLADE | NUMBER | OP | END
    text: str
    offset: int  # byte offset into the source


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    offset = 0  # byte offset of text[pos], counted as the tokens pass
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise UnknownTokenError(f"unknown token {text[pos]!r}", offset)
        lexeme = m.group()
        if m.lastgroup != "WS":
            tokens.append(_Token(m.lastgroup, lexeme, offset))
        offset += len(lexeme.encode("utf-8"))
        pos = m.end()
    tokens.append(_Token("END", "", offset))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> ExpressionSyntaxError:
        tok = self.peek()
        what = f"{tok.text!r}" if tok.kind != "END" else "end of input"
        return ExpressionSyntaxError(f"{message}, found {what}", tok.offset)

    def expression(self) -> Expression:
        terms = []
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        terms.append(self.term(sign))
        while True:
            tok = self.peek()
            if tok.kind == "END":
                break
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                terms.append(self.term(-1 if tok.text == "-" else 1))
            else:
                raise self.fail("expected '+', '-' or end of expression")
        return Expression(tuple(terms))

    def term(self, sign: int) -> Term:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                factors.append(self.factor())
            else:
                break
        return Term(sign, tuple(factors))

    def factor(self) -> Factor:
        tok = self.peek()
        if tok.kind == "NUMBER":
            coeff = self.rational()
            nxt = self.peek()
            if nxt.kind == "BLADE":
                return Factor(coeff, self.blade())
            return Factor(coeff, None)
        if tok.kind == "BLADE":
            return Factor(None, self.blade())
        raise self.fail("expected a rational or a blade")

    def integer(self) -> int:
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's int-string digit limit
            raise ExpressionSyntaxError(
                f"number of {len(tok.text)} digits is too long", tok.offset
            ) from None

    def rational(self) -> Fraction:
        num = self.integer()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "NUMBER":
                raise self.fail("expected a denominator after '/'")
            den = self.integer()
            if den == 0:
                raise ExpressionSyntaxError(
                    "zero denominator", den_tok.offset
                )
            return Fraction(num, den)
        return Fraction(num)

    def blade(self) -> int:
        tok = self.advance()
        try:
            return parse_blade(tok.text)
        except NotationError as exc:
            raise ExpressionSyntaxError(str(exc), tok.offset) from exc


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression` tree.

    Raises :class:`ExpressionSyntaxError` (with a byte offset) on any
    input outside the grammar; never crashes on malformed text.
    """
    return _Parser(_tokenize(text)).expression()
