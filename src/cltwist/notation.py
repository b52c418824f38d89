"""Text notations for blades, and the multivector expression grammar.

Two blade spellings exist:

* generator form ``e_{134}`` (also accepted: ``e134``, ``e_134``):
  each subscript character names one generator, drawn from the ASCII
  alphabet 1-9 then a-z for generators 1 through 35, in strictly
  ascending order;
* index form ``i_13`` (also ``i13``, ``i_{13}``): the decimal blade
  mask, usable for any 64-bit blade.

``"1"`` is the scalar blade (mask 0).  Input is case insensitive in
ASCII only: a non-ASCII character is never folded onto the alphabet
(``str.lower`` would turn the Kelvin sign U+212A into ``k``).
Canonical output is lowercase, braced for the generator form.

Expressions follow a small grammar with ``*`` binding tighter than
``+``/``-``::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := rational | blade | rational blade

Rationals are integers or integer/integer pairs such as ``3/4``.  The
leading sign is accepted so that printed multivectors like ``-e_{12}``
re-parse.  Whitespace is insignificant.  A blade token is an e or i
and every blade character after it; :func:`parse_blade` alone judges
it, so a malformed blade is reported with parse_blade's message, at
the token's byte offset.
"""

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .kernel import MASK_BITS, _check_masks, _generators

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
#: Each subscript character and its upper case, and nothing else.
_CHAR_TO_GEN = {c: k for k, s in enumerate(_SUBSCRIPTS, start=1)
                for c in (s, s.upper())}

#: Largest generator the subscript alphabet can name.
MAX_NAMED_GENERATOR = len(_SUBSCRIPTS)

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
    if not isinstance(text, str):
        raise TypeError(f"blade text must be a str, got {type(text).__name__}")
    t = text.strip()
    if t == "1":
        return 0
    if not t or t[0] not in "eEiI":
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
    if t[0] in "iI":
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
    _check_style(style)
    if style == "i":
        return f"i_{p}"
    if p == 0:
        return "1"
    if p.bit_length() > MAX_NAMED_GENERATOR:
        raise UnrepresentableError(
            f"blade {p} uses generators above {MAX_NAMED_GENERATOR};"
            " use the index form"
        )
    return "e_{" + "".join(_SUBSCRIPTS[k] for k in _generators(p)) + "}"


def _check_style(style: str):
    """ValueError unless ``style`` is a blade style, "e" or "i"."""
    if style not in ("e", "i"):
        raise ValueError(f"unknown blade style {style!r}")


# --- expression parsing ---------------------------------------------------

class Factor(NamedTuple):
    """One multiplicand: a rational, a blade, or a rational times a blade."""

    coeff: Optional[Fraction]
    blade: Optional[int]


class Term(NamedTuple):
    """A signed product chain of factors."""

    sign: int
    factors: Tuple[Factor, ...]


class Expression(NamedTuple):
    """A sum of terms; the shape the multivector layer evaluates."""

    terms: Tuple[Term, ...]


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<BLADE>[ei][_{}0-9a-z]*)  # judged by parse_blade
      | (?P<NUMBER>[0-9]+)
      | (?P<OP>[+*/-])
    """,
    re.VERBOSE | re.IGNORECASE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """``(kind, lexeme, byte offset)`` per token, then ``("END", "", n)``.

    An operator's kind is the operator itself.  The whole text is
    tokenized first, so an unknown character anywhere is reported before
    any syntax error.
    """
    tokens = []
    pos = 0
    offset = 0  # byte offset of text[pos], counted as the tokens pass
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise UnknownTokenError(f"unknown token {text[pos]!r}", offset)
        lexeme = m.group()
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((lexeme if kind == "OP" else kind, lexeme, offset))
        offset += len(lexeme.encode("utf-8"))
        pos = m.end()
    tokens.append(("END", "", offset))
    return tokens


def _expected(what: str, token) -> ExpressionSyntaxError:
    kind, lexeme, offset = token
    found = "end of input" if kind == "END" else repr(lexeme)
    return ExpressionSyntaxError(f"expected {what}, found {found}", offset)


def _integer(token) -> int:
    _, lexeme, offset = token
    try:
        return int(lexeme)
    except ValueError:  # past the interpreter's int-string digit limit
        raise ExpressionSyntaxError(
            f"number of {len(lexeme)} digits is too long", offset
        ) from None


def _factor(token, tokens) -> Tuple[Factor, tuple]:
    """The factor that starts at ``token``, and the token after it."""
    coeff = None
    if token[0] == "NUMBER":
        num, den = _integer(token), 1
        token = next(tokens)
        if token[0] == "/":
            token = next(tokens)
            if token[0] != "NUMBER":
                raise _expected("a denominator after '/'", token)
            den = _integer(token)
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", token[2])
            token = next(tokens)
        coeff = Fraction(num, den)
    kind, lexeme, offset = token
    if kind == "BLADE":
        try:
            blade = parse_blade(lexeme)
        except NotationError as exc:
            raise ExpressionSyntaxError(str(exc), offset) from exc
        return Factor(coeff, blade), next(tokens)
    if coeff is None:
        raise _expected("a rational or a blade", token)
    return Factor(coeff, None), token


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression` tree.

    Raises :class:`ExpressionSyntaxError` (with a byte offset) on any
    input outside the grammar; never crashes on malformed text.
    Anything but a str raises :class:`TypeError`.
    """
    if not isinstance(text, str):
        raise TypeError(
            f"expression text must be a str, got {type(text).__name__}"
        )
    tokens = iter(_tokenize(text))
    token = next(tokens)
    terms = []
    while True:
        kind = token[0]
        if kind == "+" or kind == "-":
            token = next(tokens)
        elif terms:
            raise _expected("'+', '-' or end of expression", token)
        factor, token = _factor(token, tokens)
        factors = [factor]
        while token[0] == "*":
            factor, token = _factor(next(tokens), tokens)
            factors.append(factor)
        terms.append(Term(-1 if kind == "-" else 1, tuple(factors)))
        if token[0] == "END":
            return Expression(tuple(terms))
