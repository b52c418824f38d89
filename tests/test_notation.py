import string
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cltwist import kernel, notation
from cltwist.multivector import Algebra
from cltwist.notation import (
    Expression,
    ExpressionSyntaxError,
    Factor,
    InvalidDigitError,
    MalformedBladeError,
    NotationError,
    Term,
    UnknownTokenError,
    UnrepresentableError,
    format_blade,
    parse_blade,
    parse_expression,
)


class TestParseBlade:
    def test_scalar(self):
        assert parse_blade("1") == 0
        assert parse_blade(" 1 ") == 0

    def test_spelling_variants(self):
        for text in ("e134", "e_134", "e_{134}", "E134", "E_{134}"):
            assert parse_blade(text) == 0b1101

    def test_index_form(self):
        for text in ("i13", "i_13", "i_{13}", "I_13"):
            assert parse_blade(text) == 13
        assert parse_blade("i_0") == 0
        assert parse_blade(f"i_{(1 << 64) - 1}") == (1 << 64) - 1

    def test_letter_generators(self):
        # 'a' is generator 10
        assert parse_blade("e_a") == 1 << 9
        assert parse_blade("e_{9a}") == (1 << 8) | (1 << 9)
        assert parse_blade("e_z") == 1 << 34

    def test_worked_blades(self):
        assert parse_blade("e_347ac") == parse_blade("e_{347ac}")
        p = parse_blade("e_347ac")
        assert p == (1 << 2) | (1 << 3) | (1 << 6) | (1 << 9) | (1 << 11)

    def test_duplicate_rejected(self):
        with pytest.raises(MalformedBladeError):
            parse_blade("e_11")

    def test_descending_rejected(self):
        with pytest.raises(MalformedBladeError):
            parse_blade("e_21")
        with pytest.raises(MalformedBladeError):
            parse_blade("e_1a9")

    def test_bad_characters(self):
        with pytest.raises(InvalidDigitError):
            parse_blade("e_0")
        with pytest.raises(InvalidDigitError):
            parse_blade("e_1{}0")  # brace only allowed as full wrapper

    # U+212A (Kelvin sign) lower-cases to k, and U+0130 to i plus U+0307;
    # U+017F and U+0131 match a-z only under the tokenizer's IGNORECASE
    @pytest.mark.parametrize("char", ["\u212a", "\u017f", "\u0131", "\u0130"])
    @pytest.mark.parametrize("template", ["e_{}", "E{}", "e_{{1{}}}"])
    def test_non_ascii_subscript_named_as_typed(self, char, template):
        text = template.format(char)
        with pytest.raises(InvalidDigitError) as info:
            parse_blade(text)
        assert str(info.value) == (
            f"invalid generator character {char!r} in {text!r}"
        )

    def test_non_ascii_prefix_is_not_a_blade(self):
        for text in ("\u0130_3", "\u0130"):
            with pytest.raises(MalformedBladeError, match="not a blade token"):
                parse_blade(text)

    def test_structural_errors(self):
        for text in ("e", "e_", "e_{}", "e_{12", "x12", "", "12"):
            with pytest.raises(MalformedBladeError):
                parse_blade(text)

    def test_index_form_range(self):
        with pytest.raises(MalformedBladeError):
            parse_blade(f"i_{1 << 64}")
        with pytest.raises(MalformedBladeError):
            parse_blade("i_12a")

    def test_index_form_long_digit_strings(self):
        # past the interpreter's int-string digit limit
        with pytest.raises(MalformedBladeError, match="5000 digits"):
            parse_blade("i_" + "7" * 5000)
        with pytest.raises(MalformedBladeError, match="21 digits"):
            parse_blade("i_" + "1" * 21)
        # leading zeros do not count towards the 20 digits of 2**64 - 1
        assert parse_blade("i_" + "0" * 5000 + "1") == 1
        assert parse_blade("i_" + "0" * 30) == 0
        assert parse_blade(f"i_000{(1 << 64) - 1}") == (1 << 64) - 1


@pytest.mark.parametrize("text", [None, b"e_1", 1, ["e_1"]], ids=repr)
def test_text_that_is_not_a_str_is_a_type_error(text):
    name = type(text).__name__
    message = f"^blade text must be a str, got {name}$"
    with pytest.raises(TypeError, match=message):
        parse_blade(text)
    message = f"^expression text must be a str, got {name}$"
    with pytest.raises(TypeError, match=message):
        parse_expression(text)
    with pytest.raises(TypeError, match=message):
        Algebra(-1).parse(text)


def test_mask_width_is_the_kernels():
    assert notation.MASK_BITS is kernel.MASK_BITS == 64
    assert "MASK_BITS" in notation.__all__


class TestFormatBlade:
    def test_scalar(self):
        assert format_blade(0) == "1"
        assert format_blade(0, style="i") == "i_0"

    def test_e_form(self):
        assert format_blade(0b1101) == "e_{134}"
        assert format_blade(1 << 9) == "e_{a}"
        assert format_blade(1 << 34) == "e_{z}"

    def test_i_form(self):
        assert format_blade(2636, style="i") == "i_2636"

    def test_unrepresentable(self):
        with pytest.raises(UnrepresentableError):
            format_blade(1 << 35)
        # but the index form always works
        assert format_blade(1 << 35, style="i") == f"i_{1 << 35}"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            format_blade(-1)
        with pytest.raises(ValueError):
            format_blade(1 << 64)
        with pytest.raises(ValueError):
            format_blade(3, style="x")


@given(st.integers(min_value=0, max_value=(1 << 35) - 1))
def test_e_form_round_trip(mask):
    assert parse_blade(format_blade(mask)) == mask


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_i_form_round_trip(mask):
    assert parse_blade(format_blade(mask, style="i")) == mask


@given(st.one_of(st.text(), st.text(alphabet="0123456789eiz_{}+-*/ é")))
def test_parse_expression_raises_only_notation_errors(text):
    try:
        parse_expression(text)
    except NotationError:
        pass


#: What a blade may hold after its e or i, and the two non-ASCII
#: characters that fold onto it under IGNORECASE: the Kelvin sign onto
#: k, and I with a dot above onto i.
_BLADE_TAIL = "_{}" + string.digits + string.ascii_letters + "\u212a\u0130"


@example("e_{}")
@example("e_1_2")
@example("e_{12")
@given(st.builds(str.__add__, st.sampled_from("eEiI"),
                 st.text(alphabet=_BLADE_TAIL)))
def test_parse_blade_alone_judges_a_blade_token(text):
    # the tokenizer takes the whole text as one blade lexeme, and the
    # expression parser reports parse_blade's verdict on it at byte 0
    try:
        mask = parse_blade(text)
    except NotationError as exc:
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert info.value.offset == 0
        cause = info.value.__cause__
        assert type(cause) is type(exc)
        assert str(cause) == str(exc)
    else:
        assert parse_expression(text) == Expression(
            (Term(1, (Factor(None, mask),)),)
        )


class TestParseExpression:
    def test_single_blade(self):
        expr = parse_expression("e_12")
        assert expr == Expression(
            (Term(1, (Factor(None, 0b11),)),)
        )

    def test_leading_sign(self):
        expr = parse_expression("-e_1")
        assert expr.terms[0].sign == -1
        expr = parse_expression("+e_1")
        assert expr.terms[0].sign == 1

    def test_sum_structure(self):
        expr = parse_expression("2 e_1 - 3/4 e_{23} + 5")
        assert len(expr.terms) == 3
        t0, t1, t2 = expr.terms
        assert t0 == Term(1, (Factor(Fraction(2), 0b001),))
        assert t1 == Term(-1, (Factor(Fraction(3, 4), 0b110),))
        assert t2 == Term(1, (Factor(Fraction(5), None),))

    def test_product_chain(self):
        expr = parse_expression("2 * e_1 * 1/2 e_2")
        (term,) = expr.terms
        assert term.factors == (
            Factor(Fraction(2), None),
            Factor(None, 0b01),
            Factor(Fraction(1, 2), 0b10),
        )

    def test_whitespace_free(self):
        assert parse_expression("2e_1+3e_2") == parse_expression(
            "2 e_1 + 3 e_2"
        )

    def test_index_blades(self):
        expr = parse_expression("i_2636 * i_1143")
        (term,) = expr.terms
        assert term.factors[0].blade == 2636
        assert term.factors[1].blade == 1143

    def test_rational_without_blade(self):
        expr = parse_expression("3/4")
        assert expr.terms[0].factors[0] == Factor(Fraction(3, 4), None)

    def test_zero_denominator(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("1/0")
        assert "byte 2" in str(info.value)

    def test_unknown_token(self):
        with pytest.raises(UnknownTokenError) as info:
            parse_expression("e_1 @ e_2")
        assert info.value.offset == 4
        assert "at byte 4" in str(info.value)

    def test_syntax_errors(self):
        a_factor = "expected a rational or a blade"
        cases = [
            ("", a_factor, "end of input", 0),
            ("1 +", a_factor, "end of input", 3),
            ("* e_1", a_factor, "'*'", 0),
            ("e_1 e_2", "expected '+', '-' or end of expression", "'e_2'", 4),
            ("/3", a_factor, "'/'", 0),
            ("2 * * 3", a_factor, "'*'", 4),
            ("e_1 -", a_factor, "end of input", 5),
            ("3/", "expected a denominator after '/'", "end of input", 2),
            ("3/e_1", "expected a denominator after '/'", "'e_1'", 2),
        ]
        for bad, expected, found, offset in cases:
            with pytest.raises(ExpressionSyntaxError) as info:
                parse_expression(bad)
            assert type(info.value) is ExpressionSyntaxError
            assert str(info.value) == (
                f"{expected}, found {found} (at byte {offset})"
            )
            assert info.value.offset == offset

    def test_malformed_blade_inside_expression(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("2 e_11")
        assert info.value.offset == 2

    @pytest.mark.parametrize("char", ["\u212a", "\u0130"])
    def test_non_ascii_subscript_at_its_byte_offset(self, char):
        text = f"e_1 + e_{char}"
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert info.value.offset == 6
        assert isinstance(info.value.__cause__, InvalidDigitError)
        assert f"invalid generator character {char!r}" in str(info.value)

    @pytest.mark.usefixtures("default_int_digit_limit")
    def test_long_number_is_syntax_error(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("7" * 5000 + " e_1")
        assert info.value.offset == 0
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("1/" + "3" * 5000)
        assert info.value.offset == 2
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("e_1 + i_" + "7" * 5000)
        assert info.value.offset == 6

    def test_offsets_are_bytes(self):
        # multibyte character before the problem spot
        with pytest.raises(UnknownTokenError) as info:
            parse_expression("é")
        assert info.value.offset == 0

    @pytest.mark.parametrize(
        "text, offset",
        [
            # the Kelvin sign (3 bytes) is a subscript letter under
            # IGNORECASE, and NBSP (2 bytes) is whitespace
            ("e_\u212a + x", 8),
            ("1 +\xa0e_1 + ?", 11),
        ],
    )
    def test_offsets_count_bytes_of_earlier_tokens(self, text, offset):
        with pytest.raises(UnknownTokenError) as info:
            parse_expression(text)
        assert info.value.offset == offset


_SPACE = st.sampled_from(["", " ", "\t", " \n ", "\xa0"])


def _spell_rational(draw, value):
    scale = draw(st.integers(1, 3))
    num, den = value.numerator * scale, value.denominator * scale
    if den == 1 and draw(st.booleans()):
        return str(num)
    return f"{num}{draw(_SPACE)}/{draw(_SPACE)}{den}"


def _spell_blade(draw, mask):
    if 0 < mask < 1 << 35 and draw(st.booleans()):
        letter, sub = "e", format_blade(mask)[3:-1]
    else:
        letter, sub = "i", "0" * draw(st.integers(0, 2)) + str(mask)
    head = draw(st.sampled_from([letter, letter.upper()]))
    body = draw(st.sampled_from(["_{%s}", "{%s}", "_%s", "%s"])) % sub
    return head + (body.upper() if draw(st.booleans()) else body)


@st.composite
def _spelled_expressions(draw):
    """An Expression, and one spelling of it with random whitespace."""
    terms, parts = [], []
    for k in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from([1, -1]))
        if k or sign < 0 or draw(st.booleans()):
            parts.append("-" if sign < 0 else "+")
        factors = []
        for j in range(draw(st.integers(1, 4))):
            if j:
                parts.append("*")
            coeff = blade = None
            shape = draw(st.sampled_from(["rational", "blade", "both"]))
            if shape != "blade":
                coeff = draw(st.fractions(min_value=0, max_denominator=10**6))
                parts.append(_spell_rational(draw, coeff))
            if shape != "rational":
                blade = draw(st.integers(0, (1 << 64) - 1) | st.integers(0, 255))
                parts.append(_spell_blade(draw, blade))
            factors.append(Factor(coeff, blade))
        terms.append(Term(sign, tuple(factors)))
    text = draw(_SPACE) + "".join(part + draw(_SPACE) for part in parts)
    return Expression(tuple(terms)), text


@given(_spelled_expressions())
def test_parse_expression_round_trip(case):
    expr, text = case
    assert parse_expression(text) == expr
