import sys
import time
from fractions import Fraction

import pytest

from hermfact import (
    GaussianRational,
    bidegree,
    format_form,
    is_hermitian_symmetric,
    parse_expression,
    parse_real_symbol,
)
from hermfact import parsing
from hermfact.parsing import _ONE, ParseError, _Parser, _poly_mul, _poly_pow, parse_symbol

from helpers import (
    diagonal_quartic,
    euclidean_pairing,
    parse_outcome,
    quartic_family,
    rand_hermsym_form,
)


def test_parse_diagonal_quartic():
    assert parse_expression("z1^2*zb1^2 + z2^2*zb2^2") == diagonal_quartic()


def test_parse_complex_conjugate_pair():
    form = parse_expression("(1/2 + 3/4*i)*z1*zb2 + (1/2 - 3/4*i)*z2*zb1")
    assert is_hermitian_symmetric(form)
    assert form.coefficient(0, 0, (1, 0), (0, 1)) == GaussianRational(
        Fraction(1, 2), Fraction(3, 4)
    )


def test_parse_unbalanced_degrees():
    form = parse_expression("z1^2*zb1")
    assert bidegree(form) is None
    assert form.n == 1


def test_parse_matrix_form():
    form = parse_expression("[[z1*zb1, z1*zb2],[z2*zb1, z2*zb2]]")
    assert form.r == 2
    assert is_hermitian_symmetric(form)
    with pytest.raises(ParseError):
        parse_expression("[[z1*zb1, z1*zb2]]")  # not square


def test_parse_real_symbol_and_separation():
    symbol = parse_real_symbol("x1^2 + x2^2")
    assert symbol.nvars == 2
    assert symbol.terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    with pytest.raises(ParseError):
        parse_real_symbol("x1*z1")
    with pytest.raises(ParseError):
        parse_expression("x1^2")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_expression("z1^2 +")
    assert info.value.position == len("z1^2 +")
    with pytest.raises(ParseError):
        parse_expression("z1^2 * * z2")
    with pytest.raises(ParseError) as info:
        parse_expression("z0 + z1")
    assert "unknown variable" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_expression("1.5*z1*zb1")
    assert "non-rational" in str(info.value)
    with pytest.raises(ParseError):
        parse_expression("y1*zb1")


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_expression("z1^(1/2)")
    with pytest.raises(ParseError):
        parse_expression("z1^2/3*zb1")  # '/' only inside literals


def test_unary_signs_and_precedence():
    form = parse_expression("-3/2*z1*zb1")
    assert form.coefficient(0, 0, (1,), (1,)) == GaussianRational(Fraction(-3, 2))
    form = parse_expression("--z1*zb1 - -z1*zb1")
    assert form.coefficient(0, 0, (1,), (1,)) == GaussianRational(2)
    form = parse_expression("(z1 + zb1)^2")
    assert form.coefficient(0, 0, (1,), (1,)) == GaussianRational(2)


def test_dimension_floor():
    form = parse_expression("z1*zb1", n=3)
    assert form.n == 3
    assert form.coefficient(0, 0, (1, 0, 0), (1, 0, 0)) == GaussianRational(1)


def test_print_parse_round_trip_canonical():
    for text in [
        "z1^2*zb1^2 + z2^2*zb2^2",
        "(1/2 + 3/4*i)*z1*zb2 + (1/2 - 3/4*i)*z2*zb1",
        "z1^2*zb1",
        "[[z1*zb1, z1*zb2],[z2*zb1, z2*zb2]]",
        "2*z1*zb1 - 7/3*z2*zb2",
    ]:
        form = parse_expression(text)
        rendered = format_form(form)
        assert parse_expression(rendered, n=form.n) == form
        assert format_form(parse_expression(rendered, n=form.n)) == rendered


def test_print_parse_round_trip_random():
    import random

    rng = random.Random(13)
    for _ in range(30):
        form = rand_hermsym_form(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2))
        rendered = format_form(form)
        assert parse_expression(rendered, n=form.n) == form


def test_parse_euclidean_pairing():
    assert parse_expression("z1*zb1 + z2*zb2") == euclidean_pairing(2)
    assert parse_expression(format_form(quartic_family(Fraction(-19, 10)))) == quartic_family(
        Fraction(-19, 10)
    )


@pytest.mark.parametrize(
    "base",
    ["z1", "(2/3 - i)*z1^2*zb2", "z1 + zb1", "(1/2)*z1 - i*z2*zb1 + 3", "0", "5/7"],
)
def test_power_equals_repeated_multiplication(base):
    poly = _Parser(base).parse_expr()
    product = {(): _ONE}
    for e in range(9):
        assert _poly_pow(poly, e) == product
        product = _poly_mul(product, poly)
    assert parse_expression(f"({base})^7 + z1*zb1") == parse_expression(
        "*".join([f"({base})"] * 7) + " + z1*zb1"
    )


@pytest.mark.parametrize(
    "text, parse",
    [("x1^2 + x2^2", parse_real_symbol), ("[[x1^2]]", parse_real_symbol),
     ("i*x1^2", parse_real_symbol), ("z1*zb1", parse_expression), ("1", parse_expression),
     ("x1*z1", parse_expression), ("x1 - x1 + z1*zb1", parse_expression)],
)
def test_parse_symbol_parses_as_the_parser_for_its_variables(text, parse):
    assert parse_outcome(parse_symbol, text) == parse_outcome(parse, text)


@pytest.fixture
def digit_limit_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.10.7 has no int-to-string digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "text, position",
    [
        ("10^640*z1*zb1", 2),  # 641 digits
        ("(1/10)^640*z1*zb1", 6),
        ("(2+i)^1832*z1*zb1", 5),  # |2+i|^1832 / sqrt(2) > 10^640
        ("(2+i)^99999999*z1*zb1", 5),  # refused before powering
        ("(10^320*z1 + 1)*(10^320*zb1 + 1)", 15),
        ("10^320*z1*10^320*zb1", 9),
        ("10^639*z1*zb1 + 9*10^639*z1*zb1", 14),
        ("1" * 641 + "*z1*zb1", 0),
        ("z1^" + "1" * 641, 3),
        ("z" + "1" * 641, 0),
    ],
)
def test_digit_limit_is_a_parse_error_at_its_operator(digit_limit_640, text, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.position == position
    assert "more than 640 digits" in str(info.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("z1 ** zb1 $", "unexpected character '$'", 10),  # after an unexpected '*'
        ("z1 + + .5", "non-rational literal", 7),  # after a sign, where an atom goes
        ("(z1 + zb1 y", "unexpected character 'y'", 10),  # before the missing ')'
        ("z1*zb1 +", "unexpected token ''", 8),  # no bad character: the error stands
    ],
)
def test_first_bad_character_wins(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("10^640*z1*zb1 $", "unexpected character '$'", 14),
        ("1" * 641 + "*z1*zb1 + z1.", "non-rational literal", 653),
        ("z1^" + "1" * 641 + " iz1", "unexpected character 'i'", 645),
        ("(2+i)^99999999*z1*zb1 zb", "unexpected character 'z'", 22),
    ],
)
def test_first_bad_character_wins_over_the_digit_limit(digit_limit_640, text, message, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, value",
    [
        ("10^639*z1*zb1 + 8*10^639*z1*zb1", GaussianRational(9 * 10**639)),
        ("((1+i)*1/2)^4252*z1*zb1", GaussianRational(Fraction(-1, 2**2126))),  # (i/2)^2126
        ("(2+i)^1830*z1*zb1", GaussianRational(2, 1) ** 1830),
        # the common denominator 3^670 * 7^380 has 641 digits, each part fewer
        (f"(1/{3**670} + 1/{7**380}*i)*z1*zb1",
         GaussianRational(Fraction(1, 3**670), Fraction(1, 7**380))),
    ],
)
def test_digit_limit_allows_what_fits(digit_limit_640, text, value):
    assert parse_expression(text).coefficient(0, 0, (1,), (1,)) == value


def test_digit_limit_is_off_without_the_interpreter_limit(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    form = parse_expression("2^20000*z1*zb1")
    assert form.coefficient(0, 0, (1,), (1,)) == GaussianRational(2**20000)


@pytest.mark.parametrize(
    "text, position",
    [("(z1+1)^20000", 6), ("(z1+z2+1)^89", 9), ("(z1+1)^" + "9" * 4000, 6)],
)
def test_a_power_past_the_expansion_budget_is_refused_before_it_expands(text, position):
    started = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert time.perf_counter() - started < 1
    assert info.value.position == position
    assert f"takes more than {parsing.MAX_EXPANSION} coefficient products" in str(info.value)


def test_a_product_past_the_expansion_budget_is_refused_before_it_expands():
    # 513 * 513 > 2^18 coefficient products, at the '*' between the factors
    side = " + ".join(f"{k}*z1^{k}" for k in range(1, 514))
    text = f"({side})*({side.replace('z1', 'zb1')})"
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.position == len(side) + 2
    assert "expanding products and powers takes more than" in str(info.value)


@pytest.mark.parametrize("entries", [
    " + ".join(["(z1+1)^100"] * 100),
    "[[" + ", ".join(["(z1+1)^100"] * 100) + "]]",
], ids=["sum", "matrix_row"])
def test_the_expansion_budget_is_one_for_the_whole_parse(entries):
    # Each power takes about 4,000 products, far within the budget, but the
    # parse is refused at the caret of the power that takes it past the budget.
    started = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_expression(entries)
    assert time.perf_counter() - started < 1
    assert f"takes more than {parsing.MAX_EXPANSION} coefficient products" in str(info.value)
    assert entries[info.value.position - 6:info.value.position + 1] == "(z1+1)^"
    assert 30 * 11 < info.value.position < len(entries) - 11


@pytest.mark.parametrize("text", [
    "((z1+z2)*(zb1+zb2))^32",  # p^16 has 289 terms, not C(19, 16) = 969
    "(1+z1+z1^2)^100",  # p^64 has 129 terms, not C(66, 64) = 2145
    "(z1+1)^512 + (zb1+1)^512",
])
def test_below_the_expansion_budget_nothing_changes(monkeypatch, text):
    # A power is charged the products its squaring chain takes, so a base
    # whose powers have few terms is not refused for the terms they might have.
    expected = parse_expression(text)
    monkeypatch.setattr(parsing, "MAX_EXPANSION", 1 << 62)
    assert parse_expression(text) == expected


def test_the_expansion_budget_boundary(monkeypatch):
    # The squaring chain of a 3-term base to the power 5 takes 3 * 3 and
    # 6 * 6 products for its squares and 3 * 15 for p * p^4, and the term's
    # product with z1^3*zb1^3 takes 21: 111 in all.  To the power 6 it takes
    # 9, 36 and then 6 * 15 for p^2 * p^4, 135 before the term's product.
    # With a budget of 111 the first expands exactly as it does without one,
    # and the second is refused at its caret.
    text = "(z1 + zb1 + 1)^{}*z1^3*zb1^3"
    expected = parse_expression(text.format(5))
    monkeypatch.setattr(parsing, "MAX_EXPANSION", 111)
    assert parse_expression(text.format(5)) == expected
    with pytest.raises(ParseError) as info:
        parse_expression(text.format(6))
    assert info.value.position == 14
