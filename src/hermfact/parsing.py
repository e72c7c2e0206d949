"""Expression front-end for kernels and real symbols.

Grammar (all whitespace-insensitive):

    input    := matrix | expr
    matrix   := '[' row ( ',' row )* ']'
    row      := '[' expr ( ',' expr )* ']'
    expr     := term ( ('+' | '-') term )*
    term     := signed ( '*' signed )*
    signed   := ('+' | '-')* power
    power    := atom ( '^' integer )?
    atom     := rational | 'i' | variable | '(' expr ')'

Variables are z1..zn, their conjugates zb1..zbn, or real variables x1..xm.
Rational literals are written p or p/q with no internal spaces; decimal
literals are rejected.  '/' occurs only inside literals and '^' takes a
nonnegative integer exponent.  A number, or a numerator or denominator of a
coefficient computed on the way, longer than Python's int-to-string limit
(`sys.get_int_max_str_digits()`) is a ParseError at its literal or operator,
and so is the product of polynomials, in a term or in a power's squaring
chain, that would take the parse past MAX_EXPANSION coefficient products in
all, each product charged the product of its factors' term counts before it
is expanded.

The tokens are the strings of one regex findall, each one's kind told from its
text, read by index.  Two of them are lexemes of a whole factor: a
parenthesised constant, whose text holds only digits, '/', '+', '-', '*', 'i'
and spaces, such as (2-3*i), and a variable to an integer power, such as
z1^4, with no '^' or '/' after it.  A constant's text is read by the grammar
on its own tokens, once per distinct text in a parse; a power goes through
the parse's cache of variables.  Any other token is one atom's or one
operator's.

A ParseError's position is looked up only when a parse fails, by scanning the
text again: the first character that starts no atom's token is then the
error, whatever else failed, and otherwise the error is at its token, or at
its character inside a lexeme.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .hermform import BihermitianForm
from .symbols import RealSymbol


class ParseError(ValueError):
    """Syntax or semantic error in an input expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


# No group, so findall returns token strings.  The atoms' tokens: a number
# starts with a digit, a variable with z or x and is longer, an operator or
# 'i' is one character; any other token is bad, a lone character or an 'i'
# run into a letter or digit.  _TOKEN_RE reads a constant or a power as one
# lexeme first.  Both lexemes end where an atom's token ends, so the atoms'
# tokens of the text are those around and inside them; a power's exponent is
# the whole number after its caret, and one followed by '^' or '/' is left to
# the atoms, whose grammar refuses it.
_ATOM = r"[0-9]+(?:/[0-9]+)?|(?:zb|z|x)[0-9]+|i\w?|[-+*^(),\[\]]|\S"
_ATOM_RE = re.compile(_ATOM)
_TOKEN_RE = re.compile(r"\([-+*/ 0-9i]+\)|(?:zb|z|x)[0-9]+\^[0-9]+(?![/0-9]|\s*\^)|" + _ATOM)
_DIGITS = frozenset("0123456789")
_SINGLES = frozenset("-+*^(),[]i")


# A coefficient (re, im, den) is the Gaussian rational (re + im*i) / den with
# den > 0 and gcd(re, im, den) == 1, the lowest terms of scalars.GaussianRow.
# A polynomial maps monomials to nonzero coefficients; a monomial is a sorted
# tuple of (variable, exponent) pairs, variable 3*index + (0 z, 1 zb, 2 x).
_Coeff = tuple[int, int, int]
_MonoKey = tuple[tuple[int, int], ...]
_ExprPoly = dict[_MonoKey, _Coeff]
_ONE: _Coeff = (1, 0, 1)
_ZERO: _Coeff = (0, 0, 1)
_KINDS = ("z", "zb", "x")


def _lowest(re: int, im: int, den: int) -> _Coeff:
    g = 1 if den == 1 else gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _coeff_mul(a: _Coeff, b: _Coeff) -> _Coeff:
    (ar, ai, ad), (br, bi, bd) = a, b
    return _lowest(ar * br - ai * bi, ar * bi + ai * br, ad * bd)


def _coeff_add(a: _Coeff, b: _Coeff) -> _Coeff:
    (ar, ai, ad), (br, bi, bd) = a, b
    return _lowest(ar * bd + br * ad, ai * bd + bi * ad, ad * bd)


def _power(x, e: int, mul):
    """x**e for e >= 1 by repeated squaring under mul."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def _mono_mul(a: _MonoKey, b: _MonoKey) -> _MonoKey:
    if not a or not b:
        return a or b
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _poly_mul(p: _ExprPoly, q: _ExprPoly) -> _ExprPoly:
    out: _ExprPoly = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = _mono_mul(ka, kb)
            c = _coeff_mul(ca, cb)
            acc = out.get(key)
            if acc is not None:
                c = _coeff_add(acc, c)
                if not (c[0] or c[1]):
                    del out[key]
                    continue
            out[key] = c
    return out


def _poly_pow(p: _ExprPoly, e: int, mul=_poly_mul) -> _ExprPoly:
    return _power(p, e, mul) if e else {(): _ONE}


# The most coefficient products that one parse may take expanding products
# and powers of polynomials: each product p * q of a term, or of a power's
# squaring chain (`_power`), is charged len(p) * len(q) before it expands.
MAX_EXPANSION = 1 << 18


class _Parser:
    def __init__(self, text: str, lexer: re.Pattern = _TOKEN_RE):
        self.text, self.lexer = text, lexer
        self.tokens = lexer.findall(text) + [""]  # "" is the end of the text
        self.cursor = 0
        self.variables: dict[str, _MonoKey] = {}  # each variable or power token read so far
        self.constants: dict[str, _Coeff] = {}  # each constant lexeme read so far, 0 as _ZERO
        self.work = 0  # the coefficient products expanded so far
        # 0 is no limit, as on Pythons before 3.10.7; 8**limit < 10**limit < 2**bits.
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        self.small, self.bits = 1 << 3 * self.limit, int(self.limit * 3.3219280948873626) + 1

    def error(self, message: str, k: int, offset: int = 0) -> ParseError:
        """The error of a parse that fails at token k, offset characters into
        it: at the first bad character of the text if it has one, else
        message there."""
        text = self.text
        for m in _ATOM_RE.finditer(text):
            token = m.group()
            if not (token in _SINGLES or token[0] in _DIGITS or token[0] in "zx" and len(token) > 1):
                bad = "non-rational literal" if token == "." else f"unexpected character {token[0]!r}"
                return ParseError(bad, m.start())
        for j, m in enumerate(self.lexer.finditer(text)):
            if j == k:
                return ParseError(message, m.start() + offset)
        return ParseError(message, len(text))

    def number(self, digits: str, k: int, offset: int = 0) -> int:
        if self.limit and len(digits) > self.limit:
            raise self.error(f"number has more than {self.limit} digits", k, offset)
        return int(digits)

    def variable(self, token: str, k: int) -> _MonoKey:
        """The monomial of a variable, or of a power lexeme such as z1^4,
        at token k, kept for the rest of the parse."""
        name, caret, digits = token.partition("^")
        kind = 1 if name[1] == "b" else _KINDS.index(name[0])
        index = self.number(name[len(_KINDS[kind]):], k)
        if index < 1:
            raise self.error(f"unknown variable {name!r}", k)
        e = self.number(digits, k, len(name) + 1) if caret else 1
        self.variables[token] = mono = ((3 * index + kind, e),) if e else ()
        return mono

    def constant(self, token: str, k: int) -> _Coeff:
        """The value of the constant lexeme at token k, _ZERO for 0, kept for
        the rest of the parse: the grammar's '(' expr ')' read on the atoms'
        tokens of its text, which has no variable, so it charges nothing to
        the expansion budget.  An error inside it is named at its character
        in the whole text."""
        inner = _Parser(token, _ATOM_RE)
        inner.cursor = 1
        try:
            poly = inner.parse_expr()
            inner.expect(")")
        except ParseError as error:
            raise self.error(error.message, k, error.position) from None
        self.constants[token] = c = poly.get((), _ZERO)
        return c

    def product(self, p: _ExprPoly, q: _ExprPoly, k: int) -> _ExprPoly:
        """p * q, refused at token k if it takes the parse past MAX_EXPANSION
        coefficient products."""
        self.work += len(p) * len(q)
        if self.work > MAX_EXPANSION:
            raise self.error(f"expanding products and powers takes more than {MAX_EXPANSION} "
                             "coefficient products", k)
        return _poly_mul(p, q)

    def check(self, coeffs, k: int) -> None:
        """Raise unless the Fractions of each coefficient fit the digit limit."""
        small = self.small
        for re, im, den in coeffs if self.limit else ():
            if not (-small < re < small and -small < im < small and den < small):
                bound = 10**self.limit
                if any(max(abs(x), den) // gcd(x, den) >= bound for x in (re, im)):
                    raise self.error(f"coefficient has more than {self.limit} digits", k)

    def check_power(self, c: _Coeff, e: int, k: int) -> None:
        """Raise before computing c**e if it surely breaks the digit limit."""
        if self.limit and c != _ONE:
            # (re + im*i)**e / den**e cancels at most 2**(e // 2), for an even
            # den; its larger numerator is at least |re + im*i|**e / sqrt(2).
            # Either part past 2**(3 * bits) leaves a Fraction part past 10**limit.
            re, im, den = c
            low = max((e * ((re * re + im * im).bit_length() - 1) - 1) // 2,
                      e * (den.bit_length() - 1)) - (e // 2 if den % 2 == 0 else 0)
            if low >= 3 * self.bits:
                raise self.error(f"coefficient has more than {self.limit} digits", k)

    def expect(self, value: str) -> None:
        if self.tokens[self.cursor] != value:
            raise self.error(f"expected {value!r}", self.cursor)
        self.cursor += 1

    def parse_input(self):
        """One polynomial, or a matrix as a list of rows of polynomials."""
        if self.tokens[0] == "[":
            parsed = self.parse_list(lambda: self.parse_list(self.parse_expr))
        else:
            parsed = self.parse_expr()
        token = self.tokens[self.cursor]
        if token:
            # named by its first atom's token: the '(' of a constant, the variable of a power
            raise self.error(f"unexpected trailing input {_ATOM_RE.match(token).group()!r}",
                             self.cursor)
        return parsed

    def parse_list(self, item) -> list:
        self.expect("[")
        items = [item()]
        while self.tokens[self.cursor] == ",":
            self.cursor += 1
            items.append(item())
        self.expect("]")
        return items

    def parse_expr(self) -> _ExprPoly:
        tokens = self.tokens
        poly = self.parse_term()
        while True:
            k = self.cursor
            op = tokens[k]
            if op != "+" and op != "-":
                return poly
            self.cursor = k + 1
            for key, c in self.parse_term().items():
                if op == "-":
                    c = (-c[0], -c[1], c[2])
                acc = poly.get(key)
                if acc is not None:
                    c = _coeff_add(acc, c)
                    if not (c[0] or c[1]):
                        del poly[key]
                        continue
                    self.check((c,), k)
                poly[key] = c

    def parse_term(self) -> _ExprPoly:
        """term := signed ('*' signed)*, signed := ('+' | '-')* atom ('^' integer)?

        Numbers, 'i', variables and parenthesised factors of one term, with
        their powers and signs, fold into one coefficient and one exponent
        map; only a factor of two or more terms, or of none, is a polynomial,
        multiplied in by _poly_mul at the end."""
        tokens, variables, constants = self.tokens, self.variables, self.constants
        k = self.cursor
        coeff, exps, polys, star = _ONE, {}, [], k
        while True:
            t = tokens[k]
            negative = False
            while t == "-" or t == "+":
                negative ^= t == "-"
                k += 1
                t = tokens[k]
            at, k = k, k + 1
            c, poly, mono = _ONE, None, variables.get(t)
            if mono is None:
                mono = ()
                if t == "(":
                    self.cursor = k
                    poly = self.parse_expr()
                    self.expect(")")
                    k = self.cursor
                    if len(poly) == 1:
                        ((mono, c),) = poly.items()
                        poly = None
                elif t[:1] == "(":  # a constant lexeme
                    c = constants.get(t) or self.constant(t, at)
                    if c == _ZERO:
                        c, poly = _ONE, {}
                elif t[:1] in _DIGITS:
                    num, _, den = t.partition("/")
                    d = self.number(den, at) if den else 1
                    if d == 0:
                        raise self.error("zero denominator", at)
                    n = self.number(num, at)
                    c, poly = (_lowest(n, 0, d), None) if n else (_ONE, {})
                elif t == "i":
                    c = (0, 1, 1)
                elif len(t) > 1 and t[0] in "zx":
                    mono = self.variable(t, at)
                else:
                    raise self.error(f"unexpected token {t!r}", at)
            e = 1
            if tokens[k] == "^":
                caret, t = k, tokens[k + 1]
                if t[:1] not in _DIGITS or "/" in t:
                    raise self.error("exponent must be a nonnegative integer", k + 1)
                k += 2
                e = self.number(t, k - 1)
                if poly is not None:
                    poly = _poly_pow(poly, e, lambda p, q: self.product(p, q, caret))
                    self.check(poly.values(), caret)
                elif c != _ONE:
                    self.check_power(c, e, caret)
                    c = _power(c, e, _coeff_mul) if e else _ONE
                    self.check((c,), caret)
            if poly is not None:
                polys.append({key: (-re, -im, den) for key, (re, im, den) in poly.items()}
                             if negative else poly)
            else:
                for var, x in mono if e else ():
                    exps[var] = exps.get(var, 0) + x * e
                if negative:
                    c = (-c[0], -c[1], c[2])
                if coeff == _ONE:
                    coeff = c  # checked where it was read
                elif c != _ONE:
                    coeff = _coeff_mul(coeff, c)
                    self.check((coeff,), star)
            if tokens[k] != "*":
                break
            star, k = k, k + 1
        self.cursor = k
        poly = {tuple(sorted(exps.items())): coeff}
        for factor in polys:
            poly = self.product(poly, factor, star)
            self.check(poly.values(), star)
        return poly


def _parse(text: str) -> tuple:
    """Rows of polynomials (a scalar is one row of one entry), whether the text
    was a matrix, the variable kinds used, and the largest z/zb and x index."""
    parsed = _Parser(text).parse_input()
    matrix = isinstance(parsed, list)
    rows = parsed if matrix else [[parsed]]
    used = {var for row in rows for poly in row for key in poly for var, _ in key}
    zmax = max((var // 3 for var in used if var % 3 < 2), default=0)
    xmax = max((var // 3 for var in used if var % 3 == 2), default=0)
    return rows, matrix, {_KINDS[var % 3] for var in used}, zmax, xmax


def _exponents(key: _MonoKey, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The z (or x) exponents and the zb exponents of a monomial."""
    alpha, beta = [0] * dim, [0] * dim
    for var, e in key:
        (beta if var % 3 == 1 else alpha)[var // 3 - 1] = e
    return tuple(alpha), tuple(beta)


def _kernel(parsed: tuple, n: int | None) -> BihermitianForm:
    rows, _, kinds, zmax, _ = parsed
    if "x" in kinds:
        raise ParseError("x variables belong to real symbols, not kernels", 0)
    dim = max(zmax, n or 1)
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise ParseError("kernel matrices must be square", 0)
    den = lcm(*(c[2] for row in rows for poly in row for c in poly.values()))
    support = {(i, j, *_exponents(key, dim)): (re * (den // q), im * (den // q))
               for i, row in enumerate(rows) for j, poly in enumerate(row)
               for key, (re, im, q) in poly.items()}
    # Keys are distinct and coefficients nonzero, each in lowest terms, so
    # over the lcm of their denominators the form is in lowest terms too.
    return BihermitianForm(dim, r, support, den)


def _symbol(parsed: tuple, nvars: int | None) -> RealSymbol:
    rows, matrix, kinds, _, xmax = parsed
    if matrix:
        raise ParseError("real symbols are scalar, not matrices", 0)
    if kinds - {"x"}:
        raise ParseError("real symbols use only x variables", 0)
    dim = max(xmax, nvars or 1)
    terms = {}
    for key, (re, im, den) in rows[0][0].items():
        if im:
            raise ParseError("real symbols need real coefficients", 0)
        terms[_exponents(key, dim)[0]] = Fraction(re, den)
    return RealSymbol.from_terms(dim, terms)


def parse_expression(text: str, n: int | None = None) -> BihermitianForm:
    """Parse an expression (or bracketed matrix) in z/zb variables into a
    BihermitianForm.  The ambient dimension is the largest variable index
    seen, or `n` if larger.
    """
    return _kernel(_parse(text), n)


def parse_real_symbol(text: str, nvars: int | None = None) -> RealSymbol:
    """Parse an expression in x1..xm into a RealSymbol with rational coefficients."""
    return _symbol(_parse(text), nvars)


def parse_symbol(text: str, n: int | None = None) -> RealSymbol | BihermitianForm:
    """Parse once what parse_real_symbol takes when the text uses only x
    variables, else what parse_expression takes."""
    parsed = _parse(text)
    return _symbol(parsed, n) if parsed[2] == {"x"} else _kernel(parsed, n)
