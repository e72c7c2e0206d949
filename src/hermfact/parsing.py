"""Expression front-end for kernels, holomorphic matrices, and real symbols.

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
nonnegative integer exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .hermform import BihermitianForm, HoloPolyMatrix
from .scalars import ONE, GaussianRational, as_gaussian
from .symbols import RealSymbol


class ParseError(ValueError):
    """Syntax or semantic error in an input expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<var>(?:zb|z|x)[0-9]+)"
    r"|(?P<imag>i\b)"
    r"|(?P<op>[-+*^(),\[\]])"
    r")"
)


@dataclass
class _Token:
    kind: str
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            if stripped[0] == ".":
                raise ParseError("non-rational literal", at)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        pos = match.end()
        for kind in ("number", "var", "imag", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


# A parsed polynomial maps a sorted tuple of ((kind, index), exponent) pairs to
# a Gaussian-rational coefficient; kind is "z", "zb", or "x" and index is >= 1.
_MonoKey = tuple[tuple[tuple[str, int], int], ...]
_ExprPoly = dict[_MonoKey, GaussianRational]


def _poly_const(c: GaussianRational) -> _ExprPoly:
    return {(): c} if c else {}

def _poly_add_into(out: _ExprPoly, q: _ExprPoly) -> None:
    for key, c in q.items():
        acc = out.get(key)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc

def _poly_scale(p: _ExprPoly, c: GaussianRational) -> _ExprPoly:
    if c.is_zero():
        return {}
    return {key: v * c for key, v in p.items()}

def _mono_mul(a: _MonoKey, b: _MonoKey) -> _MonoKey:
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))

def _coeff_mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    # Most factors of a typed term are bare variables with coefficient 1.
    if a == ONE:
        return b
    return a if b == ONE else a * b

def _poly_mul(p: _ExprPoly, q: _ExprPoly) -> _ExprPoly:
    out: _ExprPoly = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = _mono_mul(ka, kb)
            acc = out.get(key)
            prod = _coeff_mul(ca, cb)
            acc = prod if acc is None else acc + prod
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out

def _poly_pow(p: _ExprPoly, e: int) -> _ExprPoly:
    if e == 0:
        return _poly_const(ONE)
    if len(p) == 1:
        # A single term: scale its exponents and power its coefficient once.
        ((key, c),) = p.items()
        return {tuple((var, k * e) for var, k in key): c if c == ONE else c**e}
    out = None
    while True:
        if e & 1:
            out = p if out is None else _poly_mul(out, p)
        e >>= 1
        if not e:
            return out
        p = _poly_mul(p, p)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.cursor = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect(self, value: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.value != value:
            raise ParseError(f"expected {value!r}", token.position)
        return self.advance()

    def parse_input(self):
        token = self.peek()
        if token.kind == "op" and token.value == "[":
            rows = self.parse_matrix()
            self.expect_end()
            return rows
        poly = self.parse_expr()
        self.expect_end()
        return poly

    def expect_end(self) -> None:
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing input {token.value!r}", token.position)

    def parse_matrix(self) -> list[list[_ExprPoly]]:
        self.expect("[")
        rows = [self.parse_row()]
        while self.peek().value == "," and self.peek().kind == "op":
            self.advance()
            rows.append(self.parse_row())
        self.expect("]")
        return rows

    def parse_row(self) -> list[_ExprPoly]:
        self.expect("[")
        entries = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().value == ",":
            self.advance()
            entries.append(self.parse_expr())
        self.expect("]")
        return entries

    def parse_expr(self) -> _ExprPoly:
        poly: _ExprPoly = {}
        _poly_add_into(poly, self.parse_term())
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in "+-":
                self.advance()
                rhs = self.parse_term()
                if token.value == "-":
                    rhs = _poly_scale(rhs, as_gaussian(-1))
                _poly_add_into(poly, rhs)
            else:
                return poly

    def parse_term(self) -> _ExprPoly:
        poly = self.parse_signed()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value == "*":
                self.advance()
                poly = _poly_mul(poly, self.parse_signed())
            else:
                return poly

    def parse_signed(self) -> _ExprPoly:
        sign = 1
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in "+-":
                self.advance()
                if token.value == "-":
                    sign = -sign
            else:
                break
        poly = self.parse_power()
        if sign < 0:
            poly = _poly_scale(poly, as_gaussian(-1))
        return poly

    def parse_power(self) -> _ExprPoly:
        poly = self.parse_atom()
        token = self.peek()
        if token.kind == "op" and token.value == "^":
            self.advance()
            exponent = self.peek()
            if exponent.kind != "number" or "/" in exponent.value:
                raise ParseError("exponent must be a nonnegative integer", exponent.position)
            self.advance()
            poly = _poly_pow(poly, int(exponent.value))
        return poly

    def parse_atom(self) -> _ExprPoly:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            if "/" in token.value:
                num, den = token.value.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", token.position)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(token.value))
            return _poly_const(as_gaussian(value))
        if token.kind == "imag":
            self.advance()
            return _poly_const(GaussianRational(Fraction(0), Fraction(1)))
        if token.kind == "var":
            self.advance()
            kind = "zb" if token.value.startswith("zb") else token.value[0]
            index = int(token.value[len(kind) :])
            if index < 1:
                raise ParseError(f"unknown variable {token.value!r}", token.position)
            return {(((kind, index), 1),): as_gaussian(1)}
        if token.kind == "op" and token.value == "(":
            self.advance()
            poly = self.parse_expr()
            self.expect(")")
            return poly
        raise ParseError(f"unexpected token {token.value!r}", token.position)


def _classify(polys: list[_ExprPoly]) -> tuple[set[str], int, int]:
    kinds = set()
    zmax = 0
    xmax = 0
    for poly in polys:
        for key in poly:
            for (kind, index), _ in key:
                kinds.add(kind)
                if kind == "x":
                    xmax = max(xmax, index)
                else:
                    zmax = max(zmax, index)
    return kinds, zmax, xmax


def _poly_to_form_terms(poly: _ExprPoly, i: int, j: int, n: int):
    for key, coeff in poly.items():
        alpha = [0] * n
        beta = [0] * n
        for (kind, index), e in key:
            if kind == "z":
                alpha[index - 1] += e
            else:
                beta[index - 1] += e
        yield (i, j, tuple(alpha), tuple(beta)), coeff


def parse_expression(text: str, n: int | None = None, want: str = "form"):
    """Parse an expression (or bracketed matrix) into an exact object.

    want = "form" yields a BihermitianForm in z/zb variables; want = "holo"
    yields a HoloPolyMatrix and rejects conjugated variables.  The ambient
    dimension is the largest variable index seen, or `n` if larger.
    """
    parsed = _Parser(text).parse_input()
    rows = parsed if isinstance(parsed, list) else [[parsed]]
    flat = [p for row in rows for p in row]
    kinds, zmax, _ = _classify(flat)
    if "x" in kinds:
        raise ParseError("x variables belong to real symbols, not kernels", 0)
    dim = max(zmax, n or 1)
    if want == "holo":
        if "zb" in kinds:
            raise ParseError("holomorphic matrices cannot contain zb variables", 0)
        polys = [
            [dict(_mono_to_alpha(poly, dim)) for poly in row] for row in rows
        ]
        return HoloPolyMatrix.from_rows(dim, polys)
    if want != "form":
        raise ValueError(f"unknown parse target {want!r}")
    r = len(rows)
    for row in rows:
        if len(row) != r:
            raise ParseError("kernel matrices must be square", 0)
    terms = []
    for i in range(r):
        for j in range(r):
            terms.extend(_poly_to_form_terms(rows[i][j], i, j, dim))
    return BihermitianForm.from_terms(dim, r, terms)


def _mono_to_alpha(poly: _ExprPoly, n: int):
    for key, coeff in poly.items():
        alpha = [0] * n
        for (kind, index), e in key:
            alpha[index - 1] += e
        yield tuple(alpha), coeff


def parse_real_symbol(text: str, nvars: int | None = None) -> RealSymbol:
    """Parse an expression in x1..xm into a RealSymbol with rational coefficients."""
    parsed = _Parser(text).parse_input()
    if isinstance(parsed, list):
        raise ParseError("real symbols are scalar, not matrices", 0)
    kinds, _, xmax = _classify([parsed])
    if kinds - {"x"}:
        raise ParseError("real symbols use only x variables", 0)
    dim = max(xmax, nvars or 1)
    terms = {}
    for key, coeff in parsed.items():
        if coeff.im != 0:
            raise ParseError("real symbols need real coefficients", 0)
        alpha = [0] * dim
        for (kind, index), e in key:
            alpha[index - 1] += e
        terms[tuple(alpha)] = coeff.re
    return RealSymbol.from_terms(dim, terms)


def uses_real_variables(text: str) -> bool:
    """Cheap dispatch helper: does the expression mention any x variable?"""
    parsed = _Parser(text).parse_input()
    rows = parsed if isinstance(parsed, list) else [[parsed]]
    kinds, _, _ = _classify([p for row in rows for p in row])
    return kinds == {"x"} or (kinds and kinds <= {"x"})


def _format_coefficient(c: GaussianRational, lead: bool) -> str:
    if c.im == 0:
        body = str(c.re)
        if body.startswith("-"):
            return body if lead else f"- {body[1:]}"
        return body if lead else f"+ {body}"
    sign = "+" if c.im > 0 else "-"
    body = f"({c.re} {sign} {abs(c.im)}*i)"
    return body if lead else f"+ {body}"


def _format_monomial(alpha, beta) -> str:
    parts = []
    for k, a in enumerate(alpha):
        if a:
            parts.append(f"z{k + 1}" + (f"^{a}" if a > 1 else ""))
    for k, b in enumerate(beta):
        if b:
            parts.append(f"zb{k + 1}" + (f"^{b}" if b > 1 else ""))
    return "*".join(parts)


def _mono_sort_key(alpha, beta):
    return (
        sum(alpha) + sum(beta),
        tuple(-a for a in alpha),
        tuple(-b for b in beta),
    )


def format_scalar_entry(form: BihermitianForm, i: int, j: int) -> str:
    keys = sorted(
        (key for key in form.support if key[0] == i and key[1] == j),
        key=lambda key: _mono_sort_key(key[2], key[3]),
    )
    if not keys:
        return "0"
    chunks = []
    for pos, key in enumerate(keys):
        coeff = form.support[key]
        mono = _format_monomial(key[2], key[3])
        text = _format_coefficient(coeff, lead=(pos == 0))
        if mono:
            if coeff == as_gaussian(1):
                text = mono if pos == 0 else f"+ {mono}"
            elif coeff == as_gaussian(-1):
                text = f"-{mono}" if pos == 0 else f"- {mono}"
            else:
                text = f"{text}*{mono}"
        chunks.append(text)
    return " ".join(chunks)


def format_form(form: BihermitianForm) -> str:
    """Deterministic text rendering; parsing it back reproduces the form."""
    if form.r == 1:
        return format_scalar_entry(form, 0, 0)
    rows = []
    for i in range(form.r):
        entries = [format_scalar_entry(form, i, j) for j in range(form.r)]
        rows.append("[" + ", ".join(entries) + "]")
    return "[" + ", ".join(rows) + "]"
