"""Constant-coefficient principal symbols on R^(2n) and ellipticity certification.

The real coordinates pair up as x_j = (z_j + zbar_j)/2 and
y_j = (z_j - zbar_j)/(2i), turning an even-order real symbol into a scalar
Hermitian kernel.  When that kernel is circle-invariant and real-homogeneous
(i.e. bihomogeneous), ellipticity is certified constructively: the search for
a spanning holomorphic factorization of a norm-power multiple either succeeds
at some exponent d, or exhausts the bound.  An exact zero (or a sign change)
of the symbol on the unit sphere, found by exact rational sampling, upgrades
the negative outcome to a definite "not elliptic".  The two run interleaved
and stop at the first that decides: a factor proves the symbol positive on
the sphere, so sampling serves only a negative answer, and a search through
steps that cannot pass, such as those of a sign-changing symbol whose M_d
all have positive diagonals, is cut short by the first zero or sign pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm

from .hermform import (
    MAX_MATRIX_SIZE,
    BihermitianForm,
    bidegree,
    checked_bidegree,
    matrix_size,
    scale,
)
from .multiindex import MultiIndex, check_multiindex, degree
from .scalars import GaussianRational, GaussianRow
from .stabilize import StabilizationReport, search_steps


@dataclass(eq=True)
class RealSymbol:
    """Polynomial with rational coefficients in the real variables x1..x_nvars."""

    nvars: int
    terms: dict[MultiIndex, Fraction]

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "RealSymbol":
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if hasattr(terms, "items") else terms
        out: dict[MultiIndex, Fraction] = {}
        for alpha, coeff in items:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            alpha = check_multiindex(alpha)
            if len(alpha) != nvars:
                raise ValueError("exponent length differs from the variable count")
            acc = out.get(alpha, Fraction(0)) + coeff
            if acc == 0:
                out.pop(alpha, None)
            else:
                out[alpha] = acc
        return cls(nvars, out)

    def order(self) -> int:
        return max((degree(a) for a in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {degree(a) for a in self.terms}
        return len(degrees) <= 1


def _pair_coefficients(a: int, b: int) -> tuple[int, ...]:
    """c[u], the integer coefficient of z^u zbar^(a+b-u) in (z + zbar)^a (z - zbar)^b."""
    out = [0] * (a + b + 1)
    for s in range(a + 1):
        for t in range(b + 1):
            out[s + t] += comb(a, s) * comb(b, t) * (-1) ** (b - t)
    return tuple(out)


def real_to_complex(symbol: RealSymbol) -> BihermitianForm:
    """Rewrite a real symbol in the paired complex coordinates, exactly.

    Variables x_(2j-1), x_(2j) become the real and imaginary parts of z_j; the
    output is a scalar kernel, Hermitian-symmetric because the input has real
    coefficients.  Requires an even variable count.

    For each pair, x^a y^b = (-i)^b 2^-(a+b) (z + zbar)^a (z - zbar)^b, so a
    term is its coefficient times 2^-degree, cleared over one denominator for
    the whole symbol, times (-i)^(sum of the b), times one product of integer
    pair coefficients per monomial.
    """
    if symbol.nvars % 2 != 0:
        raise ValueError("real-to-complex conversion needs an even variable count")
    scales = {e: c / 2 ** degree(e) for e, c in symbol.terms.items()}
    den = lcm(*(c.denominator for c in scales.values()))
    acc: dict[tuple[MultiIndex, MultiIndex], list[int]] = {}
    for exponents, c in scales.items():
        partial = {((), ()): c.numerator * (den // c.denominator)}
        for a, b in zip(exponents[0::2], exponents[1::2]):
            partial = {(alpha + (u,), beta + (a + b - u,)): x * cu for (alpha, beta), x in
                       partial.items() for u, cu in enumerate(_pair_coefficients(a, b)) if cu}
        # (-i)^k is 1, -i, -1, i: the part and sign it sends a real x to
        k = sum(exponents[1::2]) % 4
        for key, x in partial.items():
            parts = acc.setdefault(key, [0, 0])
            parts[k % 2] += -x if k in (1, 2) else x
    return BihermitianForm.lowest(symbol.nvars // 2, 1, {
        (0, 0, alpha, beta): tuple(parts) for (alpha, beta), parts in acc.items()}, den)


def _stereographic(params) -> tuple[tuple[int, ...], int]:
    """The unit-sphere point of 2n-1 stereographic parameters (num, den), as
    2n integer numerators over one positive denominator, in lowest terms.

    With the parameters P / L over one denominator L, the point is
    (2*P_1*L, ..., 2*P_(2n-1)*L, |P|^2 - L^2) / (L^2 + |P|^2).
    """
    common = lcm(*(den for _, den in params))
    scaled = [num * (common // den) for num, den in params]
    norm2, common2 = sum(p * p for p in scaled), common * common
    nums = [2 * common * p for p in scaled]
    nums.append(norm2 - common2)
    den = common2 + norm2
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def _sphere_point(nums: tuple[int, ...], den: int) -> tuple[GaussianRational, ...]:
    """The point of C^n whose real coordinates are nums / den."""
    return tuple(
        GaussianRational(Fraction(nums[2 * k], den), Fraction(nums[2 * k + 1], den))
        for k in range(len(nums) // 2)
    )


_GRID = ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2))


def _sphere_numerators(n: int, extra: int = 60, seed: int = 7):
    """The points of `sphere_sample_points` as reduced (numerators, den),
    generated lazily, in the same order and without repeats."""
    seen = set()

    def candidates():
        for k in range(n):
            nums = [0] * (2 * n)
            nums[2 * k] = 1
            yield tuple(nums), 1
        m = 2 * n - 1
        for i in range(m):
            for j in range(i, m):
                for vi in _GRID:
                    for vj in _GRID:
                        w = [(0, 1)] * m
                        w[i], w[j] = vi, vj
                        yield _stereographic(w)
        rng = random.Random(seed)
        for _ in range(extra):
            yield _stereographic([(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)])

    for point in candidates():
        if point not in seen:
            seen.add(point)
            yield point


def sphere_sample_points(n: int, extra: int = 60, seed: int = 7) -> list[tuple[GaussianRational, ...]]:
    """Deterministic exact sphere points: axes, a small grid, and seeded samples."""
    return [_sphere_point(nums, den) for nums, den in _sphere_numerators(n, extra, seed)]


@dataclass(eq=True)
class EllipticityReport:
    form: BihermitianForm
    verdict: str  # "certified", "not_certified", or "not_elliptic"
    d: int | None
    witness_point: tuple[GaussianRational, ...] | None
    sign_pair: tuple[tuple[GaussianRational, ...], tuple[GaussianRational, ...]] | None
    stabilization: StabilizationReport | None


def _sample_symbol(form: BihermitianForm):
    """Exact sphere sampling, one point at a time, up to the first decisive
    point: yields None at each sample point that proves nothing and, at the
    first that proves the symbol not elliptic, its evidence, then stops.
    That point is an exact zero, evidence (point, None), or the first point
    of the second sign seen, evidence (None, (pos_point, neg_point)) with the
    first point of each sign: exact values of opposite sign on the connected
    unit sphere force a zero.  A walk that meets neither yields None at
    every point.

    Points are evaluated at their Gaussian-integer numerators q over their
    denominator D, in the form's numerators (`BihermitianForm.numerators`);
    only the evidence points become GaussianRationals.
    """
    first = {}  # sign, +1 or -1 -> the first point of that sign
    for nums, den in _sphere_numerators(form.n):
        q = GaussianRow(list(nums[0::2]), list(nums[1::2]), den)
        re, im, _ = form.numerators(q, q)
        if im[0] != 0:
            raise ValueError("kernel is not real-valued on the diagonal")
        # certify_elliptic_form has checked that the form is bihomogeneous of
        # some bidegree m, so re[0] is form.den * F(q), and the value at
        # the sphere point is F(q / den) = F(q) / den^(2m): with both
        # denominators positive, it has the sign of re[0].
        sign = (re[0] > 0) - (re[0] < 0)
        if not sign:
            yield _sphere_point(nums, den), None
            return
        first.setdefault(sign, (nums, den))
        if -sign in first:
            yield None, (_sphere_point(*first[1]), _sphere_point(*first[-1]))
            return
        yield None


def _require_size(n: int, m: int) -> None:
    """M_0 of a symbol of bidegree m in n variables within the size bound
    (`matrix_size`), and so m <= 1023 from two variables on; in one, where
    M_0 has one row but a point's value takes m powers, m <= 1023 too."""
    if n == 1 and m >= MAX_MATRIX_SIZE:
        raise ValueError(f"a symbol in one variable has bidegree {m}, more than the "
                         f"{MAX_MATRIX_SIZE - 1} allowed")
    matrix_size(n, 1, m)


def require_symbol(form: BihermitianForm) -> None:
    """The preconditions of ellipticity certification, which `verify` checks
    too: a scalar, Hermitian-symmetric kernel of one bidegree within the
    size bound (`_require_size`), checked before the sphere is sampled."""
    if form.r != 1:
        raise ValueError("ellipticity certification handles scalar symbols only")
    _require_size(form.n, checked_bidegree(form))


def searched_form(form: BihermitianForm) -> BihermitianForm:
    """The symbol F, or -F when F's coefficient of z1^m zb1^m, its value at
    e_1, is negative: of F and -F, the one that can be positive on the unit
    sphere, and so the one certification searches and `verify` checks."""
    m = bidegree(form)
    e1 = (m,) + (0,) * (form.n - 1)
    return scale(form, -1) if form.support.get((0, 0, e1, e1), (0, 0))[0] < 0 else form


def certify_elliptic_form(form: BihermitianForm, d_max: int) -> EllipticityReport:
    """Core ellipticity certification for a scalar complex-bihomogeneous kernel.

    The strict search on `searched_form(form)` and the sphere walk
    (`_sample_symbol`) run together, and the first to decide ends both:
    after each failing step d the walk takes as many points as M_d has
    rows, and once the search ends without a factor the walk runs to its
    end.  Neither can decide against the other: a factor proves the symbol
    positive on the sphere, where no point is a zero or of the wrong sign,
    and such a point proves that no search passes.  So the verdict and its
    evidence do not depend on the interleaving: only the work does.  A
    symbol certified at d samples at most as many points as M_0, ..., M_(d-1)
    have rows, and the search of one that is not elliptic stops at the step
    whose points reach the walk's decisive point.
    """
    require_symbol(form)
    walk = _sample_symbol(form)
    for report in search_steps(searched_form(form), "strict", d_max):
        if report.found():
            return EllipticityReport(form, "certified", report.d_min, None, None, report)
        evidence = next(filter(None, islice(walk, report.steps[-1].size)), None)
        if evidence is not None:
            break
    else:  # the search is over and found nothing: the walk runs to its end
        evidence = next(filter(None, walk), None)
        if evidence is None:
            return EllipticityReport(form, "not_certified", None, None, None, report)
    return EllipticityReport(form, "not_elliptic", None, *evidence, None)


def certify_elliptic(symbol: RealSymbol, d_max: int) -> EllipticityReport:
    """Certify ellipticity of an even-order homogeneous real symbol.

    Raises ValueError when the symbol is inhomogeneous, of odd order or odd
    variable count, when its complex form is not bihomogeneous, or when that
    form (nvars / 2 variables, bidegree order / 2) is past the size bound
    (`_require_size`), which is checked before the conversion, whose work
    grows with the square of nvars and with the order.
    """
    if not symbol.is_homogeneous():
        raise ValueError("principal symbol must be homogeneous")
    if symbol.order() % 2 != 0:
        raise ValueError("principal symbol must have even order")
    _require_size(symbol.nvars // 2, symbol.order() // 2)
    form = real_to_complex(symbol)
    return certify_elliptic_form(form, d_max)


def format_diff_operator_row(row, weight: Fraction | None = None) -> str:
    """Render a holomorphic row as a constant-coefficient d/dz operator."""
    parts = []
    for poly in row:
        for alpha in sorted(poly, key=lambda a: tuple(-x for x in a)):
            coeff = poly[alpha]
            mono = "".join(
                f"Dz{k + 1}" + (f"^{a}" if a > 1 else "")
                for k, a in enumerate(alpha)
                if a > 0
            )
            mono = mono or "1"
            parts.append(f"({coeff})*{mono}")
    body = " + ".join(parts) if parts else "0"
    if weight is not None and weight != 1:
        return f"[weight {weight}] {body}"
    return body
