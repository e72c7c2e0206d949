"""Gaussian rationals: complex numbers with exact rational real and imaginary parts.

Every certificate in this package is a statement about matrices over this
field, so all arithmetic here must be closed and exact.  Floats never enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import itemgetter, or_


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """re + im*i with Fraction parts, always in lowest terms.

    >>> (GaussianRational(1, 1) * GaussianRational(1, -1)).re
    Fraction(2, 1)
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus |z|^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def inverse(self) -> "GaussianRational":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / d, -self.im / d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x))
    return NotImplemented


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    c = _coerce(x)
    if c is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return c


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))


@dataclass(eq=True, slots=True)
class GaussianRow:
    """The vector (re[j] + i*im[j]) / den over int lists, den > 0, a dense
    exact row.  `from_entries` gives it in lowest terms; the elimination's
    working rows (`certify._eliminate`) are not: their numerators are at the
    scale of a leading principal minor, so rows compare by their fields, not
    by the vectors they hold.  `swap` changes a row in place."""

    re: list[int]
    im: list[int]
    den: int = 1

    @classmethod
    def from_entries(cls, n: int, entries) -> "GaussianRow":
        """The length-n row with GaussianRational c at j for each (j, c), else 0."""
        entries = list(entries)
        den = lcm(*(d for _, c in entries for d in (c.re.denominator, c.im.denominator)))
        # Scaling by the lcm of the denominators leaves content 1: lowest terms.
        re, im = [0] * n, [0] * n
        for j, c in entries:
            re[j] = c.re.numerator * (den // c.re.denominator)
            im[j] = c.im.numerator * (den // c.im.denominator)
        return cls(re, im, den)

    def swap(self, k: int, t: int) -> None:
        re, im = self.re, self.im
        re[k], re[t] = re[t], re[k]
        im[k], im[t] = im[t], im[k]


def nonzero_indices(re: list[int], im: list[int], start: int = 0) -> list[int]:
    """The j >= start with re[j] or im[j] nonzero, ascending; for ints,
    x | y is 0 exactly when both are."""
    if start:
        re, im = re[start:], im[start:]
    return list(compress(range(start, start + len(re)), map(or_, re, im)))


@dataclass(frozen=True, slots=True)
class SparseRow:
    """The vector with entry (re + i*im) / den at j for each (j, re, im) in
    `entries`, and 0 elsewhere: Gaussian-integer numerators over one
    denominator den > 0, nonzero entries only, j ascending."""

    entries: tuple[tuple[int, int, int], ...]
    den: int = 1

    @classmethod
    def from_entries(cls, entries) -> "SparseRow":
        """The row with GaussianRational c at j for each (j, c), j distinct;
        zeros are dropped and the rest cleared over the lcm of their
        denominators, which leaves the row in lowest terms."""
        entries = sorted(((j, c) for j, c in entries if c), key=itemgetter(0))
        den = lcm(*(d for _, c in entries for d in (c.re.denominator, c.im.denominator)))
        return cls(tuple((j, c.re.numerator * (den // c.re.denominator),
                          c.im.numerator * (den // c.im.denominator)) for j, c in entries), den)

    @classmethod
    def lowest(cls, entries, den: int) -> "SparseRow":
        """The row of (j, re, im) numerators over den != 0, kept in their
        order, brought to lowest terms, den > 0, by one gcd; a row already so
        is kept as given."""
        entries = tuple(entries)
        g = gcd(den, *(x for _, re, im in entries for x in (re, im))) * (-1 if den < 0 else 1)
        if g == 1:
            return cls(entries, den)
        return cls(tuple((j, x // g, y // g) for j, x, y in entries), den // g)


def outer_product_terms(terms) -> tuple[list[tuple[int, tuple]], int]:
    """The terms w_k c_k c_k^adj of (w_k, c_k) in `terms`, a rational weight
    and a SparseRow each, over one integer denominator: ([(num_k, entries of
    c_k), ...], common) with w_k c_k c_k^adj = num_k / common times the outer
    product of c_k's integer numerators.  Zero terms are left out."""
    scaled = []
    common = 1
    for w, c in terms:
        if c.entries and w:
            # w_k c_k c_k^adj = (w_k / den^2) times the integer outer product
            scale = Fraction(w) if c.den == 1 else Fraction(w) / (c.den * c.den)
            common = lcm(common, scale.denominator)
            scaled.append((scale.numerator, scale.denominator, c.entries))
    return [(num * (common // den), nz) for num, den, nz in scaled], common


def outer_product_sum(re: list[dict[int, int]], im: list[dict[int, int]], terms,
                      factor: int) -> None:
    """Add factor * num_k * n_k n_k^adj, for each (num_k, n_k) of
    `outer_product_terms`, into the dict rows re, im over each n_k's support,
    entry (p, q) at re[p][q] + i*im[p][q], an absent column 0.  The sum is
    Hermitian, so only the upper triangle, q >= p, is added to; a sum that
    cancels leaves a stored 0."""
    for num, nz in terms:
        num *= factor
        # the entries ascend, so (p, q) with q from nz[t:] lies on or above the diagonal
        for t, (p, x, y) in enumerate(nz):
            nx, ny, re_p, im_p = num * x, num * y, re[p], im[p]
            for q, u, v in nz[t:]:
                re_p[q] = re_p.get(q, 0) + nx * u + ny * v
                im_p[q] = im_p.get(q, 0) + ny * u - nx * v
