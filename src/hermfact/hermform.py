"""Hermitian polynomial kernels F(z, wbar), holomorphic polynomial matrices, and
their exact coefficient matrices.

A kernel is stored sparsely as a map (i, j, alpha, beta) -> (re, im) for the
term F_ij contributing ((re + i*im) / den) * z^alpha * wbar^beta, with one
denominator den for the whole kernel.  Row/column indices i, j are 0-based
internally.  A kernel is *bihomogeneous of bidegree m* when every stored term
has |alpha| = |beta| = m.  The basis of a coefficient matrix is the tuple of
the monomials of one degree (`coefficient_basis`): for a kernel of mixed
degrees, those of its homogenization, all up to the largest degree present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import itemgetter

from .multiindex import (
    MultiIndex,
    check_multiindex,
    degree,
    dim_homogeneous,
    enumerate_degree,
)
from .scalars import (
    ZERO,
    GaussianRational,
    GaussianRow,
    SparseRow,
    as_gaussian,
    outer_product_sum,
    outer_product_terms,
)

TermKey = tuple[int, int, MultiIndex, MultiIndex]
Poly = dict[MultiIndex, GaussianRational]


@dataclass(eq=True)
class BihermitianForm:
    """Sparse r-by-r matrix of polynomials in (z, wbar): the coefficient of
    the term key (i, j, alpha, beta) in `support` is (re + i*im) / den for
    its numerator pair (re, im), den > 0.  The form is kept in lowest terms
    (`lowest`): no (0, 0) pair, and no factor common to den and every
    numerator, so forms compare by their fields.  The constructor trusts its
    terms; `read` and `from_terms` are the checked entry points, and
    `mirrored` takes terms its caller has checked.  Treated as immutable:
    what evaluation reads is built once, on first use."""

    n: int
    r: int
    support: dict[TermKey, tuple[int, int]]
    den: int

    @classmethod
    def read(cls, n: int, r: int, terms) -> "BihermitianForm":
        """The checked reader of outside terms: the form of (i, j, alpha, beta,
        x, qx, y, qy), each with coefficient x/qx + i*y/qy, qx, qy > 0.  Every
        key is checked, and the terms are cleared over the lcm of their
        denominators, terms of one key added up and zeros dropped."""
        if n < 1 or r < 1:
            raise ValueError("dimension and matrix size must be >= 1")
        checked = []
        for i, j, alpha, beta, x, qx, y, qy in terms:
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"matrix index out of range: ({i}, {j})")
            alpha, beta = check_multiindex(alpha), check_multiindex(beta)
            if len(alpha) != n or len(beta) != n:
                raise ValueError("multi-index length differs from ambient dimension")
            checked.append(((i, j, alpha, beta), x, qx, y, qy))
        den = lcm(*(q for *_, qx, _, qy in checked for q in (qx, qy)))
        support: dict[TermKey, tuple[int, int]] = {}
        for key, x, qx, y, qy in checked:
            if x or y:
                re, im = support.get(key, (0, 0))
                support[key] = re + x * (den // qx), im + y * (den // qy)
        return cls.lowest(n, r, support, den)

    @classmethod
    def from_terms(cls, n: int, r: int, terms) -> "BihermitianForm":
        """Build a form from (i, j, alpha, beta) -> coefficient items, read as
        `read` reads them: terms of one key add up, zeros drop."""
        items = terms.items() if hasattr(terms, "items") else terms
        return cls.read(n, r, ((*key, *_ratios(as_gaussian(c))) for key, c in items))

    @classmethod
    def lowest(cls, n: int, r: int, support: dict[TermKey, tuple[int, int]], den: int
               ) -> "BihermitianForm":
        """The form of the numerator pairs `support` over den > 0, a (0, 0)
        pair dropped and brought to lowest terms by one gcd."""
        g = gcd(den, *chain.from_iterable(support.values()))
        return cls(n, r, {key: (x // g, y // g) for key, (x, y) in support.items() if x or y},
                   den // g)

    @classmethod
    def mirrored(cls, n: int, r: int, keys, values, den: int) -> "BihermitianForm":
        """The form with coefficient (x + i*y) / den at each key (i, j,
        alpha, beta) of `keys` and its conjugate at the twin key (j, i, beta,
        alpha), for (x, y) in `values`: Hermitian-symmetric by construction.
        The caller has checked the keys, one per conjugate pair, y = 0 where
        a key is its own twin, and lowest terms."""
        keys = list(keys)
        support = dict(zip([(j, i, beta, alpha) for i, j, alpha, beta in keys],
                           [(x, -y) for x, y in values]))
        support.update(zip(keys, values))
        return cls(n, r, support, den)

    @classmethod
    def zero(cls, n: int, r: int = 1) -> "BihermitianForm":
        return cls(n, r, {}, 1)

    def coefficient(self, i: int, j: int, alpha, beta) -> GaussianRational:
        x, y = self.support.get((i, j, tuple(alpha), tuple(beta)), (0, 0))
        return GaussianRational(Fraction(x, self.den), Fraction(y, self.den))

    @cached_property
    def _evaluation(self) -> tuple:
        """What evaluation reads, built once per form: the largest degrees
        deg_z and deg_w of the alphas and betas; each term as (i, j, alpha,
        beta, re, im, pad_z, pad_w), where pad_z = deg_z - |alpha| and
        pad_w = deg_w - |beta| lift it to those degrees, so that every term of
        a value shares one denominator (a bihomogeneous form has no pads);
        and the distinct alphas and betas."""
        support = self.support
        deg_z = max((degree(alpha) for _, _, alpha, _ in support), default=0)
        deg_w = max((degree(beta) for _, _, _, beta in support), default=0)
        terms = tuple((i, j, alpha, beta, x, y, deg_z - degree(alpha), deg_w - degree(beta))
                      for (i, j, alpha, beta), (x, y) in support.items())
        alphas = tuple(dict.fromkeys(alpha for _, _, alpha, _ in support))
        betas = tuple(dict.fromkeys(beta for _, _, _, beta in support))
        return deg_z, deg_w, terms, alphas, betas

    def numerators(self, z: GaussianRow, w: GaussianRow) -> tuple[list[int], list[int], int]:
        """F(z, wbar) in ints, as (re, im, den): entry (i, j) has real part
        re[k] / den and imaginary part im[k] / den, k = i*r + j, where
        den = self.den * z.den^deg_z * w.den^deg_w > 0."""
        deg_z, deg_w, terms, alphas, betas = self._evaluation
        if z == w:
            zm = wm = _monomial_values(z, dict.fromkeys(alphas + betas))
        else:
            zm, wm = _monomial_values(z, alphas), _monomial_values(w, betas)
        r = self.r
        re, im = [0] * (r * r), [0] * (r * r)
        for i, j, alpha, beta, cr, ci, pad_z, pad_w in terms:
            ar, ai = zm[alpha]
            br, bi = wm[beta]
            # c * z^alpha * conj(w^beta)
            xr, xi = ar * br + ai * bi, ai * br - ar * bi
            tr, ti = cr * xr - ci * xi, cr * xi + ci * xr
            if pad_z or pad_w:
                pad = z.den ** pad_z * w.den ** pad_w
                tr, ti = tr * pad, ti * pad
            k = i * r + j
            re[k] += tr
            im[k] += ti
        return re, im, self.den * z.den ** deg_z * w.den ** deg_w


def _ratios(c: GaussianRational) -> tuple[int, int, int, int]:
    """(x, qx, y, qy) with c = x/qx + i*y/qy."""
    return c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator


@dataclass(eq=True)
class HoloPolyMatrix:
    """s-by-r matrix of holomorphic polynomials, with optional positive row weights.

    Row weights scale each row's rank-one contribution in `gram`; they are kept
    as exact rationals so that square roots never enter the exact pipeline.
    """

    n: int
    ncols: int
    rows: tuple[tuple[Poly, ...], ...]
    weights: tuple[Fraction, ...] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

@dataclass(eq=True)
class HermitianMatrix:
    """Hermitian matrix over the Gaussian rationals: entry (p, q) is
    (re[p][q] + i*im[p][q]) / den, den > 0, each row a dict over its columns,
    an absent column 0.  The rows are kept in lowest terms (`lowest`): no
    stored 0, and no factor common to den and every numerator, so matrices
    compare by their fields.  The constructor trusts its rows; `from_rows` is
    the checked entry point."""

    re: list[dict[int, int]]
    im: list[dict[int, int]]
    den: int

    @classmethod
    def lowest(cls, re: list[dict[int, int]], im: list[dict[int, int]], den: int
               ) -> "HermitianMatrix":
        """The matrix of the rows re, im over den > 0, a cancelled 0 dropped
        and brought to lowest terms by one gcd; rows already so are kept."""
        values = [*chain.from_iterable(map(dict.values, re)),
                  *chain.from_iterable(map(dict.values, im))]
        g = gcd(den, *values)
        if g == 1 and 0 not in values:
            return cls(re, im, den)
        return cls([{q: x // g for q, x in row.items() if x} for row in re],
                   [{q: y // g for q, y in row.items() if y} for row in im], den // g)

    @classmethod
    def from_rows(cls, rows) -> "HermitianMatrix":
        """The checked constructor: a square Hermitian array of scalars, else ValueError."""
        rows = [[as_gaussian(c) for c in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        den = lcm(*(q for row in rows for c in row for q in (c.re.denominator, c.im.denominator)))
        matrix = cls.lowest(
            [{q: c.re.numerator * (den // c.re.denominator) for q, c in enumerate(row)}
             for row in rows],
            [{q: c.im.numerator * (den // c.im.denominator) for q, c in enumerate(row)}
             for row in rows], den)
        defect = hermitian_defect(matrix)
        if defect is not None:
            raise ValueError(defect)
        return matrix

    @property
    def size(self) -> int:
        return len(self.re)

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The dense entries, derived from the rows."""
        out = []
        for p in range(self.size):
            row = [ZERO] * self.size
            for q in self.re[p].keys() | self.im[p].keys():
                row[q] = self.at(p, q)
            out.append(tuple(row))
        return tuple(out)

    def at(self, p: int, q: int) -> GaussianRational:
        x, y = self.re[p].get(q, 0), self.im[p].get(q, 0)
        return GaussianRational(Fraction(x, self.den), Fraction(y, self.den)) if x or y else ZERO

    def quadratic_value(self, v: SparseRow) -> int:
        """v^adj M v times the positive den * v.den^2, read off the rows and
        columns of v's nonzeros alone; M is Hermitian, so the value is real."""
        value = 0
        for p, a, b in v.entries:
            row_re, row_im = self.re[p], self.im[p]
            # (M v)_p = wr + i*wi, and conj(a + i*b) (wr + i*wi) has real part a*wr + b*wi
            wr = wi = 0
            for q, x, y in v.entries:
                r, i = row_re.get(q, 0), row_im.get(q, 0)
                wr += r * x - i * y
                wi += r * y + i * x
            value += a * wr + b * wi
        return value


def hermitian_defect(matrix: HermitianMatrix) -> str | None:
    """Why the matrix is not Hermitian, or None when it is.

    Only the nonzeros are visited; the rows share one denominator, so an
    entry is compared with its partner in ints.  The defect named is the
    first (k, l), l <= k, in row-major order whose entry is not the
    conjugate of the entry at (l, k).
    """
    re, im = matrix.re, matrix.im
    defects = [(max(k, l), min(k, l)) for k in range(len(re)) for l in re[k].keys() | im[k].keys()
               if re[k].get(l, 0) != re[l].get(k, 0) or im[k].get(l, 0) != -im[l].get(k, 0)]
    if not defects:
        return None
    k, l = min(defects)
    return (f"diagonal entry {k} is not real" if k == l
            else f"entries ({k},{l}) and ({l},{k}) are not conjugate")


def is_hermitian_symmetric(form: BihermitianForm) -> bool:
    """True iff coefficient(i, j, a, b) == conj(coefficient(j, i, b, a))
    throughout, compared in the numerators over the form's one denominator.

    Equivalent to F(z, zbar) taking Hermitian matrix values (real values for
    r = 1) at every point.
    """
    support = form.support
    return all(support.get((j, i, beta, alpha)) == (x, -y)
               for (i, j, alpha, beta), (x, y) in support.items())


def bidegree(form: BihermitianForm) -> int | None:
    """The common m with |alpha| = |beta| = m over all terms; None if mixed.

    The zero form is reported as bidegree 0.
    """
    keys = form.support.keys()
    degrees = set(map(sum, map(itemgetter(2), keys))) | set(map(sum, map(itemgetter(3), keys)))
    return None if len(degrees) > 1 else max(degrees, default=0)


def checked_bidegree(form: BihermitianForm) -> int:
    """The single bidegree of a Hermitian-symmetric form, the one check of
    both: a ValueError names the first condition that fails."""
    if not is_hermitian_symmetric(form):
        raise ValueError("form is not Hermitian-symmetric")
    m = bidegree(form)
    if m is None:
        raise ValueError("form has mixed bidegrees")
    return m


def scale(f: BihermitianForm, c) -> BihermitianForm:
    """c * f, with c = (cr + i*ci) / q over one denominator; the keys of f
    are checked already."""
    c = as_gaussian(c)
    q = lcm(c.re.denominator, c.im.denominator)
    cr, ci = c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator)
    return BihermitianForm.lowest(f.n, f.r, {
        key: (x * cr - y * ci, x * ci + y * cr) for key, (x, y) in f.support.items()}, f.den * q)


def gram(a: HoloPolyMatrix) -> BihermitianForm:
    """The r-by-r kernel F_ij(z, wbar) = sum_k w_k * A_ki(z) * conj(A_kj(w)).

    Row weights w_k default to 1.  The result is always Hermitian-symmetric,
    and its coefficient matrix is positive semidefinite by construction.

    Each (column i, monomial alpha) of the factor gets one index, each row k
    becomes one SparseRow c_k over those indices, and sum_k w_k c_k c_k* is
    summed in ints by `outer_product_sum` over `outer_product_terms`, its
    upper triangle only.
    """
    s, r = a.shape
    index: dict[tuple[int, MultiIndex], int] = {}
    for row in a.rows:
        for i, poly in enumerate(row):
            for alpha in poly:
                index.setdefault((i, alpha), len(index))
    size = len(index)
    weights = a.weights if a.weights is not None else (Fraction(1),) * s
    rows = (SparseRow.from_entries((index[(i, alpha)], coeff)
                                   for i, poly in enumerate(row) for alpha, coeff in poly.items())
            for row in a.rows)
    terms, common = outer_product_terms(zip(weights, rows))
    re, im = [{} for _ in range(size)], [{} for _ in range(size)]
    outer_product_sum(re, im, terms, 1)
    pairs = list(index)
    support: dict[TermKey, tuple[int, int]] = {}
    for p, (i, alpha) in enumerate(pairs):
        re_p, im_p = re[p], im[p]
        for q, x in re_p.items():
            j, beta = pairs[q]
            y = im_p[q]
            support[(i, j, alpha, beta)] = x, y
            support[(j, i, beta, alpha)] = x, -y
    return BihermitianForm.lowest(a.n, r, support, common)


# The largest coefficient matrix M_d that is built, M_0 included: a form names
# n, r and its degrees, and a report d, in a few bytes, while the basis, M_d,
# its blocks' working rows and its outer-product sum grow with them.  Apart
# from the tests of the bound, tests, CI and the benchmark build none past
# Q3's M_41, 990 rows, the largest of Q3's within it.
MAX_MATRIX_SIZE = 1024


def matrix_size(n: int, r: int, m: int, d: int = 0) -> int:
    """The size of M_d, the coefficient matrix of <z, w>^d F for a form F of
    bidegree m, r * dim_homogeneous(n, m + d), counted in closed form before
    any basis is enumerated; ValueError when it is over MAX_MATRIX_SIZE."""
    size = r * dim_homogeneous(n, m + d)
    if size > MAX_MATRIX_SIZE:
        raise ValueError(f"the coefficient matrix at d={d} has {size} rows, "
                         f"more than the {MAX_MATRIX_SIZE} allowed")
    return size


def coefficient_basis(form: BihermitianForm, d: int = 0) -> tuple[MultiIndex, ...]:
    """The monomials of M_d, the coefficient matrix of <z, w>^d F, in the
    order of their degree table (`enumerate_degree`), the one rule for every
    M_d: index j of M_d is (j // dim, monomials[j % dim]).  The form is
    checked (`checked_bidegree`), and the size (`matrix_size`) before any
    table is built.  The degree is m + d, or M_0's for the zero form; at
    d = 0 only, a symmetric form of mixed degrees up to cap has the table of
    its homogenization, degree cap in n + 1 variables, each monomial alpha
    with its leading pad cap - |alpha|, dropped here."""
    try:
        m = checked_bidegree(form)
    except ValueError:
        # only a symmetric form of mixed degrees has a basis past the check, at d = 0
        if d or not is_hermitian_symmetric(form):
            raise
        cap = max(sum(mono) for key in form.support for mono in key[2:])
        matrix_size(form.n + 1, form.r, cap)
        return tuple(alpha[1:] for alpha in enumerate_degree(form.n + 1, cap))
    d = d if form.support else 0
    matrix_size(form.n, form.r, m, d)
    return enumerate_degree(form.n, m + d)


def coefficient_matrix(form: BihermitianForm) -> tuple[HermitianMatrix, tuple[MultiIndex, ...]]:
    """M_0, the Hermitian matrix with M[(i,alpha)][(j,beta)] = coefficient(i,
    j, alpha, beta), and its monomials (`coefficient_basis`, which checks the
    form): row (i, alpha) sits at i * dim + the rank of alpha among them,
    its rank in their degree table.  Its rows are the form's numerators over
    its denominator: a form in lowest terms gives a matrix in lowest terms.

    The quadratic form H* M H evaluates the kernel's coefficient pairing:
    positivity of M is exactly expressibility of the kernel as a weighted sum
    of rank-one holomorphic squares.
    """
    monomials = coefficient_basis(form)
    dim = len(monomials)
    rank = dict(zip(monomials, range(dim)))
    re = [{} for _ in range(form.r * dim)]
    im = [{} for _ in re]
    for (i, j, alpha, beta), (x, y) in form.support.items():
        p, q = i * dim + rank[alpha], j * dim + rank[beta]
        if x:
            re[p][q] = x
        if y:
            im[p][q] = y
    return HermitianMatrix(re, im, form.den), monomials


def from_coefficient_matrix(
    matrix: HermitianMatrix, n: int, m: int, r: int
) -> BihermitianForm:
    """Inverse of coefficient_matrix on the monomials of degree m; exact round trip."""
    monomials = enumerate_degree(n, m)
    dim = len(monomials)
    if matrix.size != r * dim:
        raise ValueError(
            f"matrix size {matrix.size} does not match r*dim = {r * dim}"
        )
    support: dict[TermKey, tuple[int, int]] = {}
    for p, (row_re, row_im) in enumerate(zip(matrix.re, matrix.im)):
        i, alpha = p // dim, monomials[p % dim]
        for q in row_re.keys() | row_im.keys():
            support[(i, q // dim, alpha, monomials[q % dim])] = row_re.get(q, 0), row_im.get(q, 0)
    # The matrix is in lowest terms, so the form of its entries is too.
    return BihermitianForm(n, r, support, matrix.den)


def _monomial_values(point: GaussianRow, exponents) -> dict[MultiIndex, tuple[int, int]]:
    """q^alpha as a Gaussian-integer pair (re, im) for each alpha in the
    collection `exponents`, q the point's numerators.  Each power of a
    coordinate asked for is built once, from the next lower one asked for,
    by squaring across a gap."""
    powers = []
    for x, y, column in zip(point.re, point.im, zip(*exponents)):
        table, e, re, im = {}, 0, 1, 0
        for a in sorted(set(column)):
            if a:
                u, v = (x, y) if a - e == 1 else _gaussian_power(x, y, a - e)
                re, im = re * u - im * v, re * v + im * u
                table[a], e = (re, im), a
        powers.append(table)
    out = {}
    for alpha in exponents:
        re, im = 1, 0
        for k, a in enumerate(alpha):
            if a:
                u, v = powers[k][a]
                re, im = re * u - im * v, re * v + im * u
        out[alpha] = (re, im)
    return out


def _gaussian_power(x: int, y: int, e: int) -> tuple[int, int]:
    """(x + i*y)^e as an int pair, by squaring."""
    re, im = 1, 0
    while e:
        if e & 1:
            re, im = re * x - im * y, re * y + im * x
        e >>= 1
        if e:
            x, y = x * x - y * y, 2 * x * y
    return re, im


def evaluate_exact(form: BihermitianForm, z, w) -> list[list[GaussianRational]]:
    """Exact value of F(z, wbar) at Gaussian-rational points z, w.

    z and w are cleared to Gaussian-integer numerators over one denominator
    each, the value is summed in ints (`BihermitianForm.numerators`), and
    each entry is divided once at the end.
    """
    z = tuple(as_gaussian(c) for c in z)
    w = tuple(as_gaussian(c) for c in w)
    if len(z) != form.n or len(w) != form.n:
        raise ValueError("point length differs from ambient dimension")
    re, im, den = form.numerators(GaussianRow.from_entries(form.n, enumerate(z)),
                                  GaussianRow.from_entries(form.n, enumerate(w)))
    r = form.r
    return [[GaussianRational(Fraction(re[k], den), Fraction(im[k], den))
             for k in range(i * r, i * r + r)] for i in range(r)]
