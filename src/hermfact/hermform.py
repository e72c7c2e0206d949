"""Hermitian polynomial kernels F(z, wbar), holomorphic polynomial matrices, and
their exact coefficient matrices.

A kernel is stored sparsely as a map (i, j, alpha, beta) -> coefficient for the
term F_ij contributing coefficient * z^alpha * wbar^beta.  Row/column indices
i, j are 0-based internally.  A kernel is *bihomogeneous of bidegree m* when
every stored term has |alpha| = |beta| = m; otherwise it can still be handled
in "generalized" mode, where the coefficient matrix runs over all monomials up
to the maximum degree present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
    nonzero_indices,
    outer_product_sum,
)

TermKey = tuple[int, int, MultiIndex, MultiIndex]
Poly = dict[MultiIndex, GaussianRational]


@dataclass(eq=True)
class BihermitianForm:
    """Sparse r-by-r matrix of polynomials in (z, wbar); treated as immutable."""

    n: int
    r: int
    support: dict[TermKey, GaussianRational]

    @classmethod
    def from_terms(cls, n: int, r: int, terms) -> "BihermitianForm":
        """Build a form from (i, j, alpha, beta) -> coefficient items, dropping zeros."""
        if n < 1 or r < 1:
            raise ValueError("dimension and matrix size must be >= 1")
        items = terms.items() if hasattr(terms, "items") else terms
        support: dict[TermKey, GaussianRational] = {}
        for (i, j, alpha, beta), coeff in items:
            coeff = as_gaussian(coeff)
            if coeff.is_zero():
                continue
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"matrix index out of range: ({i}, {j})")
            alpha = check_multiindex(alpha)
            beta = check_multiindex(beta)
            if len(alpha) != n or len(beta) != n:
                raise ValueError("multi-index length differs from ambient dimension")
            key = (i, j, alpha, beta)
            prev = support.get(key)
            coeff = coeff if prev is None else prev + coeff
            if coeff.is_zero():
                support.pop(key, None)
            else:
                support[key] = coeff
        return cls(n, r, support)

    @classmethod
    def zero(cls, n: int, r: int = 1) -> "BihermitianForm":
        return cls(n, r, {})

    def coefficient(self, i: int, j: int, alpha, beta) -> GaussianRational:
        return self.support.get((i, j, tuple(alpha), tuple(beta)), ZERO)


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

    @classmethod
    def from_rows(cls, n: int, rows, weights=None, ncols=None) -> "HoloPolyMatrix":
        if n < 1:
            raise ValueError("dimension must be >= 1")
        norm_rows = []
        width = ncols
        for row in rows:
            norm_row = []
            for poly in row:
                items = poly.items() if hasattr(poly, "items") else poly
                entry: Poly = {}
                for alpha, coeff in items:
                    coeff = as_gaussian(coeff)
                    if coeff.is_zero():
                        continue
                    alpha = check_multiindex(alpha)
                    if len(alpha) != n:
                        raise ValueError("multi-index length differs from ambient dimension")
                    entry[alpha] = entry.get(alpha, ZERO) + coeff
                norm_row.append({a: c for a, c in entry.items() if not c.is_zero()})
            if width is None:
                width = len(norm_row)
            elif len(norm_row) != width:
                raise ValueError("ragged rows in holomorphic matrix")
            norm_rows.append(tuple(norm_row))
        if width is None or width == 0:
            raise ValueError("holomorphic matrix needs at least one column")
        if weights is not None:
            weights = tuple(Fraction(w) for w in weights)
            if len(weights) != len(norm_rows):
                raise ValueError("one weight per row required")
            if any(w <= 0 for w in weights):
                raise ValueError("row weights must be positive")
            if not weights:
                weights = None
        return cls(n, width, tuple(norm_rows), weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def homogeneous_degree(self) -> int | None:
        """Common degree of every monomial in every entry, or None if mixed/empty."""
        deg = None
        for row in self.rows:
            for poly in row:
                for alpha in poly:
                    d = degree(alpha)
                    if deg is None:
                        deg = d
                    elif deg != d:
                        return None
        return deg


@dataclass(eq=True)
class HermitianMatrix:
    """Hermitian matrix over the Gaussian rationals, held as one GaussianRow per
    row; the constructor trusts its rows, `from_rows` is the checked entry point."""

    rows: tuple[GaussianRow, ...]

    @classmethod
    def from_rows(cls, rows) -> "HermitianMatrix":
        """The checked constructor: a square Hermitian array of scalars, else ValueError."""
        return cls.from_gaussian_rows(
            GaussianRow.from_entries(len(row), enumerate(map(as_gaussian, row))) for row in rows)

    @classmethod
    def from_gaussian_rows(cls, rows) -> "HermitianMatrix":
        """The checked constructor over GaussianRows in lowest terms: ValueError
        unless they form a square Hermitian matrix."""
        matrix = cls(tuple(rows))
        defect = hermitian_defect(matrix.rows)
        if defect is not None:
            raise ValueError(defect)
        return matrix

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        vals = [as_gaussian(v) for v in values]
        size = len(vals)
        return cls.from_rows(
            [[vals[k] if k == l else ZERO for l in range(size)] for k in range(size)]
        )

    @classmethod
    def identity(cls, size: int) -> "HermitianMatrix":
        return cls.diagonal([1] * size)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The dense entries, derived from the rows."""
        return tuple(row.to_gaussians() for row in self.rows)

    def at(self, k: int, l: int) -> GaussianRational:
        return self.rows[k].at(l)


def hermitian_defect(rows) -> str | None:
    """Why the rows do not form a square Hermitian matrix, or None when they do.

    Only the nonzeros are visited.  The defect named is the first (k, l),
    l <= k, in row-major order: a nonzero (k, l) is compared with its partner
    in row k, and a nonzero (l, k) above the diagonal whose partner is 0 is
    found in row l < k.  Once row k is done, no later row can name a defect
    in a row up to k.
    """
    if any(len(row.re) != len(rows) for row in rows):
        return "matrix must be square"
    first = None
    for k, row in enumerate(rows):
        re, im, den = row.re, row.im, row.den
        for l in row.nonzero():
            other = rows[l]
            if l > k:
                # a nonzero partner is compared in row l
                defect = None if other.re[k] or other.im[k] else (l, k)
            elif re[l] * other.den != other.re[k] * den or im[l] * other.den != -other.im[k] * den:
                defect = (k, l)
            else:
                continue
            if defect is not None and (first is None or defect < first):
                first = defect
        if first is not None and first[0] <= k:
            k, l = first
            return (f"diagonal entry {k} is not real" if k == l
                    else f"entries ({k},{l}) and ({l},{k}) are not conjugate")
    return None


@dataclass(eq=True, frozen=True)
class CoefficientBasis:
    """Ordered combined index (i, alpha) for a coefficient matrix.

    `pairs[k]` is the (matrix row index, monomial) labelling coordinate k; the
    r-index is major, monomials follow the canonical graded order.
    """

    n: int
    r: int
    bidegree: int | None
    pairs: tuple[tuple[int, MultiIndex], ...]

    def index(self, i: int, alpha: MultiIndex) -> int:
        return self._lookup[(i, alpha)]

    @property
    def _lookup(self):
        cache = self.__dict__.get("_lookup_cache")
        if cache is None:
            cache = {pair: k for k, pair in enumerate(self.pairs)}
            self.__dict__["_lookup_cache"] = cache
        return cache


def is_hermitian_symmetric(form: BihermitianForm) -> bool:
    """True iff coefficient(i, j, a, b) == conj(coefficient(j, i, b, a)) throughout.

    Equivalent to F(z, zbar) taking Hermitian matrix values (real values for
    r = 1) at every point.
    """
    for (i, j, alpha, beta), coeff in form.support.items():
        partner = form.support.get((j, i, beta, alpha))
        if partner is None or partner.conjugate() != coeff:
            return False
    return True


def bidegree(form: BihermitianForm) -> int | None:
    """The common m with |alpha| = |beta| = m over all terms; None if mixed.

    The zero form is reported as bidegree 0.
    """
    m = None
    for (_, _, alpha, beta) in form.support:
        da, db = degree(alpha), degree(beta)
        if da != db:
            return None
        if m is None:
            m = da
        elif m != da:
            return None
    return 0 if m is None else m


def max_degree(form: BihermitianForm) -> int:
    """Largest |alpha| or |beta| appearing in the support (0 for the zero form)."""
    out = 0
    for (_, _, alpha, beta) in form.support:
        out = max(out, degree(alpha), degree(beta))
    return out


def add(f: BihermitianForm, g: BihermitianForm) -> BihermitianForm:
    if f.n != g.n or f.r != g.r:
        raise ValueError("shape mismatch in kernel addition")
    terms = dict(f.support)
    acc: list = list(terms.items()) + list(g.support.items())
    return BihermitianForm.from_terms(f.n, f.r, acc)


def scale(f: BihermitianForm, c) -> BihermitianForm:
    c = as_gaussian(c)
    return BihermitianForm.from_terms(
        f.n, f.r, [(key, coeff * c) for key, coeff in f.support.items()]
    )


def subtract(f: BihermitianForm, g: BihermitianForm) -> BihermitianForm:
    return add(f, scale(g, -1))


def kernel_multiply(f: BihermitianForm, g: BihermitianForm) -> BihermitianForm:
    """Kernel product: coefficient convolution in z and in wbar separately.

    One factor must be scalar (r = 1); scalar*scalar and scalar*matrix are the
    supported shapes.  Hermitian symmetry is preserved when both factors have it.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch in kernel product")
    if f.r != 1 and g.r != 1:
        raise ValueError("kernel product needs a scalar factor")
    scalar, matrix = (f, g) if f.r == 1 else (g, f)
    acc: dict[TermKey, GaussianRational] = {}
    for (_, _, a1, b1), c1 in scalar.support.items():
        for (i, j, a2, b2), c2 in matrix.support.items():
            alpha = tuple(x + y for x, y in zip(a1, a2))
            beta = tuple(x + y for x, y in zip(b1, b2))
            key = (i, j, alpha, beta)
            acc[key] = acc.get(key, ZERO) + c1 * c2
    return BihermitianForm.from_terms(f.n, matrix.r, acc)


def gram(a: HoloPolyMatrix) -> BihermitianForm:
    """The r-by-r kernel F_ij(z, wbar) = sum_k w_k * A_ki(z) * conj(A_kj(w)).

    Row weights w_k default to 1.  The result is always Hermitian-symmetric,
    and its coefficient matrix is positive semidefinite by construction.

    Each (column i, monomial alpha) of the factor gets one index, each row k
    becomes one SparseRow c_k over those indices, and sum_k w_k c_k c_k* is
    summed in ints by `outer_product_sum`, its upper triangle only.
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
    re, im, common = outer_product_sum(size, zip(weights, rows))
    pairs = list(index)
    support: dict[TermKey, GaussianRational] = {}
    for p, (i, alpha) in enumerate(pairs):
        re_p, im_p = re[p], im[p]
        for q in nonzero_indices(re_p, im_p, p):
            j, beta = pairs[q]
            coeff = GaussianRational(Fraction(re_p[q], common), Fraction(im_p[q], common))
            support[(i, j, alpha, beta)] = coeff
            if q != p:
                support[(j, i, beta, alpha)] = coeff.conjugate()
    return BihermitianForm(a.n, r, support)


def euclidean_pairing(n: int) -> BihermitianForm:
    """The kernel <z, w> = sum_k z_k * wbar_k."""
    unit = [0] * n
    terms = {}
    for k in range(n):
        e = tuple(unit[:k] + [1] + unit[k + 1 :])
        terms[(0, 0, e, e)] = 1
    return BihermitianForm.from_terms(n, 1, terms)


def _basis_pairs(n: int, r: int, degrees) -> tuple[tuple[int, MultiIndex], ...]:
    monomials = []
    for d in degrees:
        monomials.extend(enumerate_degree(n, d))
    return tuple((i, alpha) for i in range(r) for alpha in monomials)


def homogeneous_basis(n: int, r: int, m: int) -> CoefficientBasis:
    """The bidegree-m basis: (i, alpha) for each row index i and each |alpha| = m."""
    return CoefficientBasis(n, r, m, _basis_pairs(n, r, [m]))


def coefficient_basis(form: BihermitianForm, mode: str = "auto") -> CoefficientBasis:
    """Combined (i, alpha) basis for the form's coefficient matrix.

    mode: "bidegree" demands a single bidegree m and uses the degree-m basis;
    "generalized" uses all monomials up to the maximum degree in the support;
    "auto" picks "bidegree" when it applies and "generalized" otherwise.
    """
    m = bidegree(form)
    if mode == "auto":
        mode = "bidegree" if m is not None else "generalized"
    if mode == "bidegree":
        if m is None:
            raise ValueError("form has mixed bidegrees; use generalized mode")
        return homogeneous_basis(form.n, form.r, m)
    if mode == "generalized":
        cap = max_degree(form)
        return CoefficientBasis(
            form.n, form.r, None, _basis_pairs(form.n, form.r, range(cap + 1))
        )
    raise ValueError(f"unknown coefficient basis mode: {mode}")


def _cleared_support(form: BihermitianForm) -> tuple[list[TermKey], list[int], list[int], int]:
    """The form's term keys and their coefficients as Gaussian-integer
    numerators (re, im) over one denominator den > 0: (keys, re, im, den)."""
    keys = list(form.support)
    coeffs = GaussianRow.from_entries(len(keys), enumerate(form.support.values()))
    return keys, coeffs.re, coeffs.im, coeffs.den


@dataclass(frozen=True)
class CoefficientRows:
    """A coefficient matrix in Gaussian-integer numerators over one denominator.

    Entry (p, q) on `basis` is (re[p][q] + i*im[p][q]) / den, den > 0; each
    row is a dict over its columns, and an absent column is 0.  A stored 0
    (a term that cancelled) is allowed.  The exponent loop of `stabilize`
    shifts these rows in ints; only `matrix` and `form` leave them.
    """

    basis: CoefficientBasis
    den: int
    re: list[dict[int, int]]
    im: list[dict[int, int]]

    @classmethod
    def of(cls, form: BihermitianForm, basis: CoefficientBasis) -> "CoefficientRows":
        """The form's coefficients on `basis`, which must hold every (i, alpha)
        and (j, beta) of the support."""
        keys, re, im, den = _cleared_support(form)
        lookup = basis._lookup
        rows_re = [{} for _ in basis.pairs]
        rows_im = [{} for _ in basis.pairs]
        for (i, j, alpha, beta), x, y in zip(keys, re, im):
            p, q = lookup[(i, alpha)], lookup[(j, beta)]
            if x:
                rows_re[p][q] = x
            if y:
                rows_im[p][q] = y
        return cls(basis, den, rows_re, rows_im)

    def matrix(self) -> HermitianMatrix:
        """Each row scattered into a GaussianRow and brought to lowest terms
        by one gcd.  Symmetry of the form is symmetry of the rows, so the
        caller vouches for it."""
        size, den = len(self.basis.pairs), self.den
        rows = []
        for row_re, row_im in zip(self.re, self.im):
            g = gcd(den, *row_re.values(), *row_im.values())
            re, im = [0] * size, [0] * size
            for q, x in row_re.items():
                re[q] = x // g
            for q, y in row_im.items():
                im[q] = y // g
            rows.append(GaussianRow(re, im, den // g))
        return HermitianMatrix(tuple(rows))

    def form(self) -> BihermitianForm:
        """The form with these coefficients, cancelled terms dropped."""
        pairs, den = self.basis.pairs, self.den
        support: dict[TermKey, GaussianRational] = {}
        for (i, alpha), row_re, row_im in zip(pairs, self.re, self.im):
            for q in sorted(row_re.keys() | row_im.keys()):
                x, y = row_re.get(q, 0), row_im.get(q, 0)
                if x or y:
                    j, beta = pairs[q]
                    support[(i, j, alpha, beta)] = GaussianRational(Fraction(x, den),
                                                                    Fraction(y, den))
        return BihermitianForm(self.basis.n, self.basis.r, support)


def coefficient_rows(form: BihermitianForm, mode: str = "auto") -> CoefficientRows:
    """The form's coefficient matrix as CoefficientRows on
    `coefficient_basis(form, mode)`.  Requires a Hermitian-symmetric input."""
    if not is_hermitian_symmetric(form):
        raise ValueError("coefficient matrix requires a Hermitian-symmetric form")
    return CoefficientRows.of(form, coefficient_basis(form, mode))


def coefficient_matrix(
    form: BihermitianForm, mode: str = "auto"
) -> tuple[HermitianMatrix, CoefficientBasis]:
    """Hermitian matrix M with M[(i,alpha)][(j,beta)] = coefficient(i, j, alpha, beta).

    The quadratic form H* M H evaluates the kernel's coefficient pairing:
    positivity of M is exactly expressibility of the kernel as a weighted sum
    of rank-one holomorphic squares.  Requires a Hermitian-symmetric input.
    """
    rows = coefficient_rows(form, mode)
    return rows.matrix(), rows.basis


def from_coefficient_matrix(
    matrix: HermitianMatrix, n: int, m: int, r: int
) -> BihermitianForm:
    """Inverse of coefficient_matrix on the bidegree-m basis; exact round trip."""
    expected = r * dim_homogeneous(n, m)
    if matrix.size != expected:
        raise ValueError(
            f"matrix size {matrix.size} does not match r*dim = {expected}"
        )
    pairs = _basis_pairs(n, r, [m])
    terms = {}
    for (i, alpha), row in zip(pairs, matrix.rows):
        for l in row.nonzero():
            j, beta = pairs[l]
            terms[(i, j, alpha, beta)] = row.at(l)
    return BihermitianForm.from_terms(n, r, terms)


def _monomial_values(point: GaussianRow, exponents) -> dict[MultiIndex, tuple[int, int]]:
    """q^alpha as a Gaussian-integer pair (re, im) for each alpha in `exponents`,
    q the point's numerators; the powers of each coordinate are built once."""
    powers = [[(1, 0)] for _ in point.re]
    out = {}
    for alpha in exponents:
        re, im = 1, 0
        for k, a in enumerate(alpha):
            if a:
                table = powers[k]
                if len(table) <= a:
                    x, y = point.re[k], point.im[k]
                    while len(table) <= a:
                        u, v = table[-1]
                        table.append((u * x - v * y, u * y + v * x))
                u, v = table[a]
                re, im = re * u - im * v, re * v + im * u
        out[alpha] = (re, im)
    return out


@dataclass(frozen=True)
class ClearedForm:
    """A form over one coefficient denominator, evaluated exactly in ints.

    Each term is (i, j, alpha, beta, re, im, pad_z, pad_w): the coefficient is
    (re + i*im) / den, and pad_z = deg_z - |alpha|, pad_w = deg_w - |beta|
    lift the term to the form's largest degrees, so that every term of a
    value shares the denominator den * z.den^deg_z * w.den^deg_w.  A
    bihomogeneous form has no pads.
    """

    r: int
    den: int
    deg_z: int
    deg_w: int
    terms: tuple[tuple[int, int, MultiIndex, MultiIndex, int, int, int, int], ...]
    alphas: tuple[MultiIndex, ...]
    betas: tuple[MultiIndex, ...]

    @classmethod
    def of(cls, form: BihermitianForm) -> "ClearedForm":
        keys, re, im, den = _cleared_support(form)
        deg_z = max((degree(alpha) for _, _, alpha, _ in keys), default=0)
        deg_w = max((degree(beta) for _, _, _, beta in keys), default=0)
        terms = tuple((i, j, alpha, beta, x, y, deg_z - degree(alpha), deg_w - degree(beta))
                      for (i, j, alpha, beta), x, y in zip(keys, re, im))
        alphas = tuple(dict.fromkeys(alpha for _, _, alpha, _ in keys))
        betas = tuple(dict.fromkeys(beta for _, _, _, beta in keys))
        return cls(form.r, den, deg_z, deg_w, terms, alphas, betas)

    def numerators(self, z: GaussianRow, w: GaussianRow) -> tuple[list[int], list[int], int]:
        """F(z, wbar) as (re, im, den): entry (i, j) has real part re[k] / den
        and imaginary part im[k] / den, k = i*r + j, where
        den = self.den * z.den^deg_z * w.den^deg_w > 0."""
        if z == w:
            zm = wm = _monomial_values(z, dict.fromkeys(self.alphas + self.betas))
        else:
            zm, wm = _monomial_values(z, self.alphas), _monomial_values(w, self.betas)
        re, im = [0] * (self.r * self.r), [0] * (self.r * self.r)
        for i, j, alpha, beta, cr, ci, pad_z, pad_w in self.terms:
            ar, ai = zm[alpha]
            br, bi = wm[beta]
            # c * z^alpha * conj(w^beta)
            xr, xi = ar * br + ai * bi, ai * br - ar * bi
            tr, ti = cr * xr - ci * xi, cr * xi + ci * xr
            if pad_z or pad_w:
                pad = z.den ** pad_z * w.den ** pad_w
                tr, ti = tr * pad, ti * pad
            k = i * self.r + j
            re[k] += tr
            im[k] += ti
        return re, im, self.den * z.den ** self.deg_z * w.den ** self.deg_w


def evaluate_exact(form: BihermitianForm, z, w) -> list[list[GaussianRational]]:
    """Exact value of F(z, wbar) at Gaussian-rational points z, w.

    z and w are cleared to Gaussian-integer numerators over one denominator
    each, the value is summed in ints (`ClearedForm`), and each entry is
    divided once at the end.
    """
    z = tuple(as_gaussian(c) for c in z)
    w = tuple(as_gaussian(c) for c in w)
    if len(z) != form.n or len(w) != form.n:
        raise ValueError("point length differs from ambient dimension")
    re, im, den = ClearedForm.of(form).numerators(GaussianRow.from_entries(form.n, enumerate(z)),
                                                  GaussianRow.from_entries(form.n, enumerate(w)))
    r = form.r
    return [[GaussianRational(Fraction(re[k], den), Fraction(im[k], den))
             for k in range(i * r, i * r + r)] for i in range(r)]


def evaluate(form: BihermitianForm, z, w) -> list[list[complex]]:
    """Floating-point value of F(z, wbar); z and w are complex n-vectors."""
    z = tuple(complex(c) for c in z)
    w = tuple(complex(c) for c in w)
    if len(z) != form.n or len(w) != form.n:
        raise ValueError("point length differs from ambient dimension")
    out = [[0j] * form.r for _ in range(form.r)]
    for (i, j, alpha, beta), coeff in form.support.items():
        term = complex(coeff)
        for zk, a in zip(z, alpha):
            if a:
                term *= zk**a
        for wk, b in zip(w, beta):
            if b:
                term *= (wk**b).conjugate()
        out[i][j] += term
    return out
