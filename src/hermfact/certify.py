"""Exact inertia certificates for Hermitian matrices over the Gaussian rationals.

The decision procedure is a pivoted congruence diagonalization: at each step
the largest-magnitude (rational comparison) real diagonal entry of the trailing
block is chosen as a 1x1 pivot and eliminated.  When the trailing block has an
all-zero diagonal but is nonzero — which certifies indefiniteness on the spot —
a unit row combination first creates a positive diagonal entry so the
diagonalization can always run to completion with exact inertia.

The certificate records the accumulated congruence W together with its exact
inverse, so that W * M * W^adj = D can be re-checked by plain matrix
multiplication; the inertia of M equals the sign counts of D by congruence
invariance.  For inputs where plain diagonal pivoting suffices, W is a
permuted unit triangular transform, i.e. the classical pivoted LDL*.

Both the elimination and the re-check run on integer rows: a row of M or W (or
a column of W^-1) is a list of Gaussian-integer numerators over one positive
denominator, kept in lowest terms.  GaussianRational appears only at the
boundary, when a certificate is built or read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .hermform import HermitianMatrix
from .scalars import ZERO, GaussianRational

Vector = tuple[GaussianRational, ...]
MatrixRows = tuple[Vector, ...]


class _Row:
    """The vector (re[j] + i*im[j]) / den over int lists, den > 0, in lowest terms."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: list[int], im: list[int], den: int = 1):
        self.re = re
        self.im = im
        self.den = den

    @classmethod
    def unit(cls, n: int, j: int) -> "_Row":
        re = [0] * n
        re[j] = 1
        return cls(re, [0] * n)

    @classmethod
    def from_gaussians(cls, entries, conjugate: bool = False) -> "_Row":
        dens = [c.re.denominator for c in entries] + [c.im.denominator for c in entries]
        den = lcm(*dens)
        # Scaling by the lcm of the denominators leaves content 1: lowest terms.
        re = [c.re.numerator * (den // c.re.denominator) for c in entries]
        im = [c.im.numerator * (den // c.im.denominator) for c in entries]
        return cls(re, [-y for y in im] if conjugate else im, den)

    def to_gaussians(self) -> Vector:
        den = self.den
        return tuple(
            GaussianRational(Fraction(x, den), Fraction(y, den)) if x or y else ZERO
            for x, y in zip(self.re, self.im)
        )

    def nonzero(self) -> list[int]:
        return [j for j, (x, y) in enumerate(zip(self.re, self.im)) if x or y]

    def swap(self, k: int, t: int) -> None:
        re, im = self.re, self.im
        re[k], re[t] = re[t], re[k]
        im[k], im[t] = im[t], im[k]

    def add_scaled(self, cr: int, ci: int, q: int, other: "_Row", nz=None) -> None:
        """self += ((cr + i*ci) / q) * other, exactly; q > 0.

        `nz` lists the nonzero indices of `other` when the caller has them.
        """
        b = q * other.den
        g = gcd(cr, ci, b)
        if g != 1:
            cr, ci, b = cr // g, ci // g, b // g
        a = self.den
        g = gcd(a, b)
        mu, mt = b // g, a // g
        re, im = self.re, self.im
        if mu != 1:
            re = [x * mu for x in re]
            im = [y * mu for y in im]
        ar, ai = cr * mt, ci * mt
        ore, oim = other.re, other.im
        for j in other.nonzero() if nz is None else nz:
            x, y = ore[j], oim[j]
            re[j] += ar * x - ai * y
            im[j] += ar * y + ai * x
        den = a * mu
        g = gcd(den, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [y // g for y in im]
            den //= g
        self.re, self.im, self.den = re, im, den


def _combine(coeffs: _Row, rows: list[_Row], rows_nz: list[list[int]]) -> _Row:
    """The row vector coeffs * rows, where rows[a] is row a of a matrix."""
    out = _Row([0] * len(coeffs.re), [0] * len(coeffs.re))
    for a in coeffs.nonzero():
        out.add_scaled(coeffs.re[a], coeffs.im[a], coeffs.den, rows[a], rows_nz[a])
    return out


def _dot(a: _Row, b: _Row, nz: list[int]) -> tuple[int, int]:
    """Numerators (re, im) of sum_j a[j] * b[j] over a.den * b.den; nz lists
    the nonzero indices of a."""
    are, aim, bre, bim = a.re, a.im, b.re, b.im
    re = im = 0
    for j in nz:
        x, y, u, v = are[j], aim[j], bre[j], bim[j]
        re += x * u - y * v
        im += x * v + y * u
    return re, im


@dataclass(eq=True)
class SignatureCertificate:
    """Checkable congruence record: transform * matrix * transform^adj = diag."""

    matrix: HermitianMatrix
    n_pos: int
    n_neg: int
    n_zero: int
    permutation: tuple[int, ...]
    transform: MatrixRows
    transform_inv: MatrixRows
    diag: tuple[Fraction, ...]
    witness: Vector | None

    @property
    def size(self) -> int:
        return self.matrix.size

    def is_positive_definite(self) -> bool:
        return self.n_pos == self.size

    def is_positive_semidefinite(self) -> bool:
        return self.n_neg == 0

    def verify(self) -> tuple[bool, str]:
        """Re-check every claim by exact arithmetic; returns (ok, reason)."""
        n = self.size
        if self.n_pos + self.n_neg + self.n_zero != n:
            return False, "inertia counts do not sum to the size"
        if sorted(self.permutation) != list(range(n)):
            return False, "permutation is not a permutation"
        if (
            len(self.diag) != n
            or len(self.transform) != n
            or len(self.transform_inv) != n
            or any(len(row) != n for row in self.transform)
            or any(len(row) != n for row in self.transform_inv)
            or (self.witness is not None and len(self.witness) != n)
        ):
            return False, "component sizes disagree"
        w = [_Row.from_gaussians(row) for row in self.transform]
        w_nz = [row.nonzero() for row in w]
        winv_cols = [_Row.from_gaussians(col) for col in zip(*self.transform_inv)]
        for i, row in enumerate(w):
            for j, col in enumerate(winv_cols):
                re, im = _dot(row, col, w_nz[i])
                if im or re != (row.den * col.den if i == j else 0):
                    return False, "transform inverse is wrong"
        m = [_Row.from_gaussians(row) for row in self.matrix.entries]
        m_nz = [row.nonzero() for row in m]
        w_conj = [_Row.from_gaussians(row, conjugate=True) for row in self.transform]
        for i, row in enumerate(w):
            wm = _combine(row, m, m_nz)
            wm_nz = wm.nonzero()
            d = Fraction(self.diag[i])
            for j, other in enumerate(w_conj):
                re, im = _dot(wm, other, wm_nz)
                if i == j:
                    ok = not im and re * d.denominator == d.numerator * wm.den * other.den
                else:
                    ok = not (re or im)
                if not ok:
                    return False, f"congruence identity fails at ({i},{j})"
        pos = sum(1 for d in self.diag if d > 0)
        neg = sum(1 for d in self.diag if d < 0)
        if (pos, neg) != (self.n_pos, self.n_neg):
            return False, "inertia does not match the diagonal signs"
        if self.n_neg > 0 and self.witness is None:
            return False, "negative inertia without witness"
        if self.witness is not None:
            row = _combine(_Row.from_gaussians(self.witness, conjugate=True), m, m_nz)
            re, im = _dot(row, _Row.from_gaussians(self.witness), row.nonzero())
            if not (im == 0 and re < 0):
                return False, "witness value is not negative"
        return True, "ok"


def _primitive_witness(row: _Row) -> Vector:
    # conj(row) scaled by a positive rational to Gaussian integers with content
    # 1, then the overall real sign fixed; keeps witnesses small and deterministic.
    g = gcd(*row.re, *row.im)
    re = [x // g for x in row.re]
    im = [-y // g for y in row.im]
    for x, y in zip(re, im):
        if x or y:
            if x < 0 or (x == 0 and y < 0):
                re = [-x for x in re]
                im = [-y for y in im]
            break
    return _Row(re, im).to_gaussians()


def ldl_signature(matrix: HermitianMatrix) -> SignatureCertificate:
    """Exact pivoted diagonalization with inertia and an indefiniteness witness.

    Pivot rule: largest-magnitude real diagonal entry of the trailing block,
    lowest index on ties.  An all-zero trailing diagonal with a nonzero
    off-diagonal entry a at (t, u) proves indefiniteness; row u gains
    conj(a) * row t, creating the positive diagonal entry 2|a|^2, and the
    elimination continues.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix.from_rows(matrix)
    n = matrix.size
    # s holds the rows of the working matrix.  Rows before the current step
    # are finished pivots and are never read again, so an elimination step
    # only applies row operations: by Hermitian symmetry the matching column
    # operations change nothing but the finished pivot row.
    s = [_Row.from_gaussians(row) for row in matrix.entries]
    w = [_Row.unit(n, j) for j in range(n)]
    winv = [_Row.unit(n, j) for j in range(n)]  # columns of W^-1
    perm = list(range(n))
    diag: list[Fraction] = []

    def swap(k: int, t: int) -> None:
        if k == t:
            return
        s[k], s[t] = s[t], s[k]
        for row in s[k:]:
            row.swap(k, t)
        w[k], w[t] = w[t], w[k]
        winv[k], winv[t] = winv[t], winv[k]
        perm[k], perm[t] = perm[t], perm[k]

    k = 0
    while k < n:
        best, best_num, best_den = None, 0, 1
        for t in range(k, n):
            row = s[t]
            if row.im[t]:
                raise ValueError("matrix is not Hermitian: complex diagonal entry")
            mag = abs(row.re[t])
            if mag * best_den > best_num * row.den:
                best, best_num, best_den = t, mag, row.den
        if best is None:
            hollow = next(
                ((t, u) for t in range(k, n) for u in range(t + 1, n)
                 if s[t].re[u] or s[t].im[u]),
                None,
            )
            if hollow is None:
                diag.extend([Fraction(0)] * (n - k))
                break
            # Congruence by E = I + c e_u e_t^T with c = conj(s[t][u]):
            # row u += c row t, then col u += conj(c) col t.
            t, u = hollow
            src = s[t]
            cr, ci, q = src.re[u], -src.im[u], src.den
            s[u].add_scaled(cr, ci, q, src)
            unit_u = _Row.unit(n, u)
            for row in s[k:]:
                x, y = row.re[t], row.im[t]
                if x or y:
                    row.add_scaled(cr * x + ci * y, cr * y - ci * x, q * row.den, unit_u, [u])
            w[u].add_scaled(cr, ci, q, w[t])
            winv[t].add_scaled(-cr, -ci, q, winv[u])
            continue
        swap(k, best)
        pivot = s[k]
        p, dk = pivot.re[k], pivot.den
        diag.append(Fraction(p, dk))
        sign = 1 if p > 0 else -1
        pivot_nz = pivot.nonzero()
        w_nz = w[k].nonzero()
        for i in range(k + 1, n):
            row = s[i]
            a, b = row.re[k], row.im[k]
            if not (a or b):
                continue
            # c = -(s[i][k] / d) = (cr + i*ci) / q with d = p / dk
            cr, ci, q = -sign * a * dk, -sign * b * dk, row.den * abs(p)
            row.add_scaled(cr, ci, q, pivot, pivot_nz)
            w[i].add_scaled(cr, ci, q, w[k], w_nz)
            winv[k].add_scaled(-cr, -ci, q, winv[i])
        k += 1

    n_pos = sum(1 for d in diag if d > 0)
    n_neg = sum(1 for d in diag if d < 0)
    n_zero = n - n_pos - n_neg

    witness = None
    if n_neg > 0:
        idx = next(i for i, d in enumerate(diag) if d < 0)
        witness = _primitive_witness(w[idx])

    return SignatureCertificate(
        matrix=matrix,
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n_zero,
        permutation=tuple(perm),
        transform=tuple(row.to_gaussians() for row in w),
        transform_inv=tuple(zip(*(col.to_gaussians() for col in winv))),
        diag=tuple(diag),
        witness=witness,
    )


def is_positive_definite(matrix: HermitianMatrix) -> tuple[bool, SignatureCertificate]:
    cert = ldl_signature(matrix)
    return cert.is_positive_definite(), cert


def is_positive_semidefinite(
    matrix: HermitianMatrix,
) -> tuple[bool, SignatureCertificate]:
    cert = ldl_signature(matrix)
    return cert.is_positive_semidefinite(), cert


def gram_decomposition(
    matrix: HermitianMatrix,
) -> tuple[list[tuple[Fraction, Vector]], list[tuple[Fraction, Vector]]]:
    """Write M = sum a_k u_k u_k^adj - sum b_l v_l v_l^adj exactly, a_k, b_l > 0.

    The vectors are the columns of the inverse transform in pivot order, so the
    positive part has exactly n_pos terms and the negative part n_neg.
    """
    cert = ldl_signature(matrix)
    positives: list[tuple[Fraction, Vector]] = []
    negatives: list[tuple[Fraction, Vector]] = []
    for k, d in enumerate(cert.diag):
        if d == 0:
            continue
        column = tuple(cert.transform_inv[row][k] for row in range(cert.size))
        if d > 0:
            positives.append((d, column))
        else:
            negatives.append((-d, column))
    return positives, negatives
