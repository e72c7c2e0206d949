"""Exact inertia certificates for Hermitian matrices over the Gaussian rationals.

The decision procedure is a pivoted LDL*: each step eliminates with the
largest-magnitude real diagonal entry of the trailing block (rational
comparison).  A nonzero trailing block with an all-zero diagonal is
indefinite; its first nonzero off-diagonal entry a becomes the "hollow" 2x2
pivot [[0, a], [conj(a), 0]] (Bunch & Kaufman, Math. Comp. 31, 1977), which
has one positive and one negative eigenvalue.

The certificate records W with W * M * W^adj = D, where W is unit lower
triangular once its columns are put in pivot order and D is diagonal apart
from the hollow blocks; the inertia of M is that of D.  W is invertible by its
structure alone, so no inverse is stored: `inverse_columns` derives it for
factor extraction.

Both the elimination and the re-check run on the `GaussianRow`s that a
HermitianMatrix stores: Gaussian-integer numerators over one positive
denominator, in lowest terms.  GaussianRational appears only where a
certificate is built or read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .hermform import HermitianMatrix, hermitian_defect
from .scalars import ONE, ZERO, GaussianRational, GaussianRow

Vector = tuple[GaussianRational, ...]
# (index, value) pairs: the strictly-lower entries of a row of W in pivot
# coordinates, or the hollow blocks (k, a) of D.
Entries = tuple[tuple[int, GaussianRational], ...]


def _combine(coeffs: GaussianRow, rows: list[GaussianRow], rows_nz: list[list[int]]) -> GaussianRow:
    """The row vector coeffs * rows, where rows[a] is row a of a matrix."""
    out = GaussianRow([0] * len(coeffs.re), [0] * len(coeffs.re))
    for a in coeffs.nonzero():
        out.add_scaled(coeffs.re[a], coeffs.im[a], coeffs.den, rows[a], rows_nz[a])
    return out


def _dot(a: GaussianRow, b: GaussianRow, nz: list[int]) -> tuple[int, int]:
    """Numerators (re, im) of sum_j a[j] * conj(b[j]) over a.den * b.den; nz
    covers the nonzero indices of a or of b."""
    are, aim, bre, bim = a.re, a.im, b.re, b.im
    re = im = 0
    for j in nz:
        x, y, u, v = are[j], aim[j], bre[j], bim[j]
        re += x * u + y * v
        im += y * u - x * v
    return re, im


def inertia_of_d(diag, blocks) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of D: the signs of `diag`, plus
    one of each for every hollow block."""
    return (
        len(blocks) + sum(1 for d in diag if d > 0),
        len(blocks) + sum(1 for d in diag if d < 0),
    )


@dataclass(eq=True)
class SignatureCertificate:
    """Checkable congruence record: W * matrix * W^adj = D.

    `transform` holds W by its strictly-lower entries in pivot coordinates:
    row i lists (j, c) with 0 <= j < i ascending and means
    W[i][permutation[j]] = c; W[i][permutation[i]] = 1, every other entry is
    0.  D has `diag` on its diagonal (0 at block slots) and, for each (k, a)
    in `blocks`, the hollow block [[0, a], [conj(a), 0]] at slots k, k + 1.
    """

    matrix: HermitianMatrix
    permutation: tuple[int, ...]
    transform: tuple[Entries, ...]
    diag: tuple[Fraction, ...]
    blocks: Entries
    witness: Vector | None

    @property
    def size(self) -> int:
        return self.matrix.size

    # The inertia of M is that of D.
    @property
    def n_pos(self) -> int:
        return inertia_of_d(self.diag, self.blocks)[0]

    @property
    def n_neg(self) -> int:
        return inertia_of_d(self.diag, self.blocks)[1]

    @property
    def n_zero(self) -> int:
        return self.size - self.n_pos - self.n_neg

    def is_positive_definite(self) -> bool:
        return self.n_pos == self.size

    def is_positive_semidefinite(self) -> bool:
        return self.n_neg == 0

    def verify(self) -> tuple[bool, str]:
        """Re-check every claim by exact arithmetic; returns (ok, reason)."""
        n = self.size
        perm = self.permutation
        if sorted(perm) != list(range(n)):
            return False, "permutation is not a permutation"
        if (
            len(self.diag) != n
            or len(self.transform) != n
            or (self.witness is not None and len(self.witness) != n)
        ):
            return False, "component sizes disagree"
        for i, entries in enumerate(self.transform):
            cols = [-1] + [j for j, _ in entries] + [i]
            if any(a >= b for a, b in zip(cols, cols[1:])):
                return False, "transform is not unit lower triangular in pivot order"
        end = -1
        for k, a in self.blocks:
            if not end < k < n - 1 or a.is_zero() or self.diag[k] or self.diag[k + 1]:
                return False, "blocks are not disjoint hollow 2x2 pivots"
            end = k + 1
        if hermitian_defect(self.matrix.rows) is not None:
            return False, "matrix is not Hermitian"
        # The rest runs in pivot coordinates: W becomes L, M becomes P M P^T
        # and the witness v becomes P v, which keeps v* M v.
        m = [self.matrix.rows[r].permuted(perm) for r in perm]
        # So L M L^adj is Hermitian too, and its lower triangle decides.
        m_nz = [row.nonzero() for row in m]
        lower = self._lower_rows()
        lower_nz = [row.nonzero() for row in lower]
        below = {(k + 1, k): a.conjugate() for k, a in self.blocks}
        for i, row in enumerate(lower):
            lm = _combine(row, m, m_nz)
            for j in range(i + 1):
                re, im = _dot(lm, lower[j], lower_nz[j])
                want = GaussianRational(self.diag[i]) if i == j else below.get((i, j), ZERO)
                den = lm.den * lower[j].den
                if (
                    re * want.re.denominator != want.re.numerator * den
                    or im * want.im.denominator != want.im.numerator * den
                ):
                    return False, f"congruence identity fails at ({i},{j})"
        if self.n_neg > 0 and self.witness is None:
            return False, "negative inertia without witness"
        if self.witness is not None:
            # with c = conj(v), v* M v = sum_l (c M)_l conj(c_l)
            c = GaussianRow.from_entries(n, enumerate(self.witness[r].conjugate() for r in perm))
            row = _combine(c, m, m_nz)
            re, im = _dot(row, c, row.nonzero())
            if not (im == 0 and re < 0):
                return False, "witness value is not negative"
        return True, "ok"

    def _lower_rows(self) -> list[GaussianRow]:
        """The rows of L: W in pivot coordinates, unit lower triangular."""
        n = self.size
        return [GaussianRow.from_entries(n, entries + ((i, ONE),))
                for i, entries in enumerate(self.transform)]


def _primitive_witness(row: GaussianRow) -> Vector:
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
    return GaussianRow(re, im).to_gaussians()


def ldl_signature(matrix: HermitianMatrix) -> SignatureCertificate:
    """Exact pivoted LDL* with inertia and an indefiniteness witness.

    Pivot rule: largest-magnitude real diagonal entry of the trailing block,
    lowest index on ties.  An all-zero trailing diagonal with a nonzero
    off-diagonal entry proves indefiniteness: the first such entry a, at
    (t, u) with t < u in row-major order, moves t and u to the next two slots
    and eliminates with the 2x2 pivot [[0, a], [conj(a), 0]].
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix.from_rows(matrix)
    n = matrix.size
    # s holds the rows of the working matrix.  Rows before the current step
    # are finished pivots and are never read again, so an elimination step
    # only applies row operations: by Hermitian symmetry the matching column
    # operations change nothing but the finished pivot rows.
    s = [row.copy() for row in matrix.rows]
    w = [GaussianRow.from_entries(n, [(j, ONE)]) for j in range(n)]
    perm = list(range(n))
    diag: list[Fraction] = []
    blocks: list[tuple[int, GaussianRational]] = []
    # W^adj x is a witness when x^adj D x < 0: x = e_k at the first negative
    # pivot, or x = e_k - conj(a) e_{k+1} (value -2|a|^2) at the first block.
    negative: GaussianRow | None = None

    def swap(k: int, t: int) -> None:
        if k == t:
            return
        s[k], s[t] = s[t], s[k]
        for row in s:  # all rows: a 2x2 step's second swap must reach row k too
            row.swap(k, t)
        w[k], w[t] = w[t], w[k]
        perm[k], perm[t] = perm[t], perm[k]

    pivot_nz: dict[int, tuple[list[int], list[int]]] = {}

    def eliminate(r: int, k: int, cr: int, ci: int, q: int) -> None:
        # row r += ((cr + i*ci) / q) * row k in s and in W; row k is a pivot
        if k not in pivot_nz:
            pivot_nz[k] = (s[k].nonzero(), w[k].nonzero())
        s[r].add_scaled(cr, ci, q, s[k], pivot_nz[k][0])
        w[r].add_scaled(cr, ci, q, w[k], pivot_nz[k][1])

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
        if best is not None:
            swap(k, best)
            pivot = s[k]
            p, dk = pivot.re[k], pivot.den
            diag.append(Fraction(p, dk))
            sign = 1 if p > 0 else -1
            if sign < 0 and negative is None:
                negative = w[k]
            for i in range(k + 1, n):
                x, y = s[i].re[k], s[i].im[k]
                if x or y:
                    # c = -(s[i][k] / d) with d = p / dk
                    eliminate(i, k, -sign * x * dk, -sign * y * dk, s[i].den * abs(p))
            k += 1
            continue
        hollow = next(
            ((t, u) for t in range(k, n) for u in range(t + 1, n)
             if s[t].re[u] or s[t].im[u]),
            None,
        )
        if hollow is None:
            diag.extend([Fraction(0)] * (n - k))
            break
        t, u = hollow
        swap(k, t)
        swap(k + 1, u)
        # a = s[k][k+1] = (ar + i*ai) / dk; s[k+1][k] = conj(a)
        ar, ai, dk = s[k].re[k + 1], s[k].im[k + 1], s[k].den
        norm = ar * ar + ai * ai
        blocks.append((k, GaussianRational(Fraction(ar, dk), Fraction(ai, dk))))
        diag.extend([Fraction(0), Fraction(0)])
        if negative is None:
            negative = w[k].copy()
            negative.add_scaled(-ar, -ai, dk, w[k + 1])
        for i in range(k + 2, n):
            xr, xi, yr, yi = s[i].re[k], s[i].im[k], s[i].re[k + 1], s[i].im[k + 1]
            q = s[i].den * norm
            # row i -= (y / a) * row k + (x / conj(a)) * row k+1, (x, y) = s[i][k:k+2]
            if yr or yi:
                eliminate(i, k, -dk * (yr * ar + yi * ai), -dk * (yi * ar - yr * ai), q)
            if xr or xi:
                eliminate(i, k + 1, -dk * (xr * ar - xi * ai), -dk * (xr * ai + xi * ar), q)
        k += 2

    transform = [tuple((j, row.at(c)) for j, c in enumerate(perm[:i]) if row.re[c] or row.im[c])
                 for i, row in enumerate(w)]

    return SignatureCertificate(
        matrix=matrix,
        permutation=tuple(perm),
        transform=tuple(transform),
        diag=tuple(diag),
        blocks=tuple(blocks),
        witness=None if negative is None else _primitive_witness(negative),
    )


def inverse_columns(cert: SignatureCertificate) -> list[Vector]:
    """The columns of W^-1, so that M = W^-1 D W^-adj: column k is the vector
    that slot k of D weighs.

    W = L P with L unit lower triangular, so W^-1 = P^T L^-1, and the rows of
    L^-1 come by forward substitution.
    """
    n, perm = cert.size, cert.permutation
    inv: list[GaussianRow] = []
    for i, row in enumerate(cert._lower_rows()):
        out = GaussianRow.from_entries(n, [(i, ONE)])
        for j in range(i):
            if row.re[j] or row.im[j]:
                out.add_scaled(-row.re[j], -row.im[j], row.den, inv[j])
        inv.append(out)
    rows = [row.to_gaussians() for row in inv]
    columns = []
    for k in range(n):
        column = [ZERO] * n
        for j in range(k, n):
            column[perm[j]] = rows[j][k]
        columns.append(tuple(column))
    return columns


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

    The vectors come from the columns of W^-1 in pivot order: column k for a
    1x1 pivot, and for a hollow block a with columns x, y the split
    a x y^adj + conj(a) y x^adj = 1/2 (x + conj(a) y)(..)^adj - 1/2 (x - conj(a) y)(..)^adj.
    The positive part has exactly n_pos terms and the negative part n_neg.
    """
    cert = ldl_signature(matrix)
    columns = inverse_columns(cert)
    positives: list[tuple[Fraction, Vector]] = []
    negatives: list[tuple[Fraction, Vector]] = []
    for k, d in enumerate(cert.diag):
        if d > 0:
            positives.append((d, columns[k]))
        elif d < 0:
            negatives.append((-d, columns[k]))
    half = Fraction(1, 2)
    for k, a in cert.blocks:
        x, y = columns[k], [a.conjugate() * c for c in columns[k + 1]]
        positives.append((half, tuple(p + q for p, q in zip(x, y))))
        negatives.append((half, tuple(p - q for p, q in zip(x, y))))
    return positives, negatives
