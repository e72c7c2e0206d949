"""Exact inertia certificates for Hermitian matrices over the Gaussian rationals.

The decision procedure is a pivoted LDL*: each step eliminates with the
largest-magnitude real diagonal entry of the trailing block (rational
comparison).  A nonzero trailing block with an all-zero diagonal is
indefinite; its first nonzero off-diagonal entry a becomes the "hollow" 2x2
pivot [[0, a], [conj(a), 0]] (Bunch & Kaufman, Math. Comp. 31, 1977), which
has one positive and one negative eigenvalue.

The certificate is the factorization P M P^T = L D L^adj itself: L unit lower
triangular, D diagonal apart from the hollow blocks; the inertia of M is that
of D.  Equivalently M = sum_k w_k v_k v_k^adj over the weighted vectors that
`SignatureCertificate.weighted_vectors` reads off L and D, which is how the
certificate is checked and how factors are extracted.

Every vector of a certificate (the columns of L, the witness, each v_k) is a
sparse row (`scalars.SparseRow`) read straight off the integer pivot rows of
the elimination, so building, checking and extracting cost the nonzeros of L.
GaussianRational appears only in the hollow blocks of D and in
`gram_decomposition`'s dense output.

A caller that needs only the evidence of one test, PSD or PD, calls
`mode_evidence`, which runs the same elimination: a failing matrix stops at its
first negative pivot or hollow block and gives the witness `ldl_signature`
would, without building L; a passing one gives its certificate's weighted
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .hermform import HermitianMatrix, hermitian_defect
from .scalars import (
    GaussianRational,
    GaussianRow,
    SparseRow,
    nonzero_indices,
    outer_product_sum,
)

Vector = tuple[GaussianRational, ...]


def inertia_of_d(diag, blocks) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of D: the signs of `diag`, plus
    one of each for every hollow block."""
    return (
        len(blocks) + sum(1 for d in diag if d.numerator > 0),
        len(blocks) + sum(1 for d in diag if d.numerator < 0),
    )


@dataclass(eq=True)
class SignatureCertificate:
    """Checkable pivoted LDL*: P * matrix * P^T = L D L^adj.

    Pivot slot j holds matrix index `permutation[j]`.  `lower[k]` is column
    k of L below its unit diagonal, in pivot coordinates: its entry at j,
    k < j < n ascending, is L[j][k]; every other entry below the diagonal is
    0.  D has `diag` on its diagonal (0 at block slots) and, for each (k, a)
    in `blocks`, the hollow block [[0, a], [conj(a), 0]] at slots k, k + 1.

    `witness` is v with v^adj M v < 0, present exactly when M is not PSD.  A
    `strict` certificate, which decides positive definiteness, also has one
    when M is PSD but singular: a null vector v != 0, so v^adj M v <= 0 in
    either case.
    """

    matrix: HermitianMatrix
    permutation: tuple[int, ...]
    lower: tuple[SparseRow, ...]
    diag: tuple[Fraction, ...]
    blocks: tuple[tuple[int, GaussianRational], ...]
    witness: SparseRow | None
    strict: bool = False

    @property
    def size(self) -> int:
        return self.matrix.size

    @cached_property
    def inertia(self) -> tuple[int, int]:
        """(n_pos, n_neg): the inertia of M is that of D, counted once."""
        return inertia_of_d(self.diag, self.blocks)

    @property
    def n_pos(self) -> int:
        return self.inertia[0]

    @property
    def n_neg(self) -> int:
        return self.inertia[1]

    @property
    def n_zero(self) -> int:
        return self.size - self.n_pos - self.n_neg

    def is_positive_definite(self) -> bool:
        return self.n_pos == self.size

    def is_positive_semidefinite(self) -> bool:
        return self.n_neg == 0

    def weighted_vectors(self) -> list[tuple[Fraction, SparseRow]]:
        """(w, v) pairs, w != 0, with matrix = sum w v v^adj exactly.

        v_k is column k of P^T L: `lower[k]` with its indices mapped through
        `permutation`, and 1 at permutation[k].  Each nonzero d_k gives
        (d_k, v_k) in slot order; then each hollow block a at slots k, k + 1,
        with x = v_k and y = conj(a) v_{k+1}, gives (1/2, x + y) and
        (-1/2, x - y), since a v_k v_{k+1}^adj + conj(a) v_{k+1} v_k^adj is
        their sum.
        """
        perm = self.permutation

        def column(k: int) -> SparseRow:
            den = self.lower[k].den
            return SparseRow(tuple(sorted([(perm[k], den, 0)] + [
                (perm[j], x, y) for j, x, y in self.lower[k].entries])), den)

        out = [(d, column(k)) for k, d in enumerate(self.diag) if d]
        for k, a in self.blocks:
            x, y = column(k), column(k + 1)
            # x + sign * conj(a) y over x.den * y.den * da, with a = (ar + i*ai) / da
            da = lcm(a.re.denominator, a.im.denominator)
            ar, ai, sx, sy = int(a.re * da), int(a.im * da), y.den * da, x.den
            for w, sign in ((Fraction(1, 2), 1), (Fraction(-1, 2), -1)):
                acc = {j: (u * sx, v * sx) for j, u, v in x.entries}
                for j, u, v in y.entries:
                    p, q = acc.get(j, (0, 0))
                    acc[j] = p + sign * sy * (ar * u + ai * v), q + sign * sy * (ar * v - ai * u)
                out.append((w, SparseRow.lowest(
                    ((j, p, q) for j, (p, q) in sorted(acc.items()) if p or q), x.den * sx)))
        return out

    def verify(self) -> tuple[bool, str]:
        """Re-check every claim by exact arithmetic; returns (ok, reason)."""
        n = self.size
        if sorted(self.permutation) != list(range(n)):
            return False, "permutation is not a permutation"
        if len(self.diag) != n or len(self.lower) != n or (
                self.witness is not None and not _ascends_between(-1, self.witness, n)):
            return False, "component sizes disagree"
        for k, column in enumerate(self.lower):
            if not _ascends_between(k, column, n):
                return False, "lower is not strictly lower triangular in pivot order"
        end = -1
        for k, a in self.blocks:
            if not end < k < n - 1 or a.is_zero() or self.diag[k] or self.diag[k + 1]:
                return False, "blocks are not disjoint hollow 2x2 pivots"
            end = k + 1
        if hermitian_defect(self.matrix.rows) is not None:
            return False, "matrix is not Hermitian"
        reason = congruence_failure(self.matrix, self.weighted_vectors())
        if reason is not None:
            return False, reason
        if self.witness is None:
            if self.n_neg > 0:
                return False, "negative inertia without witness"
            if self.strict and self.n_zero > 0:
                return False, "zero inertia without witness"
            return True, "ok"
        reason = witness_failure(self.matrix, self.witness, self.strict)
        return (True, "ok") if reason is None else (False, reason)


def congruence_failure(matrix: HermitianMatrix, vectors) -> str | None:
    """Why M = sum w v v^adj fails over the weighted vectors (w, v), indices
    inside M, or None when it holds exactly: both sides are Hermitian, so the
    upper triangle decides, at the columns where either side is nonzero."""
    re, im, common = outer_product_sum(matrix.size, vectors)
    for p, row in enumerate(matrix.rows):
        re_p, im_p, den = re[p], im[p], row.den
        for q in sorted({*nonzero_indices(re_p, im_p, p), *nonzero_indices(row.re, row.im, p)}):
            if re_p[q] * den != row.re[q] * common or im_p[q] * den != row.im[q] * common:
                return f"congruence identity fails at ({p},{q})"
    return None


def _ascends_between(low: int, row: SparseRow, high: int) -> bool:
    """True when the indices of row ascend strictly from above low to below high."""
    indices = [low, *(j for j, _, _ in row.entries), high]
    return all(a < b for a, b in zip(indices, indices[1:]))


def witness_failure(matrix, v: SparseRow, strict: bool) -> str | None:
    """Why v does not prove that `matrix` (a HermitianMatrix or CoefficientRows)
    fails the mode's test: v^adj M v < 0, or v != 0 and <= 0 if strict."""
    if strict and not any(x or y for _, x, y in v.entries):
        return "witness is zero"
    value = matrix.quadratic_value(v)
    if value > 0 or (value == 0 and not strict):
        return "witness value is positive" if strict else "witness value is not negative"
    return None


def factor_failure(matrix: HermitianMatrix, vectors, strict: bool) -> str | None:
    """Why the weighted vectors (w, v) of a factor do not prove that `matrix`
    passes the mode's test: M = sum w v v^adj with every w > 0, so M is PSD,
    and, if strict, one v per index, each adding exactly one index to the
    supports of those after it, so they are independent and M is PD; the
    weighted vectors of a PD certificate, the columns of P^T L, are."""
    if any(w <= 0 for w, _ in vectors):
        return "factor weight is not positive"
    if not all(_ascends_between(-1, v, matrix.size) for _, v in vectors):
        return "factor index out of range"
    if strict:
        seen: set[int] = set()
        for _, v in reversed(vectors):
            support = {j for j, _, _ in v.entries}
            if len(support - seen) != 1:
                break
            seen |= support
        # each vector read before a break added one index
        if not len(seen) == len(vectors) == matrix.size:
            return "factor rows do not span the coefficient space"
    reason = congruence_failure(matrix, vectors)
    return None if reason is None else f"factor: {reason}"


def _primitive_witness(entries: list[tuple[int, int, int]]) -> SparseRow:
    # nonzero entries (j, re, im), j ascending, over plus or minus their content:
    # Gaussian integers with content 1, the first one's real sign fixed, which
    # keeps witnesses small and deterministic
    _, x, y = entries[0]
    content = gcd(*(c for _, re, im in entries for c in (re, im)))
    return SparseRow.lowest(entries, -content if x < 0 or (x == 0 and y < 0) else content)


def ldl_signature(matrix: HermitianMatrix, strict: bool = False) -> SignatureCertificate:
    """Exact pivoted LDL* with inertia and an indefiniteness witness; with
    `strict`, the witness of a singular PSD matrix is a null vector.

    Pivot rule: largest-magnitude real diagonal entry of the trailing block,
    lowest index on ties.  An all-zero trailing diagonal with a nonzero
    off-diagonal entry proves indefiniteness: the first such entry a, at
    (t, u) with t < u in row-major order, moves t and u to the next two slots
    and eliminates with the 2x2 pivot [[0, a], [conj(a), 0]].  A zero
    trailing block ends the elimination with zero pivots.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix.from_rows(matrix)
    s, perm, diag, blocks, k = _eliminate(matrix, strict, stop=False)
    return SignatureCertificate(
        matrix=matrix,
        permutation=tuple(perm),
        lower=_lower(s, diag, blocks),
        diag=tuple(diag),
        blocks=tuple(blocks),
        witness=None if k is None else _witness(s, perm, blocks, k),
        strict=strict,
    )


def mode_evidence(
    matrix: HermitianMatrix, strict: bool
) -> SparseRow | list[tuple[Fraction, SparseRow]]:
    """The evidence of the mode's test on M, PD if `strict` and PSD if not:
    `ldl_signature(M, strict).witness` when M fails it, and otherwise that
    certificate's weighted vectors, every weight positive.

    The elimination stops at the first negative pivot or hollow block.  The
    witness there reads only the pivot rows before its slot, at columns up to
    its slot, and `perm` up to its slot; later steps swap and change only
    later slots, so the witness is the one the full elimination gives.  Only
    a passing matrix is eliminated to the end, and only its certificate is
    built.
    """
    s, perm, diag, blocks, k = _eliminate(matrix, strict, stop=True)
    if k is not None:
        return _witness(s, perm, blocks, k)
    # A PSD certificate has no blocks, so every weight is a positive pivot.
    return SignatureCertificate(matrix, tuple(perm), _lower(s, diag, blocks), tuple(diag),
                                (), None, strict).weighted_vectors()


def _eliminate(matrix: HermitianMatrix, strict: bool, stop: bool):
    """The pivoted elimination of `ldl_signature`: (s, perm, diag, blocks, k)
    with s the working rows, perm the pivot order and k the witness slot, or
    None when M passes the mode's test.  With `stop` it returns at the first
    negative pivot or hollow block, swapped into place but not eliminated
    with; diag and blocks then end at that slot."""
    n = matrix.size
    # s holds the rows of the working matrix.  Rows before the current step
    # are finished pivots and are never read again, so an elimination step
    # only applies row operations: by Hermitian symmetry the matching column
    # operations change nothing but the finished pivot rows.  Later swaps
    # still reach a finished row, so at the end row k, right of its diagonal,
    # is conj(column k of L D) in the final pivot coordinates.
    s = [row.copy() for row in matrix.rows]
    perm = list(range(n))
    diag: list[Fraction] = []
    blocks: list[tuple[int, GaussianRational]] = []
    # The slot of the first negative pivot or of the first block, and of the
    # first zero pivot.
    negative: int | None = None
    zero: int | None = None

    def swap(k: int, t: int) -> None:
        if k == t:
            return
        s[k], s[t] = s[t], s[k]
        for row in s:  # all rows: a 2x2 step's second swap must reach row k too
            row.swap(k, t)
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
        if best is not None:
            swap(k, best)
            pivot = s[k]
            p, dk = pivot.re[k], pivot.den
            diag.append(Fraction(p, dk))
            sign = 1 if p > 0 else -1
            if sign < 0 and negative is None:
                negative = k
                if stop:
                    return s, perm, diag, blocks, k
            nz = pivot.nonzero()
            for i in range(k + 1, n):
                x, y = s[i].re[k], s[i].im[k]
                if x or y:
                    # row i -= (s[i][k] / d) * row k, d = p / dk
                    s[i].add_scaled(-sign * x * dk, -sign * y * dk, s[i].den * abs(p), pivot, nz)
            k += 1
            continue
        hollow = next(
            ((t, u) for t in range(k, n) for u in range(t + 1, n)
             if s[t].re[u] or s[t].im[u]),
            None,
        )
        if hollow is None:
            diag.extend([Fraction(0)] * (n - k))
            zero = k
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
            negative = k
            if stop:
                return s, perm, diag, blocks, k
        first, second = (s[k], s[k].nonzero()), (s[k + 1], s[k + 1].nonzero())
        for i in range(k + 2, n):
            xr, xi, yr, yi = s[i].re[k], s[i].im[k], s[i].re[k + 1], s[i].im[k + 1]
            q = s[i].den * norm
            # row i -= (y / a) * row k + (x / conj(a)) * row k+1, (x, y) = s[i][k:k+2]
            if yr or yi:
                s[i].add_scaled(-dk * (yr * ar + yi * ai), -dk * (yi * ar - yr * ai), q, *first)
            if xr or xi:
                s[i].add_scaled(-dk * (xr * ar - xi * ai), -dk * (xr * ai + xi * ar), q, *second)
        k += 2
    return s, perm, diag, blocks, zero if negative is None and strict else negative


def _lower(s: list[GaussianRow], diag, blocks) -> tuple[SparseRow, ...]:
    """The columns of L read off the finished pivot rows of a full elimination:
    L[j][k] = conj(s[k][j]) / d_k, and for a block a at k, k+1, whose inverse
    is [[0, 1/conj(a)], [1/a, 0]], L[j][k] = conj(s[k+1][j]) / a and
    L[j][k+1] = conj(s[k][j]) / conj(a)."""

    def column(row: GaussianRow, start: int, cr: int, ci: int, q: int) -> SparseRow:
        # conj(row[j]) * (cr + i*ci) / q at the nonzero row[j], j >= start, for
        # cr + i*ci and q nonzero; the row's own denominator is left to the caller
        re, im = row.re, row.im
        return SparseRow.lowest(((j, re[j] * cr + im[j] * ci, re[j] * ci - im[j] * cr)
                                 for j in nonzero_indices(re, im, start)), q)

    lower = [SparseRow(())] * len(diag)
    for k, d in enumerate(diag):
        if d:
            lower[k] = column(s[k], k + 1, 1, 0, s[k].re[k])
    for k, _ in blocks:
        ar, ai, dk = s[k].re[k + 1], s[k].im[k + 1], s[k].den
        norm = ar * ar + ai * ai
        lower[k] = column(s[k + 1], k + 2, ar * dk, -ai * dk, s[k + 1].den * norm)
        lower[k + 1] = column(s[k], k + 2, ar, ai, norm)
    return tuple(lower)


def _witness(s: list[GaussianRow], perm: list[int], blocks, k: int) -> SparseRow:
    """The witness at slot k of an elimination whose pivots before k are all
    positive; a block there is the first one.

    x^adj D x < 0 for x = e_k at a negative pivot k, or x = e_k - conj(a)
    e_{k+1} (value -2|a|^2) at a block a; at a zero pivot k, which starts the
    zero trailing block, D x = 0 for x = e_k.  The witness is P^T y with
    L^adj y = x, so y_k = 1, and its value is x^adj D x; in the last case
    M P^T y = P^T L D x = 0.  Back substitution runs on the integer pivot
    rows, conj(L[j][i]) = s[i][j] / d_i, and keeps y as Gaussian integers up
    to a positive scale.
    """
    n = len(s)
    yr, yi = [0] * n, [0] * n
    if blocks and blocks[0][0] == k:
        yr[k], yr[k + 1], yi[k + 1], top = s[k].den, -s[k].re[k + 1], s[k].im[k + 1], k + 2
    else:
        yr[k], top = 1, k + 1
    for i in range(k - 1, -1, -1):
        re, im, p, span = s[i].re, s[i].im, s[i].re[i], range(i + 1, top)
        yr[i], yi[i] = (-sum(re[j] * yr[j] - im[j] * yi[j] for j in span),
                        -sum(re[j] * yi[j] + im[j] * yr[j] for j in span))
        yr[i + 1:top] = [p * x for x in yr[i + 1:top]]
        yi[i + 1:top] = [p * y for y in yi[i + 1:top]]
    # y is in pivot coordinates: entry perm[k] of the witness is y[k].
    return _primitive_witness(sorted((perm[k], x, y) for k, x, y in zip(range(n), yr, yi)
                                     if x or y))


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
    """Write M = sum a_k u_k u_k^adj - sum b_l v_l v_l^adj exactly, a_k, b_l > 0,
    from the certificate's weighted vectors, each as a dense tuple.  The
    positive part has exactly n_pos terms and the negative part n_neg."""
    cert = ldl_signature(matrix)
    pairs, n = cert.weighted_vectors(), cert.size
    return ([(w, v.dense(n)) for w, v in pairs if w > 0],
            [(-w, v.dense(n)) for w, v in pairs if w < 0])
