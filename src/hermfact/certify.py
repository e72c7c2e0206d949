"""Exact inertia certificates for Hermitian matrices over the Gaussian rationals.

M is block diagonal up to a permutation over the connected components of its
nonzero pattern; for a coefficient matrix these are the torus cosets of
Gatermann & Parrilo (JPAA 192, 2004).  Each block is eliminated on its own,
in the order of its largest-magnitude diagonal entry (lowest index on ties),
and the blocks' pieces are joined in that order.  A 1x1 block is its own
pivot.

The decision procedure within a block is a pivoted LDL*: each step eliminates
with the largest-magnitude real diagonal entry of the trailing block
(rational comparison).  A nonzero trailing block with an all-zero diagonal is
indefinite; its first nonzero off-diagonal entry a becomes the "hollow" 2x2
pivot [[0, a], [conj(a), 0]] (Bunch & Kaufman, Math. Comp. 31, 1977), which
has one positive and one negative eigenvalue.  The elimination is
fraction-free (Bareiss, Math. Comp. 22, 1968): each row update is one exact
division, with no gcd.

The certificate is the factorization P M P^T = L D L^adj itself: L unit lower
triangular, D diagonal apart from the hollow blocks; the inertia of M is that
of D.  Equivalently M = sum_k w_k v_k v_k^adj over the weighted vectors that
`SignatureCertificate.weighted_vectors` reads off L and D, which is how the
certificate is checked and how factors are extracted.  Joined from blocks, P
keeps each block's indices together and L is block diagonal, so each v_k
lives on its block's indices and nothing about the blocks needs storing.

Every vector of a certificate (the columns of L, the witness, each v_k) is a
sparse row (`scalars.SparseRow`) read straight off the integer pivot rows of
the elimination, so building, checking and extracting cost the nonzeros of L.
GaussianRational appears only in the hollow blocks of D.

A caller that needs only the evidence of one test, PSD or PD, calls
`mode_evidence`, which runs the same elimination: it stops at the first
failing block, at its first negative pivot or hollow block, and gives the
witness `ldl_signature` would, without building L; a passing matrix gives its
certificate's weighted vectors.

M is a `hermform.HermitianMatrix`, integer dict rows over one denominator.
The blocks are read from those rows in place, and each block's own working
rows are the only dense rows built; the congruence check of a certificate
sums its weighted vectors over their supports alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, lt

from .hermform import HermitianMatrix, hermitian_defect
from .scalars import (
    GaussianRational,
    GaussianRow,
    SparseRow,
    nonzero_indices,
    outer_product_sum,
    outer_product_terms,
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
        """(n_pos, n_neg): the inertia of M is that of D, counted once: the
        signs of `diag`, plus one of each for every hollow block."""
        blocks = len(self.blocks)
        return blocks + sum(d > 0 for d in self.diag), blocks + sum(d < 0 for d in self.diag)

    @property
    def n_pos(self) -> int:
        return self.inertia[0]

    @property
    def n_neg(self) -> int:
        return self.inertia[1]

    @property
    def n_zero(self) -> int:
        return self.size - self.n_pos - self.n_neg

    def weighted_vectors(self) -> list[tuple[Fraction, SparseRow]]:
        """(w, v) pairs, w != 0, with matrix = sum w v v^adj exactly.

        c_k is column k of P^T L: `lower[k]` with its indices mapped through
        `permutation`, and 1 at permutation[k].  In slot order, each nonzero
        d_k gives (d_k, c_k), and each hollow block a at slots k, k + 1, with
        x = c_k and y = conj(a) c_{k+1}, gives (1/2, x + y) and (-1/2, x - y),
        since a c_k c_{k+1}^adj + conj(a) c_{k+1} c_k^adj is their sum.  So
        they pass `independence_failure`: read in reverse, c_k adds
        permutation[k], and x + y pairs with x - y.  Each pair (w, c) is then
        given as (w * g^2 / den^2, v): c = (g / den) v, where v is a
        Gaussian-integer vector of content 1, over den = 1, and g the content
        of c's numerators.  So the vectors are written as they are held.
        """
        return _weighted_vectors(self.permutation, self.lower, self.diag, self.blocks)

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
        if hermitian_defect(self.matrix) is not None:
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


def _weighted_vectors(perm, lower, diag, blocks) -> list[tuple[Fraction, SparseRow]]:
    """`SignatureCertificate.weighted_vectors` of the pieces of a certificate."""

    def column(k: int) -> SparseRow:
        den = lower[k].den
        return SparseRow(tuple(sorted([(perm[k], den, 0)] + [
            (perm[j], x, y) for j, x, y in lower[k].entries])), den)

    out = [(k, d, column(k)) for k, d in enumerate(diag) if d]
    for k, a in blocks:
        x, y = column(k), column(k + 1)
        # x + sign * conj(a) y over x.den * y.den * da, with a = (ar + i*ai) / da
        da = lcm(a.re.denominator, a.im.denominator)
        ar, ai, sx, sy = int(a.re * da), int(a.im * da), y.den * da, x.den
        for w, sign in ((Fraction(1, 2), 1), (Fraction(-1, 2), -1)):
            acc = {j: (u * sx, v * sx) for j, u, v in x.entries}
            for j, u, v in y.entries:
                p, q = acc.get(j, (0, 0))
                acc[j] = p + sign * sy * (ar * u + ai * v), q + sign * sy * (ar * v - ai * u)
            out.append((k, w, SparseRow.lowest(
                ((j, p, q) for j, (p, q) in sorted(acc.items()) if p or q), x.den * sx)))
    return [_primitive(w, v) for _, w, v in sorted(out, key=itemgetter(0))]


def _primitive(w: Fraction, c: SparseRow) -> tuple[Fraction, SparseRow]:
    """(w g^2 / den^2, v) for w c c^adj, with c = (g / den) v and v the
    Gaussian integers of content 1 over den = 1."""
    entries, den = c.entries, c.den
    g = gcd(*map(itemgetter(1), entries), *map(itemgetter(2), entries))
    if g == den == 1:
        return w, c
    if g != 1:
        entries = tuple((j, x // g, y // g) for j, x, y in entries)
    return Fraction(w.numerator * g * g, w.denominator * den * den), SparseRow(entries)


def congruence_failure(matrix: HermitianMatrix, vectors) -> str | None:
    """Why M = sum w v v^adj fails over the weighted vectors (w, v), indices
    inside M, or None when it holds exactly: both sides are Hermitian, so the
    upper triangle decides.  Over the sum's denominator `common`, M * common -
    sum * den is summed into copies of M's rows and must be 0; the failure
    named is the first (p, q) in row-major order."""
    terms, common = outer_product_terms(vectors)
    re = [{q: x * common for q, x in row.items() if q >= p} for p, row in enumerate(matrix.re)]
    im = [{q: y * common for q, y in row.items() if q >= p} for p, row in enumerate(matrix.im)]
    outer_product_sum(re, im, terms, -matrix.den)
    for p, (re_p, im_p) in enumerate(zip(re, im)):
        if any(re_p.values()) or any(im_p.values()):
            q = min(q for q in re_p.keys() | im_p.keys() if re_p.get(q) or im_p.get(q))
            return f"congruence identity fails at ({p},{q})"
    return None


def _ascends_between(low: int, row: SparseRow, high: int) -> bool:
    """True when the indices of row ascend strictly from above low to below high."""
    indices = [low, *map(itemgetter(0), row.entries), high]
    return all(map(lt, indices, indices[1:]))


def witness_failure(matrix: HermitianMatrix, v: SparseRow, strict: bool) -> str | None:
    """Why v does not prove that `matrix` fails the mode's test: v^adj M v < 0,
    or v != 0 and <= 0 if strict."""
    if strict and not any(x or y for _, x, y in v.entries):
        return "witness is zero"
    value = matrix.quadratic_value(v)
    if value > 0 or (value == 0 and not strict):
        return "witness value is positive" if strict else "witness value is not negative"
    return None


def independence_failure(vectors) -> str | None:
    """Why the vectors v of weighted vectors (w, v) are not shown independent,
    or None.  Read in reverse, each v must add an index outside the supports
    of those read before it, or add none and pair with the one read just
    before it, u, which added some: v and u restricted to u's new indices
    have rank 2.  The earlier vectors are 0 at those indices, so no
    combination of them all vanishes."""
    seen: set[int] = set()
    u: dict[int, tuple[int, int]] = {}
    for _, v in reversed(vectors):
        entries = {j: (x, y) for j, x, y in v.entries}
        new = entries.keys() - seen
        seen |= new
        # the minor u_i v_j - u_j v_i at i < j, in Gaussian-integer numerators
        if not new and not any(
                _times(u[i], entries.get(j, (0, 0))) != _times(u[j], entries.get(i, (0, 0)))
                for i, j in combinations(sorted(u), 2)):
            return "factor vectors are not independent"
        u = {j: entries[j] for j in new}
    return None


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def factor_failure(matrix: HermitianMatrix, vectors, strict: bool, signed: bool = False
                   ) -> str | None:
    """Why the weighted vectors (w, v) of a factor do not prove that `matrix`
    passes the mode's test: M = sum w v v^adj with every w > 0 and the v
    independent, so M is PSD of rank len(vectors), and, if strict, one v per
    index, so M is PD.  A `signed` factor needs only nonzero weights, and
    proves no mode: by Sylvester's law of inertia its weights' signs are the
    inertia of M."""
    if any(not w if signed else w <= 0 for w, _ in vectors):
        return "factor weight is zero" if signed else "factor weight is not positive"
    if not all(_ascends_between(-1, v, matrix.size) for _, v in vectors):
        return "factor index out of range"
    reason = independence_failure(vectors)
    if reason is not None:
        return reason
    if strict and len(vectors) != matrix.size:
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

    M is eliminated block by block (`_blocks`), and the blocks' pieces are
    joined in block order: P M P^T is then block diagonal, and so is L.
    Within a block the pivot rule is the largest-magnitude real diagonal
    entry of the trailing block, lowest index on ties.  An all-zero trailing
    diagonal with a nonzero off-diagonal entry proves indefiniteness: the
    first such entry a, at (t, u) with t < u in row-major order, moves t and
    u to the next two slots and eliminates with the 2x2 pivot
    [[0, a], [conj(a), 0]].  A zero trailing block ends the block's
    elimination with zero pivots.  The witness is the first failing block's.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix.from_rows(matrix)
    parts, witness = _eliminate_blocks(matrix, strict, stop=False)
    perm, lower, diag, blocks = _joined(parts)
    return SignatureCertificate(
        matrix=matrix,
        permutation=perm,
        lower=lower,
        diag=diag,
        blocks=blocks,
        witness=witness,
        strict=strict,
    )


def mode_evidence(
    matrix: HermitianMatrix, strict: bool
) -> SparseRow | list[tuple[Fraction, SparseRow]]:
    """The evidence of the mode's test on M, PD if `strict` and PSD if not:
    `ldl_signature(M, strict).witness` when M fails it, and otherwise that
    certificate's weighted vectors, every weight positive.

    The blocks are eliminated in order, and the first failing block stops
    at its first negative pivot or hollow block (or, if strict, its first
    zero pivot).  The witness there reads only the pivot rows before its
    slot, at columns up to its slot, and `perm` up to its slot; later steps
    swap and change only later slots, so the witness is the one the full
    elimination gives.  Only the blocks before it are eliminated to the end,
    and L is built only for a passing matrix.
    """
    parts, witness = _eliminate_blocks(matrix, strict, stop=True)
    if witness is not None:
        return witness
    # A PSD certificate has no hollow blocks, so every weight is a positive pivot.
    return _weighted_vectors(*_joined(parts))


def _component(start: int, neighbours, seen: list[bool]) -> list[int]:
    """The indices joined to `start` through `neighbours` (p to each q in
    neighbours(p)) that `seen` does not mark yet, ascending; it marks them."""
    seen[start] = True
    block, stack = [start], [start]
    while stack:
        for q in neighbours(stack.pop()):
            if not seen[q]:
                seen[q] = True
                block.append(q)
                stack.append(q)
    block.sort()
    return block


def _blocks(matrix: HermitianMatrix):
    """The blocks of M, built one at a time: the connected components of its
    nonzero pattern, each its matrix indices, ascending, with its dense
    working rows, M's own numerators over M's den, or, when it is 1x1, its
    entry x / den as the ints (x, den).
    M is block diagonal up to a permutation over them.

    They come in the order of their largest-magnitude diagonal entry,
    descending, lowest index of that entry on ties, so the first block holds
    the pivot that the whole-matrix rule takes first, if the diagonal is not
    all zero.  That is the order in which a stable sort of the indices by
    magnitude, compared as integers over the rows' one denominator, first
    reaches each block.
    """
    re, im, den = matrix.re, matrix.im, matrix.den

    def neighbours(p: int) -> list[int]:
        return [*re[p], *im[p]]

    seen = [False] * len(re)
    for start in sorted(range(len(re)),
                        key=[-abs(row.get(p, 0)) for p, row in enumerate(re)].__getitem__):
        if seen[start]:
            continue
        block = _component(start, neighbours, seen)
        if len(block) == 1:
            if im[start].get(start):
                raise ValueError("matrix is not Hermitian: complex diagonal entry")
            yield block, (re[start].get(start, 0), den)
            continue
        zeros = [0] * len(block)
        yield block, [GaussianRow(list(map(re[p].get, block, zeros)),
                                  list(map(im[p].get, block, zeros)), den) for p in block]


def _eliminate_blocks(matrix, strict: bool, stop: bool):
    """`_eliminate` on each block of M (`_blocks`) in order: (parts, witness),
    parts the (indices, s, perm, diag, blocks) of the blocks, in block
    coordinates, and witness the first failing block's on M's indices, or
    None.  A 1x1 block costs O(1): its entry is its pivot, and its unit
    vector is its vector or its witness; its part has s None and the ints
    (x, den) of its entry for diag.  With `stop`, the blocks end at the
    first failing one, which parts leave out."""
    parts, witness = [], None
    for indices, sub in _blocks(matrix):
        if isinstance(sub, tuple):
            k = 0 if sub[0] < 0 or (strict and not sub[0]) else None
            part = indices, None, None, sub, None
        else:
            s, perm, diag, blocks, k = _eliminate(sub, strict, stop)
            part = indices, s, perm, diag, blocks
        if k is not None and witness is None:
            found = SparseRow(((0, 1, 0),)) if part[1] is None else _witness(s, perm, blocks, k)
            witness = SparseRow(tuple((indices[j], x, y) for j, x, y in found.entries), found.den)
            if stop:
                break
        parts.append(part)
    return parts, witness


def _joined(parts):
    """(permutation, lower, diag, blocks) of the certificate of M from the
    parts of its blocks (`_eliminate_blocks`), joined in block order: a
    block's slots follow the slots of the blocks before it."""
    perm, lower, diag, blocks = [], [], [], []
    for indices, s, block_perm, block_diag, block_blocks in parts:
        if s is None:
            perm.append(indices[0])
            lower.append(SparseRow(()))
            diag.append(Fraction(*block_diag))
            continue
        offset = len(diag)
        perm += [indices[p] for p in block_perm]
        lower += [column if not offset else SparseRow(
            tuple((j + offset, x, y) for j, x, y in column.entries), column.den)
            for column in _lower(s, block_diag, block_blocks)]
        diag += block_diag
        blocks += [(k + offset, a) for k, a in block_blocks]
    return tuple(perm), tuple(lower), tuple(diag), tuple(blocks)


def _eliminate(s: list[GaussianRow], strict: bool, stop: bool):
    """The pivoted elimination of `ldl_signature` on the working rows s of
    M, all over M's den, which it changes in place: (s, perm, diag, blocks,
    k) with perm the pivot order and k the witness slot, or None when M
    passes the mode's test.  With `stop` it returns at the first negative
    pivot or hollow block, swapped into place but not eliminated with; diag
    and blocks then end at that slot."""
    n = len(s)
    # s holds the rows of the working matrix.  Rows before the current step
    # are finished pivots and are never read again, so an elimination step
    # only applies row operations: by Hermitian symmetry the matching column
    # operations change nothing but the finished pivot rows.  Later swaps
    # still reach a finished row, so at the end row k, right of its diagonal,
    # is conj(column k of L D) in the final pivot coordinates.
    #
    # Fraction-free rows: a row's numerators are over sigma * den0, den0 = M's
    # den, at the scale sigma = |Delta| of the leading principal minor of
    # den0 * M over the pivots eliminated when the row last changed.  By
    # Sylvester's identity each update below then divides exactly.  A step
    # leaves the rows it does not reach at their scale, brings its pivot rows
    # to the current one, and writes rows only right of its pivot slots.
    den0, scale = s[0].den, 1
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

    def rescaled(k: int) -> tuple[list[int], list[int]]:
        # row k from slot k on, at the current scale
        row = s[k]
        sigma = row.den // den0
        if sigma != scale:
            row.re[k:] = [x * scale // sigma for x in row.re[k:]]
            row.im[k:] = [y * scale // sigma for y in row.im[k:]]
            row.den = scale * den0
        return row.re[k:], row.im[k:]

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
            (p, *ure), (_, *uim) = rescaled(k)
            diag.append(Fraction(p, s[k].den))
            if p < 0 and negative is None:
                negative = k
                if stop:
                    return s, perm, diag, blocks, k
            sign, scale = (1 if p > 0 else -1), abs(p)
            for row in s[k + 1:]:
                x, y = row.re[k], row.im[k]
                if x or y:
                    # row = (p row - x row k) / (sign(p) sigma), x = row[k], at |p|
                    q = row.den // den0 * sign
                    row.re[k + 1:] = [(p * r - x * u + y * v) // q
                                      for r, u, v in zip(row.re[k + 1:], ure, uim)]
                    row.im[k + 1:] = [(p * r - x * v - y * u) // q
                                      for r, u, v in zip(row.im[k + 1:], ure, uim)]
                    row.den = scale * den0
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
        (_, ar, *ure), (_, ai, *uim) = rescaled(k)
        (_, *vre), (_, *vim) = rescaled(k + 1)
        # a = s[k][k+1] = (ar + i*ai) / den; s[k+1][k] = conj(a)
        blocks.append((k, GaussianRational(Fraction(ar, s[k].den), Fraction(ai, s[k].den))))
        diag.extend([Fraction(0), Fraction(0)])
        if negative is None:
            negative = k
            if stop:
                return s, perm, diag, blocks, k
        norm = ar * ar + ai * ai
        old, scale = scale, norm // scale
        for row in s[k + 2:]:
            xr, xi, yr, yi = row.re[k], row.im[k], row.re[k + 1], row.im[k + 1]
            if xr or xi or yr or yi:
                # row = (|A|^2 row - conj(A) y row k - A x row k+1) / (old sigma),
                # (x, y) = row[k:k+2], A = ar + i*ai, at |A|^2 / old
                br, bi = ar * yr + ai * yi, ar * yi - ai * yr
                cr, ci = ar * xr - ai * xi, ar * xi + ai * xr
                q = row.den // den0 * old
                row.re[k + 2:] = [(norm * r - br * u + bi * v - cr * w + ci * z) // q
                                  for r, u, v, w, z in zip(row.re[k + 2:], ure, uim, vre, vim)]
                row.im[k + 2:] = [(norm * r - br * v - bi * u - cr * z - ci * w) // q
                                  for r, u, v, w, z in zip(row.im[k + 2:], ure, uim, vre, vim)]
                row.den = scale * den0
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
