"""Norm-power multipliers and the minimal stabilization exponent search.

Multiplying a bihomogeneous kernel by <z, w> shifts its coefficient tensor
along the diagonal; the minimal d for which the d-fold shift has a positive
(semi)definite coefficient matrix is found by a linear upward search, run
one step at a time (`search_steps`), so that `symbol` can stop it.  Each
failing exponent has one witness vector v with v* M_d v < 0 (semi) or v != 0
and v* M_d v <= 0 (strict): the unit vector e_p at the first index p whose
diagonal entry M_pp = e_p* M_d e_p is negative (or zero, if strict), else
the witness of the elimination, which stops there and reads no vectors
(`certify.mode_evidence`).  The passing step keeps only the weighted vectors
of its certificate, M_d = sum w v v* with every w > 0, which are the
coefficient vectors of a factor of <z, w>^d F.  Passing is monotone in d (if
<z, w>^d F = sum |h_j|^2, then <z, w>^(d+1) F = sum_k sum_j |z_k h_j|^2), so
a report keeps the witness of the last failing d alone: it proves every
smaller d fails too.

One function builds each M_d in closed form, from the multinomial theorem
and the degree tables of `multiindex` (`shifted_rows`): each step of the
search whose diagonal passes, and above d = 0 every other.  An artifact's
M_d, with its monomials, is `power_matrix`'s, after one check of the form:
the form's own coefficient matrix at d = 0, which a form of mixed degrees
has too, and the closed form above; the multipliers read it too.  M_d holds
Gaussian-integer dict rows over one denominator (`hermform.HermitianMatrix`),
and `mode_evidence` reads its blocks straight from the rows, so no step
builds an n x n matrix.  Every M_d, M_0 included, is at most MAX_MATRIX_SIZE
rows (`hermform.matrix_size`); the search stops at the last d within it
(`last_exponent`), and at d = 0 in one variable, where every M_d is M_0.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

# The search calls mode_evidence; ldl_signature stays bound here because
# perfbench's tracer, and its test, rebind the kernel under this name too.
from .certify import ldl_signature, mode_evidence  # noqa: F401
from .hermform import (
    MAX_MATRIX_SIZE,
    BihermitianForm,
    HermitianMatrix,
    checked_bidegree,
    coefficient_matrix,
    from_coefficient_matrix,
    matrix_size,
)
from .multiindex import MultiIndex, degree_table, dim_homogeneous, enumerate_degree, monomial_code
from .scalars import SparseRow

MODES = ("strict", "semi")


def last_exponent(n: int, r: int, m: int, d_max: int) -> int:
    """The last d that a search up to d_max builds: the largest d <= d_max
    whose M_d is within MAX_MATRIX_SIZE, and at least 0.  The size does not
    fall as d grows, so a bisection finds it.  In one variable it is 0:
    <z, w>^d = |z_1|^(2d) has multinomial weight 1, so every M_d is M_0."""
    if n == 1:
        return 0
    low, high = 0, d_max
    while low < high:
        mid = (low + high + 1) // 2
        if r * dim_homogeneous(n, m + mid) <= MAX_MATRIX_SIZE:
            low = mid
        else:
            high = mid - 1
    return low


def power_matrix(form: BihermitianForm, d: int) -> tuple[HermitianMatrix, tuple[MultiIndex, ...]]:
    """M_d and its monomials, the one choice of builder of an artifact's M_d,
    which checks the form once: `coefficient_matrix` at d = 0, which reads a
    form of mixed degrees too, and `shifted_rows` above."""
    if d < 0:
        raise ValueError("multiplier exponent must be nonnegative")
    if d == 0:
        return coefficient_matrix(form)
    m = checked_bidegree(form)
    return shifted_rows(form, m, d), enumerate_degree(form.n, m + d if form.support else m)


def shifted_rows(form: BihermitianForm, m: int, d: int) -> HermitianMatrix:
    """M_d of a Hermitian-symmetric form of bidegree m in closed form
    (`_scattered`); the search calls it where the diagonal passes."""
    rows_re, rows_im = _scattered(form, form.support.items(), m, d)
    return HermitianMatrix.lowest(rows_re, rows_im or [{} for _ in rows_re], form.den)


def _scattered(form: BihermitianForm, terms, m: int, d: int) -> tuple[list[dict], list[dict]]:
    """The numerator rows re, im over form.den of the part of M_d that the
    `terms` (key, (x, y)) of the form build; im is [] when every y is 0, as
    on the diagonal, whose terms are real.

    By the multinomial theorem <z, w>^d = sum over |mu| = d of
    (d!/mu!) z^mu wbar^mu, so the term c z^alpha wbar^beta of entry (i, j)
    adds (d!/mu!) c to entry ((i, alpha + mu), (j, beta + mu)) of M_d, for
    each mu.  Index (i, gamma) of M_d is i * dim + the rank of gamma in the
    degree table of m + d (`multiindex.degree_table`), looked up at the code
    of alpha plus the code of mu, whose table holds the weights too, once
    per monomial alpha of the terms, not once per term.  The size of M_d is
    checked (`matrix_size`) before any table is built.  The zero form is its
    own product with <z, w>^d, of bidegree 0, so its M_d is M_0.
    """
    n = form.n
    matrix_size(n, form.r, m, d)
    if not form.support:
        d = 0
    width = (m + d).bit_length()  # past every entry of M_d's monomials
    target, shifts = degree_table(n, m + d, width), degree_table(n, d, width)
    # the codes of the mu are the keys of their ranks, in their order
    rank, mu_codes, weights, dim = target.ranks, shifts.ranks, shifts.weights, len(target)
    shifted: dict = {}  # alpha -> the rank of alpha + mu for each mu
    rows_re = [{} for _ in range(form.r * dim)]
    rows_im = [{} for _ in rows_re] if any(y for _, (_, y) in terms) else []
    for (i, j, alpha, beta), (x, y) in terms:
        for mono in (alpha, beta):
            if mono not in shifted:
                code = monomial_code(mono, width)
                shifted[mono] = list(map(rank.__getitem__, map(code.__add__, mu_codes)))
        row_offset, column_offset = i * dim, j * dim
        for rows, c in ((rows_re, x), (rows_im, y)):
            if c:
                for p, q, w in zip(shifted[alpha], shifted[beta], weights):
                    row, q = rows[p + row_offset], q + column_offset
                    row[q] = row.get(q, 0) + w * c
    return rows_re, rows_im


def multiplier_shift(form: BihermitianForm) -> BihermitianForm:
    """The kernel <z, w> * F, one diagonal-translate convolution step.

    Requires a Hermitian-symmetric form of a single bidegree m; the result
    has bidegree m + 1 and keeps Hermitian symmetry.
    """
    return multiplier_power(form, 1)


def multiplier_power(form: BihermitianForm, d: int) -> BihermitianForm:
    """The kernel <z, w>^d * F, read off its coefficient matrix on its
    monomials (`power_matrix`)."""
    matrix, monomials = power_matrix(form, d)
    return from_coefficient_matrix(matrix, form.n, sum(monomials[0]), form.r)


@dataclass(eq=True)
class StabilizationStep:
    """One exponent of the search: its matrix size and, when it fails, the
    witness of its certificate (`SignatureCertificate.witness`), which is
    there exactly when the matrix fails the mode's test."""

    d: int
    size: int
    witness: SparseRow | None

    @property
    def passes(self) -> bool:
        return self.witness is None


@dataclass(eq=True)
class StabilizationReport:
    form: BihermitianForm
    mode: str
    d_max: int
    d_min: int | None
    steps: list[StabilizationStep] = field(default_factory=list)
    vectors: list[tuple[Fraction, SparseRow]] | None = None

    def found(self) -> bool:
        return self.d_min is not None


def find_minimal_d(
    form: BihermitianForm, mode: str, d_max: int
) -> StabilizationReport:
    """Smallest d <= d_max whose M_d, built in closed form at each step
    (`shifted_rows`), passes the mode's test: the report of `search_steps`,
    run to its end.

    mode "strict" demands positive definiteness (spanning factorization);
    mode "semi" demands positive semidefiniteness.  Once the test passes at
    some d it passes at every larger one, so the linear search is complete.
    It stops early at the last d whose M_d is within MAX_MATRIX_SIZE, or at
    d = 0 in one variable (`last_exponent`), and then finds no d.
    """
    for report in search_steps(form, mode, d_max):
        pass
    return report


def search_steps(
    form: BihermitianForm, mode: str, d_max: int
) -> Iterator[StabilizationReport]:
    """The search of `find_minimal_d`, one exponent at a time: its report,
    yielded after each step d = 0, 1, ... is appended, and last after the
    passing step, which sets d_min and vectors, or the last d it builds.
    There is always a step d = 0; the form and arguments are checked before
    it, when the first report is asked for.

    Each step first scatters the terms (i, i, alpha, alpha) alone, the only
    ones on the diagonal of M_d.  A failing step keeps the unit vector at
    its first failing diagonal entry, else the witness of
    `ldl_signature(M_d, strict)`, found without finishing the elimination;
    the passing one keeps its certificate's weighted vectors
    (`certify.mode_evidence`).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    m = checked_bidegree(form)
    report = StabilizationReport(form=form, mode=mode, d_max=d_max, d_min=None)
    strict = mode == "strict"
    diagonal = [(key, c) for key, c in form.support.items()
                if key[0] == key[1] and key[2] == key[3]]
    for d in range(last_exponent(form.n, form.r, m, d_max) + 1):
        rows, _ = _scattered(form, diagonal, m, d)
        # e_p* M_d e_p = M_pp, whose numerator over den > 0 has its sign
        p = next((q for q, x in enumerate(map(dict.get, rows, range(len(rows)), repeat(0)))
                  if x < 0 or (strict and not x)), None)
        vectors, witness = ((None, SparseRow(((p, 1, 0),))) if p is not None
                            else mode_evidence(shifted_rows(form, m, d), strict))
        report.steps.append(StabilizationStep(d, len(rows), witness))
        if witness is None:
            report.d_min, report.vectors = d, vectors
        yield report
        if report.found():
            return


@dataclass(eq=True)
class SweepRow:
    label: str
    report: StabilizationReport | None
    error: str | None
    elapsed: float


def stabilization_sweep(family, mode: str, d_max: int) -> list[SweepRow]:
    """Run find_minimal_d over a labelled family in order; per-row errors do not abort."""
    rows = []
    for label, form in family:
        start = time.perf_counter()
        try:
            report, error = find_minimal_d(form, mode, d_max), None
        except ValueError as exc:
            report, error = None, str(exc)
        rows.append(SweepRow(label, report, error, time.perf_counter() - start))
    return rows
