"""Norm-power multipliers and the minimal stabilization exponent search.

Multiplying a bihomogeneous kernel by <z, w> shifts its coefficient tensor
along the diagonal; the minimal d for which the d-fold shift has a positive
(semi)definite coefficient matrix is found by a linear upward search.  Each
failing exponent keeps only its evidence, one witness vector v with
v* M_d v < 0 (semi) or v != 0 and v* M_d v <= 0 (strict); the passing one
keeps only the weighted vectors of its certificate, M_d = sum w v v* with
every w > 0, which are the coefficient vectors of a factor of <z, w>^d F.
A failing step stops its elimination at its witness and builds no L
(`certify.mode_evidence`); only the passing step is eliminated to the end.

The search and its re-check in `verify` run one exponent loop,
`exponent_steps`: the form is cleared once to Gaussian-integer numerators over
one denominator (`hermform.CoefficientRows`), <z, w> acts on those by integer
adds, and a step's matrix is scattered from them only by whoever calls
`matrix()`.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

# The search calls mode_evidence; ldl_signature stays bound here because
# perfbench's tracer, and its test, rebind the kernel under this name too.
from .certify import ldl_signature, mode_evidence  # noqa: F401
from .factor import WeightedGramFactor, _factor_from_parts
from .hermform import (
    BihermitianForm,
    CoefficientRows,
    bidegree,
    coefficient_rows,
    homogeneous_basis,
    is_hermitian_symmetric,
)
from .scalars import SparseRow

MODES = ("strict", "semi")


def _pairing_shift(rows: CoefficientRows) -> CoefficientRows:
    """<z, w> times the bidegree-m form of `rows`, in ints: the term
    z^alpha wbar^beta of row i, column j adds its coefficient to
    z^(alpha+e_k) wbar^(beta+e_k) for each k, so entry (p, q) of the
    degree-m matrix adds to (up[p][k], up[q][k]) of the degree-(m+1) one.

    <z, w> * 0 is the zero form, whose bidegree is 0, so zero rows stay as
    they are; any other form keeps a nonzero term.
    """
    if not any(any(row.values()) for row in rows.re + rows.im):
        return rows
    basis = rows.basis
    n = basis.n
    shifted = homogeneous_basis(n, basis.r, basis.bidegree + 1)
    up = [[shifted.index(i, alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]) for k in range(n)]
          for i, alpha in basis.pairs]
    out_re = [{} for _ in shifted.pairs]
    out_im = [{} for _ in shifted.pairs]
    for source, out in ((rows.re, out_re), (rows.im, out_im)):
        for p, row in enumerate(source):
            up_p = up[p]
            for q, x in row.items():
                if x:
                    for a, b in zip(up_p, up[q]):
                        target = out[a]
                        target[b] = target.get(b, 0) + x
    return CoefficientRows(shifted, rows.den, out_re, out_im)


def multiplier_shift(form: BihermitianForm) -> BihermitianForm:
    """The kernel <z, w> * F, one diagonal-translate convolution step.

    Requires a single bidegree m; the result has bidegree m + 1 and keeps
    Hermitian symmetry.
    """
    m = bidegree(form)
    if m is None:
        raise ValueError("multiplier shift requires a single bidegree")
    return _pairing_shift(CoefficientRows.of(form, homogeneous_basis(form.n, form.r, m))).form()


def multiplier_power(form: BihermitianForm, d: int) -> BihermitianForm:
    """The kernel <z, w>^d * F: d integer shifts of the form, cleared once."""
    if d < 0:
        raise ValueError("multiplier exponent must be nonnegative")
    m = bidegree(form)
    if m is None:
        raise ValueError("multiplier power requires a single bidegree")
    if d == 0:
        return form
    rows = CoefficientRows.of(form, homogeneous_basis(form.n, form.r, m))
    for _ in range(d):
        rows = _pairing_shift(rows)
    return rows.form()


def exponent_steps(form: BihermitianForm) -> Iterator[CoefficientRows]:
    """The coefficient rows of <z, w>^d F for d = 0, 1, 2, ...

    Symmetry and the single bidegree are checked once, at d = 0, with the
    errors of `coefficient_matrix`; the shift keeps both.  A step is shifted
    only when the next one is asked for, and its matrix and form are built
    only by whoever calls `matrix()` and `form()`.
    """
    rows = coefficient_rows(form, mode="bidegree")
    while True:
        yield rows
        rows = _pairing_shift(rows)


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

    @property
    def factor(self) -> WeightedGramFactor | None:
        """The weighted factor of <z, w>^d_min F whose rows are `vectors` on
        the bidegree basis, built on demand; None when no d passed."""
        if self.vectors is None:
            return None
        form, d = self.form, self.d_min
        basis = homogeneous_basis(form.n, form.r, bidegree(form) + d)
        return WeightedGramFactor(_factor_from_parts(self.vectors, basis, form.n),
                                  multiplier_power(form, d))


def find_minimal_d(
    form: BihermitianForm, mode: str, d_max: int
) -> StabilizationReport:
    """Smallest d <= d_max whose shifted coefficient matrix passes the mode's test.

    mode "strict" demands positive definiteness (spanning factorization);
    mode "semi" demands positive semidefiniteness.  Once the test passes at
    some d it passes at every larger one, so the linear search is complete.
    Each failing step keeps the witness of `ldl_signature(M_d, strict)`,
    found without finishing the elimination, and the passing one its
    certificate's weighted vectors (`certify.mode_evidence`).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if not is_hermitian_symmetric(form):
        raise ValueError("stabilization search requires a Hermitian-symmetric form")
    if bidegree(form) is None:
        raise ValueError("stabilization search requires a single bidegree")
    report = StabilizationReport(form=form, mode=mode, d_max=d_max, d_min=None)
    strict = mode == "strict"
    for d, rows in zip(range(d_max + 1), exponent_steps(form)):
        matrix = rows.matrix()
        evidence = mode_evidence(matrix, strict)
        witness = evidence if isinstance(evidence, SparseRow) else None
        report.steps.append(StabilizationStep(d, matrix.size, witness))
        if witness is None:
            report.d_min, report.vectors = d, evidence
            return report
    return report


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
