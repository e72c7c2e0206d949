"""Norm-power multipliers and the minimal stabilization exponent search.

Multiplying a bihomogeneous kernel by <z, w> shifts its coefficient tensor
along the diagonal; the minimal d for which the d-fold shift has a positive
(semi)definite coefficient matrix is found by a linear upward search, keeping
the full per-exponent certificate trail for audit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .certify import SignatureCertificate, ldl_signature
from .factor import WeightedGramFactor, _positive_factor
from .hermform import (
    BihermitianForm,
    bidegree,
    coefficient_matrix,
    is_hermitian_symmetric,
)
from .scalars import ZERO

MODES = ("strict", "semi")


def multiplier_shift(form: BihermitianForm) -> BihermitianForm:
    """The kernel <z, w> * F, one diagonal-translate convolution step.

    Requires a single bidegree m; the result has bidegree m + 1 and keeps
    Hermitian symmetry.
    """
    if bidegree(form) is None:
        raise ValueError("multiplier shift requires a single bidegree")
    acc = {}
    for (i, j, alpha, beta), coeff in form.support.items():
        for k in range(form.n):
            key = (
                i,
                j,
                alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :],
                beta[:k] + (beta[k] + 1,) + beta[k + 1 :],
            )
            acc[key] = acc.get(key, ZERO) + coeff
    return BihermitianForm.from_terms(form.n, form.r, acc)


def multiplier_power(form: BihermitianForm, d: int) -> BihermitianForm:
    """The kernel <z, w>^d * F: d applications of multiplier_shift."""
    if d < 0:
        raise ValueError("multiplier exponent must be nonnegative")
    if bidegree(form) is None:
        raise ValueError("multiplier power requires a single bidegree")
    for _ in range(d):
        form = multiplier_shift(form)
    return form


@dataclass(eq=True)
class StabilizationStep:
    """One exponent of the search; its size and inertia are the certificate's."""

    d: int
    passes: bool
    certificate: SignatureCertificate

    @property
    def size(self) -> int:
        return self.certificate.size


@dataclass(eq=True)
class StabilizationReport:
    form: BihermitianForm
    mode: str
    d_max: int
    d_min: int | None
    steps: list[StabilizationStep] = field(default_factory=list)
    factor: WeightedGramFactor | None = None

    def found(self) -> bool:
        return self.d_min is not None


def find_minimal_d(
    form: BihermitianForm, mode: str, d_max: int
) -> StabilizationReport:
    """Smallest d <= d_max whose shifted coefficient matrix passes the mode's test.

    mode "strict" demands positive definiteness (spanning factorization);
    mode "semi" demands positive semidefiniteness.  Once the test passes at
    some d it passes at every larger one, so the linear search is complete.
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
    shifted = form
    for d in range(d_max + 1):
        matrix, basis = coefficient_matrix(shifted, mode="bidegree")
        cert = ldl_signature(matrix)
        passes = (
            cert.is_positive_definite()
            if mode == "strict"
            else cert.is_positive_semidefinite()
        )
        report.steps.append(StabilizationStep(d=d, passes=passes, certificate=cert))
        if passes:
            report.d_min = d
            report.factor = _positive_factor(shifted, cert, basis)
            return report
        if d < d_max:
            shifted = multiplier_shift(shifted)
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
