"""Holomorphic factorizations and difference-of-squares decompositions.

All exact outputs are *weighted* factors: a list of holomorphic polynomial
rows with positive rational weights, reconstructing the target kernel through
`gram`; they are a certificate's weighted vectors read on the basis of its
matrix.  Square roots of the weights appear only in the numeric rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .certify import ldl_signature, mode_evidence
from .hermform import (
    BihermitianForm,
    HoloPolyMatrix,
    Poly,
    checked_bidegree,
    coefficient_matrix,
    gram,
)
from .multiindex import MultiIndex
from .scalars import GaussianRational, SparseRow


@dataclass(eq=True)
class WeightedGramFactor:
    """Holomorphic rows with positive weights whose gram reconstructs `target`."""

    matrix: HoloPolyMatrix
    target: BihermitianForm

    @property
    def rows(self) -> list[tuple[Fraction, tuple[Poly, ...]]]:
        matrix = self.matrix
        return list(zip(matrix.weights or (Fraction(1),) * len(matrix.rows), matrix.rows))


def _vector_to_row(vector: SparseRow, monomials: tuple[MultiIndex, ...], r: int
                   ) -> tuple[Poly, ...]:
    polys: list[Poly] = [dict() for _ in range(r)]
    den, dim = vector.den, len(monomials)
    for j, x, y in vector.entries:
        polys[j // dim][monomials[j % dim]] = GaussianRational(Fraction(x, den), Fraction(y, den))
    return tuple(polys)


def _factor_from_parts(
    parts: list[tuple[Fraction, SparseRow]], monomials: tuple[MultiIndex, ...], r: int
) -> HoloPolyMatrix:
    """The rows of the weighted vectors (w, v) of a matrix on `monomials`
    (`hermform.coefficient_basis`) and r columns, v at index j the
    coefficient of z^monomials[j % dim] in column j // dim."""
    rows = tuple(_vector_to_row(vec, monomials, r) for _, vec in parts)
    return HoloPolyMatrix(len(monomials[0]), r, rows, tuple(wt for wt, _ in parts) or None)


def difference_of_squares(
    form: BihermitianForm,
) -> tuple[WeightedGramFactor, WeightedGramFactor]:
    """Split a Hermitian-symmetric kernel as (sum of squares) - (sum of squares).

    Works for bihomogeneous kernels (rows come out homogeneous) and for
    kernels of mixed degrees (`coefficient_basis`).  Each returned factor
    reconstructs its own gram; the input equals positive.target -
    negative.target exactly.
    """
    matrix, monomials = coefficient_matrix(form)
    pairs = ldl_signature(matrix).weighted_vectors()
    pos_matrix = _factor_from_parts([(w, v) for w, v in pairs if w > 0], monomials, form.r)
    neg_matrix = _factor_from_parts([(-w, v) for w, v in pairs if w < 0], monomials, form.r)
    return (
        WeightedGramFactor(pos_matrix, gram(pos_matrix)),
        WeightedGramFactor(neg_matrix, gram(neg_matrix)),
    )


def _holomorphic_factor(form: BihermitianForm, strict: bool) -> WeightedGramFactor | None:
    checked_bidegree(form)  # bihomogeneous kernels only
    matrix, monomials = coefficient_matrix(form)
    evidence = mode_evidence(matrix, strict)
    if isinstance(evidence, SparseRow):
        return None
    # A PSD certificate has no blocks, so every weight is a positive pivot.
    return WeightedGramFactor(_factor_from_parts(evidence, monomials, form.r), form)


def holomorphic_factor(form: BihermitianForm) -> WeightedGramFactor | None:
    """Weighted holomorphic factorization of a bihomogeneous kernel, if one exists.

    Present exactly when the coefficient matrix is positive semidefinite; the
    number of rows is its rank.  None signals non-factorability (the negative
    witness is available from the certification module).
    """
    return _holomorphic_factor(form, strict=False)


def strict_holomorphic_factor(form: BihermitianForm) -> WeightedGramFactor | None:
    """Factorization whose rows span the whole degree-m coefficient space.

    Present exactly when the coefficient matrix is positive definite; the row
    count then equals the full dimension r * N.
    """
    return _holomorphic_factor(form, strict=True)


def sqrt_fraction(value: Fraction, digits: int) -> Fraction:
    """Rational approximation of sqrt(value) good to about `digits` digits."""
    if value < 0:
        raise ValueError("square root of a negative weight")
    scale = 10**digits
    p, q = value.numerator, value.denominator
    return Fraction(isqrt(p * q * scale * scale), q * scale)


@dataclass(eq=True)
class NumericFactor:
    """Floating-point rendering of a weighted factor: weights folded in as sqrt."""

    n: int
    r: int
    rows: tuple[tuple[dict[MultiIndex, complex], ...], ...]


def numeric_factor(factor, precision: int = 12) -> NumericFactor:
    """Scale each row of a WeightedGramFactor, or of a HoloPolyMatrix of
    weighted rows, by sqrt(weight) and emit complex-float coefficients."""
    matrix = factor if isinstance(factor, HoloPolyMatrix) else factor.matrix
    rows = []
    for weight, polys in zip(matrix.weights or (Fraction(1),) * len(matrix.rows), matrix.rows):
        root = GaussianRational(sqrt_fraction(weight, precision))
        rows.append(tuple({a: complex(c * root) for a, c in poly.items()} for poly in polys))
    return NumericFactor(matrix.n, matrix.ncols, tuple(rows))
