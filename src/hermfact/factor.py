"""Holomorphic factorizations and difference-of-squares decompositions.

All exact outputs are *weighted* factors: a list of holomorphic polynomial
rows with positive rational weights, reconstructing the target kernel through
`gram`.  Square roots of the weights appear only in the numeric rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .certify import ldl_signature, mode_evidence
from .hermform import (
    BihermitianForm,
    CoefficientBasis,
    HoloPolyMatrix,
    Poly,
    bidegree,
    coefficient_matrix,
    gram,
    is_hermitian_symmetric,
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
        weights = self.matrix.weights
        if weights is None:
            weights = tuple(Fraction(1) for _ in self.matrix.rows)
        return list(zip(weights, self.matrix.rows))

    def reconstructs_target(self) -> bool:
        return gram(self.matrix) == self.target


def _vector_to_row(vector: SparseRow, basis: CoefficientBasis) -> tuple[Poly, ...]:
    polys: list[Poly] = [dict() for _ in range(basis.r)]
    den = vector.den
    for j, x, y in vector.entries:
        i, alpha = basis.pairs[j]
        polys[i][alpha] = GaussianRational(Fraction(x, den), Fraction(y, den))
    return tuple(polys)


def _factor_from_parts(
    parts: list[tuple[Fraction, SparseRow]], basis: CoefficientBasis, n: int
) -> HoloPolyMatrix:
    rows = [_vector_to_row(vec, basis) for _, vec in parts]
    weights = [wt for wt, _ in parts]
    return HoloPolyMatrix.from_rows(n, rows, weights, ncols=basis.r)


def difference_of_squares(
    form: BihermitianForm,
) -> tuple[WeightedGramFactor, WeightedGramFactor]:
    """Split a Hermitian-symmetric kernel as (sum of squares) - (sum of squares).

    Works for bihomogeneous kernels (rows come out homogeneous) and for
    generalized ones.  Each returned factor reconstructs its own gram; the
    input equals positive.target - negative.target exactly.
    """
    if not is_hermitian_symmetric(form):
        raise ValueError("difference of squares requires a Hermitian-symmetric form")
    matrix, basis = coefficient_matrix(form)
    pairs = ldl_signature(matrix).weighted_vectors()
    pos_matrix = _factor_from_parts([(w, v) for w, v in pairs if w > 0], basis, form.n)
    neg_matrix = _factor_from_parts([(-w, v) for w, v in pairs if w < 0], basis, form.n)
    return (
        WeightedGramFactor(pos_matrix, gram(pos_matrix)),
        WeightedGramFactor(neg_matrix, gram(neg_matrix)),
    )


def _positive_factor(
    form: BihermitianForm, vectors: list[tuple[Fraction, SparseRow]], basis: CoefficientBasis
) -> WeightedGramFactor:
    """The factor of `form` whose rows are the weighted vectors of a PSD
    certificate of its coefficient matrix on `basis`; with no blocks, every
    weight is a positive pivot."""
    return WeightedGramFactor(_factor_from_parts(vectors, basis, form.n), form)


def _holomorphic_factor(form: BihermitianForm, strict: bool) -> WeightedGramFactor | None:
    if not is_hermitian_symmetric(form):
        raise ValueError("holomorphic factorization requires a Hermitian-symmetric form")
    if bidegree(form) is None:
        raise ValueError("holomorphic factorization requires a single bidegree")
    matrix, basis = coefficient_matrix(form, mode="bidegree")
    evidence = mode_evidence(matrix, strict)
    if isinstance(evidence, SparseRow):
        return None
    return _positive_factor(form, evidence, basis)


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

    def evaluate_rows(self, z) -> list[list[complex]]:
        z = tuple(complex(c) for c in z)
        out = []
        for row in self.rows:
            values = []
            for poly in row:
                acc = 0j
                for alpha, coeff in poly.items():
                    term = coeff
                    for zk, a in zip(z, alpha):
                        if a:
                            term *= zk**a
                    acc += term
                values.append(acc)
            out.append(values)
        return out

    def reconstruction(self, z) -> list[list[complex]]:
        """Approximate F(z, zbar) as sum_k B_ki(z) * conj(B_kj(z))."""
        values = self.evaluate_rows(z)
        out = [[0j] * self.r for _ in range(self.r)]
        for row in values:
            for i in range(self.r):
                for j in range(self.r):
                    out[i][j] += row[i] * row[j].conjugate()
        return out


def numeric_factor(factor: WeightedGramFactor, precision: int = 12) -> NumericFactor:
    """Scale each row by sqrt(weight) and emit complex-float coefficients."""
    s, r = factor.matrix.shape
    rows = []
    for weight, polys in factor.rows:
        root = sqrt_fraction(weight, precision)
        scaled = []
        for poly in polys:
            scaled.append(
                {alpha: complex(coeff * GaussianRational(root)) for alpha, coeff in poly.items()}
            )
        rows.append(tuple(scaled))
    return NumericFactor(factor.matrix.n, r, tuple(rows))
