"""Shared fixtures: canonical kernels, random instance builders, and the
independent brute-force oracles the tests freeze expected values from."""

from __future__ import annotations

import dataclasses
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import add as _add

import pytest

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HermitianMatrix,
    HoloPolyMatrix,
    MultiIndex,
    SignatureCertificate,
    bidegree,
    enumerate_degree,
    WeightedGramFactor,
    gram,
    is_hermitian_symmetric,
    ldl_signature,
    multiplier_power,
    scale,
    serialize,
)
from hermfact import certify
from hermfact.factor import NumericFactor, _factor_from_parts
from hermfact.hermform import TermKey, checked_bidegree, coefficient_matrix
from hermfact.parsing import ParseError
from hermfact.scalars import ZERO, GaussianRow, SparseRow, as_gaussian, nonzero_indices
from hermfact.stabilize import MODES, StabilizationReport, StabilizationStep
from hermfact.symbols import EllipticityReport, RealSymbol

# ---------------------------------------------------------------------------
# canonical instances


def quartic_family(c) -> BihermitianForm:
    """|z1|^4 + c*|z1 z2|^2 + |z2|^4 as a kernel on C^2."""
    return BihermitianForm.from_terms(
        2,
        1,
        {
            (0, 0, (2, 0), (2, 0)): 1,
            (0, 0, (1, 1), (1, 1)): GaussianRational(Fraction(c)),
            (0, 0, (0, 2), (0, 2)): 1,
        },
    )


def diagonal_quartic() -> BihermitianForm:
    """|z1|^4 + |z2|^4: semidefinite-factorable but with no cross term."""
    return quartic_family(0)


def square_difference() -> BihermitianForm:
    """(|z1|^2 - |z2|^2)^2, whose zero set is not an analytic variety."""
    return quartic_family(-2)


# ---------------------------------------------------------------------------
# the text renderer, once hermfact.parsing.format_form: the round-trip tests
# hold the parser to it.  Parsing its text gives the form back.


def _format_coefficient(c: GaussianRational, lead: bool) -> str:
    if c.im == 0:
        body = str(c.re)
        if body.startswith("-"):
            return body if lead else f"- {body[1:]}"
        return body if lead else f"+ {body}"
    sign = "+" if c.im > 0 else "-"
    body = f"({c.re} {sign} {abs(c.im)}*i)"
    return body if lead else f"+ {body}"


def _format_monomial(alpha, beta) -> str:
    return "*".join(f"{name}{k + 1}" + (f"^{e}" if e > 1 else "")
                    for name, exps in (("z", alpha), ("zb", beta)) for k, e in enumerate(exps) if e)


def format_scalar_entry(form: BihermitianForm, i: int, j: int) -> str:
    # By total degree, then by exponents descending, z before zb.
    keys = sorted((key for key in form.support if key[0] == i and key[1] == j),
                  key=lambda key: (sum(key[2]) + sum(key[3]), tuple(-e for e in key[2] + key[3])))
    if not keys:
        return "0"
    chunks = []
    for pos, key in enumerate(keys):
        coeff = form.coefficient(*key)
        mono = _format_monomial(key[2], key[3])
        text = _format_coefficient(coeff, lead=(pos == 0))
        if mono:
            if coeff == as_gaussian(1):
                text = mono if pos == 0 else f"+ {mono}"
            elif coeff == as_gaussian(-1):
                text = f"-{mono}" if pos == 0 else f"- {mono}"
            else:
                text = f"{text}*{mono}"
        chunks.append(text)
    return " ".join(chunks)


def format_form(form: BihermitianForm) -> str:
    """Deterministic text rendering; parsing it back reproduces the form."""
    if form.r == 1:
        return format_scalar_entry(form, 0, 0)
    rows = ("[" + ", ".join(format_scalar_entry(form, i, j) for j in range(form.r)) + "]"
            for i in range(form.r))
    return "[" + ", ".join(rows) + "]"


# ---------------------------------------------------------------------------
# independent oracles


def binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def oracle_quartic_entries(c, d: int) -> list[Fraction]:
    """Diagonal of the d-shifted coefficient matrix of quartic_family(c).

    Independent of the package: the shifted kernel stays diagonal in the
    monomial basis and its entry at position k is
    binom(d, k) + c*binom(d, k-1) + binom(d, k-2).
    """
    c = Fraction(c)
    return [binom(d, k) + c * binom(d, k - 1) + binom(d, k - 2) for k in range(d + 3)]


def oracle_quartic_dmin(c, mode: str = "strict", d_max: int = 64) -> int | None:
    for d in range(d_max + 1):
        entries = oracle_quartic_entries(c, d)
        if mode == "strict":
            if all(e > 0 for e in entries):
                return d
        else:
            if all(e >= 0 for e in entries):
                return d
    return None


def oracle_diagonal_shift_entries(coeffs: dict[tuple[int, int], Fraction], d: int):
    """Closed-form convolution for diagonal scalar kernels on C^2.

    coeffs maps (a, b) with a + b = m to the coefficient of |z1|^(2a)|z2|^(2b);
    position k of the shifted matrix (monomial z1^(m+d-k) z2^k) receives
    sum over (a, b) of coeff * binom(d, k - b).
    """
    m = next(iter(coeffs))[0] + next(iter(coeffs))[1]
    return [
        sum(coeff * binom(d, k - b) for (a, b), coeff in coeffs.items())
        for k in range(m + d + 1)
    ]


def quadratic_value(matrix: HermitianMatrix, vec) -> GaussianRational:
    """Independent v* M v, written out longhand; a SparseRow v is read densely."""
    if isinstance(vec, SparseRow):
        vec = dense(vec, matrix.size)
    acc = GaussianRational()
    for i, vi in enumerate(vec):
        for j, vj in enumerate(vec):
            acc = acc + vi.conjugate() * matrix.at(i, j) * vj
    return acc


def evidence(cert: SignatureCertificate) -> tuple[list, SparseRow | None]:
    """The weighted vectors and witness of a certificate, which
    `serialize.factor_to_obj` and `certificate_to_obj` write."""
    return cert.vectors, cert.witness


def full_evidence(matrix: HermitianMatrix, strict: bool) -> tuple[list | None, SparseRow | None]:
    """The evidence of the mode's test, PD if `strict` and PSD if not, that
    the full elimination of M gives, every block eliminated to its end:
    (vectors, None) or (None, witness), the first failing block's.
    `certify.mode_evidence` must give the same, though it stops at that
    block; without `strict` it is `ldl_signature`'s evidence."""
    parts, witness = certify._eliminate_blocks(matrix, strict, stop=False)
    return (None, witness) if witness is not None else (certify._joined(parts)[1], None)


def reference_basis(form: BihermitianForm) -> tuple[MultiIndex, ...]:
    """The monomials of M_0, longhand: those of the one degree of the alphas
    and betas, or of every degree up to the largest of them when they have
    more than one, degree ascending, then lexicographically descending."""
    degrees = {sum(mono) for key in form.support for mono in key[2:]} or {0}
    if len(degrees) > 1:
        degrees = set(range(max(degrees) + 1))
    monomials = [alpha for alpha in product(range(max(degrees) + 1), repeat=form.n)
                 if sum(alpha) in degrees]
    return tuple(sorted(monomials, key=lambda alpha: (sum(alpha), [-a for a in alpha])))


def reference_coefficient_matrix(form: BihermitianForm) -> HermitianMatrix:
    """The dense construction: a GaussianRational grid filled from the
    support, then the checked HermitianMatrix.from_rows.  The grid is
    indexed (i, alpha), i major, over the monomials of `reference_basis`."""
    pairs = [(i, alpha) for i in range(form.r) for alpha in reference_basis(form)]
    index = {pair: k for k, pair in enumerate(pairs)}
    rows = [[GaussianRational()] * len(pairs) for _ in pairs]
    for i, j, alpha, beta in form.support:
        rows[index[(i, alpha)]][index[(j, beta)]] = form.coefficient(i, j, alpha, beta)
    return HermitianMatrix.from_rows(rows)


def reference_term_sums(items) -> dict:
    """The coefficient of each key of the (key, c) items, summed in Fraction
    arithmetic, zero sums dropped: what BihermitianForm.from_terms reads."""
    sums = {}
    for key, c in items:
        c = as_gaussian(c)
        re, im = sums.get(key, (Fraction(0), Fraction(0)))
        sums[key] = re + c.re, im + c.im
    return {key: GaussianRational(re, im) for key, (re, im) in sums.items() if re or im}


# Exact evaluation and sphere sampling in GaussianRational and Fraction
# arithmetic, as they were before hermform.evaluate_exact and
# symbols._sample_symbol moved to integer numerators; the property tests hold
# the integer versions to these.
def _reference_monomial_value(point, alpha):
    value = None
    for z, a in zip(point, alpha):
        if a == 0:
            continue
        p = z**a
        value = p if value is None else value * p
    return value


def reference_evaluate_exact(form: BihermitianForm, z, w) -> list[list[GaussianRational]]:
    """Exact value of F(z, wbar) at Gaussian-rational points z, w."""
    z = tuple(as_gaussian(c) for c in z)
    w = tuple(as_gaussian(c) for c in w)
    if len(z) != form.n or len(w) != form.n:
        raise ValueError("point length differs from ambient dimension")
    out = [[ZERO] * form.r for _ in range(form.r)]
    for i, j, alpha, beta in form.support:
        term = form.coefficient(i, j, alpha, beta)
        za = _reference_monomial_value(z, alpha)
        if za is not None:
            term = term * za
        wb = _reference_monomial_value(w, beta)
        if wb is not None:
            term = term * wb.conjugate()
        out[i][j] = out[i][j] + term
    return out


def reference_rational_sphere_point(params) -> tuple[GaussianRational, ...]:
    """Exact unit-sphere point in C^n from 2n-1 rational stereographic parameters."""
    params = [Fraction(p) for p in params]
    if len(params) % 2 != 1:
        raise ValueError("need an odd number of parameters (2n - 1)")
    norm2 = sum(p * p for p in params)
    denom = 1 + norm2
    coords = [2 * p / denom for p in params] + [(norm2 - 1) / denom]
    return tuple(
        GaussianRational(coords[2 * k], coords[2 * k + 1])
        for k in range(len(coords) // 2)
    )


def reference_sphere_sample_points(n: int, extra: int = 60, seed: int = 7):
    """Deterministic exact sphere points: axes, a small grid, and seeded samples."""
    points = []
    for k in range(n):
        point = [ZERO] * n
        point[k] = GaussianRational(Fraction(1))
        points.append(tuple(point))
    m = 2 * n - 1
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    for i in range(m):
        for j in range(i, m):
            for vi in values:
                for vj in values:
                    w = [Fraction(0)] * m
                    w[i], w[j] = vi, vj
                    points.append(reference_rational_sphere_point(w))
    rng = random.Random(seed)
    for _ in range(extra):
        w = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
        points.append(reference_rational_sphere_point(w))
    seen = set()
    unique = []
    for p in points:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


# A symbol that changes sign on the sphere although every M_d past M_0 has a
# positive diagonal, so no step d >= 1 fails at its diagonal: each one runs
# the elimination, on an M_d that grows with d.  Only the sphere walk decides
# it.
POSITIVE_DIAGONAL_SIGN_CHANGE = "z1^2*zb1^2 + z2^2*zb2^2 + 3*z1^2*zb2^2 + 3*z2^2*zb1^2"


def reference_sample_symbol(form: BihermitianForm):
    """Exact sphere sampling, stopped at the first decisive point: the
    evidence (zero_point, None) at the first exact zero, or
    (None, (pos_point, neg_point)), the first point of each sign, at the
    first point of the second sign, whichever comes first; None when the
    grid has neither."""
    pos_point = neg_point = None
    for point in reference_sphere_sample_points(form.n):
        value = reference_evaluate_exact(form, point, point)[0][0]
        if value.im != 0:
            raise ValueError("kernel is not real-valued on the diagonal")
        if value.re == 0:
            return point, None
        if value.re > 0 and pos_point is None:
            pos_point = point
        elif value.re < 0 and neg_point is None:
            neg_point = point
        if pos_point is not None and neg_point is not None:
            return None, (pos_point, neg_point)
    return None


# The per-term dict arithmetic that the integer kernel of hermform.gram
# replaced; the property tests hold gram to it.
def reference_gram(a: HoloPolyMatrix) -> BihermitianForm:
    """The r-by-r kernel F_ij(z, wbar) = sum_k w_k * A_ki(z) * conj(A_kj(w)).

    Row weights w_k default to 1.  The result is always Hermitian-symmetric,
    and its coefficient matrix is positive semidefinite by construction.
    """
    s, r = a.shape
    weights = a.weights if a.weights is not None else tuple(Fraction(1) for _ in range(s))
    acc: dict[TermKey, GaussianRational] = {}
    for k in range(s):
        w = as_gaussian(weights[k])
        for i in range(r):
            for j in range(r):
                for alpha, ca in a.rows[k][i].items():
                    for beta, cb in a.rows[k][j].items():
                        key = (i, j, alpha, beta)
                        acc[key] = acc.get(key, ZERO) + w * ca * cb.conjugate()
    return BihermitianForm.from_terms(a.n, r, acc)


def reference_form_obj(form: BihermitianForm) -> dict:
    """The kernel writer before terms were rows: one object per term, keyed
    i, j, alpha, beta, re, im, as input files still spell it."""
    terms = [{"i": i + 1, "j": j + 1, "alpha": list(alpha), "beta": list(beta),
              "re": reference_fraction_to_str(c.re), "im": reference_fraction_to_str(c.im)}
             for (i, j, alpha, beta), c in ((key, form.coefficient(*key))
                                            for key in sorted(form.support))]
    return {"kind": "bihermitian_form", "n": form.n, "r": form.r, "terms": terms}


# The weighted_gram_factor format and its check before a factor was its
# weighted vectors on its form: polynomial rows with their weights, the shape
# and a `target` copy of the shifted form, valid when gram(rows) == target.
# The property tests hold the rows built from an emitted factor to it.
def reference_factor_to_obj(factor: WeightedGramFactor) -> dict:
    matrix = factor.matrix
    weights = matrix.weights or (Fraction(1),) * len(matrix.rows)
    return {
        "kind": "weighted_gram_factor",
        "n": matrix.n,
        "shape": [len(matrix.rows), matrix.ncols],
        "rows": [{"weight": serialize.fraction_to_str(w), "entries": [
            [{"alpha": list(alpha), "re": serialize.fraction_to_str(c.re),
              "im": serialize.fraction_to_str(c.im)} for alpha, c in sorted(poly.items())]
            for poly in row]} for w, row in zip(weights, matrix.rows)],
        "target": reference_form_obj(factor.target),
    }


# The stabilization and ellipticity writers before search reports held
# evidence alone: a stabilization also stored its d_min, and an ellipticity
# report its verdict and d, all of which follow from the evidence.  Reports
# they write are in no current format.
def reference_stabilization_to_obj(report: StabilizationReport) -> dict:
    return {
        "kind": "stabilization_report",
        "mode": report.mode,
        "d_max": report.d_max,
        "d_min": report.d_min,
        "form": serialize.form_to_obj(report.form),
        "trail": [serialize._sparse_to_obj(step.witness)
                  for step in report.steps if not step.passes],
        "factor": None if report.vectors is None else serialize._vectors_to_obj(report.vectors),
    }


def reference_ellipticity_to_obj(report: EllipticityReport) -> dict:
    point = report.witness_point
    positive, negative = report.sign_pair or (None, None)
    return {
        "kind": "ellipticity_report",
        "form": serialize.form_to_obj(report.form),
        "verdict": report.verdict,
        "d": report.d,
        "witness_point": [serialize.gaussian_to_pair(c) for c in point] if point else None,
        "sign_change": {"positive_at": [serialize.gaussian_to_pair(c) for c in positive],
                        "negative_at": [serialize.gaussian_to_pair(c) for c in negative]}
        if report.sign_pair else None,
        "stabilization": reference_stabilization_to_obj(report.stabilization)
        if report.stabilization else None,
    }


def reference_obj_to_factor(obj: dict) -> WeightedGramFactor:
    rows = [[{tuple(item["alpha"]): serialize.pair_to_gaussian([item["re"], item["im"]])
              for item in entry} for entry in row["entries"]] for row in obj["rows"]]
    weights = [Fraction(*serialize.read_ratio(row["weight"])) for row in obj["rows"]]
    matrix = holo_matrix(obj["n"], rows, weights if rows else None, ncols=obj["shape"][1])
    return WeightedGramFactor(matrix, serialize.obj_to_form(obj["target"]))


def reconstructs_target(factor: WeightedGramFactor) -> bool:
    return gram(factor.matrix) == factor.target


# The dict arithmetic over GaussianRational that the integer exponent loop of
# hermfact.stabilize replaced; the property tests hold the loop to it.
def reference_multiplier_shift(form: BihermitianForm) -> BihermitianForm:
    """The kernel <z, w> * F, one diagonal-translate convolution step.

    Requires a single bidegree m; the result has bidegree m + 1 and keeps
    Hermitian symmetry.
    """
    if bidegree(form) is None:
        raise ValueError("multiplier shift requires a single bidegree")
    acc = {}
    for i, j, alpha, beta in form.support:
        coeff = form.coefficient(i, j, alpha, beta)
        for k in range(form.n):
            key = (
                i,
                j,
                alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :],
                beta[:k] + (beta[k] + 1,) + beta[k + 1 :],
            )
            acc[key] = acc.get(key, ZERO) + coeff
    return BihermitianForm.from_terms(form.n, form.r, acc)


def reference_multiplier_power(form: BihermitianForm, d: int) -> BihermitianForm:
    """The kernel <z, w>^d * F: d applications of reference_multiplier_shift."""
    for _ in range(d):
        form = reference_multiplier_shift(form)
    return form


# The search's exponent loop as it was before every step was built in closed
# form (`stabilize.shifted_rows`): each step is one shift of the one before.
def reference_exponent_steps(form: BihermitianForm
                             ) -> Iterator[tuple[HermitianMatrix, tuple[MultiIndex, ...]]]:
    """M_d, the coefficient matrix of <z, w>^d F, and its monomials for d =
    0, 1, 2, ..., each step <z, w> times the one before, in ints: the term
    z^alpha wbar^beta of row i, column j adds its coefficient to
    z^(alpha+e_k) wbar^(beta+e_k) for each k, so entry (p, q) of the
    degree-m matrix adds to (up[p][k], up[q][k]) of the degree-(m+1) one.

    Symmetry and the single bidegree are checked once, at d = 0
    (`checked_bidegree`); the shift keeps both.  <z, w> * 0 is the zero
    form, whose bidegree is 0, so the zero matrix stays as it is.
    """
    checked_bidegree(form)
    matrix, monomials = coefficient_matrix(form)
    n, r = form.n, form.r
    while True:
        yield matrix, monomials
        if not any(matrix.re) and not any(matrix.im):
            continue
        shifted = enumerate_degree(n, sum(monomials[0]) + 1)
        index = {(i, gamma): i * len(shifted) + k
                 for i in range(r) for k, gamma in enumerate(shifted)}
        up = [[index[(i, alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:])] for k in range(n)]
              for i in range(r) for alpha in monomials]
        out_re = [{} for _ in index]
        out_im = [{} for _ in index]
        for source, out in ((matrix.re, out_re), (matrix.im, out_im)):
            for p, row in enumerate(source):
                for q, x in row.items():
                    for a, b in zip(up[p], up[q]):
                        out[a][b] = out[a].get(b, 0) + x
        matrix, monomials = HermitianMatrix.lowest(out_re, out_im, matrix.den), shifted


# The search as it was before failing steps stopped at their witness and
# before each step was built in closed form: every step is a shift of the one
# before and runs the whole pivoted LDL* and builds L; find_minimal_d must
# give the same report.  Only the witness rule is the search's: the unit
# vector at the first failing diagonal index, read off the dense M_d.
def reference_find_minimal_d(form: BihermitianForm, mode: str, d_max: int):
    """Smallest d <= d_max whose shifted coefficient matrix passes the mode's
    test, each failing step keeping e_p for the first index p whose diagonal
    entry is negative (or zero, if strict), else the witness of its full
    elimination (`full_evidence`), and the passing one its certificate's
    weighted vectors."""
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
    # In one variable every M_d is M_0, and the search stops at d = 0.
    last = d_max if form.n > 1 else 0
    for d, (matrix, _) in zip(range(last + 1), reference_exponent_steps(form)):
        vectors, witness = full_evidence(matrix, strict)
        failing = [p for p, row in enumerate(matrix.entries)
                   if row[p].re < 0 or (strict and row[p].re == 0)]
        witness = SparseRow(((failing[0], 1, 0),)) if failing else witness
        step = StabilizationStep(d, matrix.size, witness)
        report.steps.append(step)
        if step.passes:
            report.d_min = d
            report.vectors = vectors
            return report
    return report


# ---------------------------------------------------------------------------
# the reference report writers
#
# fraction_to_str, and the certificate matrix written entry by entry from the
# dense GaussianRational grid, as they were before hermfact.serialize wrote
# the matrix from the integer rows; the property tests hold the writers to
# them.
def reference_fraction_to_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def reference_matrix_obj(matrix: HermitianMatrix) -> list:
    return [[[reference_fraction_to_str(c.re), reference_fraction_to_str(c.im)]
             for c in row] for row in matrix.entries]


# ---------------------------------------------------------------------------
# dense matrix products and the reference certification kernel
#
# The reference kernel is the straightforward elimination over
# GaussianRational entries that the integer-row kernel in hermfact.certify
# replaced.  It keeps the older hollow step (a unit row combination instead
# of a 2x2 pivot) and tracks W^-1 beside W, so on inputs without a hollow step
# the package must emit the same permutation, diagonal and witness, and the
# weighted vectors of that W^-1, which is L in pivot coordinates.
# reference_verify re-checks the package's certificate by dense products and
# must give the same verdicts as verify.


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for i in range(rows):
        row = []
        ai = a[i]
        for j in range(cols):
            acc = ZERO
            for k in range(inner):
                x = ai[k]
                y = b[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_adjoint(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return tuple(tuple(a[i][j].conjugate() for i in range(rows)) for j in range(cols))


def mat_identity(size: int):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size)
    )


def _reference_primitive(vec):
    denom = 1
    for c in vec:
        denom = denom * c.re.denominator // gcd(denom, c.re.denominator)
        denom = denom * c.im.denominator // gcd(denom, c.im.denominator)
    numer = 0
    for c in vec:
        numer = gcd(numer, abs(c.re.numerator * (denom // c.re.denominator)))
        numer = gcd(numer, abs(c.im.numerator * (denom // c.im.denominator)))
    factor = GaussianRational(Fraction(denom, numer if numer else 1))
    scaled = [c * factor for c in vec]
    for c in scaled:
        if not c.is_zero():
            if c.re < 0 or (c.re == 0 and c.im < 0):
                scaled = [-x for x in scaled]
            break
    return tuple(scaled)


@dataclass
class ReferenceCertificate:
    """The reference kernel's record: dense W and W^-1, rows in pivot order."""

    matrix: HermitianMatrix
    n_pos: int
    n_neg: int
    n_zero: int
    permutation: tuple[int, ...]
    transform: tuple
    transform_inv: tuple
    diag: tuple[Fraction, ...]
    witness: tuple | None


def reference_ldl_signature(matrix: HermitianMatrix) -> ReferenceCertificate:
    """Pivoted congruence diagonalization entry by entry over GaussianRational."""
    n = matrix.size
    s = [list(row) for row in matrix.entries]
    w = [list(row) for row in mat_identity(n)]
    winv = [list(row) for row in mat_identity(n)]
    perm = list(range(n))
    diag: list[Fraction] = []

    def swap(k: int, t: int) -> None:
        if k == t:
            return
        s[k], s[t] = s[t], s[k]
        for row in s:
            row[k], row[t] = row[t], row[k]
        w[k], w[t] = w[t], w[k]
        for row in winv:
            row[k], row[t] = row[t], row[k]
        perm[k], perm[t] = perm[t], perm[k]

    def add_row(u: int, t: int, c: GaussianRational) -> None:
        cc = c.conjugate()
        su, st = s[u], s[t]
        for j in range(n):
            if not st[j].is_zero():
                su[j] = su[j] + c * st[j]
        for row in s:
            if not row[t].is_zero():
                row[u] = row[u] + cc * row[t]
        wu, wt = w[u], w[t]
        for j in range(n):
            if not wt[j].is_zero():
                wu[j] = wu[j] + c * wt[j]
        for row in winv:
            if not row[u].is_zero():
                row[t] = row[t] - c * row[u]

    k = 0
    while k < n:
        best = None
        best_abs = Fraction(0)
        for t in range(k, n):
            dtt = s[t][t]
            if dtt.im != 0:
                raise ValueError("matrix is not Hermitian: complex diagonal entry")
            mag = abs(dtt.re)
            if mag > best_abs:
                best, best_abs = t, mag
        if best is None:
            hollow = None
            for t in range(k, n):
                for u in range(t + 1, n):
                    if not s[t][u].is_zero():
                        hollow = (t, u)
                        break
                if hollow:
                    break
            if hollow is None:
                diag.extend([Fraction(0)] * (n - k))
                break
            t, u = hollow
            add_row(u, t, s[t][u].conjugate())
            continue
        swap(k, best)
        d = s[k][k].re
        diag.append(d)
        for i in range(k + 1, n):
            if s[i][k].is_zero():
                continue
            add_row(i, k, -(s[i][k] / d))
        k += 1

    n_pos = sum(1 for d in diag if d > 0)
    n_neg = sum(1 for d in diag if d < 0)
    witness = None
    if n_neg > 0:
        idx = next(i for i, d in enumerate(diag) if d < 0)
        witness = _reference_primitive([w[idx][j].conjugate() for j in range(n)])
    return ReferenceCertificate(
        matrix=matrix,
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n - n_pos - n_neg,
        permutation=tuple(perm),
        transform=tuple(tuple(row) for row in w),
        transform_inv=tuple(tuple(row) for row in winv),
        diag=tuple(diag),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# the reference record of L
#
# The package's certificate holds its weighted vectors and no L.  The
# reference kernels below keep L, each column as (j, GaussianRational) pairs,
# and the witness as a dense GaussianRational tuple, in a `ReferenceLDL`;
# reference_weighted_vectors reads the vectors the package must give off it.

# (index, value) pairs: the entries of a column of L below its diagonal in
# pivot coordinates, or the hollow blocks (k, a) of D.
Entries = tuple[tuple[int, GaussianRational], ...]


@dataclass
class ReferenceLDL:
    """P * matrix * P^T = L D L^adj: pivot slot j holds matrix index
    `permutation[j]`, `lower[k]` is column k of L below its unit diagonal in
    pivot coordinates, D has `diag` on its diagonal and a hollow block
    [[0, a], [conj(a), 0]] at slots k, k + 1 for each (k, a) in `blocks`;
    `witness` is dense, or None."""

    matrix: HermitianMatrix
    permutation: tuple[int, ...]
    lower: tuple[Entries, ...]
    diag: tuple[Fraction, ...]
    blocks: tuple[tuple[int, GaussianRational], ...]
    witness: tuple | None

    @property
    def size(self) -> int:
        return self.matrix.size

    @property
    def inertia(self) -> tuple[int, int]:
        """(n_pos, n_neg) of D: the signs of `diag`, and one of each per block."""
        blocks = len(self.blocks)
        return blocks + sum(d > 0 for d in self.diag), blocks + sum(d < 0 for d in self.diag)


def reference_blocks(matrix: HermitianMatrix) -> list[tuple[int, ...]]:
    """The blocks that `ldl_signature` eliminates apart, found from the dense
    entries: the classes of indices joined by nonzero entries, each
    ascending, by their largest |diagonal entry|, descending, then by the
    lowest index holding it."""
    entries = matrix.entries
    n = len(entries)
    parent = list(range(n))

    def root(p: int) -> int:
        while parent[p] != p:
            p = parent[p]
        return p

    for p in range(n):
        for q in range(p + 1, n):
            if entries[p][q]:
                parent[root(q)] = root(p)
    classes: dict[int, list[int]] = {}
    for p in range(n):
        classes.setdefault(root(p), []).append(p)
    return sorted((tuple(c) for c in classes.values()),
                  key=lambda c: min((-abs(entries[p][p].re), p) for p in c))


def block_layouts(cert: SignatureCertificate) -> list:
    """(block, submatrix, pieces) for each of `reference_blocks(cert.matrix)`,
    in order, where pieces are the permutation, the weighted vectors (w, v),
    v dense, the `diag` and the hollow `blocks` of the certificate at the
    next len(block) slots (a slot gives one vector per nonzero d_k, and two
    per hollow block), read in the block's own indices and slots: the
    certificate of the submatrix, if the blocks were eliminated apart and
    their slots joined in that order.  Any other index in the permutation
    reads as None."""
    entries, size, out, offset, first = cert.matrix.entries, cert.size, [], 0, 0
    for block in reference_blocks(cert.matrix):
        local = {p: i for i, p in enumerate(block)}
        end = offset + len(block)
        diag = cert.diag[offset:end]
        hollow = tuple((k - offset, a) for k, a in cert.blocks if offset <= k < end)
        last = first + sum(1 for d in diag if d) + 2 * len(hollow)
        vectors = [(w, tuple(dense(v, size)[p] for p in block))
                   for w, v in cert.vectors[first:last]]
        pieces = (tuple(local.get(p) for p in cert.permutation[offset:end]), vectors, diag, hollow)
        sub = HermitianMatrix.from_rows([[entries[p][q] for q in block] for p in block])
        out.append((block, sub, pieces))
        offset, first = end, last
    return out


def embedded(vector, block, size: int) -> tuple[GaussianRational, ...]:
    """The dense vector of length `size` with vector[i] at block[i], else 0."""
    out = [ZERO] * size
    for p, c in zip(block, vector):
        out[p] = c
    return tuple(out)


def _primitive_witness(row: GaussianRow):
    # row scaled by a positive rational to Gaussian integers with content 1,
    # then the overall real sign fixed; keeps witnesses small and deterministic.
    g = gcd(*row.re, *row.im)
    x, y = next((x, y) for x, y in zip(row.re, row.im) if x or y)
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return tuple(GaussianRational(x // g, y // g) for x, y in zip(row.re, row.im))


def reference_entries_to_obj(entries) -> list[list]:
    return [[j, reference_fraction_to_str(c.re), reference_fraction_to_str(c.im)]
            for j, c in entries]


def reference_certificate_obj(cert: ReferenceLDL) -> dict:
    """The standalone `signature_certificate` writer of the format before
    `check` wrote weighted vectors on its form: the dense matrix, L's
    columns, the blocks and the witness's nonzero entries as [j, re, im]."""
    return {
        "kind": "signature_certificate",
        "size": cert.size,
        "matrix": reference_matrix_obj(cert.matrix),
        "permutation": list(cert.permutation),
        "lower": [reference_entries_to_obj(column) for column in cert.lower],
        "diag": [reference_fraction_to_str(d) for d in cert.diag],
        "blocks": reference_entries_to_obj(cert.blocks),
        "witness": None if cert.witness is None
        else reference_entries_to_obj((j, c) for j, c in enumerate(cert.witness) if c),
    }


# ---------------------------------------------------------------------------
# the lowest-terms row update of the elimination before it was fraction-free


def add_scaled(row: GaussianRow, cr: int, ci: int, q: int, other: GaussianRow, nz=None) -> None:
    """row += ((cr + i*ci) / q) * other, exactly, q > 0, leaving row in lowest
    terms.  `nz` lists the nonzero indices of `other` when the caller has them."""
    b = q * other.den
    g = gcd(cr, ci, b)
    if g != 1:
        cr, ci, b = cr // g, ci // g, b // g
    a = row.den
    g = gcd(a, b)
    mu, mt = b // g, a // g
    re, im = row.re, row.im
    if mu != 1:
        re = [x * mu for x in re]
        im = [y * mu for y in im]
    ar, ai = cr * mt, ci * mt
    ore, oim = other.re, other.im
    for j in nonzero_indices(ore, oim) if nz is None else nz:
        x, y = ore[j], oim[j]
        re[j] += ar * x - ai * y
        im[j] += ar * y + ai * x
    den = a * mu
    g = gcd(den, *re, *im)
    if g != 1:
        re = [x // g for x in re]
        im = [y // g for y in im]
        den //= g
    row.re, row.im, row.den = re, im, den


def lowest_terms_eliminate(s: list[GaussianRow], strict: bool, stop: bool):
    """`certify._eliminate` as it was before it was fraction-free: the same
    pivots, each update one `add_scaled`, every row kept in lowest terms.
    Put in its place, it gives the certificates and evidence of that kernel,
    the reference the fraction-free one must equal field by field."""
    n = len(s)
    for row in s:
        g = gcd(row.den, *row.re, *row.im)
        row.re, row.im, row.den = [x // g for x in row.re], [y // g for y in row.im], row.den // g
    perm = list(range(n))
    diag: list[Fraction] = []
    blocks: list[tuple[int, GaussianRational]] = []
    negative: int | None = None
    zero: int | None = None

    def swap(k: int, t: int) -> None:
        if k == t:
            return
        s[k], s[t] = s[t], s[k]
        for row in s:
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
            nz = nonzero_indices(pivot.re, pivot.im)
            for i in range(k + 1, n):
                x, y = s[i].re[k], s[i].im[k]
                if x or y:
                    # row i -= (s[i][k] / d) * row k, d = p / dk
                    add_scaled(s[i], -sign * x * dk, -sign * y * dk, s[i].den * abs(p), pivot, nz)
            k += 1
            continue
        hollow = next(((t, u) for t in range(k, n) for u in range(t + 1, n)
                       if s[t].re[u] or s[t].im[u]), None)
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
        first = s[k], nonzero_indices(s[k].re, s[k].im)
        second = s[k + 1], nonzero_indices(s[k + 1].re, s[k + 1].im)
        for i in range(k + 2, n):
            xr, xi, yr, yi = s[i].re[k], s[i].im[k], s[i].re[k + 1], s[i].im[k + 1]
            q = s[i].den * norm
            # row i -= (y / a) * row k + (x / conj(a)) * row k+1, (x, y) = s[i][k:k+2]
            if yr or yi:
                add_scaled(s[i], -dk * (yr * ar + yi * ai), -dk * (yi * ar - yr * ai), q, *first)
            if xr or xi:
                add_scaled(s[i], -dk * (xr * ar - xi * ai), -dk * (xr * ai + xi * ar), q, *second)
        k += 2
    return s, perm, diag, blocks, zero if negative is None and strict else negative


def assert_equals_lowest_terms_kernel(matrix: HermitianMatrix) -> None:
    """`ldl_signature`, and the evidence of `mode_evidence` and of the full
    elimination (`full_evidence`), strict and not, on M give, field by field,
    what they give with `lowest_terms_eliminate` as the kernel's
    elimination."""

    def evidence():
        return [(certify.mode_evidence(matrix, strict), full_evidence(matrix, strict))
                for strict in (False, True)]

    cert, got = ldl_signature(matrix), evidence()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_eliminate", lowest_terms_eliminate)
        want, want_evidence = ldl_signature(matrix), evidence()
    for field in dataclasses.fields(cert):
        assert getattr(cert, field.name) == getattr(want, field.name), field.name
    for strict, pair, want_pair in zip((False, True), got, want_evidence):
        assert pair == want_pair, strict


# ---------------------------------------------------------------------------
# the integer-row certification kernel as it was before strict certificates
#
# Without `strict`, `ldl_signature` must emit the same permutation, diag,
# blocks, witness and the weighted vectors of its L; with it, only the
# witness may differ, by a null vector where a singular PSD matrix had none.


def reference_integer_ldl_signature(matrix: HermitianMatrix) -> ReferenceLDL:
    """`ldl_signature` before strict certificates: exact pivoted LDL* with
    inertia and an indefiniteness witness.

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
    # operations change nothing but the finished pivot rows.  Later swaps
    # still reach a finished row, so at the end row k, right of its diagonal,
    # is conj(column k of L D) in the final pivot coordinates.
    s = [GaussianRow.from_entries(n, enumerate(row)) for row in matrix.entries]
    # the slot of the first negative pivot or of the first block
    s, perm, diag, blocks, negative = lowest_terms_eliminate(s, strict=False, stop=False)

    def column(row: GaussianRow, start: int, cr: int, ci: int, q: int) -> Entries:
        # (j, conj(row[j]) * (cr + i*ci) / q) for the nonzero row[j], j >= start;
        # the row's own denominator is left to the caller
        return tuple(
            (j, GaussianRational(Fraction(x * cr + y * ci, q), Fraction(x * ci - y * cr, q)))
            for j, x, y in zip(range(start, n), row.re[start:], row.im[start:]) if x or y)

    # The finished pivot rows give L: L[j][k] = conj(s[k][j]) / d_k, and for
    # a block a at k, k+1, whose inverse is [[0, 1/conj(a)], [1/a, 0]],
    # L[j][k] = conj(s[k+1][j]) / a and L[j][k+1] = conj(s[k][j]) / conj(a).
    lower: list[Entries] = [()] * n
    for k, d in enumerate(diag):
        if d:
            lower[k] = column(s[k], k + 1, 1, 0, s[k].re[k])
    for k, _ in blocks:
        ar, ai, dk = s[k].re[k + 1], s[k].im[k + 1], s[k].den
        norm = ar * ar + ai * ai
        lower[k] = column(s[k + 1], k + 2, ar * dk, -ai * dk, s[k + 1].den * norm)
        lower[k + 1] = column(s[k], k + 2, ar, ai, norm)

    witness = None
    if negative is not None:
        # x^adj D x < 0 for x = e_k at the first negative pivot k, or
        # x = e_k - conj(a) e_{k+1} (value -2|a|^2) at a first block a; the
        # witness is P^T y with L^adj y = x, whose value is x^adj D x.  Every
        # pivot before slot k is positive, so back substitution runs on the
        # integer pivot rows: conj(L[j][i]) = s[i][j] / d_i, and y is kept as
        # Gaussian integers up to a positive scale.
        k = negative
        yr, yi = [0] * n, [0] * n
        if diag[k]:
            yr[k], top = 1, k + 1
        else:
            yr[k], yr[k + 1], yi[k + 1], top = s[k].den, -s[k].re[k + 1], s[k].im[k + 1], k + 2
        for i in range(k - 1, -1, -1):
            re, im, p, span = s[i].re, s[i].im, s[i].re[i], range(i + 1, top)
            yr[i], yi[i] = (-sum(re[j] * yr[j] - im[j] * yi[j] for j in span),
                            -sum(re[j] * yi[j] + im[j] * yr[j] for j in span))
            yr[i + 1:top] = [p * x for x in yr[i + 1:top]]
            yi[i + 1:top] = [p * y for y in yi[i + 1:top]]
        # y is in pivot coordinates: entry r of the witness is y[slot of r].
        slots = sorted(range(n), key=perm.__getitem__)
        witness = _primitive_witness(GaussianRow([yr[c] for c in slots], [yi[c] for c in slots]))

    return ReferenceLDL(
        matrix=matrix,
        permutation=tuple(perm),
        lower=tuple(lower),
        diag=tuple(diag),
        blocks=tuple(blocks),
        witness=witness,
    )


def reference_block_ldl(matrix: HermitianMatrix) -> ReferenceLDL:
    """`reference_integer_ldl_signature` on each of `reference_blocks`, its
    pieces joined in block order, as `ldl_signature` joins its blocks: a
    block's slots follow those of the blocks before it, and the witness is
    the first failing block's."""
    entries, size = matrix.entries, matrix.size
    perm, lower, diag, blocks, witness = [], [], [], [], None
    for block in reference_blocks(matrix):
        part = reference_integer_ldl_signature(
            HermitianMatrix.from_rows([[entries[p][q] for q in block] for p in block]))
        offset = len(diag)
        perm += [block[p] for p in part.permutation]
        lower += [tuple((j + offset, c) for j, c in column) for column in part.lower]
        diag += part.diag
        blocks += [(k + offset, a) for k, a in part.blocks]
        if witness is None and part.witness is not None:
            witness = embedded(part.witness, block, size)
    return ReferenceLDL(matrix, tuple(perm), tuple(lower), tuple(diag), tuple(blocks), witness)


def reference_vectors(matrix: HermitianMatrix) -> list:
    """The weighted vectors that `ldl_signature(matrix).vectors` must hold,
    each v dense: those of the L of `reference_block_ldl`, folded to content
    1 (`reference_primitive`)."""
    return reference_primitive(reference_weighted_vectors(reference_block_ldl(matrix)))


def reference_weighted_vectors(cert: ReferenceLDL):
    """The weighted vectors of an LDL* as dense length-n GaussianRational
    tuples.

    v_k is column k of P^T L: v_k[permutation[k]] = 1 and
    v_k[permutation[j]] = L[j][k].  In slot order, each nonzero d_k gives
    (d_k, v_k), and each hollow block a at slots k, k + 1, with x = v_k and
    y = conj(a) v_{k+1}, gives (1/2, x + y) and (-1/2, x - y), since
    a v_k v_{k+1}^adj + conj(a) v_{k+1} v_k^adj is their sum.
    """
    n, perm = cert.size, cert.permutation

    def column(k: int) -> list[GaussianRational]:
        v = [ZERO] * n
        v[perm[k]] = ONE
        for j, c in cert.lower[k]:
            v[perm[j]] = c
        return v

    out = []
    half = Fraction(1, 2)
    blocks = dict(cert.blocks)
    for k, d in enumerate(cert.diag):
        if d:
            out.append((d, tuple(column(k))))
        elif k in blocks:
            ca = blocks[k].conjugate()
            x, y = column(k), [ca * c if c else c for c in column(k + 1)]
            out.append((half, tuple(p + q for p, q in zip(x, y))))
            out.append((-half, tuple(p - q for p, q in zip(x, y))))
    return out


def reference_primitive(pairs):
    """Weighted vectors (w, v), v a dense tuple of GaussianRationals, as
    SignatureCertificate.vectors holds them: v = (g / den) u, with
    den the lcm of v's denominators and g the content of v * den, gives
    (w g^2 / den^2, u), u Gaussian integers of content 1."""
    out = []
    for w, v in pairs:
        den = lcm(*(x.denominator for c in v for x in (c.re, c.im)))
        g = gcd(*(int(x * den) for c in v for x in (c.re, c.im)))
        out.append((w * Fraction(g, den) ** 2, tuple(c * Fraction(den, g) for c in v)))
    return out


def _integer_entries(vector) -> list[list[int]]:
    """The nonzero entries [j, re, im] of a dense vector of Gaussian integers."""
    assert all(x.denominator == 1 for c in vector for x in (c.re, c.im))
    return [[j, int(c.re), int(c.im)] for j, c in enumerate(vector) if c]


def reference_evidence_obj(cert: SignatureCertificate) -> dict:
    """`serialize.certificate_to_obj` of the certificate's witness and of the
    reference's weighted vectors of M (`reference_vectors`): each as [[p, q],
    its nonzero entries [j, re, im]], and the witness by its nonzero entries."""
    witness = None if cert.witness is None else dense(cert.witness, cert.size)
    vectors = reference_vectors(cert.matrix)
    return {"vectors": [[[w.numerator, w.denominator], _integer_entries(v)] for w, v in vectors],
            "witness": None if witness is None else _integer_entries(witness)}


# The artifact codec before the wire held integers: every rational a "p/q"
# string, a kernel's terms in both triangles as rows [i, j, alpha, beta, re,
# im], and a vector's weight a string beside its entries [j, re, im] over the
# vector's own denominators.  Artifacts so written are in no current format.
def reference_string_form_obj(form: BihermitianForm) -> dict:
    return {"kind": "bihermitian_form", "n": form.n, "r": form.r, "terms": [
        [term[field] for field in serialize.TERM_FIELDS]
        for term in reference_form_obj(form)["terms"]]}


def reference_string_entries_obj(v: SparseRow) -> list[list]:
    return [[j, reference_fraction_to_str(Fraction(x, v.den)),
             reference_fraction_to_str(Fraction(y, v.den))] for j, x, y in v.entries]


def reference_string_vectors_obj(vectors) -> list:
    """Weighted vectors (w, v) of SparseRows as [w, [[j, re, im], ...]]."""
    return [[reference_fraction_to_str(w), reference_string_entries_obj(v)] for w, v in vectors]


def reference_rank(vectors) -> int:
    """The rank of dense GaussianRational vectors, by elimination."""
    rows, rank = [list(v) for v in vectors], 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if not r[j].is_zero()), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            if not r[j].is_zero():
                c = r[j] / pivot[j]
                r[:] = [x - c * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def reference_verify(cert: SignatureCertificate) -> tuple[bool, str]:
    """SignatureCertificate.verify by dense GaussianRational products: M =
    sum w v v^adj over nonzero weights, the v independent by rank, and a
    witness exactly when a weight is negative, of value < 0."""
    n, vectors, witness = cert.size, cert.vectors, cert.witness
    entries = cert.matrix.entries
    if any(entries[i][j] != entries[j][i].conjugate() for i in range(n) for j in range(n)):
        return False, "matrix is not Hermitian"
    if any(w == 0 for w, _ in vectors):
        return False, "factor weight is zero"

    def in_range(v: SparseRow) -> bool:
        indices = [j for j, _, _ in v.entries]
        return indices == sorted(set(indices)) and all(0 <= j < n for j in indices)

    if not all(in_range(v) for _, v in vectors):
        return False, "factor index out of range"
    columns = [dense(v, n) for _, v in vectors]
    if reference_rank(columns) < len(columns):
        return False, "factor vectors are not independent"
    for i in range(n):
        for j in range(i, n):
            total = sum((GaussianRational(w) * v[i] * v[j].conjugate()
                         for (w, _), v in zip(vectors, columns)), ZERO)
            if total != entries[i][j]:
                return False, f"factor: congruence identity fails at ({i},{j})"
    if (witness is not None) != any(w < 0 for w, _ in vectors):
        return False, "witness is not present exactly when a weight is negative"
    if witness is not None:
        if not in_range(witness):
            return False, "witness index out of range"
        if quadratic_value(cert.matrix, witness).re >= 0:
            return False, "witness value is not negative"
    return True, "ok"


# ---------------------------------------------------------------------------
# random instance builders (all deterministic through a caller-provided rng)


# ---------------------------------------------------------------------------
# the dense congruence check
#
# M = sum w v v^adj checked as it was before the outer-product sum ran over
# each vector's support in dict rows: the sum is a dense size x size integer
# grid, and each row of M, a dense GaussianRow over its own denominator, is
# compared with it at the nonzeros of either.  certify.congruence_failure
# must give the same reason, down to the first failing (p, q).


def reference_outer_product_sum(size: int, terms):
    scaled = []
    common = 1
    for w, c in terms:
        if c.entries and w:
            scale = Fraction(w) / (c.den * c.den)
            common = lcm(common, scale.denominator)
            scaled.append((scale.numerator, scale.denominator, c.entries))
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]
    for num, den, nz in scaled:
        num *= common // den
        for t, (p, x, y) in enumerate(nz):
            nx, ny, re_p, im_p = num * x, num * y, re[p], im[p]
            for q, u, v in nz[t:]:
                re_p[q] += nx * u + ny * v
                im_p[q] += ny * u - nx * v
    return re, im, common


def _nonzero_from(re: list[int], im: list[int], start: int) -> list[int]:
    return [j for j in range(start, len(re)) if re[j] or im[j]]


def reference_congruence_failure(matrix: HermitianMatrix, vectors) -> str | None:
    size = matrix.size
    re, im, common = reference_outer_product_sum(size, vectors)
    rows = [GaussianRow.from_entries(size, enumerate(row)) for row in matrix.entries]
    for p, row in enumerate(rows):
        re_p, im_p, den = re[p], im[p], row.den
        for q in sorted({*_nonzero_from(re_p, im_p, p), *_nonzero_from(row.re, row.im, p)}):
            if re_p[q] * den != row.re[q] * common or im_p[q] * den != row.im[q] * common:
                return f"congruence identity fails at ({p},{q})"
    return None


def unchecked_matrix(entries) -> HermitianMatrix:
    """The HermitianMatrix of a square grid of scalars, its rows cleared over
    one denominator but not checked to be Hermitian, as `from_rows` checks
    them: a tampered matrix that only `verify` may refuse."""
    rows = [[as_gaussian(c) for c in row] for row in entries]
    den = lcm(*(q for row in rows for c in row for q in (c.re.denominator, c.im.denominator)))
    return HermitianMatrix.lowest(
        [{q: int(c.re * den) for q, c in enumerate(row)} for row in rows],
        [{q: int(c.im * den) for q, c in enumerate(row)} for row in rows], den)


def rand_fraction(rng: random.Random, height: int = 6) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_gauss(rng: random.Random, height: int = 6) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, height), rand_fraction(rng, height))


def rand_hermitian_matrix(rng: random.Random, size: int, height: int = 9) -> HermitianMatrix:
    rows = [[None] * size for _ in range(size)]
    for k in range(size):
        rows[k][k] = GaussianRational(rand_fraction(rng, height))
        for l in range(k):
            c = rand_gauss(rng, height)
            rows[k][l] = c
            rows[l][k] = c.conjugate()
    return HermitianMatrix.from_rows(rows)


def combined_pairs(n: int, r: int, m: int):
    return [(i, alpha) for i in range(r) for alpha in enumerate_degree(n, m)]


def rows_from_vectors(vectors, n: int, r: int, m: int, weights=None) -> HoloPolyMatrix:
    pairs = combined_pairs(n, r, m)
    rows = []
    for vec in vectors:
        polys = [dict() for _ in range(r)]
        for coeff, (i, alpha) in zip(vec, pairs):
            if not coeff.is_zero():
                polys[i][alpha] = coeff
        rows.append(polys)
    return holo_matrix(n, rows, weights, ncols=r)


def rand_holo_matrix(
    rng: random.Random, n: int, m: int, s: int, r: int, height: int = 4, weighted: bool = False
) -> HoloPolyMatrix:
    size = len(combined_pairs(n, r, m))
    vectors = [
        [rand_gauss(rng, height) if rng.random() < 0.7 else GaussianRational() for _ in range(size)]
        for _ in range(s)
    ]
    if all(c.is_zero() for vec in vectors for c in vec):
        vectors[0][0] = GaussianRational(Fraction(1))
    weights = None
    if weighted:
        weights = [Fraction(rng.randint(1, height), rng.randint(1, height)) for _ in range(s)]
    return rows_from_vectors(vectors, n, r, m, weights)


def rand_pd_matrix(rng: random.Random, n: int, m: int, r: int, height: int = 3) -> HoloPolyMatrix:
    """Rows forming a unit lower-triangular coefficient matrix: gram is PD."""
    size = len(combined_pairs(n, r, m))
    one = GaussianRational(Fraction(1))
    vectors = []
    for k in range(size):
        vec = [rand_gauss(rng, height) if l < k else (one if l == k else GaussianRational()) for l in range(size)]
        vectors.append(vec)
    weights = [Fraction(rng.randint(1, height)) for _ in range(size)]
    return rows_from_vectors(vectors, n, r, m, weights)


def rand_hermsym_form(
    rng: random.Random, n: int, r: int, m: int, terms: int = 6, height: int = 5
) -> BihermitianForm:
    """Random Hermitian-symmetric bidegree-m form: H + H^dagger termwise."""
    monomials = enumerate_degree(n, m)
    raw = {}
    for _ in range(terms):
        key = (
            rng.randrange(r),
            rng.randrange(r),
            rng.choice(monomials),
            rng.choice(monomials),
        )
        raw[key] = raw.get(key, GaussianRational()) + rand_gauss(rng, height)
    sym = {}
    for (i, j, alpha, beta), coeff in raw.items():
        sym[(i, j, alpha, beta)] = sym.get((i, j, alpha, beta), GaussianRational()) + coeff
        sym[(j, i, beta, alpha)] = sym.get((j, i, beta, alpha), GaussianRational()) + coeff.conjugate()
    return BihermitianForm.from_terms(n, r, sym.items())


def rand_psd_form(rng: random.Random, n: int, m: int, r: int) -> BihermitianForm:
    from hermfact import gram

    size = len(combined_pairs(n, r, m))
    s = rng.randint(1, size)
    return gram(rand_holo_matrix(rng, n, m, s, r, weighted=True))


def rand_pd_form(rng: random.Random, n: int, m: int, r: int) -> BihermitianForm:
    from hermfact import gram

    return gram(rand_pd_matrix(rng, n, m, r))


def rand_rational_point(rng: random.Random, n: int, height: int = 5):
    return tuple(rand_gauss(rng, height) for _ in range(n))


# ---------------------------------------------------------------------------
# the reference parser
#
# The expression parser as it was before hermfact.parsing folded terms on
# integer coefficients: one dict polynomial per factor, multiplied through
# GaussianRational products.  The property tests hold parse_expression and
# parse_real_symbol to it, results and errors alike.


def parse_outcome(parse, text: str):
    """parse(text) with the insertion order of its terms, or the error's
    (type, message, position)."""
    try:
        parsed = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    order = getattr(parsed, "support", None) or getattr(parsed, "terms", None) or {}
    return parsed, list(order)


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<var>(?:zb|z|x)[0-9]+)"
    r"|(?P<imag>i\b)"
    r"|(?P<op>[-+*^(),\[\]])"
    r")"
)


@dataclass
class _Token:
    kind: str
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            if stripped[0] == ".":
                raise ParseError("non-rational literal", at)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        pos = match.end()
        for kind in ("number", "var", "imag", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


# A parsed polynomial maps a sorted tuple of ((kind, index), exponent) pairs to
# a Gaussian-rational coefficient; kind is "z", "zb", or "x" and index is >= 1.
_MonoKey = tuple[tuple[tuple[str, int], int], ...]
_ExprPoly = dict[_MonoKey, GaussianRational]


def _poly_const(c: GaussianRational) -> _ExprPoly:
    return {(): c} if c else {}

def _poly_add_into(out: _ExprPoly, q: _ExprPoly) -> None:
    for key, c in q.items():
        acc = out.get(key)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc

def _poly_scale(p: _ExprPoly, c: GaussianRational) -> _ExprPoly:
    if c.is_zero():
        return {}
    return {key: v * c for key, v in p.items()}

def _mono_mul(a: _MonoKey, b: _MonoKey) -> _MonoKey:
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))

def _coeff_mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    # Most factors of a typed term are bare variables with coefficient 1.
    if a == ONE:
        return b
    return a if b == ONE else a * b

def _poly_mul(p: _ExprPoly, q: _ExprPoly) -> _ExprPoly:
    out: _ExprPoly = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = _mono_mul(ka, kb)
            acc = out.get(key)
            prod = _coeff_mul(ca, cb)
            acc = prod if acc is None else acc + prod
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out

def _poly_pow(p: _ExprPoly, e: int) -> _ExprPoly:
    if e == 0:
        return _poly_const(ONE)
    if len(p) == 1:
        # A single term: scale its exponents and power its coefficient once.
        ((key, c),) = p.items()
        return {tuple((var, k * e) for var, k in key): c if c == ONE else c**e}
    out = None
    while True:
        if e & 1:
            out = p if out is None else _poly_mul(out, p)
        e >>= 1
        if not e:
            return out
        p = _poly_mul(p, p)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.cursor = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect(self, value: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.value != value:
            raise ParseError(f"expected {value!r}", token.position)
        return self.advance()

    def parse_input(self):
        token = self.peek()
        if token.kind == "op" and token.value == "[":
            rows = self.parse_matrix()
            self.expect_end()
            return rows
        poly = self.parse_expr()
        self.expect_end()
        return poly

    def expect_end(self) -> None:
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing input {token.value!r}", token.position)

    def parse_matrix(self) -> list[list[_ExprPoly]]:
        self.expect("[")
        rows = [self.parse_row()]
        while self.peek().value == "," and self.peek().kind == "op":
            self.advance()
            rows.append(self.parse_row())
        self.expect("]")
        return rows

    def parse_row(self) -> list[_ExprPoly]:
        self.expect("[")
        entries = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().value == ",":
            self.advance()
            entries.append(self.parse_expr())
        self.expect("]")
        return entries

    def parse_expr(self) -> _ExprPoly:
        poly: _ExprPoly = {}
        _poly_add_into(poly, self.parse_term())
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in "+-":
                self.advance()
                rhs = self.parse_term()
                if token.value == "-":
                    rhs = _poly_scale(rhs, as_gaussian(-1))
                _poly_add_into(poly, rhs)
            else:
                return poly

    def parse_term(self) -> _ExprPoly:
        poly = self.parse_signed()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value == "*":
                self.advance()
                poly = _poly_mul(poly, self.parse_signed())
            else:
                return poly

    def parse_signed(self) -> _ExprPoly:
        sign = 1
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in "+-":
                self.advance()
                if token.value == "-":
                    sign = -sign
            else:
                break
        poly = self.parse_power()
        if sign < 0:
            poly = _poly_scale(poly, as_gaussian(-1))
        return poly

    def parse_power(self) -> _ExprPoly:
        poly = self.parse_atom()
        token = self.peek()
        if token.kind == "op" and token.value == "^":
            self.advance()
            exponent = self.peek()
            if exponent.kind != "number" or "/" in exponent.value:
                raise ParseError("exponent must be a nonnegative integer", exponent.position)
            self.advance()
            poly = _poly_pow(poly, int(exponent.value))
        return poly

    def parse_atom(self) -> _ExprPoly:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            if "/" in token.value:
                num, den = token.value.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", token.position)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(token.value))
            return _poly_const(as_gaussian(value))
        if token.kind == "imag":
            self.advance()
            return _poly_const(GaussianRational(Fraction(0), Fraction(1)))
        if token.kind == "var":
            self.advance()
            kind = "zb" if token.value.startswith("zb") else token.value[0]
            index = int(token.value[len(kind) :])
            if index < 1:
                raise ParseError(f"unknown variable {token.value!r}", token.position)
            return {(((kind, index), 1),): as_gaussian(1)}
        if token.kind == "op" and token.value == "(":
            self.advance()
            poly = self.parse_expr()
            self.expect(")")
            return poly
        raise ParseError(f"unexpected token {token.value!r}", token.position)


def _classify(polys: list[_ExprPoly]) -> tuple[set[str], int, int]:
    kinds = set()
    zmax = 0
    xmax = 0
    for poly in polys:
        for key in poly:
            for (kind, index), _ in key:
                kinds.add(kind)
                if kind == "x":
                    xmax = max(xmax, index)
                else:
                    zmax = max(zmax, index)
    return kinds, zmax, xmax


def _poly_to_form_terms(poly: _ExprPoly, i: int, j: int, n: int):
    for key, coeff in poly.items():
        alpha = [0] * n
        beta = [0] * n
        for (kind, index), e in key:
            if kind == "z":
                alpha[index - 1] += e
            else:
                beta[index - 1] += e
        yield (i, j, tuple(alpha), tuple(beta)), coeff


def reference_parse_expression(text: str, n: int | None = None) -> BihermitianForm:
    """Parse an expression (or bracketed matrix) in z/zb variables into a
    BihermitianForm.  The ambient dimension is the largest variable index
    seen, or `n` if larger.
    """
    parsed = _Parser(text).parse_input()
    rows = parsed if isinstance(parsed, list) else [[parsed]]
    flat = [p for row in rows for p in row]
    kinds, zmax, _ = _classify(flat)
    if "x" in kinds:
        raise ParseError("x variables belong to real symbols, not kernels", 0)
    dim = max(zmax, n or 1)
    r = len(rows)
    for row in rows:
        if len(row) != r:
            raise ParseError("kernel matrices must be square", 0)
    terms = []
    for i in range(r):
        for j in range(r):
            terms.extend(_poly_to_form_terms(rows[i][j], i, j, dim))
    return BihermitianForm.from_terms(dim, r, terms)


def _mono_to_alpha(poly: _ExprPoly, n: int):
    for key, coeff in poly.items():
        alpha = [0] * n
        for (kind, index), e in key:
            alpha[index - 1] += e
        yield tuple(alpha), coeff


def reference_parse_real_symbol(text: str, nvars: int | None = None) -> RealSymbol:
    """Parse an expression in x1..xm into a RealSymbol with rational coefficients."""
    parsed = _Parser(text).parse_input()
    if isinstance(parsed, list):
        raise ParseError("real symbols are scalar, not matrices", 0)
    kinds, _, xmax = _classify([parsed])
    if kinds - {"x"}:
        raise ParseError("real symbols use only x variables", 0)
    dim = max(xmax, nvars or 1)
    terms = {}
    for key, coeff in parsed.items():
        if coeff.im != 0:
            raise ParseError("real symbols need real coefficients", 0)
        alpha = [0] * dim
        for (kind, index), e in key:
            alpha[index - 1] += e
        terms[tuple(alpha)] = coeff.re
    return RealSymbol.from_terms(dim, terms)


# ---------------------------------------------------------------------------
# real_to_complex as it was before the pair expansion ran in ints: each real
# monomial expanded pair by pair in GaussianRational dict arithmetic.

_I_POWERS = (ONE, GaussianRational(Fraction(0), Fraction(1)), GaussianRational(Fraction(-1)),
             GaussianRational(Fraction(0), Fraction(-1)))


def _reference_pair_expansion(a: int, b: int) -> dict[tuple[int, int], GaussianRational]:
    """Coefficients of z^u zbar^v in x^a * y^b for one conjugate pair (x, y)."""
    x_part: dict[tuple[int, int], GaussianRational] = {}
    half = GaussianRational(Fraction(1, 2)) ** a
    for s in range(a + 1):
        x_part[(s, a - s)] = half * comb(a, s)
    y_part: dict[tuple[int, int], GaussianRational] = {}
    scale = GaussianRational(Fraction(1, 2)) ** b * _I_POWERS[(-b) % 4]
    for t in range(b + 1):
        sign = 1 if (b - t) % 2 == 0 else -1
        y_part[(t, b - t)] = scale * (comb(b, t) * sign)
    out: dict[tuple[int, int], GaussianRational] = {}
    for (u1, v1), c1 in x_part.items():
        for (u2, v2), c2 in y_part.items():
            key = (u1 + u2, v1 + v2)
            out[key] = out.get(key, ZERO) + c1 * c2
    return out


def reference_real_to_complex(symbol: RealSymbol) -> BihermitianForm:
    if symbol.nvars % 2 != 0:
        raise ValueError("real-to-complex conversion needs an even variable count")
    n = symbol.nvars // 2
    acc: dict = {}
    for exponents, coeff in symbol.terms.items():
        partial = {((), ()): as_gaussian(coeff)}
        for j in range(n):
            pair = _reference_pair_expansion(exponents[2 * j], exponents[2 * j + 1])
            nxt: dict = {}
            for (alpha, beta), c in partial.items():
                for (u, v), cp in pair.items():
                    key = (alpha + (u,), beta + (v,))
                    nxt[key] = nxt.get(key, ZERO) + c * cp
            partial = nxt
        for (alpha, beta), c in partial.items():
            key = (0, 0, alpha, beta)
            acc[key] = acc.get(key, ZERO) + c
    return BihermitianForm.from_terms(n, 1, acc)


# ---------------------------------------------------------------------------
# library-only constructors and the paper's operator-side identities, kept as
# references: the package ships only what its commands run


def dense(v: SparseRow, size: int) -> tuple[GaussianRational, ...]:
    """The length-`size` vector of GaussianRationals of a sparse row."""
    out = [ZERO] * size
    for j, x, y in v.entries:
        out[j] = GaussianRational(Fraction(x, v.den), Fraction(y, v.den))
    return tuple(out)


def diagonal_matrix(values) -> HermitianMatrix:
    size = len(values)
    return HermitianMatrix.from_rows(
        [[values[k] if k == l else 0 for l in range(size)] for k in range(size)])


def holo_matrix(n: int, rows, weights=None, ncols=None) -> HoloPolyMatrix:
    """The HoloPolyMatrix of rows of {alpha: coefficient} entries, terms of
    one alpha added up and zeros dropped; an empty list of weights is None."""
    norm_rows = []
    for row in rows:
        norm_row = []
        for poly in row:
            entry: dict = {}
            for alpha, coeff in (poly.items() if hasattr(poly, "items") else poly):
                entry[tuple(alpha)] = entry.get(tuple(alpha), ZERO) + as_gaussian(coeff)
            norm_row.append({a: c for a, c in entry.items() if not c.is_zero()})
        norm_rows.append(tuple(norm_row))
    width = ncols if ncols is not None else len(norm_rows[0])
    if any(len(row) != width for row in norm_rows):
        raise ValueError("ragged rows in holomorphic matrix")
    weights = tuple(Fraction(w) for w in weights) if weights else None
    return HoloPolyMatrix(n, width, tuple(norm_rows), weights)


def euclidean_pairing(n: int) -> BihermitianForm:
    """The kernel <z, w> = sum_k z_k * wbar_k."""
    units = [tuple(int(k == l) for l in range(n)) for k in range(n)]
    return BihermitianForm(n, 1, {(0, 0, e, e): (1, 0) for e in units}, 1)


def add(f: BihermitianForm, g: BihermitianForm) -> BihermitianForm:
    """f + g, summed in numerators over the lcm of the two denominators."""
    assert (f.n, f.r) == (g.n, g.r)
    den = lcm(f.den, g.den)
    support: dict[TermKey, tuple[int, int]] = {}
    for form in (f, g):
        k = den // form.den
        for key, (x, y) in form.support.items():
            re_, im = support.get(key, (0, 0))
            support[key] = re_ + x * k, im + y * k
    return BihermitianForm.lowest(f.n, f.r, support, den)


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
    acc: dict[TermKey, tuple[int, int]] = {}
    for (_, _, a1, b1), (x1, y1) in scalar.support.items():
        for (i, j, a2, b2), (x2, y2) in matrix.support.items():
            key = (i, j, tuple(map(_add, a1, a2)), tuple(map(_add, b1, b2)))
            re_, im = acc.get(key, (0, 0))
            acc[key] = re_ + x1 * x2 - y1 * y2, im + x1 * y2 + y1 * x2
    return BihermitianForm.lowest(f.n, matrix.r, acc, f.den * g.den)


def symbol_multiply(p: RealSymbol, q: RealSymbol) -> RealSymbol:
    acc: dict = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return RealSymbol.from_terms(p.nvars, acc)


def _complex_pair_coefficients(u: int, v: int) -> tuple[tuple[int, int], ...]:
    """(re, im) of the Gaussian-integer coefficient of x^a y^(u+v-a) in
    z^u zbar^v = (x + iy)^u (x - iy)^v, for a = 0, ..., u + v."""
    out = [[0, 0] for _ in range(u + v + 1)]
    for s in range(u + 1):
        for t in range(v + 1):
            # i^(u-s) (-i)^(v-t) = i^k is 1, i, -1, -i
            k, c = (u - s - v + t) % 4, comb(u, s) * comb(v, t)
            out[s + t][k % 2] += -c if k > 1 else c
    return tuple(map(tuple, out))


def complex_to_real(form: BihermitianForm) -> RealSymbol:
    """The inverse of real_to_complex on scalar Hermitian-symmetric kernels."""
    if form.r != 1:
        raise ValueError("real-form conversion handles scalar kernels only")
    if not is_hermitian_symmetric(form):
        raise ValueError("real-form conversion requires a Hermitian-symmetric kernel")
    # The numerators over form.den of each real coefficient, in Gaussian integers.
    acc: dict = {}
    for (_, _, alpha, beta), coeff in form.support.items():
        partial = {(): coeff}
        for u, v in zip(alpha, beta):
            partial = {exps + (a, u + v - a): (x * cr - y * ci, x * ci + y * cr)
                       for exps, (x, y) in partial.items()
                       for a, (cr, ci) in enumerate(_complex_pair_coefficients(u, v)) if cr or ci}
        for exps, (x, y) in partial.items():
            re_, im = acc.get(exps, (0, 0))
            acc[exps] = re_ + x, im + y
    assert not any(im for _, im in acc.values())
    return RealSymbol.from_terms(2 * form.n, {exps: Fraction(re_, form.den)
                                              for exps, (re_, _) in acc.items()})


def stabilization_factor(report: StabilizationReport) -> WeightedGramFactor | None:
    """The weighted factor of <z, w>^d_min F whose rows are the report's
    vectors on the monomials of degree m + d_min; None when no d passed."""
    if report.vectors is None:
        return None
    form, d = report.form, report.d_min
    monomials = enumerate_degree(form.n, bidegree(form) + d)
    return WeightedGramFactor(_factor_from_parts(report.vectors, monomials, form.r),
                              multiplier_power(form, d))


def numeric_reconstruction(numeric: NumericFactor, z) -> list[list[complex]]:
    """Approximate F(z, zbar) as sum_k B_ki(z) * conj(B_kj(z)) from the rows B
    of a numeric factor."""
    values = []
    for row in numeric.rows:
        values.append([sum((coeff * prod(zk ** a for zk, a in zip(z, alpha))
                            for alpha, coeff in poly.items()), 0j) for poly in row])
    return [[sum((row[i] * row[j].conjugate() for row in values), 0j) for j in range(numeric.r)]
            for i in range(numeric.r)]


def multinomial(d: int, gamma) -> int:
    """d! / gamma!, the expansion weight of z^gamma in <z, w>^d; |gamma| = d."""
    if sum(gamma) != d:
        raise ValueError(f"multinomial degree mismatch: |{gamma}| != {d}")
    out = factorial(d)
    for g in gamma:
        out //= factorial(g)
    return out


def monomial_norm_reduced(alpha) -> Fraction:
    """Reduced squared L2 norm of z^alpha on the unit ball: alpha! * n! / (n+|alpha|)!,
    the common factor pi^n/n! dropped, which no positivity depends on."""
    num = factorial(len(alpha))
    for a in alpha:
        num *= factorial(a)
    return Fraction(num, factorial(len(alpha) + sum(alpha)))


def bergman_coefficient_reduced(n: int, d: int) -> int:
    """Reduced degree-d expansion coefficient of the ball kernel
    (1 - <z,w>)^-(n+1): binom(n+d, n), the full constant carrying n!/pi^n."""
    return comb(n + d, n)


@dataclass(eq=True)
class OperatorMatrix:
    """Operator matrix Q = Dp * M * Dp with the monomial-norm diagonal Dp."""

    matrix: HermitianMatrix
    weights: tuple[Fraction, ...]
    pairs: tuple[tuple[int, MultiIndex], ...]


def operator_matrix(form: BihermitianForm, d: int) -> OperatorMatrix:
    """The integral operator of a Hermitian-symmetric kernel of bidegree d on
    r-tuples of degree-d polynomials: its coefficient matrix scaled on both
    sides by the monomials' reduced L2 norms."""
    if bidegree(form) != d:
        raise ValueError(f"form does not have bidegree {d}")
    matrix, monomials = coefficient_matrix(form)
    pairs = tuple((i, alpha) for i in range(form.r) for alpha in monomials)
    weights = tuple(monomial_norm_reduced(alpha) for _, alpha in pairs)
    size = matrix.size
    rows = [[as_gaussian(weights[k]) * matrix.at(k, l) * as_gaussian(weights[l])
             for l in range(size)] for k in range(size)]
    return OperatorMatrix(HermitianMatrix.from_rows(rows), weights, pairs)


def is_positive_definite(cert: SignatureCertificate) -> bool:
    """Whether the certificate's matrix is positive definite: every slot of
    its inertia positive."""
    return cert.inertia[0] == cert.size


def is_positive_semidefinite(cert: SignatureCertificate) -> bool:
    """Whether the certificate's matrix is positive semidefinite: no negative
    slot in its inertia."""
    return cert.inertia[1] == 0


def operator_positive(form: BihermitianForm, d: int) -> tuple[bool, SignatureCertificate]:
    """Positive definiteness of the operator matrix, with certificate."""
    cert = ldl_signature(operator_matrix(form, d).matrix)
    return is_positive_definite(cert), cert


def pairing_identity_check(factor: WeightedGramFactor, h) -> bool:
    """Exact check that h* Q h equals the weighted sum of squared row pairings
    <A_k, h>_w, h a coefficient vector over the combined (i, alpha) basis of
    the factor's target; both sides are computed independently."""
    target = factor.target
    op = operator_matrix(target, bidegree(target))
    h = tuple(as_gaussian(x) for x in h)
    assert len(h) == len(op.pairs)
    lhs = ZERO
    for k, hk in enumerate(h):
        for l, hl in enumerate(h):
            lhs = lhs + hk.conjugate() * op.matrix.at(k, l) * hl
    rhs = ZERO
    for weight, row in factor.rows:
        pairing = ZERO
        for k, (i, alpha) in enumerate(op.pairs):
            coeff = row[i].get(alpha)
            if coeff is not None:
                pairing = pairing + coeff * h[k].conjugate() * as_gaussian(op.weights[k])
        rhs = rhs + as_gaussian(weight) * pairing * pairing.conjugate()
    return lhs == rhs


def reproducing_check(n: int, d: int) -> bool:
    """The reproducing identity of the degree-d kernel component: for every
    |alpha| = d, kernel coefficient x multinomial weight x monomial norm = 1."""
    c = bergman_coefficient_reduced(n, d)
    return all(c * multinomial(d, alpha) * monomial_norm_reduced(alpha) == 1
               for alpha in enumerate_degree(n, d))
