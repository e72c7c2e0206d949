"""Property tests over small random kernels (Hypothesis, derandomized so every
run draws the same examples)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HoloPolyMatrix,
    bidegree,
    coefficient_matrix,
    enumerate_degree,
    format_form,
    from_coefficient_matrix,
    gram,
    ldl_signature,
    parse_expression,
)

from helpers import reference_coefficient_matrix, reference_gram

SETTINGS = settings(derandomize=True, database=None, deadline=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
gaussians = st.builds(GaussianRational, fractions, fractions)
weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@st.composite
def forms(draw, hermitian: bool):
    """A kernel with n <= 3 variables and r <= 2 rows, and at most four terms
    of degree <= 2 in z and in wbar (added to their conjugate partners when
    `hermitian`, all of one bidegree then)."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    degrees = [draw(st.integers(0, 2))] if hermitian else [0, 1, 2]
    monomials = st.sampled_from([a for d in degrees for a in enumerate_degree(n, d)])
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        alpha, beta, c = draw(monomials), draw(monomials), draw(gaussians)
        terms.append(((i, j, alpha, beta), c))
        if hermitian:
            terms.append(((j, i, beta, alpha), c.conjugate()))
    return BihermitianForm.from_terms(n, r, terms)


@pytest.mark.parametrize("mode", ["bidegree", "generalized"])
@SETTINGS
@given(form=forms(hermitian=True))
def test_coefficient_matrix_equals_dense_construction(mode, form):
    assert coefficient_matrix(form, mode)[0] == reference_coefficient_matrix(form, mode)


@SETTINGS
@given(form=forms(hermitian=True))
def test_coefficient_matrix_round_trips_and_certifies(form):
    matrix, _ = coefficient_matrix(form, mode="bidegree")
    assert from_coefficient_matrix(matrix, form.n, bidegree(form), form.r) == form
    assert ldl_signature(matrix).verify() == (True, "ok")


@SETTINGS
@given(form=forms(hermitian=False))
def test_format_parse_round_trip(form):
    assert parse_expression(format_form(form), n=form.n) == form


@st.composite
def holo_matrices(draw):
    """A factor with n <= 3 variables, r <= 2 columns and at most three rows,
    each entry a polynomial of up to three terms of mixed degree <= 2 (zero
    coefficients, entries and rows included), weighted or not."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    monomials = st.sampled_from([a for d in range(3) for a in enumerate_degree(n, d)])
    polys = st.dictionaries(monomials, gaussians, max_size=3)
    rows = draw(st.lists(st.lists(polys, min_size=r, max_size=r), max_size=3))
    row_weights = draw(st.none() | st.lists(weights, min_size=len(rows), max_size=len(rows)))
    return HoloPolyMatrix.from_rows(n, rows, row_weights, ncols=r)


@SETTINGS
@given(a=holo_matrices())
def test_gram_equals_reference(a):
    assert gram(a) == reference_gram(a)


def test_gram_drops_cancelled_terms():
    # |z1 + z2|^2 + |z1 - z2|^2 = 2|z1|^2 + 2|z2|^2: the cross terms cancel.
    one = GaussianRational(Fraction(1))
    a = HoloPolyMatrix.from_rows(2, [[{(1, 0): one, (0, 1): one}], [{(1, 0): one, (0, 1): -one}]])
    two = GaussianRational(Fraction(2))
    assert gram(a).support == {(0, 0, (1, 0), (1, 0)): two, (0, 0, (0, 1), (0, 1)): two}
