"""Property tests over small random kernels (Hypothesis, derandomized so every
run draws the same examples)."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HermitianMatrix,
    bidegree,
    coefficient_matrix,
    enumerate_degree,
    evaluate_exact,
    find_minimal_d,
    from_coefficient_matrix,
    gram,
    is_hermitian_symmetric,
    WeightedGramFactor,
    ldl_signature,
    multiplier_power,
    multiplier_shift,
    parse_expression,
    parse_real_symbol,
    scale,
)
from hermfact import serialize, symbols
from hermfact.certify import (
    congruence_failure,
    factor_failure,
    independence_failure,
    mode_evidence,
    witness_failure,
)
from hermfact.cli import main as cli_main
from hermfact.factor import _factor_from_parts
from hermfact.hermform import coefficient_basis
from hermfact.scalars import ONE, ZERO, SparseRow
from hermfact.multiindex import degree_table
from hermfact.stabilize import MODES, power_matrix, shifted_rows
from hermfact.symbols import RealSymbol, _sample_symbol, real_to_complex

from helpers import (
    assert_equals_lowest_terms_kernel,
    add,
    block_layouts,
    complex_to_real,
    dense,
    embedded,
    evidence,
    full_evidence,
    format_form,
    holo_matrix,
    is_positive_definite,
    kernel_multiply,
    multinomial,
    parse_outcome,
    POSITIVE_DIAGONAL_SIGN_CHANGE,
    quadratic_value,
    quartic_family,
    reconstructs_target,
    reference_basis,
    reference_coefficient_matrix,
    reference_congruence_failure,
    reference_evaluate_exact,
    reference_evidence_obj,
    reference_exponent_steps,
    reference_factor_to_obj,
    reference_find_minimal_d,
    reference_form_obj,
    reference_fraction_to_str,
    reference_gram,
    reference_integer_ldl_signature,
    reference_multiplier_power,
    reference_obj_to_factor,
    reference_parse_expression,
    reference_parse_real_symbol,
    reference_real_to_complex,
    reference_sample_symbol,
    reference_term_sums,
    reference_primitive,
    reference_vectors,
    reference_weighted_vectors,
    square_difference,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
gaussians = st.builds(GaussianRational, fractions, fractions)
weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@st.composite
def forms(draw, hermitian: bool, mixed: bool = False):
    """A kernel with n <= 3 variables and r <= 2 rows, and at most four terms
    of degree <= 2 in z and in wbar (added to their conjugate partners when
    `hermitian`, all of one bidegree then unless `mixed`)."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    degrees = [draw(st.integers(0, 2))] if hermitian and not mixed else [0, 1, 2]
    monomials = st.sampled_from([a for d in degrees for a in enumerate_degree(n, d)])
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        alpha, beta, c = draw(monomials), draw(monomials), draw(gaussians)
        terms.append(((i, j, alpha, beta), c))
        if hermitian:
            terms.append(((j, i, beta, alpha), c.conjugate()))
    return BihermitianForm.from_terms(n, r, terms)


@pytest.mark.parametrize("mixed", [False, True], ids=["bidegree", "mixed_degrees"])
@SETTINGS
@given(data=st.data())
def test_coefficient_matrix_equals_dense_construction(mixed, data):
    # One bidegree m, on the degree-m basis, or, mostly, mixed degrees, on
    # the basis of every degree up to the largest, degree ascending, then
    # lexicographically descending.
    form = data.draw(forms(hermitian=True, mixed=mixed))
    matrix, monomials = coefficient_matrix(form)
    assert matrix == reference_coefficient_matrix(form)
    assert monomials == reference_basis(form) == coefficient_basis(form)


@SETTINGS
@given(form=forms(hermitian=True))
def test_coefficient_matrix_round_trips_and_certifies(form):
    matrix, _ = coefficient_matrix(form)
    assert from_coefficient_matrix(matrix, form.n, bidegree(form), form.r) == form
    assert ldl_signature(matrix).verify() == (True, "ok")


@SETTINGS
@given(form=forms(hermitian=False))
def test_format_parse_round_trip(form):
    assert parse_expression(format_form(form), n=form.n) == form


@st.composite
def evaluations(draw):
    """A form (Hermitian or of mixed degrees, the zero form included) and
    points z, w with coordinates of denominators up to 6, often 0; w is z
    half the time."""
    form = draw(forms(hermitian=draw(st.booleans())))
    coords = st.lists(st.just(ZERO) | gaussians, min_size=form.n, max_size=form.n)
    z = draw(coords)
    return form, z, z if draw(st.booleans()) else draw(coords)


@SETTINGS
@given(case=evaluations())
def test_evaluate_exact_equals_reference(case):
    form, z, w = case
    assert evaluate_exact(form, z, w) == reference_evaluate_exact(form, z, w)


@st.composite
def symbol_forms(draw):
    """A scalar bihomogeneous Hermitian form in n <= 3 variables of bidegree
    m <= 2: a weight in {-1, 0, 1, 2} on each |z^alpha|^2, which leaves exact
    zeros on the axes or changes sign, plus up to two drawn cross terms with
    their conjugate partners."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    monomials = enumerate_degree(n, m)
    terms = [((0, 0, alpha, alpha), draw(st.sampled_from((-1, 0, 1, 1, 2)))) for alpha in monomials]
    for _ in range(draw(st.integers(0, 2))):
        alpha, beta = draw(st.sampled_from(monomials)), draw(st.sampled_from(monomials))
        c = draw(gaussians)
        terms += [((0, 0, alpha, beta), c), ((0, 0, beta, alpha), c.conjugate())]
    return BihermitianForm.from_terms(n, 1, terms)


@st.composite
def sign_changing_forms(draw):
    """A scalar bihomogeneous Hermitian form in 2 <= n <= 3 variables of
    bidegree m <= 2 whose diagonal terms are all positive, a weight in
    {1, 2} on each |z^alpha|^2, so that every M_d has a positive diagonal,
    with one cross term c z^alpha zb^beta and its partner, |c| >= 7.  Where
    the variables of alpha and beta have equal moduli, every |z^gamma|^2 is
    the same t, and phases can turn c z^alpha zb^beta to -|c| t, so the value
    falls to (sum of weights - 2|c|) t < 0: the form changes sign."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    monomials = enumerate_degree(n, m)
    terms = [((0, 0, alpha, alpha), draw(st.sampled_from((1, 2)))) for alpha in monomials]
    alpha, beta = draw(st.lists(st.sampled_from(monomials), min_size=2, max_size=2, unique=True))
    c = draw(st.sampled_from((GaussianRational(7), GaussianRational(-8), GaussianRational(7, 7),
                              GaussianRational(0, -9))))
    terms += [((0, 0, alpha, beta), c), ((0, 0, beta, alpha), c.conjugate())]
    return BihermitianForm.from_terms(n, 1, terms)


def _walked(form):
    """The sphere walk of `symbols._sample_symbol` to its end: its evidence,
    yielded last, or None; it yields nothing after its decisive point."""
    points = list(_sample_symbol(form))
    assert all(p is None for p in points[:-1])
    return points[-1]


@SETTINGS
@given(form=symbol_forms())
def test_sample_symbol_picks_the_reference_points(form):
    assert _walked(form) == reference_sample_symbol(form)


def test_sample_symbol_finds_zeros_and_sign_changes():
    # An exact zero on an axis; a semidefinite form whose zeros, on
    # |z1| = |z2|, no sample point meets; a sign change; a definite form;
    # and a sign change whose M_d all have positive diagonals.  The walk
    # stops at its first zero or at the first point of its second sign.
    cases = [(parse_expression("z1*zb1", n=2), "zero"),
             (square_difference(), None),
             (quartic_family(-3), "pair"),
             (quartic_family(1), None),
             (parse_expression(POSITIVE_DIAGONAL_SIGN_CHANGE), "pair")]
    for form, found in cases:
        evidence = _walked(form)
        assert evidence == reference_sample_symbol(form)
        assert found == (evidence and ("zero" if evidence[0] is not None else "pair"))


def test_a_constant_symbol_samples_its_first_point_alone(monkeypatch):
    # A bidegree-0 symbol is a constant.  A nonzero one is certified by its
    # search at d = 0, before the walk takes a point; the zero symbol fails
    # d = 0, whose M_0 has one row, so the walk takes one point, e_1, a zero;
    # in 40 variables as in 3.
    sampled = []
    grid = symbols._sphere_numerators

    def counted(n):
        for point in grid(n):
            sampled.append(point)
            yield point

    monkeypatch.setattr(symbols, "_sphere_numerators", counted)
    cases = [("1", 0, "certified"), ("-2", 0, "certified"), ("0", 1, "not_elliptic")]
    for text, count, verdict in cases:
        for n in (3, 40):
            form = parse_expression(text, n=n)
            sampled.clear()
            assert symbols.certify_elliptic_form(form, 4).verdict == verdict
            assert len(sampled) == count
    form = parse_expression("0", n=3)
    assert _walked(form) == reference_sample_symbol(form) == ((ONE, ZERO, ZERO), None)


@SETTINGS
@given(form=symbol_forms() | sign_changing_forms(), d_max=st.integers(0, 3))
@example(form=square_difference(), d_max=3)  # no evidence, and no factor
def test_interleaved_certification_equals_sampling_then_search(form, d_max):
    # The verdict of the order the search and walk ran in before they were
    # interleaved: the whole grid sampled, then, with no evidence, the search;
    # the evidence is the walk's first decisive point.
    report = symbols.certify_elliptic_form(form, d_max)
    evidence = reference_sample_symbol(form)
    if evidence is not None:
        assert report.verdict == "not_elliptic" and report.stabilization is None
        assert (report.witness_point, report.sign_pair) == evidence
        return
    search = find_minimal_d(symbols.searched_form(form), "strict", d_max)
    assert report.verdict == ("certified" if search.found() else "not_certified")
    assert (report.d, report.stabilization) == (search.d_min, search)
    assert report.witness_point is None and report.sign_pair is None


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
    return holo_matrix(n, rows, row_weights, ncols=r)


@SETTINGS
@given(a=holo_matrices())
def test_gram_equals_reference(a):
    assert gram(a) == reference_gram(a)


def test_gram_drops_cancelled_terms():
    # |z1 + z2|^2 + |z1 - z2|^2 = 2|z1|^2 + 2|z2|^2: the cross terms cancel.
    one = GaussianRational(Fraction(1))
    a = holo_matrix(2, [[{(1, 0): one, (0, 1): one}], [{(1, 0): one, (0, 1): -one}]])
    assert gram(a) == BihermitianForm.from_terms(2, 1, {(0, 0, (1, 0), (1, 0)): 2,
                                                        (0, 0, (0, 1), (0, 1)): 2})


@st.composite
def stabilization_forms(draw):
    """A Hermitian-symmetric form with n <= 3 variables, r <= 2 rows and one
    bidegree m <= 2: up to three drawn terms with their conjugate partners
    (complex coefficients of denominators up to 6, the zero form included),
    and, for n >= 2 and m >= 1, now and then c z^alpha wbar^beta beside
    -c z^alpha' wbar^beta' with alpha' = alpha + e_a - e_b and
    beta' = beta + e_a - e_b, whose shifts by z_a wbar_a and z_b wbar_b
    cancel."""
    n, r, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    monomials = enumerate_degree(n, m)
    rows = st.integers(0, r - 1)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(rows), draw(rows)
        alpha, beta = draw(st.sampled_from(monomials)), draw(st.sampled_from(monomials))
        c = draw(gaussians)
        terms += [((i, j, alpha, beta), c), ((j, i, beta, alpha), c.conjugate())]
    if n > 1 and m > 0 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        movable = st.sampled_from([mono for mono in monomials if mono[b]])
        alpha, beta = draw(movable), draw(movable)
        moved = [tuple(x + (k == a) - (k == b) for k, x in enumerate(mono))
                 for mono in (alpha, beta)]
        i, j, c = draw(rows), draw(rows), draw(gaussians)
        for key, coeff in (((i, j, alpha, beta), c), ((i, j, *moved), -c)):
            terms += [(key, coeff), ((key[1], key[0], key[3], key[2]), coeff.conjugate())]
    return BihermitianForm.from_terms(n, r, terms)


@SETTINGS
@given(form=stabilization_forms())
def test_exponent_loop_equals_reference_shifts(form):
    for d, step in zip(range(5), reference_exponent_steps(form)):
        shifted = reference_multiplier_power(form, d)
        assert step == coefficient_matrix(shifted)
        assert from_coefficient_matrix(step[0], form.n, sum(step[1][0]), form.r) == shifted
        assert multiplier_power(form, d) == shifted


@st.composite
def closed_form_forms(draw):
    """A form of `stabilization_forms`, or that form with its diagonal
    terms, (i, alpha) = (j, beta), taken out: a hollow M_0, still Hermitian."""
    form = draw(stabilization_forms())
    if draw(st.booleans()):
        form = BihermitianForm.from_terms(form.n, form.r, {
            (i, j, alpha, beta): form.coefficient(i, j, alpha, beta)
            for i, j, alpha, beta in form.support if (i, alpha) != (j, beta)})
    return form


@SETTINGS
@given(form=closed_form_forms())
def test_closed_form_rows_equal_the_exponent_loop(form):
    # The multinomial closed form builds each M_d, d <= 6, with no shift
    # walked; both keep their matrices in lowest terms, with no cancelled 0.
    # Callers read M_d on the basis of `coefficient_basis`, the
    # bidegree-(m + d) basis, which the shifts reach too; the zero form stays
    # at M_0.
    for d, (matrix, basis) in zip(range(7), reference_exponent_steps(form)):
        assert shifted_rows(form, bidegree(form), d) == matrix
        assert basis == coefficient_basis(form, d)
        assert power_matrix(form, d) == (matrix, basis)


@SETTINGS
@given(form=stabilization_forms() | st.builds(BihermitianForm.zero, st.integers(2, 3),
                                               st.integers(1, 2)),
       d=st.integers(0, 4))
def test_coefficient_basis_names_each_row_of_m_d(form, d):
    # The one basis rule of M_d: r monomials for each of its rows, the zero
    # form's M_0 past d = 0 too.
    assert form.r * len(coefficient_basis(form, d)) == power_matrix(form, d)[0].size


def test_the_zero_form_keeps_the_basis_of_m0():
    # <z, w>^d 0 = 0, whose M_d is M_0: one pair per matrix row index, where
    # the degree-d monomials in 2 or 3 variables would be 2 to 15.
    for n in (2, 3):
        for r in (1, 2):
            zero = BihermitianForm.zero(n, r)
            for d in range(5):
                basis = coefficient_basis(zero, d)
                assert basis == coefficient_basis(zero) == ((0,) * n,)
                assert power_matrix(zero, d) == (HermitianMatrix([{}] * r, [{}] * r, 1), basis)


def test_degree_table_weights_are_one_ratio_apart():
    # Each weight of a degree table is its predecessor's times mu_k over
    # mu_last + 1; every one is d!/mu! in the order of enumerate_degree.
    for n in range(1, 6):
        for d in range(13):
            assert degree_table(n, d, d.bit_length()).weights == tuple(
                multinomial(d, mu) for mu in enumerate_degree(n, d))


@pytest.mark.parametrize("mode", ["strict", "semi"])
def test_find_minimal_d_equals_the_shift_search_on_the_zero_and_one_variable_forms(mode):
    # The zero form stays at M_0 at every d, and in one variable the search
    # stops at d = 0: the closed form and the reference's shifts agree.
    for form in (BihermitianForm.zero(2), BihermitianForm.zero(3, 2),
                 parse_expression("-2*z1*zb1"), parse_expression("3*z1^2*zb1^2"),
                 BihermitianForm.from_terms(1, 2, {(i, j, (1,), (1,)): 1 + (i != j)
                                                   for i in range(2) for j in range(2)})):
        assert find_minimal_d(form, mode, 6) == reference_find_minimal_d(form, mode, 6)


def test_exponent_loop_keeps_a_cancelled_term_out_of_the_form():
    # <z,w> (|z1|^2 - |z2|^2) = |z1|^4 - |z2|^4: the z1 z2 wbar1 wbar2 terms cancel.
    form = parse_expression("z1*zb1 - z2*zb2")
    steps = reference_exponent_steps(form)
    next(steps)
    matrix, _ = next(steps)
    assert matrix == power_matrix(form, 1)[0]
    shifted = from_coefficient_matrix(matrix, 2, 2, 1)
    assert shifted == parse_expression("z1^2*zb1^2 - z2^2*zb2^2") == multiplier_shift(form)
    assert matrix == coefficient_matrix(shifted)[0]


@st.composite
def hermitian_matrices(draw):
    """A Hermitian matrix of size 1 to 6 with entries of denominators up to
    6, often 0; half the time its diagonal is 0, so that the elimination
    takes hollow 2x2 pivots."""
    size = draw(st.integers(1, 6))
    entry = st.just(ZERO) | gaussians
    hollow = draw(st.booleans())
    rows = [[ZERO] * size for _ in range(size)]
    for k in range(size):
        rows[k][k] = ZERO if hollow else GaussianRational(draw(fractions))
        for l in range(k + 1, size):
            rows[k][l] = draw(entry)
            rows[l][k] = rows[k][l].conjugate()
    return HermitianMatrix.from_rows(rows)


@SETTINGS
@given(matrix=hermitian_matrices())
def test_weighted_vectors_densify_to_the_reference(matrix):
    cert = ldl_signature(matrix)
    pairs = cert.vectors
    assert [(w, dense(v, matrix.size)) for w, v in pairs] == reference_vectors(matrix)
    for _, v in pairs:
        indices = [j for j, _, _ in v.entries]
        assert indices == sorted(set(indices)) and v.den > 0
        assert all(x or y for _, x, y in v.entries)
        # Gaussian integers of content 1, as they are written
        assert v.den == 1 and gcd(*(x for _, re, im in v.entries for x in (re, im))) == 1


def test_weighted_vectors_of_a_hollow_block():
    cert = ldl_signature(HermitianMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert cert.blocks
    assert [(w, dense(v, 3)) for w, v in cert.vectors] == reference_vectors(cert.matrix)


# Variables of a kernel, a holomorphic matrix and a real symbol; a text draws
# from one family and now and then from all of them, z0 included.
FAMILIES = (("z1", "z2", "zb1", "zb2"), ("z1", "z2", "z3"), ("x1", "x2", "x3"))
STRAYS = ("z1", "zb3", "x1", "z0", "zb10")


@SETTINGS
@given(matrix=hermitian_matrices(), data=st.data())
def test_congruence_check_equals_the_dense_reference(matrix, data):
    # The sparse check of M = sum w v v^adj names the same first failing
    # (p, q) as the dense grid: on a certificate's weighted vectors, which
    # pass, and on mutants of them, with one numerator changed, one weight
    # changed, or one vector dropped.
    vectors = ldl_signature(matrix).vectors
    assert congruence_failure(matrix, vectors) is None
    mutants = []
    if vectors:
        k = data.draw(st.integers(0, len(vectors) - 1))
        w, v = vectors[k]
        t = data.draw(st.integers(0, len(v.entries) - 1))
        j, x, y = v.entries[t]
        delta = data.draw(st.integers(-3, 3).filter(bool))
        changed = (j, x + delta, y) if data.draw(st.booleans()) else (j, x, y + delta)
        bumped = SparseRow(v.entries[:t] + (changed,) + v.entries[t + 1:], v.den)
        mutants = [vectors[:k] + [(w, bumped)] + vectors[k + 1:],
                   vectors[:k] + [(w + data.draw(fractions.filter(bool)), v)] + vectors[k + 1:],
                   vectors[:k] + vectors[k + 1:]]
    for case in [vectors] + mutants:
        assert congruence_failure(matrix, case) == reference_congruence_failure(matrix, case)


@st.composite
def expression_tokens(draw, variables, depth: int):
    """expr := term (('+'|'-') term)*, each term signed factors joined by '*',
    a factor an atom with an optional integer power."""
    tokens = []
    for t in range(draw(st.integers(1, 3))):
        if t:
            tokens.append(draw(st.sampled_from("+-")))
        for f in range(draw(st.integers(1, 3))):
            if f:
                tokens.append("*")
            tokens.extend(draw(st.lists(st.sampled_from("+-"), max_size=2)))
            atom = draw(st.integers(0, 6 if depth else 4))
            if atom == 0:
                q = draw(st.sampled_from((1, 1, 1, 1, 1, 2, 3, 4, 6, 0)))
                tokens.append(str(draw(st.integers(0, 12))) + (f"/{q}" if q != 1 else ""))
            elif atom == 1:
                tokens.append("i")
            elif atom < 5:
                tokens.append(draw(st.sampled_from(variables)))
            else:
                tokens += ["(", *draw(expression_tokens(variables, depth - 1)), ")"]
            if draw(st.integers(0, 3)) == 0:
                tokens += ["^", str(draw(st.integers(0, 3)))]
    return tokens


@st.composite
def expression_texts(draw, variables):
    """An expression or a matrix of them (square or ragged), tokens spaced by
    drawn whitespace; then perhaps truncated, given an inserted character, or
    given a fractional exponent."""
    if draw(st.integers(0, 3)):
        tokens = draw(expression_tokens(variables, 2))
    else:
        r = draw(st.integers(1, 2))
        rows = []
        for _ in range(r):
            width = r if draw(st.integers(0, 5)) else 3 - r
            entries = [draw(expression_tokens(variables, 1)) for _ in range(width)]
            rows.append(["[", *(tok for k, e in enumerate(entries) for tok in [","][:k] + e), "]"])
        tokens = ["[", *(tok for k, row in enumerate(rows) for tok in [","][:k] + row), "]"]
    spaces = st.sampled_from(["", "", "", " ", "  ", "\t", "\n"])
    text = "".join(draw(spaces) + tok for tok in tokens) + draw(spaces)
    mutation = draw(st.integers(0, 7))
    if mutation == 5:
        text = text[: draw(st.integers(0, len(text)))]
    elif mutation == 6:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("()[],+-*^/.i z1x0a")) + text[at:]
    elif mutation == 7:
        text = text.replace("^", f"^{draw(st.integers(0, 3))}/{draw(st.integers(1, 3))}+", 1)
    return text


@st.composite
def expression_pairs(draw):
    """Two expression texts in one family of variables."""
    variables = draw(st.sampled_from(FAMILIES))
    if draw(st.integers(0, 7)) == 7:
        variables += STRAYS
    return draw(expression_texts(variables)), draw(expression_texts(variables))


@SETTINGS
@given(pair=expression_pairs())
def test_parser_equals_reference(pair):
    e, f = pair
    # E - (E) + F cancels every term of E; (E)*(F) multiplies polynomials.
    for text in [e, f"{e} - ({e}) + {f}", f"({e})*({f})"]:
        for parse, reference in [
            (parse_expression, reference_parse_expression),
            (lambda t: parse_expression(t, n=3), lambda t: reference_parse_expression(t, n=3)),
            (parse_real_symbol, reference_parse_real_symbol),
        ]:
            assert parse_outcome(parse, text) == parse_outcome(reference, text)


# Characters that start no token, and spellings next to a token that make it
# one: a lone z, x or zb, and an 'i' run into a letter.
CORRUPTIONS = ("$", ".", "y", "z", "x", "zb", "ia", "iy", "iz", "ix", "izb")


@SETTINGS
@given(data=st.data())
def test_parse_errors_equal_the_reference(data):
    # One corruption at any position of a spaced expression: the parser and
    # the reference give the same result, or the same error at the same
    # position, the first bad character winning over any other error.
    variables = data.draw(st.sampled_from(FAMILIES))
    spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
    text = "".join(data.draw(spaces) + tok for tok in data.draw(expression_tokens(variables, 2)))
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + data.draw(st.sampled_from(CORRUPTIONS)) + text[at:] + data.draw(spaces)
    for parse, reference in [(parse_expression, reference_parse_expression),
                             (parse_real_symbol, reference_parse_real_symbol)]:
        assert parse_outcome(parse, text) == parse_outcome(reference, text)


# The spellings of a rational that fraction_to_str never writes but that
# Fraction, and so the reader, accepts.
NON_CANONICAL = ["2/4", "-0", "007", " 3 ", "+3", "0.5", "-6/9", "1e3", "0/7"]


@SETTINGS
@given(text=st.builds(str, st.integers(-10**30, 10**30))
       | st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(1, 10**30))
       | st.sampled_from(NON_CANONICAL))
def test_rational_reader_equals_fraction(text):
    p, q = serialize.read_ratio(text)
    assert q > 0 and Fraction(p, q) == Fraction(text)
    assert Fraction(*serialize.read_ratio(text)) == Fraction(text)


@pytest.mark.parametrize("value", ["1/0", "+1/0", "0/0", "-5/000", "1/", "", "a", None,
                                   float("inf"), True, 0.1])
def test_rational_reader_rejects_zero_denominators_and_non_rationals(value):
    with pytest.raises(ValueError):
        serialize.read_ratio(value)


@SETTINGS
@given(x=st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
def test_fraction_writer_equals_reference(x):
    assert serialize.fraction_to_str(x) == reference_fraction_to_str(x)


def _form_respellings(obj: dict) -> list[dict]:
    """Spellings of the written form `obj` that the reader refuses: den 0 or
    negated, den and every numerator doubled, and, for its first term, its
    twin written too, a zero term beside it, a nonzero imaginary part where
    it is its own twin, a numerator written as a float, a string or a bool,
    and the first two terms swapped."""
    out = []

    def copied() -> dict:
        out.append(copy.deepcopy(obj))
        return out[-1]

    copied()["den"] = 0
    copied()["den"] = -obj["den"]
    doubled = copied()
    doubled["den"] *= 2
    for term in doubled["terms"]:
        term[4:] = [2 * term[4], 2 * term[5]]
    if not obj["terms"]:
        return out
    i, j, alpha, beta, re, im = obj["terms"][0]
    if (i, j, alpha, beta) != (j, i, beta, alpha):
        copied()["terms"].insert(1, [j, i, beta, alpha, re, -im])
    else:
        copied()["terms"][0][5] = 1
    copied()["terms"].insert(1, [i, j, alpha, beta, 0, 0])
    copied()["terms"][0][4] = float(re)
    copied()["terms"][0][4] = str(re)
    if re in (0, 1):
        copied()["terms"][0][4] = bool(re)
    if len(obj["terms"]) > 1:
        terms = copied()["terms"]
        terms[0], terms[1] = terms[1], terms[0]
    return out


@SETTINGS
@given(form=forms(hermitian=False))
def test_form_writer_equals_reference_and_reads_back(form):
    # A term is the row of the fields that the object spelling names, its
    # coefficient as numerators over the form's den, and only the lesser key
    # of each conjugate pair is written: a form that is not Hermitian has no
    # spelling.
    if not is_hermitian_symmetric(form):
        with pytest.raises(ValueError, match="only a Hermitian-symmetric form is written"):
            serialize.form_to_obj(form)
        return
    obj = serialize.form_to_obj(form)
    objects = reference_form_obj(form)
    lesser = [term for term in objects["terms"] if (term["i"], term["j"], term["alpha"],
              term["beta"]) <= (term["j"], term["i"], term["beta"], term["alpha"])]
    assert obj["den"] == form.den and obj["terms"] == [
        [*(term[f] for f in serialize.TERM_FIELDS[:4]),
         *(int(Fraction(term[f]) * form.den) for f in ("re", "im"))] for term in lesser]
    assert serialize.obj_to_form(obj, written=True) == serialize.obj_to_form(objects) == form
    assert serialize.obj_to_form(json.loads(serialize.canonical_json(obj))) == form
    # Exactly that spelling is read: every other one is a format error.
    for respelled in _form_respellings(obj):
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.obj_to_form(respelled, written=True)
    if obj["terms"]:
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.obj_to_form(objects, written=True)


@st.composite
def gram_matrices(draw):
    """sum_k v_k v_k^adj over up to `size` vectors with entries often 0: PSD,
    and singular whenever the vectors do not span."""
    size = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(st.just(ZERO) | gaussians, min_size=size, max_size=size),
                            max_size=size))
    return HermitianMatrix.from_rows(
        [[sum((v[p] * v[q].conjugate() for v in vectors), ZERO) for q in range(size)]
         for p in range(size)])


@SETTINGS
@given(matrix=hermitian_matrices() | gram_matrices())
def test_strict_witness_exactly_when_not_positive_definite(matrix):
    # Block by block (`reference_blocks`; a one-block matrix is its own
    # block): each block's pieces are the reference's on its submatrix, and
    # the witness is the first failing block's.
    # The PD evidence (`mode_evidence(M, True)`) is its witness, or the
    # certificate's vectors, and proves its claim.
    cert = ldl_signature(matrix)
    strict_vectors, strict_witness = mode_evidence(matrix, True)
    assert cert.verify() == (True, "ok")
    if strict_witness is None:
        assert strict_vectors == cert.vectors
        assert factor_failure(matrix, strict_vectors, strict=True) is None
    else:
        assert witness_failure(matrix, strict_witness, strict=True) is None
    failing = strict_failing = None
    for block, sub, ours in block_layouts(cert):
        want = reference_integer_ldl_signature(sub)
        vectors = reference_primitive(reference_weighted_vectors(want))
        assert ours == (want.permutation, vectors, want.diag, want.blocks)
        if failing is None and want.inertia[1]:
            failing = block, want
        if strict_failing is None and not is_positive_definite(want):
            strict_failing = block, want
    size = matrix.size
    assert (None if cert.witness is None else dense(cert.witness, size)) == (
        None if failing is None else embedded(failing[1].witness, failing[0], size))
    if strict_failing is None:
        assert strict_witness is None
        return
    block, want = strict_failing
    witness = dense(strict_witness, size)
    if want.inertia[1]:
        assert witness == embedded(want.witness, block, size)
    else:
        value = quadratic_value(matrix, witness)
        assert any(witness) and value.im == 0 and value.re <= 0
        assert not any(c for p, c in enumerate(witness) if p not in block)


@st.composite
def evidence_matrices(draw):
    """A Hermitian matrix of size 1 to 12, one of four kinds: entries of
    denominators up to 6 with a drawn diagonal; the same with a zero diagonal,
    so that the elimination takes hollow blocks; a sum of up to size
    vectors v v^adj, PSD and singular when they do not span, plus now and
    then a positive multiple of the identity, which makes it PD; or such a
    sum beside a hollow block, so that positive pivots come before the block
    or the zero pivots."""
    size = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["rational", "hollow", "gram", "gram_and_hollow"]))
    entry = st.just(ZERO) | gaussians
    if kind in ("rational", "hollow"):
        rows = [[ZERO] * size for _ in range(size)]
        for k in range(size):
            rows[k][k] = ZERO if kind == "hollow" else GaussianRational(draw(fractions))
            for l in range(k + 1, size):
                rows[k][l] = draw(entry)
                rows[l][k] = rows[k][l].conjugate()
        return HermitianMatrix.from_rows(rows)
    split = size if kind == "gram" else draw(st.integers(0, max(size - 2, 0)))
    vectors = draw(st.lists(st.lists(entry, min_size=split, max_size=split), max_size=split))
    shift = GaussianRational(draw(st.just(Fraction(0)) | weights))
    rows = [[ZERO] * size for _ in range(size)]
    for p in range(split):
        for q in range(split):
            rows[p][q] = sum((v[p] * v[q].conjugate() for v in vectors), shift if p == q else ZERO)
    for p in range(split, size):
        for q in range(p + 1, size):
            rows[p][q] = draw(entry)
            rows[q][p] = rows[p][q].conjugate()
    order = draw(st.permutations(range(size)))
    return HermitianMatrix.from_rows([[rows[p][q] for q in order] for p in order])


@settings(SETTINGS, max_examples=200)
@given(matrix=hermitian_matrices() | evidence_matrices())
def test_fraction_free_kernel_equals_the_lowest_terms_kernel(matrix):
    # Numerators at the scale of a leading principal minor, divided exactly,
    # give the certificates and evidence of rows kept in lowest terms.
    assert_equals_lowest_terms_kernel(matrix)


@settings(SETTINGS, max_examples=200)
@given(matrix=evidence_matrices())
def test_mode_evidence_is_the_certificates_witness_or_weighted_vectors(matrix):
    # The evidence is the full elimination's (`full_evidence`), and for PSD
    # the certificate's witness or weighted vectors.
    cert = ldl_signature(matrix)
    for strict in (False, True):
        evidence = mode_evidence(matrix, strict)
        assert evidence == full_evidence(matrix, strict)
        if strict:
            continue
        if cert.witness is None:
            assert evidence == (cert.vectors, None)
        else:
            assert evidence == (None, cert.witness)


@st.composite
def block_sums(draw):
    """(M, parts): the direct sum of 1 to 4 `evidence_matrices`, its indices
    permuted, so that its blocks include hollow and singular ones."""
    parts = draw(st.lists(evidence_matrices(), min_size=1, max_size=4))
    size = sum(part.size for part in parts)
    rows = [[ZERO] * size for _ in range(size)]
    offset = 0
    for part in parts:
        for p, row in enumerate(part.entries):
            rows[offset + p][offset:offset + part.size] = row
        offset += part.size
    order = draw(st.permutations(range(size)))
    return HermitianMatrix.from_rows([[rows[p][q] for q in order] for p in order]), parts


@settings(SETTINGS, max_examples=100)
@given(drawn=block_sums())
def test_block_kernel_certifies_direct_sums(drawn):
    # The certificate verifies, its inertia is the sum of the summands', its
    # vectors are a signed factor of M, and mode_evidence agrees with it and
    # with the full elimination, and proves its claim.
    matrix, parts = drawn
    inertias = [reference_integer_ldl_signature(part).inertia for part in parts]
    cert = ldl_signature(matrix)
    assert cert.verify() == (True, "ok")
    assert cert.inertia == tuple(map(sum, zip(*inertias)))
    vectors = cert.vectors
    assert factor_failure(matrix, vectors, strict=False, signed=True) is None
    for strict in (False, True):
        evidence = mode_evidence(matrix, strict)
        assert evidence == full_evidence(matrix, strict)
        witness = evidence[1]
        if witness is None:
            assert evidence == (vectors, None)
            assert factor_failure(matrix, vectors, strict) is None
        else:
            assert strict or witness == cert.witness
            assert witness_failure(matrix, witness, strict) is None


# Forms whose searches stop at witnesses of every kind: ladder members (null
# vectors in strict mode at c = -3/2), block-sparse 3-variable quartics, the
# Q3 quartic, and hollow forms whose zero diagonals take 2x2 blocks.
BLOCK3 = ("z1^2*zb1^2 + z2^2*zb2^2 + z3^2*zb3^2 - ({c})*(z1*z2*zb1*zb2 + z2*z3*zb2*zb3"
          " + z1*z3*zb1*zb3) + 1/4*(z1^2*zb2^2 + z2^2*zb1^2)")
Q3 = ("z1^2*zb1^2 + z2^2*zb2^2 + z3^2*zb3^2 - z1*z2*zb1*zb2 - z2*z3*zb2*zb3 - z1*z3*zb1*zb3"
      " + 1/2*z1^2*zb2^2 + 1/2*z2^2*zb1^2")
SEARCH_FORMS = [
    *(f"z1^2*zb1^2 + ({c})*z1*z2*zb1*zb2 + z2^2*zb2^2"
      for c in ("1/2", "-1", "-3/2", "-17/10", "-2")),
    *(BLOCK3.format(c=c) for c in ("1/2", "23/40", "61/100")),
    Q3,
    "z1*zb2 + z2*zb1",
    "z1*zb2 + z2*zb1 + z2*zb3 + z3*zb2",
    "z1^2*zb2^2 + z2^2*zb1^2 + z1*z2*zb1*zb2",
]


@pytest.mark.parametrize("mode", ["strict", "semi"])
@pytest.mark.parametrize("text", SEARCH_FORMS)
def test_find_minimal_d_equals_the_full_elimination_search(text, mode):
    form = parse_expression(text)
    assert find_minimal_d(form, mode, 9) == reference_find_minimal_d(form, mode, 9)


@pytest.mark.parametrize("text", SEARCH_FORMS)
def test_search_blocks_read_in_place_equal_the_full_elimination(text):
    # Each matrix of the exponent loop equals the checked matrix of its dense
    # entries, and its blocks, read from its rows in place and stopped at the
    # first failing one, give the evidence of the full elimination.
    for matrix, _ in islice(reference_exponent_steps(parse_expression(text)), 10):
        dense = HermitianMatrix.from_rows(matrix.entries)
        assert dense == matrix
        cert = ldl_signature(dense)
        assert full_evidence(dense, False) == (
            (cert.vectors, None) if cert.witness is None else (None, cert.witness))
        for strict in (False, True):
            assert mode_evidence(matrix, strict) == full_evidence(dense, strict)


@SETTINGS
@given(form=stabilization_forms(), strict=st.booleans())
def test_find_minimal_d_equals_the_full_elimination_search_on_drawn_forms(form, strict):
    mode = "strict" if strict else "semi"
    assert find_minimal_d(form, mode, 4) == reference_find_minimal_d(form, mode, 4)


@SETTINGS
@given(form=stabilization_forms(), strict=st.booleans())
def test_search_witnesses_prove_their_steps_fail_on_drawn_forms(form, strict):
    # Every witness of a search passes the check that verify runs on M_d, and
    # a step whose dense M_d has a negative diagonal entry (or, if strict, a
    # zero one) keeps the unit vector at the first such index.
    for step in find_minimal_d(form, "strict" if strict else "semi", 4).steps:
        matrix, _ = power_matrix(form, step.d)
        failing = [p for p, row in enumerate(matrix.entries)
                   if row[p].re < 0 or (strict and row[p].re == 0)]
        if step.passes:
            assert not failing
            continue
        assert witness_failure(matrix, step.witness, strict) is None
        if failing:
            assert step.witness == SparseRow(((failing[0], 1, 0),))


def _entry_respellings(entries: list) -> list[list]:
    """Spellings of a vector's nonzero entries [j, re, im] that the reader
    refuses: over a doubled content, with a zero entry after the last, with
    the first two swapped, and with the first real part written as a float,
    a string or, when it is 0 or 1, a bool."""
    re = entries[0][1]
    out = [[[j, 2 * x, 2 * y] for j, x, y in entries],
           entries + [[entries[-1][0] + 1, 0, 0]],
           [[entries[0][0], float(re), entries[0][2]]] + entries[1:],
           [[entries[0][0], str(re), entries[0][2]]] + entries[1:]]
    if re in (0, 1):
        out.append([[entries[0][0], bool(re), entries[0][2]]] + entries[1:])
    if len(entries) > 1:
        out.append([entries[1], entries[0]] + entries[2:])
    return out


def _evidence_respellings(obj: dict) -> list[dict]:
    """Spellings of a certificate's evidence that the reader refuses: its
    first vector's weight over a doubled denominator, with a zero or
    negative denominator, or as the string that the codec before wrote;
    and each of `_entry_respellings` of its first vector and of its witness."""
    out = []
    if obj["vectors"]:
        (p, q), entries = obj["vectors"][0]
        rest = obj["vectors"][1:]
        out += [{**obj, "vectors": [[weight, entries]] + rest}
                for weight in ([2 * p, 2 * q], [p, 0], [-p, -q], reference_fraction_to_str(
                    Fraction(p, q)))]
        out += [{**obj, "vectors": [[[p, q], respelled]] + rest}
                for respelled in _entry_respellings(entries)]
    if obj["witness"]:
        out += [{**obj, "witness": respelled} for respelled in _entry_respellings(obj["witness"])]
    return out


@SETTINGS
@given(matrix=hermitian_matrices() | gram_matrices(), strict=st.booleans())
def test_certificate_codec_equals_reference_and_refuses_respellings(matrix, strict):
    # With `strict`, the witness is the PD evidence's, a null vector of a
    # singular PSD M among them, beside the certificate's vectors.
    cert = ldl_signature(matrix)
    if strict:
        cert = dataclasses.replace(cert, witness=mode_evidence(matrix, True)[1])
    read = evidence(cert)
    obj = serialize.certificate_to_obj(*read)
    assert obj == reference_evidence_obj(cert)
    assert serialize.obj_to_certificate(obj) == read
    assert serialize.obj_to_certificate(json.loads(serialize.canonical_json(obj))) == read
    # On the constant form whose matrix is M the evidence verifies, unless it
    # has the PD witness: where no weight is negative (a singular PSD M), or
    # where that witness is a null vector of value 0; every other spelling of
    # it is a format error.
    factor = serialize.factor_to_obj(from_coefficient_matrix(matrix, 1, 0, matrix.size), 0,
                                     *evidence(cert))
    for respelled in _evidence_respellings(obj):
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.obj_to_certificate(respelled)
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.verify_obj({**factor, **respelled})
    if (cert.witness is None) != (cert.inertia[1] == 0):
        assert serialize.verify_obj(factor) == (
            False, "witness is not present exactly when a weight is negative")
    elif cert.witness is not None and matrix.quadratic_value(cert.witness) >= 0:
        assert strict
        assert serialize.verify_obj(factor) == (False, "witness value is not negative")
    else:
        assert serialize.verify_obj(factor) == (True, "ok")


@settings(SETTINGS, max_examples=300)
@given(matrix=hermitian_matrices() | gram_matrices(), data=st.data())
def test_evidence_with_one_integer_changed_fails_verify(matrix, data):
    # Every integer of the evidence binds.  One weight part or vector entry
    # part changed fails verify, save an entry negated on a vector of one
    # entry, which gives the same w v v^adj; one witness integer changed
    # fails unless the vector it leaves is still a witness of M.
    cert = ldl_signature(matrix)
    factor = serialize.factor_to_obj(from_coefficient_matrix(matrix, 1, 0, matrix.size), 0,
                                     *evidence(cert))
    assert serialize.verify_obj(factor) == (True, "ok")
    items = [("vector", k, 0, part) for k in range(len(factor["vectors"])) for part in (0, 1)]
    items += [("vector", k, 1 + t, part) for k, (_, v) in enumerate(factor["vectors"])
              for t in range(len(v)) for part in (0, 1, 2)]
    items += [("witness", 0, t, part) for t in range(len(factor["witness"] or []))
              for part in (0, 1, 2)]
    assume(items)
    kind, k, t, part = data.draw(st.sampled_from(items))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    forged = copy.deepcopy(factor)
    if kind == "witness":
        changed = forged["witness"][t]
    else:
        changed = forged["vectors"][k][0] if t == 0 else forged["vectors"][k][1][t - 1]
    before = list(changed)
    changed[part] += delta
    try:
        ok, _ = serialize.verify_obj(forged)
    except ValueError:
        return
    if not ok:
        return
    if kind == "witness":
        value = quadratic_value(matrix, serialize._obj_to_sparse(forged["witness"]))
        assert value.im == 0 and value.re < 0
    else:
        assert t == 1 and part > 0 and len(forged["vectors"][k][1]) == 1
        assert before[1] ** 2 + before[2] ** 2 == changed[1] ** 2 + changed[2] ** 2


@settings(SETTINGS, max_examples=200)
@given(matrix=hermitian_matrices() | gram_matrices(), data=st.data())
def test_independence_accepts_certificates_and_rejects_a_duplicate(matrix, data):
    # Drawn matrices are singular, hollow (blocks) or neither; their
    # weighted vectors in slot order pass, and a copy of one never does.
    vectors = ldl_signature(matrix).vectors
    assert independence_failure(vectors) is None
    assume(vectors)
    copied = vectors[data.draw(st.integers(0, len(vectors) - 1))]
    vectors.insert(data.draw(st.integers(0, len(vectors))), copied)
    assert independence_failure(vectors) == "factor vectors are not independent"


@st.composite
def real_symbols(draw):
    """A real symbol in 2, 4 or 6 variables with at most four terms, each
    exponent at most 3 (so mixed degrees and odd orders occur too)."""
    nvars = 2 * draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return RealSymbol.from_terms(nvars, draw(st.lists(st.tuples(exponents, fractions), max_size=4)))


@st.composite
def term_items(draw, n: int, r: int):
    """(key, c) items on at most three keys, so that keys repeat, each item
    followed by its negation half the time, so that sums cancel."""
    monomials = st.sampled_from([a for d in range(3) for a in enumerate_degree(n, d)])
    index = st.integers(0, r - 1)
    keys = draw(st.lists(st.tuples(index, index, monomials, monomials), min_size=1, max_size=3))
    items = []
    for _ in range(draw(st.integers(0, 6))):
        key, c = draw(st.sampled_from(keys)), draw(gaussians)
        items += [(key, c), (key, -c)] if draw(st.booleans()) else [(key, c)]
    return items


def _in_lowest_terms(form: BihermitianForm) -> bool:
    """No (0, 0) pair, den > 0, and no factor common to den and every numerator."""
    pairs = form.support.values()
    common = gcd(form.den, *(x for pair in pairs for x in pair))
    return form.den > 0 and (0, 0) not in pairs and common == 1


@SETTINGS
@given(data=st.data())
def test_every_form_constructor_gives_lowest_terms(data):
    # from_terms sums repeated keys as the Fraction reference does, and every
    # constructor leaves its form in lowest terms, so forms compare by fields.
    n, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    items = data.draw(term_items(n, r))
    f = BihermitianForm.from_terms(n, r, items)
    expected = reference_term_sums(items)
    assert f.support.keys() == expected.keys()
    assert all(f.coefficient(*key) == c for key, c in expected.items())
    g = BihermitianForm.from_terms(n, r, data.draw(term_items(n, r)))
    s = BihermitianForm.from_terms(n, 1, data.draw(term_items(n, 1)))
    c, h = data.draw(gaussians), data.draw(forms(hermitian=True))
    built = [f, g, s, parse_expression(format_form(f), n=n),
             serialize.obj_to_form(serialize.form_to_obj(h), written=True),
             serialize.obj_to_form(reference_form_obj(f)),
             gram(data.draw(holo_matrices())),
             from_coefficient_matrix(coefficient_matrix(h)[0], h.n, bidegree(h), h.r),
             real_to_complex(data.draw(real_symbols())),
             scale(f, c), scale(f, 0), add(f, g), add(f, scale(f, -1)),
             kernel_multiply(s, g), multiplier_power(h, data.draw(st.integers(0, 2)))]
    assert all(map(_in_lowest_terms, built))
    assert built[3:5] == [f, h] and add(f, scale(f, -1)) == BihermitianForm.zero(n, r)


@SETTINGS
@given(symbol=real_symbols())
def test_real_to_complex_equals_reference_and_inverts(symbol):
    form = real_to_complex(symbol)
    assert form == reference_real_to_complex(symbol)
    assert complex_to_real(form) == symbol


# Emitted stabilization reports, passing and inconclusive, in both modes: an
# off-diagonal quartic with complex coefficients (d_min 6 in both modes), and
# the ladder member c = -3/2, whose strict trail has null vectors at d = 5, 6.
OFF_DIAGONAL = ("z1^2*zb1^2 + z2^2*zb2^2 - z1*z2*zb1*zb2 + (1/4+1/4*i)*z1*z2*zb2^2"
                " + (1/4-1/4*i)*z2^2*zb1*zb2")
LADDER = "z1^2*zb1^2 - 3/2*z1*z2*zb1*zb2 + z2^2*zb2^2"
SEARCHES = [(OFF_DIAGONAL, "strict", 8), (OFF_DIAGONAL, "semi", 8), (OFF_DIAGONAL, "strict", 3),
            (LADDER, "strict", 8), (LADDER, "semi", 8), (LADDER, "strict", 6), (LADDER, "semi", 3)]
MUTATIONS = ("witness", "witness_d", "weight", "vector", "drop", "duplicate", "d_min", "d_max",
             "mode")
ratio_strings = st.builds(lambda p, q: serialize.fraction_to_str(Fraction(p, q)),
                          st.integers(-3, 3), st.integers(1, 3))
# Numerators and weights [p, q] as the wire writes them, and some that it
# never writes: [2, 2] is not in lowest terms, and 0 or an entry of content
# 2 is not a nonzero entry of content 1.
small_ints = st.integers(-3, 3)
weight_pairs = st.builds(lambda p, q: [p, q], st.integers(-3, 3), st.integers(1, 3))


@functools.cache
def _emitted_stabilization(text: str, mode: str, d_max: int) -> str:
    return serialize.canonical_json(
        serialize.stabilization_to_obj(find_minimal_d(parse_expression(text), mode, d_max)))


def _mutate(data, obj: dict, kind: str) -> None:
    """Change one part of `obj`, a stabilization report or a weighted factor:
    a trail or factor witness entry (or a witness given to a factor without
    one), the d of a trail's witness, a factor weight or vector entry, the
    trail's witness or one factor vector
    dropped or duplicated (in place of another or beside it), a cancelling
    pair [w, v], [-w, v] of a factor's vectors put beside them, one
    coefficient of the embedded form, d_max, mode or d, or a stray d_min."""
    key = "factor" if "trail" in obj else "vectors"
    vectors = obj.get(key) or []
    if kind == "witness" and key == "vectors" and obj["witness"] is None:
        obj["witness"] = [[data.draw(st.integers(0, 9)), data.draw(small_ints), 0]]
    elif kind == "witness_d":
        assume(obj["trail"])
        obj["trail"][0][0] = data.draw(st.integers(-1, 12))
    elif kind in ("witness", "vector"):
        witnesses = [v for _, v in obj["trail"]] if key == "factor" else [obj["witness"]]
        entries = [entry for v in (witnesses if kind == "witness" else
                                   [v for _, v in vectors]) for entry in v]
        assume(entries)
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        part = data.draw(st.integers(0, 2))
        entry[part] = data.draw(st.integers(-1, 11) if part == 0 else small_ints)
    elif kind == "weight":
        assume(vectors)
        vectors[data.draw(st.integers(0, len(vectors) - 1))][0] = data.draw(weight_pairs)
    elif kind in ("drop", "duplicate"):
        items = obj[data.draw(st.sampled_from(["trail", key] if key == "factor" else [key]))] or []
        assume(items)
        item = items[data.draw(st.integers(0, len(items) - 1))]
        if kind == "drop":
            items.remove(item)
        elif data.draw(st.booleans()):
            items.insert(data.draw(st.integers(0, len(items))), copy.deepcopy(item))
        else:
            items[data.draw(st.integers(0, len(items) - 1))] = copy.deepcopy(item)
    elif kind == "cancel":
        assume(vectors)
        _, v = vectors[data.draw(st.integers(0, len(vectors) - 1))]
        p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        at = data.draw(st.integers(0, len(vectors)))
        vectors[at:at] = [[[p, q], copy.deepcopy(v)], [[-p, q], copy.deepcopy(v)]]
    elif kind == "form":
        terms = obj["form"]["terms"]
        assume(terms)
        term = terms[data.draw(st.integers(0, len(terms) - 1))]
        term[data.draw(st.sampled_from([4, 5]))] = data.draw(small_ints)
    elif kind == "mode":
        obj["mode"] = "semi" if obj["mode"] == "strict" else "strict"
    else:
        obj[kind] = data.draw(st.integers(0, 10) if kind in ("d_max", "d") else
                              st.none() | st.integers(0, 10))


@settings(SETTINGS, max_examples=300)
@given(search=st.sampled_from(SEARCHES), kind=st.sampled_from(MUTATIONS), data=st.data())
def test_a_mutated_stabilization_is_rejected_or_still_proves_its_claim(search, kind, data):
    # The claim is d_min, the d after the trail's witness when there is a
    # factor: the least d <= d_max at which the mode's test passes, or none.  A mutation
    # either fails verify (exit 1 or 2) or leaves a report whose claim a
    # fresh search confirms; a stray d_min key is no part of the format.
    obj = json.loads(_emitted_stabilization(*search))
    _mutate(data, obj, kind)
    try:
        ok, _ = serialize.verify_obj(obj)
    except (ValueError, KeyError, TypeError):
        ok = False
    if ok:
        assert kind != "d_min"
        form = serialize.obj_to_form(obj["form"])
        assert find_minimal_d(form, obj["mode"], obj["d_max"]).d_min == serialize._d_min(obj)


# Emitted factor, decompose and check reports: factors at d = 0 (with its
# numeric rendering) and at the off-diagonal quartic's d_min 6, a failing one
# at d = 2, decompositions with complex coefficients and with a hollow 2x2
# pivot, and checks that fail: indefinite, hollow, and PSD but singular.
FACTOR_RUNS = [("factor", "-e", "z1*zb1 + 1/2*z1*zb2 + 1/2*z2*zb1 + 2*z2*zb2", "--numeric"),
               ("factor", "-e", OFF_DIAGONAL, "--d", "6"), ("factor", "-e", OFF_DIAGONAL, "--d", "2"),
               ("decompose", "-e", OFF_DIAGONAL), ("decompose", "-e", "z1*zb2 + z2*zb1 + z3*zb3"),
               ("check", "--mode", "semi", "-e", OFF_DIAGONAL),
               ("check", "--mode", "semi", "-e", "z1*zb2 + z2*zb1 + z3*zb3"),
               ("check", "--mode", "strict", "-e", "z1*zb1 + z1*zb2 + z2*zb1 + z2*zb2")]
FACTOR_MUTATIONS = ("witness", "weight", "vector", "drop", "duplicate", "cancel", "d", "form",
                    "command")
ARTIFACT_KEY = {"factor": "factor", "decompose": "decomposition", "check": "certificate",
                "symbol": "ellipticity"}


@functools.cache
def _emitted_report(argv: tuple[str, ...]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(list(argv)) in (0, 1, 3)
    return out.getvalue()


def _proven_verdicts(command: list[str], form) -> dict:
    """The verdicts of `factor --d d`, `decompose` or `check --mode` on the
    form, from a fresh elimination."""
    if command[0] == "factor":
        d = int(command[-1])
        matrix, _ = coefficient_matrix(reference_multiplier_power(form, d))
        pos, neg = ldl_signature(matrix).inertia
        return {"d": d, "factorable": neg == 0, "rows": pos * (neg == 0)}
    matrix, _ = coefficient_matrix(form)
    pos, neg = ldl_signature(matrix).inertia
    if command[0] == "decompose":
        return {"positive_rank": pos, "negative_rank": neg, "sum_of_squares": neg == 0}
    mode = command[command.index("--mode") + 1]
    return {"mode": mode, "passes": pos == matrix.size if mode == "strict" else neg == 0,
            "inertia": {"pos": pos, "neg": neg, "zero": matrix.size - pos - neg},
            "matrix_size": matrix.size, "bidegree": bidegree(form)}


def _read(command: list[str], result: dict):
    """What `verify` reads with a report's artifact for its verdicts and
    renderings: a factor's form, d, vectors and monomials of M_d, or a
    symbol's form and factor vectors."""
    artifact = result[ARTIFACT_KEY[command[0]]]
    if command[0] != "symbol":
        form, d, vectors, _ = serialize.obj_to_factor(artifact)
        return form, d, vectors, coefficient_basis(form, d)
    form = serialize.obj_to_form(artifact["form"], written=True)
    factor = (artifact["stabilization"] or {}).get("factor")
    return form, None if factor is None else serialize._obj_to_vectors(factor)


def _finish_forgery(report: dict) -> None:
    """Finish an edit of a report's artifact as a forger would: verdicts and
    renderings derived from the edited artifact where they can be, and the
    digest stamped again, so that only the evidence decides.  A stale digest
    or verdict is refused as well (test_verify_recomputes_the_digest)."""
    command, result = report["command"], report["result"]
    try:
        numeric = result.pop("numeric_factor", None)
        result.pop("operator_rows", None)
        read = _read(command, result)
        result.update(serialize.run_renderings(
            command, result, numeric and numeric["float_digits"], read))
        report["verdicts"] = serialize.run_verdicts(command, result, read)
    except (ValueError, KeyError, TypeError, IndexError):
        pass
    report["digest"] = serialize.digest_of_obj({k: v for k, v in report.items() if k != "digest"})


@settings(SETTINGS, max_examples=400)
@given(argv=st.sampled_from(FACTOR_RUNS), kind=st.sampled_from(FACTOR_MUTATIONS), data=st.data())
def test_a_mutated_factor_report_is_rejected_or_still_proves_its_claim(argv, kind, data):
    # The claim of `factor --d d` is that M_d, the coefficient matrix of
    # <z,w>^d F, is PSD of rank `rows`, or not PSD; that of `decompose` and
    # `check` is the inertia of M_0.  A mutation of the artifact, or of `--d`
    # or `--mode`, with the verdicts derived from it, either fails verify or
    # leaves a report whose claim a fresh elimination confirms.
    report = json.loads(_emitted_report(argv))
    name = report["command"][0]
    factor = report["result"][ARTIFACT_KEY[name]]
    if kind == "command":
        assume(name != "decompose")
        at = report["command"].index("--d" if name == "factor" else "--mode") + 1
        report["command"][at] = (str(data.draw(st.integers(0, 7))) if name == "factor" else
                                 data.draw(st.sampled_from(["semi", "strict"])))
    else:
        _mutate(data, factor, kind)
    _finish_forgery(report)
    try:
        ok, reason = serialize.verify_obj(report)
    except (ValueError, KeyError, TypeError):
        ok, reason = False, None
    assert reason != "digest does not match the report"
    if ok:
        form = serialize.obj_to_form(factor["form"], written=True)
        assert report["verdicts"] == _proven_verdicts(report["command"], form)


@st.composite
def psd_forms(draw):
    """A PSD form of one bidegree m <= 2: the gram of up to three rows with
    weights, n <= 2 variables and r <= 2 columns, each entry a polynomial of
    up to three terms of degree m (the zero form included)."""
    n, r, m = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    polys = st.dictionaries(st.sampled_from(enumerate_degree(n, m)), gaussians, max_size=3)
    rows = draw(st.lists(st.lists(polys, min_size=r, max_size=r), max_size=3))
    row_weights = draw(st.lists(weights, min_size=len(rows), max_size=len(rows)))
    return gram(holo_matrix(n, rows, row_weights or None, ncols=r))


@SETTINGS
@given(form=psd_forms(), d=st.integers(0, 2))
def test_emitted_factor_rows_pass_the_polynomial_row_check(form, d):
    # The rows that a factor artifact's vectors give on the basis of M_d,
    # written in the polynomial-row format that they replaced, with <z,w>^d F
    # as the target, pass that format's check: their gram is the target.
    text = serialize.canonical_json(serialize.form_to_obj(form))
    factor = json.loads(_emitted_report(("factor", "-e", text, "--d", str(d))))["result"]["factor"]
    read, d_read, vectors, _ = serialize.obj_to_factor(factor)
    rows = _factor_from_parts(vectors, coefficient_basis(read, d_read), read.r)
    target = reference_multiplier_power(form, d)
    written = reference_factor_to_obj(WeightedGramFactor(rows, target))
    assert reconstructs_target(reference_obj_to_factor(json.loads(json.dumps(written))))
    assert reference_gram(rows) == target


# Emitted symbol reports: certified in real variables, and in complex ones
# with complex coefficients (the off-diagonal quartic, at d = 6); certified
# on the negation of a negative symbol; not certified up to --dmax 0; and
# not elliptic by an exact zero and by a sign change.
SYMBOL_RUNS = [("symbol", "-e", "x1^2 + x2^2 + x3^2 + x4^2"), ("symbol", "-e", OFF_DIAGONAL),
               ("symbol", "-e", "-z1^2*zb1^2 - z2^2*zb2^2"),
               ("symbol", "-e", "z1^2*zb1^2 + z2^2*zb2^2", "--dmax", "0"),
               ("symbol", "-e", "z1*zb1", "--n", "2", "--dmax", "16"),
               ("symbol", "-e", "z1^2*zb1^2 - 3*z1*z2*zb1*zb2 + z2^2*zb2^2")]
SYMBOL_MUTATIONS = ("form", "witness", "witness_d", "weight", "vector", "drop", "duplicate", "mode",
                    "d_max", "point", "add_point", "null")


def _mutate_symbol(data, ellipticity: dict, kind: str) -> None:
    """Change one part of an ellipticity report: a coefficient of its form,
    one part of its stabilization's evidence as `_mutate` changes a
    stabilization report, a form or mode put in that evidence, an entry of a
    named point, a point put beside a stabilization, or the stabilization set
    to null."""
    stabilization = ellipticity["stabilization"]
    if kind == "point":
        change = ellipticity["sign_change"] or {}
        pairs = [pair for point in [ellipticity["witness_point"] or [], *change.values()]
                 for pair in point]
        assume(pairs)
        pairs[data.draw(st.integers(0, len(pairs) - 1))][data.draw(st.integers(0, 1))] = (
            data.draw(ratio_strings))
    elif kind == "null":
        assume(stabilization is not None)
        ellipticity["stabilization"] = None
    elif kind == "add_point":
        assume(stabilization is not None)
        point = [[data.draw(ratio_strings), data.draw(ratio_strings)]
                 for _ in range(ellipticity["form"]["n"])]
        if data.draw(st.booleans()):
            ellipticity["witness_point"] = point
        else:
            ellipticity["sign_change"] = {"positive_at": point, "negative_at": point[::-1]}
    elif kind == "form" and (stabilization is None or data.draw(st.booleans())):
        _mutate(data, ellipticity, kind)
    elif kind in ("form", "mode"):
        # A stabilization report's keys: the form searched and the mode,
        # either sign and either mode.
        assume(stabilization is not None)
        form = serialize.obj_to_form(ellipticity["form"], written=True)
        sign = data.draw(st.sampled_from([1, -1]))
        stabilization[kind] = (data.draw(st.sampled_from(MODES)) if kind == "mode" else
                               serialize.form_to_obj(scale(form, sign)))
    else:
        assume(stabilization is not None)
        _mutate(data, stabilization, kind)


def _sphere_value(form, pairs) -> GaussianRational:
    point = tuple(serialize.pair_to_gaussian(pair) for pair in pairs)
    assert sum(c.abs2() for c in point) == 1
    return evaluate_exact(form, point, point)[0][0]


@settings(SETTINGS, max_examples=400)
@given(argv=st.sampled_from(SYMBOL_RUNS), kind=st.sampled_from(SYMBOL_MUTATIONS), data=st.data())
def test_a_mutated_symbol_report_is_rejected_or_still_proves_its_claim(argv, kind, data):
    # The claim of `symbol` is about a scalar Hermitian symbol of one
    # bidegree: not elliptic by the exact values at the points it names, or
    # certified at d (not certified) by a strict search that a fresh search
    # confirms, on the symbol, or on its negation when the symbol is
    # negative at e_1.  A mutation, with the verdicts
    # and renderings derived from it, either fails verify or leaves such a
    # report.
    report = json.loads(_emitted_report(argv))
    ellipticity = report["result"]["ellipticity"]
    _mutate_symbol(data, ellipticity, kind)
    _finish_forgery(report)
    try:
        ok, reason = serialize.verify_obj(report)
    except (ValueError, KeyError, TypeError):
        ok, reason = False, None
    assert reason != "digest does not match the report"
    # A form or mode in the evidence is refused, whatever its value.
    assert not ok or (ellipticity["stabilization"] or {}).keys() <= {"d_max", "trail", "factor"}
    if not ok:
        return
    verdicts, stabilization = report["verdicts"], ellipticity["stabilization"]
    form = serialize.obj_to_form(ellipticity["form"], written=True)
    assert form.r == 1 and is_hermitian_symmetric(form) and bidegree(form) is not None
    assert (verdicts["order"], verdicts["complex_dim"]) == (2 * bidegree(form), form.n)
    if stabilization is None:
        point, change = ellipticity["witness_point"], ellipticity["sign_change"]
        assert verdicts["verdict"] == "not_elliptic" and (point or change)
        assert point is None or _sphere_value(form, point) == ZERO
        if change is not None:
            positive = _sphere_value(form, change["positive_at"])
            negative = _sphere_value(form, change["negative_at"])
            assert positive.im == negative.im == 0 and positive.re > 0 > negative.re
        return
    assert ellipticity["witness_point"] is None and ellipticity["sign_change"] is None
    e1 = (GaussianRational(Fraction(1)),) + (ZERO,) * (form.n - 1)
    searched = scale(form, -1) if evaluate_exact(form, e1, e1)[0][0].re < 0 else form
    d_min = find_minimal_d(searched, "strict", int(report["command"][-1])).d_min
    assert (verdicts["verdict"], verdicts["d"]) == (
        ("not_certified", None) if d_min is None else ("certified", d_min))
