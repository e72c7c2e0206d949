"""Property tests over small random kernels (Hypothesis, derandomized so every
run draws the same examples)."""

import copy
import dataclasses
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HermitianMatrix,
    HoloPolyMatrix,
    bidegree,
    coefficient_matrix,
    enumerate_degree,
    evaluate_exact,
    find_minimal_d,
    format_form,
    from_coefficient_matrix,
    gram,
    ldl_signature,
    multiplier_power,
    multiplier_shift,
    parse_expression,
    parse_real_symbol,
)
from hermfact import serialize
from hermfact.certify import mode_evidence
from hermfact.scalars import ZERO
from hermfact.stabilize import exponent_steps
from hermfact.symbols import RealSymbol, _sample_symbol, complex_to_real, real_to_complex

from helpers import (
    parse_outcome,
    quadratic_value,
    quartic_family,
    reference_certificate_obj,
    reference_coefficient_matrix,
    reference_evaluate_exact,
    reference_find_minimal_d,
    reference_fraction_to_str,
    reference_gram,
    reference_integer_ldl_signature,
    reference_layout,
    reference_matrix_obj,
    reference_multiplier_power,
    reference_obj_to_entries,
    reference_parse_expression,
    reference_parse_real_symbol,
    reference_real_to_complex,
    reference_sample_symbol,
    reference_weighted_vectors,
    square_difference,
)

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


def _reference_points(form):
    zero, pos, neg = reference_sample_symbol(form)
    return zero, pos and pos[0], neg and neg[0]


@SETTINGS
@given(form=symbol_forms())
def test_sample_symbol_picks_the_reference_points(form):
    assert _sample_symbol(form) == _reference_points(form)


def test_sample_symbol_finds_zeros_and_sign_changes():
    # An exact zero on an axis; a semidefinite form whose zeros, on
    # |z1| = |z2|, no sample point meets; a sign change; and a definite form.
    cases = [(parse_expression("z1*zb1", n=2), (True, True, False)),
             (square_difference(), (False, True, False)),
             (quartic_family(-3), (False, True, True)),
             (quartic_family(1), (False, True, False))]
    for form, found in cases:
        points = _sample_symbol(form)
        assert points == _reference_points(form)
        assert tuple(p is not None for p in points) == found


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
    for d, rows in zip(range(5), exponent_steps(form)):
        shifted = reference_multiplier_power(form, d)
        assert (rows.matrix(), rows.basis) == coefficient_matrix(shifted, mode="bidegree")
        assert rows.form() == shifted
        assert multiplier_power(form, d) == shifted


def test_exponent_loop_keeps_a_cancelled_term_out_of_the_form():
    # <z,w> (|z1|^2 - |z2|^2) = |z1|^4 - |z2|^4: the z1 z2 wbar1 wbar2 terms cancel.
    form = parse_expression("z1*zb1 - z2*zb2")
    steps = exponent_steps(form)
    next(steps)
    rows = next(steps)
    assert rows.form() == parse_expression("z1^2*zb1^2 - z2^2*zb2^2") == multiplier_shift(form)
    assert rows.matrix() == coefficient_matrix(rows.form(), mode="bidegree")[0]


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
    pairs = cert.weighted_vectors()
    assert ([(w, v.dense(matrix.size)) for w, v in pairs]
            == reference_weighted_vectors(reference_layout(cert)))
    for _, v in pairs:
        indices = [j for j, _, _ in v.entries]
        assert indices == sorted(set(indices)) and v.den > 0
        assert all(x or y for _, x, y in v.entries)


def test_weighted_vectors_of_a_hollow_block():
    cert = ldl_signature(HermitianMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert cert.blocks
    assert ([(w, v.dense(3)) for w, v in cert.weighted_vectors()]
            == reference_weighted_vectors(reference_layout(cert)))


# Variables of a kernel, a holomorphic matrix and a real symbol; a text draws
# from one family and now and then from all of them, z0 included.
FAMILIES = (("z1", "z2", "zb1", "zb2"), ("z1", "z2", "z3"), ("x1", "x2", "x3"))
STRAYS = ("z1", "zb3", "x1", "z0", "zb10")


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
            (lambda t: parse_expression(t, want="holo"),
             lambda t: reference_parse_expression(t, want="holo")),
            (parse_real_symbol, reference_parse_real_symbol),
        ]:
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
    assert serialize.str_to_fraction(text) == Fraction(text)


@pytest.mark.parametrize("value", ["1/0", "+1/0", "0/0", "-5/000", "1/", "", "a", None,
                                   float("inf")])
def test_rational_reader_rejects_zero_denominators_and_non_rationals(value):
    with pytest.raises(ValueError):
        serialize.read_ratio(value)


@SETTINGS
@given(x=st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
def test_fraction_writer_equals_reference(x):
    assert serialize.fraction_to_str(x) == reference_fraction_to_str(x)


def _spelled_over_double(text: str) -> str:
    p, q = serialize.read_ratio(text)
    return f"{2 * p}/{2 * q}"


@SETTINGS
@given(matrix=hermitian_matrices())
def test_certificate_matrix_writer_equals_reference_and_reads_back(matrix):
    cert = ldl_signature(matrix)
    obj = serialize.certificate_to_obj(cert)
    assert obj["matrix"] == reference_matrix_obj(matrix)
    assert serialize.obj_to_certificate(obj) == cert
    # The reader brings a row of non-canonical spellings back to lowest terms.
    obj["matrix"] = [[[_spelled_over_double(x) for x in pair] for pair in row]
                     for row in obj["matrix"]]
    assert serialize.obj_to_certificate(obj) == cert


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
    want = reference_integer_ldl_signature(matrix)
    cert = ldl_signature(matrix)
    strict = ldl_signature(matrix, strict=True)
    assert cert.verify() == strict.verify() == (True, "ok")
    cert, strict = reference_layout(cert), reference_layout(strict)
    for ours in (cert, strict):
        assert (ours.permutation, ours.lower, ours.diag, ours.blocks) == (
            want.permutation, want.lower, want.diag, want.blocks)
    assert cert.witness == want.witness
    if want.n_neg:
        assert strict.witness == want.witness
    if want.is_positive_definite():
        assert strict.witness is None
    else:
        value = quadratic_value(matrix, strict.witness)
        assert any(strict.witness) and value.im == 0 and value.re <= 0


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
@given(matrix=evidence_matrices())
def test_mode_evidence_is_the_certificates_witness_or_weighted_vectors(matrix):
    for strict in (False, True):
        cert = ldl_signature(matrix, strict=strict)
        evidence = mode_evidence(matrix, strict)
        if cert.witness is None:
            assert evidence == cert.weighted_vectors()
        else:
            assert evidence == cert.witness


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


@SETTINGS
@given(form=stabilization_forms(), strict=st.booleans())
def test_find_minimal_d_equals_the_full_elimination_search_on_drawn_forms(form, strict):
    mode = "strict" if strict else "semi"
    assert find_minimal_d(form, mode, 4) == reference_find_minimal_d(form, mode, 4)


def _respelled(obj: dict) -> dict:
    """A certificate object with every part of its diag, lower, blocks and
    witness written over a doubled denominator, or as "-0" when it is 0, and
    a ["0", "0"] entry inserted in each column of L that has a free index."""
    def respell(text: str) -> str:
        p, q = serialize.read_ratio(text)
        return f"{2 * p}/{2 * q}" if p else "-0"

    def entries(items):
        return [[j, respell(re), respell(im)] for j, re, im in items]

    lower = []
    for k, column in enumerate(obj["lower"]):
        taken = {j for j, _, _ in column}
        free = [j for j in range(k + 1, obj["size"]) if j not in taken]
        lower.append(sorted(entries(column) + [[j, "0", "0"] for j in free[:1]]))
    return {**obj, "lower": lower, "diag": [respell(d) for d in obj["diag"]],
            "blocks": entries(obj["blocks"]),
            "witness": None if obj["witness"] is None else entries(obj["witness"])}


@SETTINGS
@given(matrix=hermitian_matrices() | gram_matrices(), strict=st.booleans())
def test_certificate_codec_equals_reference_and_reads_respellings(matrix, strict):
    cert = ldl_signature(matrix, strict=strict)
    obj = serialize.certificate_to_obj(cert)
    assert obj == reference_certificate_obj(reference_layout(cert))
    read = serialize.obj_to_certificate(obj)
    assert reference_layout(read).lower == tuple(map(reference_obj_to_entries, obj["lower"]))
    assert read.blocks == reference_obj_to_entries(obj["blocks"])
    # The wire does not carry `strict`; the rest reads back exactly, and a
    # re-spelled copy reads back to the same certificate.
    assert dataclasses.replace(read, strict=strict) == cert
    respelled = _respelled(obj)
    assert respelled != obj
    assert serialize.obj_to_certificate(respelled) == read
    assert dataclasses.replace(read, strict=strict).verify() == (True, "ok")
    if not strict:
        assert serialize.verify_obj(obj) == serialize.verify_obj(respelled) == (True, "ok")


@st.composite
def real_symbols(draw):
    """A real symbol in 2, 4 or 6 variables with at most four terms, each
    exponent at most 3 (so mixed degrees and odd orders occur too)."""
    nvars = 2 * draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return RealSymbol.from_terms(nvars, draw(st.lists(st.tuples(exponents, fractions), max_size=4)))


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
MUTATIONS = ("witness", "weight", "vector", "drop", "duplicate", "d_min", "d_max", "mode")
ratio_strings = st.builds(lambda p, q: serialize.fraction_to_str(Fraction(p, q)),
                          st.integers(-3, 3), st.integers(1, 3))


@functools.cache
def _emitted_stabilization(text: str, mode: str, d_max: int) -> str:
    return serialize.canonical_json(
        serialize.stabilization_to_obj(find_minimal_d(parse_expression(text), mode, d_max)))


def _mutate(data, obj: dict, kind: str) -> None:
    """Change one part of `obj`: a trail witness entry, a factor weight or
    vector entry, one trail step or factor vector dropped or duplicated (in
    place of another or beside it), or d_min, d_max or mode."""
    vectors = obj["factor"] or []
    if kind in ("witness", "vector"):
        entries = [entry for v in (obj["trail"] if kind == "witness" else
                                   [v for _, v in vectors]) for entry in v]
        assume(entries)
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        part = data.draw(st.integers(0, 2))
        entry[part] = data.draw(st.integers(-1, 11) if part == 0 else ratio_strings)
    elif kind == "weight":
        assume(vectors)
        vectors[data.draw(st.integers(0, len(vectors) - 1))][0] = data.draw(ratio_strings)
    elif kind in ("drop", "duplicate"):
        items = obj[data.draw(st.sampled_from(["trail", "factor"]))] or []
        assume(items)
        item = items[data.draw(st.integers(0, len(items) - 1))]
        if kind == "drop":
            items.remove(item)
        elif data.draw(st.booleans()):
            items.insert(data.draw(st.integers(0, len(items))), copy.deepcopy(item))
        else:
            items[data.draw(st.integers(0, len(items) - 1))] = copy.deepcopy(item)
    elif kind == "mode":
        obj["mode"] = "semi" if obj["mode"] == "strict" else "strict"
    else:
        obj[kind] = data.draw(st.integers(0, 10) if kind == "d_max" else
                              st.none() | st.integers(0, 10))


@settings(SETTINGS, max_examples=300)
@given(search=st.sampled_from(SEARCHES), kind=st.sampled_from(MUTATIONS), data=st.data())
def test_a_mutated_stabilization_is_rejected_or_still_proves_its_claim(search, kind, data):
    # The claim is d_min: the least d <= d_max at which the mode's test
    # passes, or none.  A mutation either fails verify (exit 1 or 2) or
    # leaves a report whose claim a fresh search confirms.
    obj = json.loads(_emitted_stabilization(*search))
    _mutate(data, obj, kind)
    try:
        ok, _ = serialize.verify_obj(obj)
    except (ValueError, KeyError, TypeError):
        ok = False
    if ok:
        form = serialize.obj_to_form(obj["form"])
        assert find_minimal_d(form, obj["mode"], obj["d_max"]).d_min == obj["d_min"]
