import random
from fractions import Fraction

import pytest

from hermfact import (
    GaussianRational,
    bidegree,
    certify_elliptic,
    certify_elliptic_form,
    coefficient_matrix,
    evaluate_exact,
    ldl_signature,
    parse_expression,
    parse_real_symbol,
    real_to_complex,
    scale,
    sphere_sample_points,
)
from hermfact.symbols import RealSymbol, _sphere_point, _stereographic

from helpers import (
    complex_to_real,
    diagonal_matrix,
    diagonal_quartic,
    euclidean_pairing,
    is_positive_definite,
    kernel_multiply,
    quartic_family,
    reference_rational_sphere_point,
    reference_sphere_sample_points,
    stabilization_factor,
    symbol_multiply,
)


def sphere_point(params):
    """The unit-sphere point of rational stereographic parameters, as the
    sphere sampling builds each of its points."""
    return _sphere_point(*_stereographic([(p.numerator, p.denominator) for p in params]))


def rand_symbol(rng, nvars, max_degree=3, terms=4):
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(alpha) > max_degree:
            continue
        out[alpha] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return RealSymbol.from_terms(nvars, out)


def test_laplace_symbol_converts_to_modulus_squared():
    symbol = parse_real_symbol("x1^2 + x2^2")
    assert real_to_complex(symbol) == parse_expression("z1*zb1")


def test_biharmonic_symbol_converts_to_norm_fourth():
    symbol = parse_real_symbol("(x1^2 + x2^2 + x3^2 + x4^2)^2")
    pairing = euclidean_pairing(2)
    assert real_to_complex(symbol) == kernel_multiply(pairing, pairing)


def test_indefinite_symbol_not_bihomogeneous():
    symbol = parse_real_symbol("x1^2 - x2^2")
    form = real_to_complex(symbol)
    assert form == parse_expression("1/2*z1^2 + 1/2*zb1^2")
    assert bidegree(form) is None


def test_real_to_complex_requires_even_variables():
    with pytest.raises(ValueError):
        real_to_complex(parse_real_symbol("x1^2 + x3^2"))


def test_complex_to_real_round_trips():
    for text in ["x1^2 + x2^2", "(x1^2 + x2^2 + x3^2 + x4^2)^2", "x1^2 - x2^2"]:
        symbol = parse_real_symbol(text)
        if symbol.nvars % 2:
            continue
        form = real_to_complex(symbol)
        assert complex_to_real(form) == symbol
        assert real_to_complex(complex_to_real(form)) == form
    quartic = complex_to_real(diagonal_quartic())
    assert quartic.nvars == 4
    assert quartic.order() == 4
    assert real_to_complex(quartic) == diagonal_quartic()
    zero = RealSymbol.from_terms(2, {})
    assert complex_to_real(real_to_complex(zero)) == zero


def test_complex_to_real_rejects_bad_inputs():
    with pytest.raises(ValueError):
        complex_to_real(parse_expression("[[z1*zb1, 0],[0, z1*zb1]]"))
    with pytest.raises(ValueError):
        complex_to_real(parse_expression("z1*zb2", n=2))


def test_is_complex_bihomogeneous_examples():
    # a scalar form is complex bihomogeneous exactly when it has a bidegree
    assert bidegree(parse_expression("z1*zb1")) == 1
    assert bidegree(parse_expression("1/2*z1^2 + 1/2*zb1^2")) is None
    assert bidegree(quartic_family(Fraction(-19, 10))) == 2


def test_conversion_is_ring_homomorphism():
    rng = random.Random(401)
    for _ in range(50):
        nvars = 2 * rng.randint(1, 2)
        p = rand_symbol(rng, nvars)
        q = rand_symbol(rng, nvars)
        lhs = real_to_complex(symbol_multiply(p, q))
        rhs = kernel_multiply(real_to_complex(p), real_to_complex(q))
        assert lhs == rhs


def test_pointwise_values_agree_exactly():
    rng = random.Random(409)
    for _ in range(20):
        nvars = 2 * rng.randint(1, 2)
        symbol = rand_symbol(rng, nvars)
        form = real_to_complex(symbol)
        xi = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
        direct = Fraction(0)
        for alpha, coeff in symbol.terms.items():
            term = coeff
            for x, a in zip(xi, alpha):
                term *= x**a
            direct += term
        z = [GaussianRational(xi[2 * k], xi[2 * k + 1]) for k in range(nvars // 2)]
        value = evaluate_exact(form, z, z)[0][0]
        assert value == GaussianRational(direct)


def test_rational_sphere_points_are_exactly_unit():
    rng = random.Random(419)
    for _ in range(30):
        n = rng.randint(1, 3)
        params = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2 * n - 1)]
        point = sphere_point(params)
        assert sum(c.abs2() for c in point) == 1
    for point in sphere_sample_points(2, extra=10)[:40]:
        assert sum(c.abs2() for c in point) == 1


def test_sphere_points_equal_reference():
    rng = random.Random(421)
    for _ in range(30):
        n = rng.randint(1, 3)
        params = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2 * n - 1)]
        assert sphere_point(params) == reference_rational_sphere_point(params)
    for n in range(1, 4):
        assert sphere_sample_points(n) == reference_sphere_sample_points(n)
    assert sphere_sample_points(2, extra=10, seed=3) == reference_sphere_sample_points(2, 10, 3)


def test_certify_elliptic_laplacian():
    report = certify_elliptic(parse_real_symbol("x1^2 + x2^2"), 16)
    assert report.verdict == "certified" and report.d == 0
    factor = stabilization_factor(report.stabilization)
    assert coefficient_matrix(factor.target)[0] == diagonal_matrix([1])
    # factor rows are the first-order d/dz operators with unit weights
    assert [w for w, _ in factor.rows] == [Fraction(1)]

    report = certify_elliptic(parse_real_symbol("x1^2 + x2^2 + x3^2 + x4^2"), 16)
    assert report.verdict == "certified" and report.d == 0
    factor = stabilization_factor(report.stabilization)
    assert coefficient_matrix(factor.target)[0] == diagonal_matrix([1, 1])
    supports = [{alpha for poly in row for alpha in poly} for _, row in factor.rows]
    assert supports == [{(1, 0)}, {(0, 1)}]
    assert all(w == 1 for w, _ in factor.rows)


def test_certify_elliptic_biharmonic():
    report = certify_elliptic(parse_real_symbol("(x1^2 + x2^2 + x3^2 + x4^2)^2"), 16)
    assert report.verdict == "certified" and report.d == 0


def test_certify_elliptic_quartic_complex_form():
    report = certify_elliptic_form(diagonal_quartic(), 16)
    assert report.verdict == "certified" and report.d == 1
    factor = stabilization_factor(report.stabilization)
    assert len(factor.matrix.rows) == 4
    degrees = {sum(alpha) for _, row in factor.rows for poly in row for alpha in poly}
    assert degrees == {3}


def test_certify_elliptic_degenerate_symbol():
    form = parse_expression("z1*zb1", n=2)
    report = certify_elliptic_form(form, 16)
    assert report.verdict == "not_elliptic"
    assert report.witness_point is not None
    value = evaluate_exact(form, report.witness_point, report.witness_point)[0][0]
    assert value.is_zero()
    assert sum(c.abs2() for c in report.witness_point) == 1


def test_certify_elliptic_negative_definite_symbol():
    report = certify_elliptic(parse_real_symbol("-x1^2 - x2^2"), 16)
    assert report.verdict == "certified"
    assert report.stabilization.form == scale(report.form, -1)


def test_certify_elliptic_sign_change():
    # x1^4 - x2^4 is bihomogeneous? its complex form is circle-variant, so use
    # a bihomogeneous indefinite instance instead: |z1|^4 - |z2|^4
    form = parse_expression("z1^2*zb1^2 - z2^2*zb2^2")
    report = certify_elliptic_form(form, 8)
    assert report.verdict == "not_elliptic"
    assert report.witness_point is not None or report.sign_pair is not None
    # the ladder below c = -2 changes sign: the pair holds the two points only
    report = certify_elliptic_form(quartic_family(-3), 8)
    assert report.witness_point is None and report.stabilization is None
    pos, neg = report.sign_pair
    assert evaluate_exact(report.form, pos, pos)[0][0].re > 0
    assert evaluate_exact(report.form, neg, neg)[0][0].re < 0
    assert sum(c.abs2() for c in pos) == sum(c.abs2() for c in neg) == 1


def test_sign_flipped_follows_the_stabilization_form():
    report = certify_elliptic_form(diagonal_quartic(), 8)
    assert report.stabilization.form == report.form
    report = certify_elliptic(parse_real_symbol("-x1^2 - x2^2"), 16)
    assert report.stabilization.form == scale(report.form, -1)


def test_certify_elliptic_rejects_bad_symbols():
    with pytest.raises(ValueError):
        certify_elliptic(parse_real_symbol("x1^2 + x2"), 4)  # inhomogeneous
    with pytest.raises(ValueError):
        certify_elliptic(parse_real_symbol("x1^3 + x2^3"), 4)  # odd order
    with pytest.raises(ValueError):
        certify_elliptic(parse_real_symbol("x1^2 + x2^2 + x3^2"), 4)  # odd vars
    with pytest.raises(ValueError):
        certify_elliptic(parse_real_symbol("x1^2 - x2^2"), 4)  # not bihomogeneous


def test_certified_monotone_under_further_shifts():
    from hermfact import multiplier_shift

    report = certify_elliptic_form(diagonal_quartic(), 8)
    assert report.verdict == "certified"
    shifted = diagonal_quartic()
    for _ in range(report.d):
        shifted = multiplier_shift(shifted)
    for _ in range(2):
        shifted = multiplier_shift(shifted)
        matrix, _ = coefficient_matrix(shifted)
        assert is_positive_definite(ldl_signature(matrix))


def test_certified_matrix_matches_strict_factor_existence():
    from hermfact import multiplier_power, strict_holomorphic_factor

    for form, d_max in [(diagonal_quartic(), 4), (quartic_family(-1), 6)]:
        report = certify_elliptic_form(form, d_max)
        assert report.verdict == "certified"
        shifted = multiplier_power(form, report.d)
        matrix, _ = coefficient_matrix(shifted)
        factor = strict_holomorphic_factor(shifted)
        assert is_positive_definite(ldl_signature(matrix)) and factor is not None
        target = stabilization_factor(report.stabilization).target
        assert coefficient_matrix(target)[0] == matrix
