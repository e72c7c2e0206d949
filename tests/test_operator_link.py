import random
from fractions import Fraction

import pytest

from hermfact import (
    BihermitianForm,
    GaussianRational,
    coefficient_matrix,
    holomorphic_factor,
    multiplier_shift,
)
from hermfact.certify import ldl_signature
from hermfact.hermform import HermitianMatrix

from helpers import (
    diagonal_matrix,
    diagonal_quartic,
    euclidean_pairing,
    is_positive_definite,
    mat_adjoint,
    mat_mul,
    monomial_norm_reduced,
    operator_matrix,
    operator_positive,
    pairing_identity_check,
    quartic_family,
    rand_gauss,
    rand_hermsym_form,
    rand_pd_form,
    reproducing_check,
    square_difference,
)


def test_operator_matrix_euclidean_pairing():
    op = operator_matrix(euclidean_pairing(2), 1)
    assert op.weights == (Fraction(1, 3), Fraction(1, 3))
    assert op.matrix == diagonal_matrix([Fraction(1, 9), Fraction(1, 9)])


def test_operator_matrix_zero_form():
    zero = BihermitianForm.zero(2)
    op = operator_matrix(zero, 0)
    assert op.matrix == diagonal_matrix([0])


def test_operator_matrix_quartic():
    op = operator_matrix(quartic_family(2), 2)
    p20 = monomial_norm_reduced((2, 0))
    p11 = monomial_norm_reduced((1, 1))
    assert op.matrix == diagonal_matrix([p20 * p20, 2 * p11 * p11, p20 * p20])


def test_operator_matrix_validates_bidegree():
    with pytest.raises(ValueError):
        operator_matrix(quartic_family(1), 3)


def test_operator_positive_examples():
    shifted = multiplier_shift(diagonal_quartic())
    ok, _ = operator_positive(shifted, 3)
    assert ok
    ok, _ = operator_positive(quartic_family(-1), 2)
    assert not ok
    ok, cert = operator_positive(square_difference(), 2)
    assert not ok and cert.witness is not None


def test_proposition_equivalence_random():
    rng = random.Random(301)
    for _ in range(200):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 3)
        form = rand_hermsym_form(rng, n, r, m)
        d = m if form.support else 0
        matrix, _ = coefficient_matrix(form)
        pd_matrix = is_positive_definite(ldl_signature(matrix))
        pd_operator, _ = operator_positive(form, d)
        assert pd_matrix == pd_operator


def test_factored_forms_operator_positive_and_pairing():
    rng = random.Random(307)
    for _ in range(100):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_pd_form(rng, n, m, r)
        ok, _ = operator_positive(form, m)
        assert ok
        factor = holomorphic_factor(form)
        size = coefficient_matrix(form)[0].size
        h = [rand_gauss(rng, 3) for _ in range(size)]
        assert pairing_identity_check(factor, h)


def test_pairing_identity_euclidean_example():
    pairing = euclidean_pairing(2)
    factor = holomorphic_factor(pairing)
    op = operator_matrix(pairing, 1)
    h = [GaussianRational(1), GaussianRational(0)]
    lhs = GaussianRational()
    for u, hu in enumerate(h):
        for v, hv in enumerate(h):
            lhs = lhs + hu.conjugate() * op.matrix.at(u, v) * hv
    assert lhs == GaussianRational(Fraction(1, 9))
    assert pairing_identity_check(factor, h)


def test_pairing_identity_empty_factor():
    from hermfact import difference_of_squares

    zero = BihermitianForm.zero(2)
    positive, _ = difference_of_squares(zero)
    assert positive.matrix.rows == ()
    assert pairing_identity_check(positive, [GaussianRational(3, 2)])


def test_pairing_identity_random_h_on_quartic_factor():
    rng = random.Random(311)
    form = quartic_family(2)
    factor = holomorphic_factor(form)
    for _ in range(20):
        h = [rand_gauss(rng, 5) for _ in range(3)]
        assert pairing_identity_check(factor, h)


def test_weight_change_preserves_verdict():
    # replacing the norm weights by any positive diagonal is a congruence
    rng = random.Random(313)
    for _ in range(20):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_hermsym_form(rng, n, r, m)
        matrix, basis = coefficient_matrix(form)
        size = matrix.size
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
        rows = [
            [
                GaussianRational(weights[u]) * matrix.at(u, v) * GaussianRational(weights[v])
                for v in range(size)
            ]
            for u in range(size)
        ]
        scaled = HermitianMatrix.from_rows(rows)
        cert_a = ldl_signature(matrix)
        cert_b = ldl_signature(scaled)
        assert (cert_a.n_pos, cert_a.n_neg, cert_a.n_zero) == (
            cert_b.n_pos,
            cert_b.n_neg,
            cert_b.n_zero,
        )


def test_operator_is_weighted_congruence_of_coefficient_matrix():
    rng = random.Random(317)
    form = rand_hermsym_form(rng, 2, 2, 2)
    matrix, basis = coefficient_matrix(form)
    op = operator_matrix(form, 2)
    size = matrix.size
    dp = tuple(
        tuple(
            GaussianRational(op.weights[i]) if i == j else GaussianRational()
            for j in range(size)
        )
        for i in range(size)
    )
    product = mat_mul(mat_mul(dp, matrix.entries), mat_adjoint(dp))
    assert product == op.matrix.entries


def test_reproducing_check_examples_and_bounds():
    for k in range(6):
        assert reproducing_check(1, k)
    assert reproducing_check(2, 2)
    for n in range(1, 5):
        assert reproducing_check(n, 0)
    assert reproducing_check(4, 8)
