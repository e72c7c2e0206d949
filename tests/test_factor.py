import random
from fractions import Fraction

import pytest

from hermfact import (
    bidegree,
    coefficient_matrix,
    difference_of_squares,
    evaluate_exact,
    gram,
    holomorphic_factor,
    ldl_signature,
    numeric_factor,
    parse_expression,
    scale,
    strict_holomorphic_factor,
)
from hermfact.symbols import sphere_sample_points

from helpers import (
    diagonal_quartic,
    euclidean_pairing,
    holo_matrix,
    is_positive_definite,
    kernel_multiply,
    numeric_reconstruction,
    quartic_family,
    rand_hermsym_form,
    rand_pd_form,
    rand_psd_form,
    reconstructs_target,
    square_difference,
    subtract,
)


def row_supports(factor):
    out = []
    for _, polys in factor.rows:
        support = set()
        for poly in polys:
            support |= set(poly)
        out.append(support)
    return out


def test_difference_of_squares_square_difference():
    positive, negative = difference_of_squares(square_difference())
    assert len(positive.matrix.rows) == 2
    assert len(negative.matrix.rows) == 1
    for support in row_supports(positive):
        assert support <= {(2, 0), (0, 2)}
    assert row_supports(negative) == [{(1, 1)}]
    assert subtract(positive.target, negative.target) == square_difference()
    assert reconstructs_target(positive) and reconstructs_target(negative)


def test_difference_of_squares_squared_pairing():
    pairing = euclidean_pairing(2)
    squared = kernel_multiply(pairing, pairing)
    positive, negative = difference_of_squares(squared)
    assert negative.matrix.rows == ()
    assert positive.target == squared


def test_difference_of_squares_indefinite_quartic():
    positive, negative = difference_of_squares(quartic_family(-1))
    assert len(positive.matrix.rows) == 2
    assert len(negative.matrix.rows) == 1


def test_difference_of_squares_requires_symmetry():
    with pytest.raises(ValueError):
        difference_of_squares(parse_expression("z1*zb2", n=2))


def test_difference_of_squares_random_reconstruction():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 3)
        form = rand_hermsym_form(rng, n, r, m)
        positive, negative = difference_of_squares(form)
        assert subtract(positive.target, negative.target) == form
        if bidegree(form) == m:
            for factor in (positive, negative):
                rows = factor.matrix.rows
                assert {sum(alpha) for row in rows for poly in row for alpha in poly} <= {m}


def test_difference_of_squares_generalized_mode():
    mixed = parse_expression("1 + z1*zb1 + z1^2*zb1^2")
    positive, negative = difference_of_squares(mixed)
    assert subtract(positive.target, negative.target) == mixed


def test_holomorphic_factor_examples():
    factor = holomorphic_factor(diagonal_quartic())
    assert factor is not None
    assert row_supports(factor) == [{(2, 0)}, {(0, 2)}]
    assert all(w == 1 for w, _ in factor.rows)
    assert gram(factor.matrix) == diagonal_quartic()

    assert holomorphic_factor(square_difference()) is None

    shifted = kernel_multiply(euclidean_pairing(2), quartic_family(-1))
    factor = holomorphic_factor(shifted)
    assert factor is not None
    assert row_supports(factor) == [{(3, 0)}, {(0, 3)}]


def test_strict_factor_examples():
    assert strict_holomorphic_factor(diagonal_quartic()) is None

    shifted = kernel_multiply(euclidean_pairing(2), diagonal_quartic())
    factor = strict_holomorphic_factor(shifted)
    assert factor is not None
    assert len(factor.matrix.rows) == 4
    assert row_supports(factor) == [{(3, 0)}, {(2, 1)}, {(1, 2)}, {(0, 3)}]

    # <z,w>^m times the identity kernel has a diagonal multinomial matrix
    pairing = euclidean_pairing(2)
    identity_kernel = parse_expression("[[1, 0],[0, 1]]", n=2)
    power = kernel_multiply(pairing, kernel_multiply(pairing, identity_kernel))
    factor = strict_holomorphic_factor(power)
    assert factor is not None
    assert len(factor.matrix.rows) == 2 * 3


def test_factor_requires_bidegree():
    mixed = parse_expression("1 + z1*zb1")
    with pytest.raises(ValueError):
        holomorphic_factor(mixed)
    with pytest.raises(ValueError):
        strict_holomorphic_factor(mixed)


def test_factor_round_trip_random_psd():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_psd_form(rng, n, m, r)
        factor = holomorphic_factor(form)
        assert factor is not None
        assert gram(factor.matrix) == form
        matrix, _ = coefficient_matrix(form)
        from hermfact import ldl_signature

        assert len(factor.matrix.rows) == ldl_signature(matrix).n_pos


def test_strict_factor_agrees_with_pd_test():
    rng = random.Random(127)
    for index in range(200):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        kind = index % 3
        if kind == 0:
            form = rand_pd_form(rng, n, m, r)
        elif kind == 1:
            form = rand_psd_form(rng, n, m, r)
        else:
            form = rand_hermsym_form(rng, n, r, m)
        factor = strict_holomorphic_factor(form)
        matrix, _ = coefficient_matrix(form)
        assert (factor is not None) == is_positive_definite(ldl_signature(matrix))
        if factor is not None:
            assert len(factor.matrix.rows) == matrix.size
            assert gram(factor.matrix) == form


def test_distinct_strict_factors_share_gram():
    rng = random.Random(131)
    a = rand_pd_form(rng, 2, 1, 1)
    factor = strict_holomorphic_factor(a)
    # any row permutation preserves the gram pairing
    permuted = holo_matrix(
        factor.matrix.n,
        list(reversed(factor.matrix.rows)),
        list(reversed(factor.matrix.weights)),
        ncols=factor.matrix.ncols,
    )
    assert gram(permuted) == gram(factor.matrix) == a


def test_numeric_factor_unit_weights():
    factor = holomorphic_factor(diagonal_quartic())
    numeric = numeric_factor(factor, 12)
    assert numeric.rows[0][0] == {(2, 0): (1 + 0j)}
    assert numeric.rows[1][0] == {(0, 2): (1 + 0j)}


def test_numeric_factor_square_root_weight():
    from hermfact import WeightedGramFactor

    matrix = holo_matrix(1, [[{(1,): 1}]], [Fraction(2)])
    factor = WeightedGramFactor(matrix, gram(matrix))
    numeric = numeric_factor(factor, 12)
    coeff = numeric.rows[0][0][(1,)]
    assert abs(coeff - 2**0.5) < 1e-11


def test_numeric_factor_reconstruction_on_sphere():
    form = quartic_family(2)
    factor = strict_holomorphic_factor(form)
    numeric = numeric_factor(factor, 12)
    points = [p for p in sphere_sample_points(2, extra=40, seed=3) if all(c.abs2() != 0 for c in p)][:20]
    assert len(points) == 20
    for point in points:
        exact = complex(evaluate_exact(form, point, point)[0][0])
        approx = numeric_reconstruction(numeric, [complex(c) for c in point])[0][0]
        scale_ref = max(abs(exact), 1e-30)
        assert abs(approx - exact) / scale_ref < 1e-8
