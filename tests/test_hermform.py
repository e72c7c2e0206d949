import json
import random
from fractions import Fraction

import pytest

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HermitianMatrix,
    bidegree,
    coefficient_matrix,
    enumerate_degree,
    evaluate_exact,
    from_coefficient_matrix,
    gram,
    is_hermitian_symmetric,
    ldl_signature,
    parse_expression,
    scale,
    serialize,
)
from hermfact.hermform import checked_bidegree, coefficient_basis
from hermfact.stabilize import power_matrix

from helpers import (
    add,
    combined_pairs,
    diagonal_matrix,
    diagonal_quartic,
    euclidean_pairing,
    holo_matrix,
    is_positive_semidefinite,
    kernel_multiply,
    quartic_family,
    rand_gauss,
    rand_hermsym_form,
    rand_holo_matrix,
    rand_rational_point,
    square_difference,
    subtract,
)


def test_hermitian_symmetry_examples():
    assert is_hermitian_symmetric(diagonal_quartic())
    single = parse_expression("z1*zb2", n=2)
    assert not is_hermitian_symmetric(single)
    pair = parse_expression("z1*zb2 + z2*zb1")
    assert is_hermitian_symmetric(pair)


def test_bidegree_examples():
    assert bidegree(quartic_family(Fraction(1, 2))) == 2
    mixed = parse_expression("z1*zb1 + z1^2*zb1^2")
    assert bidegree(mixed) is None
    constant = parse_expression("1", n=1)
    assert bidegree(constant) == 0


def test_evaluate_examples():
    fc = quartic_family(3)
    assert evaluate_exact(fc, (1, 0), (1, 0))[0][0] == GaussianRational(1)
    eq5 = square_difference()
    for t in (Fraction(3, 10), Fraction(1), Fraction(-5, 2)):
        assert evaluate_exact(eq5, (t, t), (t, t))[0][0].is_zero()
    assert evaluate_exact(fc, (0, 0), (0, 0))[0][0].is_zero()


def float_evaluate(form, z, w):
    """F(z, wbar) in complex floats, term by term from the form's support."""
    out = [[0j] * form.r for _ in range(form.r)]
    for (i, j, alpha, beta), (x, y) in form.support.items():
        term = complex(x / form.den, y / form.den)
        for zk, a in zip(z, alpha):
            term *= zk**a
        for wk, b in zip(w, beta):
            term *= (wk**b).conjugate()
        out[i][j] += term
    return out


def test_evaluate_exact_matches_float():
    rng = random.Random(5)
    form = rand_hermsym_form(rng, 2, 2, 2)
    z = rand_rational_point(rng, 2)
    w = rand_rational_point(rng, 2)
    exact = evaluate_exact(form, z, w)
    approx = float_evaluate(form, [complex(c) for c in z], [complex(c) for c in w])
    for i in range(2):
        for j in range(2):
            assert abs(complex(exact[i][j]) - approx[i][j]) < 1e-9


def test_gram_examples():
    column = holo_matrix(2, [[{(2, 0): 1}], [{(0, 2): 1}]])
    assert gram(column) == diagonal_quartic()
    unit_row = holo_matrix(1, [[{(0,): 1}]])
    assert gram(unit_row) == parse_expression("1")
    pairing_rows = holo_matrix(2, [[{(1, 0): 1}], [{(0, 1): 1}]])
    assert gram(pairing_rows) == euclidean_pairing(2)


def test_coefficient_matrix_examples():
    for c in (Fraction(2), Fraction(0), Fraction(-7, 3)):
        matrix, monomials = coefficient_matrix(quartic_family(c))
        assert monomials == enumerate_degree(2, 2)
        assert matrix == diagonal_matrix([1, GaussianRational(c), 1])
    matrix, _ = coefficient_matrix(square_difference())
    assert matrix == diagonal_matrix([1, -2, 1])
    pairing = euclidean_pairing(2)
    squared = kernel_multiply(pairing, pairing)
    matrix, _ = coefficient_matrix(squared)
    assert matrix == diagonal_matrix([1, 2, 1])


def test_coefficient_matrix_rejects_asymmetric():
    # One message per failed condition, naming the form: symmetry is checked
    # first, of mixed degrees too, at every d.
    for text in ("z1*zb2", "z1*zb2 + z1^2*zb1^2"):
        form = parse_expression(text, n=2)
        for check in (checked_bidegree, coefficient_matrix, lambda f: coefficient_basis(f, 1),
                      lambda f: power_matrix(f, 1)):
            with pytest.raises(ValueError, match="^form is not Hermitian-symmetric$"):
                check(form)


def test_coefficient_matrix_of_mixed_degrees():
    # At d = 0 a form of mixed degrees has its own basis; past 0 it has none.
    mixed = parse_expression("z1*zb1 + z1^2*zb1^2")
    for check in (checked_bidegree, lambda f: coefficient_basis(f, 1),
                  lambda f: power_matrix(f, 1)):
        with pytest.raises(ValueError, match="^form has mixed bidegrees$"):
            check(mixed)
    matrix, monomials = coefficient_matrix(mixed)
    assert monomials == coefficient_basis(mixed, 0) == power_matrix(mixed, 0)[1]
    assert bidegree(mixed) is None
    # the basis runs over all monomials of degree <= 2 in one variable
    assert monomials == ((0,), (1,), (2,))
    assert matrix.at(1, 1) == GaussianRational(1)
    assert matrix.at(2, 2) == GaussianRational(1)
    assert matrix.at(0, 0) == GaussianRational(0)


def test_coefficient_basis_refuses_past_the_size_bound():
    # The size is counted in closed form before the basis is enumerated: r *
    # C(n+m-1, m) for one bidegree, r * C(n+cap, cap) for mixed degrees up to cap.
    assert len(coefficient_basis(parse_expression("z1*zb1", n=1024))) == 1024
    with pytest.raises(ValueError, match="at d=0 has 1025 rows, more than the 1024 allowed"):
        coefficient_basis(parse_expression("z1*zb1", n=1025))
    with pytest.raises(ValueError, match="at d=0 has 100000 rows"):
        coefficient_matrix(parse_expression("z100000*zb100000"))
    assert len(coefficient_basis(parse_expression("z1*zb1 + 1", n=1023))) == 1024
    with pytest.raises(ValueError, match="at d=0 has 1025 rows"):
        coefficient_basis(parse_expression("z1*zb1 + 1", n=1024))
    with pytest.raises(ValueError, match="at d=0 has 3000000 rows"):
        coefficient_matrix(BihermitianForm.zero(1, 3000000))


def test_no_fraction_is_built_from_reading_a_form_to_its_matrix(monkeypatch):
    # A form is read, as text or as JSON, into Gaussian-integer numerators
    # over one denominator, and M_0 and M_d are built from those: no Fraction,
    # and so no GaussianRational, is built for its coefficients on the way.
    text = ("z1^2*zb1^2 - 1/2*z1*z2*zb1*zb2 + (1/3+1/4*i)*z1^2*zb2^2"
            " + (1/3-1/4*i)*z2^2*zb1^2 + z2^2*zb2^2")
    obj = json.loads(json.dumps(serialize.form_to_obj(parse_expression(text))))
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for form in (parse_expression(text), serialize.obj_to_form(obj, written=True)):
        coefficient_matrix(form)
        power_matrix(form, 2)
    monkeypatch.undo()
    assert built == []


def test_from_coefficient_matrix_examples():
    identity = diagonal_matrix([1, 1])
    assert from_coefficient_matrix(identity, 2, 1, 1) == euclidean_pairing(2)
    c = Fraction(5, 7)
    diag = diagonal_matrix([1, GaussianRational(c), 1])
    assert from_coefficient_matrix(diag, 2, 2, 1) == quartic_family(c)
    zero = diagonal_matrix([0, 0, 0])
    assert from_coefficient_matrix(zero, 2, 2, 1) == BihermitianForm.zero(2)
    with pytest.raises(ValueError):
        from_coefficient_matrix(identity, 2, 2, 1)


def test_coefficient_round_trip_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 3)
        form = rand_hermsym_form(rng, n, r, m)
        matrix, _ = coefficient_matrix(form)
        assert from_coefficient_matrix(matrix, n, m, r) == form


def test_kernel_multiply_examples():
    pairing = euclidean_pairing(2)
    squared = kernel_multiply(pairing, pairing)
    assert squared.coefficient(0, 0, (1, 1), (1, 1)) == GaussianRational(2)
    one = parse_expression("1", n=2)
    form = quartic_family(-1)
    assert kernel_multiply(one, form) == form
    shifted = kernel_multiply(pairing, diagonal_quartic())
    matrix, _ = coefficient_matrix(shifted)
    assert matrix == diagonal_matrix([1, 1, 1, 1])


def test_kernel_multiply_shape_errors():
    two_by_two = parse_expression("[[z1*zb1, 0],[0, z2*zb2]]")
    with pytest.raises(ValueError):
        kernel_multiply(two_by_two, two_by_two)
    other_dim = euclidean_pairing(3)
    with pytest.raises(ValueError):
        kernel_multiply(other_dim, euclidean_pairing(2))


def test_add_scale_subtract():
    f = quartic_family(1)
    g = quartic_family(-3)
    assert add(f, scale(g, -1)) == subtract(f, g)
    assert bidegree(add(f, g)) == 2
    assert scale(f, 0) == BihermitianForm.zero(2)


def test_gram_coefficient_duality_random():
    # coefficient_matrix(gram(A)) equals the weighted gram pairing of A's
    # coefficient rows, computed longhand -- hence PSD.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        s = rng.randint(1, 5)
        a = rand_holo_matrix(rng, n, m, s, r, weighted=bool(rng.getrandbits(1)))
        form = gram(a)
        matrix, monomials = coefficient_matrix(form)
        pairs = combined_pairs(n, r, m)
        assert [(j // len(monomials), monomials[j % len(monomials)])
                for j in range(matrix.size)] == pairs
        weights = a.weights or tuple(Fraction(1) for _ in a.rows)
        for u, (i, alpha) in enumerate(pairs):
            for v, (j, beta) in enumerate(pairs):
                expected = GaussianRational()
                for k, row in enumerate(a.rows):
                    cu = row[i].get(alpha)
                    cv = row[j].get(beta)
                    if cu is None or cv is None:
                        continue
                    expected = expected + GaussianRational(weights[k]) * cu * cv.conjugate()
                assert matrix.at(u, v) == expected
        assert is_positive_semidefinite(ldl_signature(matrix))


def test_evaluate_consistency_with_quadratic_form():
    # t* F(z, zbar) t equals H* M H with H_(i,alpha) = t_i * conj(z^alpha)
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(1, 2)
        form = rand_hermsym_form(rng, n, r, m)
        matrix, monomials = coefficient_matrix(form)
        z = rand_rational_point(rng, n, height=3)
        t = [rand_gauss(rng, 3) for _ in range(r)]
        h = []
        for j in range(matrix.size):
            i, alpha = j // len(monomials), monomials[j % len(monomials)]
            mono = GaussianRational(Fraction(1))
            for zk, a in zip(z, alpha):
                mono = mono * zk**a
            h.append(t[i] * mono.conjugate())
        quad = GaussianRational()
        for u, hu in enumerate(h):
            for v, hv in enumerate(h):
                quad = quad + hu.conjugate() * matrix.at(u, v) * hv
        value = evaluate_exact(form, z, z)
        direct = GaussianRational()
        for i in range(r):
            for j in range(r):
                direct = direct + t[i].conjugate() * value[i][j] * t[j]
        assert quad == direct


def test_hermitian_symmetric_forms_evaluate_hermitian():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_hermsym_form(rng, n, r, m, terms=4)
        z = rand_rational_point(rng, n, height=4)
        value = evaluate_exact(form, z, z)
        for i in range(r):
            for j in range(r):
                assert value[i][j] == value[j][i].conjugate()
        if r == 1:
            assert value[0][0].im == 0


@pytest.mark.parametrize("rows, defect", [
    ([[1, 2], [1]], "matrix must be square"),
    # (1, 0) and (2, 1) differ from their partners and (2, 2) is not real:
    # the first in row-major order is named
    ([[1, 2, 0], [3, 1, 5], [0, 0, GaussianRational(1, 1)]],
     "entries (1,0) and (0,1) are not conjugate"),
    # a nonzero above the diagonal whose partner is 0, beside a later defect
    ([[1, 0, 7], [0, 1, 0], [0, 0, GaussianRational(0, 1)]],
     "entries (2,0) and (0,2) are not conjugate"),
    ([[1, 0], [0, GaussianRational(2, -1)]], "diagonal entry 1 is not real"),
])
def test_from_rows_names_the_first_defect(rows, defect):
    with pytest.raises(ValueError) as info:
        HermitianMatrix.from_rows(rows)
    assert str(info.value) == defect
