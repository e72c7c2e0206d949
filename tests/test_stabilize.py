import random
from fractions import Fraction

import pytest

from hermfact import (
    BihermitianForm,
    GaussianRational,
    HermitianMatrix,
    coefficient_matrix,
    euclidean_pairing,
    find_minimal_d,
    is_positive_definite,
    is_positive_semidefinite,
    multiplier_power,
    multiplier_shift,
    parse_expression,
    stabilization_sweep,
)
from hermfact import stabilize
from hermfact.scalars import GaussianRow
from hermfact.stabilize import exponent_steps

from helpers import (
    oracle_diagonal_shift_entries,
    oracle_quartic_dmin,
    oracle_quartic_entries,
    quadratic_value,
    quartic_family,
    rand_hermsym_form,
    rand_pd_form,
    rand_psd_form,
    reference_find_minimal_d,
    square_difference,
)


def diag_of(form):
    matrix, _ = coefficient_matrix(form, mode="bidegree")
    return matrix


def test_multiplier_shift_examples():
    shifted = multiplier_shift(quartic_family(-1))
    assert diag_of(shifted) == HermitianMatrix.diagonal([1, 0, 0, 1])

    one = parse_expression("1", n=2)
    assert multiplier_shift(one) == euclidean_pairing(2)

    shifted = multiplier_shift(quartic_family(0))
    assert diag_of(shifted) == HermitianMatrix.diagonal([1, 1, 1, 1])


def test_multiplier_power_examples():
    form = quartic_family(Fraction(1, 3))
    assert multiplier_power(form, 0) == form

    one = parse_expression("1", n=2)
    assert diag_of(multiplier_power(one, 2)) == HermitianMatrix.diagonal([1, 2, 1])

    powered = multiplier_power(quartic_family(-1), 3)
    assert diag_of(powered) == HermitianMatrix.diagonal([1, 2, 1, 1, 2, 1])


def test_multiplier_requires_bidegree():
    mixed = parse_expression("1 + z1*zb1")
    with pytest.raises(ValueError):
        multiplier_shift(mixed)
    with pytest.raises(ValueError):
        multiplier_power(mixed, 2)
    with pytest.raises(ValueError):
        multiplier_power(quartic_family(1), -1)


def test_power_equals_iterated_shift():
    rng = random.Random(201)
    for _ in range(12):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_hermsym_form(rng, n, r, m)
        for d in range(0, 7):
            iterated = form
            for _ in range(d):
                iterated = multiplier_shift(iterated)
            assert multiplier_power(form, d) == iterated


def test_diagonal_scalar_shift_oracle():
    # independent closed-form convolution for diagonal scalar kernels on C^2
    rng = random.Random(211)
    for _ in range(20):
        m = rng.randint(0, 3)
        coeffs = {}
        for a in range(m + 1):
            value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if value:
                coeffs[(a, m - a)] = value
        if not coeffs:
            coeffs[(m, 0)] = Fraction(1)
        form = BihermitianForm.from_terms(
            2,
            1,
            {(0, 0, (a, b), (a, b)): GaussianRational(c) for (a, b), c in coeffs.items()},
        )
        d = rng.randint(0, 5)
        shifted = multiplier_power(form, d)
        expected = oracle_diagonal_shift_entries(coeffs, d)
        matrix, basis = coefficient_matrix(shifted, mode="bidegree")
        # stays diagonal
        for u in range(matrix.size):
            for v in range(matrix.size):
                if u != v:
                    assert matrix.at(u, v).is_zero()
        values = [matrix.at(k, k) for k in range(matrix.size)]
        assert values == [GaussianRational(e) for e in expected]


def test_find_minimal_d_examples():
    assert find_minimal_d(quartic_family(2), "strict", 5).d_min == 0
    assert find_minimal_d(quartic_family(-1), "semi", 5).d_min == 1
    assert find_minimal_d(quartic_family(-1), "strict", 5).d_min == 3
    report = find_minimal_d(square_difference(), "semi", 12)
    assert report.d_min is None
    assert len(report.steps) == 13
    assert all(not step.passes for step in report.steps)
    assert all(quadratic_value(rows.matrix(), step.witness).re < 0
               for step, rows in zip(report.steps, exponent_steps(square_difference())))


def test_find_minimal_d_matches_oracle_for_family():
    for c in [Fraction(2), Fraction(0), Fraction(-1), Fraction(-3, 2)]:
        expected = oracle_quartic_dmin(c, "strict")
        report = find_minimal_d(quartic_family(c), "strict", expected + 2)
        assert report.d_min == expected
        expected_semi = oracle_quartic_dmin(c, "semi")
        report = find_minimal_d(quartic_family(c), "semi", expected_semi + 2)
        assert report.d_min == expected_semi


def test_find_minimal_d_report_invariants():
    report = find_minimal_d(quartic_family(-1), "strict", 5)
    assert report.steps[report.d_min].passes
    assert not report.steps[report.d_min - 1].passes
    assert report.factor is not None
    assert len(report.factor.matrix.rows) == report.steps[-1].size


def test_find_minimal_d_validates_input():
    with pytest.raises(ValueError):
        find_minimal_d(quartic_family(1), "superstrict", 3)
    with pytest.raises(ValueError):
        find_minimal_d(parse_expression("z1*zb2", n=2), "strict", 3)
    with pytest.raises(ValueError):
        find_minimal_d(parse_expression("1 + z1*zb1"), "strict", 3)


def test_monotonicity_strict_and_semi():
    rng = random.Random(223)
    strict_checked = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_pd_form(rng, n, m, r)
        shifted = multiplier_shift(form)
        ok1, _ = is_positive_definite(diag_of(shifted))
        shifted2 = multiplier_shift(shifted)
        ok2, _ = is_positive_definite(diag_of(shifted2))
        assert ok1 and ok2
        strict_checked += 1
    assert strict_checked == 100
    for _ in range(100):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_psd_form(rng, n, m, r)
        shifted = multiplier_shift(form)
        ok1, _ = is_positive_semidefinite(diag_of(shifted))
        shifted2 = multiplier_shift(shifted)
        ok2, _ = is_positive_semidefinite(diag_of(shifted2))
        assert ok1 and ok2


def test_failing_q3_steps_stop_at_their_first_pivot(monkeypatch):
    # Q3 fails the strict test at every d; from d = 1 on, the first pivot of
    # M_d is already negative, so its witness is a unit vector and the
    # elimination stops before any row operation.
    form = parse_expression(
        "z1^2*zb1^2 + z2^2*zb2^2 + z3^2*zb3^2 - z1*z2*zb1*zb2 - z2*z3*zb2*zb3"
        " - z1*z3*zb1*zb3 + 1/2*z1^2*zb2^2 + 1/2*z2^2*zb1^2")
    calls = [0]
    add_scaled = GaussianRow.add_scaled

    def counted(self, *args):
        calls[0] += 1
        add_scaled(self, *args)

    per_step = []
    mode_evidence = stabilize.mode_evidence

    def evidence(matrix, strict):
        before = calls[0]
        out = mode_evidence(matrix, strict)
        per_step.append(calls[0] - before)
        return out

    monkeypatch.setattr(GaussianRow, "add_scaled", counted)
    monkeypatch.setattr(stabilize, "mode_evidence", evidence)
    report = find_minimal_d(form, "strict", 12)
    monkeypatch.undo()
    assert report == reference_find_minimal_d(form, "strict", 12)
    assert report.d_min is None and len(per_step) == 13
    assert per_step[1:] == [0] * 12
    for step in report.steps[1:]:
        assert len(step.witness.entries) == 1 and step.witness.entries[0][1:] == (1, 0)
        assert step.witness.den == 1


def test_sweep_family_ladder():
    family = [(str(c), quartic_family(c)) for c in (2, 0, -1)]
    rows = stabilization_sweep(family, "strict", 5)
    assert [row.label for row in rows] == ["2", "0", "-1"]
    assert [row.report.d_min for row in rows] == [0, 1, 3]


def test_sweep_empty_and_errors():
    assert stabilization_sweep([], "strict", 3) == []
    family = [
        ("good", quartic_family(2)),
        ("mixed", parse_expression("1 + z1*zb1")),
        ("bad", parse_expression("z1*zb2", n=2)),
    ]
    rows = stabilization_sweep(family, "strict", 3)
    assert rows[0].report.d_min == 0 and rows[0].error is None
    assert rows[1].report is None and "bidegree" in rows[1].error
    assert rows[2].report is None and rows[2].error is not None


def test_shifted_diag_matches_binomial_oracle():
    for c in (Fraction(2), Fraction(-1), Fraction(-19, 10)):
        for d in (0, 1, 4):
            shifted = multiplier_power(quartic_family(c), d)
            matrix, _ = coefficient_matrix(shifted, mode="bidegree")
            expected = oracle_quartic_entries(c, d)
            assert [matrix.at(k, k) for k in range(matrix.size)] == [
                GaussianRational(e) for e in expected
            ]
