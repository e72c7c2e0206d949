import importlib
import inspect
import json
import pkgutil
import random
import typing
from fractions import Fraction

import pytest

import hermfact

from hermfact import (
    HermitianMatrix,
    certify_elliptic_form,
    coefficient_matrix,
    difference_of_squares,
    find_minimal_d,
    from_coefficient_matrix,
    holomorphic_factor,
    ldl_signature,
    multiplier_power,
    parse_expression,
    scale,
)
from hermfact import serialize
from hermfact.certify import independence_failure
from hermfact.factor import _factor_from_parts
from hermfact.hermform import coefficient_basis
from hermfact.scalars import SparseRow
from hermfact.symbols import searched_form

from helpers import (
    diagonal_matrix,
    diagonal_quartic,
    evidence,
    is_positive_semidefinite,
    quadratic_value,
    quartic_family,
    rand_hermitian_matrix,
    rand_hermsym_form,
    rand_psd_form,
    reference_ellipticity_to_obj,
    reference_exponent_steps,
    reference_factor_to_obj,
    reference_form_obj,
    reference_stabilization_to_obj,
    reference_string_entries_obj,
    reference_string_form_obj,
    reference_string_vectors_obj,
)


def test_fraction_strings():
    assert serialize.fraction_to_str(Fraction(3, 1)) == "3"
    assert serialize.fraction_to_str(Fraction(-7, 4)) == "-7/4"
    assert Fraction(*serialize.read_ratio("-7/4")) == Fraction(-7, 4)
    big = Fraction(10**40 + 1, 10**39)
    assert Fraction(*serialize.read_ratio(serialize.fraction_to_str(big))) == big


def test_form_round_trip():
    rng = random.Random(501)
    for _ in range(20):
        form = rand_hermsym_form(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2))
        obj = serialize.form_to_obj(form)
        assert serialize.obj_to_form(json.loads(json.dumps(obj))) == form


def test_form_json_uses_one_based_indices():
    obj = serialize.form_to_obj(diagonal_quartic())
    assert {term[0] for term in obj["terms"]} == {1}
    assert obj["terms"][0][4] == 1 and obj["den"] == 1


def test_form_reader_takes_rows_and_input_objects():
    # A term is the row [i, j, alpha, beta, re, im]; input files spell it as
    # an object with those keys, or as a row of string rationals, in both
    # triangles, which an artifact's form, integers over den, may not.
    form = quartic_family(Fraction(-3, 2))
    rows, objects = reference_string_form_obj(form), reference_form_obj(form)
    assert rows["terms"] == [[term[f] for f in serialize.TERM_FIELDS] for term in objects["terms"]]
    assert serialize.obj_to_form(rows) == serialize.obj_to_form(objects) == form
    written = serialize.form_to_obj(form)
    assert serialize.obj_to_form(written, written=True) == serialize.obj_to_form(written) == form
    for spelling in (rows, objects):
        with pytest.raises(ValueError, match="not in the current certificate format: a kernel "
                                             "must have exactly the keys"):
            serialize.obj_to_form(spelling, written=True)


def _certificate(form):
    """The certificate of M_0, which `check`, `factor` and `decompose` write."""
    return ldl_signature(coefficient_matrix(form)[0])


def test_factor_round_trip():
    form = diagonal_quartic()
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    assert obj.keys() == {"kind", "form", "d", "vectors", "witness"}
    read, d, vectors, witness = serialize.obj_to_factor(json.loads(json.dumps(obj)))
    assert (read, d, vectors, witness) == (form, 0, _certificate(form).vectors, None)
    # The rows on the basis of M_0 are those of holomorphic_factor.
    basis = coefficient_basis(form)
    assert _factor_from_parts(vectors, basis, form.r) == holomorphic_factor(form).matrix
    ok, reason = serialize.verify_obj(obj)
    assert ok, reason


def _matrix_form(matrix: HermitianMatrix):
    """The constant r-by-r form, r = size, whose coefficient matrix is `matrix`."""
    return from_coefficient_matrix(matrix, 1, 0, matrix.size)


def test_certificate_round_trip_and_verify():
    rng = random.Random(503)
    for _ in range(10):
        matrix = rand_hermitian_matrix(rng, rng.randint(1, 6), 9)
        cert = ldl_signature(matrix)
        obj = serialize.factor_to_obj(_matrix_form(matrix), 0, *evidence(cert))
        restored = serialize.obj_to_certificate(json.loads(json.dumps(obj)))
        assert restored == (cert.vectors, cert.witness)
        ok, reason = serialize.verify_obj(obj)
        assert ok, reason


def test_verify_rejects_tampered_certificate():
    matrix = rand_hermitian_matrix(random.Random(5), 4, 7)
    obj = serialize.factor_to_obj(_matrix_form(matrix), 0, *evidence(ldl_signature(matrix)))

    tampered = json.loads(json.dumps(obj))
    tampered["vectors"][0][0] = [999, 1]
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "congruence" in reason

    # Change the last entry of the first vector so the identity no longer holds.
    tampered = json.loads(json.dumps(obj))
    entry = tampered["vectors"][0][1][-1]
    entry[1] += 1
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "congruence" in reason

    # The zero vector is written [], and a zero entry not at all.
    assert obj["witness"]
    tampered = json.loads(json.dumps(obj))
    tampered["witness"] = []
    assert serialize.verify_obj(tampered) == (False, "witness value is not negative")
    tampered["witness"] = [[j, 0, 0] for j, _, _ in obj["witness"]]
    with pytest.raises(ValueError, match="a vector or witness entry is zero"):
        serialize.verify_obj(tampered)
    tampered["witness"] = None
    reason = "witness is not present exactly when a weight is negative"
    assert serialize.verify_obj(tampered) == (False, reason)


def test_verify_rejects_tampered_factor():
    form = rand_psd_form(random.Random(9), 2, 1, 1)
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    tampered = json.loads(json.dumps(obj))
    tampered["vectors"][0][0] = [17, 5]
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and reason.startswith("factor: congruence identity fails at")


def _gain_monomial_of_another_degree(obj):
    # Index 2 is past the 2 linear monomials of M_0.
    obj["vectors"][0][1].append([2, 1, 0])


def _rewrite_row_coefficient(obj):
    obj["vectors"][0][1][0][1] += 1


def _drop_target_term(obj):
    # The embedded form is the claim a factor proves, as the target was.
    obj["form"]["terms"].pop()


def _raise_d(obj):
    obj["d"] += 1


@pytest.mark.parametrize(
    "forge, reason",
    [(_gain_monomial_of_another_degree, "factor index out of range"),
     (_rewrite_row_coefficient, "factor: congruence identity fails at"),
     (_drop_target_term, "factor: congruence identity fails at"),
     (_raise_d, "factor: congruence identity fails at")],
    ids=["_gain_monomial_of_another_degree", "_rewrite_row_coefficient", "_drop_target_term",
         "_raise_d"],
)
def test_verify_rejects_forged_factor(forge, reason):
    # A factor of a bidegree-1 form: its rows are linear.
    form = rand_psd_form(random.Random(9), 2, 1, 1)
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    assert serialize.verify_obj(obj) == (True, "ok")
    forge(obj)
    ok, why = serialize.verify_obj(obj)
    assert not ok and why.startswith(reason)


def test_stabilization_report_round_trip_verify():
    report = find_minimal_d(quartic_family(-1), "strict", 5)
    obj = serialize.stabilization_to_obj(report)
    ok, reason = serialize.verify_obj(json.loads(json.dumps(obj)))
    assert ok, reason

    # The trail is the witness of d_min - 1 alone: one that the rebuilt
    # matrix does not fail proves nothing.  Entry (0, 0) of <z,w>^2 F is 1 > 0.
    assert [d for d, _ in obj["trail"]] == [2]
    tampered = json.loads(json.dumps(obj))
    tampered["trail"][0][1] = [[0, 1, 0]]
    ok, reason = serialize.verify_obj(tampered)
    assert (ok, reason) == (False, "trail d=2: witness value is positive")

    # d_min is the d after the witness's, and the report stores no copy of it.
    assert serialize._d_min(obj) == report.d_min == 3
    tampered = json.loads(json.dumps(obj))
    tampered["d_min"] = 3
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(tampered)


FORGERY_FORM = "z1^2*zb1^2 - 3/2*z1*z2*zb1*zb2 + z2^2*zb2^2"


@pytest.fixture(scope="module")
def forgery_report():
    report = find_minimal_d(parse_expression(FORGERY_FORM), "strict", 12)
    assert report.d_min == 7
    obj = serialize.stabilization_to_obj(report)
    assert serialize.verify_obj(obj) == (True, "ok")
    return obj


def test_stabilization_witness_moved_to_d_zero_is_rejected(forgery_report):
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0][0] = 0
    # The witness of M_6 is checked against the matrix of F itself, which
    # has no index 4.
    assert serialize.verify_obj(forged) == (False, "trail d=0: witness index out of range")


@pytest.mark.parametrize("d, reason", [
    # M_5 = diag(1, 7/2, 7/2, 0, 0, 7/2, 7/2, 1) has e_4 as a null vector
    # too, so the witness holds at d = 5; but the factor, whose d is now 6,
    # holds the vectors of the 10x10 M_7, which do not fit the 9x9 M_6.
    (5, "factor index out of range"),
    # M_7 is PD: no witness exists there; entry (4, 4) is 7/2.
    (7, "trail d=7: witness value is positive")])
def test_stabilization_witness_moved_by_one_is_rejected(forgery_report, d, reason):
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0][0] = d
    assert serialize.verify_obj(forged) == (False, reason)


def test_stabilization_factor_left_at_its_d_is_rejected(forgery_report):
    # A true witness of M_5 in place of the d = 6 one moves the factor's d to
    # 6; the vectors, of the 10x10 M_7, do not fit the 9x9 M_6.
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"] = [_witness_at(5, "strict")]
    assert forged["trail"][0][0] == 5
    assert serialize.verify_obj(forged) == (False, "factor index out of range")


def test_inconclusive_witness_not_at_the_last_d_is_rejected(forgery_report):
    # Without a factor, the witness claims that no d up to d_max passes: it
    # must be at d_max, the last d that the search built.
    forged = json.loads(json.dumps(forgery_report))
    forged["factor"] = None
    reason = "without a factor the witness must be at the last searched d=12"
    assert serialize.verify_obj(forged) == (False, reason)
    forged["trail"] = []
    assert serialize.verify_obj(forged) == (False, reason)


def test_stabilization_trail_of_one_witness_per_step_is_a_format_error(forgery_report):
    # The trail before it held one witness: a bare witness per failing d.
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"] = [[[1, "1", "0"]], [[2, "1", "0"]]]
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(forged)
    forged["trail"] = [[[1, "1", "0"]]]
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(forged)


def test_stabilization_d_max_below_d_min_is_rejected(forgery_report):
    forged = json.loads(json.dumps(forgery_report))
    forged["d_max"] = 0
    assert serialize.verify_obj(forged) == (False, "factor runs past d_max")


def test_stabilization_step_carries_no_inertia_copy(forgery_report):
    # The trail stores one witness, as [d, nonzero entries [j, re, im]]; its
    # matrix, size and inertia follow from the embedded form and d, and the
    # passing d has no witness: the factor proves it.
    assert set(forgery_report) == {"kind", "mode", "d_max", "form", "trail", "factor"}
    [[d, entries]] = forgery_report["trail"]
    assert d + 1 == serialize._d_min(forgery_report) == 7
    assert entries and all(type(j) is int and re != "0" for j, re, im in entries)


def test_stabilization_trail_certificate_of_another_matrix_is_rejected(forgery_report):
    # The witness of diag(-1, 1, 1), e_0, in place of the d = 6 witness e_4:
    # entry (0, 0) of M_6 is 1.
    cert = ldl_signature(diagonal_matrix([-1, 1, 1]))
    assert cert.verify() == (True, "ok")
    other = serialize.certificate_to_obj(*evidence(cert))
    assert forgery_report["trail"][0] == [6, [[4, 1, 0]]]
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0][1] = other["witness"]
    assert serialize.verify_obj(forged) == (False, "trail d=6: witness value is positive")


def test_strict_steps_on_singular_matrices_carry_null_vectors():
    # <z,w>^d F is PSD but singular at d = 5 and 6: each step's witness is a
    # nonzero null vector, and the report verifies.
    form = parse_expression(FORGERY_FORM)
    report = find_minimal_d(form, "strict", 12)
    for d, (step, (matrix, _)) in enumerate(zip(report.steps, reference_exponent_steps(form))):
        if d in (5, 6):
            # on a PSD matrix, v^adj M v = 0 exactly when M v = 0
            assert is_positive_semidefinite(ldl_signature(matrix))
            assert step.witness.entries
            assert quadratic_value(matrix, step.witness).is_zero()
    assert all(step.witness is not None for step in report.steps[:-1])
    obj = serialize.stabilization_to_obj(report)
    assert [step.witness for step in report.steps[5:7]] == [
        SparseRow(((3, 1, 0),)), SparseRow(((4, 1, 0),))]
    # the report keeps the last one alone
    assert obj["trail"] == [[6, [[4, 1, 0]]]]
    assert serialize.verify_obj(obj) == (True, "ok")


VALUE_ZERO = [[0, 2, 0], [1, 2, 0], [2, 1, 1]]


def _set_step(step):
    def forge(obj):
        obj["trail"][0][1] = step
    return forge


@pytest.mark.parametrize(
    "mode, forge, reason",
    [
        ("strict", _set_step([]), "trail d=0: witness is zero"),
        # a zero entry is not written: the zero vector is []
        ("strict", _set_step([[1, 0, 0]]), ValueError),
        ("semi", _set_step([]), "trail d=0: witness value is not negative"),
        # 4 - 6 + 2 = 0 at d = 0: a witness of value 0 proves only that F
        # is not PD.
        ("semi", _set_step(VALUE_ZERO), "trail d=0: witness value is not negative"),
        ("strict", _set_step(VALUE_ZERO), None),
        ("semi", _set_step([[0, 1, 0]]), "trail d=0: witness value is not negative"),
        ("strict", _set_step([[0, 1, 0]]), "trail d=0: witness value is positive"),
        ("strict", _set_step([[3, 1, 0]]), "trail d=0: witness index out of range"),
        ("semi", _set_step([[-1, 1, 0]]), "trail d=0: witness index out of range"),
    ],
    ids=["strict_empty", "strict_zero", "semi_empty", "semi_value_zero", "strict_value_zero",
         "semi_positive",
         "strict_positive", "index_past_size", "negative_index"],
)
def test_trail_witness_that_proves_nothing_is_rejected(mode, forge, reason):
    # A search up to d = 0: its witness is at d = 0.
    obj = serialize.stabilization_to_obj(find_minimal_d(parse_expression(FORGERY_FORM), mode, 0))
    assert serialize.verify_obj(obj) == (True, "ok")
    forge(obj)
    if reason is ValueError:
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.verify_obj(obj)
        return
    assert serialize.verify_obj(obj) == ((True, "ok") if reason is None else (False, reason))


def test_strict_factor_must_span(forgery_report):
    # The factor is the weighted vectors of the PD certificate at d_min, the
    # columns of P^T L: one per basis index, triangular in their order.
    reason = "factor rows do not span the coefficient space"
    vectors = forgery_report["factor"]
    forged = json.loads(json.dumps(forgery_report))
    del forged["factor"][3]
    assert serialize.verify_obj(forged) == (False, reason)
    forged = json.loads(json.dumps(forgery_report))
    forged["factor"][3] = vectors[4]
    assert serialize.verify_obj(forged) == (False, "factor vectors are not independent")
    # The semi factor at d = 5 gives <z,w>^5 F, but M_5 is singular, so its
    # vectors do not span: a strict search cannot stop there.  The semi
    # witness at d = 4, of negative value, proves the strict test fails too.
    semi = serialize.stabilization_to_obj(
        find_minimal_d(parse_expression(FORGERY_FORM), "semi", 12))
    assert semi["trail"][0][0] == 4
    forged = json.loads(json.dumps(forgery_report))
    forged.update(trail=semi["trail"], factor=semi["factor"])
    assert serialize.verify_obj(forged) == (False, reason)
    forged["mode"] = "semi"
    assert serialize.verify_obj(forged) == (True, "ok")


def _factor_at(d: int, mode: str) -> list:
    """The factor of <z,w>^d F for FORGERY_FORM, from a search on that shift
    that passes at once: the vectors on the basis of M_d."""
    report = find_minimal_d(multiplier_power(parse_expression(FORGERY_FORM), d), mode, 0)
    assert report.d_min == 0
    return serialize.stabilization_to_obj(report)["factor"]


def _witness_at(d: int, mode: str) -> list:
    """The trail record [d, entries] of FORGERY_FORM at a failing d, from a
    search that stops there."""
    [record] = serialize.stabilization_to_obj(
        find_minimal_d(parse_expression(FORGERY_FORM), mode, d))["trail"]
    assert record[0] == d
    return record


def _set_weight(weight):
    def forge(obj):
        obj["factor"][0][0] = weight
    return forge


def _index_past_size(obj):
    # M_7 is 10x10: index 10 is one past its last
    obj["factor"][-1][1].append([10, 1, 0])


def _entry_changed(obj):
    # its real part alone would leave content 1 only where it is not 1 or -1
    obj["factor"][2][1][0][2] += 1


def _vectors_of_d_min_below(obj):
    # M_6 is PSD but singular: its semi vectors are one short of spanning
    obj.update(trail=[_witness_at(5, "strict")], factor=_factor_at(6, "semi"))


def _vectors_of_d_min_above(obj):
    # M_7 passes, so no witness proves it fails; this one is e_0, of value 1
    obj.update(trail=[[7, [[0, 1, 0]]]], factor=_factor_at(8, "strict"))


def _vectors_of_d_min_above_with_the_trail_as_it_is(obj):
    # The witness's d makes the factor one of M_7, which is 10x10.
    obj["factor"] = _factor_at(8, "strict")


@pytest.mark.parametrize(
    "forge, reason",
    [
        (_set_weight([0, 1]), "factor weight is not positive"),
        (_set_weight([-1, 1]), "factor weight is not positive"),
        (_index_past_size, "factor index out of range"),
        (_entry_changed, "factor: congruence identity fails at (3,3)"),
        (_vectors_of_d_min_below, "factor rows do not span the coefficient space"),
        (_vectors_of_d_min_above, "trail d=7: witness value is positive"),
        (_vectors_of_d_min_above_with_the_trail_as_it_is, "factor index out of range"),
    ],
    ids=["weight_zero", "weight_negative", "index_past_size", "entry_changed",
         "vectors_of_d_min_below", "vectors_of_d_min_above",
         "vectors_of_d_min_above_short_trail"],
)
def test_forged_stabilization_factor_is_rejected(forgery_report, forge, reason):
    forged = json.loads(json.dumps(forgery_report))
    forge(forged)
    assert serialize.verify_obj(forged) == (False, reason)


def test_stabilization_factor_of_another_form_is_rejected(forgery_report):
    # 2F has the same d_min and the same basis, and its factor verifies in its
    # own report, but its vectors do not give <z,w>^7 F.
    twice = serialize.stabilization_to_obj(
        find_minimal_d(scale(parse_expression(FORGERY_FORM), 2), "strict", 12))
    assert serialize._d_min(twice) == 7 and serialize.verify_obj(twice) == (True, "ok")
    forged = json.loads(json.dumps(forgery_report))
    forged["factor"] = twice["factor"]
    ok, reason = serialize.verify_obj(forged)
    assert not ok and reason.startswith("factor: congruence identity fails at")
    # Without a factor, the witness claims that no d up to d_max passes.
    forged["factor"] = None
    assert serialize.verify_obj(forged) == (
        False, "without a factor the witness must be at the last searched d=12")
    # A weighted_gram_factor, the format before the factor was its vectors.
    other = holomorphic_factor(parse_expression("z1*zb1 + z2*zb2"))
    forged["factor"] = reference_factor_to_obj(other)
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(forged)


def test_ellipticity_report_serialization():
    report = certify_elliptic_form(diagonal_quartic(), 4)
    obj = serialize.ellipticity_to_obj(report)
    ok, reason = serialize.verify_obj(json.loads(json.dumps(obj)))
    assert ok, reason
    assert serialize._symbol_verdict(obj)[:2] == (report.verdict, report.d) == ("certified", 1)


def test_artifact_key_sets():
    form = parse_expression("z1*zb1 - z2*zb2")
    factor = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    assert set(factor) == {"kind", "form", "d", "vectors", "witness"}
    report = serialize.ellipticity_to_obj(certify_elliptic_form(diagonal_quartic(), 4))
    assert set(report) == {"kind", "form", "witness_point", "sign_change", "stabilization"}
    # The search's evidence alone: its form, the symbol's, and mode, strict,
    # are read off the report.
    assert set(report["stabilization"]) == {"d_max", "trail", "factor"}
    # The diagonal quartic is PSD but singular at d = 0 and PD at d = 1: the
    # trail is the d = 0 null vector.
    assert report["stabilization"]["trail"] == [[0, [[1, 1, 0]]]]


def _ellipticity_obj(expr, n=None, d_max=4):
    report = certify_elliptic_form(parse_expression(expr, n=n), d_max)
    obj = json.loads(json.dumps(serialize.ellipticity_to_obj(report)))
    assert serialize.verify_obj(obj) == (True, "ok")
    return obj


def test_not_elliptic_witness_point_is_evaluated():
    # z1*zb1 on C^2 vanishes at (0, 1); the point (3, 5) is off the sphere and
    # (1, 0) is on it where the symbol is 1.
    obj = _ellipticity_obj("z1*zb1", n=2)
    assert obj["stabilization"] is None and obj["witness_point"] == [["0", "0"], ["1", "0"]]
    reason = "witness point is not a zero of the symbol on the unit sphere"
    for point in ([["3", "0"], ["5", "0"]], [["1", "0"], ["0", "0"]]):
        forged = json.loads(json.dumps(obj))
        forged["witness_point"] = point
        assert serialize.verify_obj(forged) == (False, reason)
    forged = json.loads(json.dumps(obj))
    forged["witness_point"] = None
    assert serialize.verify_obj(forged) == (False, "not_elliptic report names no point")


def test_not_elliptic_sign_change_is_evaluated():
    obj = _ellipticity_obj("z1^2*zb1^2 - 3*z1*z2*zb1*zb2 + z2^2*zb2^2")
    change = obj["sign_change"]
    assert obj["stabilization"] is None and change
    reason = "sign-change points do not have opposite signs on the unit sphere"
    forged = json.loads(json.dumps(obj))
    forged["sign_change"] = {"positive_at": change["negative_at"], "negative_at": change["positive_at"]}
    assert serialize.verify_obj(forged) == (False, reason)
    forged["sign_change"] = {"positive_at": change["positive_at"], "negative_at": [["1", "0"], ["1", "0"]]}
    assert serialize.verify_obj(forged) == (False, reason)


def test_certified_ellipticity_is_bound_to_its_form():
    # The search ran on -form, and the report stores neither that form nor a
    # flag for it: the sign is read off the symbol's coefficient of
    # |z1|^(2m), so a stabilization of the other sign, or of another form,
    # proves nothing about this one.
    obj = _ellipticity_obj("-z1^2*zb1^2 - z2^2*zb2^2")
    form = serialize.obj_to_form(obj["form"])
    assert serialize._symbol_verdict(obj)[:2] == ("certified", 1)
    assert set(obj["stabilization"]) == {"d_max", "trail", "factor"}
    assert searched_form(form) == scale(form, -1)
    forged = json.loads(json.dumps(obj))
    forged["sign_flipped"] = False
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(forged)
    # A nested kind, mode or form, as a stabilization report has, is no part
    # of the evidence, whatever its value.
    for key, value in (("kind", "stabilization_report"), ("mode", "strict"), ("mode", "semi"),
                       ("form", serialize.form_to_obj(scale(form, -1))), ("form", obj["form"])):
        forged = json.loads(json.dumps(obj))
        forged["stabilization"][key] = value
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.verify_obj(forged)
    # Twice the form is elliptic as well, but the factor is of -form, not
    # of -2 form.
    forged = json.loads(json.dumps(obj))
    forged["form"] = serialize.form_to_obj(scale(form, 2))
    assert serialize.verify_obj(forged) == (
        False, "stabilization: factor: congruence identity fails at (0,0)")
    other = _ellipticity_obj("z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2")
    forged = json.loads(json.dumps(obj))
    forged["stabilization"] = other["stabilization"]
    assert serialize.verify_obj(forged) == (
        False, "stabilization: trail d=2: witness value is positive")
    # A symbol certified at the same d does not lend its stabilization either.
    other = _ellipticity_obj("z1^2*zb1^2 + 3*z2^2*zb2^2")
    assert serialize._symbol_verdict(other)[:2] == ("certified", 1)
    forged = json.loads(json.dumps(obj))
    forged["stabilization"] = other["stabilization"]
    assert serialize.verify_obj(forged) == (
        False, "stabilization: factor: congruence identity fails at (2,2)")
    # The verdict and d follow from the stabilization; a stored copy is no
    # part of the format, and points beside a stabilization prove nothing.
    for key, value in (("d", 0), ("verdict", "not_certified"), ("verdict", "not_elliptic")):
        forged = json.loads(json.dumps(obj))
        forged[key] = value
        with pytest.raises(ValueError, match="not in the current certificate format"):
            serialize.verify_obj(forged)
    forged = json.loads(json.dumps(obj))
    forged["witness_point"] = [["0", "0"], ["1", "0"]]
    assert serialize.verify_obj(forged) == (False, "report holds both points and a stabilization")


SEARCHES = [(FORGERY_FORM, "strict", 12), (FORGERY_FORM, "semi", 12), (FORGERY_FORM, "strict", 4),
            ("z1*zb2 + z2*zb1", "semi", 2)]
SYMBOLS = [("z1^2*zb1^2 + z2^2*zb2^2", None, 4), ("-z1^2*zb1^2 - z2^2*zb2^2", None, 4),
           ("z1^2*zb1^2 + z2^2*zb2^2", None, 0), ("z1*zb1", 2, 4),
           ("z1^2*zb1^2 - 3*z1*z2*zb1*zb2 + z2^2*zb2^2", None, 4)]


def _one_witness(old: dict) -> dict:
    """The stabilization `old`, written with d_min and a witness per failing
    d, as the writer writes it now: no d_min, and the last witness alone,
    with its d, its position in the old trail."""
    trail = old["trail"]
    return {**{key: value for key, value in old.items() if key != "d_min"},
            "trail": [[len(trail) - 1, trail[-1]]] if trail else []}


@pytest.mark.parametrize("text, mode, d_max", SEARCHES)
def test_stabilization_writer_drops_only_d_min(text, mode, d_max):
    report = find_minimal_d(parse_expression(text), mode, d_max)
    old, new = reference_stabilization_to_obj(report), serialize.stabilization_to_obj(report)
    assert new == _one_witness(old)
    assert serialize._d_min(new) == old["d_min"] == report.d_min
    assert serialize.verify_obj(new) == (True, "ok")


@pytest.mark.parametrize("text, n, d_max", SYMBOLS)
def test_ellipticity_writer_drops_only_what_its_evidence_proves(text, n, d_max):
    report = certify_elliptic_form(parse_expression(text, n=n), d_max)
    old, new = reference_ellipticity_to_obj(report), serialize.ellipticity_to_obj(report)
    if old["stabilization"] is not None:
        # The searched form and the mode follow from the symbol.
        stabilization = _one_witness(old["stabilization"])
        assert stabilization.pop("mode") == "strict"
        assert stabilization.pop("form") == serialize.form_to_obj(searched_form(report.form))
        del stabilization["kind"]
        old["stabilization"] = stabilization
    assert new == {key: value for key, value in old.items() if key not in ("verdict", "d")}
    assert serialize._symbol_verdict(new)[:2] == (old["verdict"], old["d"])
    assert serialize.verify_obj(new) == (True, "ok")


def test_decomposition_factors_serialize_and_verify():
    # One artifact with signed weights: its positive and negated negative
    # vectors are the rows of difference_of_squares' two parts.
    form = quartic_family(-1)
    vectors = _certificate(form).vectors
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    ok, reason = serialize.verify_obj(obj)
    assert ok, reason
    basis = coefficient_basis(form)
    positive, negative = difference_of_squares(form)
    assert _factor_from_parts([(w, v) for w, v in vectors if w > 0], basis, 1) == positive.matrix
    assert _factor_from_parts([(-w, v) for w, v in vectors if w < 0], basis, 1) == negative.matrix


def test_empty_factor_round_trip():
    from hermfact import BihermitianForm

    positive, negative = difference_of_squares(BihermitianForm.zero(2))
    assert positive.matrix.rows == negative.matrix.rows == ()
    form = BihermitianForm.zero(2)
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    read, d, vectors, witness = serialize.obj_to_factor(json.loads(json.dumps(obj)))
    assert (read, d, vectors, witness) == (form, 0, [], None)
    ok, reason = serialize.verify_obj(obj)
    assert ok, reason


def test_unsupported_kind_raises():
    with pytest.raises(ValueError):
        serialize.verify_obj({"kind": "mystery"})
    with pytest.raises(ValueError):
        serialize.verify_obj(serialize.form_to_obj(diagonal_quartic()))


def test_canonical_json_and_digests():
    payload = {"b": 1, "a": [1, 2], "timings": {"total_seconds": 1.23}}
    digest_a = serialize.digest_of_obj(payload)
    payload["timings"]["total_seconds"] = 9.99
    assert serialize.digest_of_obj(payload) == digest_a
    payload["a"] = [2, 1]
    assert serialize.digest_of_obj(payload) != digest_a
    assert serialize.canonical_json({"y": 1, "x": 2}) == '{"x":2,"y":1}'


def test_canonical_object_joins_encoded_values():
    # Keys are encoded and sorted as the encoder does, escapes included.
    obj = {"zeta": [1, {"b": "é", "a": None}], "Alpha": 1.5, "é": "x", 'a"b': True}
    pieces = {key: serialize.canonical_json(value) for key, value in obj.items()}
    assert serialize.canonical_object(pieces) == serialize.canonical_json(obj)
    assert serialize.canonical_object({}) == serialize.canonical_json({})


def _with_cancelling_pair(obj):
    # The FOUND forgery: [[1, 1], v] and [[-1, 1], v] add nothing to the sum,
    # but raise both weight counts; two equal vectors are not independent.
    v = [[0, 1, 0], [1, 1, 0]]
    obj["vectors"] += [[[1, 1], v], [[-1, 1], v]]


def test_a_cancelling_pair_is_not_independent():
    form = parse_expression("z1*zb1 - z2*zb2")
    obj = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    assert serialize.verify_obj(obj) == (True, "ok")
    _with_cancelling_pair(obj)
    assert serialize.verify_obj(obj) == (False, "factor vectors are not independent")


# All of its diagonal is 0, so the first pivot is a hollow block at slots 0
# and 1; the trailing entry it leaves is -2, a nonzero 1x1 pivot at slot 2.
HOLLOW_THEN_PIVOT = "z1*zb2 + z2*zb1 + z1*zb3 + z3*zb1 + z2*zb3 + z3*zb2"


def test_weighted_vectors_are_in_slot_order():
    form = parse_expression(HOLLOW_THEN_PIVOT)
    cert = _certificate(form)
    assert cert.blocks == ((0, cert.blocks[0][1]),) and cert.diag[2] == -2
    obj = serialize.factor_to_obj(form, 0, *evidence(cert))
    assert [w for w, _ in obj["vectors"]] == [[1, 2], [-1, 2], [-2, 1]]
    assert serialize.verify_obj(obj) == (True, "ok")
    # The block's pair appended after the pivot, as the order before slot
    # order was: read in reverse, the pair takes every index, and the pivot's
    # vector adds none and has no vector left to pair with.
    obj["vectors"] = obj["vectors"][2:] + obj["vectors"][:2]
    assert serialize.verify_obj(obj) == (False, "factor vectors are not independent")


def test_independence_pairs_a_vector_only_with_the_one_before_it():
    def vectors(*rows):
        return [(Fraction(1), serialize._obj_to_sparse(row)) for row in rows]

    x_plus_y, x_minus_y = [[0, 1, 0], [1, 1, 0]], [[0, 1, 0], [1, -1, 0]]
    e2 = [[2, 1, 0]]
    assert independence_failure(vectors(x_plus_y, x_minus_y, e2)) is None
    assert independence_failure(vectors(x_plus_y, [[1, 1, 0]])) is None
    not_independent = "factor vectors are not independent"
    # Independent, but x + y adds no index and pairs with e2 alone, not with
    # x - y: the test is sound, not complete, and slot order keeps pairs adjacent.
    assert independence_failure(vectors(x_plus_y, e2, x_minus_y)) == not_independent
    # a third vector on a pair's indices has no vector left to pair with
    assert independence_failure(vectors([[0, 1, 0]], x_plus_y, x_minus_y)) == not_independent
    # an empty vector is 0
    assert independence_failure(vectors([])) == not_independent
    # complex entries: (1, i) and (i, -1) = i (1, i) have rank 1, (1, i) and (1, -i) rank 2
    one_i = [[0, 1, 0], [1, 0, 1]]
    assert independence_failure(vectors(one_i, [[0, 0, 1], [1, -1, 0]])) == not_independent
    assert independence_failure(vectors(one_i, [[0, 1, 0], [1, 0, -1]])) is None


def test_verify_refuses_a_d_past_the_size_bound(forgery_report):
    # A report names d in a few bytes; verify checks the size of M_d
    # before it builds anything, and exits 2 past the bound.
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0][0] = 10**6
    with pytest.raises(ValueError, match="at d=1000000 has 1000003 rows"):
        serialize.verify_obj(forged)
    # |z1|^2 in four variables: the search ends at d = 15, the last d within
    # the bound, and a factor after its witness would be at d = 16.
    inconclusive = serialize.stabilization_to_obj(
        find_minimal_d(parse_expression("z1*zb1", n=4), "strict", 100))
    assert inconclusive["trail"][0][0] == 15
    assert serialize.verify_obj(inconclusive) == (True, "ok")
    inconclusive["trail"][0][0] = 14
    assert serialize.verify_obj(inconclusive) == (
        False, "without a factor the witness must be at the last searched d=15")
    inconclusive["trail"][0][0], inconclusive["factor"] = 15, []
    with pytest.raises(ValueError, match="at d=16 has 1140 rows"):
        serialize.verify_obj(inconclusive)
    # A weighted factor of |z|^2 in three variables at d = 200, with no vectors.
    form = parse_expression("z1*zb1 + z2*zb2 + z3*zb3")
    factor = serialize.factor_to_obj(form, 0, *evidence(_certificate(form)))
    factor.update(d=200, vectors=[])
    with pytest.raises(ValueError, match="at d=200 has 20503 rows"):
        serialize.verify_obj(factor)


def _string_codec_stabilization(report) -> dict:
    """A stabilization report as the codec before integers wrote it."""
    failing = [step for step in report.steps if not step.passes]
    return {"kind": "stabilization_report", "mode": report.mode, "d_max": report.d_max,
            "form": reference_string_form_obj(report.form),
            "trail": [[step.d, reference_string_entries_obj(step.witness)]
                      for step in failing[-1:]],
            "factor": None if report.vectors is None else reference_string_vectors_obj(
                report.vectors)}


def _string_codec_factor():
    form = parse_expression("z1*zb1 + (1/2+i)*z1*zb2 + (1/2-i)*z2*zb1 - 1/3*z2*zb2")
    cert = _certificate(form)
    return {"kind": "weighted_gram_factor", "form": reference_string_form_obj(form), "d": 0,
            "vectors": reference_string_vectors_obj(cert.vectors),
            "witness": reference_string_entries_obj(cert.witness)}


def _string_codec_ellipticity():
    report = certify_elliptic_form(diagonal_quartic(), 4)
    return {**serialize.ellipticity_to_obj(report),
            "form": reference_string_form_obj(report.form),
            "stabilization": _string_codec_stabilization(report.stabilization)}


@pytest.mark.parametrize("make", [
    _string_codec_factor,
    lambda: _string_codec_stabilization(find_minimal_d(parse_expression(FORGERY_FORM), "strict", 12)),
    _string_codec_ellipticity,
], ids=["weighted_gram_factor", "stabilization_report", "ellipticity_report"])
def test_every_artifact_kind_in_the_string_codec_is_a_format_error(make):
    # Each kind as it was written before the wire held integers: "p/q"
    # strings, a kernel's terms in both triangles; read now, a format error.
    obj = json.loads(json.dumps(make()))
    with pytest.raises(ValueError, match="not in the current certificate format"):
        serialize.verify_obj(obj)


def _annotated_functions():
    """Every function and class the package defines, with the methods,
    properties and cached properties of each class."""
    for info in pkgutil.iter_modules(hermfact.__path__):
        module = importlib.import_module(f"hermfact.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for item in vars(obj).values():
                    item = getattr(item, "__func__", getattr(item, "fget", getattr(item, "func",
                                                                                   item)))
                    if inspect.isfunction(item):
                        yield item


def test_every_annotation_in_the_package_resolves():
    # Annotations are strings (`from __future__ import annotations`): each
    # name in them must be bound in its module, which typing resolves.
    functions = list(_annotated_functions())
    assert serialize.stabilization_to_obj in functions and len(functions) > 100
    for obj in functions:
        typing.get_type_hints(obj)
