import json
import random
from fractions import Fraction

import pytest

from hermfact import (
    certify_elliptic_form,
    difference_of_squares,
    find_minimal_d,
    holomorphic_factor,
    ldl_signature,
)
from hermfact import serialize

from helpers import (
    diagonal_quartic,
    quartic_family,
    rand_hermitian_matrix,
    rand_hermsym_form,
    rand_psd_form,
)


def test_fraction_strings():
    assert serialize.fraction_to_str(Fraction(3, 1)) == "3"
    assert serialize.fraction_to_str(Fraction(-7, 4)) == "-7/4"
    assert serialize.str_to_fraction("-7/4") == Fraction(-7, 4)
    big = Fraction(10**40 + 1, 10**39)
    assert serialize.str_to_fraction(serialize.fraction_to_str(big)) == big


def test_form_round_trip():
    rng = random.Random(501)
    for _ in range(20):
        form = rand_hermsym_form(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2))
        obj = serialize.form_to_obj(form)
        assert serialize.obj_to_form(json.loads(json.dumps(obj))) == form


def test_form_json_uses_one_based_indices():
    obj = serialize.form_to_obj(diagonal_quartic())
    assert {term["i"] for term in obj["terms"]} == {1}
    assert obj["terms"][0]["re"] == "1"


def test_factor_round_trip():
    factor = holomorphic_factor(diagonal_quartic())
    obj = serialize.factor_to_obj(factor)
    restored = serialize.obj_to_factor(json.loads(json.dumps(obj)))
    assert restored == factor
    ok, reason = serialize.verify_obj(obj)
    assert ok, reason


def test_certificate_round_trip_and_verify():
    rng = random.Random(503)
    for _ in range(10):
        cert = ldl_signature(rand_hermitian_matrix(rng, rng.randint(1, 6), 9))
        obj = serialize.certificate_to_obj(cert)
        restored = serialize.obj_to_certificate(json.loads(json.dumps(obj)))
        assert restored == cert
        ok, reason = serialize.verify_obj(obj)
        assert ok, reason


def test_verify_rejects_tampered_certificate():
    cert = ldl_signature(rand_hermitian_matrix(random.Random(5), 4, 7))
    obj = serialize.certificate_to_obj(cert)

    tampered = json.loads(json.dumps(obj))
    tampered["diag"][0] = "999"
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "congruence" in reason

    tampered = json.loads(json.dumps(obj))
    tampered["inertia"]["pos"], tampered["inertia"]["zero"] = (
        tampered["inertia"]["zero"],
        tampered["inertia"]["pos"],
    )
    ok, _ = serialize.verify_obj(tampered)
    assert not ok

    # W is stored as its strictly-lower entries: change the first entry of
    # the last row (or create one) so the congruence no longer holds.
    tampered = json.loads(json.dumps(obj))
    row = tampered["transform"][-1]
    if row and row[0][0] == 0:
        row[0][1] = serialize.fraction_to_str(Fraction(row[0][1]) + 1)
    else:
        row.insert(0, [0, "1", "0"])
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "congruence" in reason

    if obj["witness"]:
        tampered = json.loads(json.dumps(obj))
        tampered["witness"] = [["0", "0"] for _ in tampered["witness"]]
        ok, _ = serialize.verify_obj(tampered)
        assert not ok


def test_verify_rejects_tampered_factor():
    factor = holomorphic_factor(rand_psd_form(random.Random(9), 2, 1, 1))
    obj = serialize.factor_to_obj(factor)
    tampered = json.loads(json.dumps(obj))
    tampered["rows"][0]["weight"] = "17/5"
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "reconstruct" in reason


def test_stabilization_report_round_trip_verify():
    report = find_minimal_d(quartic_family(-1), "strict", 5)
    obj = serialize.stabilization_to_obj(report)
    ok, reason = serialize.verify_obj(json.loads(json.dumps(obj)))
    assert ok, reason

    tampered = json.loads(json.dumps(obj))
    tampered["trail"][1]["passes"] = True
    ok, reason = serialize.verify_obj(tampered)
    assert not ok

    tampered = json.loads(json.dumps(obj))
    tampered["d_min"] = 4
    ok, reason = serialize.verify_obj(tampered)
    assert not ok and "d_min" in reason


FORGERY_FORM = "z1^2*zb1^2 - 3/2*z1*z2*zb1*zb2 + z2^2*zb2^2"


@pytest.fixture(scope="module")
def forgery_report():
    from hermfact import parse_expression

    report = find_minimal_d(parse_expression(FORGERY_FORM), "strict", 12)
    assert report.d_min == 7
    obj = serialize.stabilization_to_obj(report)
    assert serialize.verify_obj(obj) == (True, "ok")
    return obj


def test_stabilization_trail_cut_to_d_min_is_rejected(forgery_report):
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"] = forged["trail"][-1:]
    assert serialize.verify_obj(forged) == (
        False,
        "trail does not run d = 0, 1, ... without gaps",
    )


def test_stabilization_trail_stopping_short_of_d_max_is_rejected(forgery_report):
    forged = json.loads(json.dumps(forgery_report))
    forged["d_min"] = None
    forged["trail"] = forged["trail"][:1]
    forged["factor"] = None
    assert serialize.verify_obj(forged) == (False, "trail stops before d_max")


def test_stabilization_d_max_below_d_min_is_rejected(forgery_report):
    forged = json.loads(json.dumps(forgery_report))
    forged["d_max"] = 0
    assert serialize.verify_obj(forged) == (False, "trail runs past d_max")


def test_stabilization_step_carries_no_inertia_copy(forgery_report):
    # The step's size and inertia were unread copies of the certificate's and
    # could be rewritten freely; now only the certificate's exist, and
    # rewriting those is caught.
    step = forgery_report["trail"][0]
    assert set(step) == {"d", "passes", "certificate"}
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0]["certificate"]["inertia"] = {"pos": 3, "neg": 0, "zero": 0}
    ok, reason = serialize.verify_obj(forged)
    assert not ok and reason.startswith("trail d=0:")
    forged = json.loads(json.dumps(forgery_report))
    forged["trail"][0]["certificate"]["size"] = 4
    assert serialize.verify_obj(forged) == (False, "trail d=0: component sizes disagree")


def test_ellipticity_report_serialization():
    report = certify_elliptic_form(diagonal_quartic(), 4)
    obj = serialize.ellipticity_to_obj(report)
    ok, reason = serialize.verify_obj(json.loads(json.dumps(obj)))
    assert ok, reason
    assert obj["verdict"] == "certified"
    assert obj["variety_condition"] == "not checked"


def test_decomposition_factors_serialize_and_verify():
    positive, negative = difference_of_squares(quartic_family(-1))
    for factor in (positive, negative):
        ok, reason = serialize.verify_obj(serialize.factor_to_obj(factor))
        assert ok, reason


def test_empty_factor_round_trip():
    from hermfact import BihermitianForm

    positive, negative = difference_of_squares(BihermitianForm.zero(2))
    for factor in (positive, negative):
        assert factor.matrix.rows == ()
        obj = serialize.factor_to_obj(factor)
        assert serialize.obj_to_factor(json.loads(json.dumps(obj))) == factor
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
