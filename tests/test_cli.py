import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

from hermfact import (
    certify_elliptic_form,
    coefficient_matrix,
    find_minimal_d,
    parse_expression,
    serialize,
)
from hermfact.cli import main

from helpers import (
    POSITIVE_DIAGONAL_SIGN_CHANGE,
    quartic_family,
    reference_block_ldl,
    reference_certificate_obj,
    reference_ellipticity_to_obj,
    reference_form_obj,
    reference_stabilization_to_obj,
)

DIAGONAL_QUARTIC = "z1^2*zb1^2 + z2^2*zb2^2"
SQUARE_DIFFERENCE = "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2"
INDEFINITE_QUARTIC = "z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2"
SWEEP_ONE = ["sweep", "-e", json.dumps([{"label": "q", "expr": INDEFINITE_QUARTIC}]), "--dmax", "5"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, ["check", "-e", DIAGONAL_QUARTIC, "--mode", "strict"])
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["passes"] is False
    assert report["verdicts"]["inertia"] == {"pos": 2, "neg": 0, "zero": 1}

    code, out, _ = run(capsys, ["check", "-e", DIAGONAL_QUARTIC, "--mode", "semi"])
    assert code == 0
    assert json.loads(out)["verdicts"]["passes"] is True

    code, _, err = run(capsys, ["check", "-e", "z1^2*zb1^2 +", "--mode", "semi"])
    assert code == 2 and "error" in err


def test_check_certificate_verifies(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["check", "-e", SQUARE_DIFFERENCE, "--mode", "semi", "--cert-dir", str(tmp_path)],
    )
    assert code == 1
    report = json.loads(out)
    cert = report["result"]["certificate"]
    assert cert["witness"] is not None
    ok, reason = serialize.verify_obj(cert)
    assert ok, reason
    files = list(tmp_path.glob("*.json"))
    assert files
    code, out, _ = run(capsys, ["verify", str(files[0])])
    assert code == 0


def test_stabilize_exit_codes(capsys):
    code, out, _ = run(
        capsys, ["stabilize", "-e", INDEFINITE_QUARTIC, "--mode", "strict", "--dmax", "5"]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["d_min"] == 3

    code, out, _ = run(
        capsys, ["stabilize", "-e", SQUARE_DIFFERENCE, "--mode", "semi", "--dmax", "12"]
    )
    assert code == 3
    assert json.loads(out)["verdicts"]["d_min"] is None

    code, out, _ = run(
        capsys,
        ["stabilize", "-e", "z1^2*zb1^2 + 2*z1*z2*zb1*zb2 + z2^2*zb2^2", "--mode", "strict"],
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["d_min"] == 0

    code, _, err = run(capsys, ["stabilize", "-e", "1 + z1*zb1", "--mode", "strict"])
    assert code == 2 and "bidegree" in err


def test_factor_command(capsys):
    code, out, _ = run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["rows"] == 2
    # Evidence on the embedded form: no polynomial rows, shape or target.
    assert report["result"].keys() == {"factor"}
    assert report["result"]["factor"].keys() == {"kind", "form", "d", "vectors", "witness"}
    assert report["result"]["factor"]["witness"] is None
    ok, reason = serialize.verify_obj(report["result"]["factor"])
    assert ok, reason

    # A failing factor is the same artifact, with a negative weight and a witness.
    code, out, _ = run(capsys, ["factor", "-e", SQUARE_DIFFERENCE, "--d", "7", "--numeric"])
    assert code == 1
    report = json.loads(out)
    assert report["result"].keys() == {"factor"}
    assert report["verdicts"] == {"d": 7, "factorable": False, "rows": 0}
    assert report["result"]["factor"]["witness"] is not None
    assert any(p < 0 for (p, _), _ in report["result"]["factor"]["vectors"])

    code, out, _ = run(capsys, ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["rows"] == 2
    assert report["result"]["numeric_factor"]["float_digits"] == 12


def test_sweep_command(capsys, tmp_path):
    family = [
        {"label": "c=2", "expr": "z1^2*zb1^2 + 2*z1*z2*zb1*zb2 + z2^2*zb2^2"},
        {"label": "c=0", "expr": DIAGONAL_QUARTIC},
        {"label": "c=-1", "expr": INDEFINITE_QUARTIC},
        {"label": "c=-2", "expr": SQUARE_DIFFERENCE},
        {"label": "mixed", "expr": "1 + z1*zb1"},
    ]
    family_file = tmp_path / "family.json"
    family_file.write_text(json.dumps(family))
    out_file = tmp_path / "report.json"
    csv_file = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep",
            str(family_file),
            "--mode",
            "strict",
            "--dmax",
            "6",
            "--out",
            str(out_file),
            "--csv",
            str(csv_file),
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,d_min,matrix_size_at_d_min,elapsed_seconds"
    cells = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in cells] == ["c=2", "c=0", "c=-1", "c=-2", "mixed"]
    assert [row[1] for row in cells] == ["0", "1", "3", "absent", "error"]
    assert csv_file.read_text() == out
    report = json.loads(out_file.read_text())
    rows = report["verdicts"]["rows"]
    assert rows[2]["d_min"] == 3
    assert rows[4]["error"]


def test_sweep_members_are_read_as_input_files_are(capsys, tmp_path):
    # A member's kernel object, its JSON text and its expression read to one
    # form; a member that does not read names itself.
    obj = serialize.form_to_obj(parse_expression(INDEFINITE_QUARTIC))
    family = [{"label": "expr", "expr": INDEFINITE_QUARTIC}, {"label": "form", "form": obj},
              {"label": "json", "expr": json.dumps(obj)}]
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, ["sweep", "-e", json.dumps(family), "--dmax", "5", "--out", str(path)])
    assert code == 0
    rows = json.loads(path.read_text())["verdicts"]["rows"]
    assert [(row["label"], row["d_min"], row["error"]) for row in rows] == [
        ("expr", 3, None), ("form", 3, None), ("json", 3, None)]
    for member, error in (({"label": "b", "expr": "z1*zb1 +"},
                           "member 'b': unexpected token '' (at position 8)"),
                          ({"label": "n"}, "member 'n' has neither 'expr' nor 'form'")):
        assert run(capsys, ["sweep", "-e", json.dumps([member])]) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("n", ["2", 2.0, True, [2]])
def test_sweep_member_n_that_is_not_an_integer_is_an_input_error(capsys, n):
    # A member's n is an integer or absent: else exit 2, naming the member,
    # not a traceback, whose exit 1 would read as a certified negative.
    family = json.dumps([{"label": "a", "expr": "z1*zb1", "n": n}])
    assert run(capsys, ["sweep", "-e", family, "--mode", "strict", "--dmax", "3"]) == (
        2, "", "error: member 'a': n must be an integer\n")
    # an integer n, or none, is read as before
    for member in ({"label": "a", "expr": "z1*zb1", "n": 2}, {"label": "a", "expr": "z1*zb1"}):
        assert run(capsys, ["sweep", "-e", json.dumps([member]), "--dmax", "3"])[0] == 0


def test_sweep_empty_family(capsys, tmp_path):
    family_file = tmp_path / "empty.json"
    family_file.write_text("[]")
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["sweep", str(family_file), "--mode", "strict", "--out", str(out_file)]
    )
    assert code == 0
    assert out.strip() == "label,d_min,matrix_size_at_d_min,elapsed_seconds"
    assert run(capsys, ["verify", str(out_file)])[:2] == (0, '{"valid": true, "reason": "ok"}\n')


def test_sweep_all_error_family_verifies(capsys, tmp_path):
    family = json.dumps([{"label": "b", "expr": "1 + z1*zb1"}])
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, ["sweep", "-e", family, "--out", str(out_file)])
    assert code == 0 and out.splitlines()[1].startswith("b,error,")
    assert json.loads(out_file.read_text())["verdicts"]["rows"][0]["error"]
    assert run(capsys, ["verify", str(out_file)])[:2] == (0, '{"valid": true, "reason": "ok"}\n')


def test_symbol_command(capsys):
    code, out, _ = run(capsys, ["symbol", "-e", "x1^2 + x2^2"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["verdict"] == "certified"
    assert report["verdicts"]["d"] == 0
    assert report["result"]["operator_rows"] == ["(1)*Dz1"]

    code, out, _ = run(capsys, ["symbol", "-e", DIAGONAL_QUARTIC])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["d"] == 1
    assert len(report["result"]["operator_rows"]) == 4

    code, out, _ = run(capsys, ["symbol", "-e", "z1*zb1", "--n", "2", "--dmax", "16"])
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["verdict"] == "not_elliptic"

    # Re(z1^2): terms of bidegrees (2, 0) and (0, 2)
    code, _, err = run(capsys, ["symbol", "-e", "x1^2 - x2^2"])
    assert (code, err) == (2, "error: form has mixed bidegrees\n")


def test_decompose_command(capsys):
    code, out, _ = run(capsys, ["decompose", "-e", SQUARE_DIFFERENCE])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {
        "positive_rank": 2,
        "negative_rank": 1,
        "sum_of_squares": False,
    }
    # One artifact of F at d = 0: two positive weights and one negative.
    decomposition = report["result"]["decomposition"]
    assert decomposition["d"] == 0
    assert sorted(p < 0 for (p, _), _ in decomposition["vectors"]) == [False, False, True]
    ok, reason = serialize.verify_obj(decomposition)
    assert ok, reason

    code, _, err = run(capsys, ["decompose", "-e", "z1*zb2", "--n", "2"])
    assert code == 2


def test_verify_command_paths(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["check", "-e", DIAGONAL_QUARTIC, "--mode", "semi", "--cert-dir", str(tmp_path / "c")],
    )
    cert_file = next((tmp_path / "c").glob("*.json"))
    code, out, _ = run(capsys, ["verify", str(cert_file)])
    assert code == 0 and json.loads(out)["valid"] is True

    tampered = json.loads(cert_file.read_text())
    tampered["vectors"][0][0] = [123, 7]
    bad_file = tmp_path / "tampered.json"
    bad_file.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, ["verify", str(bad_file)])
    assert code == 1 and json.loads(out)["valid"] is False

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "bihermitian_form", "n": 1, "r": 1, "terms": []}))
    code, _, err = run(capsys, ["verify", str(wrong)])
    assert code == 2

    not_json = tmp_path / "notjson.json"
    not_json.write_text("z1*zb1")
    code, _, _ = run(capsys, ["verify", str(not_json)])
    assert code == 2

    code, _, _ = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2


HOLLOW = "z1*zb2 + z2*zb1"
# Its matrix [[1, 1, 0], [1, -1, 0], [0, 0, 1]] has L[1][0] = 1.
COUPLED = "z1*zb1 + z1*zb2 + z2*zb1 - z2*zb2 + z3*zb3"


def _drop_vector(cert):
    cert["vectors"].pop()


def _witness_index_past_size(cert):
    cert["witness"].append([3, 1, 0])


def _witness_indices_out_of_order(cert):
    cert["witness"].append([0, 1, 0])


def _witness_dropped(cert):
    cert["witness"] = None


def _vector_index_negative(cert):
    cert["vectors"][0][1].insert(0, [-1, 1, 0])


def _vector_index_past_size(cert):
    cert["vectors"][0][1].append([3, 1, 0])


def _vector_entries_out_of_order(cert):
    cert["vectors"][0][1].append([0, 1, 0])


def _vector_value_bumped(cert):
    assert cert["vectors"][0] == [[1, 1], [[0, 1, 0], [1, 1, 0]]]
    cert["vectors"][0][1][1][1] = 2


def _vector_duplicated(cert):
    cert["vectors"].insert(1, cert["vectors"][0])


def _hollow_pair_split(cert):
    # the vector of z3 between the pair x + y, x - y of the block
    cert["vectors"].insert(1, cert["vectors"].pop(0))


def _weight_zero(cert):
    cert["vectors"][0][0] = [0, 1]


# Each has a third variable, so that its matrix is 3x3.
INDEFINITE_SUM = "z1*zb1 - z2*zb2 + z3*zb3"
OUT_OF_RANGE = "factor index out of range"
INDEPENDENT = "factor vectors are not independent"
# A witness or vector whose indices do not ascend is a format error (exit 2).
FORMAT = None


@pytest.mark.parametrize(
    "expr, malform, reason",
    [
        (INDEFINITE_SUM, _drop_vector, "factor: congruence identity fails at (2,2)"),
        (INDEFINITE_SUM, _witness_index_past_size, "witness index out of range"),
        (INDEFINITE_SUM, _witness_indices_out_of_order, FORMAT),
        (INDEFINITE_SUM, _witness_dropped,
         "witness is not present exactly when a weight is negative"),
        (INDEFINITE_SUM, _vector_index_negative, OUT_OF_RANGE),
        (INDEFINITE_SUM, _vector_index_past_size, OUT_OF_RANGE),
        (INDEFINITE_SUM, _vector_entries_out_of_order, FORMAT),
        (COUPLED, _vector_value_bumped, "factor: congruence identity fails at (0,1)"),
        (INDEFINITE_SUM, _vector_duplicated, INDEPENDENT),
        (HOLLOW + " + z3*zb3", _hollow_pair_split, INDEPENDENT),
        (HOLLOW + " + z3*zb3", _weight_zero, "factor weight is zero"),
    ],
    ids=[
        "vector_dropped",
        "long_witness",
        "witness_indices_out_of_order",
        "witness_dropped",
        "vector_index_negative",
        "vector_index_past_size",
        "vector_entries_out_of_order",
        "vector_value_bumped",
        "vector_duplicated",
        "hollow_pair_split",
        "weight_zero",
    ],
)
def test_verify_rejects_malformed_certificate_shapes(capsys, tmp_path, expr, malform, reason):
    code, out, _ = run(capsys, ["check", "-e", expr, "--mode", "semi"])
    cert = json.loads(out)["result"]["certificate"]
    assert cert["witness"] is not None and len(cert["vectors"]) == 3
    malform(cert)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["verify", str(path)])
    if reason is FORMAT:
        assert code == 2 and out == ""
        assert err.startswith("error: artifact is not in the current certificate format")
    else:
        assert code == 1
        assert json.loads(out) == {"valid": False, "reason": reason}
    assert "Traceback" not in err


def test_json_form_input(capsys, tmp_path):
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(serialize.form_to_obj(quartic_family(-1))))
    code, out, _ = run(capsys, ["stabilize", str(form_file), "--mode", "strict", "--dmax", "4"])
    assert code == 0
    assert json.loads(out)["verdicts"]["d_min"] == 3


def test_reports_are_deterministic(capsys, tmp_path):
    argv = ["check", "-e", INDEFINITE_QUARTIC, "--mode", "strict"]
    _, out_a, _ = run(capsys, argv)
    _, out_b, _ = run(capsys, argv)
    report_a = serialize.strip_volatile(json.loads(out_a))
    report_b = serialize.strip_volatile(json.loads(out_b))
    assert serialize.canonical_json(report_a) == serialize.canonical_json(report_b)
    assert report_a["digest"] == report_b["digest"]

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run(capsys, argv + ["--cert-dir", str(dir_a)])
    run(capsys, argv + ["--cert-dir", str(dir_b)])
    files_a = sorted(p.name for p in dir_a.glob("*.json"))
    files_b = sorted(p.name for p in dir_b.glob("*.json"))
    assert files_a == files_b
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, ["check"])
    assert code == 2 and "input" in err


def _parent_certificate(report):
    # The standalone certificate that `check --cert-dir` mirrored before check
    # wrote weighted vectors on its form, by the old writer in helpers.py.
    form = serialize.obj_to_form(report["result"]["certificate"]["form"], written=True)
    return reference_certificate_obj(reference_block_ldl(coefficient_matrix(form)[0]))


def _check_report_with_parent_certificate(report):
    report["result"]["certificate"] = _parent_certificate(report)
    return report


def _form_terms_as_objects(report):
    # Each term as an object, as forms were written before terms were rows.
    form = report["result"]["stabilization"]["form"]
    form["terms"] = reference_form_obj(serialize.obj_to_form(form))["terms"]
    return report


def _dense_transform_with_inverse(report):
    # The certificate format before W was stored sparse: dense W and W^-1
    # rows of [re, im] pairs, a stored inertia, no blocks.
    cert = _parent_certificate(report)
    n = cert["size"]
    identity = [[["1" if i == j else "0", "0"] for j in range(n)] for i in range(n)]
    cert["transform"], cert["transform_inv"] = identity, identity
    cert["inertia"] = report["verdicts"]["inertia"]
    del cert["blocks"]
    return cert


def _lower_columns_of_pairs(report):
    cert = _parent_certificate(report)
    cert["lower"] = [[["0", "0"]] * i for i in range(cert["size"])]
    return cert


def _dense_witness(report):
    # The witness as the format before L was stored wrote it: n [re, im] pairs.
    cert = _parent_certificate(report)
    dense = [["0", "0"] for _ in range(cert["size"])]
    for j, re, im in cert["witness"]:
        dense[j] = [re, im]
    cert["witness"] = dense
    return cert


def _stored_inertia(report):
    cert = _parent_certificate(report)
    cert["inertia"] = report["verdicts"]["inertia"]
    return cert


def _trail_step_with_certificate(report):
    # A trail step as it was before the trail was bound to the form: d, a
    # pass flag and a whole certificate.
    stabilization = report["result"]["stabilization"]
    _, step = stabilization["trail"][0]
    stabilization["trail"][0] = {
        "d": 0,
        "passes": False,
        "certificate": {"kind": "signature_certificate", "size": 3, "matrix": [], "witness": step},
    }
    return stabilization


# `stabilize -e "z1*zb1" --n 2 --mode strict --dmax 0` and `symbol -e "x1^2 +
# x2^2"` as the format before evidence-only trails wrote them: one congruence
# per exponent, the passing one included, and a strict step on a singular
# PSD matrix without a witness.
PARENT_FORMAT_STABILIZE = {
    "command": ["stabilize", "--mode", "strict", "--dmax", "0"],
    "digest": "sha256:596ab0d160ea88fec79c923831a87690448050b461155861cef0c0ed90841783",
    "input_digest": "sha256:c9e993fdd162276e85caffbfa30accd57d421d953c662550f63263d7a5da690e",
    "kind": "run_report",
    "result": {"stabilization": {
        "d_max": 0, "d_min": None, "factor": None,
        "form": {"kind": "bihermitian_form", "n": 2, "r": 1, "terms": [
            {"alpha": [1, 0], "beta": [1, 0], "i": 1, "im": "0", "j": 1, "re": "1"}]},
        "kind": "stabilization_report", "mode": "strict",
        "trail": [{"blocks": [], "diag": ["1", "0"], "lower": [[], []], "permutation": [0, 1],
                   "witness": None}]}},
    "verdicts": {"d_max": 0, "d_min": None, "found": False, "mode": "strict"},
}
_ONE_VARIABLE_SQUARE = {"kind": "bihermitian_form", "n": 1, "r": 1, "terms": [
    {"alpha": [1], "beta": [1], "i": 1, "im": "0", "j": 1, "re": "1"}]}
PARENT_FORMAT_SYMBOL = {
    "command": ["symbol", "--dmax", "16"],
    "digest": "sha256:23b32caa27cd1028a9fb26fb35278ceabb7970243c7e1fa4e40f54f3c38cfffd",
    "input_digest": "sha256:e296d5eb837516dc33c96e558a8bd802d56339698e4767614c67d7f8c66bd659",
    "kind": "run_report",
    "result": {"ellipticity": {
        "d": 0, "form": _ONE_VARIABLE_SQUARE, "kind": "ellipticity_report", "sign_change": None,
        "stabilization": {
            "d_max": 16, "d_min": 0,
            "factor": {"kind": "weighted_gram_factor", "n": 1, "rows": [
                {"entries": [[{"alpha": [1], "im": "0", "re": "1"}]], "weight": "1"}],
                "shape": [1, 1], "target": _ONE_VARIABLE_SQUARE},
            "form": _ONE_VARIABLE_SQUARE, "kind": "stabilization_report", "mode": "strict",
            "trail": [{"blocks": [], "diag": ["1"], "lower": [[]], "permutation": [0],
                       "witness": None}]},
        "verdict": "certified", "witness_point": None},
        "operator_rows": ["(1)*Dz1"]},
    "verdicts": {"complex_dim": 1, "d": 0, "order": 2,
                 "summary": "elliptic: certified at exponent d=0; the lifted symbol is a squared "
                            "norm of 1 holomorphic differential operator rows",
                 "verdict": "certified"},
}
# The key sets of the current format, which stores no d_min, verdict or d.
STABILIZATION_KEYS = ("a stabilization report must have exactly the keys "
                      "d_max, factor, form, kind, mode, trail")
ELLIPTICITY_KEYS = ("an ellipticity report must have exactly the keys "
                    "form, kind, sign_change, stabilization, witness_point")
SEARCH_KEYS = ("an ellipticity report's stabilization must have exactly the keys "
               "d_max, factor, trail")

# `stabilize -e "z1*zb1" --n 2 --mode semi --dmax 0` and `symbol -e "x1^2 +
# x2^2"` as the format before the factor was its weighted vectors wrote them:
# a weighted_gram_factor with its rows and a `target` copy of the shifted form.
_FIRST_OF_TWO_SQUARE = {"kind": "bihermitian_form", "n": 2, "r": 1, "terms": [
    {"alpha": [1, 0], "beta": [1, 0], "i": 1, "im": "0", "j": 1, "re": "1"}]}
PARENT_FORMAT_FACTOR_STABILIZE = {
    "command": ["stabilize", "--mode", "semi", "--dmax", "0"],
    "digest": "sha256:da1c9b6697fd4351b4ffbb740eeb18c44c18e54c96f32fed414172e7fcd23ec9",
    "input_digest": "sha256:c9e993fdd162276e85caffbfa30accd57d421d953c662550f63263d7a5da690e",
    "kind": "run_report",
    "result": {"stabilization": {
        "d_max": 0, "d_min": 0,
        "factor": {"kind": "weighted_gram_factor", "n": 2, "rows": [
            {"entries": [[{"alpha": [1, 0], "im": "0", "re": "1"}]], "weight": "1"}],
            "shape": [1, 1], "target": _FIRST_OF_TWO_SQUARE},
        "form": _FIRST_OF_TWO_SQUARE, "kind": "stabilization_report", "mode": "semi",
        "trail": []}},
    "verdicts": {"d_max": 0, "d_min": 0, "found": True, "mode": "semi"},
}
PARENT_FORMAT_FACTOR_SYMBOL = json.loads(json.dumps(PARENT_FORMAT_SYMBOL))
PARENT_FORMAT_FACTOR_SYMBOL["digest"] = (
    "sha256:28080b5d8e6778e335cd0e143b90b0ed2f52b713cc4606be9ecb002406807312")
PARENT_FORMAT_FACTOR_SYMBOL["result"]["ellipticity"]["stabilization"]["trail"] = []

# `factor -e "z1*zb1"` and `decompose -e "z1*zb1 - z2*zb2"` as the format
# before a factor was its weighted vectors on its form wrote them.
_PARENT_FORMAT_FACTOR = {
    "kind": "weighted_gram_factor", "n": 1, "shape": [1, 1], "target": _ONE_VARIABLE_SQUARE,
    "rows": [{"entries": [[{"alpha": [1], "im": "0", "re": "1"}]], "weight": "1"}]}
PARENT_FORMAT_FACTOR = {
    "command": ["factor", "--d", "0"],
    "digest": "sha256:557940f33ca44912b1ea4ad7f2f1e71b3ec8481f063e6a0062cfb01faed57151",
    "input_digest": "sha256:c9e993fdd162276e85caffbfa30accd57d421d953c662550f63263d7a5da690e",
    "kind": "run_report",
    "result": {"factor": _PARENT_FORMAT_FACTOR},
    "verdicts": {"d": 0, "factorable": True, "rows": 1},
}


def _parent_format_part(alpha) -> dict:
    square = {"kind": "bihermitian_form", "n": 2, "r": 1, "terms": [
        {"alpha": alpha, "beta": alpha, "i": 1, "im": "0", "j": 1, "re": "1"}]}
    return {"kind": "weighted_gram_factor", "n": 2, "shape": [1, 1], "target": square,
            "rows": [{"entries": [[{"alpha": alpha, "im": "0", "re": "1"}]], "weight": "1"}]}


PARENT_FORMAT_DECOMPOSE = {
    "command": ["decompose"],
    "digest": "sha256:7daeeb0ead9c049497186bc39ccfba6b62b7b6e0d7fda41b9a0b72056b3d2c78",
    "input_digest": "sha256:254c71ad9ba1bba6aacfec9b7cf50c0c396cb481be0d20681e2fc1f6c651afff",
    "kind": "run_report",
    "result": {"negative": _parent_format_part([0, 1]), "positive": _parent_format_part([1, 0])},
    "verdicts": {"negative_rank": 1, "positive_rank": 1, "sum_of_squares": False},
}
WEIGHTED_FACTOR_KEYS = "a weighted factor must have exactly the keys d, form, kind, vectors"


# The check report of COUPLED's first two variables as the format before L
# was stored wrote it: W by its strictly-lower rows (`transform`) and the
# witness as dense pairs.
PARENT_FORMAT_CHECK = {
    "command": ["check", "--mode", "semi"],
    "digest": "sha256:4974beb7a57e476948e01d04a086606af31afbb1a845fbe7e13a1997ce356075",
    "input_digest": "sha256:da3380a7ba4790887938adff7f9d561229102863bd5fe034b642b7726fa857fe",
    "kind": "run_report",
    "result": {"certificate": {
        "blocks": [], "diag": ["1", "-2"], "kind": "signature_certificate",
        "matrix": [[["1", "0"], ["1", "0"]], [["1", "0"], ["-1", "0"]]],
        "permutation": [0, 1], "size": 2, "transform": [[], [[0, "-1", "0"]]],
        "witness": [["1", "0"], ["-1", "0"]]}},
    "verdicts": {"bidegree": 1, "inertia": {"neg": 1, "pos": 1, "zero": 0}, "matrix_size": 2,
                 "mode": "semi", "passes": False},
}


def _stabilization_with_d_min(report):
    # The stabilization as the writer before search reports held evidence
    # alone wrote it, in a run report or mirrored alone.
    stabilization = report["result"]["stabilization"]
    form = serialize.obj_to_form(stabilization["form"], written=True)
    search = find_minimal_d(form, stabilization["mode"], stabilization["d_max"])
    report["result"]["stabilization"] = reference_stabilization_to_obj(search)
    return report


def _trail_of_a_witness_per_step(report):
    # The stabilization as the writer before the trail held one witness
    # wrote it: a bare witness per failing d = 0, 1, ..., and no d_min.
    report = _stabilization_with_d_min(report)
    del report["result"]["stabilization"]["d_min"]
    return report


TRAIL_FORMAT = "a stabilization report needs a trail of at most one witness"


def _sweep_row_with_d_min(report):
    row = report["result"]["rows"][0]
    row["stabilization"] = _stabilization_with_d_min(
        {"result": {"stabilization": row["stabilization"]}})["result"]["stabilization"]
    return report


def _ellipticity_with_verdict_and_d(report):
    ellipticity = report["result"]["ellipticity"]
    form = serialize.obj_to_form(ellipticity["form"], written=True)
    old = certify_elliptic_form(form, int(report["command"][-1]))
    report["result"]["ellipticity"] = reference_ellipticity_to_obj(old)
    return report


def _ellipticity_with_d(report):
    report["result"]["ellipticity"]["d"] = 0
    return report


def _symbol_stabilization_with_d_min(report):
    report["result"]["ellipticity"]["stabilization"]["d_min"] = 0
    return report


def _symbol_stabilization_report(report):
    # The symbol's search as the writer before the evidence stood alone
    # wrote it: a whole stabilization report, with its kind, strict mode
    # and the form searched.
    ellipticity = report["result"]["ellipticity"]
    form = serialize.obj_to_form(ellipticity["form"], written=True)
    search = certify_elliptic_form(form, int(report["command"][-1])).stabilization
    ellipticity["stabilization"] = serialize.stabilization_to_obj(search)
    return report


def _unknown_mode(report):
    stabilization = report["result"]["stabilization"]
    stabilization["mode"] = "foo"
    return stabilization


# A certificate of any spelling before this one is no artifact kind any more.
PARENT_CERTIFICATE = "unsupported artifact kind 'signature_certificate'"
KERNEL_TERM = "a kernel needs integers n, r and den and terms [i, j, alpha, beta, re, im]"


@pytest.mark.parametrize(
    "argv, outdate, message",
    [
        (["check", "-e", SQUARE_DIFFERENCE], _dense_transform_with_inverse, PARENT_CERTIFICATE),
        # The id names the field's old name; the entries are L's columns.
        (["check", "-e", SQUARE_DIFFERENCE], _lower_columns_of_pairs, PARENT_CERTIFICATE),
        (["check", "-e", SQUARE_DIFFERENCE], _dense_witness, PARENT_CERTIFICATE),
        (["check", "-e", SQUARE_DIFFERENCE], _stored_inertia, PARENT_CERTIFICATE),
        (["check", "-e", SQUARE_DIFFERENCE], _parent_certificate, PARENT_CERTIFICATE),
        (["check", "-e", SQUARE_DIFFERENCE], _check_report_with_parent_certificate,
         "a run report's certificate must be a weighted_gram_factor"),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _form_terms_as_objects,
         KERNEL_TERM),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _trail_step_with_certificate, ""),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _unknown_mode, ""),
        (["check", "-e", SQUARE_DIFFERENCE], lambda report: PARENT_FORMAT_CHECK, ""),
        (["stabilize", "-e", "z1*zb1", "--n", "2", "--dmax", "0"],
         lambda report: PARENT_FORMAT_STABILIZE, STABILIZATION_KEYS),
        (["symbol", "-e", "x1^2 + x2^2"], lambda report: PARENT_FORMAT_SYMBOL, ELLIPTICITY_KEYS),
        (["stabilize", "-e", "z1*zb1", "--n", "2", "--mode", "semi", "--dmax", "0"],
         lambda report: PARENT_FORMAT_FACTOR_STABILIZE, STABILIZATION_KEYS),
        (["symbol", "-e", "x1^2 + x2^2"], lambda report: PARENT_FORMAT_FACTOR_SYMBOL,
         ELLIPTICITY_KEYS),
        (["factor", "-e", "z1*zb1"], lambda report: PARENT_FORMAT_FACTOR, WEIGHTED_FACTOR_KEYS),
        (["factor", "-e", "z1*zb1"], lambda report: _PARENT_FORMAT_FACTOR, WEIGHTED_FACTOR_KEYS),
        (["decompose", "-e", "z1*zb1 - z2*zb2"], lambda report: PARENT_FORMAT_DECOMPOSE,
         "does not have exactly the keys that decompose writes"),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _stabilization_with_d_min,
         STABILIZATION_KEYS),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "1"], _stabilization_with_d_min,
         STABILIZATION_KEYS),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"],
         lambda report: _stabilization_with_d_min(report)["result"]["stabilization"],
         STABILIZATION_KEYS),
        (SWEEP_ONE, _sweep_row_with_d_min, STABILIZATION_KEYS),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _trail_of_a_witness_per_step,
         TRAIL_FORMAT),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "1"], _trail_of_a_witness_per_step,
         TRAIL_FORMAT),
        (["stabilize", "-e", DIAGONAL_QUARTIC], _trail_of_a_witness_per_step, TRAIL_FORMAT),
        (["symbol", "-e", DIAGONAL_QUARTIC], _ellipticity_with_verdict_and_d, ELLIPTICITY_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC, "--dmax", "0"], _ellipticity_with_verdict_and_d,
         ELLIPTICITY_KEYS),
        (["symbol", "-e", "z1*zb1", "--n", "2"], _ellipticity_with_verdict_and_d,
         ELLIPTICITY_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC],
         lambda report: _ellipticity_with_verdict_and_d(report)["result"]["ellipticity"],
         ELLIPTICITY_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC], _ellipticity_with_d, ELLIPTICITY_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC], _symbol_stabilization_with_d_min, SEARCH_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC], _symbol_stabilization_report, SEARCH_KEYS),
        (["symbol", "-e", "-z1^2*zb1^2 - z2^2*zb2^2", "--dmax", "0"],
         _symbol_stabilization_report, SEARCH_KEYS),
        (["symbol", "-e", DIAGONAL_QUARTIC],
         lambda report: _symbol_stabilization_report(report)["result"]["ellipticity"],
         SEARCH_KEYS),
    ],
    ids=[
        "dense_transform_with_inverse",
        "transform_rows_of_pairs",
        "dense_witness",
        "stored_inertia",
        "parent_certificate",
        "check_report_with_parent_certificate",
        "form_terms_as_objects",
        "trail_step_with_certificate",
        "unknown_mode",
        "dense_witness_and_transform",
        "trail_of_congruences",
        "ellipticity_with_trail_of_congruences",
        "factor_with_rows_and_target",
        "ellipticity_with_factor_with_rows_and_target",
        "factor_report_with_rows_and_target",
        "weighted_factor_with_rows_and_target",
        "decompose_report_with_rows_and_target",
        "stabilization_with_d_min",
        "inconclusive_stabilization_with_d_min",
        "stabilization_mirror_with_d_min",
        "sweep_row_with_d_min",
        "trail_of_a_witness_per_step",
        "inconclusive_trail_of_a_witness_per_step",
        "trail_of_one_bare_witness",
        "ellipticity_with_verdict_and_d",
        "not_certified_ellipticity_with_verdict_and_d",
        "not_elliptic_ellipticity_with_verdict_and_d",
        "ellipticity_mirror_with_verdict_and_d",
        "ellipticity_with_d",
        "symbol_stabilization_with_d_min",
        "symbol_stabilization_report",
        "not_certified_negated_symbol_stabilization_report",
        "ellipticity_mirror_with_stabilization_report",
    ],
)
def test_verify_refuses_other_formats(capsys, tmp_path, argv, outdate, message):
    # The report from --out, as a sweep writes CSV to stdout.
    path = tmp_path / "outdated.json"
    run(capsys, argv + ["--out", str(path)])
    path.write_text(json.dumps(outdate(json.loads(path.read_text()))))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert "not in the current certificate format" in err and message in err
    assert "Traceback" not in err


def test_verify_binds_run_report_verdicts(capsys, tmp_path):
    code, out, _ = run(capsys, ["check", "-e", "z1*zb1 - z2*zb2", "--mode", "semi"])
    assert code == 1
    report = json.loads(out)
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run(capsys, ["verify", str(path)])[0] == 0
    report["verdicts"]["passes"] = True
    report["verdicts"]["inertia"] = {"pos": 2, "neg": 0, "zero": 0}
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out) == {"valid": False, "reason": "verdicts do not match the embedded artifacts"}


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["check", "-e", DIAGONAL_QUARTIC, "--mode", "strict"], "passes", True),
        (["check", "-e", DIAGONAL_QUARTIC, "--mode", "strict"], "matrix_size", 4),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], "d_min", 2),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], "found", False),
        (["factor", "-e", SQUARE_DIFFERENCE], "factorable", True),
        (["factor", "-e", DIAGONAL_QUARTIC], "rows", 3),
        (["symbol", "-e", DIAGONAL_QUARTIC], "verdict", "not_certified"),
        (["symbol", "-e", DIAGONAL_QUARTIC], "d", 0),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], "mode", "semi"),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], "d_max", 6),
        (["symbol", "-e", "x1^2+x2^2"], "order", 4),
        (["symbol", "-e", "x1^2+x2^2"], "complex_dim", 2),
        (SWEEP_ONE, "rows", [{"label": "q", "d_min": 2, "error": None}]),
        (["decompose", "-e", SQUARE_DIFFERENCE], "sum_of_squares", True),
        (["symbol", "-e", "x1^2+x2^2"], "summary", "elliptic"),
        (["factor", "-e", DIAGONAL_QUARTIC], "d", 1),
    ],
)
def test_verify_rejects_each_rewritten_verdict(capsys, tmp_path, argv, field, value):
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    report = json.loads(path.read_text())
    assert report["verdicts"][field] != value
    report["verdicts"][field] = value
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1 and json.loads(out)["reason"] == "verdicts do not match the embedded artifacts"


def test_verify_rejects_an_extra_verdict(capsys, tmp_path):
    path = tmp_path / "report.json"
    run(capsys, ["check", "-e", DIAGONAL_QUARTIC, "--mode", "strict", "--out", str(path)])
    report = json.loads(path.read_text())
    assert "note" not in report["verdicts"]
    report["verdicts"]["note"] = "definite"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1 and json.loads(out)["reason"] == "verdicts do not match the embedded artifacts"



def _stabilization_form_list(capsys):
    report = json.loads(run(capsys, ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"])[1])
    report["result"]["stabilization"]["form"] = []
    return report


def _verdicts_list(capsys):
    report = json.loads(run(capsys, ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"])[1])
    report["verdicts"] = []
    return report


def _command_string(capsys):
    # command[0] of the string is "s", a command with no bound verdicts
    report = json.loads(run(capsys, ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"])[1])
    report["command"] = "stabilize"
    return report


def _factor_shape_of_one(capsys):
    # `shape` left the factor with its polynomial rows.
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    report["result"]["factor"]["shape"] = [4]
    return report


def _verdicts_from_unverified_object(capsys):
    # The certificate without its kind escapes the artifact walk; a valid
    # spare certificate stands in for it.
    report = json.loads(run(capsys, ["check", "-e", "z1*zb1 - z2*zb2", "--mode", "semi"])[1])
    spare = json.loads(run(capsys, ["check", "-e", "z1*zb1 + z2*zb2", "--mode", "semi"])[1])
    cert = report["result"]["certificate"]
    del cert["kind"]
    cert["diag"], cert["witness"] = ["1", "1"], None
    report["result"]["spare"] = spare["result"]["certificate"]
    report["verdicts"]["passes"] = True
    report["verdicts"]["inertia"] = {"pos": 2, "neg": 0, "zero": 0}
    return report


def _result_is_a_factor_with_forged_certificate(capsys):
    # The walk stops at the factor that `result` has become, so the forged
    # certificate inside it is never verified.
    report = json.loads(run(capsys, ["check", "-e", "z1*zb1 - z2*zb2", "--mode", "semi"])[1])
    factor = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])["result"]["factor"]
    cert = report["result"]["certificate"]
    cert["diag"], cert["witness"] = ["1", "1"], None
    report["result"] = {**factor, "certificate": cert}
    report["verdicts"]["passes"] = True
    report["verdicts"]["inertia"] = {"pos": 2, "neg": 0, "zero": 0}
    return report


def _sweep_row_is_a_factor(capsys):
    # The walk stops at the row, which carries a factor's kind, so its
    # rewritten stabilization is never verified.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sweep.json"
        run(capsys, SWEEP_ONE + ["--out", str(path)])
        report = json.loads(path.read_text())
    factor = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])["result"]["factor"]
    row = report["result"]["rows"][0]
    row["stabilization"]["d_min"] = 0
    report["result"]["rows"][0] = {**factor, **row}
    report["verdicts"]["rows"][0]["d_min"] = 0
    return report


def _factor_report_with_certificate_too(capsys):
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    check = json.loads(run(capsys, ["check", "-e", DIAGONAL_QUARTIC, "--mode", "semi"])[1])
    report["result"]["certificate"] = check["result"]["certificate"]
    return report


def _factor_report_with_neither(capsys):
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    del report["result"]["factor"]
    return report


def _factor_report_with_psd_certificate_only(capsys):
    report = _factor_report_with_certificate_too(capsys)
    del report["result"]["factor"]
    report["verdicts"].update(factorable=False, rows=0)
    return report


def _numeric_float_digits(capsys, digits):
    argv = ["factor", "-e", DIAGONAL_QUARTIC, "--numeric"]
    report = json.loads(run(capsys, argv)[1])
    report["result"]["numeric_factor"]["float_digits"] = digits
    return report


def _factor_zero_entry_of_wrong_length(capsys):
    # A zero entry is no spelling of a vector, and its index repeats the last one.
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    entries = report["result"]["factor"]["vectors"][0][1]
    entries.append([entries[-1][0], 0, 0])
    return report


def _factor_form_zero_term_out_of_range(capsys):
    # A zero term is no spelling of a form, and i = 9 is past r = 1.
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    report["result"]["factor"]["form"]["terms"].append([9, 1, [2, 0], [2, 0], 0, 0])
    return report


def _certificate_without_kind(capsys):
    report = json.loads(run(capsys, ["check", "-e", "z1*zb1 - z2*zb2", "--mode", "semi"])[1])
    del report["result"]["certificate"]["kind"]
    return report


def _witness_pair_of_one(capsys):
    report = json.loads(run(capsys, ["check", "-e", SQUARE_DIFFERENCE, "--mode", "semi"])[1])
    report["result"]["certificate"]["witness"][0] = ["1"]
    return report


@pytest.mark.parametrize(
    "make",
    [
        lambda capsys: [1, 2],
        lambda capsys: "x",
        lambda capsys: 5,
        lambda capsys: None,
        _stabilization_form_list,
        _verdicts_list,
        _command_string,
        _witness_pair_of_one,
        _factor_shape_of_one,
        _verdicts_from_unverified_object,
        _result_is_a_factor_with_forged_certificate,
        _sweep_row_is_a_factor,
        _factor_report_with_certificate_too,
        _factor_report_with_neither,
        _factor_report_with_psd_certificate_only,
        lambda capsys: _numeric_float_digits(capsys, "12"),
        lambda capsys: _numeric_float_digits(capsys, 10**9),
        _factor_zero_entry_of_wrong_length,
        _factor_form_zero_term_out_of_range,
        _certificate_without_kind,
    ],
    ids=["list", "string", "number", "null", "form_list", "verdicts_list", "command_string",
         "witness_pair_of_one", "factor_shape_of_one", "verdicts_from_unverified_object",
         "result_is_a_factor", "sweep_row_is_a_factor",
         "factor_with_certificate_too", "factor_with_neither", "factor_psd_certificate_only",
         "float_digits_string", "float_digits_huge", "factor_zero_entry_of_wrong_length",
         "factor_form_zero_term_out_of_range", "certificate_without_kind"],
)
def test_verify_malformed_shapes_are_input_errors(capsys, tmp_path, make):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(make(capsys)))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    if make is _certificate_without_kind:
        assert err == ("error: artifact is not in the current certificate format: a run "
                       "report's certificate must be a weighted_gram_factor\n")


def _first_numeric_value(result):
    result["numeric_factor"]["rows"][0][0]["value"][0] = 99.0


def _ellipticity_rendered_before_the_certificate(result):
    # A verified artifact at a rendering key, walked after the certificate:
    # the verdicts still take the certificate's basis.
    certificate = result.pop("certificate")
    ellipticity = certify_elliptic_form(parse_expression("z1*zb1 + z2*zb2"), 4)
    result.update(operator_rows=serialize.ellipticity_to_obj(ellipticity), certificate=certificate)


@pytest.mark.parametrize(
    "argv, rewrite",
    [
        (["symbol", "-e", "x1^2 + x2^2"], lambda result: result.update(operator_rows=["(7)*Dz2"])),
        (["symbol", "-e", "x1^2 + x2^2"], lambda result: result.pop("operator_rows")),
        (["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"], _first_numeric_value),
        (["factor", "-e", INDEFINITE_QUARTIC, "--d", "1"],
         lambda result: result.update(operator_rows=["(1)*Dz1"])),
        (["check", "-e", DIAGONAL_QUARTIC], _ellipticity_rendered_before_the_certificate),
    ],
    ids=["operator_rows", "operator_rows_dropped", "numeric_value", "foreign_rendering",
         "artifact_at_a_rendering_key"],
)
def test_verify_rejects_a_rewritten_rendering(capsys, tmp_path, argv, rewrite):
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    assert run(capsys, ["verify", str(path)])[0] == 0
    report = json.loads(path.read_text())
    rewrite(report["result"])
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out)["reason"] == "renderings do not match the embedded artifacts"


@pytest.mark.parametrize("digits", ["-1", "1001"])
def test_factor_float_digits_out_of_range_is_an_input_error(capsys, digits):
    argv = ["factor", "-e", DIAGONAL_QUARTIC, "--numeric", "--float-digits", digits]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: float digits must be an integer from 0 to 1000\n"


@pytest.mark.parametrize("expr", ["z1*zb1 - z2*zb2", "z1*zb1 + z2*zb2", "z1*zb1 +"],
                         ids=["indefinite", "definite", "unreadable"])
def test_factor_float_digits_are_refused_before_the_form_is_read(capsys, expr):
    # An indefinite form has no numeric rendering, yet its bad digits are an
    # input error too: they are refused before the form is read at all.
    code, out, err = run(capsys, ["factor", "-e", expr, "--numeric", "--float-digits", "-5"])
    assert code == 2 and out == ""
    assert err == "error: float digits must be an integer from 0 to 1000\n"


@pytest.mark.parametrize("digits, err", [
    ("-5", "error: float digits must be an integer from 0 to 1000\n"),
    ("5", "error: --float-digits needs --numeric\n"),
], ids=["out_of_range", "in_range"])
def test_float_digits_without_numeric_are_an_input_error(capsys, digits, err):
    # --float-digits has an effect only with --numeric, which without it
    # renders 12 digits: digits given alone are refused, checked first.
    assert run(capsys, ["factor", "-e", "z1*zb1", "--float-digits", digits]) == (2, "", err)
    report = json.loads(run(capsys, ["factor", "-e", "z1*zb1", "--numeric"])[1])
    assert report["result"]["numeric_factor"]["float_digits"] == 12


def test_restamped_float_digits_out_of_range_are_an_input_error_whatever_the_factor(
        capsys, tmp_path):
    # Digits out of range on a report restamped as a forger would are
    # refused alike beside a positive factor and beside a signed one, which
    # has no rendering: they are checked before the rendering is derived.
    path = tmp_path / "report.json"
    for expr in ("z1*zb1 + z2*zb2", "z1*zb1 - z2*zb2"):
        report = json.loads(run(capsys, ["factor", "-e", expr, "--numeric"])[1])
        numeric = report["result"].setdefault("numeric_factor",
                                              {"kind": "numeric_factor", "rows": []})
        numeric["float_digits"] = -5
        path.write_text(json.dumps(_restamp(report)))
        assert run(capsys, ["verify", str(path)]) == (
            2, "", "error: float digits must be an integer from 0 to 1000\n")


def test_numeric_factor_names_the_column_of_each_entry(capsys, tmp_path):
    # A matrix kernel of r = 2 columns: each entry of a numeric row names its
    # column i, so sum over rows of h_i conj(h_j) reassembles M within float
    # error, and verify derives the same rendering.
    path = tmp_path / "fn.json"
    argv = ["factor", "-e", "[[z1*zb1, z1*zb1],[z1*zb1, 2*z1*zb1]]", "--numeric",
            "--float-digits", "6", "--out", str(path)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rows = json.loads(out)["result"]["numeric_factor"]["rows"]
    assert {entry["i"] for row in rows for entry in row} == {1, 2}
    total = {}
    for row in rows:
        for a in row:
            for b in row:
                key = (a["i"], b["i"], tuple(a["alpha"]), tuple(b["alpha"]))
                product = complex(*a["value"]) * complex(*b["value"]).conjugate()
                total[key] = total.get(key, 0) + product
    want = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    assert total.keys() == {(i, j, (1,), (1,)) for i, j in want}
    assert all(abs(total[(i, j, (1,), (1,))] - c) < 1e-5 for (i, j), c in want.items())
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0 and json.loads(out) == {"valid": True, "reason": "ok"}


@pytest.mark.parametrize(
    "argv",
    [SWEEP_ONE, ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"],
     ["symbol", "-e", "x1^2+x2^2", "--dmax", "16"]],
    ids=["sweep", "stabilize", "symbol"],
)
def test_verify_refuses_a_search_other_than_the_command(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    report = json.loads(path.read_text())
    assert report["command"][-2] == "--dmax"
    report["command"][-1] = str(int(report["command"][-1]) + 1)
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, ["verify", str(path)])
    # A symbol's search is strict, and its report records --dmax alone.
    options = "--dmax" if argv[0] == "symbol" else "--mode and --dmax"
    assert code == 2 and out == "" and f"was not searched with the command's {options}\n" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-string digit limit",
)
@pytest.mark.parametrize(
    "expr, position",
    [("2^9999999*z1*zb1", 1), ("(1+i)^3000000*z1*zb1", 5), ("7" * 5000 + "*z1*zb1", 0)],
    ids=["power", "gaussian-power", "literal"],
)
def test_oversized_coefficients_are_input_errors_with_a_position(capsys, expr, position):
    code, out, err = run(capsys, ["check", "-e", expr])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(f"(at position {position})\n")
    assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-string digit limit",
)
def test_report_numbers_past_the_digit_limit_are_input_errors(capsys, tmp_path):
    # Every coefficient has 2409 digits, so the parser accepts them, but d_1
    # of the LDL has 4817.
    path = tmp_path / "report.json"
    expr = "2^8000*z1*zb1 + z1*zb2 + z2*zb1 + 2^8000*z2*zb2"
    code, out, err = run(capsys, ["check", "--mode", "strict", "-e", expr, "--out", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int-to-string limit" in err and "Traceback" not in err


def _stabilization_form_not_hermitian(stabilization):
    # |z2|^4 gets coefficient 1 + i: a diagonal term that is not real.
    stabilization["form"]["terms"][0][5] = 1


def _stabilization_form_of_mixed_bidegree(stabilization):
    # |z1|^2, in key order
    stabilization["form"]["terms"].insert(1, [1, 1, [1, 0], [1, 0], 1, 0])


def _stabilization_trail_emptied(stabilization):
    stabilization.update(trail=[], factor=None)


@pytest.mark.parametrize(
    "rewrite, code, stdout, stderr",
    [
        # the wire has no spelling of a form that is not Hermitian-symmetric
        (_stabilization_form_not_hermitian, 2, "",
         "error: artifact is not in the current certificate format: a kernel term that is its "
         "own twin must be real\n"),
        (_stabilization_form_of_mixed_bidegree, 2, "",
         "error: form has mixed bidegrees\n"),
        (_stabilization_trail_emptied, 1, '{"valid": false, "reason": "without a factor the '
         'witness must be at the last searched d=5"}\n', ""),
    ],
    ids=["form_not_hermitian", "form_of_mixed_bidegree", "trail_emptied"],
)
def test_verify_of_a_rewritten_stabilization_form_or_trail(capsys, tmp_path, rewrite, code,
                                                            stdout, stderr):
    # The exponent loop re-derives every step's matrix from the embedded
    # form; these exits and messages are those of the search's first version.
    path = tmp_path / "report.json"
    run(capsys, ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5", "--out", str(path)])
    report = json.loads(path.read_text())
    rewrite(report["result"]["stabilization"])
    path.write_text(json.dumps(report))
    assert run(capsys, ["verify", str(path)]) == (code, stdout, stderr)


def _one_term_form(re) -> dict:
    return {"kind": "bihermitian_form", "n": 1, "r": 1,
            "terms": [{"i": 1, "j": 1, "alpha": [1], "beta": [1], "re": re, "im": "0"}]}


def _no_rational_argv(site, spelling, tmp_path, capsys) -> list[str]:
    path = tmp_path / "input.json"
    if site == "check_form":
        path.write_text(json.dumps(_one_term_form(spelling)))
        return ["check", str(path)]
    if site == "sweep_member_form":
        return ["sweep", "-e", json.dumps([{"label": "a", "form": _one_term_form(spelling)}])]
    run(capsys, ["check", "-e", "z1*zb1 + z2*zb2", "--out", str(path)])
    report = json.loads(path.read_text())
    cert = report["result"]["certificate"]
    if site == "verify_weight":
        cert["vectors"][0][0] = spelling
    else:
        cert["form"]["terms"][0][4] = spelling
    path.write_text(json.dumps(report))
    return ["verify", str(path)]


@pytest.mark.parametrize("spelling", ["1/0", "+1/0", None, float("inf")])
@pytest.mark.parametrize("site", ["check_form", "sweep_member_form", "verify_weight",
                                  "verify_form"])
def test_a_value_that_is_not_a_rational_is_an_input_error(capsys, tmp_path, site, spelling):
    # A zero denominator, JSON null or Infinity; "+1/0" is not in the
    # written spelling, so it takes the Fraction path.
    argv = _no_rational_argv(site, spelling, tmp_path, capsys)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _retyped_form(key, value) -> dict:
    form = _one_term_form("1")
    (form if key in ("n", "r", "terms") else form["terms"][0])[key] = value
    return form


@pytest.mark.parametrize("key, value", [("i", "1"), ("j", 1.5), ("alpha", 1), ("beta", None),
                                        ("n", "1"), ("terms", {}), ("re", True), ("re", 0.1)])
@pytest.mark.parametrize("command", ["check", "stabilize", "symbol", "sweep"])
def test_a_form_field_of_the_wrong_type_is_an_input_error(capsys, tmp_path, command, key, value):
    form = _retyped_form(key, value)
    path = tmp_path / "input.json"
    if command == "sweep":
        path.write_text(json.dumps([{"label": "a", "form": form}]))
    else:
        path.write_text(json.dumps(form))
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_a_zero_term_with_bad_indices_is_an_input_error(capsys, tmp_path):
    # The term is 0, but its i is past r = 1 and its alpha is longer than n = 1.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "bihermitian_form", "n": 1, "r": 1, "terms": [
        {"i": 7, "j": 1, "alpha": [1, 5], "beta": [1], "re": "0", "im": "0"}]}))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "-e", INDEFINITE_QUARTIC, "--mode", "strict"],
    ["stabilize", "-e", INDEFINITE_QUARTIC, "--mode", "strict", "--dmax", "4"],
    ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"],
    ["symbol", "-e", "x1^2 + x2^2 + x3^2 + x4^2"],
    ["decompose", "-e", SQUARE_DIFFERENCE],
], ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_their_layout(capsys, tmp_path, argv):
    # The digest hashes the canonical encoding of the report without its
    # digest and timings, and verify reads any layout of the same object.
    path = tmp_path / "report.json"
    _, out, _ = run(capsys, argv + ["--out", str(path)])
    report = json.loads(out)
    unstamped = {k: v for k, v in report.items() if k not in ("digest", "timings")}
    canonical = serialize.canonical_json(unstamped).encode()
    assert report["digest"] == "sha256:" + hashlib.sha256(canonical).hexdigest()
    assert out == path.read_text() == serialize.canonical_json(report) + "\n"
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(report, sort_keys=True, indent=2))
    assert run(capsys, ["verify", str(indented)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


RUN_REPORT_ARGV = [
    ["check", "-e", DIAGONAL_QUARTIC, "--mode", "semi"],
    ["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"],
    ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"],
    SWEEP_ONE,
    ["symbol", "-e", "x1^2 + x2^2"],
    ["decompose", "-e", SQUARE_DIFFERENCE],
]


def _extra_top_level_key(report):
    report["claim"] = "anything"


def _extra_result_key(report):
    report["result"]["note"] = "F is PD at d=0"


@pytest.mark.parametrize("argv", RUN_REPORT_ARGV, ids=lambda argv: argv[0])
@pytest.mark.parametrize("rewrite", [_extra_top_level_key, _extra_result_key],
                         ids=["top_level", "result"])
def test_verify_refuses_content_that_no_check_covers(capsys, tmp_path, argv, rewrite):
    # Every key of a run report and of its result is either checked or
    # derived; an extra one claims what nothing verifies.
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    assert run(capsys, ["verify", str(path)])[0] == 0
    report = json.loads(path.read_text())
    rewrite(report)
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: artifact is not in the current certificate format")


def test_verify_refuses_an_extra_sweep_row_key(capsys, tmp_path):
    path = tmp_path / "report.json"
    run(capsys, SWEEP_ONE + ["--out", str(path)])
    report = json.loads(path.read_text())
    report["result"]["rows"][0]["note"] = "d_min is 2"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == "" and "does not have exactly the keys that sweep writes" in err


@pytest.mark.parametrize("argv", RUN_REPORT_ARGV, ids=lambda argv: argv[0])
def test_a_run_report_without_timings_verifies(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    report = json.loads(path.read_text())
    del report["timings"]
    path.write_text(json.dumps(report))
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


@pytest.mark.parametrize("argv", [
    ["stabilize", "-e", INDEFINITE_QUARTIC, "--mode", "strict", "--dmax", "5"],
    ["stabilize", "-e", "z1^2*zb1^2 - 3/2*z1*z2*zb1*zb2 + z2^2*zb2^2", "--mode", "semi"],
    ["stabilize", "-e", SQUARE_DIFFERENCE, "--mode", "semi", "--dmax", "4"],
], ids=["strict", "semi", "inconclusive"])
def test_stabilize_and_its_verify_build_no_form_and_no_factor(capsys, tmp_path, monkeypatch, argv):
    # The passing exponent is proved by its certificate's weighted vectors,
    # checked against the rows of the exponent loop: neither the search nor
    # verify rebuilds the shifted form or a polynomial factor.
    from hermfact import factor, hermform, stabilize

    def refuse(*args, **kwargs):
        raise AssertionError("a stabilization built a form or a factor")

    for owner, name in ((hermform, "gram"), (factor, "gram"), (serialize, "obj_to_factor"),
                        (hermform, "from_coefficient_matrix"),
                        (stabilize, "from_coefficient_matrix")):
        monkeypatch.setattr(owner, name, refuse)
    path = tmp_path / "report.json"
    assert run(capsys, argv + ["--out", str(path)])[0] in (0, 3)
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


# A factor or decomposition proves its claim about the form it embeds: its
# weighted vectors give M_d of that form, at the command's d.  Each forgery
# below is a well-formed report whose factor does not prove its verdicts.
FACTOR_D1_FORM = "z1^2*zb1^2 + z2^2*zb2^2 - z1*z2*zb1*zb2"
UNMATCHED_VERDICTS = "verdicts do not match the embedded artifacts"


def _decompose_negative_part_emptied(capsys):
    # Rewritten to a sum of squares: no negative vector, no negative rank.
    report = json.loads(run(capsys, ["decompose", "-e", "z1*zb1 - z2*zb2"])[1])
    vectors = report["result"]["decomposition"]["vectors"]
    vectors[:] = [item for item in vectors if item[0][0] > 0]
    report["verdicts"].update(negative_rank=0, sum_of_squares=True)
    return report


def _decompose_vector_deleted(capsys):
    report = json.loads(run(capsys, ["decompose", "-e", SQUARE_DIFFERENCE])[1])
    del report["result"]["decomposition"]["vectors"][0]
    report["verdicts"]["positive_rank"] -= 1
    return report


def _factor_relabelled_to_d0(capsys):
    # `factor --d 0` exits 1 on this form: M_0 is not PSD.
    report = json.loads(run(capsys, ["factor", "-e", FACTOR_D1_FORM, "--d", "1"])[1])
    report["command"][-1] = "0"
    report["verdicts"]["d"] = 0
    return report


def _factor_command_relabelled(capsys):
    report = json.loads(run(capsys, ["factor", "-e", FACTOR_D1_FORM, "--d", "1"])[1])
    report["command"][-1] = "0"
    return report


def _factor_artifact_d_lowered(capsys):
    report = json.loads(run(capsys, ["factor", "-e", FACTOR_D1_FORM, "--d", "1"])[1])
    report["result"]["factor"]["d"] = 0
    return report


def _factor_weight_zero(capsys):
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    report["result"]["factor"]["vectors"][0][0] = [0, 1]
    return report


def _decomposition_as_a_factor(capsys):
    # Signed weights give F, but only positive ones prove it PSD.
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    decomposition = json.loads(run(capsys, ["decompose", "-e", SQUARE_DIFFERENCE])[1])
    report["result"]["factor"] = decomposition["result"]["decomposition"]
    return report


def _decomposition_of_the_shifted_form(capsys):
    # <z,w> F is a sum of squares, F is not.
    report = json.loads(run(capsys, ["decompose", "-e", FACTOR_D1_FORM])[1])
    factor = json.loads(run(capsys, ["factor", "-e", FACTOR_D1_FORM, "--d", "1"])[1])
    report["result"]["decomposition"] = factor["result"]["factor"]
    report["verdicts"].update(positive_rank=2, negative_rank=0, sum_of_squares=True)
    return report


@pytest.mark.parametrize(
    "forge, reason",
    [
        (_decompose_negative_part_emptied, "factor: congruence identity fails at (1,1)"),
        (_decompose_vector_deleted, "factor: congruence identity fails at"),
        (_factor_relabelled_to_d0, UNMATCHED_VERDICTS),
        (_factor_command_relabelled, UNMATCHED_VERDICTS),
        (_factor_artifact_d_lowered, "factor index out of range"),
        (_factor_weight_zero, "factor weight is zero"),
        (_decomposition_as_a_factor, UNMATCHED_VERDICTS),
        (_decomposition_of_the_shifted_form, UNMATCHED_VERDICTS),
    ],
    ids=["decompose_negative_part_emptied", "decompose_vector_deleted", "factor_relabelled_to_d0",
         "factor_command_relabelled", "factor_artifact_d_lowered", "factor_weight_zero",
         "decomposition_as_a_factor", "decomposition_of_the_shifted_form"],
)
def test_verify_rejects_a_factor_that_does_not_prove_its_report(capsys, tmp_path, forge, reason):
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forge(capsys)))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 1 and err == ""
    assert json.loads(out)["reason"].startswith(reason)


def test_factor_d0_of_the_relabelled_form_fails(capsys):
    code, out, _ = run(capsys, ["factor", "-e", FACTOR_D1_FORM, "--d", "0"])
    assert code == 1 and json.loads(out)["verdicts"]["factorable"] is False


def test_factor_at_d0_reads_a_form_of_mixed_degrees_on_its_own_basis(capsys, tmp_path):
    # At d = 0, factor reads M_0 on the form's own basis, the monomials 1 and
    # z1 here, as decompose and verify do: 1 + |z1|^2 = |1|^2 + |z1|^2, and
    # 1 - |z1|^2 fails.  Past d = 0 the form has no M_d.
    mixed, path = "1 + z1*zb1", tmp_path / "factor.json"
    code, out, err = run(capsys, ["factor", "-e", mixed, "--numeric", "--out", str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdicts"] == {"d": 0, "factorable": True, "rows": 2}
    decomposition = json.loads(run(capsys, ["decompose", "-e", mixed])[1])["result"]
    assert report["result"]["factor"] == decomposition["decomposition"]
    assert [[term["alpha"] for term in row] for row in report["result"]["numeric_factor"]["rows"]
            ] == [[[0]], [[1]]]
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")
    assert run(capsys, ["factor", "-e", "1 - z1*zb1", "--d", "0"])[0] == 1
    assert run(capsys, ["factor", "-e", mixed, "--d", "1"]) == (
        2, "", "error: form has mixed bidegrees\n")


@pytest.mark.parametrize("argv", [
    ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"],
    ["factor", "-e", "z1*zb1 + 1/2*z1*zb2 + 1/2*z2*zb1 + z2*zb2"],
    ["decompose", "-e", SQUARE_DIFFERENCE],
    ["decompose", "-e", "1 + z1*zb2 + z2*zb1"],
], ids=["factor_numeric", "factor", "decompose", "decompose_mixed_bidegree"])
def test_factor_and_decompose_verify_build_no_gram_and_no_rows(capsys, tmp_path, monkeypatch,
                                                               argv):
    # verify rebuilds M_d from the embedded form and checks the weighted
    # vectors against it; no polynomial row is read and no gram is summed.
    from hermfact import factor, hermform

    path = tmp_path / "report.json"
    assert run(capsys, argv + ["--out", str(path)])[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("verify built polynomial rows or a gram")

    for owner, name in ((hermform, "gram"), (factor, "gram")):
        monkeypatch.setattr(owner, name, refuse)
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


# The numeric rendering of the README's `factor` example, as the format
# before a factor was its weighted vectors wrote it, with the column i of
# each entry, which a kernel of more than one column needs.
README_NUMERIC_FACTOR = ('{"float_digits":12,"kind":"numeric_factor","rows":'
                         '[[{"alpha":[3,0],"i":1,"value":[1.0,0.0]}],'
                         '[{"alpha":[0,3],"i":1,"value":[1.0,0.0]}]]}')


def test_numeric_rendering_of_the_readme_factor_is_unchanged(capsys):
    code, out, _ = run(capsys, ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"])
    assert code == 0
    numeric = json.loads(out)["result"]["numeric_factor"]
    assert serialize.canonical_json(numeric) == README_NUMERIC_FACTOR


# The cancelling pair [[1, 1], v], [[-1, 1], v] adds nothing to the sum of a
# factor, but raises both weight counts; two equal vectors are not independent.
CANCELLING_PAIR = [[[1, 1], [[0, 1, 0], [1, 1, 0]]], [[-1, 1], [[0, 1, 0], [1, 1, 0]]]]


def _decompose_with_cancelling_pair(capsys):
    report = json.loads(run(capsys, ["decompose", "-e", "z1*zb1 - z2*zb2"])[1])
    report["result"]["decomposition"]["vectors"] += CANCELLING_PAIR
    report["verdicts"].update(positive_rank=2, negative_rank=2)
    return report


def _check_with_cancelling_pair(capsys):
    report = json.loads(run(capsys, ["check", "-e", "z1*zb1 - z2*zb2 + z3*zb3"])[1])
    report["result"]["certificate"]["vectors"] += CANCELLING_PAIR
    report["verdicts"]["inertia"] = {"pos": 3, "neg": 2, "zero": -2}
    return report


def _check_with_vectors_of_another_form(capsys):
    # The vectors and witness of z1*zb1 - 2*z2*zb2 on the form z1*zb1 - z2*zb2:
    # same size, same inertia, another matrix.
    report = json.loads(run(capsys, ["check", "-e", "z1*zb1 - z2*zb2"])[1])
    other = json.loads(run(capsys, ["check", "-e", "z1*zb1 - 2*z2*zb2"])[1])
    assert report["verdicts"] == other["verdicts"]
    for key in ("vectors", "witness"):
        report["result"]["certificate"][key] = other["result"]["certificate"][key]
    return report


@pytest.mark.parametrize(
    "forge, reason",
    [(_decompose_with_cancelling_pair, "factor vectors are not independent"),
     (_check_with_cancelling_pair, "factor vectors are not independent"),
     (_check_with_vectors_of_another_form, "factor: congruence identity fails at (1,1)")],
    ids=["decompose_cancelling_pair", "check_cancelling_pair", "check_vectors_of_another_form"],
)
def test_verify_rejects_evidence_that_does_not_prove_the_inertia(capsys, tmp_path, forge, reason):
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forge(capsys)))
    assert run(capsys, ["verify", str(path)]) == (
        1, json.dumps({"valid": False, "reason": reason}) + "\n", "")


def test_strict_check_of_a_singular_psd_form_verifies(capsys, tmp_path):
    # M = [[1, 1], [1, 1]] is PSD of rank 1: one positive weight, no witness,
    # and the zero count is the size less the one independent vector.
    path = tmp_path / "report.json"
    expr = "z1*zb1 + z1*zb2 + z2*zb1 + z2*zb2"
    code, out, _ = run(capsys, ["check", "--mode", "strict", "-e", expr, "--out", str(path)])
    report = json.loads(out)
    assert code == 1 and report["verdicts"]["passes"] is False
    assert report["verdicts"]["inertia"] == {"pos": 1, "neg": 0, "zero": 1}
    assert report["result"]["certificate"]["witness"] is None
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


def test_check_of_one_large_index_writes_a_small_report(capsys, tmp_path):
    # The 1000x1000 coefficient matrix has one nonzero entry: the report holds
    # the one-term form, one weighted vector and no matrix.
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, ["check", "-e", "z1000*zb1000", "--out", str(path)])
    assert code == 0 and len(path.read_bytes()) < 10_000
    report = json.loads(path.read_text())
    assert report["verdicts"]["matrix_size"] == 1000
    assert report["verdicts"]["inertia"] == {"pos": 1, "neg": 0, "zero": 999}
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


@pytest.mark.parametrize("argv", RUN_REPORT_ARGV, ids=lambda argv: argv[0])
def test_verify_recomputes_the_digest(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    report = json.loads(path.read_text())
    # input_digest is bound by nothing but the digest
    digest = report["input_digest"]
    report["input_digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    path.write_text(json.dumps(report))
    assert run(capsys, ["verify", str(path)]) == (
        1, '{"valid": false, "reason": "digest does not match the report"}\n', "")


def test_verify_rejects_a_rewritten_verdict_byte(capsys, tmp_path):
    path = tmp_path / "report.json"
    run(capsys, ["check", "-e", "z1*zb1 - z2*zb2", "--out", str(path)])
    text = path.read_text()
    assert text.count('"zero":0') == 1
    path.write_text(text.replace('"zero":0', '"zero":1'))
    assert run(capsys, ["verify", str(path)])[0] == 1


def _restamp(report):
    """The report with a digest stamped again, as a forger would."""
    report["digest"] = serialize.digest_of_obj({k: v for k, v in report.items() if k != "digest"})
    return report


def test_a_one_variable_search_stops_at_d_0(capsys, tmp_path):
    # In one variable <z,w>^d = |z1|^(2d) has multinomial weight 1, so every
    # M_d is M_0: the search stops at d = 0 whatever --dmax is, and verify
    # wants the witness there; one moved to --dmax and restamped is refused.
    path = tmp_path / "report.json"
    started = time.perf_counter()
    code = run(capsys, ["stabilize", "-e=-z1*zb1", "--dmax", "1000000", "--out", str(path)])[0]
    assert code == 3 and time.perf_counter() - started < 1
    report = json.loads(path.read_text())
    assert report["result"]["stabilization"]["trail"] == [[0, [[0, 1, 0]]]]
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")
    report["result"]["stabilization"]["trail"][0][0] = 1000000
    path.write_text(json.dumps(_restamp(report)))
    assert run(capsys, ["verify", str(path)]) == (
        1, '{"valid": false, "reason": "without a factor the witness must be at the last '
        'searched d=0"}\n', "")


@pytest.mark.parametrize("points", [
    {"witness_point": [["7", "0"], ["0", "0"]]},
    {"sign_change": {"positive_at": [["1", "0"], ["0", "0"]], "negative_at": [["0", "0"], ["1", "0"]]}},
    {"witness_point": [["7", "0"], ["0", "0"]],
     "sign_change": {"positive_at": [["3", "0"], ["0", "0"]], "negative_at": [["5", "0"], ["1", "0"]]}},
], ids=["witness_point", "sign_change", "both"])
def test_a_stabilized_ellipticity_report_with_points_is_refused(capsys, tmp_path, points):
    # Points prove not_elliptic and a stabilization proves certified or
    # not_certified: a report holds one kind of evidence.  These points are
    # off the sphere and no zero, and nothing checked them before.
    path = tmp_path / "report.json"
    run(capsys, ["symbol", "-e", "x1^2 + x2^2 + x3^2 + x4^2", "--out", str(path)])
    report = json.loads(path.read_text())
    report["result"]["ellipticity"].update(points)
    mirror = tmp_path / "mirror.json"
    path.write_text(json.dumps(_restamp(report)))
    mirror.write_text(json.dumps(report["result"]["ellipticity"]))
    refused = (1, '{"valid": false, "reason": "report holds both points and a stabilization"}\n', "")
    assert run(capsys, ["verify", str(path)]) == refused
    assert run(capsys, ["verify", str(mirror)]) == refused


def test_a_search_of_the_other_sign_is_refused(capsys, tmp_path):
    # |z|^2 is certified at d = 0.  The strict search on its negation finds
    # no d up to 16; its evidence, put in the symbol's report with the
    # verdict it would prove, "not_certified", and restamped, is checked on
    # |z|^2 itself, the form that the sign of its |z1|^2 coefficient picks,
    # and its witness fails there: as a run report and as a bare artifact.
    path, search = tmp_path / "report.json", tmp_path / "search.json"
    argv = ["symbol", "-e", "z1*zb1 + z2*zb2", "--dmax", "16"]
    assert run(capsys, argv + ["--out", str(path)])[0] == 0
    argv = ["stabilize", "-e", "-z1*zb1 - z2*zb2", "--mode", "strict", "--dmax", "16"]
    assert run(capsys, argv + ["--out", str(search)])[0] == 3
    report, written = json.loads(path.read_text()), json.loads(search.read_text())
    ellipticity = report["result"]["ellipticity"]
    ellipticity["stabilization"] = {key: written["result"]["stabilization"][key]
                                    for key in ellipticity["stabilization"]}
    del report["result"]["operator_rows"]
    report["verdicts"].update(verdict="not_certified", d=None, summary="not certified up to d=16")
    mirror = tmp_path / "mirror.json"
    path.write_text(json.dumps(_restamp(report)))
    mirror.write_text(json.dumps(ellipticity))
    refused = (1, '{"valid": false, "reason": "stabilization: trail d=16: witness value is '
                  'positive"}\n', "")
    assert run(capsys, ["verify", str(path)]) == refused
    assert run(capsys, ["verify", str(mirror)]) == refused


def test_a_negated_symbol_mirrors_one_artifact(capsys, tmp_path):
    # -|x|^2 is negative at e_1, so its negation is searched and certified at
    # d = 0.  No artifact embeds another: --cert-dir mirrors the ellipticity
    # report alone, and it and the run report verify.
    path, certs = tmp_path / "report.json", tmp_path / "certs"
    argv = ["symbol", "-e", "-x1^2 - x2^2 - x3^2 - x4^2", "--cert-dir", str(certs)]
    assert run(capsys, argv + ["--out", str(path)])[0] == 0
    report = json.loads(path.read_text())
    assert (report["verdicts"]["verdict"], report["verdicts"]["d"]) == ("certified", 0)
    [mirror] = certs.iterdir()
    assert json.loads(mirror.read_text()) == report["result"]["ellipticity"]
    valid = (0, '{"valid": true, "reason": "ok"}\n', "")
    assert run(capsys, ["verify", str(path)]) == run(capsys, ["verify", str(mirror)]) == valid


def test_a_sign_change_with_positive_diagonals_is_decided_by_the_walk(capsys, tmp_path):
    # Every M_d past M_0 of this symbol has a positive diagonal, so each
    # exponent step runs the elimination, and a search run first would build
    # them all up to the size bound.  The sphere walk, which takes as many
    # points as each failing step's M_d has rows, finds a sign pair within
    # the first steps, so --dmax 2000 ends as soon as --dmax 16 does.
    path = tmp_path / "report.json"
    started = time.perf_counter()
    argv = ["symbol", "-e", POSITIVE_DIAGONAL_SIGN_CHANGE, "--dmax", "2000", "--out", str(path)]
    assert run(capsys, argv)[0] == 1 and time.perf_counter() - started < 1
    report = json.loads(path.read_text())
    assert report["verdicts"]["verdict"] == "not_elliptic"
    ellipticity = report["result"]["ellipticity"]
    assert ellipticity["sign_change"] is not None and ellipticity["stabilization"] is None
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")


@pytest.mark.parametrize("expr, terms, order, message, refused", [
    # The wire spells a form by one term per conjugate pair, so a form that
    # is not Hermitian-symmetric has no spelling: z1*zb2 is the greater key.
    ("z1*zb2", [[1, 1, [1, 0], [0, 1], 1, 0]], 2,
     "form is not Hermitian-symmetric",
     "artifact is not in the current certificate format: a kernel term is written only as the "
     "lesser key of its conjugate pair"),
    ("z1*zb1 - 1", [[1, 1, [0, 0], [0, 0], -1, 0], [1, 1, [1, 0], [1, 0], 1, 0]], 0,
     "form has mixed bidegrees", None),
], ids=["not_hermitian", "mixed_bidegree"])
def test_a_not_elliptic_report_on_a_form_that_symbol_refuses_is_an_input_error(
        capsys, tmp_path, expr, terms, order, message, refused):
    # Both forms vanish at (1, 0), but `symbol` refuses them: the zero proves
    # nothing about an ellipticity that is not defined, and verify refuses
    # the report, with symbol's own error where the wire spells the form.
    assert run(capsys, ["symbol", "-e", expr, "--n", "2"]) == (2, "", f"error: {message}\n")
    message = refused or message
    path = tmp_path / "report.json"
    assert run(capsys, ["symbol", "-e", "z1*zb1 - z2*zb2", "--out", str(path)])[0] == 1
    report = json.loads(path.read_text())
    ellipticity = report["result"]["ellipticity"]
    ellipticity["form"]["terms"] = terms
    ellipticity.update(witness_point=[["1", "0"], ["0", "0"]], sign_change=None)
    report["verdicts"].update(order=order, summary="not elliptic: exact zero of the symbol on "
                                                    "the unit sphere")
    mirror = tmp_path / "mirror.json"
    path.write_text(json.dumps(_restamp(report)))
    mirror.write_text(json.dumps(ellipticity))
    for artifact in (path, mirror):
        assert run(capsys, ["verify", str(artifact)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spelling", ["1.0", " 1", "2/2", "+1", "01"])
def test_a_point_spelled_another_way_is_an_input_error(capsys, tmp_path, spelling):
    # A point's coordinate is read only as `fraction_to_str` writes it, so a
    # report has one digest: the same rational spelled another way, in a
    # report restamped and in its artifact alone, is the format error.
    path = tmp_path / "report.json"
    assert run(capsys, ["symbol", "-e", "z1*zb1 - z2*zb2", "--out", str(path)])[0] == 1
    report = json.loads(path.read_text())
    ellipticity = report["result"]["ellipticity"]
    assert ellipticity["sign_change"]["positive_at"][0] == ["1", "0"]
    ellipticity["sign_change"]["positive_at"][0][0] = spelling
    mirror = tmp_path / "mirror.json"
    path.write_text(json.dumps(_restamp(report)))
    mirror.write_text(json.dumps(ellipticity))
    for artifact in (path, mirror):
        code, out, err = run(capsys, ["verify", str(artifact)])
        assert (code, out) == (2, "")
        assert err == ("error: artifact is not in the current certificate format: a point's "
                       f"coordinates are written as fraction_to_str writes them, not "
                       f"{[spelling, '0']!r}\n")


@pytest.mark.parametrize("argv, forms, vectors", [
    (["symbol", "-e", "x1^2 + x2^2 + x3^2 + x4^2"], 1, 1),
    (["symbol", "-e", "-z1^2*zb1^2 - z2^2*zb2^2"], 1, 1),
    (["symbol", "-e", DIAGONAL_QUARTIC, "--dmax", "0"], 1, 0),
    (["symbol", "-e", "z1*zb1", "--n", "2"], 1, 0),
], ids=["certified", "negated", "not_certified", "not_elliptic"])
def test_verify_reads_each_form_of_a_symbol_report_once(capsys, tmp_path, monkeypatch, argv,
                                                        forms, vectors):
    # The ellipticity check reads the symbol, the one form of the report,
    # and the search check its factor, and the verdicts and renderings take
    # what they read.
    path = tmp_path / "report.json"
    run(capsys, argv + ["--out", str(path)])
    calls = {"obj_to_form": 0, "_obj_to_vectors": 0}

    def counted(name):
        original = getattr(serialize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(serialize, name, counted(name))
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")
    assert calls == {"obj_to_form": forms, "_obj_to_vectors": vectors}


def test_verify_reads_the_form_and_vectors_of_a_numeric_factor_report_once(capsys, tmp_path,
                                                                          monkeypatch):
    # The README's `factor --d 1 --numeric`: the factor check reads the form
    # and vectors, and the numeric rendering takes what it read.
    path = tmp_path / "report.json"
    argv = ["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"]
    assert run(capsys, argv + ["--out", str(path)])[0] == 0
    calls = {"obj_to_form": 0, "_obj_to_vectors": 0}

    def counted(name):
        original = getattr(serialize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(serialize, name, counted(name))
    assert run(capsys, ["verify", str(path)]) == (0, '{"valid": true, "reason": "ok"}\n', "")
    assert calls == {"obj_to_form": 1, "_obj_to_vectors": 1}


def test_factor_and_search_stop_at_the_size_bound(capsys, tmp_path):
    # M_200 of |z|^2 in three variables would have 20503 rows.
    code, out, err = run(capsys, ["factor", "-e", "z1*zb1 + z2*zb2 + z3*zb3", "--d", "200"])
    assert (code, out) == (2, "")
    assert err == ("error: the coefficient matrix at d=200 has 20503 rows, "
                   "more than the 1024 allowed\n")
    # |z1|^2 in four variables: M_15, 969 rows, is the last within the bound.
    path = tmp_path / "s.json"
    argv = ["stabilize", "-e", "z1*zb1", "--n", "4", "--dmax", "100", "--out", str(path)]
    assert run(capsys, argv)[0] == 3
    report = json.loads(path.read_text())
    assert report["verdicts"] == {"mode": "strict", "d_max": 100, "d_min": None, "found": False}
    assert [d for d, _ in report["result"]["stabilization"]["trail"]] == [15]
    assert run(capsys, ["verify", str(path)])[0] == 0


WIDE_FORM = "z100000*zb100000"
WIDE_REFUSAL = ("error: the coefficient matrix at d=0 has 100000 rows, "
                "more than the 1024 allowed\n")


@pytest.mark.parametrize("argv", [
    ["check", "-e", WIDE_FORM],
    ["check", "--n", "100000", "-e", "z1*zb1"],
    ["decompose", "-e", WIDE_FORM],
    ["factor", "-e", WIDE_FORM],
    ["stabilize", "-e", WIDE_FORM],
    ["symbol", "-e", WIDE_FORM],
    ["symbol", "-e", "x199999^2 + x200000^2"],
], ids=["check", "check-n", "decompose", "factor", "stabilize", "symbol", "real-symbol"])
def test_commands_refuse_an_m0_past_the_size_bound(capsys, argv):
    # The size of M_0 is counted in closed form before its basis is
    # enumerated, and before a real symbol is converted, so the refusal is
    # at once.
    started = time.perf_counter()
    assert run(capsys, argv) == (2, "", WIDE_REFUSAL)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("command", ["check", "decompose", "factor", "stabilize"])
def test_commands_refuse_a_form_file_of_many_rows(capsys, tmp_path, command):
    # 67 bytes name r = 3000000.
    path = tmp_path / "wide.json"
    path.write_text('{"kind": "bihermitian_form", "n": 1, "r": 3000000, "terms": []}\n')
    started = time.perf_counter()
    assert run(capsys, [command, str(path)]) == (
        2, "", WIDE_REFUSAL.replace("100000 rows", "3000000 rows"))
    assert time.perf_counter() - started < 1


def test_sweep_records_an_m0_past_the_size_bound_as_its_row_error(capsys, tmp_path):
    # A sweep row's error does not stop the sweep, and the size refusal is one.
    path = tmp_path / "report.json"
    family = json.dumps([{"label": "wide", "expr": WIDE_FORM},
                         {"label": "q", "expr": INDEFINITE_QUARTIC}])
    code, out, _ = run(capsys, ["sweep", "-e", family, "--dmax", "5", "--out", str(path)])
    assert (code, out.splitlines()[1].split(",")[:3]) == (0, ["wide", "error", ""])
    rows = json.loads(path.read_text())["verdicts"]["rows"]
    assert rows[0] == {"label": "wide", "d_min": None, "error": WIDE_REFUSAL[7:-1]}
    assert rows[1]["d_min"] == 3
    assert run(capsys, ["verify", str(path)])[0] == 0


def test_verify_refuses_artifacts_whose_m0_is_past_the_size_bound(capsys, tmp_path):
    # A factor at d = 0, a search whose factor is at d = 0, and a not_elliptic
    # report, each on a form that the commands refuse.
    wide = serialize.form_to_obj(parse_expression(WIDE_FORM))
    point = [["1", "0"]] + [["0", "0"]] * 99999
    artifacts = [
        {"kind": "weighted_gram_factor", "form": wide, "d": 0, "vectors": [], "witness": None},
        {"kind": "stabilization_report", "mode": "strict", "d_max": 0, "form": wide,
         "trail": [], "factor": []},
        {"kind": "ellipticity_report", "form": wide, "witness_point": point,
         "sign_change": None, "stabilization": None},
    ]
    path = tmp_path / "artifact.json"
    for artifact in artifacts:
        path.write_text(json.dumps(artifact))
        assert run(capsys, ["verify", str(path)]) == (2, "", WIDE_REFUSAL)


# One term per conjugate pair, a real diagonal, and a complex off-diagonal
# entry: its factor is [[1, 3], [[0, 1, 1], [1, 3, 0]]], [[1, 3], [[0, 1, 0]]].
COMPLEX_PD = "z1*zb1 + (1+i)*z1*zb2 + (1-i)*z2*zb1 + 3*z2*zb2"


def _terms(report):
    return report["result"]["factor"]["form"]["terms"]


def _vectors(report):
    return report["result"]["factor"]["vectors"]


def _den_not_lowest(report):
    form = report["result"]["factor"]["form"]
    form["den"] *= 2
    for term in form["terms"]:
        term[4:] = [2 * term[4], 2 * term[5]]


# Every spelling of the factor but the one the writer writes, each in a
# report stamped with its digest again: exactly one spelling is accepted.
RESPELLINGS = {
    "twin_term": lambda r: _terms(r).insert(2, [1, 1, [1, 0], [0, 1], 1, 1]),
    "diagonal_not_real": lambda r: _terms(r)[0].__setitem__(5, 1),
    "den_zero": lambda r: r["result"]["factor"]["form"].update(den=0),
    "den_negative": lambda r: r["result"]["factor"]["form"].update(den=-1),
    "den_not_lowest": _den_not_lowest,
    "zero_term": lambda r: _terms(r).insert(2, [1, 1, [0, 2], [0, 2], 0, 0]),
    "term_keys_out_of_order": lambda r: _terms(r).insert(0, _terms(r).pop(1)),
    "float_numerator": lambda r: _terms(r)[0].__setitem__(4, 3.0),
    "bool_numerator": lambda r: _terms(r)[2].__setitem__(4, True),
    "string_numerator": lambda r: _terms(r)[0].__setitem__(4, "3"),
    "zero_vector_entry": lambda r: _vectors(r)[1][1].append([1, 0, 0]),
    "vector_indices_out_of_order": lambda r: _vectors(r)[0][1].reverse(),
    "vector_content_two": lambda r: _vectors(r)[1].__setitem__(1, [[0, 2, 0]]),
    "weight_not_lowest": lambda r: _vectors(r)[0].__setitem__(0, [2, 6]),
    "weight_zero_denominator": lambda r: _vectors(r)[0].__setitem__(0, [1, 0]),
    "weight_string": lambda r: _vectors(r)[0].__setitem__(0, "1/3"),
}


@pytest.mark.parametrize("respell", RESPELLINGS.values(), ids=RESPELLINGS.keys())
def test_each_other_spelling_of_an_artifact_is_a_format_error(capsys, tmp_path, respell):
    path = tmp_path / "report.json"
    assert run(capsys, ["factor", "-e", COMPLEX_PD, "--out", str(path)])[0] == 0
    report = json.loads(path.read_text())
    assert _vectors(report) == [[[1, 3], [[0, 1, 1], [1, 3, 0]]], [[1, 3], [[0, 1, 0]]]]
    assert run(capsys, ["verify", str(path)])[0] == 0
    respell(report)
    path.write_text(json.dumps(_restamp(report)))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: artifact is not in the current certificate format: ")
    assert "Traceback" not in err


def test_a_report_in_the_string_codec_is_a_format_error(capsys, tmp_path):
    # A check report written before the wire held integers: its form a row
    # per term of both triangles, every number a "p/q" string.  The report
    # and its certificate alone are refused with the format error.
    path = Path(__file__).parent / "fixtures" / "string_codec_check_report.json"
    report = json.loads(path.read_text())
    assert report["result"]["certificate"]["form"]["terms"][0] == [1, 1, [0, 1], [0, 1], "-1/3",
                                                                  "0"]
    certificate = tmp_path / "certificate.json"
    certificate.write_text(json.dumps(report["result"]["certificate"]))
    for artifact in (path, certificate):
        code, out, err = run(capsys, ["verify", str(artifact)])
        assert (code, out) == (2, "")
        assert err == ("error: artifact is not in the current certificate format: a kernel must "
                       "have exactly the keys den, kind, n, r, terms\n")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-string digit limit",
)
def test_report_integers_past_the_digit_limit_are_input_errors_when_read(capsys, tmp_path):
    # JSON reads an integer of more digits than the limit as a ValueError:
    # verify exits 2 with the digit-limit error, as the writer does.
    path = tmp_path / "report.json"
    assert run(capsys, ["factor", "-e", COMPLEX_PD, "--out", str(path)])[0] == 0
    text = path.read_text()
    assert text.count('"den":1,') == 1
    path.write_text(text.replace('"den":1,', f'"den":{"7" * 5000},'))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert err == ("error: a number in the artifact has more digits than the int-to-string "
                   f"limit (sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()})\n")


def test_a_power_past_the_expansion_budget_is_an_input_error(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, ["check", "-e", "(z1+1)^20000"])
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == ("error: expanding products and powers takes more than 262144 coefficient "
                   "products (at position 6)\n")
