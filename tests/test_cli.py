import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hermfact import serialize
from hermfact.cli import main

from helpers import quartic_family

DIAGONAL_QUARTIC = "z1^2*zb1^2 + z2^2*zb2^2"
SQUARE_DIFFERENCE = "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2"
INDEFINITE_QUARTIC = "z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2"


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
    assert "certificate" not in report["result"]
    ok, reason = serialize.verify_obj(report["result"]["factor"])
    assert ok, reason

    code, out, _ = run(capsys, ["factor", "-e", SQUARE_DIFFERENCE, "--d", "7"])
    assert code == 1
    report = json.loads(out)
    assert report["result"]["certificate"]["witness"] is not None
    assert "factor" not in report["result"]

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

    code, _, err = run(capsys, ["symbol", "-e", "x1^2 - x2^2"])
    assert code == 2 and "bihomogeneous" in err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, ["decompose", "-e", SQUARE_DIFFERENCE])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {
        "positive_rank": 2,
        "negative_rank": 1,
        "sum_of_squares": False,
    }
    for key in ("positive", "negative"):
        ok, reason = serialize.verify_obj(report["result"][key])
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
    tampered["diag"][0] = "123/7"
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


def _drop_lower_column(cert):
    cert["lower"].pop()


def _witness_index_past_size(cert):
    cert["witness"].append([3, "1", "0"])


def _witness_indices_out_of_order(cert):
    cert["witness"].append([0, "1", "0"])


def _lower_index_on_diagonal(cert):
    cert["lower"][1] = [[1, "1", "0"]]


def _lower_index_above_diagonal(cert):
    cert["lower"][2] = [[1, "1", "0"]]


def _lower_index_negative(cert):
    cert["lower"][0] = [[-1, "1", "0"]]


def _lower_index_past_size(cert):
    cert["lower"][0] = [[3, "1", "0"]]


def _lower_entries_out_of_order(cert):
    cert["lower"][0] = [[2, "1", "0"], [1, "1", "0"]]


def _lower_value_bumped(cert):
    assert cert["lower"][0] == [[1, "1", "0"]]
    cert["lower"][0][0][1] = "2"


def _overlapping_block(cert):
    cert["blocks"].append([1, "1", "0"])


def _block_out_of_range(cert):
    cert["blocks"] = [[1, "1", "0"]]


SIZES = "component sizes disagree"
LOWER = "lower is not strictly lower triangular in pivot order"
BLOCKS = "blocks are not disjoint hollow 2x2 pivots"
# A witness index out of range or out of order is a format error (exit 2).
FORMAT = None


# An id that names `transform` tests the same malformation of `lower`, the
# field that replaced it, and keeps its name.
@pytest.mark.parametrize(
    "expr, malform, reason",
    [
        (SQUARE_DIFFERENCE, _drop_lower_column, SIZES),
        (SQUARE_DIFFERENCE, _witness_index_past_size, FORMAT),
        (SQUARE_DIFFERENCE, _witness_indices_out_of_order, FORMAT),
        (SQUARE_DIFFERENCE, _lower_index_on_diagonal, LOWER),
        (SQUARE_DIFFERENCE, _lower_index_above_diagonal, LOWER),
        (SQUARE_DIFFERENCE, _lower_index_negative, LOWER),
        (SQUARE_DIFFERENCE, _lower_index_past_size, LOWER),
        (SQUARE_DIFFERENCE, _lower_entries_out_of_order, LOWER),
        (COUPLED, _lower_value_bumped, "congruence identity fails at (0,1)"),
        (HOLLOW, _overlapping_block, BLOCKS),
        (HOLLOW, _block_out_of_range, BLOCKS),
    ],
    ids=[
        "short_transform_row",
        "long_witness",
        "witness_indices_out_of_order",
        "transform_index_on_diagonal",
        "lower_index_above_diagonal",
        "transform_index_negative",
        "transform_index_past_size",
        "lower_entries_out_of_order",
        "lower_value_bumped",
        "overlapping_block",
        "block_out_of_range",
    ],
)
def test_verify_rejects_malformed_certificate_shapes(capsys, tmp_path, expr, malform, reason):
    code, out, _ = run(capsys, ["check", "-e", expr, "--n", "2", "--mode", "semi"])
    cert = json.loads(out)["result"]["certificate"]
    assert cert["witness"] is not None
    assert cert["blocks"] if expr == HOLLOW else cert["size"] == 3
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


def _dense_transform_with_inverse(report):
    # The certificate format before W was stored sparse: dense W and W^-1
    # rows of [re, im] pairs, a stored inertia, no blocks.
    cert = report["result"]["certificate"]
    n = cert["size"]
    identity = [[["1" if i == j else "0", "0"] for j in range(n)] for i in range(n)]
    cert["transform"], cert["transform_inv"] = identity, identity
    cert["inertia"] = report["verdicts"]["inertia"]
    del cert["blocks"]
    return cert


def _lower_columns_of_pairs(report):
    cert = report["result"]["certificate"]
    cert["lower"] = [[["0", "0"]] * i for i in range(cert["size"])]
    return cert


def _dense_witness(report):
    # The witness as the format before L was stored wrote it: n [re, im] pairs.
    cert = report["result"]["certificate"]
    dense = [["0", "0"] for _ in range(cert["size"])]
    for j, re, im in cert["witness"]:
        dense[j] = [re, im]
    cert["witness"] = dense
    return cert


def _stored_inertia(report):
    cert = report["result"]["certificate"]
    cert["inertia"] = report["verdicts"]["inertia"]
    return cert


def _trail_step_with_certificate(report):
    # A trail step as it was before the trail was bound to the form: d, a
    # pass flag and a whole certificate.
    stabilization = report["result"]["stabilization"]
    step = stabilization["trail"][0]
    stabilization["trail"][0] = {
        "d": 0,
        "passes": False,
        "certificate": {"kind": "signature_certificate", "size": 3, "matrix": [], **step},
    }
    return stabilization


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


def _unknown_mode(report):
    stabilization = report["result"]["stabilization"]
    stabilization["mode"] = "foo"
    return stabilization


ENTRY_SHAPE = "lower, blocks and witness entries must be [int, str, str]"


@pytest.mark.parametrize(
    "argv, outdate, message",
    [
        (["check", "-e", SQUARE_DIFFERENCE], _dense_transform_with_inverse, ""),
        # The id names the field's old name; the entries are now L's columns.
        (["check", "-e", SQUARE_DIFFERENCE], _lower_columns_of_pairs, ENTRY_SHAPE),
        (["check", "-e", SQUARE_DIFFERENCE], _dense_witness, ENTRY_SHAPE),
        (["check", "-e", SQUARE_DIFFERENCE], _stored_inertia, ""),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _trail_step_with_certificate, ""),
        (["stabilize", "-e", INDEFINITE_QUARTIC, "--dmax", "5"], _unknown_mode, ""),
        (["check", "-e", SQUARE_DIFFERENCE], lambda report: PARENT_FORMAT_CHECK, ""),
    ],
    ids=[
        "dense_transform_with_inverse",
        "transform_rows_of_pairs",
        "dense_witness",
        "stored_inertia",
        "trail_step_with_certificate",
        "unknown_mode",
        "dense_witness_and_transform",
    ],
)
def test_verify_refuses_other_formats(capsys, tmp_path, argv, outdate, message):
    _, out, _ = run(capsys, argv)
    path = tmp_path / "outdated.json"
    path.write_text(json.dumps(outdate(json.loads(out))))
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


SWEEP_ONE = ["sweep", "-e", json.dumps([{"label": "q", "expr": INDEFINITE_QUARTIC}]), "--dmax", "5"]


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


def _factor_weight(capsys, weight):
    report = json.loads(run(capsys, ["factor", "-e", DIAGONAL_QUARTIC])[1])
    report["result"]["factor"]["rows"][0]["weight"] = weight
    return report


def _factor_weight_zero(capsys):
    return _factor_weight(capsys, "0")


def _factor_weight_negative(capsys):
    return _factor_weight(capsys, "-1")


def _numeric_float_digits(capsys, digits):
    argv = ["factor", "-e", DIAGONAL_QUARTIC, "--numeric"]
    report = json.loads(run(capsys, argv)[1])
    report["result"]["numeric_factor"]["float_digits"] = digits
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
        _factor_weight_zero,
        _factor_weight_negative,
        lambda capsys: _numeric_float_digits(capsys, "12"),
        lambda capsys: _numeric_float_digits(capsys, 10**9),
    ],
    ids=["list", "string", "number", "null", "form_list", "verdicts_list", "command_string",
         "witness_pair_of_one", "factor_shape_of_one", "verdicts_from_unverified_object",
         "result_is_a_factor", "sweep_row_is_a_factor",
         "factor_with_certificate_too", "factor_with_neither", "factor_psd_certificate_only",
         "factor_weight_zero", "factor_weight_negative", "float_digits_string",
         "float_digits_huge"],
)
def test_verify_malformed_shapes_are_input_errors(capsys, tmp_path, make):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(make(capsys)))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    if make in (_factor_weight_zero, _factor_weight_negative):
        assert err == "error: row weights must be positive\n"


def _first_numeric_value(result):
    result["numeric_factor"]["rows"][0][0]["value"][0] = 99.0


@pytest.mark.parametrize(
    "argv, rewrite",
    [
        (["symbol", "-e", "x1^2 + x2^2"], lambda result: result.update(operator_rows=["(7)*Dz2"])),
        (["symbol", "-e", "x1^2 + x2^2"], lambda result: result.pop("operator_rows")),
        (["factor", "-e", INDEFINITE_QUARTIC, "--d", "1", "--numeric"], _first_numeric_value),
        (["factor", "-e", INDEFINITE_QUARTIC, "--d", "1"],
         lambda result: result.update(operator_rows=["(1)*Dz1"])),
    ],
    ids=["operator_rows", "operator_rows_dropped", "numeric_value", "foreign_rendering"],
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
    assert code == 2 and out == "" and "--mode and --dmax" in err


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
    stabilization["form"]["terms"][0]["im"] = "1"


def _stabilization_form_of_mixed_bidegree(stabilization):
    stabilization["form"]["terms"].append(
        {"i": 1, "j": 1, "alpha": [1, 0], "beta": [1, 0], "re": "1", "im": "0"})


def _stabilization_trail_emptied(stabilization):
    stabilization.update(trail=[], d_min=None, factor=None)


@pytest.mark.parametrize(
    "rewrite, code, stdout, stderr",
    [
        (_stabilization_form_not_hermitian, 2, "",
         "error: coefficient matrix requires a Hermitian-symmetric form\n"),
        (_stabilization_form_of_mixed_bidegree, 2, "",
         "error: form has mixed bidegrees; use generalized mode\n"),
        (_stabilization_trail_emptied, 1,
         '{"valid": false, "reason": "trail stops before d_max"}\n', ""),
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
    if site == "verify_diag":
        cert["diag"][0] = spelling
    else:
        cert["matrix"][0][0] = [spelling, "0"]
    path.write_text(json.dumps(report))
    return ["verify", str(path)]


@pytest.mark.parametrize("spelling", ["1/0", "+1/0", None, float("inf")])
@pytest.mark.parametrize("site", ["check_form", "sweep_member_form", "verify_diag",
                                  "verify_matrix"])
def test_a_value_that_is_not_a_rational_is_an_input_error(capsys, tmp_path, site, spelling):
    # A zero denominator, JSON null or Infinity; "+1/0" is not in the
    # written spelling, so it takes the Fraction path.
    argv = _no_rational_argv(site, spelling, tmp_path, capsys)
    code, out, err = run(capsys, argv)
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
