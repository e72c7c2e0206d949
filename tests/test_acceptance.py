"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from hermfact import (
    certify_elliptic,
    certify_elliptic_form,
    coefficient_matrix,
    difference_of_squares,
    enumerate_degree,
    evaluate_exact,
    find_minimal_d,
    gram,
    holomorphic_factor,
    multiplier_shift,
    numeric_factor,
    parse_real_symbol,
    strict_holomorphic_factor,
)
from hermfact import ldl_signature, serialize
from hermfact.cli import main as cli_main
from hermfact.symbols import sphere_sample_points

from helpers import (
    bergman_coefficient_reduced,
    diagonal_matrix,
    diagonal_quartic,
    is_positive_definite,
    is_positive_semidefinite,
    monomial_norm_reduced,
    multinomial,
    numeric_reconstruction,
    operator_positive,
    oracle_quartic_dmin,
    pairing_identity_check,
    quadratic_value,
    quartic_family,
    rand_gauss,
    rand_hermsym_form,
    rand_pd_form,
    rand_psd_form,
    reference_exponent_steps,
    square_difference,
    stabilization_factor,
    subtract,
)


def _report(number: int, ok: bool, detail: str, elapsed: float, bound: float | None):
    status = "PASS" if ok else "FAIL"
    budget = f", budget {bound:.0f}s" if bound is not None else ""
    print(f"criterion {number}: {status} — {detail} ({elapsed:.2f}s{budget})")
    assert ok, f"criterion {number} failed: {detail}"
    if bound is not None:
        assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


def row_supports(factor):
    out = []
    for _, polys in factor.rows:
        support = set()
        for poly in polys:
            support |= set(poly)
        out.append(support)
    return out


def test_criterion_1_diagonal_quartic_corpus():
    start = time.perf_counter()
    form = diagonal_quartic()

    semi = holomorphic_factor(form)
    ok = semi is not None
    ok = ok and row_supports(semi) == [{(2, 0)}, {(0, 2)}]
    ok = ok and all(w == 1 for w, _ in semi.rows)
    ok = ok and gram(semi.matrix) == form

    ok = ok and strict_holomorphic_factor(form) is None
    report = find_minimal_d(form, "strict", 4)
    ok = ok and report.d_min == 1
    factor = stabilization_factor(report)
    shifted_matrix = coefficient_matrix(factor.target)[0]
    ok = ok and shifted_matrix == diagonal_matrix([1, 1, 1, 1])
    ok = ok and len(factor.matrix.rows) == 4

    _report(
        1,
        ok,
        "diagonal quartic: semi-factor rows {z1^2, z2^2} at d=0, strict first at d=1 with 4 rows",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_quartic_family_ladder():
    start = time.perf_counter()
    cs = [Fraction(2), Fraction(0), Fraction(-1), Fraction(-3, 2), Fraction(-19, 10)]
    expected_first = [0, 1, 3]
    found = []
    ok = True
    for c in cs:
        oracle = oracle_quartic_dmin(c, "strict")
        report = find_minimal_d(quartic_family(c), "strict", oracle + 2)
        ok = ok and report.d_min == oracle
        found.append(report.d_min)
    ok = ok and found[:3] == expected_first
    ok = ok and all(a < b for a, b in zip(found, found[1:]))
    _report(
        2,
        ok,
        f"strict exponents over c in {{2, 0, -1, -3/2, -19/10}}: {found}, strictly increasing",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_3_square_difference_never_semidefinite():
    start = time.perf_counter()
    form = square_difference()
    report = find_minimal_d(form, "semi", 12)
    ok = report.d_min is None and len(report.steps) == 13
    for step, (matrix, _) in zip(report.steps, reference_exponent_steps(form)):
        ok = ok and not step.passes and step.witness is not None
        value = quadratic_value(matrix, step.witness)
        ok = ok and value.im == 0 and value.re < 0
    ok = ok and serialize.verify_obj(serialize.stabilization_to_obj(report)) == (True, "ok")
    _report(
        3,
        ok,
        "(|z1|^2-|z2|^2)^2 fails the semidefinite test at every d <= 12, witness certified each time",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_operator_equivalence_and_pairing():
    start = time.perf_counter()
    rng = random.Random(20240)
    ok = True
    agree = 0
    pairing_checked = 0
    for index in range(200):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 3)
        kind = index % 3
        if kind == 0:
            form = rand_pd_form(rng, n, m, r)
        elif kind == 1:
            form = rand_psd_form(rng, n, m, r)
        else:
            form = rand_hermsym_form(rng, n, r, m)
        d = m if form.support else 0
        matrix, basis = coefficient_matrix(form)
        pd_matrix = is_positive_definite(ldl_signature(matrix))
        pd_operator, _ = operator_positive(form, d)
        ok = ok and (pd_matrix == pd_operator)
        agree += pd_matrix == pd_operator
        if kind in (0, 1):
            factor = holomorphic_factor(form)
            h = [rand_gauss(rng, 3) for _ in range(matrix.size)]
            good = pairing_identity_check(factor, h)
            ok = ok and good
            pairing_checked += 1
    _report(
        4,
        ok,
        f"operator and coefficient verdicts agree on {agree}/200 instances; "
        f"pairing identity exact on {pairing_checked} gram-built instances",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_5_reproducing_identity():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 5):
        for d in range(0, 9):
            c = bergman_coefficient_reduced(n, d)
            for alpha in enumerate_degree(n, d):
                ok = ok and c * multinomial(d, alpha) * monomial_norm_reduced(alpha) == 1
                checked += 1
    _report(
        5,
        ok,
        f"kernel coefficient x multinomial x monomial norm = 1 on {checked} cases (n<=4, d<=8)",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_6_monotonicity_under_shifts():
    start = time.perf_counter()
    rng = random.Random(20241)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_pd_form(rng, n, m, r)
        once = multiplier_shift(form)
        twice = multiplier_shift(once)
        for shifted in (once, twice):
            matrix, _ = coefficient_matrix(shifted)
            good = is_positive_definite(ldl_signature(matrix))
            ok = ok and good
    for _ in range(100):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_psd_form(rng, n, m, r)
        once = multiplier_shift(form)
        twice = multiplier_shift(once)
        for shifted in (once, twice):
            matrix, _ = coefficient_matrix(shifted)
            good = is_positive_semidefinite(ldl_signature(matrix))
            ok = ok and good
    _report(
        6,
        ok,
        "100 strictly factorable instances stay PD, 100 semidefinite stay PSD after 1 and 2 shifts",
        time.perf_counter() - start,
        None,
    )


def test_criterion_7_factor_round_trips_and_numeric():
    start = time.perf_counter()
    rng = random.Random(20242)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        form = rand_psd_form(rng, n, m, r)
        factor = holomorphic_factor(form)
        ok = ok and factor is not None and gram(factor.matrix) == form
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 3)
        form = rand_hermsym_form(rng, n, r, m)
        positive, negative = difference_of_squares(form)
        ok = ok and subtract(positive.target, negative.target) == form

    form = quartic_family(2)
    factor = strict_holomorphic_factor(form)
    numeric = numeric_factor(factor, 12)
    points = [
        p for p in sphere_sample_points(2, extra=40, seed=11) if all(not c.is_zero() for c in p)
    ][:20]
    ok = ok and len(points) == 20
    for point in points:
        exact = complex(evaluate_exact(form, point, point)[0][0])
        approx = numeric_reconstruction(numeric, [complex(c) for c in point])[0][0]
        ok = ok and abs(approx - exact) / max(abs(exact), 1e-30) < 1e-8
    _report(
        7,
        ok,
        "100 exact factor round trips, 100 exact difference-of-squares reconstructions, "
        "numeric reconstruction < 1e-8 relative at 20 sphere points",
        time.perf_counter() - start,
        None,
    )


def test_criterion_8_symbol_instances():
    start = time.perf_counter()
    ok = True

    laplace = certify_elliptic(parse_real_symbol("x1^2 + x2^2"), 16)
    ok = ok and laplace.verdict == "certified" and laplace.d == 0

    biharmonic = certify_elliptic(parse_real_symbol("(x1^2 + x2^2 + x3^2 + x4^2)^2"), 16)
    ok = ok and biharmonic.verdict == "certified" and biharmonic.d == 0

    quartic = certify_elliptic_form(diagonal_quartic(), 16)
    ok = ok and quartic.verdict == "certified" and quartic.d == 1
    factor = stabilization_factor(quartic.stabilization)
    ok = ok and factor is not None and len(factor.matrix.rows) == 4
    degrees = {sum(alpha) for _, row in factor.rows for poly in row for alpha in poly}
    ok = ok and degrees == {3}

    from hermfact import parse_expression

    degenerate_form = parse_expression("z1*zb1", n=2)
    degenerate = certify_elliptic_form(degenerate_form, 16)
    ok = ok and degenerate.verdict != "certified" and degenerate.d is None
    # the direct search also never passes: every shifted matrix is singular,
    # and each step's witness is a null vector of it
    direct = find_minimal_d(degenerate_form, "strict", 16)
    ok = ok and direct.d_min is None
    ok = ok and all(
        step.witness is not None and quadratic_value(matrix, step.witness).is_zero()
        for step, (matrix, _) in zip(direct.steps, reference_exponent_steps(degenerate_form)))

    _report(
        8,
        ok,
        "Laplace and squared-Laplace symbols at d=0, diagonal quartic operator at d=1 with "
        "four third-order rows, |z1|^2 on C^2 never certified up to d=16",
        time.perf_counter() - start,
        10.0,
    )


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """Run the CLI over the canonical instances, mirroring all certificates."""
    root = tmp_path_factory.mktemp("acceptance_cli")
    cert_dir = root / "certs"
    runs = [
        ["check", "-e", "z1^2*zb1^2 + z2^2*zb2^2", "--mode", "semi"],
        ["check", "-e", "z1^2*zb1^2 + z2^2*zb2^2", "--mode", "strict"],
        ["check", "-e", "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2", "--mode", "semi"],
        ["stabilize", "-e", "z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2", "--mode", "strict", "--dmax", "5"],
        ["stabilize", "-e", "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2", "--mode", "semi", "--dmax", "12"],
        ["factor", "-e", "z1^2*zb1^2 + z2^2*zb2^2"],
        ["factor", "-e", "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2", "--d", "7"],
        ["factor", "-e", "z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2", "--d", "1", "--numeric"],
        ["symbol", "-e", "x1^2 + x2^2"],
        ["symbol", "-e", "z1^2*zb1^2 + z2^2*zb2^2"],
        ["symbol", "-e", "z1*zb1", "--n", "2"],
        ["decompose", "-e", "z1^2*zb1^2 - 2*z1*z2*zb1*zb2 + z2^2*zb2^2"],
    ]
    family = [
        {"label": "c=2", "expr": "z1^2*zb1^2 + 2*z1*z2*zb1*zb2 + z2^2*zb2^2"},
        {"label": "c=0", "expr": "z1^2*zb1^2 + z2^2*zb2^2"},
        {"label": "c=-1", "expr": "z1^2*zb1^2 - z1*z2*zb1*zb2 + z2^2*zb2^2"},
        {"label": "c=-3/2", "expr": "z1^2*zb1^2 - 3/2*z1*z2*zb1*zb2 + z2^2*zb2^2"},
    ]
    family_file = root / "family.json"
    family_file.write_text(json.dumps(family))
    runs.append(["sweep", str(family_file), "--mode", "strict", "--dmax", "9"])

    exit_codes = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--cert-dir", str(cert_dir)])
        exit_codes.append((argv[0], code))
    return cert_dir, exit_codes


def test_criterion_9_verifier_accepts_corpus_and_rejects_tampering(cli_corpus):
    start = time.perf_counter()
    cert_dir, exit_codes = cli_corpus
    ok = all(
        code in {0, 1, 3} for _, code in exit_codes
    )  # every run completed with a mathematical verdict
    files = sorted(cert_dir.glob("*.json"))
    ok = ok and len(files) >= 15
    kinds_seen = set()
    for path in files:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["verify", str(path)])
        ok = ok and code == 0
        kinds_seen.add(json.loads(path.read_text()).get("kind"))
    ok = ok and {
        "weighted_gram_factor",
        "stabilization_report",
        "ellipticity_report",
    } <= kinds_seen

    # single-entry tamperings must be rejected
    tamper_dir = cert_dir.parent / "tampered"
    tamper_dir.mkdir(exist_ok=True)
    tampered_count = 0
    for path in files:
        obj = json.loads(path.read_text())
        kind = obj["kind"]
        if kind == "weighted_gram_factor":
            if not obj["vectors"]:
                continue
            obj["vectors"][0][0] = [355, 113]
        elif kind in ("stabilization_report", "ellipticity_report"):
            # the witness of the last failing d, zeroed (the zero vector is
            # written []), proves nothing
            stabilization = obj if kind == "stabilization_report" else obj.get("stabilization")
            if not (stabilization and stabilization["trail"]):
                continue
            [[_, entries]] = stabilization["trail"]
            entries[:] = []
        else:
            continue
        bad = tamper_dir / f"bad-{path.name}"
        bad.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["verify", str(bad)])
        ok = ok and code == 1
        tampered_count += 1
    ok = ok and tampered_count >= 8

    wrong = tamper_dir / "wrong-kind.json"
    wrong.write_text(json.dumps({"kind": "bihermitian_form", "n": 1, "r": 1, "terms": []}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["verify", str(wrong)])
    ok = ok and code == 2

    _report(
        9,
        ok,
        f"verifier accepted {len(files)} emitted artifacts and rejected "
        f"{tampered_count} single-entry tamperings plus a wrong-type file",
        time.perf_counter() - start,
        None,
    )
