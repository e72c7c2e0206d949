"""Tests of the benchmark's own machinery: case generation, oracles and tracing."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hermfact  # noqa: E402
import hermfact.cli  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 11)
        assert first == workloads.generate(workload, 11)
        other = workloads.generate(workload, 12)
        assert first != other
        # The seed draws the numbers; the shape of a pass is fixed.
        assert [c.case_id for c in first] == [c.case_id for c in other]


def test_ladder_oracle_agrees_with_search():
    for c in (Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-1),
              Fraction(-3, 2), Fraction(-17, 10)):
        form = hermfact.parse_expression(workloads.ladder_text(c))
        assert hermfact.find_minimal_d(form, "strict", 16).d_min == workloads.ladder_dmin(c)
    form = hermfact.parse_expression(workloads.ladder_text(Fraction(-2)))
    assert workloads.ladder_dmin(Fraction(-2)) is None
    assert hermfact.find_minimal_d(form, "strict", 8).d_min is None


def test_ladder_coefficients_hit_their_exponent():
    rng = random.Random(5)
    for d in (1, 3, 9, 29):
        assert workloads.ladder_dmin(workloads.ladder_c_for(rng, d)) == d


def test_wrappers_restore_every_original_binding():
    before = tracing.bindings()
    trace = tracing.Tracer()
    trace.install()
    try:
        # Callers reach these through their own `from .x import f` bindings.
        assert hermfact.stabilize.ldl_signature is not before[("hermfact.stabilize", "ldl_signature")]
        assert hermfact.factor.coefficient_matrix is not before[("hermfact.factor", "coefficient_matrix")]
        assert hermfact.cli.parse_expression is not before[("hermfact.cli", "parse_expression")]
        assert vars(hermfact.SignatureCertificate)["verify"] is not before[
            ("certify", "SignatureCertificate.verify")]
    finally:
        trace.remove()
    after = tracing.bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


def _span(sid, parent, start, end, name="f", case=0):
    return (sid, parent, name, case, start, end, False)


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span(0, None, 0.0, 10.0, "case"),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, 3, 5.0, 6.0),
        _span(5, 3, 7.0, 8.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5}
    assert sum(selfs.values()) == 10.0
    # Overlapping children are covered once.
    overlap = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 7.0)]
    assert tracing.self_times(overlap)[0] == 4.0

    trace = tracing.Tracer()
    trace.spans = spans
    assert trace.accounting_errors() == []
    trace.spans = spans + [_span(6, 5, 8.0, 9.5)]  # a child outliving its parent
    assert trace.accounting_errors()


def test_traced_cli_call_nests_spans_under_the_case_root():
    trace = tracing.Tracer()
    trace.install()
    try:
        trace.open_case(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = hermfact.cli.main(["check", "-e", "z1^2*zb1^2 + z2^2*zb2^2"])
        trace.close_case()
    finally:
        trace.remove()
    assert code == 0
    names = {span[2] for span in trace.spans}
    assert {"case", "cli.cmd_check", "parsing.parse_expression",
            "hermform.coefficient_matrix", "certify.ldl_signature", "cli._finish"} <= names
    assert trace.accounting_errors() == []
    figures = trace.metrics()
    assert figures["certify.ldl_signature.calls"] == 1
    assert figures["hermform.matrix_size.max"] == 3
    assert trace.case_counts[0]["matrix_sizes"] == [3]


def test_check_case_rejects_a_wrong_verdict():
    case = workloads.Case("ladder-d5", "ladder", ("stabilize",), expect={"exit": 0, "d_min": 5})
    good = {"verdicts": {"d_min": 5}, "result": {}}
    bad = {"verdicts": {"d_min": 4}, "result": {}}
    assert workloads.check_case(case, 0, good, 0, hermfact) == []
    assert workloads.check_case(case, 0, bad, 0, hermfact)
    assert workloads.check_case(case, 0, good, 1, hermfact)
    assert workloads.check_case(case, 3, good, 0, hermfact)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(150) == 90
    assert bench.tail_percentile(200) == 95
    assert bench.tail_percentile(1000) == 99
    assert bench.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_reference_scaling_cancels_host_speed_only():
    nominal = reference.NOMINAL_S
    # The host runs at half speed for the last two cases: the kernel and the
    # cases take twice as long there, and the scaled times do not change.
    durations = [0.1, 0.1, 0.2, 0.2]
    around = [[nominal] * 4, [nominal] * 4, [2 * nominal] * 4, [2 * nominal] * 4]
    assert reference.normalize(durations, around, window=0) == [0.1, 0.1, 0.1, 0.1]
    # A single slow kernel run next to a case does not move it.
    around = [[nominal] * 4, [nominal, nominal, nominal, 9 * nominal], [nominal] * 4]
    assert reference.normalize([0.1, 0.1, 0.1], around) == [0.1, 0.1, 0.1]
    # A program change shows in full.
    assert reference.normalize([0.3], [[nominal] * 4]) == [0.3]
    assert reference.speed([nominal, 3 * nominal, nominal]) == 1.0
    assert len(reference.kernel()) == 64


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
