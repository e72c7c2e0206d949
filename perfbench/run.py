"""hermfact benchmark: certify-then-verify latency on three seeded workloads.

    python3 perfbench/run.py --workload stabilize --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each case is one certifying command
(`check`, `stabilize`, `factor`, `symbol`, `decompose` or `sweep`) run through
`hermfact.cli.main(argv)` in-process, then `verify` on the report it wrote.
The runner repeats whole passes over the workload's cases (see workloads.py)
until `--seconds` have passed and the workload's MIN_SAMPLES cases ran, checks
every outcome against an oracle, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every case twice,
untraced and then with span wrappers installed (tracer.py), and reports the
per-layer metrics.  Both modes fail the run when a case's exact counts (exit
codes, digests, report bytes, certificate sizes and nonzeros, trail lengths,
LDL calls) differ between passes, between the traced and untraced runs, or
from an earlier run of the same source and seed.

The program is imported from ../src of this file.  Determinism state, spans
and scratch files go to ../.perfbench; the scratch files are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPS = 5
SETUP_REFERENCE_RUNS = 5
CASE_REFERENCE_RUNS = 2  # before and again after each case
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

END_TO_END = (
    ("certify_s.p50", "s"),
    ("certify_s.tail", "s"),
    ("verify_s.p50", "s"),
    ("verify_s.tail", "s"),
    ("cases_per_s", "1/s"),
    ("artifact_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics that every workload exercises, so none reads a constant 0.
# The traced run prints every other per-layer figure in its table as well.
PER_LAYER = (
    ("parsing.parse_expression.self_s", "s"),
    ("parsing.parse_expression.calls", "count"),
    ("hermform.coefficient_matrix.self_s", "s"),
    ("hermform.coefficient_matrix.calls", "count"),
    ("hermform.matrix_size.max", "count"),
    ("hermform.matrix_entries.total", "count"),
    ("hermform.matrix_nnz.total", "count"),
    ("hermform.nnz_ratio", "ratio"),
    ("hermform.gram.self_s", "s"),
    ("certify.ldl_signature.self_s", "s"),
    ("certify.ldl_signature.calls", "count"),
    ("certify.diag_bits.max", "bits"),
    ("certify.ldl_signature.repeat_ratio", "ratio"),
    ("certify.SignatureCertificate.verify.self_s", "s"),
    ("certify.SignatureCertificate.verify.calls", "count"),
    ("factor.rows.total", "count"),
    ("serialize.certificate_to_obj.self_s", "s"),
    ("serialize.factor_to_obj.self_s", "s"),
    ("serialize.pretty_json.self_s", "s"),
    ("serialize.digest_of_obj.self_s", "s"),
    ("serialize.digest_of_obj.calls", "count"),
    ("serialize.verify_obj.self_s", "s"),
    ("serialize.obj_to_certificate.self_s", "s"),
    ("serialize.obj_to_factor.self_s", "s"),
    ("serialize.obj_to_form.self_s", "s"),
    ("serialize.certificates_verified.total", "count"),
    ("cli._finish.self_s", "s"),
    ("cli.cmd_verify.self_s", "s"),
    ("case.self_s", "s"),
    ("trace.probe.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_VOLATILE_KEYS = {"timings", "elapsed", "elapsed_seconds"}


class _Sink(io.TextIOBase):
    """Discards the CLI's stdout; reports are read back from their --out files."""

    def write(self, text):
        return len(text)


# ------------------------------------------------------------------ helpers


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(samples: int) -> int:
    """Highest percentile in TAIL_PERCENTILES with TAIL_BEYOND of `samples` beyond it."""
    for p in TAIL_PERCENTILES:
        if samples * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return 50


def source_digest() -> str:
    """Digest of the program and the case generator: the determinism state key."""
    h = hashlib.sha256()
    files = sorted((SOURCE / "hermfact").glob("*.py")) + [Path(workloads.__file__)]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _volatile_len(obj, volatile: bool = False) -> int:
    """Bytes of the numbers under volatile keys: the part of a report that may vary."""
    if isinstance(obj, dict):
        return sum(_volatile_len(v, volatile or k in _VOLATILE_KEYS) for k, v in obj.items())
    if isinstance(obj, list):
        return sum(_volatile_len(v, volatile) for v in obj)
    if volatile and isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return len(json.dumps(obj))
    return 0


def _walk_counts(obj, certificates: list, steps: list) -> None:
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind == "signature_certificate":
            nnz = sum(1 for row in obj["matrix"] for pair in row if pair != ["0", "0"])
            certificates.append([obj["size"], nnz])
        elif kind == "stabilization_report":
            steps.append(len(obj["trail"]))
        for value in obj.values():
            _walk_counts(value, certificates, steps)
    elif isinstance(obj, list):
        for value in obj:
            _walk_counts(value, certificates, steps)


def report_record(exit_code, verify_exit, text: str | None, report: dict | None) -> dict:
    """Exact, timing-free facts about one case outcome, compared across runs."""
    record = {"exit": exit_code, "verify_exit": verify_exit}
    if report is not None:
        certificates, steps = [], []
        _walk_counts(report, certificates, steps)
        record.update(
            digest=report.get("digest"),
            bytes=len(text.encode()) - _volatile_len(report),
            certificates=certificates,
            steps=steps,
        )
    return record


# ------------------------------------------------------------------ runner


class Bench:
    """One workload at one seed: set-up, timed passes, checks and results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = STATE / f"work-{os.getpid()}"
        self.report_path = self.work / "report.json"
        self.sink = _Sink()
        self.cases: list[workloads.Case] = []
        self.hf = None
        self.cli = None
        self.records: dict[str, dict] = {}
        self.traced_counts: dict[str, dict] = {}
        self.failures: list[str] = []
        self.state_path = STATE / "state" / source_digest() / f"{workload}-{seed}.json"
        self.previous = self._load_state()

    # -------------------------------------------------------------- set-up

    def setup(self) -> tuple[float, float]:
        """Import the package, generate and write the corpus, warm up.

        Returns the median over SETUP_REPS set-ups of their seconds scaled to
        the reference speed measured around each, and the raw median.
        """
        times, scaled = [], []
        for _ in range(SETUP_REPS):
            around = [reference.sample() for _ in range(SETUP_REFERENCE_RUNS)]
            start = perf_counter()
            for name in [n for n in sys.modules if n == "hermfact" or n.startswith("hermfact.")]:
                del sys.modules[name]
            self.hf = importlib.import_module("hermfact")
            self.cli = importlib.import_module("hermfact.cli")
            self.cases = workloads.generate(self.workload, self.seed)
            self.work.mkdir(parents=True, exist_ok=True)
            for case in self.cases:
                for name, content in case.files:
                    (self.work / name).write_text(content)
            seen = set()
            for case in self.cases:
                if case.argv[0] not in seen:
                    seen.add(case.argv[0])
                    self._execute(case)
            times.append(perf_counter() - start)
            around += [reference.sample() for _ in range(SETUP_REFERENCE_RUNS)]
            scaled.append(times[-1] * reference.speed(around))
        return statistics.median(scaled), statistics.median(times)

    # -------------------------------------------------------------- cases

    def _call(self, argv) -> tuple[int | None, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught exception is a failed case, not a crash
                return None, traceback.format_exc(limit=3)
        return code, err.getvalue()

    def _argv(self, case: workloads.Case) -> list[str]:
        return [
            str(self.report_path) if a == workloads.OUT else a.replace("{dir}", str(self.work))
            for a in case.argv
        ]

    def _execute(self, case: workloads.Case, trace: tracing.Tracer | None = None, key=None):
        """Run one case; returns (exit, verify exit, certify s, verify s, case s, stderr)."""
        self.report_path.unlink(missing_ok=True)
        argv = self._argv(case)
        if trace is not None:
            trace.open_case(key)
        t0 = perf_counter()
        code, err = self._call(argv)
        t1 = perf_counter()
        verify_code, verify_s = None, None
        if self.report_path.exists():
            t2 = perf_counter()
            verify_code, verify_err = self._call(["verify", str(self.report_path)])
            t3 = perf_counter()
            verify_s = t3 - t2
            err += verify_err
        else:
            t3 = perf_counter()
        if trace is not None:
            trace.close_case()
        return code, verify_code, t1 - t0, verify_s, t3 - t0, err

    def run_case(self, case, trace=None, key=None) -> dict:
        """Execute and check one case; failures are recorded, never raised.

        The reference kernel runs right before and right after the case, so
        that its time can be scaled to the host speed of that moment.
        """
        before = [reference.sample() for _ in range(CASE_REFERENCE_RUNS)]
        code, verify_code, certify_s, verify_s, case_s, err = self._execute(case, trace, key)
        after = [reference.sample() for _ in range(CASE_REFERENCE_RUNS)]
        text = report = None
        problems = [] if code is not None else [f"uncaught exception:\n{err}"]
        if self.report_path.exists():
            text = self.report_path.read_text()
            try:
                report = json.loads(text)
            except ValueError:
                problems.append("report is not JSON")
        if code is not None:
            problems += workloads.check_case(case, code, report, verify_code, self.hf)
        record = report_record(code, verify_code, text, report)
        problems += self._compare(self.records, case.case_id, record, "report")
        problems += self._compare(self.previous["records"], case.case_id, record,
                                  "report (earlier run)")
        if trace is not None:
            counts = trace.case_counts[key]
            problems += self._compare(self.traced_counts, case.case_id, counts, "traced counts")
            problems += self._compare(self.previous["traced"], case.case_id, counts,
                                      "traced counts (earlier run)")
        if problems:
            self.failures.append(f"{case.case_id}: " + "; ".join(problems))
        return {
            "certify_s": certify_s,
            "verify_s": verify_s,
            "case_s": case_s,
            "bytes": len(text.encode()) if text is not None else 0,
            "failed": bool(problems),
            "reference": before + after,
        }

    @staticmethod
    def _compare(store: dict, case_id: str, value: dict, what: str) -> list[str]:
        if case_id not in store:
            store[case_id] = value
            return []
        if store[case_id] != value:
            changed = sorted(k for k in set(store[case_id]) | set(value)
                             if store[case_id].get(k) != value.get(k))
            return [f"{what} not reproducible: {', '.join(changed)} differ"]
        return []

    def run_passes(self, seconds: float, min_samples: int) -> list[tuple[workloads.Case, dict]]:
        """Whole passes until `seconds` have passed and `min_samples` cases ran."""
        results = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(results) < min_samples:
            for case in self.cases:
                results.append((case, self.run_case(case)))
        return results

    # -------------------------------------------------------------- state

    def _load_state(self) -> dict:
        """Counts from earlier runs of this source and seed; new cases are added
        to it as they run, so saving it keeps every case seen so far."""
        state = {"records": {}, "traced": {}}
        if self.state_path.exists():
            state.update(json.loads(self.state_path.read_text()))
        return state

    def save_state(self) -> None:
        self.state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.state_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.previous, sort_keys=True))
        os.replace(tmp, self.state_path)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ------------------------------------------------------------------ modes


def end_to_end(bench: Bench, seconds: float, setup: tuple[float, float]) -> tuple[dict, list[str], list]:
    """Times are scaled to the reference speed measured around each case
    (reference.py); the raw wall-clock figures are printed beside them."""
    min_samples = workloads.MIN_SAMPLES[bench.workload]
    results = bench.run_passes(seconds, min_samples)
    around = [r["reference"] for _, r in results]
    raw_certify = [r["certify_s"] for _, r in results]
    raw_case = [r["case_s"] for _, r in results]
    certify = reference.normalize(raw_certify, around)
    case = reference.normalize(raw_case, around)
    # Only cases that wrote a report run `verify`.
    reported = [(r["verify_s"], a) for (_, r), a in zip(results, around) if r["verify_s"] is not None]
    raw_verify = [v for v, _ in reported]
    verify = reference.normalize(raw_verify, [a for _, a in reported])
    setup_s, raw_setup_s = setup
    failed = sum(r["failed"] for _, r in results)
    # The percentile follows from the guaranteed sample count, not the achieved
    # one, so a faster host or commit is compared at the same percentile.
    certify_p = tail_percentile(min_samples)
    verify_p = tail_percentile(min_samples * len(verify) // len(certify))
    values = {
        "certify_s.p50": percentile(certify, 50),
        "certify_s.tail": percentile(certify, certify_p),
        "verify_s.p50": percentile(verify, 50),
        "verify_s.tail": percentile(verify, verify_p),
        "cases_per_s": len(results) / sum(case),
        "artifact_bytes": sum(r["bytes"] for _, r in results[: len(bench.cases)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "certify_s.p50": f"n={len(certify)}, raw {percentile(raw_certify, 50):.4g} s",
        "certify_s.tail": f"p{certify_p}, n={len(certify)}, raw {percentile(raw_certify, certify_p):.4g} s",
        "verify_s.p50": f"n={len(verify)}, raw {percentile(raw_verify, 50):.4g} s",
        "verify_s.tail": f"p{verify_p}, n={len(verify)}, raw {percentile(raw_verify, verify_p):.4g} s",
        "cases_per_s": f"{len(results)} cases, {len(results) // len(bench.cases)} passes, "
                       f"raw {len(results) / sum(raw_case):.4g} /s",
        "artifact_bytes": f"one pass of {len(bench.cases)} cases",
        "setup_s": f"median of {SETUP_REPS}, raw {raw_setup_s:.4g} s",
    }
    speeds = [reference.speed(a) for a in around]
    lines = [f"  reference speed over the run: median {statistics.median(speeds):.3f}, "
             f"range {min(speeds):.3f} to {max(speeds):.3f}"]
    lines += [_line(name, values[name], unit, notes.get(name, "")) for name, unit in END_TO_END]
    lines.append(_line("failed_frac", failed / len(results), "ratio", f"{failed}/{len(results)}"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, lines, [r for _, r in results]


def traced(bench: Bench, seconds: float) -> tuple[dict, list[str], list]:
    """Each case runs untraced, then traced, back to back, so that the overhead
    is measured on the same case at nearly the same moment."""
    before = tracing.bindings()
    trace = tracing.Tracer()
    plain, spanned = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not plain:
        for case in bench.cases:
            plain.append(bench.run_case(case))
            trace.install()
            try:
                spanned.append(bench.run_case(case, trace, len(spanned)))
            finally:
                trace.remove()
    after = tracing.bindings()
    if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
        bench.failures.append("removing the wrappers did not restore every original binding")
    bench.failures.extend(trace.accounting_errors())
    figures = trace.metrics()
    figures["trace.overhead_s"] = sum(r["case_s"] for r in spanned) - sum(r["case_s"] for r in plain)
    lines = [_line(name, value, _unit(name), "") for name, value in sorted(figures.items())]
    lines.append(_line("trace.cases", len(spanned), "count", "traced, each also run untraced"))
    _write_spans(bench, trace)
    metrics = {name: {"value": figures.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    return metrics, lines, plain + spanned


def _unit(name: str) -> str:
    if name.endswith(("self_s", "overhead_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits.max"):
        return "bits"
    return "count"


def _write_spans(bench: Bench, trace: tracing.Tracer) -> None:
    path = STATE / f"spans-{bench.workload}-{bench.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"fields": ["id", "parent", "name", "case", "start", "end", "failed"],
                   "spans": trace.spans}, fh)


def _line(name: str, value, unit: str, note: str) -> str:
    return f"  {name:<48} {value:>16.6g} {unit:<6} {note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "hermfact" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hermfact sources under {SOURCE}\n")
        return 2
    sys.path.insert(0, str(SOURCE))

    bench = Bench(args.workload, args.seed)
    try:
        setup = bench.setup()
        if args.trace:
            metrics, lines, results = traced(bench, args.seconds)
        else:
            metrics, lines, results = end_to_end(bench, args.seconds, setup)
        bench.save_state()
    finally:
        bench.close()

    mode = "traced" if args.trace else "untraced"
    print(f"hermfact benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} {mode}")
    print("\n".join(lines))
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": len(results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
