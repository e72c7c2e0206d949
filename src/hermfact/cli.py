"""Command-line surface.

Exit codes are uniform across subcommands:
    0  the requested property holds (check passed, factor found, ...)
    1  a certified mathematical negative (witness emitted)
    2  input or usage error
    3  inconclusive up to the requested search bound

Reports are canonical one-line JSON on stdout, deterministic up to the
"timings" field; sweep emits CSV there instead.  Certificates can be mirrored
to separate files with --cert-dir, and `verify` re-checks any emitted
artifact from its file alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path

from . import serialize
from .certify import ldl_signature
from .parsing import ParseError, parse_expression, parse_symbol
from .stabilize import find_minimal_d, power_matrix, stabilization_sweep
from .symbols import RealSymbol, certify_elliptic, certify_elliptic_form

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class InputProblem(Exception):
    pass


def _read_input(args) -> str:
    if args.expr:
        return args.expr
    if args.input:
        path = Path(args.input)
        if not path.exists():
            raise InputProblem(f"input file not found: {path}")
        return path.read_text()
    raise InputProblem("provide an input file or --expr")


def _read_form(source, n, parse):
    """The one reader of a form: `source` is a kernel object, or text that is
    a kernel's JSON when it starts with "{" and else an expression, which
    `parse` reads.  What does not read is an InputProblem."""
    try:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            source = json.loads(source)
        return parse(source, n=n) if isinstance(source, str) else serialize.obj_to_form(source)
    except (ParseError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputProblem(str(exc)) from exc


def _load_form(args, parse):
    text = _read_input(args)
    return _read_form(text, args.n, parse), text


def _mirror_certificates(args, report: dict) -> None:
    cert_dir = getattr(args, "cert_dir", None)
    if not cert_dir:
        return
    directory = Path(cert_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for count, item in enumerate(serialize.embedded_artifacts(report.get("result"))):
        text = serialize.canonical_json(item)
        name = f"{report['command'][0]}-{count:03d}-{serialize.digest_of_text(text)[7:19]}.json"
        (directory / name).write_text(text + "\n")


def _finish(args, command: list[str], input_text: str, result: dict, started: float,
            stdout: str | None = None, read=None) -> dict:
    """Assemble the run report, with the verdicts `serialize.run_verdicts`
    derives from `result` (and what was `read` with it), mirror its artifacts, and
    write it to --out and to stdout (or `stdout` instead, when given)."""
    report = {
        "kind": "run_report",
        "command": command,
        "input_digest": serialize.digest_of_text(input_text),
        "verdicts": serialize.run_verdicts(command, result, read),
        "result": result,
    }
    # Each value is encoded once: the digest hashes the report before it has
    # `digest` and `timings`, and the body joins their encodings to the rest.
    pieces = {key: serialize.canonical_json(value) for key, value in report.items()}
    report["digest"] = serialize.digest_of_text(serialize.canonical_object(pieces))
    report["timings"] = {"total_seconds": time.perf_counter() - started}
    for key in ("digest", "timings"):
        pieces[key] = serialize.canonical_json(report[key])
    _mirror_certificates(args, report)
    body = serialize.canonical_object(pieces) + "\n"
    sys.stdout.write(body if stdout is None else stdout)
    if getattr(args, "out", None):
        Path(args.out).write_text(body)
    return report


def _certified(form, d: int) -> tuple[dict, tuple]:
    """The artifact of M_d's certificate (`stabilize.power_matrix`), and what
    was read with it as `serialize._verify_factor` reads it."""
    try:
        matrix, monomials = power_matrix(form, d)
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    cert = ldl_signature(matrix)
    return (serialize.factor_to_obj(form, d, cert.vectors, cert.witness),
            (form, d, cert.vectors, monomials))


def cmd_check(args) -> int:
    started = time.perf_counter()
    form, text = _load_form(args, parse_expression)
    factor, read = _certified(form, 0)
    report = _finish(args, ["check", "--mode", args.mode], text, {"certificate": factor}, started,
                     read=read)
    return EXIT_PASS if report["verdicts"]["passes"] else EXIT_FAIL


def cmd_stabilize(args) -> int:
    started = time.perf_counter()
    form, text = _load_form(args, parse_expression)
    try:
        report = find_minimal_d(form, args.mode, args.dmax)
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    report = _finish(args, ["stabilize", "--mode", args.mode, "--dmax", str(args.dmax)], text,
                     {"stabilization": serialize.stabilization_to_obj(report)}, started)
    return EXIT_PASS if report["verdicts"]["found"] else EXIT_INCONCLUSIVE


def cmd_factor(args) -> int:
    started = time.perf_counter()
    if args.numeric and not 0 <= args.float_digits <= serialize.MAX_FLOAT_DIGITS:
        raise InputProblem(
            f"float digits must be an integer from 0 to {serialize.MAX_FLOAT_DIGITS}")
    form, text = _load_form(args, parse_expression)
    command = ["factor", "--d", str(args.d)]
    factor, read = _certified(form, args.d)
    result = {"factor": factor}
    if args.numeric:
        # the rendering takes the factor as built, not read back from result
        result.update(serialize.run_renderings(command, result, args.float_digits, read))
    report = _finish(args, command, text, result, started)
    return EXIT_PASS if report["verdicts"]["factorable"] else EXIT_FAIL


def _load_family(args) -> tuple[list[tuple[str, object]], str]:
    text = _read_input(args)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputProblem(f"family file is not valid JSON: {exc}") from exc
    members = data.get("members") if isinstance(data, dict) else data
    if not isinstance(members, list):
        raise InputProblem("family file must be a list or a {'members': [...]} object")
    family = []
    for entry in members:
        label = entry.get("label") if isinstance(entry, dict) else None
        if label is None:
            raise InputProblem("each family member needs a label")
        if "expr" not in entry and "form" not in entry:
            raise InputProblem(f"member {label!r} has neither 'expr' nor 'form'")
        n = entry.get("n")
        if n is not None and type(n) is not int:
            raise InputProblem(f"member {label!r}: n must be an integer")
        try:
            form = _read_form(entry["expr"] if "expr" in entry else entry["form"],
                              n or args.n, parse_expression)
        except InputProblem as exc:
            raise InputProblem(f"member {label!r}: {exc}") from exc
        family.append((str(label), form))
    return family, text


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    family, text = _load_family(args)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["label", "d_min", "matrix_size_at_d_min", "elapsed_seconds"])
    table = []
    for row in stabilization_sweep(family, args.mode, args.dmax):
        elapsed = f"{row.elapsed:.6f}"
        if row.error is not None:
            writer.writerow([row.label, "error", "", elapsed])
            table.append({"label": row.label, "error": row.error})
            continue
        report = row.report
        if report.found():
            writer.writerow([row.label, report.d_min, report.steps[-1].size, elapsed])
        else:
            writer.writerow([row.label, "absent", "", elapsed])
        table.append({"label": row.label, "stabilization": serialize.stabilization_to_obj(report)})
    csv_text = buffer.getvalue()
    if args.csv:
        Path(args.csv).write_text(csv_text)
    _finish(args, ["sweep", "--mode", args.mode, "--dmax", str(args.dmax)], text,
            {"rows": table}, started, stdout=csv_text)
    return EXIT_PASS


def cmd_symbol(args) -> int:
    started = time.perf_counter()
    symbol, text = _load_form(args, parse_symbol)
    try:
        certify = certify_elliptic if isinstance(symbol, RealSymbol) else certify_elliptic_form
        report = certify(symbol, args.dmax)
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    command = ["symbol", "--dmax", str(args.dmax)]
    result = {"ellipticity": serialize.ellipticity_to_obj(report)}
    read = (report.form, report.stabilization and report.stabilization.vectors)
    result.update(serialize.run_renderings(command, result, read=read))
    verdict = _finish(args, command, text, result, started, read=read)["verdicts"]["verdict"]
    return {"certified": EXIT_PASS, "not_elliptic": EXIT_FAIL}.get(verdict, EXIT_INCONCLUSIVE)


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    form, text = _load_form(args, parse_expression)
    # F = (sum of squares over the positive weights) - (over the negative ones)
    factor, _ = _certified(form, 0)
    _finish(args, ["decompose"], text, {"decomposition": factor}, started)
    return EXIT_PASS


def cmd_verify(args) -> int:
    path = Path(args.certificate)
    if not path.exists():
        sys.stderr.write(f"error: no such file: {path}\n")
        return EXIT_INPUT
    try:
        obj = serialize.read_json(path.read_text())
    except json.JSONDecodeError:
        sys.stderr.write("error: not a JSON artifact\n")
        return EXIT_INPUT
    try:
        ok, reason = serialize.verify_obj(obj)
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    sys.stdout.write(json.dumps({"valid": ok, "reason": reason}) + "\n")
    return EXIT_PASS if ok else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it is.  Subcommand `x` runs `cmd_x`."""
    parser = argparse.ArgumentParser(
        prog="hermfact",
        description="Exact positivity certificates and holomorphic factorizations "
        "for Hermitian polynomial kernels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("input", nargs="?", help="input file (expression text or JSON)")
        p.add_argument("-e", "--expr", help="inline expression")
        p.add_argument("--n", type=int, default=None, help="ambient dimension floor")
        p.add_argument("--out", help="also write the JSON report to this file")
        p.add_argument("--cert-dir", help="mirror emitted certificates into this directory")

    p = sub.add_parser("check", help="certify positive (semi)definiteness of a kernel")
    common(p)
    p.add_argument("--mode", choices=["strict", "semi"], default="semi")

    p = sub.add_parser("stabilize", help="search the minimal norm-power exponent")
    common(p)
    p.add_argument("--mode", choices=["strict", "semi"], default="strict")
    p.add_argument("--dmax", type=int, default=16)

    p = sub.add_parser("factor", help="extract an exact weighted holomorphic factor")
    common(p)
    p.add_argument("--d", type=int, default=0, help="norm-power exponent applied first")
    p.add_argument("--numeric", action="store_true", help="also emit a floating factor")
    p.add_argument("--float-digits", type=int, default=12)

    p = sub.add_parser("sweep", help="run the exponent search over a family file")
    common(p)
    p.add_argument("--mode", choices=["strict", "semi"], default="strict")
    p.add_argument("--dmax", type=int, default=16)
    p.add_argument("--csv", help="also write the CSV table to this file")

    p = sub.add_parser("symbol", help="certify ellipticity of a constant-coefficient symbol")
    common(p)
    p.add_argument("--dmax", type=int, default=16)

    p = sub.add_parser("decompose", help="difference-of-squares decomposition")
    common(p)

    p = sub.add_parser("verify", help="re-check a serialized certificate or report")
    p.add_argument("certificate", help="artifact JSON file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so that a rebound `cmd_x` is the one that runs.
        return globals()[f"cmd_{args.subcommand}"](args)
    except (InputProblem, serialize.DigitLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
