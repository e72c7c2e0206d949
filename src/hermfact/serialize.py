"""JSON (de)serialization for every artifact, with all rationals as strings.

Coefficients are serialized as exact "p/q" strings (or "p" when integral) so
that certificates survive the round trip bit-for-bit.  Matrix indices i, j of
kernel terms are 1-based on the wire, 0-based in memory.  `canonical_json`
fixes key order and separators, making reports byte-reproducible; volatile
fields (timings) are stripped before digesting.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

from .certify import SignatureCertificate, inertia_of_d
from .factor import WeightedGramFactor, numeric_factor
from .hermform import (
    BihermitianForm,
    HermitianMatrix,
    HoloPolyMatrix,
    bidegree,
    evaluate_exact,
    scale,
)
from .scalars import ZERO, GaussianRational
from .stabilize import MODES, StabilizationReport, exponent_steps
from .symbols import EllipticityReport, format_diff_operator_row


class DigitLimitError(ValueError):
    """A number too long for Python's int-to-string conversion."""


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise DigitLimitError(
            "a number in the report has more digits than the int-to-string limit "
            f"(sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()})") from None


def str_to_fraction(text: str) -> Fraction:
    return Fraction(text)


def gaussian_to_pair(c: GaussianRational) -> list[str]:
    return [fraction_to_str(c.re), fraction_to_str(c.im)]


def pair_to_gaussian(pair) -> GaussianRational:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
        raise ValueError("a Gaussian rational must be a pair [re, im] of strings")
    return GaussianRational(Fraction(pair[0]), Fraction(pair[1]))


def form_to_obj(form: BihermitianForm) -> dict:
    terms = []
    for (i, j, alpha, beta) in sorted(form.support):
        coeff = form.support[(i, j, alpha, beta)]
        terms.append(
            {
                "i": i + 1,
                "j": j + 1,
                "alpha": list(alpha),
                "beta": list(beta),
                "re": fraction_to_str(coeff.re),
                "im": fraction_to_str(coeff.im),
            }
        )
    return {"kind": "bihermitian_form", "n": form.n, "r": form.r, "terms": terms}


def obj_to_form(obj: dict) -> BihermitianForm:
    if not isinstance(obj, dict) or obj.get("kind") != "bihermitian_form":
        raise ValueError("not a serialized kernel")
    terms = []
    for term in obj["terms"]:
        coeff = GaussianRational(Fraction(term["re"]), Fraction(term["im"]))
        terms.append(
            (
                (term["i"] - 1, term["j"] - 1, tuple(term["alpha"]), tuple(term["beta"])),
                coeff,
            )
        )
    return BihermitianForm.from_terms(obj["n"], obj["r"], terms)


def _poly_to_obj(poly) -> list[dict]:
    out = []
    for alpha in sorted(poly):
        coeff = poly[alpha]
        out.append(
            {
                "alpha": list(alpha),
                "re": fraction_to_str(coeff.re),
                "im": fraction_to_str(coeff.im),
            }
        )
    return out


def _obj_to_poly(items) -> dict:
    return {
        tuple(item["alpha"]): GaussianRational(Fraction(item["re"]), Fraction(item["im"]))
        for item in items
    }


def factor_to_obj(factor: WeightedGramFactor) -> dict:
    matrix = factor.matrix
    weights = matrix.weights or (Fraction(1),) * len(matrix.rows)
    return {
        "kind": "weighted_gram_factor",
        "n": matrix.n,
        "shape": [len(matrix.rows), matrix.ncols],
        "rows": [{"weight": fraction_to_str(w), "entries": [_poly_to_obj(poly) for poly in row]}
                 for w, row in zip(weights, matrix.rows)],
        "target": form_to_obj(factor.target),
    }


def obj_to_factor(obj: dict) -> WeightedGramFactor:
    if obj.get("kind") != "weighted_gram_factor":
        raise ValueError("not a serialized weighted factor")
    shape = obj["shape"]
    if not (isinstance(shape, list) and len(shape) == 2):
        raise ValueError("a holomorphic matrix shape must be [rows, columns]")
    rows = [[_obj_to_poly(entry) for entry in row["entries"]] for row in obj["rows"]]
    weights = [Fraction(row["weight"]) for row in obj["rows"]]
    matrix = HoloPolyMatrix.from_rows(obj["n"], rows, weights if rows else None, ncols=shape[1])
    return WeightedGramFactor(matrix, obj_to_form(obj["target"]))


def _entries_to_obj(entries) -> list[list]:
    return [[j, fraction_to_str(c.re), fraction_to_str(c.im)] for j, c in entries]


FORMAT_ERROR = "artifact is not in the current certificate format"
CONGRUENCE_KEYS = frozenset({"permutation", "lower", "diag", "blocks", "witness"})
CERTIFICATE_KEYS = CONGRUENCE_KEYS | {"kind", "size", "matrix"}
STABILIZATION_KEYS = frozenset({"kind", "mode", "d_max", "d_min", "form", "trail", "factor"})
ELLIPTICITY_KEYS = frozenset({
    "kind", "form", "verdict", "d", "witness_point", "sign_change", "stabilization",
})


def _require_keys(obj, keys: frozenset, what: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        names = ", ".join(sorted(keys))
        raise ValueError(f"{FORMAT_ERROR}: {what} must have exactly the keys {names}")


def _require_mode(mode) -> str:
    if mode not in MODES:
        raise ValueError(f"{FORMAT_ERROR}: mode must be one of {', '.join(MODES)}, not {mode!r}")
    return mode


def _obj_to_entries(items) -> tuple:
    if not isinstance(items, list) or not all(
        isinstance(item, list) and len(item) == 3 and type(item[0]) is int
        and isinstance(item[1], str) and isinstance(item[2], str)
        for item in items
    ):
        raise ValueError(f"{FORMAT_ERROR}: lower, blocks and witness entries must be "
                         "[int, str, str]")
    return tuple((j, GaussianRational(Fraction(re), Fraction(im))) for j, re, im in items)


def _obj_to_witness(items, n: int):
    """The dense witness of its nonzero entries [j, re, im], j ascending in 0..n-1."""
    if items is None:
        return None
    entries = _obj_to_entries(items)
    indices = [j for j, _ in entries]
    if indices != sorted(set(indices) & set(range(n))):
        raise ValueError(f"{FORMAT_ERROR}: witness indices must ascend within 0..{n - 1}")
    return tuple(dict(entries).get(j, ZERO) for j in range(n))


def _congruence_to_obj(cert: SignatureCertificate) -> dict:
    """L as its nonzeros below the diagonal in pivot coordinates, one list of
    [j, re, im] per column; D as `diag` plus hollow `blocks` [k, re, im]; the
    witness as its nonzero entries [j, re, im]."""
    witness = None if cert.witness is None else [(j, c) for j, c in enumerate(cert.witness) if c]
    return {
        "permutation": list(cert.permutation),
        "lower": [_entries_to_obj(column) for column in cert.lower],
        "diag": [fraction_to_str(d) for d in cert.diag],
        "blocks": _entries_to_obj(cert.blocks),
        "witness": None if witness is None else _entries_to_obj(witness),
    }


def _obj_to_congruence(obj: dict, matrix: HermitianMatrix) -> SignatureCertificate:
    return SignatureCertificate(
        matrix=matrix,
        permutation=tuple(obj["permutation"]),
        lower=tuple(_obj_to_entries(column) for column in obj["lower"]),
        diag=tuple(Fraction(d) for d in obj["diag"]),
        blocks=_obj_to_entries(obj["blocks"]),
        witness=_obj_to_witness(obj["witness"], matrix.size),
    )


def certificate_to_obj(cert: SignatureCertificate) -> dict:
    """A standalone certificate carries its dense matrix; its inertia is read off D."""
    return {
        "kind": "signature_certificate",
        "size": cert.size,
        "matrix": [[gaussian_to_pair(c) for c in row.to_gaussians()] for row in cert.matrix.rows],
        **_congruence_to_obj(cert),
    }


def obj_to_certificate(obj: dict) -> SignatureCertificate:
    if obj.get("kind") != "signature_certificate":
        raise ValueError("not a serialized signature certificate")
    _require_keys(obj, CERTIFICATE_KEYS, "a signature certificate")
    rows = [[pair_to_gaussian(pair) for pair in row] for row in obj["matrix"]]
    return _obj_to_congruence(obj, HermitianMatrix.from_rows(rows))


def stabilization_to_obj(report: StabilizationReport) -> dict:
    """The trail holds one congruence per d = 0, 1, ...; each step's matrix,
    d and pass flag follow from the form, so they are not stored."""
    return {
        "kind": "stabilization_report",
        "mode": report.mode,
        "d_max": report.d_max,
        "d_min": report.d_min,
        "form": form_to_obj(report.form),
        "trail": [_congruence_to_obj(step.certificate) for step in report.steps],
        "factor": factor_to_obj(report.factor) if report.factor is not None else None,
    }


def ellipticity_to_obj(report: EllipticityReport) -> dict:
    """The sign flip is not stored: the stabilization's form is the symbol's
    or its negation."""
    return {
        "kind": "ellipticity_report",
        "form": form_to_obj(report.form),
        "verdict": report.verdict,
        "d": report.d,
        "witness_point": [gaussian_to_pair(c) for c in report.witness_point]
        if report.witness_point
        else None,
        "sign_change": {
            "positive_at": [gaussian_to_pair(c) for c in report.sign_pair[0]],
            "negative_at": [gaussian_to_pair(c) for c in report.sign_pair[1]],
        }
        if report.sign_pair
        else None,
        "stabilization": stabilization_to_obj(report.stabilization)
        if report.stabilization
        else None,
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_VOLATILE_KEYS = {"timings", "elapsed", "elapsed_seconds"}


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def digest_of_obj(obj) -> str:
    return "sha256:" + hashlib.sha256(
        canonical_json(strip_volatile(obj)).encode("utf-8")
    ).hexdigest()


def digest_of_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


ARTIFACT_KINDS = frozenset(
    {"signature_certificate", "weighted_gram_factor", "stabilization_report", "ellipticity_report"}
)


def embedded_artifacts(obj, enter=frozenset()):
    """The artifacts inside obj, in a fixed order; the walk goes on inside an
    artifact only when its kind is in `enter`."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            kind = item.get("kind")
            if kind in ARTIFACT_KINDS:
                yield item
            if kind not in ARTIFACT_KINDS or kind in enter:
                stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)


def _verify_stabilization(obj: dict) -> tuple[bool, str]:
    """A stabilization report proves its d_min claim when its trail certifies
    the coefficient matrix of <z,w>^d F for d = 0, 1, ..., last, every step
    before the last fails, the last passes exactly when d_min is its d (at
    most d_max) and fails at d_max otherwise, and the factor is one of
    <z,w>^d_min F."""
    _require_keys(obj, STABILIZATION_KEYS, "a stabilization report")
    _require_mode(obj["mode"])
    strict = obj["mode"] == "strict"
    trail = obj["trail"]
    steps = exponent_steps(obj_to_form(obj["form"]))
    passes = False
    for d, record in enumerate(trail):
        _require_keys(record, CONGRUENCE_KEYS, "a trail step")
        matrix, rows = next(steps)
        cert = _obj_to_congruence(record, matrix)
        ok, reason = cert.verify()
        if not ok:
            return False, f"trail d={d}: {reason}"
        passes = cert.is_positive_definite() if strict else cert.is_positive_semidefinite()
        if passes and d < len(trail) - 1:
            return False, "d_min is not minimal"
    last = len(trail) - 1
    if obj["d_min"] != (last if passes else None):
        return False, "d_min does not match the trail"
    if passes and last > obj["d_max"]:
        return False, "trail runs past d_max"
    if not passes and last != obj["d_max"]:
        return False, "trail stops before d_max"
    factor = obj["factor"]
    if (factor is not None) != passes or (passes and obj_to_form(factor["target"]) != rows.form()):
        return False, "factor is not one of the form shifted d_min times"
    return verify_obj(factor) if passes else (True, "ok")


def _sphere_value(form: BihermitianForm, pairs) -> GaussianRational | None:
    """The symbol's exact value at a point, or None off the unit sphere."""
    point = tuple(pair_to_gaussian(pair) for pair in pairs)
    if sum(c.abs2() for c in point) != 1:
        return None
    return evaluate_exact(form, point, point)[0][0]


def _verify_ellipticity(obj: dict) -> tuple[bool, str]:
    """An ellipticity report proves its verdict about its embedded form:
    "not_elliptic" by an exact zero, or exact values of opposite sign, on the
    unit sphere; "certified" and "not_certified" by a strict stabilization
    report of the form or of its negation, whose d_min is d."""
    _require_keys(obj, ELLIPTICITY_KEYS, "an ellipticity report")
    form = obj_to_form(obj["form"])
    verdict, stabilization = obj["verdict"], obj["stabilization"]
    if verdict == "not_elliptic":
        if stabilization is not None or obj["d"] is not None:
            return False, "verdict does not match the stabilization"
        if form.r != 1:
            return False, "the form is not a scalar symbol"
        point, change = obj["witness_point"], obj["sign_change"]
        if point is None and change is None:
            return False, "not_elliptic report names no point"
        if point is not None and _sphere_value(form, point) != ZERO:
            return False, "witness point is not a zero of the symbol on the unit sphere"
        if change is not None:
            pos = _sphere_value(form, change["positive_at"])
            neg = _sphere_value(form, change["negative_at"])
            if pos is None or neg is None or not (pos.im == neg.im == 0 and pos.re > 0 > neg.re):
                return False, "sign-change points do not have opposite signs on the unit sphere"
        return True, "ok"
    if verdict not in ("certified", "not_certified"):
        raise ValueError(f"{FORMAT_ERROR}: unknown ellipticity verdict {verdict!r}")
    if stabilization is None:
        return False, "verdict does not match the stabilization"
    ok, reason = verify_obj(stabilization)
    if not ok:
        return False, f"stabilization: {reason}"
    if (stabilization["mode"] != "strict"
            or obj_to_form(stabilization["form"]) not in (form, scale(form, -1))):
        return False, "stabilization is not a strict search on the report's form"
    d_min = stabilization["d_min"]
    if obj["d"] != d_min or (verdict == "certified") != (d_min is not None):
        return False, "verdict does not match the stabilization"
    return True, "ok"


# The one verdict that no artifact decides: a certificate holds a matrix, not
# the form it came from.
UNBOUND_VERDICT = ("check", "bidegree")


def _artifact(container, key: str, kind: str) -> dict:
    """container[key], which must be an artifact of `kind` in a container that
    is not itself an artifact: the walk over a run report's embedded
    artifacts, which stops at an artifact, has then verified it."""
    if not isinstance(container, dict) or container.get("kind") in ARTIFACT_KINDS:
        raise ValueError(f"a run report's {key} must sit in an object that is not an artifact")
    item = container.get(key)
    if not isinstance(item, dict) or item.get("kind") != kind:
        raise ValueError(f"a run report's {key} must be a {kind}")
    return item


def _option(command: list[str], flag: str) -> str:
    if flag not in command[1:-1]:
        raise ValueError(f"a {command[0]} run report's command needs {flag}")
    return command[command.index(flag) + 1]


def _search_bounds(command: list[str]) -> tuple[str, int]:
    return _require_mode(_option(command, "--mode")), int(_option(command, "--dmax"))


def _require_searched(stabilization: dict, mode: str, d_max: int, what: str) -> None:
    if (stabilization["mode"], stabilization["d_max"]) != (mode, d_max):
        raise ValueError(f"{what} was not searched with the command's --mode and --dmax")


def _inertia(cert: dict) -> tuple[int, int]:
    return inertia_of_d([Fraction(d) for d in cert["diag"]], cert["blocks"])


def _symbol_summary(ellipticity: dict) -> str:
    verdict, stabilization = ellipticity["verdict"], ellipticity["stabilization"]
    if verdict == "certified":
        return (f"elliptic: certified at exponent d={ellipticity['d']}; the lifted symbol is a "
                f"squared norm of {len(stabilization['factor']['rows'])} holomorphic "
                "differential operator rows")
    if verdict == "not_elliptic":
        reason = "exact zero" if ellipticity["witness_point"] is not None else "sign change"
        return f"not elliptic: {reason} of the symbol on the unit sphere"
    return f"not certified up to d={stabilization['d_max']}"


def run_verdicts(command: list[str], result: dict) -> dict:
    """The verdict block of a run report: what the artifacts in `result`
    prove, with the options of `command` that no artifact records.  The CLI
    adds the UNBOUND_VERDICT to a `check` block."""
    name = command[0]
    if name == "check":
        mode = _require_mode(_option(command, "--mode"))
        cert = _artifact(result, "certificate", "signature_certificate")
        (pos, neg), size = _inertia(cert), cert["size"]
        return {"mode": mode, "passes": pos == size if mode == "strict" else neg == 0,
                "inertia": {"pos": pos, "neg": neg, "zero": size - pos - neg}, "matrix_size": size}
    if name == "stabilize":
        mode, d_max = _search_bounds(command)
        stabilization = _artifact(result, "stabilization", "stabilization_report")
        _require_searched(stabilization, mode, d_max, "the stabilization")
        return {"mode": mode, "d_max": d_max,
                "d_min": stabilization["d_min"], "found": stabilization["d_min"] is not None}
    if name == "factor":
        # A factor proves PSD, so the certificate is there only to prove that
        # no factor exists.
        d = int(_option(command, "--d"))
        if "factor" not in result:
            if _inertia(_artifact(result, "certificate", "signature_certificate"))[1] == 0:
                raise ValueError("a factor report with a PSD certificate must carry its factor")
            return {"d": d, "factorable": False, "rows": 0}
        if "certificate" in result:
            raise ValueError("a factor report carries its factor or its certificate, not both")
        rows = len(_artifact(result, "factor", "weighted_gram_factor")["rows"])
        return {"d": d, "factorable": True, "rows": rows}
    if name == "sweep":
        mode, d_max = _search_bounds(command)
        rows = []
        for row in result["rows"]:
            verdict = {"label": row["label"], "d_min": None, "error": row.get("error")}
            if verdict["error"] is None:
                stabilization = _artifact(row, "stabilization", "stabilization_report")
                _require_searched(stabilization, mode, d_max, f"sweep row {row['label']!r}")
                verdict["d_min"] = stabilization["d_min"]
            rows.append(verdict)
        return {"mode": mode, "d_max": d_max, "rows": rows}
    if name == "symbol":
        ellipticity = _artifact(result, "ellipticity", "ellipticity_report")
        if ellipticity["stabilization"] is not None:
            # The ellipticity check has made this a strict search.
            _require_searched(ellipticity["stabilization"], "strict",
                              int(_option(command, "--dmax")), "the symbol's stabilization")
        form = obj_to_form(ellipticity["form"])
        return {"verdict": ellipticity["verdict"], "d": ellipticity["d"],
                "order": 2 * (bidegree(form) or 0), "complex_dim": form.n,
                "summary": _symbol_summary(ellipticity)}
    if name == "decompose":
        positive = len(_artifact(result, "positive", "weighted_gram_factor")["rows"])
        negative = len(_artifact(result, "negative", "weighted_gram_factor")["rows"])
        return {"positive_rank": positive, "negative_rank": negative,
                "sum_of_squares": negative == 0}
    raise ValueError(f"unknown run report command {name!r}")


# The result keys that render an artifact beside it, and the most digits a
# numeric rendering is asked for.
RENDERING_KEYS = ("operator_rows", "numeric_factor")
MAX_FLOAT_DIGITS = 1000


def run_renderings(command: list[str], result: dict, float_digits: int | None = None) -> dict:
    """The renderings beside the artifacts in `result`, derived from them: a
    certified symbol's differential operator rows, and, when `float_digits`
    is given, a factor's floating rendering with weights folded in as square
    roots good to that many digits."""
    name = command[0]
    if name == "symbol":
        stabilization = _artifact(result, "ellipticity", "ellipticity_report")["stabilization"]
        if stabilization is not None and stabilization["factor"] is not None:
            rows = obj_to_factor(stabilization["factor"]).rows
            return {"operator_rows": [format_diff_operator_row(row, w) for w, row in rows]}
    if name == "factor" and float_digits is not None and "factor" in result:
        if type(float_digits) is not int or not 0 <= float_digits <= MAX_FLOAT_DIGITS:
            raise ValueError(f"float digits must be an integer from 0 to {MAX_FLOAT_DIGITS}")
        factor = obj_to_factor(_artifact(result, "factor", "weighted_gram_factor"))
        rows = numeric_factor(factor, float_digits).rows
        return {"numeric_factor": {
            "kind": "numeric_factor",
            "float_digits": float_digits,
            "rows": [[{"alpha": list(alpha), "value": [coeff.real, coeff.imag]}
                      for poly in row for alpha, coeff in sorted(poly.items())]
                     for row in rows],
        }}
    return {}


def _verify_run_report(obj: dict) -> tuple[bool, str]:
    """Every embedded artifact verifies, the verdicts are exactly those that
    `run_verdicts` derives from them, besides the UNBOUND_VERDICT, and the
    renderings exactly those that `run_renderings` derives."""
    command, verdicts, result = obj.get("command"), obj.get("verdicts"), obj.get("result")
    if not (isinstance(command, list) and command and all(isinstance(a, str) for a in command)
            and isinstance(verdicts, dict) and isinstance(result, dict)):
        raise ValueError("a run report needs a command list of strings, a verdicts object "
                         "and a result object")
    for item in embedded_artifacts(result):
        ok, reason = verify_obj(item)
        if not ok:
            return False, reason
    claimed = {k: v for k, v in verdicts.items() if (command[0], k) != UNBOUND_VERDICT}
    if claimed != run_verdicts(command, result):
        return False, "verdicts do not match the embedded artifacts"
    numeric = result.get("numeric_factor")
    digits = numeric.get("float_digits") if isinstance(numeric, dict) else None
    rendered = {key: result[key] for key in RENDERING_KEYS if key in result}
    if rendered != run_renderings(command, result, digits):
        return False, "renderings do not match the embedded artifacts"
    return True, "ok"


def verify_obj(obj: dict) -> tuple[bool, str]:
    """Re-check a serialized artifact by exact arithmetic.

    Supports signature certificates (structure of L and D, the identity
    M = sum w_k v_k v_k^adj over their weighted vectors, witness), weighted
    factors (exact gram reconstruction), stabilization reports (each trail
    certificate against the matrix rebuilt from the embedded form, the
    minimality claims and the factor's target), ellipticity reports (the
    sphere points or the stabilization of the embedded form) and run reports
    (every embedded artifact, and the verdicts and renderings derived from
    them).  An artifact not in the current format, or not of an artifact's
    shape, raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("an artifact must be a JSON object")
    kind = obj.get("kind")
    if kind == "signature_certificate":
        cert = obj_to_certificate(obj)
        if obj["size"] != cert.size:
            return False, "component sizes disagree"
        return cert.verify()
    if kind == "weighted_gram_factor":
        # Decoding has checked that every weight is positive.
        if not obj_to_factor(obj).reconstructs_target():
            return False, "factor does not reconstruct its target"
        return True, "ok"
    if kind == "stabilization_report":
        return _verify_stabilization(obj)
    if kind == "ellipticity_report":
        return _verify_ellipticity(obj)
    if kind == "run_report":
        return _verify_run_report(obj)
    raise ValueError(f"unsupported artifact kind: {kind!r}")
