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
from fractions import Fraction

from .certify import SignatureCertificate, inertia_of_d
from .factor import WeightedGramFactor
from .hermform import (
    BihermitianForm,
    HermitianMatrix,
    HoloPolyMatrix,
    bidegree,
    coefficient_matrix,
    evaluate_exact,
    gram,
    scale,
)
from .scalars import ZERO, GaussianRational
from .stabilize import MODES, StabilizationReport, multiplier_shift
from .symbols import EllipticityReport


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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


def holo_to_obj(matrix: HoloPolyMatrix) -> dict:
    weights = matrix.weights
    rows = []
    for k, row in enumerate(matrix.rows):
        rows.append(
            {
                "weight": fraction_to_str(weights[k]) if weights is not None else "1",
                "entries": [_poly_to_obj(poly) for poly in row],
            }
        )
    return {
        "kind": "holo_poly_matrix",
        "n": matrix.n,
        "shape": [len(matrix.rows), matrix.ncols],
        "rows": rows,
    }


def obj_to_holo(obj: dict) -> HoloPolyMatrix:
    if obj.get("kind") != "holo_poly_matrix":
        raise ValueError("not a serialized holomorphic matrix")
    shape = obj["shape"]
    if not (isinstance(shape, list) and len(shape) == 2):
        raise ValueError("a holomorphic matrix shape must be [rows, columns]")
    rows = [[_obj_to_poly(entry) for entry in row["entries"]] for row in obj["rows"]]
    weights = [Fraction(row["weight"]) for row in obj["rows"]]
    return HoloPolyMatrix.from_rows(obj["n"], rows, weights if rows else None, ncols=shape[1])


def factor_to_obj(factor: WeightedGramFactor) -> dict:
    obj = holo_to_obj(factor.matrix)
    obj["kind"] = "weighted_gram_factor"
    obj["target"] = form_to_obj(factor.target)
    return obj


def obj_to_factor(obj: dict) -> WeightedGramFactor:
    if obj.get("kind") != "weighted_gram_factor":
        raise ValueError("not a serialized weighted factor")
    inner = dict(obj)
    inner["kind"] = "holo_poly_matrix"
    matrix = obj_to_holo({k: v for k, v in inner.items() if k != "target"})
    return WeightedGramFactor(matrix, obj_to_form(obj["target"]))


def _entries_to_obj(entries) -> list[list]:
    return [[j, fraction_to_str(c.re), fraction_to_str(c.im)] for j, c in entries]


FORMAT_ERROR = "artifact is not in the current certificate format"
CONGRUENCE_KEYS = frozenset({"permutation", "transform", "diag", "blocks", "witness"})
CERTIFICATE_KEYS = CONGRUENCE_KEYS | {"kind", "size", "matrix"}
STABILIZATION_KEYS = frozenset({"kind", "mode", "d_max", "d_min", "form", "trail", "factor"})
ELLIPTICITY_KEYS = frozenset({
    "kind", "form", "verdict", "d", "witness_point", "sign_change", "sign_flipped",
    "variety_condition", "stabilization",
})


def _require_keys(obj, keys: frozenset, what: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        names = ", ".join(sorted(keys))
        raise ValueError(f"{FORMAT_ERROR}: {what} must have exactly the keys {names}")


def _require_mode(mode) -> None:
    if mode not in MODES:
        raise ValueError(f"{FORMAT_ERROR}: mode must be one of {', '.join(MODES)}, not {mode!r}")


def _obj_to_entries(items) -> tuple:
    if not isinstance(items, list) or not all(
        isinstance(item, list) and len(item) == 3 and type(item[0]) is int
        and isinstance(item[1], str) and isinstance(item[2], str)
        for item in items
    ):
        raise ValueError(f"{FORMAT_ERROR}: transform and blocks entries must be [int, str, str]")
    return tuple((j, GaussianRational(Fraction(re), Fraction(im))) for j, re, im in items)


def _congruence_to_obj(cert: SignatureCertificate) -> dict:
    """W as its strictly-lower nonzeros in pivot coordinates, one list of
    [j, re, im] per row; D as `diag` plus hollow `blocks` [k, re, im]."""
    return {
        "permutation": list(cert.permutation),
        "transform": [_entries_to_obj(row) for row in cert.transform],
        "diag": [fraction_to_str(d) for d in cert.diag],
        "blocks": _entries_to_obj(cert.blocks),
        "witness": [gaussian_to_pair(c) for c in cert.witness] if cert.witness else None,
    }


def _obj_to_congruence(obj: dict, matrix: HermitianMatrix) -> SignatureCertificate:
    witness = obj["witness"]
    return SignatureCertificate(
        matrix=matrix,
        permutation=tuple(obj["permutation"]),
        transform=tuple(_obj_to_entries(row) for row in obj["transform"]),
        diag=tuple(Fraction(d) for d in obj["diag"]),
        blocks=_obj_to_entries(obj["blocks"]),
        witness=tuple(pair_to_gaussian(pair) for pair in witness) if witness else None,
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
    return {
        "kind": "ellipticity_report",
        "form": form_to_obj(report.form),
        "verdict": report.verdict,
        "d": report.d,
        "witness_point": [gaussian_to_pair(c) for c in report.witness_point]
        if report.witness_point
        else None,
        "sign_change": {
            "positive_at": [gaussian_to_pair(c) for c in report.sign_pair[0][0]],
            "negative_at": [gaussian_to_pair(c) for c in report.sign_pair[1][0]],
        }
        if report.sign_pair
        else None,
        "sign_flipped": report.sign_flipped,
        "variety_condition": report.variety_condition,
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
    form = obj_to_form(obj["form"])
    trail = obj["trail"]
    passes = False
    for d, record in enumerate(trail):
        _require_keys(record, CONGRUENCE_KEYS, "a trail step")
        if d:
            form = multiplier_shift(form)
        matrix, _ = coefficient_matrix(form, mode="bidegree")
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
    if (factor is not None) != passes or (passes and obj_to_form(factor["target"]) != form):
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
    report of the form (of -form when sign_flipped) whose d_min is d."""
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
    searched = scale(form, -1) if obj["sign_flipped"] else form
    if stabilization["mode"] != "strict" or obj_to_form(stabilization["form"]) != searched:
        return False, "stabilization is not a strict search on the report's form"
    d_min = stabilization["d_min"]
    if obj["d"] != d_min or (verdict == "certified") != (d_min is not None):
        return False, "verdict does not match the stabilization"
    return True, "ok"


def _proven_verdicts(command: str, verdicts: dict, result: dict) -> dict:
    """The run-report verdict fields that the verified artifacts in `result`
    decide, with the values they decide."""
    if command in ("check", "factor"):
        cert = result["certificate"]
        pos, neg = inertia_of_d([Fraction(d) for d in cert["diag"]], cert["blocks"])
    if command == "check":
        _require_mode(verdicts["mode"])
        size = cert["size"]
        return {
            "passes": pos == size if verdicts["mode"] == "strict" else neg == 0,
            "inertia": {"pos": pos, "neg": neg, "zero": size - pos - neg},
            "matrix_size": size,
        }
    if command == "factor":
        factor = result.get("factor")
        return {"factorable": neg == 0, "rows": len(factor["rows"]) if factor else 0}
    if command == "stabilize":
        stabilization = result["stabilization"]
        d_min = stabilization["d_min"]
        return {"mode": stabilization["mode"], "d_max": stabilization["d_max"],
                "d_min": d_min, "found": d_min is not None}
    if command == "symbol":
        ellipticity = result["ellipticity"]
        form = obj_to_form(ellipticity["form"])
        return {"verdict": ellipticity["verdict"], "d": ellipticity["d"],
                "order": 2 * (bidegree(form) or 0), "complex_dim": form.n,
                "variety_condition": ellipticity["variety_condition"]}
    # check's bidegree is not bound: a certificate holds a matrix, not a form.
    return {}


def _verify_run_report(obj: dict) -> tuple[bool, str]:
    """Every embedded artifact verifies, and the verdicts say what they prove."""
    command, verdicts, result = obj.get("command"), obj.get("verdicts"), obj.get("result")
    if not (isinstance(command, list) and command and all(isinstance(a, str) for a in command)
            and isinstance(verdicts, dict)):
        raise ValueError("a run report needs a command list of strings and a verdicts object")
    checked = False
    for item in embedded_artifacts(result):
        ok, reason = verify_obj(item)
        if not ok:
            return False, reason
        checked = True
    if not checked:
        return False, "report embeds no certificates"
    proven = _proven_verdicts(command[0], verdicts, result)
    if any(verdicts.get(key) != value for key, value in proven.items()):
        return False, "verdicts do not match the embedded artifacts"
    return True, "ok"


def verify_obj(obj: dict) -> tuple[bool, str]:
    """Re-check a serialized artifact by exact arithmetic.

    Supports signature certificates (structure of W and D, congruence
    identity, witness), weighted factors (exact gram reconstruction),
    stabilization reports (each trail congruence against the matrix rebuilt
    from the embedded form, the minimality claims and the factor's target),
    ellipticity reports (the sphere points or the stabilization of the
    embedded form) and run reports (every embedded artifact, and the verdicts
    they decide).  An artifact not in the current format, or not of an
    artifact's shape, raises ValueError.
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
        factor = obj_to_factor(obj)
        if factor.matrix.weights is not None and any(
            w <= 0 for w in factor.matrix.weights
        ):
            return False, "nonpositive weight"
        if gram(factor.matrix) != factor.target:
            return False, "factor does not reconstruct its target"
        return True, "ok"
    if kind == "stabilization_report":
        return _verify_stabilization(obj)
    if kind == "ellipticity_report":
        return _verify_ellipticity(obj)
    if kind == "run_report":
        return _verify_run_report(obj)
    raise ValueError(f"unsupported artifact kind: {kind!r}")
