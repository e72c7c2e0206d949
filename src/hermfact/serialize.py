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

from .certify import SignatureCertificate
from .factor import WeightedGramFactor
from .hermform import BihermitianForm, HermitianMatrix, HoloPolyMatrix, gram
from .scalars import GaussianRational
from .stabilize import StabilizationReport
from .symbols import EllipticityReport


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def str_to_fraction(text: str) -> Fraction:
    return Fraction(text)


def gaussian_to_pair(c: GaussianRational) -> list[str]:
    return [fraction_to_str(c.re), fraction_to_str(c.im)]


def pair_to_gaussian(pair) -> GaussianRational:
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
    if obj.get("kind") != "bihermitian_form":
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
    rows = [[_obj_to_poly(entry) for entry in row["entries"]] for row in obj["rows"]]
    weights = [Fraction(row["weight"]) for row in obj["rows"]]
    return HoloPolyMatrix.from_rows(
        obj["n"], rows, weights if rows else None, ncols=obj["shape"][1]
    )


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


def matrix_to_obj(rows) -> list[list[list[str]]]:
    return [[gaussian_to_pair(entry) for entry in row] for row in rows]


def obj_to_matrix_rows(obj) -> tuple:
    return tuple(tuple(pair_to_gaussian(pair) for pair in row) for row in obj)


def _entries_to_obj(entries) -> list[list]:
    return [[j, fraction_to_str(c.re), fraction_to_str(c.im)] for j, c in entries]


def _obj_to_entries(items) -> tuple:
    return tuple((j, GaussianRational(Fraction(re), Fraction(im))) for j, re, im in items)


def certificate_to_obj(cert: SignatureCertificate) -> dict:
    """W is written as its strictly-lower nonzeros in pivot coordinates, one
    list of [j, re, im] per row; D as `diag` plus hollow `blocks` [k, re, im]."""
    return {
        "kind": "signature_certificate",
        "size": cert.size,
        "matrix": matrix_to_obj(cert.matrix.entries),
        "inertia": {"pos": cert.n_pos, "neg": cert.n_neg, "zero": cert.n_zero},
        "permutation": list(cert.permutation),
        "transform": [_entries_to_obj(row) for row in cert.transform],
        "diag": [fraction_to_str(d) for d in cert.diag],
        "blocks": _entries_to_obj(cert.blocks),
        "witness": [gaussian_to_pair(c) for c in cert.witness] if cert.witness else None,
    }


def obj_to_certificate(obj: dict) -> SignatureCertificate:
    if obj.get("kind") != "signature_certificate":
        raise ValueError("not a serialized signature certificate")
    witness = obj.get("witness")
    return SignatureCertificate(
        matrix=HermitianMatrix.from_rows(obj_to_matrix_rows(obj["matrix"])),
        n_pos=obj["inertia"]["pos"],
        n_neg=obj["inertia"]["neg"],
        n_zero=obj["inertia"]["zero"],
        permutation=tuple(obj["permutation"]),
        transform=tuple(_obj_to_entries(row) for row in obj["transform"]),
        diag=tuple(Fraction(d) for d in obj["diag"]),
        blocks=_obj_to_entries(obj["blocks"]),
        witness=tuple(pair_to_gaussian(pair) for pair in witness) if witness else None,
    )


def stabilization_to_obj(report: StabilizationReport) -> dict:
    return {
        "kind": "stabilization_report",
        "mode": report.mode,
        "d_max": report.d_max,
        "d_min": report.d_min,
        # A step's size and inertia are its certificate's; they are not copied.
        "trail": [
            {"d": step.d, "passes": step.passes, "certificate": certificate_to_obj(step.certificate)}
            for step in report.steps
        ],
        "factor": factor_to_obj(report.factor) if report.factor is not None else None,
    }


def ellipticity_to_obj(report: EllipticityReport) -> dict:
    return {
        "kind": "ellipticity_report",
        "real_dim": report.real_dim,
        "complex_dim": report.complex_dim,
        "order": report.order,
        "verdict": report.verdict,
        "d": report.d,
        "e_matrix": matrix_to_obj(report.e_matrix.entries) if report.e_matrix else None,
        "factor": factor_to_obj(report.factor) if report.factor else None,
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


def _verify_trail(obj: dict) -> tuple[bool, str]:
    """A stabilization report proves its d_min claim when its trail runs
    d = 0, 1, ..., last with every certificate valid, every step before the
    last failing, and the last step passing exactly when d_min is its d (at
    most d_max), failing at d_max otherwise."""
    trail = obj["trail"]
    if not trail or [step["d"] for step in trail] != list(range(len(trail))):
        return False, "trail does not run d = 0, 1, ... without gaps"
    for step in trail:
        cert = step["certificate"]
        if cert.get("kind") != "signature_certificate":
            raise ValueError("not a serialized signature certificate")
        ok, reason = verify_obj(cert)
        if not ok:
            return False, f"trail d={step['d']}: {reason}"
        # The certificate just verified, so its inertia counts are proven
        # and its size is the row count of its matrix.
        inertia = cert["inertia"]
        passes = (
            inertia["pos"] == cert["size"] if obj["mode"] == "strict" else inertia["neg"] == 0
        )
        if passes != step["passes"]:
            return False, f"trail d={step['d']}: pass flag contradicts inertia"
    last = trail[-1]
    if any(step["passes"] for step in trail[:-1]):
        return False, "d_min is not minimal"
    if obj.get("d_min") != (last["d"] if last["passes"] else None):
        return False, "d_min does not match the trail"
    if last["passes"] and last["d"] > obj["d_max"]:
        return False, "trail runs past d_max"
    if not last["passes"] and last["d"] != obj["d_max"]:
        return False, "trail stops before d_max"
    return True, "ok"


def verify_obj(obj: dict) -> tuple[bool, str]:
    """Re-check a serialized artifact from its own data alone.

    Supports signature certificates (structure of W and D, congruence
    identity, inertia, witness), weighted factors (exact gram reconstruction),
    stabilization reports (every trail certificate plus the minimality
    claims), and run reports / ellipticity reports (every embedded artifact).
    """
    kind = obj.get("kind")
    if kind == "signature_certificate":
        cert = obj_to_certificate(obj)
        if obj.get("size") != cert.size:
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
        ok, reason = _verify_trail(obj)
        if ok and obj.get("factor") is not None:
            return verify_obj(obj["factor"])
        return ok, reason
    if kind == "ellipticity_report":
        for key in ("factor", "stabilization"):
            if obj.get(key) is not None:
                ok, reason = verify_obj(obj[key])
                if not ok:
                    return False, f"{key}: {reason}"
        return True, "ok"
    if kind == "run_report":
        checked = False
        for item in embedded_artifacts(obj.get("result")):
            ok, reason = verify_obj(item)
            if not ok:
                return False, reason
            checked = True
        return (True, "ok") if checked else (False, "report embeds no certificates")
    raise ValueError(f"unsupported artifact kind: {kind!r}")
