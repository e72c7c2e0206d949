"""JSON (de)serialization for every artifact, its numbers held as they are in memory.

An artifact holds integers: a kernel is its Gaussian-integer numerators over
one denominator, `{kind, n, r, den, terms}`, each term the row [i, j, alpha,
beta, re, im] with matrix indices i, j 1-based on the wire and 0-based in
memory, written once per conjugate pair (the lesser key) and mirrored by the
one reader, `obj_to_form`; a factor vector or a witness is Gaussian integers
of content 1, its nonzero entries [j, re, im], and a weight the pair [p, q]
of its ratio in lowest terms.  Exactly one spelling of each is read, so a
digest names one artifact; any other is a ValueError naming FORMAT_ERROR.
Input files keep their own spelling: rationals as strings or ints read by
`read_ratio`, both triangles written, terms as rows or objects.  Points of an
ellipticity report are [re, im] pairs of strings, read only as
`fraction_to_str` writes them.

Every report and artifact file is `canonical_json` (sorted keys, no
whitespace, CPython's C encoder) on one line; `python -m json.tool` indents
it.  The digest of a report hashes that encoding without its `digest` and
volatile `timings` keys, so it does not depend on the layout of the file.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction
from itertools import chain, compress
from math import gcd
from operator import eq, le, lt, or_

from .certify import certificate_failure, factor_failure, witness_failure
from .factor import _factor_from_parts, numeric_factor
from .hermform import (
    BihermitianForm,
    bidegree,
    checked_bidegree,
    coefficient_basis,
    matrix_size,
)
from .scalars import GaussianRational, GaussianRow, SparseRow
from .stabilize import MODES, StabilizationReport, last_exponent, power_matrix, shifted_rows
from .symbols import (EllipticityReport, format_diff_operator_row, point_sign, require_symbol,
                      searched_form)


class DigitLimitError(ValueError):
    """A number too long for Python's int-to-string conversion."""

    def __init__(self, where: str = "the report"):
        super().__init__(f"a number in {where} has more digits than the int-to-string limit "
                         f"(sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()})")


def _ratio_to_str(p: int, q: int) -> str:
    """p/q as written, for q > 0 and p/q in lowest terms."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        raise DigitLimitError() from None


def fraction_to_str(x: Fraction) -> str:
    return _ratio_to_str(x.numerator, x.denominator)


_WRITTEN_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _written_ratio(text: str) -> tuple[int, int] | None:
    """(p, q) of the spelling "p" or "p/q" of ASCII digits, else None."""
    match = _WRITTEN_RATIO.fullmatch(text)
    if match is None:
        return None
    p, q = match.groups()
    q = 1 if q is None else int(q)
    if q == 0:
        raise ValueError("a rational has a zero denominator")
    return int(p), q


def read_ratio(value, seen: dict | None = None) -> tuple[int, int]:
    """The rational `value`, a string or an int, as (p, q), q > 0, not always
    in lowest terms.

    A string "p" or "p/q" of ASCII digits, as `fraction_to_str` writes it,
    goes straight to ints; any other goes through `Fraction(value)`, so every
    spelling it accepts is accepted.  A zero denominator, a float, a bool or
    any value not a rational raises ValueError.  A reader that passes its own
    dict `seen` reads each string once: a form repeats few values.
    """
    if seen is not None and type(value) is str:
        if value not in seen:
            seen[value] = read_ratio(value)
        return seen[value]
    if type(value) not in (str, int):
        raise ValueError(f"not a rational: {value!r}")
    ratio = _written_ratio(value) if type(value) is str else None
    if ratio is not None:
        return ratio
    try:
        x = Fraction(value)
    except ZeroDivisionError:
        raise ValueError("a rational has a zero denominator") from None
    return x.numerator, x.denominator


def gaussian_to_pair(c: GaussianRational) -> list[str]:
    return [fraction_to_str(c.re), fraction_to_str(c.im)]


def pair_to_gaussian(pair) -> GaussianRational:
    """A point's coordinate [re, im] as `gaussian_to_pair` writes it; any
    other spelling is the format error."""
    try:
        c = GaussianRational(*(Fraction(*_written_ratio(x)) for x in pair))
        written = type(pair) is list and gaussian_to_pair(c) == pair
    except (TypeError, ValueError):  # not a pair of written strings, or q = 0
        written = False
    if not written:
        raise _wire_error(f"a point's coordinates are written as fraction_to_str writes "
                          f"them, not {pair!r}")
    return c


FORMAT_ERROR = "artifact is not in the current certificate format"
# The fields of a kernel term, in the order of its row, and the keys of an
# artifact's kernel.
TERM_FIELDS = ("i", "j", "alpha", "beta", "re", "im")
FORM_KEYS = frozenset({"kind", "n", "r", "den", "terms"})


def _wire_error(message: str) -> ValueError:
    return ValueError(f"{FORMAT_ERROR}: {message}")


def _integers(*columns) -> bool:
    """True when every item of every column is an int, not a bool."""
    return set(map(type, chain(*columns))) <= {int}


def _rows(items, length: int) -> bool:
    """True when `items` is a list of lists of `length` items each."""
    return (type(items) is list and set(map(type, items)) <= {list}
            and set(map(len, items)) <= {length})


def form_to_obj(form: BihermitianForm) -> dict:
    """The form as its numerators over `den`: each term the row [i, j, alpha,
    beta, re, im], 1-based i and j, written once per conjugate pair, the
    lesser of its key (i, j, alpha, beta) and its twin's (j, i, beta, alpha),
    in key order.  Only a Hermitian-symmetric form has this spelling."""
    support, terms = form.support, []
    for (i, j, alpha, beta), (x, y) in sorted(support.items()):
        twin = (j, i, beta, alpha)
        if support.get(twin) != (x, -y):
            raise ValueError("only a Hermitian-symmetric form is written")
        if (i, j, alpha, beta) <= twin:
            terms.append([i + 1, j + 1, list(alpha), list(beta), x, y])
    return {"kind": "bihermitian_form", "n": form.n, "r": form.r, "den": form.den,
            "terms": terms}


def _read_form(obj: dict) -> BihermitianForm:
    """The form that `form_to_obj` writes, mirrored back to both triangles.
    Exactly that spelling is read: integers, not bools, each term nonzero
    and the lesser key of its conjugate pair, keys ascending, a real
    coefficient where a key is its own twin, and den > 0 in lowest terms."""
    _require_keys(obj, FORM_KEYS, "a kernel")
    n, r, den, terms = obj["n"], obj["r"], obj["den"], obj["terms"]
    if not (_integers((n, r, den)) and _rows(terms, 6)):
        raise _wire_error("a kernel needs integers n, r and den and terms "
                          "[i, j, alpha, beta, re, im]")
    ii, jj, alphas, betas, res, ims = zip(*terms) if terms else ((),) * 6
    monomials = alphas + betas
    if not (n >= 1 and r >= 1 and _rows(list(monomials), n)
            and _integers(ii, jj, res, ims, *monomials)):
        raise _wire_error("kernel terms need integers i, j, re and im and lists alpha and beta "
                          "of n integers, n and r >= 1")
    if not (min(ii + jj, default=1) >= 1 and max(ii + jj, default=r) <= r
            and min(chain(*monomials), default=0) >= 0):
        raise _wire_error("a kernel term's indices are out of range or an exponent is negative")
    ii, jj = [i - 1 for i in ii], [j - 1 for j in jj]
    alphas, betas = list(map(tuple, alphas)), list(map(tuple, betas))
    keys = list(zip(ii, jj, alphas, betas))
    twins = list(zip(jj, ii, betas, alphas))
    if not all(map(le, keys, twins)):
        raise _wire_error("a kernel term is written only as the lesser key of its conjugate pair")
    if not all(map(lt, keys, keys[1:])):
        raise _wire_error("kernel term keys must ascend")
    if any(compress(ims, map(eq, keys, twins))):
        raise _wire_error("a kernel term that is its own twin must be real")
    if not all(map(or_, res, ims)):
        raise _wire_error("a kernel term is zero")
    if den < 1 or gcd(den, *res, *ims) != 1:
        raise _wire_error("a kernel's den must be positive and in lowest terms")
    return BihermitianForm.mirrored(n, r, keys, list(zip(res, ims)), den)


def obj_to_form(obj: dict, written: bool = False) -> BihermitianForm:
    """The one kernel reader, into ints.  A kernel with a `den`, and every
    kernel of an artifact (`written`), is read as `form_to_obj` writes it
    (`_read_form`).  Otherwise it is an input file's kernel: each term the
    row [i, j, alpha, beta, re, im] or an object with the keys of
    TERM_FIELDS, both triangles written, rationals read by `read_ratio`."""
    if not isinstance(obj, dict) or obj.get("kind") != "bihermitian_form":
        raise ValueError("not a serialized kernel")
    if written or "den" in obj:
        return _read_form(obj)
    if not (type(obj["n"]) is int and type(obj["r"]) is int and isinstance(obj["terms"], list)):
        raise ValueError("a serialized kernel needs integers n and r and a list of terms")
    terms, seen = [], {}
    for term in obj["terms"]:
        if isinstance(term, dict):
            term = [term[field] for field in TERM_FIELDS]
        if not (isinstance(term, list) and len(term) == len(TERM_FIELDS)):
            raise ValueError("a kernel term must be a row [i, j, alpha, beta, re, im]")
        i, j, alpha, beta, re, im = term
        if not (type(i) is int and type(j) is int
                and isinstance(alpha, list) and isinstance(beta, list)):
            raise ValueError("a kernel term needs integers i and j and lists alpha and beta")
        terms.append((i - 1, j - 1, alpha, beta, *read_ratio(re, seen), *read_ratio(im, seen)))
    return BihermitianForm.read(obj["n"], obj["r"], terms)


FACTOR_KEYS = frozenset({"kind", "form", "d", "vectors", "witness"})
SEARCH_KEYS = frozenset({"d_max", "trail", "factor"})
STABILIZATION_KEYS = SEARCH_KEYS | {"kind", "mode", "form"}
ELLIPTICITY_KEYS = frozenset({"kind", "form", "witness_point", "sign_change", "stabilization"})


def _require_keys(obj, keys: frozenset, what: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        names = ", ".join(sorted(keys))
        raise ValueError(f"{FORMAT_ERROR}: {what} must have exactly the keys {names}")


def _require_mode(mode) -> str:
    if mode not in MODES:
        raise ValueError(f"{FORMAT_ERROR}: mode must be one of {', '.join(MODES)}, not {mode!r}")
    return mode


def _sparse_to_obj(row: SparseRow) -> list[list[int]]:
    """A factor vector or a witness, Gaussian integers of content 1, as its
    nonzero entries [j, re, im]."""
    if row.den != 1:
        raise ValueError("only a vector of Gaussian integers is written")
    return list(map(list, row.entries))


def _obj_to_sparse(items) -> SparseRow:
    """The vector that `_sparse_to_obj` writes: entries [j, re, im] of ints,
    indices ascending, none zero, of content 1, or [] for the zero vector."""
    if not _rows(items, 3):
        raise _wire_error("vector and witness entries must be [j, re, im]")
    js, xs, ys = zip(*items) if items else ((),) * 3
    if not _integers(js, xs, ys):
        raise _wire_error("vector and witness entries must be integers")
    if not all(map(lt, js, js[1:])):
        raise _wire_error("witness and factor indices must ascend")
    if not all(map(or_, xs, ys)):
        raise _wire_error("a vector or witness entry is zero")
    if gcd(*xs, *ys) > 1:
        raise _wire_error("a vector or witness must have content 1")
    return SparseRow(tuple(zip(js, xs, ys)))


def _vectors_to_obj(vectors: list[tuple[Fraction, SparseRow]]) -> list[list]:
    """Weighted vectors as [[p, q], [[j, re, im], ...]], weight p/q, in their order."""
    return [[[w.numerator, w.denominator], _sparse_to_obj(v)] for w, v in vectors]


def _obj_to_vectors(items, what="a stabilization factor must be null or a list of") -> list:
    """The weighted vectors (w, v) of a factor, each [[p, q], entries], the
    weight p/q in lowest terms, q > 0."""
    if not (_rows(items, 2) and _rows([w for w, _ in items], 2)):
        raise _wire_error(f"{what} weighted vectors [[p, q], [[j, re, im], ...]]")
    ps, qs = zip(*(w for w, _ in items)) if items else ((), ())
    if not (_integers(ps, qs) and min(qs, default=1) >= 1 and set(map(gcd, ps, qs)) <= {1}):
        raise _wire_error("a weight [p, q] must be integers in lowest terms, q > 0")
    return [(Fraction(p, q), _obj_to_sparse(entries)) for (p, q), entries in items]


def certificate_to_obj(vectors: list, witness: SparseRow | None) -> dict:
    """The evidence of a certificate of M: its weighted vectors
    (`SignatureCertificate.vectors`), M = sum w v v^adj, as [[p, q],
    [[j, re, im], ...]] in slot order, and its witness's nonzero entries [j,
    re, im], or null."""
    return {"vectors": _vectors_to_obj(vectors),
            "witness": None if witness is None else _sparse_to_obj(witness)}


def obj_to_certificate(obj: dict) -> tuple[list[tuple[Fraction, SparseRow]], SparseRow | None]:
    """(weighted vectors, witness) of the keys that `certificate_to_obj` writes."""
    items = obj["witness"]
    return (_obj_to_vectors(obj["vectors"], "a factor's vectors must be a list of"),
            None if items is None else _obj_to_sparse(items))


def factor_to_obj(form: BihermitianForm, d: int, vectors: list, witness: SparseRow | None) -> dict:
    """The one artifact of `check`, `factor` and `decompose`: a certificate
    of M_d, the coefficient matrix of <z, w>^d F, as its evidence on the
    basis of M_d (`certificate_to_obj`), beside F and d."""
    return {"kind": "weighted_gram_factor", "form": form_to_obj(form), "d": d,
            **certificate_to_obj(vectors, witness)}


def obj_to_factor(obj: dict) -> tuple[BihermitianForm, int, list[tuple[Fraction, SparseRow]],
                                      SparseRow | None]:
    """(F, d, weighted vectors, witness) of a serialized factor."""
    if not isinstance(obj, dict) or obj.get("kind") != "weighted_gram_factor":
        raise ValueError("not a serialized weighted factor")
    _require_keys(obj, FACTOR_KEYS, "a weighted factor")
    d = obj["d"]
    if not (type(d) is int and d >= 0):
        raise ValueError(f"{FORMAT_ERROR}: a factor's d must be a nonnegative integer")
    return obj_to_form(obj["form"], written=True), d, *obj_to_certificate(obj)


def _search_to_obj(report: StabilizationReport) -> dict:
    """The search's evidence, {d_max, trail, factor}: one witness and the
    factor.  Passing is monotone in d: if <z,w>^d F = sum_j |h_j|^2, then
    <z,w>^(d+1) F = sum_k sum_j |z_k h_j|^2, and the z_k h_j span when the
    h_j do.  So the witness of the last failing d proves that every smaller
    d fails too.
    The trail is that witness as [[d, [[j, re, im], ...]]], or [] when d = 0
    passes; the factor, its certificate's weighted vectors [[p, q], [[j,
    re, im], ...]] on the basis of M_d at the next d, or null when the
    search found none, whose witness is then at the last d it searched."""
    failing = [step for step in report.steps if not step.passes]
    return {"d_max": report.d_max,
            "trail": [[step.d, _sparse_to_obj(step.witness)] for step in failing[-1:]],
            "factor": None if report.vectors is None else _vectors_to_obj(report.vectors)}


def stabilization_to_obj(report: StabilizationReport) -> dict:
    """A search report: the form searched and the mode beside the evidence."""
    return {"kind": "stabilization_report", "mode": report.mode,
            "form": form_to_obj(report.form), **_search_to_obj(report)}


def ellipticity_to_obj(report: EllipticityReport) -> dict:
    """The evidence alone: points, or the evidence of the strict search on
    the form that `symbols.searched_form` picks, the symbol or its negation;
    the verdict and d follow from it, and the sign from the symbol."""
    point = report.witness_point
    positive, negative = report.sign_pair or (None, None)
    return {
        "kind": "ellipticity_report",
        "form": form_to_obj(report.form),
        "witness_point": [gaussian_to_pair(c) for c in point] if point else None,
        "sign_change": {"positive_at": [gaussian_to_pair(c) for c in positive],
                        "negative_at": [gaussian_to_pair(c) for c in negative]}
        if report.sign_pair else None,
        "stabilization": _search_to_obj(report.stabilization) if report.stabilization else None,
    }


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace; an integer past the int-to-string limit
    is a DigitLimitError."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError:
        raise DigitLimitError() from None


def read_json(text: str):
    """The JSON value of `text`: malformed text is a json.JSONDecodeError,
    and an integer past the int-to-string limit a DigitLimitError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise DigitLimitError("the artifact") from None


def canonical_object(pieces: dict[str, str]) -> str:
    """The canonical JSON of an object, joined from the canonical JSON of each
    of its values: canonical_object({k: canonical_json(v) for k, v in
    obj.items()}) == canonical_json(obj).  A value is encoded once however
    many objects it is joined into."""
    return "{" + ",".join(f"{json.dumps(key)}:{text}" for key, text in sorted(pieces.items())) + "}"


def pretty_json(obj) -> str:
    """The file and stdout form of a report or artifact: its canonical JSON
    on one line."""
    return canonical_json(obj) + "\n"


# The keys whose values change from run to run; only a run report has one,
# at its top level.
_VOLATILE_KEYS = frozenset({"timings"})


def strip_volatile(obj):
    """obj without its top-level volatile keys."""
    if isinstance(obj, dict):
        return {k: v for k, v in obj.items() if k not in _VOLATILE_KEYS}
    return obj


def digest_of_obj(obj) -> str:
    return digest_of_text(canonical_json(strip_volatile(obj)))


def digest_of_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def embedded_artifacts(obj):
    """The artifacts inside obj, in a fixed order; no artifact embeds another,
    so the walk stops at each."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            if item.get("kind") in ARTIFACT_KINDS:
                yield item
            else:
                stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)


def _d_min(search: dict) -> int | None:
    """The d_min that a search's evidence proves: with a factor, the d after
    the trail's witness, or 0 with no witness; else None."""
    if search["factor"] is None:
        return None
    trail = search["trail"]
    return trail[0][0] + 1 if trail else 0


def _verify_search(form: BihermitianForm, strict: bool, search: dict
                   ) -> tuple[tuple[bool, str], list | None]:
    """Whether the evidence `search` ({d_max, trail, factor}, as
    `_search_to_obj` writes it) proves its claim about F = `form` in the
    mode `strict` names, and the factor vectors it read.  The witness proves
    that M_d, the coefficient matrix of <z,w>^d F, fails the mode's test at
    its d, and so at every smaller d (passing is monotone in d); with a
    factor, its weighted vectors prove that M_d passes at the next d, d_min
    <= d_max; without one, the witness is at the last d that the search
    builds up to d_max (`last_exponent`).  The form is checked once, and
    each M_d is built once, in closed form (`stabilize.shifted_rows`), after
    its size, and that of M_0, is checked."""
    trail, d_max, factor = search["trail"], search["d_max"], search["factor"]
    if not (isinstance(trail, list) and len(trail) <= 1
            and all(isinstance(record, list) and len(record) == 2 and type(record[0]) is int
                    and record[0] >= 0 for record in trail)
            and type(d_max) is int and d_max >= 0):
        raise ValueError(f"{FORMAT_ERROR}: a stabilization report needs a trail of at most one "
                         "witness [d, [[j, re, im], ...]] and a nonnegative integer d_max")
    witnesses = [(d, _obj_to_sparse(entries)) for d, entries in trail]
    vectors = None if factor is None else _obj_to_vectors(factor)
    n, r, m = form.n, form.r, checked_bidegree(form)
    witness_ds, d_min = [d for d, _ in trail], _d_min(search)
    # 0 and every d named are checked against the size bound before any matrix is built.
    for d in [0, *witness_ds, *([] if d_min is None else [d_min])]:
        matrix_size(n, r, m, d)
    if d_min is None:
        last = last_exponent(n, r, m, d_max)
        if witness_ds != [last]:
            return (False, f"without a factor the witness must be at the last searched d={last}"
                    ), None
    elif d_min > d_max:
        return (False, "factor runs past d_max"), None
    for d, v in witnesses:
        reason = witness_failure(shifted_rows(form, m, d), v, strict)
        if reason is not None:
            return (False, f"trail d={d}: {reason}"), None
    reason = (None if d_min is None
              else factor_failure(shifted_rows(form, m, d_min), vectors, strict))
    return ((True, "ok") if reason is None else (False, reason)), vectors


def _verify_stabilization(obj: dict) -> tuple[tuple[bool, str], list | None]:
    """verify_obj of a stabilization report, and the factor vectors it read:
    its evidence checked on its form in its mode."""
    _require_keys(obj, STABILIZATION_KEYS, "a stabilization report")
    strict = _require_mode(obj["mode"]) == "strict"
    return _verify_search(obj_to_form(obj["form"], written=True), strict, obj)


def _sphere_sign(form: BihermitianForm, pairs) -> int | None:
    """The sign, 1, 0 or -1, of the symbol's value at a point, or None off
    the unit sphere, as the sphere walk reads it (`symbols.point_sign`)."""
    point = tuple(pair_to_gaussian(pair) for pair in pairs)
    if sum(c.abs2() for c in point) != 1:
        return None
    if len(point) != form.n:
        raise ValueError("point length differs from ambient dimension")
    return point_sign(form, GaussianRow.from_entries(form.n, enumerate(point)))


def _verify_ellipticity(obj: dict) -> tuple[tuple[bool, str], tuple | None]:
    """verify_obj of an ellipticity report, and the symbol and factor vectors
    it read.  The symbol must meet the preconditions of the certification
    (`symbols.require_symbol`), and the report holds one kind of evidence:
    an exact zero, or exact values of opposite sign, on the unit sphere, or
    the evidence of a strict search on the symbol or its negation, whichever
    `symbols.searched_form` picks."""
    _require_keys(obj, ELLIPTICITY_KEYS, "an ellipticity report")
    form = obj_to_form(obj["form"], written=True)
    require_symbol(form)
    point, change, search = obj["witness_point"], obj["sign_change"], obj["stabilization"]
    if search is not None:
        _require_keys(search, SEARCH_KEYS, "an ellipticity report's stabilization")
        if point is not None or change is not None:
            return (False, "report holds both points and a stabilization"), None
        (ok, reason), vectors = _verify_search(searched_form(form), True, search)
        if not ok:
            return (False, f"stabilization: {reason}"), None
        return (True, "ok"), (form, vectors)
    if point is None and change is None:
        return (False, "not_elliptic report names no point"), None
    if point is not None and _sphere_sign(form, point) != 0:
        return (False, "witness point is not a zero of the symbol on the unit sphere"), None
    if change is not None and (_sphere_sign(form, change["positive_at"]),
                               _sphere_sign(form, change["negative_at"])) != (1, -1):
        return (False, "sign-change points do not have opposite signs on the unit sphere"), None
    return (True, "ok"), (form, None)


def _artifact(container: dict, key: str, kind: str) -> dict:
    """container[key], which must be an artifact of `kind`.  The container, a
    run report's result or a sweep row, has exactly its keys, and `kind` is
    not one of them, so it is no artifact itself: the walk over a run
    report's embedded artifacts, which stops at an artifact, has verified
    container[key]."""
    item = container.get(key)
    if not isinstance(item, dict) or item.get("kind") != kind:
        raise ValueError(f"{FORMAT_ERROR}: a run report's {key} must be a {kind}")
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


def _weight_signs(factor: dict) -> tuple[int, int]:
    """(positive, negative) weight counts of a verified factor: M_d's inertia, less its zeros."""
    positive = sum(w[0] > 0 for w, _ in factor["vectors"])
    return positive, len(factor["vectors"]) - positive


def _symbol_verdict(ellipticity: dict) -> tuple[str, int | None, str]:
    """The verdict, d and summary that an ellipticity report's evidence
    proves: points prove "not_elliptic"; a stabilization, "certified" at its
    d_min, or "not_certified" when it found none."""
    stabilization = ellipticity["stabilization"]
    if stabilization is None:
        reason = "exact zero" if ellipticity["witness_point"] is not None else "sign change"
        return "not_elliptic", None, f"not elliptic: {reason} of the symbol on the unit sphere"
    d = _d_min(stabilization)
    if d is None:
        return "not_certified", None, f"not certified up to d={stabilization['d_max']}"
    return "certified", d, (f"elliptic: certified at exponent d={d}; the lifted symbol is a "
                            f"squared norm of {len(stabilization['factor'])} holomorphic "
                            "differential operator rows")


def run_verdicts(command: list[str], result: dict, read=None) -> dict | None:
    """The verdict block of a run report: what the artifacts in `result`
    prove, with the options of `command` that no artifact records.  None when
    they prove none: a factor not of `--d`, a check or decomposition at d > 0.
    `read` is what the caller read or built with the artifact: a check's
    form, d, weighted vectors and monomials of M_d (`_verify_factor`; the
    verdicts take the form and monomials), or a symbol's form and factor
    vectors (None without one)."""
    name = command[0]
    if name == "check":
        mode = _require_mode(_option(command, "--mode"))
        factor = _artifact(result, "certificate", "weighted_gram_factor")
        if factor["d"]:
            return None
        (pos, neg), (form, _, _, monomials) = _weight_signs(factor), read
        size = form.r * len(monomials)
        return {"mode": mode, "passes": pos == size if mode == "strict" else neg == 0,
                "inertia": {"pos": pos, "neg": neg, "zero": size - pos - neg},
                "matrix_size": size, "bidegree": bidegree(form)}
    if name == "stabilize":
        mode, d_max = _search_bounds(command)
        stabilization = _artifact(result, "stabilization", "stabilization_report")
        _require_searched(stabilization, mode, d_max, "the stabilization")
        d_min = _d_min(stabilization)
        return {"mode": mode, "d_max": d_max, "d_min": d_min, "found": d_min is not None}
    if name == "factor":
        d = int(_option(command, "--d"))
        factor = _artifact(result, "factor", "weighted_gram_factor")
        if factor["d"] != d:
            return None
        pos, neg = _weight_signs(factor)
        return {"d": d, "factorable": not neg, "rows": 0 if neg else pos}
    if name == "sweep":
        mode, d_max = _search_bounds(command)
        rows = []
        for row in result["rows"]:
            verdict = {"label": row["label"], "d_min": None, "error": row.get("error")}
            if verdict["error"] is None:
                stabilization = _artifact(row, "stabilization", "stabilization_report")
                _require_searched(stabilization, mode, d_max, f"sweep row {row['label']!r}")
                verdict["d_min"] = _d_min(stabilization)
            rows.append(verdict)
        return {"mode": mode, "d_max": d_max, "rows": rows}
    if name == "symbol":
        ellipticity = _artifact(result, "ellipticity", "ellipticity_report")
        search = ellipticity["stabilization"]
        if search is not None and search["d_max"] != int(_option(command, "--dmax")):
            raise ValueError("the symbol's stabilization was not searched with the command's "
                             "--dmax")
        verdict, d, summary = _symbol_verdict(ellipticity)
        return {"verdict": verdict, "d": d, "order": 2 * bidegree(read[0]),
                "complex_dim": read[0].n, "summary": summary}
    if name == "decompose":
        factor = _artifact(result, "decomposition", "weighted_gram_factor")
        positive, negative = _weight_signs(factor)
        return None if factor["d"] else {"positive_rank": positive, "negative_rank": negative,
                                         "sum_of_squares": negative == 0}
    raise ValueError(f"unknown run report command {name!r}")


# The result keys that render an artifact beside it, and the most digits a
# numeric rendering is asked for.
RENDERING_KEYS = ("operator_rows", "numeric_factor")
MAX_FLOAT_DIGITS = 1000


def require_float_digits(digits) -> None:
    """The one check of the digits a numeric rendering is asked for, an int
    from 0 to MAX_FLOAT_DIGITS, of --float-digits and of a report's."""
    if type(digits) is not int or not 0 <= digits <= MAX_FLOAT_DIGITS:
        raise ValueError(f"float digits must be an integer from 0 to {MAX_FLOAT_DIGITS}")


# The keys of a run report, which may also have `timings`; of each command's
# result besides its renderings; and of a sweep row.
RUN_REPORT_KEYS = frozenset({"kind", "command", "input_digest", "verdicts", "result", "digest"})
RESULT_KEYS = {"check": [{"certificate"}], "stabilize": [{"stabilization"}], "sweep": [{"rows"}],
               "factor": [{"factor"}], "symbol": [{"ellipticity"}],
               "decompose": [{"decomposition"}]}
SWEEP_ROW_KEYS = [{"label", "stabilization"}, {"label", "error"}]


def run_renderings(command: list[str], result: dict, float_digits: int | None = None,
                   read=None) -> dict:
    """The renderings beside the artifacts in `result`, derived from what was
    `read` with them (as for `run_verdicts`): a certified symbol's
    differential operator rows, from its form and factor vectors, and, when
    `float_digits` is given, a PSD factor's floating rendering, from its
    form, d, vectors and monomials, with weights folded in as square roots good
    to that many digits, checked first, for a signed factor too."""
    name = command[0]
    if name == "symbol" and read[1] is not None:
        (form, vectors), d = read, _d_min(result["ellipticity"]["stabilization"])
        rows = _factor_from_parts(vectors, coefficient_basis(form, d), form.r).rows
        return {"operator_rows": [format_diff_operator_row(row, w)
                                  for (w, _), row in zip(vectors, rows)]}
    if name == "factor" and float_digits is not None:
        require_float_digits(float_digits)
        form, _, vectors, monomials = read
        if any(w < 0 for w, _ in vectors):
            return {}
        rows = numeric_factor(_factor_from_parts(vectors, monomials, form.r), float_digits).rows
        return {"numeric_factor": {
            "kind": "numeric_factor",
            "float_digits": float_digits,
            "rows": [[{"i": i, "alpha": list(alpha), "value": [coeff.real, coeff.imag]}
                      for i, poly in enumerate(row, 1) for alpha, coeff in sorted(poly.items())]
                     for row in rows],
        }}
    return {}


def _verify_run_report(obj: dict) -> tuple[bool, str]:
    """Every embedded artifact verifies, the verdicts are exactly those that
    `run_verdicts` derives from them, the renderings exactly those that
    `run_renderings` derives, and the digest is that of the report without
    its digest and timings."""
    command, verdicts, result = obj.get("command"), obj.get("verdicts"), obj.get("result")
    if not (isinstance(command, list) and command and all(isinstance(a, str) for a in command)
            and isinstance(verdicts, dict) and isinstance(result, dict)):
        raise ValueError("a run report needs a command list of strings, a verdicts object "
                         "and a result object")
    _require_keys(strip_volatile(obj), RUN_REPORT_KEYS, "a run report, besides timings,")
    name = command[0]
    rows = result.get("rows") if name == "sweep" else []
    if name in RESULT_KEYS and (
            result.keys() - set(RENDERING_KEYS) not in RESULT_KEYS[name] or not isinstance(rows, list)
            or any(not isinstance(row, dict) or row.keys() not in SWEEP_ROW_KEYS for row in rows)):
        raise ValueError(f"{FORMAT_ERROR}: the result of a {name} run report, or a row of it, "
                         f"does not have exactly the keys that {name} writes")
    # A check's, factor's or symbol's verdicts and renderings take what was
    # read with its artifact.
    artifact = result.get({"check": "certificate", "factor": "factor",
                           "symbol": "ellipticity"}.get(name))
    read = None
    for item in embedded_artifacts(result):
        (ok, reason), found = _VERIFIERS[item["kind"]](item)
        if not ok:
            return False, reason
        read = found if item is artifact else read
    if verdicts != run_verdicts(command, result, read):
        return False, "verdicts do not match the embedded artifacts"
    numeric = result.get("numeric_factor")
    digits = numeric.get("float_digits") if isinstance(numeric, dict) else None
    rendered = {key: result[key] for key in RENDERING_KEYS if key in result}
    if rendered != run_renderings(command, result, digits, read):
        return False, "renderings do not match the embedded artifacts"
    if obj["digest"] != digest_of_obj({k: v for k, v in obj.items() if k != "digest"}):
        return False, "digest does not match the report"
    return True, "ok"


def _verify_factor(obj: dict) -> tuple[tuple[bool, str], tuple]:
    """verify_obj of a weighted factor, and what it read: (F, d, weighted
    vectors, monomials of M_d)."""
    form, d, vectors, witness = obj_to_factor(obj)
    matrix, monomials = power_matrix(form, d)
    reason = certificate_failure(matrix, vectors, witness)
    return ((True, "ok") if reason is None else (False, reason)), (form, d, vectors, monomials)


# The check of each artifact kind (the keys are ARTIFACT_KINDS): its (ok, reason) and what it read.
_VERIFIERS = {"weighted_gram_factor": _verify_factor,
              "stabilization_report": _verify_stabilization,
              "ellipticity_report": _verify_ellipticity}
ARTIFACT_KINDS = frozenset(_VERIFIERS)


def verify_obj(obj: dict) -> tuple[bool, str]:
    """Re-check a serialized artifact by exact arithmetic.

    Supports weighted factors (M_d of the embedded form = sum w v v^adj, a
    witness exactly when a weight is negative), stabilization, ellipticity
    and run reports (every embedded artifact, and the verdicts, renderings
    and digest derived from them); README "Certificates" lists each check.
    An artifact not in the current format raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("an artifact must be a JSON object")
    kind = obj.get("kind")
    if kind == "run_report":
        return _verify_run_report(obj)
    if kind not in _VERIFIERS:
        raise ValueError(f"{FORMAT_ERROR}: unsupported artifact kind {kind!r}")
    return _VERIFIERS[kind](obj)[0]
