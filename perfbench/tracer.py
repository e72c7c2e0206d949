"""Span tracing around the public functions of each hermfact module.

The wrappers live only in the benchmark: `Tracer.install` rebinds every name
under which a hermfact module reaches a traced function (the defining module,
each `from .x import f` binding, the package namespace, and the class for
methods) and `Tracer.remove` puts the original objects back.  A wrapper records
a span only while a case is open, so the benchmark's own checks, which call
into hermfact between cases, leave no spans.

A span is (id, parent id, name, case, start, end, failed).  A span's self time
is its duration minus the part of it that its child spans cover; per case the
self times of all spans, root included, add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = (
    ("parsing", "parse_expression"),
    ("parsing", "parse_real_symbol"),
    ("hermform", "coefficient_matrix"),
    ("hermform", "gram"),
    ("hermform", "evaluate_exact"),
    ("stabilize", "find_minimal_d"),
    ("stabilize", "multiplier_shift"),
    ("stabilize", "multiplier_power"),
    ("stabilize", "stabilization_sweep"),
    ("certify", "ldl_signature"),
    ("certify", "SignatureCertificate.verify"),
    ("factor", "holomorphic_factor"),
    ("factor", "strict_holomorphic_factor"),
    ("factor", "difference_of_squares"),
    ("symbols", "certify_elliptic_form"),
    ("symbols", "real_to_complex"),
    ("symbols", "sphere_sample_points"),
    ("serialize", "certificate_to_obj"),
    ("serialize", "stabilization_to_obj"),
    ("serialize", "factor_to_obj"),
    ("serialize", "ellipticity_to_obj"),
    ("serialize", "pretty_json"),
    ("serialize", "digest_of_obj"),
    ("serialize", "obj_to_form"),
    ("serialize", "verify_obj"),
    ("serialize", "obj_to_certificate"),
    ("serialize", "obj_to_factor"),
    ("cli", "cmd_check"),
    ("cli", "cmd_stabilize"),
    ("cli", "cmd_factor"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_symbol"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_verify"),
    ("cli", "_finish"),
)

PACKAGE = "hermfact"
ROOT_SPAN = "case"
PROBE = "trace.probe"


def self_times(spans) -> dict:
    """Self time of each span: duration minus the union of its children's intervals.

    `spans` holds (sid, parent, name, case, start, end, failed) tuples.
    """
    children = defaultdict(list)
    for sid, parent, _name, _case, start, end, _failed in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _case, start, end, _failed in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def bindings() -> dict:
    """Every name in every loaded hermfact module, and every traced method,
    mapped to the object it is bound to; equal before install and after remove."""
    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for module_name, attr in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name)
            out[(module_name, attr)] = vars(cls)[meth]
    return out


def _matrix_nnz(matrix) -> int:
    return sum(1 for row in matrix.entries for x in row if not x.is_zero())


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Installs span-recording wrappers and collects spans and counts in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.case = None
        self.totals: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.case_counts: dict = {}
        self._seen_matrices: set = set()
        self._root_start = 0.0
        self._patches: list[tuple] = []
        self._probes = {
            "hermform.coefficient_matrix": self._probe_coefficient_matrix,
            "certify.ldl_signature": self._probe_ldl,
            "stabilize.find_minimal_d": self._probe_search,
            "factor.holomorphic_factor": self._probe_factor,
            "factor.strict_holomorphic_factor": self._probe_factor,
            "factor.difference_of_squares": self._probe_factor,
            "serialize.verify_obj": self._probe_verify_obj,
        }

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            span_name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)

    def _patch(self, holder, name: str, wrapper) -> None:
        self._patches.append((holder, name, vars(holder)[name]))
        setattr(holder, name, wrapper)

    def remove(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    def _wrap(self, name: str, fn):
        tracer = self
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.case is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[sid] = (sid, parent, name, tracer.case, start, perf_counter(), True)
                tracer.stack.pop()
                raise
            tracer.spans[sid] = (sid, parent, name, tracer.case, start, perf_counter(), False)
            tracer.stack.pop()
            if probe is not None:
                p_start = perf_counter()
                probe(args, result)
                tracer.spans.append(
                    (len(tracer.spans), parent, PROBE, tracer.case, p_start, perf_counter(), False)
                )
            return result

        return wrapper

    # ------------------------------------------------------------ cases

    def open_case(self, case_key) -> None:
        """Start the root span of one case; wrapped calls record until `close_case`."""
        self.case = case_key
        self.case_counts[case_key] = {"ldl_calls": 0, "matrix_sizes": [], "matrix_nnz": [],
                                      "steps": []}
        self._seen_matrices = set()
        sid = len(self.spans)
        self.spans.append(None)
        self.stack = [sid]
        self._root_start = perf_counter()

    def close_case(self) -> None:
        sid = self.stack[0]
        self.spans[sid] = (sid, None, ROOT_SPAN, self.case, self._root_start, perf_counter(), False)
        self.stack = []
        self.case = None

    # ------------------------------------------------------------ probes

    def _probe_coefficient_matrix(self, args, result) -> None:
        matrix = result[0]
        nnz = _matrix_nnz(matrix)
        self.maxima["hermform.matrix_size.max"] = max(
            self.maxima["hermform.matrix_size.max"], matrix.size)
        self.totals["hermform.matrix_entries.total"] += matrix.size * matrix.size
        self.totals["hermform.matrix_nnz.total"] += nnz
        counts = self.case_counts[self.case]
        counts["matrix_sizes"].append(matrix.size)
        counts["matrix_nnz"].append(nnz)

    def _probe_ldl(self, args, cert) -> None:
        matrix = args[0]
        key = (matrix.size, hash(matrix.entries))
        if key in self._seen_matrices:
            self.totals["certify.ldl_signature.repeats"] += 1
        self._seen_matrices.add(key)
        if cert.diag:
            self.maxima["certify.diag_bits.max"] = max(
                self.maxima["certify.diag_bits.max"], max(_bits(d) for d in cert.diag))
        self.case_counts[self.case]["ldl_calls"] += 1

    def _probe_search(self, args, report) -> None:
        self.totals["stabilize.steps.total"] += len(report.steps)
        self.case_counts[self.case]["steps"].append(len(report.steps))

    def _probe_factor(self, args, result) -> None:
        factors = result if isinstance(result, tuple) else (result,)
        self.totals["factor.rows.total"] += sum(
            len(f.matrix.rows) for f in factors if f is not None)

    def _probe_verify_obj(self, args, result) -> None:
        if isinstance(args[0], dict) and args[0].get("kind") == "signature_certificate":
            self.totals["serialize.certificates_verified.total"] += 1

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-layer figures over every recorded case: self time, calls and
        failures per span name, plus the probe counts and ratios."""
        selfs = self_times(self.spans)
        out: dict[str, float] = defaultdict(int)
        for sid, _parent, name, _case, _start, _end, failed in self.spans:
            out[f"{name}.self_s"] += selfs[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += failed
        out.update(self.totals)
        out.update(self.maxima)
        entries = out.get("hermform.matrix_entries.total", 0)
        out["hermform.nnz_ratio"] = out.get("hermform.matrix_nnz.total", 0) / entries if entries else 0.0
        ldl_calls = out.get("certify.ldl_signature.calls", 0)
        out["certify.ldl_signature.repeat_ratio"] = (
            out.get("certify.ldl_signature.repeats", 0) / ldl_calls if ldl_calls else 0.0)
        return dict(out)

    def accounting_errors(self, tolerance: float = 1e-6) -> list[str]:
        """Cases whose span self times do not add up to the root span's duration."""
        selfs = self_times(self.spans)
        total = defaultdict(float)
        root = {}
        for sid, parent, _name, case, start, end, _failed in self.spans:
            total[case] += selfs[sid]
            if parent is None:
                root[case] = end - start
        return [
            f"case {case}: self times sum to {total[case]:.9f} s, root lasts {root[case]:.9f} s"
            for case in root
            if abs(total[case] - root[case]) > tolerance
        ]
