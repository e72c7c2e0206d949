"""Seeded case generation and exact oracles for the three benchmark workloads.

A workload is one *pass*: a fixed list of cases whose shape (strata, matrix
sizes, exponents, expected verdicts) is the same for every seed, while the
seed draws the actual coefficients.  Keeping the shape fixed is what makes the
per-run medians comparable across seeds; drawing the numbers from the seed
keeps any one input from being tuned for.

Each case is one certifying CLI command.  The runner writes the case's input
files, runs the command with `--out` pointing at the report path, runs
`verify` on that report, and then calls `check_case` with the results.
Nothing here imports hermfact: the oracles are closed forms or verdicts fixed
by the construction of the input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("stabilize", "dense", "small-batch")

# Fewest timed cases per run.  The reported tail is the highest percentile
# with ten of these samples beyond it: p75 for 40, p95 for 200.
MIN_SAMPLES = {"stabilize": 40, "dense": 40, "small-batch": 200}

# The runner replaces this argument with the report path, and "{dir}" inside
# an argument with the directory that holds the case's input files.
OUT = "{out}"


@dataclass(frozen=True)
class Case:
    """One certifying command plus what its outcome must be."""

    case_id: str
    kind: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    expect: dict = field(default_factory=dict)
    text: str = ""

    @property
    def emits_report(self) -> bool:
        return self.expect.get("exit") != 2


# ---------------------------------------------------------------- oracles


def ladder_threshold(d: int) -> Fraction:
    """Largest c for which |z1|^4 + c|z1 z2|^2 + |z2|^4 fails strictly at exponent d.

    The coefficient matrix of <z,w>^d * F is diagonal with entries
    binom(d,k) + c*binom(d,k-1) + binom(d,k-2), k = 0..d+2; the outer two are
    always 1, so positivity is c > -(binom(d,k) + binom(d,k-2)) / binom(d,k-1).
    """
    worst = None
    for k in range(1, d + 2):
        outer = comb(d, k) + (comb(d, k - 2) if k >= 2 else 0)
        bound = -Fraction(outer, comb(d, k - 1))
        worst = bound if worst is None else max(worst, bound)
    return worst


def ladder_dmin(c: Fraction, limit: int = 400) -> int | None:
    """Closed-form minimal strict exponent of the ladder quartic; None if c <= -2."""
    c = Fraction(c)
    if c <= -2:
        return None
    for d in range(limit + 1):
        if all(
            comb(d, k)
            + c * (comb(d, k - 1) if k >= 1 else 0)
            + (comb(d, k - 2) if k >= 2 else 0)
            > 0
            for k in range(d + 3)
        ):
            return d
    return None


# Coefficients are drawn as lo + (hi - lo) * k / STEPS inside an interval
# [lo, hi], keeping only the k that leave the fraction unreduced.  Every draw
# for one interval then has the same denominator and a numerator of the same
# length, so the seed changes the numbers but not the cost of exact
# arithmetic on them.
STEPS = 1009  # prime


def draw_between(rng: random.Random, lo: Fraction, hi: Fraction,
                 low_share: float = 0.0, high_share: float = 1.0) -> Fraction:
    """A rational strictly between lo and hi (within the given shares of the
    interval) whose denominator is the same for every draw."""
    step = (hi - lo) / STEPS
    full = lo.denominator * step.denominator // gcd(lo.denominator, step.denominator)
    ks = range(max(1, int(STEPS * low_share)), min(STEPS - 1, int(STEPS * high_share)) + 1)
    for _ in range(1000):
        c = lo + step * rng.choice(ks)
        if c.denominator == full:
            return c
    raise AssertionError(f"no unreduced rational between {lo} and {hi}")


def ladder_c_for(rng: random.Random, d: int) -> Fraction:
    """A rational c whose ladder quartic has minimal strict exponent exactly d >= 1."""
    c = draw_between(rng, ladder_threshold(d), ladder_threshold(d - 1), 0.2, 0.8)
    assert ladder_dmin(c) == d
    return c


# Minimal strict exponents of the block-sparse 3-variable quartic, measured at
# the commit that introduced this benchmark.  Each c interval lies strictly
# inside one plateau of d_min(c), which is nondecreasing in c.
BLOCK3_PLATEAUS = {
    6: (Fraction(575, 1000), Fraction(600, 1000)),
    7: (Fraction(610, 1000), Fraction(615, 1000)),
}


# ---------------------------------------------------------------- text helpers


def frac_text(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def gauss_text(re: int | Fraction, im: int | Fraction) -> str:
    if im == 0:
        return f"({frac_text(re)})"
    sign = "+" if im > 0 else "-"
    return f"({frac_text(re)}{sign}{frac_text(abs(im))}*i)"


def monomials(n: int, m: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(m,)]
    return [(a,) + rest for a in range(m, -1, -1) for rest in monomials(n - 1, m - a)]


def monomial_text(alpha, beta) -> str:
    parts = []
    for prefix, exps in (("z", alpha), ("zb", beta)):
        for k, e in enumerate(exps):
            if e:
                parts.append(f"{prefix}{k + 1}^{e}" if e > 1 else f"{prefix}{k + 1}")
    return "*".join(parts)


def ladder_text(c: Fraction) -> str:
    return f"z1^2*zb1^2 + ({frac_text(c)})*z1*z2*zb1*zb2 + z2^2*zb2^2"


def block3_text(c: Fraction) -> str:
    return (
        "z1^2*zb1^2 + z2^2*zb2^2 + z3^2*zb3^2"
        f" - ({frac_text(c)})*(z1*z2*zb1*zb2 + z2*z3*zb2*zb3 + z1*z3*zb1*zb3)"
        " + 1/4*(z1^2*zb2^2 + z2^2*zb1^2)"
    )


ROADMAP_QUARTIC = (
    "z1^2*zb1^2 + z2^2*zb2^2 + z3^2*zb3^2 - z1*z2*zb1*zb2 - z2*z3*zb2*zb3"
    " - z1*z3*zb1*zb3 + 1/2*z1^2*zb2^2 + 1/2*z2^2*zb1^2"
)


_SCALE_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _positive_rational(rng: random.Random) -> Fraction:
    """p/q for two distinct two-digit primes: the same length for every seed."""
    p, q = rng.sample(_SCALE_PRIMES, 2)
    return Fraction(p, q)


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Round-robin over strata, so that consecutive cases differ in kind."""
    out = []
    longest = max(len(g) for g in groups)
    for k in range(longest):
        for group in groups:
            if k < len(group):
                out.append(group[k])
    return out


# ---------------------------------------------------------------- stabilize

# Only odd exponents occur as the ladder's d_min.  Consecutive ones keep
# neighbouring case costs close, and each exponent comes twice per pass with
# two drawn coefficients: the median and the tail percentile then fall among
# many samples of nearly equal cost, which steadies them against the host's
# moment-to-moment speed changes.  27 cases per pass.
LADDER_EXPONENTS = tuple(range(3, 24, 2))
LADDER_DRAWS = 2
BLOCK3_EXPONENTS = (6, 7)
ROADMAP_DMAX = (2, 3, 4)


def _stabilize_pass(rng: random.Random) -> list[Case]:
    ladders = []
    for draw, d in [(k, d) for k in range(LADDER_DRAWS) for d in LADDER_EXPONENTS]:
        c = ladder_c_for(rng, d)
        ladders.append(
            Case(
                case_id=f"ladder-d{d}-{draw}",
                kind="ladder",
                argv=("stabilize", "--mode", "strict", "--dmax", "40", "-e", ladder_text(c),
                      "--out", OUT),
                expect={"exit": 0, "d_min": d},
            )
        )
    blocks = []
    for d in BLOCK3_EXPONENTS:
        lo, hi = BLOCK3_PLATEAUS[d]
        c = draw_between(rng, lo, hi)
        blocks.append(
            Case(
                case_id=f"block3-d{d}",
                kind="block3",
                argv=("stabilize", "--mode", "strict", "--dmax", "16", "-e", block3_text(c),
                      "--out", OUT),
                expect={"exit": 0, "d_min": d},
            )
        )
    roadmap = [
        Case(
            case_id=f"roadmap-dmax{dmax}",
            kind="roadmap",
            argv=("stabilize", "--mode", "strict", "--dmax", str(dmax), "-e",
                  f"({frac_text(_positive_rational(rng))})*({ROADMAP_QUARTIC})", "--out", OUT),
            expect={"exit": 3, "d_min": None},
        )
        for dmax in ROADMAP_DMAX
    ]
    return _interleave([ladders, blocks, roadmap])


# ---------------------------------------------------------------- dense

# (kind, variables, bidegree); 31 per pass: both kinds at every
# coefficient-matrix size from 10 to 24, and one more.  Case costs then form a
# continuum, so the median and the tail fall among several cases of nearly
# equal cost instead of on the gap between two of them, and the cost that the
# seed's random entries add to or take from one case is averaged over many.
DENSE_CASES = (
    ("indefinite", 4, 2), ("definite", 3, 3), ("indefinite", 2, 10), ("definite", 2, 10),
    ("indefinite", 2, 11), ("definite", 2, 11), ("indefinite", 2, 12), ("definite", 2, 12),
    ("indefinite", 2, 13), ("definite", 2, 13), ("indefinite", 3, 4), ("definite", 5, 2),
    ("indefinite", 2, 15), ("definite", 2, 15), ("indefinite", 2, 16), ("definite", 2, 16),
    ("indefinite", 2, 17), ("definite", 2, 17), ("indefinite", 2, 18), ("definite", 2, 18),
    ("indefinite", 4, 3), ("definite", 2, 19), ("indefinite", 2, 19), ("indefinite", 3, 5),
    ("definite", 6, 2), ("indefinite", 2, 21), ("definite", 2, 21), ("indefinite", 2, 22),
    ("definite", 2, 22), ("indefinite", 2, 23), ("definite", 2, 23),
)
HEIGHT = 5


def _gauss(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-HEIGHT, HEIGHT), rng.randint(-HEIGHT, HEIGHT)


def _indefinite_text(rng: random.Random, n: int, m: int) -> str:
    basis = monomials(n, m)
    size = len(basis)
    mat = [[(0, 0)] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = (rng.randint(-HEIGHT, HEIGHT), 0)
        for j in range(i + 1, size):
            re, im = _gauss(rng)
            mat[i][j], mat[j][i] = (re, im), (re, -im)
    neg, pos = rng.sample(range(size), 2)
    mat[neg][neg] = (-rng.randint(1, HEIGHT), 0)
    mat[pos][pos] = (rng.randint(1, HEIGHT), 0)
    terms = [
        f"{gauss_text(*mat[i][j])}*{monomial_text(basis[i], basis[j])}"
        for i in range(size)
        for j in range(size)
        if mat[i][j] != (0, 0)
    ]
    return " + ".join(terms)


def _definite_form(rng: random.Random, n: int, m: int) -> str:
    """JSON of the form whose coefficient matrix is A A* + I, A Gaussian-integer."""
    basis = monomials(n, m)
    size = len(basis)
    a = [[_gauss(rng) for _ in range(size)] for _ in range(size)]
    terms = []
    for i in range(size):
        for j in range(size):
            re = sum(a[i][k][0] * a[j][k][0] + a[i][k][1] * a[j][k][1] for k in range(size))
            im = sum(a[i][k][1] * a[j][k][0] - a[i][k][0] * a[j][k][1] for k in range(size))
            if i == j:
                re += 1
            if re or im:
                terms.append(
                    {"i": 1, "j": 1, "alpha": list(basis[i]), "beta": list(basis[j]),
                     "re": str(re), "im": str(im)}
                )
    return json.dumps({"kind": "bihermitian_form", "n": n, "r": 1, "terms": terms})


def _dense_pass(rng: random.Random) -> list[Case]:
    cases = []
    for kind, n, m in DENSE_CASES:
        size = len(monomials(n, m))
        if kind == "indefinite":
            cases.append(
                Case(
                    case_id=f"indefinite-{size}-{n}v",
                    kind="dense_indefinite",
                    argv=("check", "--mode", "semi", "-e", _indefinite_text(rng, n, m),
                          "--out", OUT),
                    expect={"exit": 1, "size": size},
                )
            )
        else:
            name = f"definite-{size}-{n}v.json"
            cases.append(
                Case(
                    case_id=f"definite-{size}-{n}v",
                    kind="dense_definite",
                    argv=("factor", "--d", "0", "{dir}/" + name, "--out", OUT),
                    files=((name, _definite_form(rng, n, m)),),
                    expect={"exit": 0, "size": size},
                )
            )
    return cases


# ---------------------------------------------------------------- small-batch

LAPLACIAN_SHAPES = ((2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1))  # (real variables, power)
LADDER_SYMBOL_EXPONENTS = (0, 1, 3, 5, 7)  # certified at these d for c in [-3/2, 2]
SIGN_CHANGE_CASES = 3
SMALL_CHECKS = ("semi", "strict", "semi", "strict")
SMALL_DECOMPOSES = 5
MALFORMED_KINDS = ("trailing_operator", "unknown_variable", "unbalanced", "not_hermitian")


def _laplacian_text(nvars: int, power: int, scale: Fraction) -> str:
    body = " + ".join(f"x{k}^2" for k in range(1, nvars + 1))
    return f"({frac_text(scale)})*({body})^{power}"


def _ladder_symbol_text(c: Fraction) -> str:
    return (
        f"(x1^2+x2^2)^2 + ({frac_text(c)})*(x1^2+x2^2)*(x3^2+x4^2) + (x3^2+x4^2)^2"
    )


def _quartic_block(rng: random.Random) -> tuple[str, Fraction]:
    """A 2-variable quartic with coefficient matrix [[1,a,0],[conj(a),b,0],[0,0,1]].

    Returns (text, delta) with b = |a|^2 + delta, so the matrix is PSD iff
    delta >= 0 and PD iff delta > 0.
    """
    re, im = 0, 0
    while (re, im) == (0, 0):
        re, im = rng.randint(-3, 3), rng.randint(-3, 3)
    delta = rng.choice([Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)])
    b = re * re + im * im + delta
    text = (
        f"z1^2*zb1^2 + {gauss_text(re, im)}*z1^2*zb1*zb2 + {gauss_text(re, -im)}*z1*z2*zb1^2"
        f" + ({frac_text(b)})*z1*z2*zb1*zb2 + z2^2*zb2^2"
    )
    return text, delta


def _malformed(kind: str, rng: random.Random) -> str:
    text = ladder_text(Fraction(rng.randint(-19, 19), rng.randint(1, 10)))
    if kind == "trailing_operator":
        return text + " +"
    if kind == "unknown_variable":
        return text.replace("z2^2", "y2^2", 1)
    if kind == "unbalanced":
        return "(" + text
    if kind == "not_hermitian":
        return text.replace("zb1^2", "zb1", 1)
    raise ValueError(kind)


def _small_batch_pass(rng: random.Random) -> list[Case]:
    symbols = []
    for nvars, power in LAPLACIAN_SHAPES:
        symbols.append(
            Case(
                case_id=f"laplacian-{nvars}v-p{power}",
                kind="symbol_certified",
                argv=("symbol", "-e", _laplacian_text(nvars, power, _positive_rational(rng)),
                      "--out", OUT),
                expect={"exit": 0, "d": 0},
            )
        )
    for d in LADDER_SYMBOL_EXPONENTS:
        c = ladder_c_for(rng, d) if d else draw_between(rng, Fraction(0), Fraction(2))
        symbols.append(
            Case(
                case_id=f"ladder-symbol-d{d}",
                kind="symbol_certified",
                argv=("symbol", "-e", _ladder_symbol_text(c), "--out", OUT),
                expect={"exit": 0, "d": d},
            )
        )
    for k in range(SIGN_CHANGE_CASES):
        c = -Fraction(rng.randint(210, 400), 100)
        text = _ladder_symbol_text(c)
        symbols.append(
            Case(
                case_id=f"ladder-symbol-sign-{k}",
                kind="symbol_not_elliptic",
                argv=("symbol", "-e", text, "--out", OUT),
                expect={"exit": 1, "real": True},
                text=text,
            )
        )
    degenerate = f"({frac_text(_positive_rational(rng))})*z1*zb1"
    symbols.append(
        Case(
            case_id="degenerate-symbol",
            kind="symbol_not_elliptic",
            argv=("symbol", "-e", degenerate, "--n", "2", "--out", OUT),
            expect={"exit": 1, "real": False, "n": 2},
            text=degenerate,
        )
    )

    quartics = []
    for k, mode in enumerate(SMALL_CHECKS):
        text, delta = _quartic_block(rng)
        passes = delta >= 0 if mode == "semi" else delta > 0
        quartics.append(
            Case(
                case_id=f"check-{mode}-{k}",
                kind="check_small",
                argv=("check", "--mode", mode, "-e", text, "--out", OUT),
                expect={"exit": 0 if passes else 1, "passes": passes},
            )
        )
    for k in range(SMALL_DECOMPOSES):
        text, delta = _quartic_block(rng)
        ranks = (3, 0) if delta > 0 else (2, 1) if delta < 0 else (2, 0)
        quartics.append(
            Case(
                case_id=f"decompose-{k}",
                kind="decompose_small",
                argv=("decompose", "-e", text, "--out", OUT),
                expect={"exit": 0, "positive_rank": ranks[0], "negative_rank": ranks[1]},
            )
        )

    members, expected = [], []
    for k, d in enumerate((3, 5, 7, 9)):
        c = ladder_c_for(rng, d)
        members.append({"label": f"m{k}", "expr": ladder_text(c)})
        expected.append(d)
    sweep = [
        Case(
            case_id="sweep",
            kind="sweep",
            argv=("sweep", "{dir}/family.json", "--out", OUT),
            files=(("family.json", json.dumps(members)),),
            expect={"exit": 0, "d_mins": expected},
        )
    ]

    malformed = []
    for kind in MALFORMED_KINDS:
        malformed.append(
            Case(
                case_id=f"malformed-{kind}",
                kind="malformed",
                argv=("check", "-e", _malformed(kind, rng), "--out", OUT),
                expect={"exit": 2},
            )
        )
    return _interleave([symbols, quartics, sweep, malformed])


_BUILDERS = {
    "stabilize": _stabilize_pass,
    "dense": _dense_pass,
    "small-batch": _small_batch_pass,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's pass for `seed`; identical seeds give identical cases."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"hermfact-bench:{workload}:{seed}"))


# ---------------------------------------------------------------- checks


def _unit_sphere(point) -> bool:
    return sum(c.re * c.re + c.im * c.im for c in point) == 1


def _symbol_value(hf, case: Case, point):
    if case.expect["real"]:
        form = hf.real_to_complex(hf.parse_real_symbol(case.text))
    else:
        form = hf.parse_expression(case.text, n=case.expect["n"])
    return hf.evaluate_exact(form, point, point)[0][0]


def check_case(case: Case, exit_code, report: dict | None, verify_exit, hf) -> list[str]:
    """Problems with one case's outcome; empty when it is right.

    `hf` is the hermfact package, used only for exact evaluation of the
    points a not-elliptic report names.
    """
    problems = []
    want = case.expect
    if exit_code != want["exit"]:
        problems.append(f"exit {exit_code}, expected {want['exit']}")
        return problems
    if not case.emits_report:
        if report is not None:
            problems.append("malformed input still wrote a report")
        return problems
    if report is None:
        return problems + ["no report written"]
    if verify_exit != 0:
        problems.append(f"verify exit {verify_exit}")
    verdicts = report.get("verdicts", {})
    result = report.get("result", {})
    kind = case.kind
    if kind in ("ladder", "block3", "roadmap"):
        if verdicts.get("d_min") != want["d_min"]:
            problems.append(f"d_min {verdicts.get('d_min')}, expected {want['d_min']}")
    elif kind == "dense_indefinite":
        inertia = verdicts.get("inertia", {})
        if verdicts.get("passes") is not False or inertia.get("neg", 0) < 1 or inertia.get("pos", 0) < 1:
            problems.append(f"indefinite input certified as {verdicts}")
        if verdicts.get("matrix_size") != want["size"]:
            problems.append(f"matrix size {verdicts.get('matrix_size')}, expected {want['size']}")
        if not result.get("certificate", {}).get("witness"):
            problems.append("no witness for an indefinite matrix")
    elif kind == "dense_definite":
        if not verdicts.get("factorable") or verdicts.get("rows") != want["size"]:
            problems.append(f"definite input gave {verdicts}, expected {want['size']} rows")
    elif kind == "symbol_certified":
        if verdicts.get("verdict") != "certified" or verdicts.get("d") != want["d"]:
            problems.append(f"symbol verdict {verdicts.get('verdict')} d={verdicts.get('d')}, "
                            f"expected certified d={want['d']}")
    elif kind == "symbol_not_elliptic":
        problems.extend(_check_not_elliptic(case, verdicts, result, hf))
    elif kind == "check_small":
        if verdicts.get("passes") is not want["passes"]:
            problems.append(f"passes {verdicts.get('passes')}, expected {want['passes']}")
    elif kind == "decompose_small":
        got = (verdicts.get("positive_rank"), verdicts.get("negative_rank"))
        if got != (want["positive_rank"], want["negative_rank"]):
            problems.append(f"ranks {got}, expected {(want['positive_rank'], want['negative_rank'])}")
    elif kind == "sweep":
        got = [row.get("d_min") for row in verdicts.get("rows", [])]
        if got != want["d_mins"]:
            problems.append(f"sweep d_min {got}, expected {want['d_mins']}")
    return problems


def _check_not_elliptic(case: Case, verdicts: dict, result: dict, hf) -> list[str]:
    """Re-derive the not-elliptic claim: the named points lie on the unit sphere
    and the symbol is exactly zero there, or positive and negative."""
    if verdicts.get("verdict") != "not_elliptic":
        return [f"symbol verdict {verdicts.get('verdict')}, expected not_elliptic"]
    report = result.get("ellipticity", {})
    to_point = lambda pairs: tuple(hf.serialize.pair_to_gaussian(p) for p in pairs)  # noqa: E731
    problems = []
    if report.get("witness_point"):
        point = to_point(report["witness_point"])
        if not _unit_sphere(point) or not _symbol_value(hf, case, point).is_zero():
            problems.append("zero witness is not a zero of the symbol on the sphere")
    elif report.get("sign_change"):
        pos = to_point(report["sign_change"]["positive_at"])
        neg = to_point(report["sign_change"]["negative_at"])
        vpos, vneg = _symbol_value(hf, case, pos), _symbol_value(hf, case, neg)
        if not (_unit_sphere(pos) and _unit_sphere(neg)):
            problems.append("sign-change point is off the unit sphere")
        if not (vpos.im == 0 and vpos.re > 0 and vneg.im == 0 and vneg.re < 0):
            problems.append("sign-change points do not have opposite signs")
    else:
        problems.append("not-elliptic report names no point")
    return problems
