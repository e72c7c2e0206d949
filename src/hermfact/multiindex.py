"""Multi-index bookkeeping: graded monomial bases and exact combinatorial weights.

A multi-index is a plain tuple of nonnegative ints, one entry per complex
variable.  The enumeration order fixed here (lexicographically descending
within a fixed total degree, z1-major) is the canonical basis order used by
every matrix in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial

MultiIndex = tuple[int, ...]


def check_multiindex(alpha) -> MultiIndex:
    """Validate and return alpha as a tuple of nonnegative ints."""
    alpha = tuple(alpha)
    if len(alpha) < 1:
        raise ValueError("multi-index must have at least one entry")
    for a in alpha:
        if not isinstance(a, int) or a < 0:
            raise ValueError(f"multi-index entries must be nonnegative ints: {alpha}")
    return alpha


def degree(alpha: MultiIndex) -> int:
    return sum(alpha)


# The most (n, m) whose enumerations are kept: a search, `verify` and the
# multipliers ask for few again and again, but a long search asks for one
# new degree at each step, and each enumeration is one tuple per monomial.
ENUMERATION_CACHE_SIZE = 128

# The entries that the tables of a `cached_tables` function may hold before
# it drops the oldest: a run of small searches keeps all of its tables, a
# long search only its last few degrees.
TABLE_CACHE_ENTRIES = 4096


def cached_tables(func):
    """func cached per arguments, like enumerate_degree, but bounded by the
    entries its values hold, not by their number; callers only read them."""
    cache: dict = {}

    @wraps(func)
    def cached(*key):
        if key not in cache:
            while sum(map(len, cache.values())) > TABLE_CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = func(*key)
        return cache[key]

    return cached


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def enumerate_degree(n: int, m: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of length n with total degree m, lexicographically descending.

    >>> enumerate_degree(2, 2)
    ((2, 0), (1, 1), (0, 2))
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("degree must be >= 0")
    # Step from (m, 0, ..., 0) down to (0, ..., 0, m): the successor moves one
    # unit out of the last nonzero entry k before the end, and the tail
    # (all in the last entry, the rest being 0) gathers at k + 1.
    alpha = [m] + [0] * (n - 1)
    out = [tuple(alpha)]
    while alpha[-1] != m:
        k = n - 2
        while alpha[k] == 0:
            k -= 1
        tail = alpha[-1]
        alpha[k] -= 1
        alpha[-1] = 0
        alpha[k + 1] = tail + 1
        out.append(tuple(alpha))
    return tuple(out)


def dim_homogeneous(n: int, m: int) -> int:
    """Number of degree-m monomials in n variables, binom(n+m-1, m)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("degree must be >= 0")
    return comb(n + m - 1, m)


def multinomial(d: int, gamma: MultiIndex) -> int:
    """d! / gamma!, the expansion weight of the monomial z^gamma in a d-th power.

    Exact integer; requires |gamma| = d.
    """
    gamma = check_multiindex(gamma)
    if degree(gamma) != d:
        raise ValueError(f"multinomial degree mismatch: |{gamma}| != {d}")
    # a product of binomials, which never forms d! itself: gamma = (d,) costs nothing
    out, total = 1, 0
    for g in gamma:
        total += g
        out *= comb(total, g)
    return out


def monomial_code(alpha: MultiIndex, width: int) -> int:
    """alpha as one integer, each entry in `width` bits, z1 first: while the
    entries stay below 2**width, the code of a sum of monomials is the sum of
    their codes."""
    code = 0
    for a in alpha:
        code = code << width | a
    return code


@cached_tables
def monomial_ranks(n: int, m: int, width: int) -> dict[int, int]:
    """The rank of each monomial of enumerate_degree(n, m), keyed by its code
    at `width`, in that order."""
    return {monomial_code(gamma, width): k for k, gamma in enumerate(enumerate_degree(n, m))}


@cached_tables
def multinomial_weights(n: int, d: int) -> list[int]:
    """multinomial(d, mu) for each mu of enumerate_degree(n, d), in its order.

    The successor of mu takes one unit from its last nonzero entry k before
    the end and gathers it with the tail, mu_last + 1, in entry k + 1
    (`enumerate_degree`), so the weight of the successor is
    w(mu) * mu_k / (mu_last + 1), an exact integer: one product and one
    division per monomial, and no binomial.
    """
    mus = enumerate_degree(n, d)
    out = [1]  # d!/d! for (d, 0, ..., 0)
    for mu in mus[:-1]:
        k = n - 2
        while mu[k] == 0:
            k -= 1
        out.append(out[-1] * mu[k] // (mu[-1] + 1))
    return out


def monomial_norm_reduced(alpha: MultiIndex) -> Fraction:
    """Reduced squared L2 norm of z^alpha on the unit ball: alpha! * n! / (n+|alpha|)!.

    The transcendental common factor pi^n/n! is dropped throughout the
    package; positivity is invariant under that positive rescaling.
    """
    alpha = check_multiindex(alpha)
    n = len(alpha)
    num = factorial(n)
    for a in alpha:
        num *= factorial(a)
    return Fraction(num, factorial(n + degree(alpha)))


def bergman_coefficient_reduced(n: int, d: int) -> int:
    """Reduced degree-d expansion coefficient of the ball kernel (1 - <z,w>)^-(n+1).

    Equals binom(n+d, n); the full constant carries an extra n!/pi^n.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    return comb(n + d, n)
