"""Multi-index bookkeeping: graded monomial bases and exact combinatorial weights.

A multi-index is a plain tuple of nonnegative ints, one entry per complex
variable.  The enumeration order fixed here (lexicographically descending
within a fixed total degree, z1-major) is the canonical basis order used by
every matrix in the package: row (i, alpha) of every coefficient matrix
M_d sits at i * dim + the rank of alpha in its degree's table
(`degree_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import comb

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


# The entries that the tables of a `cached_tables` function may hold before
# it drops the oldest: a run of small searches keeps all of its tables, a
# long search only its last few degrees.
TABLE_CACHE_ENTRIES = 4096


def cached_tables(func):
    """func cached per arguments, bounded by the entries its values hold, not
    by their number; callers only read them."""
    cache: dict = {}

    @wraps(func)
    def cached(*key):
        if key not in cache:
            while sum(map(len, cache.values())) > TABLE_CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = func(*key)
        return cache[key]

    return cached


def enumerate_degree(n: int, m: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of length n with total degree m, lexicographically
    descending: the monomials of their degree table (`degree_table`).

    >>> enumerate_degree(2, 2)
    ((2, 0), (1, 1), (0, 2))
    """
    return degree_table(n, m, m.bit_length()).monomials


def dim_homogeneous(n: int, m: int) -> int:
    """Number of degree-m monomials in n variables, binom(n+m-1, m)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("degree must be >= 0")
    return comb(n + m - 1, m)


def monomial_code(alpha: MultiIndex, width: int) -> int:
    """alpha as one integer, each entry in `width` bits, z1 first: while the
    entries stay below 2**width, the code of a sum of monomials is the sum of
    their codes."""
    code = 0
    for a in alpha:
        code = code << width | a
    return code


@dataclass(frozen=True)
class DegreeTable:
    """The monomials of degree k in n variables, in the order of
    `enumerate_degree`, with what indexes a matrix on them: the rank of each,
    keyed by its code at `width` (`monomial_code`), and its weight k!/mu!, the
    coefficient of z^mu wbar^mu in <z, w>^k.

    >>> table = degree_table(2, 2, 2)
    >>> table.monomials
    ((2, 0), (1, 1), (0, 2))
    >>> table.ranks, table.weights
    ({8: 0, 5: 1, 2: 2}, (1, 2, 1))
    """

    monomials: tuple[MultiIndex, ...]
    ranks: dict[int, int]
    weights: tuple[int, ...]

    def __len__(self) -> int:
        """The number of monomials, the entries that `cached_tables` counts."""
        return len(self.monomials)


@cached_tables
def degree_table(n: int, k: int, width: int) -> DegreeTable:
    """The table of the degree-k monomials in n variables at `width`, built
    in one walk from (k, 0, ..., 0) down to (0, ..., 0, k).  The successor
    of mu moves one unit out of its last nonzero entry j before the end, and
    the tail t = mu_last gathers at j + 1, as t + 1: its weight is
    w(mu) * mu_j / (t + 1), exactly, and its code mu's less 2**s_j and t,
    plus (t + 1) * 2**s_(j+1), with s_i = (n - 1 - i) * width."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    shift = [(n - 1 - i) * width for i in range(n)]
    mu = [k] + [0] * (n - 1)
    monomials, ranks, weights = [], {}, []
    code, w = k << shift[0], 1  # (k, 0, ..., 0), whose weight is k!/k!
    while True:
        ranks[code] = len(monomials)
        monomials.append(tuple(mu))
        weights.append(w)
        if mu[-1] == k:
            return DegreeTable(tuple(monomials), ranks, tuple(weights))
        j = n - 2
        while mu[j] == 0:
            j -= 1
        t = mu[-1]
        w = w * mu[j] // (t + 1)
        code += ((t + 1) << shift[j + 1]) - (1 << shift[j]) - t
        mu[j], mu[-1], mu[j + 1] = mu[j] - 1, 0, t + 1
