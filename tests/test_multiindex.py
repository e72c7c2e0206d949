import math
from fractions import Fraction

import pytest

from hermfact import dim_homogeneous, enumerate_degree

from helpers import bergman_coefficient_reduced, monomial_norm_reduced, multinomial


def test_enumerate_degree_two_vars():
    assert enumerate_degree(2, 2) == ((2, 0), (1, 1), (0, 2))


def test_enumerate_degree_one_var():
    assert enumerate_degree(1, 5) == ((5,),)


def test_enumerate_degree_three_vars():
    basis = enumerate_degree(3, 2)
    assert len(basis) == 6
    assert basis[0] == (2, 0, 0)
    assert basis[-1] == (0, 0, 2)


def test_enumerate_degree_lex_descending_no_duplicates():
    for n in range(1, 5):
        for m in range(0, 7):
            basis = enumerate_degree(n, m)
            assert len(set(basis)) == len(basis) == dim_homogeneous(n, m)
            assert list(basis) == sorted(basis, reverse=True)
            assert all(sum(alpha) == m for alpha in basis)


def test_dim_homogeneous_values():
    assert dim_homogeneous(2, 3) == 4
    for n in range(1, 6):
        assert dim_homogeneous(n, 0) == 1
    # oracle: count the enumerated basis
    assert dim_homogeneous(3, 4) == len(enumerate_degree(3, 4)) == 15


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (3, 0)) == 1
    # oracle: 4!/(2! 1! 1!)
    assert multinomial(4, (2, 1, 1)) == math.factorial(4) // (2 * 1 * 1) == 12


def test_multinomial_degree_mismatch():
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_monomial_norm_one_variable_closed_form():
    # oracle: the polar integral of |z|^(2k) over the unit disc is pi/(k+1);
    # dividing out pi leaves 1/(k+1)
    for k in range(9):
        assert monomial_norm_reduced((k,)) == Fraction(1, k + 1)


def test_monomial_norm_examples():
    assert monomial_norm_reduced((1, 1)) == Fraction(
        math.factorial(1) * math.factorial(1) * math.factorial(2), math.factorial(4)
    )
    assert monomial_norm_reduced((1, 1)) == Fraction(1, 12)
    for n in range(1, 5):
        assert monomial_norm_reduced((0,) * n) == 1


def test_monomial_norm_strictly_decreasing_per_coordinate():
    for alpha in [(0, 0), (1, 2), (3, 0), (2, 2, 1)]:
        base = monomial_norm_reduced(alpha)
        assert base > 0
        for k in range(len(alpha)):
            bumped = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
            assert monomial_norm_reduced(bumped) < base


def test_bergman_coefficient_values():
    for d in range(8):
        assert bergman_coefficient_reduced(1, d) == d + 1
    assert bergman_coefficient_reduced(2, 2) == 6
    for n in range(1, 5):
        assert bergman_coefficient_reduced(n, 0) == 1


def test_reproducing_identity_small_degrees():
    # the degree-d kernel component reproduces degree-d monomials exactly
    for n in range(1, 5):
        for d in range(0, 9):
            c = bergman_coefficient_reduced(n, d)
            for alpha in enumerate_degree(n, d):
                assert c * multinomial(d, alpha) * monomial_norm_reduced(alpha) == 1


def _recursive_enumerate_degree(n, m):
    if n == 1:
        return ((m,),)
    return tuple((first,) + rest for first in range(m, -1, -1)
                 for rest in _recursive_enumerate_degree(n - 1, m - first))


def test_enumerate_degree_equals_recursive_order():
    for n in range(1, 6):
        for m in range(0, 7):
            assert enumerate_degree(n, m) == _recursive_enumerate_degree(n, m)


def test_enumerate_degree_many_variables():
    # one call per variable used to recurse past Python's recursion limit
    basis = enumerate_degree(1500, 1)
    assert basis == tuple(tuple(int(k == j) for k in range(1500)) for j in range(1500))


def test_enumerate_degree_keeps_a_bounded_cache():
    # A long search asks for one new degree at each step; the cache keeps
    # the last degrees whose monomials fit in TABLE_CACHE_ENTRIES, not every one.
    from hermfact.multiindex import TABLE_CACHE_ENTRIES

    first = enumerate_degree(2, 5)
    assert enumerate_degree(2, 5) is first
    for m in range(1000, 1002 + TABLE_CACHE_ENTRIES // 1000):
        last = enumerate_degree(2, m)
        assert enumerate_degree(2, m) is last
    again = enumerate_degree(2, 5)
    assert again is not first and again == first
    assert enumerate_degree(2, m) is last
    assert enumerate_degree(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_cached_tables_are_bounded_by_the_entries_they_hold():
    # A table is shared while the tables fit in TABLE_CACHE_ENTRIES entries;
    # a long search's large tables push the oldest out, not the newest.
    from hermfact.multiindex import TABLE_CACHE_ENTRIES, degree_table

    first = degree_table(2, 5, 4)
    assert degree_table(2, 5, 4) is first
    for m in range(1000, 1002 + TABLE_CACHE_ENTRIES // 1000):
        last = degree_table(2, m, 11)
        assert degree_table(2, m, 11) is last
    again = degree_table(2, 5, 4)
    assert again is not first and again == first
    assert degree_table(2, m, 11) is last


@pytest.mark.parametrize("width", [3, 8, 11])
def test_monomial_codes_add_and_key_the_ranks_in_enumeration_order(width):
    # Codes are distinct and add as the monomials do while the entries stay
    # below 2**width, and a degree table keys each monomial's rank by its
    # code, in enumerate_degree's order.
    from hermfact.multiindex import degree_table, monomial_code

    for n in range(1, 4):
        for m in range(4):
            monomials = enumerate_degree(n, m)
            ranks = degree_table(n, m, width).ranks
            assert list(ranks.items()) == [(monomial_code(g, width), k)
                                           for k, g in enumerate(monomials)]
            assert len(ranks) == len(monomials)
            for alpha in enumerate_degree(n, 2):
                for gamma in monomials:
                    total = tuple(a + g for a, g in zip(alpha, gamma))
                    assert monomial_code(total, width) == (monomial_code(alpha, width)
                                                           + monomial_code(gamma, width))
    assert monomial_code((3, 1), width) == (3 << width) + 1
    assert monomial_code((255, 2), 8) == 255 * 256 + 2
