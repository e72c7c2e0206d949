import dataclasses
import random
from fractions import Fraction

import pytest

from hermfact import (
    GaussianRational,
    SparseRow,
    HermitianMatrix,
    coefficient_matrix,
    gram,
    ldl_signature,
)
from hermfact import certify
from hermfact.certify import mode_evidence
from hermfact.parsing import parse_expression
from hermfact.stabilize import power_matrix
from helpers import (
    assert_equals_lowest_terms_kernel,
    block_layouts,
    dense,
    dense_d,
    diagonal_matrix,
    embedded,
    dense_lower,
    is_positive_definite,
    is_positive_semidefinite,
    mat_adjoint,
    mat_mul,
    quadratic_value,
    rand_gauss,
    rand_hermitian_matrix,
    rand_holo_matrix,
    rand_pd_matrix,
    reference_exponent_steps,
    reference_layout,
    reference_ldl_signature,
    reference_verify,
    unchecked_matrix,
)


def inertia(cert):
    return (cert.n_pos, cert.n_neg, cert.n_zero)


def reconstruct(cert):
    """Independent reconstruction: M must equal V * D * V^adj, V = P^T L."""
    v = dense_lower(reference_layout(cert))
    return mat_mul(mat_mul(v, dense_d(cert)), mat_adjoint(v))


def test_identity_inertia():
    for n in (1, 2, 5):
        cert = ldl_signature(diagonal_matrix([1] * n))
        assert inertia(cert) == (n, 0, 0)
        assert cert.verify() == (True, "ok")


def test_hollow_two_by_two():
    cert = ldl_signature(HermitianMatrix.from_rows([[0, 1], [1, 0]]))
    assert inertia(cert) == (1, 1, 0)
    assert cert.blocks == ((0, GaussianRational(1)),)
    assert cert.diag == (0, 0)
    assert cert.lower == (SparseRow(()), SparseRow(()))
    assert cert.witness == SparseRow(((0, 1, 0), (1, -1, 0)))
    assert quadratic_value(cert.matrix, cert.witness) == GaussianRational(-2)
    assert cert.verify() == (True, "ok")


def test_square_difference_matrix():
    cert = ldl_signature(diagonal_matrix([1, -2, 1]))
    assert inertia(cert) == (2, 1, 0)
    assert cert.witness is not None


def test_is_positive_definite_family_matrices():
    cert = ldl_signature(diagonal_matrix([1, 2, 1]))
    assert is_positive_definite(cert) and inertia(cert) == (3, 0, 0)
    cert = ldl_signature(diagonal_matrix([1, 0, 1]))
    assert not is_positive_definite(cert) and cert.n_zero == 1
    cert = ldl_signature(diagonal_matrix([1, -1, 1]))
    assert not is_positive_definite(cert)
    assert cert.witness == SparseRow(((1, 1, 0),))


def test_strict_certificate_of_a_singular_psd_matrix():
    # [[1, 1], [1, 1]] is PSD with null vector (1, -1), at its zero pivot.
    matrix = HermitianMatrix.from_rows([[1, 1], [1, 1]])
    assert ldl_signature(matrix).witness is None
    cert = ldl_signature(matrix, strict=True)
    assert cert.witness == SparseRow(((0, 1, 0), (1, -1, 0)))
    assert cert.verify() == (True, "ok")
    # A strict certificate needs the null vector, nonzero; without `strict`
    # a witness must have a negative value.
    assert dataclasses.replace(cert, witness=None).verify() == (
        False, "zero inertia without witness")
    zero = SparseRow(((0, 0, 0), (1, 0, 0)))
    assert dataclasses.replace(cert, witness=zero).verify() == (False, "witness is zero")
    assert dataclasses.replace(cert, strict=False).verify() == (
        False, "witness value is not negative")
    # Without negative pivots or zero pivots there is nothing to witness.
    assert ldl_signature(diagonal_matrix([1, 1]), strict=True).witness is None


def test_is_positive_semidefinite_examples():
    assert is_positive_semidefinite(ldl_signature(diagonal_matrix([1, 0, 1])))
    cert = ldl_signature(diagonal_matrix([1, -2, 1]))
    assert not is_positive_semidefinite(cert)
    assert cert.witness == SparseRow(((1, 1, 0),))
    cert = ldl_signature(diagonal_matrix([0, 0]))
    assert is_positive_semidefinite(cert) and cert.n_zero == 2


def gram_decomposition(matrix):
    """M = sum a_k u_k u_k^adj - sum b_l v_l v_l^adj, a_k, b_l > 0, from the
    certificate's weighted vectors, each vector dense."""
    pairs = ldl_signature(matrix).weighted_vectors()
    return ([(w, dense(v, matrix.size)) for w, v in pairs if w > 0],
            [(-w, dense(v, matrix.size)) for w, v in pairs if w < 0])


def test_gram_decomposition_examples():
    positives, negatives = gram_decomposition(diagonal_matrix([2, 3]))
    assert negatives == []
    assert sorted(w for w, _ in positives) == [Fraction(2), Fraction(3)]
    vectors = sorted(tuple(str(c) for c in v) for _, v in positives)
    assert vectors == [("0", "1"), ("1", "0")]

    hollow = HermitianMatrix.from_rows([[0, 1], [1, 0]])
    positives, negatives = gram_decomposition(hollow)
    assert len(positives) == 1 and len(negatives) == 1
    acc = [[GaussianRational() for _ in range(2)] for _ in range(2)]
    for weight, vec in positives:
        for i in range(2):
            for j in range(2):
                acc[i][j] = acc[i][j] + GaussianRational(weight) * vec[i] * vec[j].conjugate()
    for weight, vec in negatives:
        for i in range(2):
            for j in range(2):
                acc[i][j] = acc[i][j] - GaussianRational(weight) * vec[i] * vec[j].conjugate()
    assert [[str(c) for c in row] for row in acc] == [["0", "1"], ["1", "0"]]

    positives, negatives = gram_decomposition(diagonal_matrix([1, -2, 1]))
    assert len(positives) == 2 and len(negatives) == 1


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        ldl_signature([[GaussianRational(0), GaussianRational(1)], [GaussianRational(2), GaussianRational(0)]])
    with pytest.raises(ValueError):
        HermitianMatrix.from_rows([[GaussianRational(0, 1)]])


def test_reconstruction_random_matrices():
    # exact congruence reconstruction across sizes, including height-10^6 entries
    rng = random.Random(99)
    cases = []
    for _ in range(180):
        cases.append((rng.randint(1, 10), 10**6))
    for _ in range(18):
        cases.append((rng.randint(11, 24), 100))
    cases.append((40, 5))
    cases.append((40, 3))
    for size, height in cases:
        matrix = rand_hermitian_matrix(rng, size, height)
        cert = ldl_signature(matrix)
        assert reconstruct(cert) == matrix.entries
        ok, reason = cert.verify()
        assert ok, reason


def test_congruence_invariance_of_inertia():
    rng = random.Random(7)
    for _ in range(25):
        size = rng.randint(1, 6)
        matrix = rand_hermitian_matrix(rng, size, 9)
        # unit upper times unit lower triangular: invertible
        c = [[GaussianRational() for _ in range(size)] for _ in range(size)]
        for i in range(size):
            c[i][i] = GaussianRational(1)
            for j in range(size):
                if i != j and rng.random() < 0.5:
                    c[i][j] = rand_gauss(rng, 3)
        # make it invertible by LU shape: zero out one triangle randomly
        if rng.getrandbits(1):
            for i in range(size):
                for j in range(i + 1, size):
                    c[i][j] = GaussianRational()
        else:
            for i in range(size):
                for j in range(i):
                    c[i][j] = GaussianRational()
        conjugated = mat_mul(mat_mul(c, matrix.entries), mat_adjoint(c))
        cert_a = ldl_signature(matrix)
        cert_b = ldl_signature(HermitianMatrix.from_rows(conjugated))
        assert inertia(cert_a) == inertia(cert_b)


def test_witness_soundness_random():
    rng = random.Random(31)
    found = 0
    for _ in range(60):
        matrix = rand_hermitian_matrix(rng, rng.randint(2, 8), 9)
        cert = ldl_signature(matrix)
        if cert.witness is not None:
            found += 1
            value = quadratic_value(matrix, cert.witness)
            assert value.im == 0 and value.re < 0
        else:
            assert cert.n_neg == 0
    assert found > 10


def test_psd_gram_built_matrices():
    # structural PSD check: gram-built coefficient matrices certify semidefinite
    # and zero pivots leave exactly zero residuals (reconstruction is exact).
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        s = rng.randint(1, 3)
        a = rand_holo_matrix(rng, n, m, s, r)
        matrix, _ = coefficient_matrix(gram(a))
        cert = ldl_signature(matrix)
        assert cert.n_neg == 0
        assert cert.witness is None
        assert reconstruct(cert) == matrix.entries
        assert cert.n_pos <= s


def test_pd_gram_built_matrices():
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        matrix, _ = coefficient_matrix(gram(rand_pd_matrix(rng, n, m, r)))
        cert = ldl_signature(matrix)
        assert is_positive_definite(cert) and cert.n_pos == matrix.size


def test_transform_is_permuted_unit_triangular_without_hollow_fix():
    # L is unit lower triangular after undoing the pivot permutation, i.e.
    # classical pivoted LDL*; hollow steps are 2x2 blocks of D, not row
    # combinations, so this holds on zero-diagonal matrices too.
    rng = random.Random(3)
    for matrix in (rand_hermitian_matrix(rng, 6, 4), _hollow_matrix(rng, 6)):
        cert = ldl_signature(matrix)
        perm = cert.permutation
        n = cert.size
        v = dense_lower(reference_layout(cert))
        for k in range(n):
            # column k of L, in pivot coordinates, must be unit on the
            # diagonal and vanish on earlier pivots
            column = [v[perm[j]][k] for j in range(n)]
            assert column[k] == GaussianRational(1)
            for j in range(k):
                assert column[j].is_zero()
        assert mat_mul(mat_mul(v, dense_d(cert)), mat_adjoint(v)) == matrix.entries
    assert cert.blocks  # the zero-diagonal matrix took a 2x2 step


def test_certificate_verify_catches_tampering():
    rng = random.Random(55)
    matrix = rand_hermitian_matrix(rng, 5, 8)
    cert = ldl_signature(matrix)
    good, _ = cert.verify()
    assert good
    bad_diag = list(cert.diag)
    bad_diag[0] += 1
    tampered = dataclasses.replace(cert, diag=tuple(bad_diag))
    ok, reason = tampered.verify()
    assert not ok and "congruence" in reason
    # The inertia is read off D, so claiming another one means changing D.
    flipped = dataclasses.replace(cert, diag=(-cert.diag[0],) + cert.diag[1:])
    assert inertia(flipped) != inertia(cert)
    ok, reason = flipped.verify()
    assert not ok and "congruence" in reason


def _hollow_matrix(rng, size):
    # zero diagonal: the first step has no pivot and must create one
    rows = [list(row) for row in rand_hermitian_matrix(rng, size, 7).entries]
    for k in range(size):
        rows[k][k] = GaussianRational()
    return HermitianMatrix.from_rows(rows)


def _singular_matrix(rng, size):
    # signed sum of fewer rank-one terms than the size
    rank = rng.randint(0, size - 1)
    vectors = [[rand_gauss(rng, 3) for _ in range(size)] for _ in range(rank)]
    signs = [GaussianRational(rng.choice((1, -1))) for _ in range(rank)]
    rows = [
        [
            sum(
                (sg * vec[i] * vec[j].conjugate() for sg, vec in zip(signs, vectors)),
                GaussianRational(),
            )
            for j in range(size)
        ]
        for i in range(size)
    ]
    return HermitianMatrix.from_rows(rows)


def _tamperings(cert):
    n = cert.size
    one = GaussianRational(1)
    last = n - 1
    # column 0 of L, and 1 over its denominator
    first, den = cert.lower[0].entries, cert.lower[0].den

    def l_columns(entries):
        return (SparseRow(tuple(entries), den),) + cert.lower[1:]

    yield {"diag": (cert.diag[0] + 1,) + cert.diag[1:]}
    if n > 1:
        # a value of L changed, or an entry put on or above the diagonal, at
        # a negative index, past the size, or out of order
        entries = {j: (x, y) for j, x, y in first}
        x, y = entries.get(last, (0, 0))
        entries[last] = (x + den, y)
        bumped = tuple((j, x, y) for j, (x, y) in sorted(entries.items()))
        yield {"lower": l_columns(bumped)}
        yield {"lower": l_columns(((0, den, 0),) + first)}
        yield {"lower": cert.lower[:last] + (SparseRow(((0, 1, 0),)),)}
        yield {"lower": l_columns(((-1, den, 0),))}
        yield {"lower": l_columns(first + ((n, den, 0),))}
        yield {"lower": l_columns(reversed(bumped))}
    yield {"lower": cert.lower[:last]}
    bumped = _bump_entry(cert.matrix.entries, n // 2, last, one)
    yield {"matrix": unchecked_matrix(bumped)}
    yield {"diag": cert.diag[:last] + (-cert.diag[last],)}
    yield {"permutation": (0,) * n}
    if cert.blocks:
        # a block's value changed or zero, a block dropped, overlapping or
        # past the end
        k, a = cert.blocks[0]
        yield {"blocks": ((k, a + one),) + cert.blocks[1:]}
        yield {"blocks": ((k, GaussianRational()),) + cert.blocks[1:]}
        yield {"blocks": cert.blocks[1:]}
        yield {"blocks": cert.blocks + ((cert.blocks[-1][0] + 1, one),)}
        yield {"blocks": ((last, one),)}
    elif n > 1:
        yield {"blocks": ((0, one),)}
    if cert.witness is not None:
        # entry 0 of the witness plus one
        entries, wden = cert.witness.entries, cert.witness.den
        if entries[0][0] == 0:
            entries = ((0, entries[0][1] + wden, entries[0][2]),) + entries[1:]
        else:
            entries = ((0, wden, 0),) + entries
        yield {"witness": SparseRow(entries, wden)}
        yield {"witness": None}
    elif n > 0:
        yield {"witness": SparseRow(((0, 1, 0),))}


def _bump_entry(rows, i, j, delta):
    rows = [list(row) for row in rows]
    rows[i][j] = rows[i][j] + delta
    return tuple(tuple(row) for row in rows)


def test_integer_row_kernel_matches_reference_kernel():
    # Block by block (`reference_blocks`; a one-block matrix is its own
    # block), each at its own slots in block order: without a hollow step, the
    # same permutation, diag and witness as the GaussianRational reference
    # run on the block's submatrix, and L is its W^-1 in pivot coordinates.
    # The witness is the first failing block's.  With a hollow step
    # (zero-diagonal matrices): the same inertia.  verify and reference_verify
    # agree on every tampering.
    rng = random.Random(2024)
    hollow_steps = singular = tampered = split = 0
    for trial in range(200):
        size = rng.randint(1, 12)
        kind = trial % 4
        if kind == 0:
            matrix = rand_hermitian_matrix(rng, size, 9)
        elif kind == 1:
            matrix = rand_hermitian_matrix(rng, size, 10**4)
        elif kind == 2:
            matrix = _hollow_matrix(rng, size)
        else:
            matrix = _singular_matrix(rng, size)
        cert = ldl_signature(matrix)
        want = reference_ldl_signature(matrix)
        assert inertia(cert) == inertia(want)
        assert cert.verify() == (True, "ok")
        if cert.blocks:
            hollow_steps += 1
        layout, witness = reference_layout(cert), None
        layouts = block_layouts(layout)
        split += len(layouts) > 1
        for block, sub, (perm, lower, diag, hollow) in layouts:
            want = reference_ldl_signature(sub)
            fails_first = witness is None and want.witness is not None
            if fails_first:
                witness = embedded(want.witness, block, size)
            if hollow:
                continue
            assert perm == want.permutation
            for k, entries in enumerate(lower):
                assert entries == tuple((j, want.transform_inv[perm[j]][k])
                                        for j in range(k + 1, len(block))
                                        if want.transform_inv[perm[j]][k])
            assert diag == want.diag
            if fails_first:
                assert layout.witness == witness
        if witness is None:
            assert layout.witness is None
        singular += kind == 3 and cert.n_zero > 0
        if trial % 5 == 0:
            for change in _tamperings(cert):
                bad = dataclasses.replace(cert, **change)
                assert bad.verify() == reference_verify(reference_layout(bad)), change
                tampered += 1
    assert hollow_steps > 40 and singular > 40 and tampered > 300 and split > 10



def test_a_cancelled_term_leaves_no_stored_zero_and_joins_no_blocks():
    # <z,w> F cancels the z1^2 z2 wbar1 wbar2^2 terms that F's two cross
    # terms give, at (1, 2) of M_1, and their conjugates at (2, 1).  Both the
    # closed form and the exponent loop keep no stored 0 there, so M_1 equals
    # the checked matrix of its dense entries, and the cancelled entry joins
    # no blocks: {0, 1} and {2, 3} are eliminated apart.
    form = parse_expression("z1^2*zb1^2 + z2^2*zb2^2 + z1*z2*zb2^2 + z2^2*zb1*zb2"
                            " - z1^2*zb1*zb2 - z1*z2*zb1^2")
    matrix, _ = power_matrix(form, 1)
    steps = reference_exponent_steps(form)
    next(steps)
    assert next(steps)[0] == matrix
    assert matrix == HermitianMatrix.from_rows(matrix.entries)
    assert 2 not in matrix.re[1] and 1 not in matrix.re[2]
    assert mode_evidence(matrix, False) == [(Fraction(1), SparseRow(((0, 1, 0), (1, -1, 0)))),
                                            (Fraction(1), SparseRow(((2, 1, 0), (3, 1, 0))))]
    assert mode_evidence(matrix, True) == SparseRow(((0, 1, 0), (1, 1, 0)))


def _hermitian(diag, off) -> HermitianMatrix:
    """diag on the diagonal and, for each (i, j): c in off, c at (i, j) and
    conj(c) at (j, i); c is a number or a pair (re, im)."""
    n = len(diag)
    rows = [[GaussianRational(d) if q == p else GaussianRational(0) for q in range(n)]
            for p, d in enumerate(diag)]
    for (i, j), c in off.items():
        c = GaussianRational(*c) if isinstance(c, tuple) else GaussianRational(c)
        rows[i][j], rows[j][i] = c, c.conjugate()
    return HermitianMatrix.from_rows(rows)


def _aa_star_plus_one(size: int, height: int, seed: int) -> HermitianMatrix:
    """A A^adj + I, A of Gaussian integers with parts up to height."""
    rng = random.Random(seed)
    a = [[(rng.randint(-height, height), rng.randint(-height, height)) for _ in range(size)]
         for _ in range(size)]

    def entry(i: int, j: int) -> GaussianRational:
        # sum over k of a[i][k] conj(a[j][k]), plus 1 on the diagonal
        pairs = list(zip(a[i], a[j]))
        return GaussianRational(sum(x * u + y * v for (x, y), (u, v) in pairs) + (i == j),
                                sum(y * u - x * v for (x, y), (u, v) in pairs))

    return HermitianMatrix.from_rows([[entry(i, j) for j in range(size)] for i in range(size)])


F = Fraction
# Each matrix is one block, and each pins one case of the fraction-free row
# update: the check beside it asserts that the elimination takes that path.
EXACT_DIVISION_CASES = {
    # a negative pivot at slot 1, then three more pivots
    "negative-pivot-then-steps": (
        _hermitian([9, -7, 5, 3, 2], {(0, 1): (1, 1), (0, 2): 2, (1, 2): (0, -1), (1, 3): (2, 1),
                                      (2, 3): 1, (3, 4): (1, -2), (2, 4): 1}),
        lambda c: c.diag[1] < 0 and all(c.diag[2:]) and not c.blocks),
    # two 1x1 pivots, a hollow block, then a 1x1 pivot after it
    "hollow-after-pivots": (
        _hermitian([4, 2, 1, 1, 0], {(0, 1): 2, (0, 2): 2, (0, 3): 2, (1, 2): 1, (1, 3): 1,
                                     (2, 3): (3, 1), (3, 4): (1, 1), (2, 4): 2}),
        lambda c: [k for k, _ in c.blocks] == [2] and all(c.diag[:2]) and c.diag[4]),
    # a hollow block first, then 1x1 pivots, the first negative
    "pivots-after-hollow": (
        _hermitian([0] * 6, {(0, 1): (1, 2), (0, 2): 1, (1, 2): (0, 1), (1, 3): 2, (2, 3): (1, -1),
                             (0, 3): 3, (3, 4): (2, 1), (4, 5): (1, 3), (2, 5): 1, (0, 5): (0, 1)}),
        lambda c: [k for k, _ in c.blocks] == [0] and c.diag[2] < 0 and all(c.diag[2:])),
    # zero diagonal, edges only between {0, 2, 4} and {1, 3, 5}: three hollow
    # blocks, the later ones dividing by the scale the earlier ones left
    "hollow-after-hollow": (
        _hermitian([0] * 6, {(0, 1): (1, 2), (0, 3): 1, (2, 1): (0, 1), (2, 3): 2, (2, 5): (1, -1),
                             (4, 3): 3, (4, 5): (2, 1), (0, 5): (1, 3), (4, 1): 1}),
        lambda c: [k for k, _ in c.blocks] == [0, 2, 4]),
    # the chain 0 - 6 - 5 - 4 - {1, 2, 3}: row 6 is updated by pivot 0, left
    # alone by pivots 1, 2 and 3, and updated again by pivot 5, which is
    # itself untouched until it is brought to the scale of the fifth pivot
    "untouched-rows": (
        _hermitian([50, 40, 30, 20, 3, 10, 1], {(0, 6): (2, 1), (6, 5): (1, -1), (5, 4): 2,
                                                (4, 1): (1, 1), (4, 2): 1, (4, 3): (0, 2),
                                                (1, 2): (1, -1), (1, 3): 2, (2, 3): (1, 1)}),
        lambda c: c.permutation == (0, 1, 2, 3, 5, 4, 6) and not c.blocks),
    # den = 60 > 1, with two negative pivots
    "den-above-one": (
        _hermitian([F(7, 2), F(1, 3), 0, F(-5, 6), 2],
                   {(0, 1): (F(1, 2), F(1, 3)), (0, 2): F(2, 3),
                    (1, 2): (0, F(-1, 6)), (1, 3): (F(3, 4), 1),
                    (2, 3): 1, (3, 4): (F(1, 5), F(-2, 3)), (2, 4): F(5, 6)}),
        lambda c: c.matrix.den > 1 and c.n_neg == 2 and not c.blocks),
    # den = 84 > 1 with a hollow block
    "den-above-one-hollow": (
        _hermitian([0] * 4, {(0, 1): (F(1, 2), F(1, 3)), (0, 2): F(2, 3),
                             (1, 2): (0, F(-1, 6)),
                             (1, 3): (F(3, 4), 1), (2, 3): 1, (0, 3): F(5, 7)}),
        lambda c: c.matrix.den > 1 and [k for k, _ in c.blocks] == [0]),
    # a dense PD matrix whose entries reach 10^12
    "aa-star-24-entries-1e12": (
        _aa_star_plus_one(24, 2 * 10**5, 31),
        lambda c: c.n_pos == 24 and max(map(abs, c.matrix.re[0].values())) > 10**11),
}


@pytest.mark.parametrize("case", sorted(EXACT_DIVISION_CASES))
def test_fraction_free_updates_equal_the_lowest_terms_kernel(case):
    matrix, takes_the_path = EXACT_DIVISION_CASES[case]
    cert = ldl_signature(matrix)
    assert takes_the_path(cert)
    assert_equals_lowest_terms_kernel(matrix)
    # Each finished pivot row is at the scale |Delta_k| of the leading
    # principal minor of den * M over the slots before it, read off D.
    [(_, rows)] = certify._blocks(matrix)
    s = certify._eliminate(rows, strict=False, stop=False)[0]
    den, blocks, minor, k = matrix.den, dict(cert.blocks), Fraction(1), 0
    while k < matrix.size:
        if k in blocks:
            assert s[k].den == s[k + 1].den == abs(minor) * den
            minor *= -blocks[k].abs2() * den * den
            k += 2
            continue
        if cert.diag[k]:
            assert s[k].den == abs(minor) * den
        minor *= cert.diag[k] * den
        k += 1
