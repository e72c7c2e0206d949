import dataclasses
import random
from fractions import Fraction

import pytest

from hermfact import (
    GaussianRational,
    GaussianRow,
    SparseRow,
    HermitianMatrix,
    coefficient_matrix,
    gram,
    ldl_signature,
)
from hermfact import certify
from hermfact.certify import factor_failure, mode_evidence, witness_failure
from hermfact.parsing import parse_expression
from hermfact.stabilize import power_matrix
from helpers import (
    assert_equals_lowest_terms_kernel,
    block_layouts,
    dense,
    diagonal_matrix,
    embedded,
    full_evidence,
    is_positive_definite,
    is_positive_semidefinite,
    mat_adjoint,
    mat_mul,
    reference_primitive,
    quadratic_value,
    rand_gauss,
    rand_hermitian_matrix,
    rand_holo_matrix,
    rand_pd_matrix,
    reference_blocks,
    reference_exponent_steps,
    reference_ldl_signature,
    reference_vectors,
    reference_verify,
    unchecked_matrix,
)


def inertia(cert):
    """(n_pos, n_neg, n_zero) of a certificate."""
    pos, neg = cert.inertia
    return pos, neg, cert.size - pos - neg


def reference_inertia(want):
    return want.n_pos, want.n_neg, want.n_zero


def reconstruct(cert):
    """Independent reconstruction: M must equal sum w v v^adj over the
    certificate's weighted vectors, summed densely."""
    n = cert.size
    total = [[GaussianRational() for _ in range(n)] for _ in range(n)]
    for w, v in cert.vectors:
        v = dense(v, n)
        for i in range(n):
            for j in range(n):
                total[i][j] = total[i][j] + GaussianRational(w) * v[i] * v[j].conjugate()
    return tuple(map(tuple, total))


def reference_kernel_vectors(want, block, size):
    """The weighted vectors of the GaussianRational reference kernel, which
    has no hollow step: (d_k, column k of its W^-1, which is P^T L), for each
    nonzero d_k in slot order, folded to content 1 (`reference_primitive`)
    and read on the indices `block` of a matrix of `size` rows."""
    n = len(want.diag)
    return [(w, embedded(v, block, size)) for w, v in reference_primitive(
        [(d, tuple(want.transform_inv[i][k] for i in range(n)))
         for k, d in enumerate(want.diag) if d])]


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
    assert cert.vectors == [(Fraction(1, 2), SparseRow(((0, 1, 0), (1, 1, 0)))),
                            (Fraction(-1, 2), SparseRow(((0, 1, 0), (1, -1, 0))))]
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
    assert not is_positive_definite(cert) and inertia(cert)[2] == 1
    cert = ldl_signature(diagonal_matrix([1, -1, 1]))
    assert not is_positive_definite(cert)
    assert cert.witness == SparseRow(((1, 1, 0),))


def test_strict_certificate_of_a_singular_psd_matrix():
    # [[1, 1], [1, 1]] is PSD with null vector (1, -1), at its zero pivot:
    # the PD evidence is that witness, and the certificate has none.
    matrix = HermitianMatrix.from_rows([[1, 1], [1, 1]])
    cert = ldl_signature(matrix)
    assert cert.witness is None
    null = SparseRow(((0, 1, 0), (1, -1, 0)))
    assert mode_evidence(matrix, True) == (None, null)
    assert witness_failure(matrix, null, strict=True) is None
    # Without the null vector the PSD certificate's vectors do not prove PD;
    # a PD witness must be nonzero; and a certificate's witness must have a
    # negative value, so the null vector is no certificate's.
    assert factor_failure(matrix, cert.vectors, strict=True) == (
        "factor rows do not span the coefficient space")
    zero = SparseRow(((0, 0, 0), (1, 0, 0)))
    assert witness_failure(matrix, zero, strict=True) == "witness is zero"
    assert dataclasses.replace(cert, witness=null).verify() == (
        False, "witness is not present exactly when a weight is negative")
    assert cert.verify() == (True, "ok")
    # Without negative pivots or zero pivots there is nothing to witness.
    assert mode_evidence(diagonal_matrix([1, 1]), True)[1] is None


def test_is_positive_semidefinite_examples():
    assert is_positive_semidefinite(ldl_signature(diagonal_matrix([1, 0, 1])))
    cert = ldl_signature(diagonal_matrix([1, -2, 1]))
    assert not is_positive_semidefinite(cert)
    assert cert.witness == SparseRow(((1, 1, 0),))
    cert = ldl_signature(diagonal_matrix([0, 0]))
    assert is_positive_semidefinite(cert) and inertia(cert)[2] == 2


def gram_decomposition(matrix):
    """M = sum a_k u_k u_k^adj - sum b_l v_l v_l^adj, a_k, b_l > 0, from the
    certificate's weighted vectors, each vector dense."""
    pairs = ldl_signature(matrix).vectors
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
        HermitianMatrix.from_rows([[GaussianRational(0), GaussianRational(1)],
                                   [GaussianRational(2), GaussianRational(0)]])
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
            assert cert.inertia[1] == 0
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
        assert cert.inertia[1] == 0
        assert cert.witness is None
        assert reconstruct(cert) == matrix.entries
        assert cert.inertia[0] <= s


def test_pd_gram_built_matrices():
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        m = rng.randint(0, 2)
        matrix, _ = coefficient_matrix(gram(rand_pd_matrix(rng, n, m, r)))
        cert = ldl_signature(matrix)
        assert is_positive_definite(cert) and cert.inertia[0] == matrix.size


def test_transform_is_permuted_unit_triangular_without_hollow_fix():
    # Classical pivoted LDL*: in slot order, each vector is 0 at the indices
    # of the slots before its own and positive at its own slot's index; a
    # hollow block is a 2x2 block of D, not a row combination, so this holds
    # on zero-diagonal matrices too, for both vectors of a block.  They are
    # those of the reference's L, and they reconstruct M.
    rng = random.Random(3)
    for matrix in (rand_hermitian_matrix(rng, 6, 4), _hollow_matrix(rng, 6)):
        cert = ldl_signature(matrix)
        perm, blocks = cert.permutation, dict(cert.blocks)
        slots = [k for k, d in enumerate(cert.diag) if d]
        slots = sorted(slots + [k for k in blocks] * 2)
        assert len(slots) == len(cert.vectors)
        for k, (_, v) in zip(slots, cert.vectors):
            v = dense(v, cert.size)
            assert v[perm[k]].re > 0 and v[perm[k]].im == 0
            assert all(v[perm[j]].is_zero() for j in range(k))
        assert [(w, dense(v, cert.size)) for w, v in cert.vectors] == reference_vectors(matrix)
        assert reconstruct(cert) == matrix.entries
    assert cert.blocks  # the zero-diagonal matrix took a 2x2 step


def test_certificate_verify_catches_tampering():
    rng = random.Random(55)
    matrix = rand_hermitian_matrix(rng, 5, 8)
    cert = ldl_signature(matrix)
    good, _ = cert.verify()
    assert good
    (w, v), *rest = cert.vectors
    tampered = dataclasses.replace(cert, vectors=[(w + 1, v), *rest])
    ok, reason = tampered.verify()
    assert not ok and "congruence" in reason
    # The inertia is read off the weights, so claiming another one means
    # changing a weight.
    flipped = dataclasses.replace(cert, vectors=[(-w, v), *rest])
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
    last = n - 1
    vectors = cert.vectors

    def changed(k, w=None, entries=None):
        # vector k with its weight or its entries replaced
        old_w, v = vectors[k]
        v = v if entries is None else SparseRow(tuple(entries), v.den)
        return {"vectors": vectors[:k] + [(old_w if w is None else w, v)] + vectors[k + 1:]}

    if vectors:
        (w, v), end = vectors[0], len(vectors) - 1
        # a weight changed, zero or negated; a vector doubled, or times i,
        # which leaves w v v^adj as it was
        yield changed(0, w=w + 1)
        yield changed(0, w=0)
        yield changed(0, w=-w)
        yield changed(end, entries=[(j, 2 * x, 2 * y) for j, x, y in vectors[end][1].entries])
        yield changed(end, entries=[(j, -y, x) for j, x, y in vectors[end][1].entries])
        # an index at -1, past the size, or out of order
        yield changed(0, entries=((-1, 1, 0),) + v.entries)
        yield changed(end, entries=vectors[end][1].entries + ((n, 1, 0),))
        if len(v.entries) > 1:
            yield changed(0, entries=reversed(v.entries))
        # a vector dropped, or one repeated
        yield {"vectors": vectors[:end]}
        yield {"vectors": vectors + [vectors[0]]}
    bumped = _bump_entry(cert.matrix.entries, n // 2, last, GaussianRational(1))
    yield {"matrix": unchecked_matrix(bumped)}
    if cert.witness is not None:
        # entry 0 of the witness plus one, the witness gone or past the size
        entries, wden = cert.witness.entries, cert.witness.den
        if entries[0][0] == 0:
            entries = ((0, entries[0][1] + wden, entries[0][2]),) + entries[1:]
        else:
            entries = ((0, wden, 0),) + entries
        yield {"witness": SparseRow(entries, wden)}
        yield {"witness": None}
        yield {"witness": SparseRow(cert.witness.entries + ((n, 1, 0),), wden)}
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
    # run on the block's submatrix, and the weighted vectors of its W^-1,
    # which is L in pivot coordinates.  The witness is the first failing
    # block's.  With a hollow step (zero-diagonal matrices): the same
    # inertia.  verify and reference_verify agree on every tampering.
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
        assert inertia(cert) == reference_inertia(want)
        assert cert.verify() == (True, "ok")
        if cert.blocks:
            hollow_steps += 1
        witness = None
        layouts = block_layouts(cert)
        split += len(layouts) > 1
        for block, sub, (perm, vectors, diag, hollow) in layouts:
            want = reference_ldl_signature(sub)
            fails_first = witness is None and want.witness is not None
            if fails_first:
                witness = embedded(want.witness, block, size)
            if hollow:
                continue
            assert perm == want.permutation
            assert vectors == reference_kernel_vectors(want, range(len(block)), len(block))
            assert diag == want.diag
            if fails_first:
                assert dense(cert.witness, size) == witness
        if witness is None:
            assert cert.witness is None
        singular += kind == 3 and inertia(cert)[2] > 0
        if trial % 5 == 0:
            for change in _tamperings(cert):
                bad = dataclasses.replace(cert, **change)
                assert bad.verify() == reference_verify(bad), change
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
    assert mode_evidence(matrix, False) == ([(Fraction(1), SparseRow(((0, 1, 0), (1, -1, 0)))),
                                             (Fraction(1), SparseRow(((2, 1, 0), (3, 1, 0))))],
                                            None)
    assert mode_evidence(matrix, True) == (None, SparseRow(((0, 1, 0), (1, 1, 0))))


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
        lambda c: c.matrix.den > 1 and c.inertia[1] == 2 and not c.blocks),
    # den = 84 > 1 with a hollow block
    "den-above-one-hollow": (
        _hermitian([0] * 4, {(0, 1): (F(1, 2), F(1, 3)), (0, 2): F(2, 3),
                             (1, 2): (0, F(-1, 6)),
                             (1, 3): (F(3, 4), 1), (2, 3): 1, (0, 3): F(5, 7)}),
        lambda c: c.matrix.den > 1 and [k for k, _ in c.blocks] == [0]),
    # a dense PD matrix whose entries reach 10^12
    "aa-star-24-entries-1e12": (
        _aa_star_plus_one(24, 2 * 10**5, 31),
        lambda c: c.inertia[0] == 24 and max(map(abs, c.matrix.re[0].values())) > 10**11),
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


def _sparse_matrix(rng, size):
    """A Hermitian matrix with about half its entries 0 and den 6, so rows
    skipped by a step keep an older scale than the rows it updates."""
    rows = [[GaussianRational(0)] * size for _ in range(size)]
    for i in range(size):
        if rng.random() < 0.6:
            rows[i][i] = GaussianRational(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))))
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                c = GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                                     Fraction(rng.randint(-4, 4), rng.choice((1, 3))))
                rows[i][j], rows[j][i] = c, c.conjugate()
    return HermitianMatrix.from_rows(rows)


def test_elimination_reads_only_the_upper_triangle():
    # Junk left of the diagonal of each block's working rows changes nothing:
    # the same pivots, hollow blocks and witness slot, and every row the same
    # right of its diagonal, at the same scale.
    rng = random.Random(34)
    matrices = [matrix for matrix, _ in EXACT_DIVISION_CASES.values()]
    for trial in range(120):
        size = rng.randint(2, 10)
        matrices.append((rand_hermitian_matrix(rng, size, 9), _hollow_matrix(rng, size),
                         _singular_matrix(rng, size), _sparse_matrix(rng, size))[trial % 4])
    hollow = negative = 0
    for matrix in matrices:
        for indices, rows in certify._blocks(matrix):
            if isinstance(rows, tuple):
                continue
            junk = [GaussianRow(row.re[:], row.im[:], row.den) for row in rows]
            for t, row in enumerate(junk):
                row.re[:t] = [rng.randint(-99, 99) for _ in range(t)]
                row.im[:t] = [rng.randint(-99, 99) for _ in range(t)]
            for strict, stop in ((False, False), (True, False), (False, True), (True, True)):
                want = certify._eliminate([GaussianRow(row.re[:], row.im[:], row.den)
                                           for row in rows], strict, stop)
                got = certify._eliminate([GaussianRow(row.re[:], row.im[:], row.den)
                                          for row in junk], strict, stop)
                assert got[1:] == want[1:]
                assert [(row.re[t:], row.im[t:], row.den) for t, row in enumerate(got[0])] == [
                    (row.re[t:], row.im[t:], row.den) for t, row in enumerate(want[0])]
            hollow += bool(want[3])
            negative += any(d < 0 for d in want[2])
    assert hollow > 30 and negative > 30


def _dense_workload_matrix(rng, size, definite):
    """A one-block matrix as the benchmark's dense forms have: Gaussian-integer
    entries of height at most 5, indefinite with one negative and one positive
    diagonal entry, or A A^adj + I."""
    if definite:
        return _aa_star_plus_one(size, 5, rng.randrange(10**6))
    diag = {p: rng.randint(-5, 5) for p in range(size)}
    negative, positive = rng.sample(range(size), 2)
    diag[negative], diag[positive] = -rng.randint(1, 5), rng.randint(1, 5)
    return _hermitian([diag[p] for p in range(size)],
                      {(p, q): (rng.randint(-5, 5), rng.randint(-5, 5))
                       for p in range(size) for q in range(p + 1, size)})


@pytest.mark.parametrize("definite", [False, True], ids=["indefinite", "aa-star-plus-one"])
def test_dense_matrices_match_the_reference_kernel(definite):
    # Seed 11, sizes across the benchmark's 10 to 24: the permutation, D and
    # the weighted vectors of L of the GaussianRational reference kernel, and
    # a certificate that verifies.
    rng = random.Random(11)
    for size in (10, 14, 19, 24):
        matrix = _dense_workload_matrix(rng, size, definite)
        cert, want = ldl_signature(matrix), reference_ldl_signature(matrix)
        [(block, _, (perm, vectors, diag, hollow))] = block_layouts(cert)
        assert list(block) == list(range(size)) and not hollow
        assert (perm, diag) == (want.permutation, want.diag)
        assert vectors == reference_kernel_vectors(want, block, size)
        assert inertia(cert) == reference_inertia(want)
        assert cert.inertia[0] == size if definite else cert.inertia[1] > 0
        assert cert.verify() == (True, "ok")


def _psd_matrix(rng, size):
    """A sum of rank-one terms v v^adj, half the time size of them, so PD
    but for chance, else fewer, so singular."""
    rank = size if rng.random() < 0.5 else rng.randint(0, size - 1)
    vectors = [[rand_gauss(rng, 3) for _ in range(size)] for _ in range(rank)]
    return HermitianMatrix.from_rows(
        [[sum((vec[i] * vec[j].conjugate() for vec in vectors), GaussianRational())
          for j in range(size)] for i in range(size)])


def _shuffled_direct_sum(rng, parts) -> HermitianMatrix:
    """The direct sum of the matrices `parts`, its indices shuffled, so that
    each part's blocks are blocks of the sum, interleaved."""
    size = sum(part.size for part in parts)
    rows = [[GaussianRational()] * size for _ in range(size)]
    offset = 0
    for part in parts:
        for p, row in enumerate(part.entries):
            rows[offset + p][offset:offset + part.size] = row
        offset += part.size
    order = list(range(size))
    rng.shuffle(order)
    return HermitianMatrix.from_rows([[rows[p][q] for q in order] for p in order])


@pytest.mark.parametrize("strict", [False, True], ids=["semi", "strict"])
def test_weights_carry_the_inertia_and_mode_evidence_is_the_certificates(strict):
    # On dense, hollow, singular and sparse matrices and shuffled direct sums
    # of them: the signs of the weights count what D does, each nonzero d_k
    # by its sign and each hollow block one of each, and the evidence of the
    # mode's test is the full elimination's and proves its claim: for PSD
    # the certificate's vectors or its witness.
    rng = random.Random(35)
    kinds = (lambda n: rand_hermitian_matrix(rng, n, 9), lambda n: _hollow_matrix(rng, n),
             lambda n: _singular_matrix(rng, n), lambda n: _sparse_matrix(rng, n))
    split = hollow = failing = passing = 0
    for trial in range(160):
        # every other sum is of PSD parts, PD or singular, so that some pass
        parts = [_psd_matrix(rng, rng.randint(1, 6)) if trial % 2
                 else kinds[(trial // 2 + t) % 4](rng.randint(1, 6)) for t in range(1 + trial % 3)]
        matrix = _shuffled_direct_sum(rng, parts)
        cert = ldl_signature(matrix)
        blocks = len(cert.blocks)
        assert cert.inertia == (blocks + sum(d > 0 for d in cert.diag),
                                blocks + sum(d < 0 for d in cert.diag))
        assert cert.verify() == (True, "ok")
        vectors, witness = evidence = mode_evidence(matrix, strict)
        assert evidence == full_evidence(matrix, strict)
        if not strict:
            assert evidence == (
                (cert.vectors, None) if cert.witness is None else (None, cert.witness))
        if witness is None:
            assert vectors == cert.vectors
            assert factor_failure(matrix, vectors, strict) is None
        else:
            assert witness_failure(matrix, witness, strict) is None
        split += len(reference_blocks(matrix)) > 1
        hollow += blocks > 0
        failing += witness is not None
        passing += witness is None
    assert split > 80 and hollow > 30 and failing > 30 and passing > 10
