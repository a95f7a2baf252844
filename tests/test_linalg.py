"""Exact linear algebra over the Gaussian rationals."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crsing import GaussRational, I, ONE, ZERO
from crsing.linalg import (
    Factorization,
    mat_mul,
    nullspace,
    nullspace_sparse,
    rank,
    rank_sparse,
    rref_sparse,
    to_sparse,
    transpose,
    conj_transpose,
    zeros,
)


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def column(v):
    return [[x] for x in v]


def test_rank_and_det():
    # a square matrix is invertible (nonzero determinant) iff of full rank
    M = [[g(1), g(2)], [g(2), g(4)]]
    assert rank(M) == 1
    N = [[g(1), I], [g(0), g(3)]]
    assert rank(N) == 2
    assert rank([[g(0), I, g(1)], [g(2), g(0), g(1)], [g(2), I, g(2)]]) == 2
    assert rank([[I, g(1)], [g(1), I]]) == 2
    assert rank([[I, g(1)], [g(1), -I]]) == 1


def test_identity_and_mul():
    M = [[g(1), g(2)], [g(3), g(4)]]
    eye = [[ONE, ZERO], [ZERO, ONE]]
    assert mat_mul(M, eye) == M
    assert mat_mul(eye, M) == M
    assert mat_mul(M, column([g(1), g(-1)])) == column([g(-1), g(-1)])


def test_transpose_and_conj_transpose():
    M = [[g(1), I], [g(0), g(2)]]
    assert transpose(M) == [[g(1), g(0)], [I, g(2)]]
    assert conj_transpose(M) == [[g(1), g(0)], [-I, g(2)]]


def test_nullspace_orthogonality():
    M = [[g(1), g(2), g(3)], [g(2), g(4), g(6)]]
    basis = nullspace(M)
    assert len(basis) == 2
    for v in basis:
        assert mat_mul(M, column(v)) == column([ZERO, ZERO])


def test_solve_consistent_and_inconsistent():
    M = [[g(1), g(1)], [g(0), g(1)]]
    fact = Factorization(to_sparse(M), 2)
    assert fact.solve([g(3), g(1)]) == [g(2), g(1)]
    assert fact.unique
    M2 = [[g(1), g(1)], [g(2), g(2)]]
    fact2 = Factorization(to_sparse(M2), 2)
    # rank-deficient, incompatible right-hand side
    assert fact2.solve([g(1), g(3)]) is None
    # rank-deficient but consistent: a solution exists, not unique
    x = fact2.solve([g(1), g(2)])
    assert mat_mul(M2, column(x)) == column([g(1), g(2)])
    assert not fact2.unique


def test_sparse_matches_dense():
    M = [
        [g(1), g(0), g(2)],
        [g(0), g(0), g(0)],
        [g(1), I, g(0)],
        [g(2), I, g(2)],
    ]
    assert rank_sparse(to_sparse(M), 3) == rank(M)
    for v in nullspace_sparse(to_sparse(M), 3):
        assert mat_mul(M, column(v)) == column([ZERO] * 4)


def test_rref_sparse_pivots():
    rows = to_sparse([[g(0), g(2)], [g(1), g(1)]])
    reduced, pivots = rref_sparse(rows, 2)
    assert pivots == [0, 1]
    # reduced rows are unit in their pivot column
    for r, p in zip(reduced, pivots):
        assert r[p] == ONE


def test_factorization_solves_many():
    M = to_sparse([[g(1), g(0)], [g(0), g(1)], [g(1), g(1)]])
    rhs_good = [g(1), g(2), g(3)]
    rhs_bad = [g(1), g(2), g(4)]
    fact = Factorization(M, 2)
    assert fact.unique
    assert fact.pivots == [0, 1]
    assert fact.solve(rhs_good) == [g(1), g(2)]
    assert fact.solve(rhs_bad) is None
    # the same factorization answers again, in any order
    assert fact.solve(rhs_good) == [g(1), g(2)]


def reference_solve(rows, ncols, b):
    """Solve A x = b by eliminating the augmented matrix [A | b]: the
    exact reference that replaying a Factorization must reproduce."""
    aug = [dict(row) for row in rows]
    for i, bi in enumerate(b):
        if bi:
            aug[i][ncols] = bi
    red, pivots = rref_sparse(aug, ncols)
    if any(row.get(ncols) for row in red[len(pivots):]):
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i].get(ncols, ZERO)
    return x


def small_gauss():
    frac = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    return st.builds(GaussRational, frac, frac)


@st.composite
def sparse_systems(draw):
    """A sparse matrix (wide, tall, rank-deficient or with no rows) and
    right-hand sides inside and outside its column space."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), small_gauss())
    dense = [
        draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)
    ]
    # some rows repeat a multiple of an earlier row, so the rank drops
    for i in range(1, nrows):
        if draw(st.booleans()):
            k = draw(st.integers(0, i - 1))
            c = draw(small_gauss())
            dense[i] = [c * a for a in dense[k]]
    x = draw(st.lists(small_gauss(), min_size=ncols, max_size=ncols))
    inside = [sum((a * xi for a, xi in zip(row, x)), ZERO) for row in dense]
    outside = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return dense, ncols, [inside, outside]


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_factorization_matches_augmented_elimination(system):
    dense, ncols, (inside, outside) = system
    rows = to_sparse(dense)
    fact = Factorization(rows, ncols)
    assert fact.unique == (rank_sparse(rows, ncols) == ncols)
    for b in (inside, outside):
        got = fact.solve(b)
        assert got == reference_solve(rows, ncols, b)
        if got is not None:
            assert mat_mul(dense, column(got)) == column(b)
    # b = A x lies in the column space
    assert fact.solve(inside) is not None


def test_zeros():
    assert zeros(2) == [[ZERO, ZERO], [ZERO, ZERO]]
    assert zeros(1, 3) == [[ZERO, ZERO, ZERO]]
