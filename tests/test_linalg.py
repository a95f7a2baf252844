"""Exact linear algebra over the Gaussian rationals."""

from fractions import Fraction

from crsing import GaussRational, I, ONE, ZERO
from crsing.linalg import (
    mat_mul,
    nullspace,
    nullspace_sparse,
    rank,
    rank_sparse,
    rref_sparse,
    solve_many_sparse,
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
    (x,), unique = solve_many_sparse(to_sparse(M), 2, [[g(3), g(1)]])
    assert x == [g(2), g(1)]
    assert unique
    M2 = [[g(1), g(1)], [g(2), g(2)]]
    sols, unique2 = solve_many_sparse(
        to_sparse(M2), 2, [[g(1), g(3)], [g(1), g(2)]]
    )
    # rank-deficient, incompatible right-hand side
    assert sols[0] is None
    # rank-deficient but consistent: a solution exists, not unique
    assert mat_mul(M2, column(sols[1])) == column([g(1), g(2)])
    assert not unique2


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


def test_solve_many_sparse():
    M = to_sparse([[g(1), g(0)], [g(0), g(1)], [g(1), g(1)]])
    rhs_good = [g(1), g(2), g(3)]
    rhs_bad = [g(1), g(2), g(4)]
    sols, unique = solve_many_sparse(M, 2, [rhs_good, rhs_bad])
    assert unique
    assert sols[0] == [g(1), g(2)]
    assert sols[1] is None


def test_zeros():
    assert zeros(2) == [[ZERO, ZERO], [ZERO, ZERO]]
    assert zeros(1, 3) == [[ZERO, ZERO, ZERO]]
