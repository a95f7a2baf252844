"""Degree-by-degree CR matrices, kernels, and polynomial extension."""

import io
import math
import random
from fractions import Fraction

import pytest

from crsing import (
    GaussRational,
    I,
    Monomial,
    ONE,
    Poly,
    Quadric,
    ZERO,
    block_rank,
    block_rank_sum,
    counterexample_linear,
    cr_equation_matrix,
    cr_homogeneous_basis,
    dump_matrix_csv,
    extend_homogeneous,
    extend_polynomial,
    format_poly,
    is_cr,
    kernel_dimension_formula,
    parse_poly,
    quadric_model,
    rank_condition,
    rank_formula,
)
from crsing.errors import (
    DegenerateQuadric,
    NoExtension,
    NotCR,
    RankTooLow,
    RequiresNGe2,
)
from crsing.extend import (
    homogeneous_monomials,
    matching_factorization,
    matching_matrix,
    weighted_monomial_index,
)
from crsing.linalg import rref_sparse
from crsing.verify import _extension_sweep, random_quadric


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def quadric_a12() -> Quadric:
    return Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]])


def quadric_diag() -> Quadric:
    return Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]])


def triangular_family(beta, delta) -> Quadric:
    return Quadric(2, A=[[ONE, beta], [ZERO, delta]])


class TestClosedForms:
    def test_rank_formula_small_values(self):
        assert [rank_formula(d) for d in range(1, 5)] == [2, 6, 14, 26]

    def test_kernel_dimension_small_values(self):
        assert [kernel_dimension_formula(d) for d in range(1, 5)] == [2, 4, 6, 9]

    def test_block_rank_case_split(self):
        assert block_rank(1, 3) == 4
        assert block_rank(2, 3) == 6
        assert block_rank(3, 3) == 4
        assert block_rank_sum(3) == 14

    def test_matrix_matches_formula(self):
        q = triangular_family(g("1/2"), g(1, 1))
        for d in (1, 2, 3):
            mat = cr_equation_matrix(q, d)
            assert mat.rank() == rank_formula(d)
            assert len(mat.columns) - mat.rank() == kernel_dimension_formula(d)


class TestCRMatrix:
    def test_shape_and_labels(self):
        mat = cr_equation_matrix(quadric_a12(), 2)
        assert len(mat.columns) == 10
        assert len(mat.rows) == 10  # one block for the single pair (1,2)
        assert mat.pairs == [(1, 2)]
        assert len(mat.row_labels) == len(mat.rows)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            cr_equation_matrix(quadric_a12(), 0)
        with pytest.raises(RequiresNGe2):
            cr_equation_matrix(Quadric(1, A=[[ONE]]), 1)

    def test_kernel_elements_are_cr(self):
        q = quadric_diag()
        model = quadric_model(q)
        space = cr_homogeneous_basis(q, 3)
        assert space.degree == 3
        for b in space.basis:
            assert is_cr(model, b)

    def test_three_variables(self):
        q = Quadric(
            3,
            A=[[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]],
        )
        mat = cr_equation_matrix(q, 1)
        assert len(mat.columns) == 6
        assert len(mat.pairs) == 3


class TestExtendHomogeneous:
    def test_quadratic_part_extends_to_w(self):
        q = quadric_diag()
        res = extend_homogeneous(q, q.q_poly())
        assert format_poly(res.F) == "w"
        assert res.residual.is_zero
        assert res.unique

    def test_holomorphic_passthrough(self):
        q = quadric_diag()
        f = parse_poly("z1^2*z2", 2)
        res = extend_homogeneous(q, f)
        assert res.F == f
        assert res.residual.is_zero

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            extend_homogeneous(quadric_diag(), parse_poly("z1 + z1^2", 2))

    def test_rejects_non_cr(self):
        with pytest.raises(NotCR) as exc:
            extend_homogeneous(quadric_diag(), parse_poly("zb1", 2))
        assert exc.value.degree == 1

    def test_no_extension_on_rank_one(self):
        with pytest.raises(NoExtension):
            extend_homogeneous(quadric_a12(), parse_poly("zb1", 2))

    def test_mixed_degree_four(self):
        q = quadric_diag()
        f = q.q_poly() ** 2
        res = extend_homogeneous(q, f)
        assert res.F == parse_poly("w^2", 2)

    def test_corrupted_factorization_trips_residual_guard(self):
        q = triangular_family(ONE, ONE)
        f = q.q_poly() + parse_poly("z1^2 + z1*z2 + z2^2", 2)
        assert extend_homogeneous(copy_quadric(q), f).F == parse_poly(
            "w + z1^2 + z1*z2 + z2^2", 2
        )
        # scale the first pivot row by 2: the replay still reports a
        # consistent system, but its solution no longer matches f
        log = matching_factorization(q, 2)[2]._log
        r, pivot_at, inv, updates = log[0]
        assert inv is None and not updates
        log[0] = (r, pivot_at, g(2), updates)
        with pytest.raises(RuntimeError, match="nonzero residual"):
            extend_homogeneous(q, f)


def copy_quadric(q: Quadric) -> Quadric:
    """An equal quadric with caches of its own."""
    return Quadric(q.n, q.A, q.B, q.C)


def extend_or_none(q: Quadric, f: Poly):
    try:
        return extend_homogeneous(q, f)
    except NoExtension:
        return None


class TestMatchingCache:
    def test_interleaved_degrees_match_fresh_quadrics(self):
        # one quadric visits its degrees out of order; each answer, and each
        # NoExtension, must be the one an equal uncached quadric gives
        rng = random.Random(7)
        ranks = set()
        failures = 0
        for _ in range(6):
            n = rng.choice((2, 3))
            q = random_quadric(rng, n, zero_bias=0.6)
            ranks.add(min(rank_condition(q), 2))
            for d in (1, 3, 2, 1, 4):
                for f in cr_equation_matrix(q, d).kernel_polys()[:4]:
                    cached = extend_or_none(q, f)
                    fresh = extend_or_none(copy_quadric(q), f)
                    if fresh is None:
                        assert cached is None
                        failures += 1
                    else:
                        assert cached == fresh
        assert {1, 2} <= ranks
        assert failures > 0

    def test_equal_quadrics_share_no_cache(self):
        q1, q2 = quadric_diag(), quadric_diag()
        assert q1 == q2 and q1 is not q2
        extend_homogeneous(q1, q1.q_poly())
        assert 2 in q1._matching
        assert q2._matching == {}
        extend_homogeneous(q2, q2.q_poly())
        assert q1._matching[2][2] is not q2._matching[2][2]


class TestExtendPolynomial:
    def test_inhomogeneous_input(self):
        q = quadric_diag()
        f = 3 + q.q_poly() + parse_poly("z1^3", 2)
        res = extend_polynomial(q, f)
        assert res.F == parse_poly("3 + w + z1^3", 2)
        assert res.residual.is_zero

    def test_failure_reports_degree(self):
        q = quadric_a12()
        f = parse_poly("z1 + zb1^2", 2)
        with pytest.raises(NoExtension) as exc:
            extend_polynomial(q, f)
        assert exc.value.degree == 2


class TestCounterexample:
    def test_rank_one(self):
        v = counterexample_linear(quadric_a12())
        assert v == [ONE, ZERO]

    def test_rank_two_returns_none(self):
        assert counterexample_linear(quadric_diag()) is None

    def test_degenerate_quadric(self):
        with pytest.raises(DegenerateQuadric):
            counterexample_linear(Quadric(2, C=[[ONE, ZERO], [ZERO, ZERO]]))


class TestColumnOrder:
    def test_columns_strictly_increase(self):
        # generation order is the column order: total z-degree, then the z
        # exponents, then the zbar exponents, each ascending, with every
        # monomial of degree d in the 2n variables present once
        for n in range(1, 5):
            for d in range(6):
                keys = [(sum(m.z), m.z, m.zb) for m in homogeneous_monomials(n, d)]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert len(keys) == math.comb(2 * n + d - 1, d)


class TestMatrixDump:
    def test_csv_layout(self):
        import csv

        buf = io.StringIO()
        dump_matrix_csv(cr_equation_matrix(quadric_a12(), 1), buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == ["row", "zb2", "zb1", "z2", "z1"]
        assert len(rows) == 5
        # L_{1,2} = -z2 d/dzb2 here, so only the zb2 column produces output
        body = {row[0]: row[1:] for row in rows[1:]}
        assert body["L(1,2):z2"] == ["-1", "0", "0", "0"]
        assert body["L(1,2):z1"] == ["0", "0", "0", "0"]


def augmented_solutions(q: Quadric, d: int, rhs_list):
    """Matching solutions from one uncached elimination of the augmented
    matrix [M | b_1 ... b_k], None where b_k is not in the column space."""
    _, rows, unknowns = matching_matrix(q, d)
    ncols = len(unknowns)
    aug = [dict(row) for row in rows]
    for k, b in enumerate(rhs_list):
        for i, bi in enumerate(b):
            if bi:
                aug[i][ncols + k] = bi
    red, pivots = rref_sparse(aug, ncols)
    sols = []
    for k in range(len(rhs_list)):
        if any(row.get(ncols + k) for row in red[len(pivots):]):
            sols.append(None)
            continue
        x = [ZERO] * ncols
        for i, pc in enumerate(pivots):
            x[pc] = red[i].get(ncols + k, ZERO)
        sols.append(x)
    return sols


class TestKernelBatch:
    def test_batch_agrees_with_extend_homogeneous(self):
        # for every kernel element, extend_homogeneous must return the
        # solution of an uncached augmented elimination, or raise
        # NoExtension where there is none; the sweep's verdict must agree
        rng = random.Random(7)
        ranks = set()
        for _ in range(8):
            n = rng.choice((2, 3))
            q = random_quadric(rng, n, zero_bias=0.6)
            ranks.add(min(rank_condition(q), 2))
            all_extend = True
            for d in (1, 2, 3):
                mat = cr_equation_matrix(q, d)
                polys = mat.kernel_polys()
                sols = augmented_solutions(q, d, mat.kernel())
                assert len(sols) == len(polys)
                for f, sol in zip(polys, sols):
                    try:
                        F = extend_homogeneous(copy_quadric(q), f).F
                    except NoExtension:
                        assert sol is None
                        all_extend = False
                        continue
                    expected = {
                        Monomial(alpha, (0,) * n, j): c
                        for (alpha, j), c in zip(weighted_monomial_index(n, d), sol)
                        if c
                    }
                    assert F == Poly(n, expected)
            assert _extension_sweep(q, 3)[1] == all_extend
        assert {1, 2} <= ranks
