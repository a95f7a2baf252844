"""Differential tests of the exponent-arithmetic CR kernel.

is_cr, is_cr_through, cr_equation_matrix and matching_matrix are checked
against the plain polynomial path: CRField.apply (products of Poly with
Poly.differentiate) for the CR fields and Poly products z^alpha * Q^j for
the matching columns.  Quadrics have n = 2..4 and manifolds carry a
nonzero higher-order part E.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crsing import (
    GaussRational,
    Manifold,
    Monomial,
    Poly,
    Quadric,
    cr_equation_matrix,
    cr_fields,
    is_cr,
    is_cr_through,
    quadric_model,
)
from crsing.extend import homogeneous_monomials, matching_matrix
from crsing.manifold import zb_partials

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

COEFFS = st.sampled_from(
    [
        GaussRational(1),
        GaussRational(-1),
        GaussRational(2),
        GaussRational(0, 1),
        GaussRational(Fraction(1, 2), -3),
        GaussRational(Fraction(-2, 3)),
    ]
)
ENTRIES = st.one_of(st.just(GaussRational(0)), COEFFS)


@st.composite
def quadrics(draw, n_min=2, n_max=4):
    n = draw(st.integers(n_min, n_max))
    A = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    B = [[GaussRational(0)] * n for _ in range(n)]
    C = [[GaussRational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw(ENTRIES)
            C[i][j] = C[j][i] = draw(ENTRIES)
    return Quadric(n, A, B, C)


def _exponents(draw, n, total):
    """z and zbar exponent tuples with the given total degree."""
    cuts = sorted(draw(st.integers(0, total)) for _ in range(2 * n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(parts[:n]), tuple(parts[n:])


@st.composite
def term_polys(draw, n, min_degree, max_degree, min_terms=0, max_terms=4):
    """A w-free polynomial of n variables; distinct monomials, so no term
    cancels."""
    count = draw(st.integers(min_terms, max_terms))
    terms = {}
    for _ in range(count):
        z, zb = _exponents(draw, n, draw(st.integers(min_degree, max_degree)))
        terms[Monomial(z, zb, 0)] = draw(COEFFS)
    return Poly(n, terms)


@st.composite
def manifolds_and_functions(draw):
    q = draw(quadrics())
    E = draw(term_polys(q.n, 3, 4, min_terms=1, max_terms=3))
    f = draw(term_polys(q.n, 0, 4))
    return Manifold(q, E), f


def reference_cr_rows(q, d):
    """The CR matrix rows built from CRField.apply on one Poly per column."""
    model = quadric_model(q)
    monos = homogeneous_monomials(q.n, d)
    row_of = {m: i for i, m in enumerate(monos)}
    rows = []
    for fld in cr_fields(model):
        block = [dict() for _ in monos]
        for ci, mono in enumerate(monos):
            image = fld.apply(Poly.from_monomial(mono, 1, q.n))
            for om, c in image.terms.items():
                block[row_of[om]][ci] = c
        rows.extend(block)
    return rows


class TestIsCr:
    @SETTINGS
    @given(manifolds_and_functions())
    def test_failures_match_field_images(self, mf):
        m, f = mf
        chk = is_cr(m, f)
        expected = []
        for fld in cr_fields(m):
            image = fld.apply(f)
            if not image.is_zero:
                expected.append(((fld.k, fld.l), image))
        assert list(chk.failures) == expected
        assert chk.holds == (not expected)
        rho = m.rho()
        assert chk.vacuous == all(
            rho.differentiate("zb%d" % j).is_zero for j in range(1, m.n + 1)
        )

    @SETTINGS
    @given(manifolds_and_functions(), st.integers(0, 7))
    def test_is_cr_through_matches_truncated_images(self, mf, N):
        m, f = mf
        assert is_cr_through(m, f, N) == all(
            fld.apply(f).truncate(N).is_zero for fld in cr_fields(m)
        )

    @SETTINGS
    @given(quadrics())
    def test_vacuous_quadrics(self, q):
        # the zbar-free quadrics are exactly those with all partials empty
        partials = zb_partials(q.q_poly())
        assert (not any(partials)) == (not q.has_antiholomorphic_part)
        assert is_cr(quadric_model(q), Poly.variable("zb1", q.n)).vacuous == (
            not q.has_antiholomorphic_part
        )

    @SETTINGS
    @given(manifolds_and_functions())
    def test_partials_match_differentiate(self, mf):
        m, _ = mf
        rho = m.rho()
        for j, terms in enumerate(zb_partials(rho), start=1):
            assert Poly(m.n, dict(terms)) == rho.differentiate("zb%d" % j)
            assert len(dict(terms)) == len(terms)


class TestMatrices:
    @SETTINGS
    @given(quadrics(), st.integers(1, 4))
    def test_cr_matrix_matches_reference(self, q, d):
        mat = cr_equation_matrix(q, d)
        assert mat.rows == reference_cr_rows(q, d)
        assert all(all(c for c in row.values()) for row in mat.rows)

    @SETTINGS
    @given(quadrics(), st.integers(1, 5))
    def test_matching_matrix_matches_products(self, q, d):
        monos, rows, unknowns = matching_matrix(q, d)
        row_of = {m: i for i, m in enumerate(monos)}
        expected = [dict() for _ in monos]
        for ci, (alpha, j) in enumerate(unknowns):
            column = Poly.from_monomial(Monomial(alpha, (0,) * q.n, 0), 1, q.n)
            for m, c in (column * q.q_poly() ** j).terms.items():
                expected[row_of[m]][ci] = c
        assert rows == expected


class TestScalarFastPaths:
    @given(
        st.builds(GaussRational, st.fractions(max_denominator=9), st.fractions()),
        st.integers(-5, 5),
    )
    def test_int_product_matches_gauss_product(self, g, k):
        for product in (g * k, k * g):
            assert product == g * GaussRational(k)
            assert type(product.re) is Fraction and type(product.im) is Fraction

    @given(st.fractions(max_denominator=9), st.fractions(max_denominator=9))
    def test_truth_value(self, re, im):
        assert bool(GaussRational(re, im)) == (re != 0 or im != 0)
