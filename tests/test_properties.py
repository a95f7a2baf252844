"""Property-based tests of the algebraic core.

Each test states an identity that must hold for every input, with
hypothesis supplying random small polynomials and matrices over the
Gaussian rationals.  All checks are exact.
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
    cr_field,
    extend_polynomial,
    formal_extend,
    format_poly,
    is_cr,
    parse_poly,
    quadric_model,
    rank_condition,
    transform,
)

N = 2


def weighted_head(F: Poly, N: int) -> Poly:
    """The terms of F of weighted degree (w counting twice) at most N."""
    return Poly(F.n, {m: c for m, c in F.terms.items() if m.weighted_degree() <= N})


def coeffs():
    frac = st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])
    )
    return st.builds(GaussRational, frac, frac)


def exponents(max_each=2):
    return st.tuples(st.integers(0, max_each), st.integers(0, max_each))


def polys(max_terms=4, max_each=2, max_w=0):
    term = st.tuples(
        exponents(max_each), exponents(max_each), st.integers(0, max_w), coeffs()
    )

    def build(terms):
        p = Poly.zero(N)
        for z, zb, w, c in terms:
            p = p + Poly.from_monomial(Monomial(z, zb, w), c, N)
        return p

    return st.lists(term, max_size=max_terms).map(build)


def holomorphic_polys(max_terms=3, max_each=2, max_w=2):
    """Polynomials in z and w only, no conjugated variables."""
    term = st.tuples(exponents(max_each), st.integers(0, max_w), coeffs())

    def build(terms):
        p = Poly.zero(N)
        for z, w, c in terms:
            p = p + Poly.from_monomial(Monomial(z, (0, 0), w), c, N)
        return p

    return st.lists(term, max_size=max_terms).map(build)


def symmetric_matrices():
    def build(a, b, d):
        return [[a, b], [b, d]]

    return st.builds(build, coeffs(), coeffs(), coeffs())


def matrices():
    return st.lists(st.lists(coeffs(), min_size=2, max_size=2), min_size=2, max_size=2)


def quadrics():
    return st.builds(
        lambda a, b, c: Quadric(N, A=a, B=b, C=c),
        matrices(),
        symmetric_matrices(),
        symmetric_matrices(),
    )


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(polys(max_terms=3, max_each=1), polys(max_terms=3, max_each=1))
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(
        polys(max_terms=2, max_each=1),
        polys(max_terms=2, max_each=1),
        polys(max_terms=2, max_each=1),
    )
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys())
    def test_additive_inverse(self, f):
        assert f - f == Poly.zero(N)


class TestConjugation:
    @given(polys())
    def test_involution(self, f):
        assert f.conjugate().conjugate() == f

    @given(polys(max_terms=3, max_each=1), polys(max_terms=3, max_each=1))
    def test_multiplicative(self, f, g):
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()


class TestTextRoundtrip:
    @given(polys(max_w=2))
    def test_parse_format(self, f):
        assert parse_poly(format_poly(f), N) == f


class TestDecompositions:
    @given(polys(max_w=1))
    def test_homogeneous_parts_sum(self, f):
        total = sum((part for _, part in f.homogeneous_parts()), Poly.zero(N))
        assert total == f

    @given(polys(max_w=1))
    def test_homogeneous_parts_pure(self, f):
        for d, part in f.homogeneous_parts():
            assert all(m.total_degree() == d for m in part.terms)

    @given(polys(max_w=1), st.integers(0, 4))
    def test_truncate_splits(self, f, bound):
        head = f.truncate(bound)
        assert head + (f - head) == f
        deg = head.total_degree()
        assert deg is None or deg <= bound


class TestSubstitution:
    @given(polys(max_w=2), polys(max_w=2), polys(max_terms=3, max_each=1))
    def test_substitute_w_additive_multiplicative(self, p1, p2, raw):
        target = raw - Poly.constant(raw.constant_term(), N)
        add = (p1 + p2).substitute_w(target)
        assert add == p1.substitute_w(target) + p2.substitute_w(target)
        mul = (p1 * p2).substitute_w(target)
        assert mul == p1.substitute_w(target) * p2.substitute_w(target)


class TestCRFields:
    @given(quadrics(), polys(max_terms=3, max_each=1), polys(max_terms=3, max_each=1))
    def test_leibniz(self, q, f, g):
        field = cr_field(quadric_model(q), 1, 2)
        left = field.apply(f * g)
        right = field.apply(f) * g + f * field.apply(g)
        assert left == right

    @given(quadrics(), holomorphic_polys())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_restriction_is_cr(self, q, F):
        m = quadric_model(q)
        f = F.substitute_w(m.rho())
        assert is_cr(m, f).holds


def invertible_matrices():
    return matrices().filter(
        lambda T: T[0][0] * T[1][1] - T[0][1] * T[1][0] != 0
    )


class TestInvariance:
    @given(quadrics(), invertible_matrices())
    @settings(deadline=None)
    def test_rank_under_linear_maps(self, q, T):
        assert rank_condition(transform(q, T)) == rank_condition(q)


class TestExtension:
    @given(holomorphic_polys(max_terms=3, max_each=1, max_w=2))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_recovers_unique_extension(self, F):
        q = Quadric(N, B=[[1, 0], [0, 1]])
        f = F.substitute_w(q.q_poly())
        ext = extend_polynomial(q, f)
        assert ext.F == F
        assert ext.unique

    @given(holomorphic_polys(max_terms=2, max_each=1, max_w=1))
    @settings(max_examples=15, deadline=None)
    def test_formal_orders_agree_on_overlap(self, F):
        m = Manifold(
            Quadric(N, A=[[0, 1], [0, 0]]), E=parse_poly("zb2^3", N)
        )
        f = F.substitute_w(m.rho())
        low = formal_extend(m, f, 6)
        high = formal_extend(m, f, 8)
        assert weighted_head(low.F, 6) == weighted_head(high.F, 6)
