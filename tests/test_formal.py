"""Order-by-order extension on manifolds with higher-order terms."""

import pytest

from crsing import (
    Manifold,
    ONE,
    Poly,
    Quadric,
    ZERO,
    formal_extend,
    parse_poly,
)
from crsing.errors import (
    DegenerateQuadric,
    NoExtension,
    NotCR,
    WVariablePresent,
)


def cubic_manifold() -> Manifold:
    # w = zb1 z2 + zb2^3, the rank-one quadric repaired by a cubic term
    return Manifold(
        Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]]), parse_poly("zb2^3", 2)
    )


def diag_manifold() -> Manifold:
    return Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))


class TestFormalExtend:
    def test_recovers_defining_function(self):
        m = cubic_manifold()
        res = formal_extend(m, m.rho(), 8)
        assert res.F == parse_poly("w", 2)
        assert res.residual.is_zero
        assert res.residual_order is None
        assert res.certified

    def test_roundtrip_restriction(self):
        m = cubic_manifold()
        F = parse_poly("z1^2*w + 3*z2 - w^3", 2)
        f = F.substitute_w(m.rho())
        res = formal_extend(m, f, 8)
        assert res.F == F
        assert res.certified

    def test_truncation_keeps_low_order_terms_stable(self):
        m = cubic_manifold()
        F = parse_poly("z2*w + z1^3", 2)
        f = F.substitute_w(m.rho())
        small = formal_extend(m, f, 6)
        large = formal_extend(m, f, 10)
        # compare the terms of weighted degree <= 6 (w counts twice)
        def head(F):
            return Poly(2, {m: c for m, c in F.terms.items() if m.weighted_degree() <= 6})

        assert head(small.F) == head(large.F)

    def test_constant_part_passes_through(self):
        m = diag_manifold()
        res = formal_extend(m, parse_poly("5 + z1*zb1 + z2*zb2", 2), 8)
        assert res.F == parse_poly("5 + w", 2)
        assert res.residual.is_zero

    def test_not_cr_on_manifold_reports_lowest_degree(self):
        m = cubic_manifold()
        with pytest.raises(NotCR) as exc:
            formal_extend(m, parse_poly("zb1", 2), 8)
        assert exc.value.degree == 1

    def test_not_cr_higher_jet(self):
        m = cubic_manifold()
        with pytest.raises(NotCR) as exc:
            formal_extend(m, parse_poly("z1 + zb2^2", 2), 8)
        assert exc.value.degree == 2

    def test_cr_through_order_suffices(self):
        # L f is nonzero only in degree 10, beyond the truncation order 8
        f = parse_poly("z1*zb1 + z2*zb2 + z1^5*zb1^5", 2)
        res = formal_extend(diag_manifold(), f, 8)
        assert res.F == parse_poly("w", 2)
        assert res.residual_order == 10
        assert res.certified
        with pytest.raises(NotCR) as exc:
            formal_extend(diag_manifold(), f, 10)
        assert exc.value.degree == 10

    def test_cr_on_quadric_but_no_extension(self):
        # on the bare rank-one quadric zb1 is CR yet cannot be matched
        m = Manifold(Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]]))
        with pytest.raises(NoExtension) as exc:
            formal_extend(m, parse_poly("zb1", 2), 8)
        assert exc.value.degree == 1

    def test_degenerate_quadric_rejected(self):
        m = Manifold(Quadric(2), parse_poly("z1^3 + zb1^3", 2))
        with pytest.raises(DegenerateQuadric):
            formal_extend(m, parse_poly("z1", 2), 8)

    def test_rank_gate_optional(self):
        # stacked rank one: restrictions still extend, with no rank gate
        m = cubic_manifold()
        assert formal_extend(m, m.rho(), 8).certified

    def test_rejects_w_in_input(self):
        with pytest.raises(WVariablePresent):
            formal_extend(diag_manifold(), parse_poly("w", 2), 8)

    def test_zero_input(self):
        res = formal_extend(diag_manifold(), Poly.zero(2), 8)
        assert res.F.is_zero
        assert res.residual_order is None


class TestUniqueness:
    def test_rank_two_unique(self):
        m = diag_manifold()
        f = parse_poly("z1*zb1 + z2*zb2", 2)
        assert formal_extend(m, f, 8).unique
