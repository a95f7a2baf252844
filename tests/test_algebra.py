"""Exact arithmetic: Gaussian rationals, monomials, sparse polynomials."""

from fractions import Fraction

import pytest

from crsing import (
    GaussRational,
    I,
    Monomial,
    ONE,
    Poly,
    ZERO,
    as_gauss,
    gauss_sqrt,
    rational_sqrt,
)
from crsing.errors import (
    ConstantTermInSubstitution,
    DimensionMismatch,
    UnknownVariable,
    WVariablePresent,
)


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


class TestGaussRational:
    def test_field_arithmetic(self):
        a = g("1/2", "3/4")
        b = g(-2, 1)
        assert a + b == g("-3/2", "7/4")
        assert a - b == g("5/2", "-1/4")
        assert a * b == GaussRational(Fraction(-7, 4), Fraction(-1))
        assert (a / b) * b == a
        assert -a == g("-1/2", "-3/4")

    def test_mixed_coercion(self):
        a = g(1, 1)
        assert a + 1 == g(2, 1)
        assert 1 + a == g(2, 1)
        assert 2 * a == g(2, 2)
        assert a - Fraction(1, 2) == g("1/2", 1)
        assert Fraction(3, 2) - a == g("1/2", -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_conjugate_and_modulus(self):
        a = g(3, -4)
        assert a.conjugate() == g(3, 4)
        assert a.abs2() == Fraction(25)
        assert (a * a.conjugate()).is_real

    def test_truthiness_and_hash(self):
        assert not ZERO
        assert I
        assert len({g(1, 2), g(1, 2), g(2, 1)}) == 2

    def test_str_forms(self):
        assert str(g("1/2", "3/4")) == "1/2+3/4i"
        assert str(g("1/2", "-3/4")) == "1/2-3/4i"
        assert str(I) == "i"
        assert str(-I) == "-i"
        assert str(g(0, "2/3")) == "2/3i"
        assert str(g(-2)) == "-2"
        assert str(ZERO) == "0"

    def test_as_gauss(self):
        assert as_gauss(3) == g(3)
        assert as_gauss(Fraction(1, 3)) == g("1/3")
        assert as_gauss(I) is I


class TestSquareRoots:
    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(49)) == 7
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(2)) is None
        with pytest.raises(ValueError):
            rational_sqrt(Fraction(-1))

    def test_gauss_sqrt_known_values(self):
        assert gauss_sqrt(g("9/4")) == g("3/2")
        assert gauss_sqrt(g(-4)) == g(0, 2)
        assert gauss_sqrt(g(3, 4)) == g(2, 1)
        assert gauss_sqrt(g(0, 2)) == g(1, 1)

    def test_gauss_sqrt_non_squares(self):
        assert gauss_sqrt(g(2)) is None
        assert gauss_sqrt(I) is None
        assert gauss_sqrt(g(1, 1)) is None

    def test_gauss_sqrt_squares_back(self):
        for re_n in range(-3, 4):
            for im_n in range(-3, 4):
                x = g(re_n, Fraction(im_n, 2))
                y = x * x
                root = gauss_sqrt(y)
                assert root is not None
                assert root * root == y


class TestMonomial:
    def test_degrees(self):
        m = Monomial((1, 0), (0, 2), 1)
        assert m.total_degree() == 4
        assert m.weighted_degree() == 5  # w counts twice
        assert Monomial.unit(2).total_degree() == 0

    def test_mul(self):
        a = Monomial((1, 0), (0, 1), 0)
        b = Monomial((0, 2), (1, 0), 1)
        assert a.mul(b) == Monomial((1, 2), (1, 1), 1)

    def test_of_var(self):
        assert Monomial.of_var("z", 2, 2) == Monomial((0, 1), (0, 0), 0)
        assert Monomial.of_var("zb", 1, 2) == Monomial((0, 0), (1, 0), 0)
        assert Monomial.of_var("w", 0, 2) == Monomial((0, 0), (0, 0), 1)


class TestPoly:
    def test_ring_operations(self):
        z1 = Poly.variable("z1", 2)
        zb2 = Poly.variable("zb2", 2)
        p = (z1 + zb2) * (z1 - zb2)
        assert p == z1 * z1 - zb2 * zb2
        assert (z1 + 1) ** 3 == z1**3 + 3 * z1**2 + 3 * z1 + 1
        assert p - p == Poly.zero(2)
        assert Poly.zero(2).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Poly.variable("z1", 2) + Poly.variable("z1", 3)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            Poly.variable("x1", 2)

    def test_degree_and_order(self):
        z1 = Poly.variable("z1", 2)
        w = Poly.variable("w", 2)
        p = z1**3 + w
        assert p.total_degree() == 3
        assert p.order() == 1
        assert Poly.zero(2).order() is None
        assert Poly.zero(2).total_degree() is None

    def test_coefficient_lookup(self):
        p = 3 * Poly.variable("z1", 2) * Poly.variable("zb2", 2)
        mono = Monomial((1, 0), (0, 1), 0)
        assert p.coefficient(mono) == as_gauss(3)
        assert p.coefficient(Monomial.unit(2)) == ZERO
        assert (p + 5).constant_term() == as_gauss(5)

    def test_differentiate(self):
        z1 = Poly.variable("z1", 2)
        zb1 = Poly.variable("zb1", 2)
        p = z1**2 * zb1 + zb1**3
        assert p.differentiate("z1") == 2 * z1 * zb1
        assert p.differentiate("zb1") == z1**2 + 3 * zb1**2
        assert p.differentiate("zb2").is_zero

    def test_conjugate(self):
        z1 = Poly.variable("z1", 2)
        zb2 = Poly.variable("zb2", 2)
        p = I * z1 * zb2 + 2
        # conjugation swaps z and zbar and conjugates coefficients
        zb1 = Poly.variable("zb1", 2)
        z2 = Poly.variable("z2", 2)
        assert p.conjugate() == -I * zb1 * z2 + 2
        assert p.conjugate().conjugate() == p
        with pytest.raises(WVariablePresent):
            Poly.variable("w", 2).conjugate()

    def test_homogeneous_parts(self):
        z1 = Poly.variable("z1", 2)
        w = Poly.variable("w", 2)
        p = z1**3 + z1 * w + 2
        assert p.homogeneous_part(2) == z1 * w
        assert sum((part for _, part in p.homogeneous_parts()), Poly.zero(2)) == p

    def test_expansion_degree_filter(self):
        # (zb1 z2 + zb2^3)^2 spreads over degrees 4..6; only zb2^6 is pure
        # degree six
        zb1 = Poly.variable("zb1", 2)
        z2 = Poly.variable("z2", 2)
        zb2 = Poly.variable("zb2", 2)
        p = (zb1 * z2 + zb2**3) ** 2
        assert p.homogeneous_part(6) == zb2**6

    def test_truncate(self):
        z1 = Poly.variable("z1", 2)
        w = Poly.variable("w", 2)
        p = z1**3 + z1 * w + 2
        assert p.truncate(2) == z1 * w + 2
        assert p.truncate(0) == Poly.constant(2, 2)

    def test_substitute_w(self):
        z1 = Poly.variable("z1", 2)
        zb1 = Poly.variable("zb1", 2)
        w = Poly.variable("w", 2)
        q = zb1 * z1
        p = w**2 + z1 * w + 3
        assert p.substitute_w(q) == q * q + z1 * q + 3
        with pytest.raises(ConstantTermInSubstitution):
            p.substitute_w(q + 1)
        with pytest.raises(WVariablePresent):
            p.substitute_w(w)

    def test_substitute_vars(self):
        z1 = Poly.variable("z1", 2)
        zb2 = Poly.variable("zb2", 2)
        p = z1 * zb2
        # z1 -> z1 + z2, zb2 -> zb1 in a 2-variable target ring
        images_z = [Poly.variable("z1", 2) + Poly.variable("z2", 2), Poly.variable("z2", 2)]
        images_zb = [Poly.variable("zb1", 2), Poly.variable("zb1", 2)]
        out = p.substitute_vars(images_z, images_zb)
        zb1 = Poly.variable("zb1", 2)
        assert out == (z1 + Poly.variable("z2", 2)) * zb1

    def test_is_w_free(self):
        assert Poly.variable("z1", 2).is_w_free
        assert not Poly.variable("w", 2).is_w_free
