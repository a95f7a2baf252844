"""Closed-form solvability of the model first-order ODEs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsing import (
    ONE,
    GaussRational,
    ODEDecision,
    ODEParams,
    Poly,
    Verdict,
    brute_force_ode,
    decide,
    format_poly,
    ode_residual,
)
from crsing.algebra import as_gauss, gauss_as_int, gauss_sqrt
from crsing.odecrit import CASES


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def assert_witness(case, params, decision):
    assert decision.witness is not None
    assert ode_residual(case, params, decision.witness).is_zero
    assert decision.witness.total_degree() >= 1


class TestCaseA:
    def test_positive_integer_ratio_solves(self):
        # (p + q eta) zeta = (r + s eta) zeta' with q = 0 and p/s = 2
        params = ODEParams(p=g(2), q=g(0), r=g(1), s=g(1))
        decision = decide("a", params)
        assert decision.verdict is Verdict.NONCONSTANT_POLY
        assert_witness("a", params, decision)
        assert format_poly(decision.witness) == "1 + 2*z1 + z1^2"

    def test_negative_ratio_has_no_solution(self):
        for p, s in ((1, -2), (1, -3)):
            decision = decide("a", ODEParams(p=g(p), q=g(0), r=g(3), s=g(s)))
            assert decision.verdict is Verdict.NO_NONZERO

    def test_nonzero_q_blocks_polynomials(self):
        decision = decide("a", ODEParams(p=g(1), q=g(1), r=g(0), s=g(1)))
        assert decision.verdict is Verdict.NO_NONZERO

    def test_constant_only(self):
        decision = decide("a", ODEParams(p=g(0), q=g(0), r=g(5), s=g(1)))
        assert decision.verdict is Verdict.CONSTANT_ONLY
        assert decision.witness is None

    def test_requires_nonzero_s(self):
        with pytest.raises(ValueError):
            decide("a", ODEParams(p=g(1), q=g(0), r=g(1), s=g(0)))


class TestCaseB:
    def test_rational_roots_with_integer_exponents(self):
        # roots 0 and 1, exponents 1 and 2: R = t eta (eta - 1)
        params = ODEParams(p=g(-1), q=g(3), r=g(0), s=g(-1), t=g(1))
        decision = decide("b", params)
        assert decision.verdict is Verdict.NONCONSTANT_POLY
        assert_witness("b", params, decision)

    def test_irrational_roots_equal_exponents(self):
        # eta^2 - 2 is irreducible over the rationals yet a solution exists
        params = ODEParams(p=g(0), q=g(2), r=g(-2), s=g(0), t=g(1))
        decision = decide("b", params)
        assert decision.verdict is Verdict.NONCONSTANT_POLY
        assert format_poly(decision.witness) == "-2 + z1^2"

    def test_irrational_roots_usually_fail(self):
        params = ODEParams(p=g(1), q=g(2), r=g(-2), s=g(0), t=g(1))
        decision = decide("b", params)
        assert decision.verdict is Verdict.NO_NONZERO

    def test_negative_exponents_fail(self):
        # roots 0, 1 but the induced exponents are not both nonnegative
        params = ODEParams(p=g(1), q=g(-3), r=g(0), s=g(-1), t=g(1))
        decision = decide("b", params)
        assert decision.verdict is Verdict.NO_NONZERO

    def test_gaussian_roots(self):
        # roots +-i with exponent one each: zeta = eta^2 + 1
        params = ODEParams(p=g(0), q=g(2), r=g(1), s=g(0), t=g(1))
        decision = decide("b", params)
        assert decision.verdict is Verdict.NONCONSTANT_POLY
        assert format_poly(decision.witness) == "1 + z1^2"

    def test_rejects_double_root(self):
        with pytest.raises(ValueError):
            decide("b", ODEParams(p=g(1), q=g(1), r=g(1), s=g(-2), t=g(1)))

    def test_requires_nonzero_t(self):
        with pytest.raises(ValueError):
            decide("b", ODEParams(p=g(1), q=g(1), r=g(1), s=g(1), t=g(0)))


class TestCaseC:
    def test_integer_multiplicity_with_matching_p(self):
        # R = t (eta - xi)^2; solvable when q/t is a positive integer and
        # p + q xi = 0
        params = ODEParams(p=g(-2), q=g(2), t=g(1), xi=g(1))
        decision = decide("c", params)
        assert decision.verdict is Verdict.NONCONSTANT_POLY
        assert format_poly(decision.witness) == "1 - 2*z1 + z1^2"

    def test_mismatched_p_fails(self):
        decision = decide("c", ODEParams(p=g(1), q=g(2), t=g(1), xi=g(1)))
        assert decision.verdict is Verdict.NO_NONZERO

    def test_constant_only(self):
        decision = decide("c", ODEParams(p=g(0), q=g(0), t=g(1), xi=g(1)))
        assert decision.verdict is Verdict.CONSTANT_ONLY

    def test_requires_xi(self):
        with pytest.raises(ValueError, match=r"^case c needs xi \(the double root\)$"):
            decide("c", ODEParams(p=g(1), q=g(2), t=g(1)))
        # the t != 0 check still comes first
        with pytest.raises(ValueError, match="requires t != 0"):
            decide("c", ODEParams(p=g(1), q=g(2)))


class TestBruteForce:
    def test_agrees_on_known_instances(self):
        cases = [
            ("a", ODEParams(p=g(2), q=g(0), r=g(1), s=g(1))),
            ("a", ODEParams(p=g(1), q=g(0), r=g(3), s=g(-2))),
            ("b", ODEParams(p=g(0), q=g(2), r=g(-2), s=g(0), t=g(1))),
            ("c", ODEParams(p=g(-2), q=g(2), t=g(1), xi=g(1))),
        ]
        for case, params in cases:
            decision = decide(case, params)
            brute = brute_force_ode(case, params, 12)
            assert brute.verdict == decision.verdict
            if brute.witness is not None:
                assert ode_residual(case, params, brute.witness).is_zero

    def test_dispatcher_validates_case(self):
        with pytest.raises(ValueError):
            decide("d", ODEParams(p=g(1), q=g(1)))


# -- decide against the three per-case deciders it replaced ---------------
#
# The oracle below is the earlier per-case code, kept verbatim apart from
# a leading underscore on each name, with its own R(eta) built from Poly
# products and its own witness check.

def _eta():
    return Poly.variable("z1", 1)


def _const(c):
    return Poly.constant(as_gauss(c), 1)


def _rhs_poly(case, params):
    x = _eta()
    if case == "a":
        return _const(params.r) + _const(params.s) * x
    if case == "b":
        return _const(params.r) + _const(params.s) * x + _const(params.t) * x * x
    if case == "c":
        shifted = x - _const(params.xi)
        return _const(params.t) * shifted * shifted
    raise ValueError("case must be one of %r" % (CASES,))


def _ode_residual(case, params, zeta):
    x = _eta()
    lhs = (_const(params.p) + _const(params.q) * x) * zeta
    return lhs - _rhs_poly(case, params) * zeta.differentiate("z1")


def _checked(case, params, witness):
    if not _ode_residual(case, params, witness).is_zero:
        raise RuntimeError("internal witness verification failed")
    return ODEDecision(Verdict.NONCONSTANT_POLY, witness)


def _as_nonneg_int(x):
    k = gauss_as_int(x)
    if k is None or k < 0:
        return None
    return k


def _decide_case_a(p, q, r, s):
    p, q, r, s = as_gauss(p), as_gauss(q), as_gauss(r), as_gauss(s)
    if not s:
        raise ValueError("case a requires s != 0")
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    if not q:
        m = _as_nonneg_int(p / s)
        if m is not None and m >= 1:
            witness = (_const(s) * _eta() + _const(r)) ** m
            return _checked("a", ODEParams(p, q, r, s), witness)
    return ODEDecision(Verdict.NO_NONZERO)


def _decide_case_b(p, q, r, s, t):
    p, q, r, s, t = (as_gauss(v) for v in (p, q, r, s, t))
    if not t:
        raise ValueError("case b requires t != 0")
    disc = s * s - 4 * r * t
    if not disc:
        raise ValueError("case b requires distinct roots; use case c")
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    params = ODEParams(p, q, r, s, t)
    root = gauss_sqrt(disc)
    if root is not None:
        xi1 = (-s + root) / (2 * t)
        xi2 = (-s - root) / (2 * t)
        e1 = (q * xi1 + p) / (t * (xi1 - xi2))
        e2 = (q * xi2 + p) / (t * (xi2 - xi1))
        m1, m2 = _as_nonneg_int(e1), _as_nonneg_int(e2)
        if m1 is not None and m2 is not None and m1 + m2 >= 1:
            x = _eta()
            witness = (x - _const(xi1)) ** m1 * (x - _const(xi2)) ** m2
            return _checked("b", params, witness)
        return ODEDecision(Verdict.NO_NONZERO)
    # irrational roots: integer exponents must coincide, e1 = e2 = (q/t)/2
    e_sum = q / t
    e_prod = -(q * q * r - p * q * s + p * p * t) / (t * disc)
    half = e_sum / 2
    m = _as_nonneg_int(half)
    if m is not None and m >= 1 and half * half == e_prod:
        witness = (_rhs_poly("b", params) * (ONE / t)) ** m
        return _checked("b", params, witness)
    return ODEDecision(Verdict.NO_NONZERO)


def _decide_case_c(p, q, t, xi):
    p, q, t = as_gauss(p), as_gauss(q), as_gauss(t)
    if not t:
        raise ValueError("case c requires t != 0")
    if xi is None:
        raise ValueError("case c needs xi (the double root)")
    xi = as_gauss(xi)
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    m = _as_nonneg_int(q / t)
    if m is not None and m >= 1 and not (q * xi + p):
        witness = (_eta() - _const(xi)) ** m
        return _checked("c", ODEParams(p, q, t=t, xi=xi), witness)
    return ODEDecision(Verdict.NO_NONZERO)


def _decide(case, params):
    if case == "a":
        return _decide_case_a(params.p, params.q, params.r, params.s)
    if case == "b":
        return _decide_case_b(params.p, params.q, params.r, params.s, params.t)
    if case == "c":
        return _decide_case_c(params.p, params.q, params.t, params.xi)
    raise ValueError("case must be one of %r" % (CASES,))


def _outcome(fn, case, params):
    """(verdict, printed witness) or (exception type, message)."""
    try:
        d = fn(case, params)
    except (ValueError, TypeError) as e:
        return type(e).__name__, str(e)
    witness = None if d.witness is None else format_poly(d.witness)
    return d.verdict, witness


# ints, Fractions and GaussRationals; zero often, so that s = 0, t = 0 and
# p = q = 0 all occur
_VALUES = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2, 3, -4]),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.builds(
        GaussRational,
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
    ),
)


@st.composite
def _ode_inputs(draw):
    case = draw(st.sampled_from(("a", "b", "c") * 3 + ("d",)))
    p, q, r, s, t = (draw(_VALUES) for _ in range(5))
    xi = draw(st.one_of(st.none(), _VALUES))
    kind = draw(st.integers(0, 4))
    if kind == 2:
        p = q = 0
    elif kind == 0 and case == "b" and t:
        r = as_gauss(s) * as_gauss(s) / (4 * as_gauss(t))  # a double root
    elif kind == 1 and case == "a" and s:
        # q = 0 and p/s a small integer: nonconstant witnesses
        q, p = 0, as_gauss(s) * draw(st.integers(-2, 6))
    elif kind == 1 and case == "c" and t and xi is not None:
        q = as_gauss(t) * draw(st.integers(-1, 6))
        p = -q * as_gauss(xi)
    elif kind == 1 and case == "b" and t:
        # roots xi1 != xi2 and exponents e1, e2 >= 0, or an irreducible
        # quadratic with equal exponents
        e1, e2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        t = as_gauss(t)
        if draw(st.booleans()):
            xi1 = as_gauss(draw(_VALUES))
            xi2 = xi1 + as_gauss(draw(_VALUES.filter(bool)))
            s, r = -t * (xi1 + xi2), t * xi1 * xi2
            q = t * (e1 + e2)
            p = e1 * t * (xi1 - xi2) - q * xi1
        else:
            p, q, r, s = 0, 2 * e1 * t, -draw(st.sampled_from((2, 3, 5))) * t, 0
    return case, ODEParams(p=p, q=q, r=r, s=s, t=t, xi=xi)


class TestDecideDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_ode_inputs())
    def test_decide_matches_per_case_deciders(self, inputs):
        case, params = inputs
        assert _outcome(decide, case, params) == _outcome(_decide, case, params)

    def test_int_valued_params(self):
        # plain ints in every field, through each case's witness branch
        for case, params in (
            ("a", ODEParams(p=3, q=0, r=1, s=1)),
            ("b", ODEParams(p=-1, q=3, r=0, s=-1, t=1)),
            ("b", ODEParams(p=0, q=4, r=-3, s=0, t=1)),
            ("c", ODEParams(p=-4, q=2, t=1, xi=2)),
            ("c", ODEParams(p=0, q=0, t=1, xi=2)),
        ):
            got = _outcome(decide, case, params)
            assert got == _outcome(_decide, case, params)
            assert got[0] in (Verdict.NONCONSTANT_POLY, Verdict.CONSTANT_ONLY)
