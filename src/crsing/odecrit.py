"""Polynomial solvability of the first-order ODEs behind the rank-one cases.

Three families of equations for an unknown zeta(eta) appear, distinguished
by the right-hand side R(eta):

    case a:  (p + q eta) zeta = (r + s eta) zeta',            s != 0
    case b:  (p + q eta) zeta = (r + s eta + t eta^2) zeta',  t != 0, distinct roots
    case c:  (p + q eta) zeta = t (eta - xi)^2 zeta',         t != 0

The decision procedures classify the solution space exactly over the
Gaussian rationals:

    a: a nonconstant polynomial solution exists iff q = 0 and p/s is a
       positive integer; witness (s eta + r)^(p/s).  Nonzero constants solve
       the equation iff p = q = 0.
    b: with xi1, xi2 the roots of R, set e1 = (q xi1 + p)/(t (xi1 - xi2))
       and e2 = (q xi2 + p)/(t (xi2 - xi1)).  A nonconstant polynomial
       solution exists iff e1 and e2 are nonnegative integers, at least one
       positive; witness (eta - xi1)^e1 (eta - xi2)^e2.  Constants solve it
       iff p = q = 0.
    c: a nonconstant polynomial solution exists iff q/t is a positive
       integer and q xi + p = 0; witness (eta - xi)^(q/t).  Constants solve
       it iff p = q = 0.

Case b avoids irrational root arithmetic: e1 + e2 = q/t and e1 e2 are
symmetric functions with Gaussian rational values, so the pair is recovered
from a monic quadratic solved by an exact perfect-square test.  When the
discriminant of R is not a square, integer e1, e2 force e1 = e2 and the
witness is a power of R/t itself.

Witnesses are returned as Poly objects of dimension 1 with z1 playing the
role of eta, and are verified by exact substitution before being returned.
A brute-force decision procedure that solves for the coefficients of zeta
up to a degree bound directly serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from . import linalg
from .algebra import (
    GaussRational,
    Monomial,
    ONE,
    Poly,
    ZERO,
    as_gauss,
    gauss_as_int,
    gauss_sqrt,
)


class Verdict(Enum):
    NO_NONZERO = "no_nonzero"
    CONSTANT_ONLY = "constant_only"
    NONCONSTANT_POLY = "nonconstant_poly"


@dataclass
class ODEDecision:
    verdict: Verdict
    witness: Optional[Poly] = None  # nonconstant polynomial solution


CASES = ("a", "b", "c")


@dataclass(frozen=True)
class ODEParams:
    """Coefficient tuple; xi is only meaningful for case c."""

    p: GaussRational
    q: GaussRational
    r: GaussRational = ZERO
    s: GaussRational = ZERO
    t: GaussRational = ZERO
    xi: Optional[GaussRational] = None


def eta() -> Poly:
    return Poly.variable("z1", 1)


def _const(c) -> Poly:
    return Poly.constant(as_gauss(c), 1)


def rhs_poly(case: str, params: ODEParams) -> Poly:
    x = eta()
    if case == "a":
        return _const(params.r) + _const(params.s) * x
    if case == "b":
        return _const(params.r) + _const(params.s) * x + _const(params.t) * x * x
    if case == "c":
        shifted = x - _const(params.xi)
        return _const(params.t) * shifted * shifted
    raise ValueError("case must be one of %r" % (CASES,))


def ode_residual(case: str, params: ODEParams, zeta: Poly) -> Poly:
    """(p + q eta) zeta - R(eta) zeta', exactly."""
    x = eta()
    lhs = (_const(params.p) + _const(params.q) * x) * zeta
    return lhs - rhs_poly(case, params) * zeta.differentiate("z1")


def _checked(case: str, params: ODEParams, witness: Poly) -> ODEDecision:
    if not ode_residual(case, params, witness).is_zero:
        raise RuntimeError("internal witness verification failed")
    return ODEDecision(Verdict.NONCONSTANT_POLY, witness)


def _as_nonneg_int(x: GaussRational) -> Optional[int]:
    k = gauss_as_int(x)
    if k is None or k < 0:
        return None
    return k


def decide_case_a(p, q, r, s) -> ODEDecision:
    p, q, r, s = as_gauss(p), as_gauss(q), as_gauss(r), as_gauss(s)
    if not s:
        raise ValueError("case a requires s != 0")
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    if not q:
        m = _as_nonneg_int(p / s)
        if m is not None and m >= 1:
            witness = (_const(s) * eta() + _const(r)) ** m
            return _checked("a", ODEParams(p, q, r, s), witness)
    return ODEDecision(Verdict.NO_NONZERO)


def decide_case_b(p, q, r, s, t) -> ODEDecision:
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
            x = eta()
            witness = (x - _const(xi1)) ** m1 * (x - _const(xi2)) ** m2
            return _checked("b", params, witness)
        return ODEDecision(Verdict.NO_NONZERO)
    # irrational roots: integer exponents must coincide, e1 = e2 = (q/t)/2
    e_sum = q / t
    e_prod = -(q * q * r - p * q * s + p * p * t) / (t * disc)
    half = e_sum / 2
    m = _as_nonneg_int(half)
    if m is not None and m >= 1 and half * half == e_prod:
        witness = (rhs_poly("b", params) * (ONE / t)) ** m
        return _checked("b", params, witness)
    return ODEDecision(Verdict.NO_NONZERO)


def decide_case_c(p, q, t, xi) -> ODEDecision:
    p, q, t, xi = as_gauss(p), as_gauss(q), as_gauss(t), as_gauss(xi)
    if not t:
        raise ValueError("case c requires t != 0")
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    m = _as_nonneg_int(q / t)
    if m is not None and m >= 1 and not (q * xi + p):
        witness = (eta() - _const(xi)) ** m
        return _checked("c", ODEParams(p, q, t=t, xi=xi), witness)
    return ODEDecision(Verdict.NO_NONZERO)


def decide(case: str, params: ODEParams) -> ODEDecision:
    if case == "a":
        return decide_case_a(params.p, params.q, params.r, params.s)
    if case == "b":
        return decide_case_b(params.p, params.q, params.r, params.s, params.t)
    if case == "c":
        return decide_case_c(params.p, params.q, params.t, params.xi)
    raise ValueError("case must be one of %r" % (CASES,))


def brute_force_ode(case: str, params: ODEParams, D: int) -> ODEDecision:
    """Decide by solving for the coefficients of zeta up to degree D.

    With R = r0 + r1 eta + r2 eta^2, the residual of eta^m is
    -m r0 eta^(m-1) + (p - m r1) eta^m + (q - m r2) eta^(m+1), so the linear
    system for zeta = sum c_m eta^m, m <= D, is tridiagonal and is written
    down entry by entry; its kernel is then classified.  Used as an oracle
    against the closed-form criteria, so it shares nothing with decide."""
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    R = rhs_poly(case, params)
    r0, r1, r2 = (R.coefficient(Monomial((i,), (0,), 0)) for i in range(3))
    p, q = as_gauss(params.p), as_gauss(params.q)
    rows: List[dict] = [dict() for _ in range(D + 2)]
    for m in range(D + 1):
        # column m is the residual of eta^m; for m = 0 there is no row -1
        for row, c in ((m - 1, -m * r0), (m, p - m * r1), (m + 1, q - m * r2)):
            if c and row >= 0:
                rows[row][m] = c
    kernel = linalg.nullspace_sparse(rows, D + 1)
    if not kernel:
        return ODEDecision(Verdict.NO_NONZERO)
    best = None
    best_deg = -1
    for vec in kernel:
        deg = max((i for i, c in enumerate(vec) if c), default=0)
        if deg > best_deg:
            best_deg = deg
            best = vec
    if best_deg >= 1:
        witness = Poly(1, {Monomial((i,), (0,), 0): c for i, c in enumerate(best)})
        return ODEDecision(Verdict.NONCONSTANT_POLY, witness)
    return ODEDecision(Verdict.CONSTANT_ONLY)
