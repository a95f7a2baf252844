"""Polynomial solvability of the first-order ODEs behind the rank-one cases.

Three families of equations for an unknown zeta(eta) appear, distinguished
by the right-hand side R(eta):

    case a:  (p + q eta) zeta = (r + s eta) zeta',            s != 0
    case b:  (p + q eta) zeta = (r + s eta + t eta^2) zeta',  t != 0, distinct roots
    case c:  (p + q eta) zeta = t (eta - xi)^2 zeta',         t != 0

decide(case, params) is the one entry point for all three.  R is read
from one coefficient triple, rhs_coeffs(case, params) = (r0, r1, r2); for
case c that is (t xi^2, -2 t xi, t).  decide classifies the solution space
exactly over the Gaussian rationals:

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
up to a degree bound directly serves as an independent cross-check: it
reads the same triple but none of the criteria above.
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


def _eta_poly(coeffs) -> Poly:
    """sum coeffs[i] eta^i, with z1 playing the role of eta."""
    return Poly(1, {Monomial((i,), (0,), 0): c for i, c in enumerate(coeffs)})


def rhs_coeffs(case: str, params: ODEParams):
    """(r0, r1, r2) with R(eta) = r0 + r1 eta + r2 eta^2 for the case."""
    if case == "a":
        return as_gauss(params.r), as_gauss(params.s), ZERO
    if case == "b":
        return as_gauss(params.r), as_gauss(params.s), as_gauss(params.t)
    if case == "c":
        t, xi = as_gauss(params.t), as_gauss(params.xi)
        return t * xi * xi, -2 * t * xi, t
    raise ValueError("case must be one of %r" % (CASES,))


def _residual(p, q, rhs, zeta: Poly) -> Poly:
    return _eta_poly((p, q)) * zeta - _eta_poly(rhs) * zeta.differentiate("z1")


def ode_residual(case: str, params: ODEParams, zeta: Poly) -> Poly:
    """(p + q eta) zeta - R(eta) zeta', exactly."""
    p, q = as_gauss(params.p), as_gauss(params.q)
    return _residual(p, q, rhs_coeffs(case, params), zeta)


def _as_nonneg_int(x: GaussRational) -> Optional[int]:
    k = gauss_as_int(x)
    if k is None or k < 0:
        return None
    return k


def _witness(case: str, p, q, rhs, disc) -> Optional[Poly]:
    """The witness named in the module docstring for the case, or None when
    no nonconstant polynomial solves the equation."""
    r0, r1, r2 = rhs
    if case == "a":
        m = None if q else _as_nonneg_int(p / r1)
        return _eta_poly(rhs) ** m if m else None
    if case == "c":
        xi = -r1 / (2 * r2)
        m = _as_nonneg_int(q / r2)
        return _eta_poly((-xi, ONE)) ** m if m and not (q * xi + p) else None
    root = gauss_sqrt(disc)
    if root is not None:
        xi1 = (-r1 + root) / (2 * r2)
        xi2 = (-r1 - root) / (2 * r2)
        m1 = _as_nonneg_int((q * xi1 + p) / (r2 * (xi1 - xi2)))
        m2 = _as_nonneg_int((q * xi2 + p) / (r2 * (xi2 - xi1)))
        if m1 is None or m2 is None or m1 + m2 < 1:
            return None
        return _eta_poly((-xi1, ONE)) ** m1 * _eta_poly((-xi2, ONE)) ** m2
    # irrational roots: integer exponents must coincide, e1 = e2 = (q/t)/2
    half = q / r2 / 2
    e_prod = -(q * q * r0 - p * q * r1 + p * p * r2) / (r2 * disc)
    m = _as_nonneg_int(half)
    if not m or half * half != e_prod:
        return None
    return _eta_poly((r0 / r2, r1 / r2, ONE)) ** m


def decide(case: str, params: ODEParams) -> ODEDecision:
    """Classify the polynomial solutions of the case's equation exactly.

    Rejects, in this order and with ValueError, an unknown case, s = 0 in
    case a, t = 0 in cases b and c, a missing xi in case c, and a double
    root of R in case b.  A witness is returned only after ode_residual has
    been checked to vanish on it; a nonzero residual is an internal fault
    and raises RuntimeError."""
    if case not in CASES:
        raise ValueError("case must be one of %r" % (CASES,))
    p, q = as_gauss(params.p), as_gauss(params.q)
    if case == "a" and not as_gauss(params.s):
        raise ValueError("case a requires s != 0")
    if case != "a" and not as_gauss(params.t):
        raise ValueError("case %s requires t != 0" % case)
    if case == "c" and params.xi is None:
        raise ValueError("case c needs xi (the double root)")
    rhs = r0, r1, r2 = rhs_coeffs(case, params)
    disc = r1 * r1 - 4 * r0 * r2
    if case == "b" and not disc:
        raise ValueError("case b requires distinct roots; use case c")
    if not p and not q:
        return ODEDecision(Verdict.CONSTANT_ONLY)
    witness = _witness(case, p, q, rhs, disc)
    if witness is None:
        return ODEDecision(Verdict.NO_NONZERO)
    if not _residual(p, q, rhs, witness).is_zero:
        raise RuntimeError("internal witness verification failed")
    return ODEDecision(Verdict.NONCONSTANT_POLY, witness)


def brute_force_ode(case: str, params: ODEParams, D: int) -> ODEDecision:
    """Decide by solving for the coefficients of zeta up to degree D.

    With R = r0 + r1 eta + r2 eta^2, the residual of eta^m is
    -m r0 eta^(m-1) + (p - m r1) eta^m + (q - m r2) eta^(m+1), so the linear
    system for zeta = sum c_m eta^m, m <= D, is tridiagonal and is written
    down entry by entry; its kernel is then classified.  Used as an oracle
    against the closed-form criteria, so it shares no criterion with
    decide."""
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    r0, r1, r2 = rhs_coeffs(case, params)
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
        return ODEDecision(Verdict.NONCONSTANT_POLY, _eta_poly(best))
    return ODEDecision(Verdict.CONSTANT_ONLY)
