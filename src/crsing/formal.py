"""Order-by-order formal extension on manifolds with higher-order terms.

With rho = Q + E, the lowest-degree part of a CR function is CR on the
quadric model and extends there; substituting the extension back and
subtracting strictly raises the order of the remainder.  Iterating up to a
truncation order N produces a polynomial F(z, w) with

    f - F(z, rho) = O(degree N + 1),

and for stacked rank at least two each step is uniquely determined, so the
result does not depend on N except for appending higher-order terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Poly
from .errors import DegenerateQuadric, NotCR, RequiresNGe2, WVariablePresent
from .extend import extend_homogeneous
from .manifold import Manifold, is_cr_through


@dataclass
class FormalExtension:
    """Result of the order-by-order construction."""

    F: Poly
    order: int  # requested truncation order N
    residual: Poly  # f - F(z, rho), exact
    residual_order: Optional[int]  # None when the residual is exactly zero
    unique: bool

    @property
    def certified(self) -> bool:
        """Whether f - F(z, rho) really has no terms of degree <= order."""
        return self.residual_order is None or self.residual_order > self.order


def formal_extend(m: Manifold, f: Poly, N: int = 8) -> FormalExtension:
    """Extend f through total degree N on the manifold w = Q + E.

    Quadrics without antiholomorphic part are rejected outright, and so
    are inputs that fail the CR equations on the manifold through degree
    N, tagged with the smallest degree whose jet already fails; terms of
    L f above degree N lie beyond the truncation and do not count.  The
    stacked rank is not checked: below two the construction is attempted
    and fails with NoExtension at the first homogeneous part that does not
    match, which for restrictions of holomorphic polynomials never happens.
    Callers that need rank two, such as flatten_from_first_integral, check
    it first.

    Each step is one extend_homogeneous call on the lowest part of the
    remainder, returned only with a zero exact residual on the quadric.
    That part is always CR on the quadric model: the remainder is f minus
    a restriction F(z, rho), which every CR field kills, so the fields of
    the manifold annihilate it through degree N; the lowest-degree part of
    that image is the quadric model's field applied to the lowest part.
    """
    if m.n < 2:
        raise RequiresNGe2("formal extension needs n >= 2")
    if not m.quadric.has_antiholomorphic_part:
        raise DegenerateQuadric("Q has no zbar part; CR gives no equations here")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if not f.is_w_free:
        raise WVariablePresent("f must be a function of z and zbar only")
    if not is_cr_through(m, f, N):
        # report the smallest k whose k-jet already fails on the manifold;
        # CR fields never lower degree, so some k <= N does
        for k in range(f.order(), N + 1):
            if not is_cr_through(m, f.truncate(k), N):
                raise NotCR(
                    "f fails the CR equations on the manifold at degree %d" % k,
                    degree=k,
                )
    rho = m.rho()
    F = Poly.zero(m.n)
    unique = True
    remainder = f
    last_k = -1
    while not remainder.is_zero:
        k = remainder.order()
        if k > N:
            break
        if k <= last_k:
            raise RuntimeError("remainder order failed to increase past %d" % last_k)
        last_k = k
        part = remainder.homogeneous_part(k)
        if k == 0:
            F = F + part
            remainder = remainder - part
            continue
        step = extend_homogeneous(m.quadric, part)
        unique = unique and step.unique
        F = F + step.F
        # only degrees <= N matter for the loop; the exact residual is
        # recomputed below
        remainder = (remainder - step.F.substitute_w(rho)).truncate(N)
    residual = f - F.substitute_w(rho)
    ro = residual.order()
    return FormalExtension(
        F=F, order=N, residual=residual, residual_order=ro, unique=unique
    )

