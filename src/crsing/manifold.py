"""Real submanifolds of the form w = rho(z, zbar) and their CR structure.

A quadric part is written with three n-by-n matrices:

    Q(z, zbar) = z* A z + conj(z^t B z) + z^t C z

where z* A z = sum over i, j of zb_i A_ij z_j, so A[0][1] = 1 produces the
term zb1*z2.  B and C are required to be symmetric.  A full manifold adds a
higher-order polynomial part E with every term of total degree at least
three, giving rho = Q + E.

CR structure away from the singular locus is spanned by the tangent fields

    L_{k,l} = rho_zb_l d/d_zb_k - rho_zb_k d/d_zb_l,   1 <= k < l <= n,

and a function f(z, zbar) is CR when every L_{k,l} annihilates it as a
polynomial identity.

Every CR computation of the package (is_cr, is_cr_through, the CR linear
space here and the CR equation matrix of extend.py) goes through one exact
kernel: zb_partials computes the n partials rho_zb_j once per call, and
cr_image applies L_{k,l} to a sparse term list by exponent arithmetic.
CRField and cr_field keep the plain polynomial form of each operator; the
tests use it as the reference for the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .algebra import GaussRational, Monomial, Poly, ZERO, as_gauss
from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    EOrderTooLow,
    IndexOutOfRange,
    RequiresNGe2,
    SingularTransform,
    WVariablePresent,
)


def _coerce_matrix(entries, n: int, label: str):
    if entries is None:
        return linalg.zeros(n)
    if len(entries) != n or any(len(row) != n for row in entries):
        raise DimensionMismatch("%s must be %d-by-%d" % (label, n, n))
    return [[as_gauss(x) for x in row] for row in entries]


def _is_symmetric(m) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


class Quadric:
    """The quadratic model w = Q(z, zbar) determined by matrices A, B, C.

    A, B and C must not be mutated once the quadric is in use: Q, its
    powers and the factorized matching systems of extend.py (kept in
    _matching, keyed by degree) are derived from them once and cached on
    the instance.  Equal but distinct quadrics share none of these caches.
    """

    __slots__ = ("n", "A", "B", "C", "_qpoly", "_qpowers", "_matching")

    def __init__(self, n: int, A=None, B=None, C=None):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        self.A = _coerce_matrix(A, n, "A")
        self.B = _coerce_matrix(B, n, "B")
        self.C = _coerce_matrix(C, n, "C")
        if not _is_symmetric(self.B):
            raise AsymmetricMatrix("B")
        if not _is_symmetric(self.C):
            raise AsymmetricMatrix("C")
        self._qpoly = None
        self._qpowers = None
        self._matching = {}

    def q_poly(self) -> Poly:
        """Q as a polynomial in z and zbar."""
        if self._qpoly is not None:
            return self._qpoly
        n = self.n
        terms = {}

        def put(mono, c):
            if not c:
                return
            acc = terms.get(mono, ZERO) + c
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]

        for i in range(n):
            for j in range(n):
                if self.A[i][j]:
                    z = tuple(1 if k == j else 0 for k in range(n))
                    zb = tuple(1 if k == i else 0 for k in range(n))
                    put(Monomial(z, zb, 0), self.A[i][j])
                if self.B[i][j]:
                    zb = tuple(
                        (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
                    )
                    put(Monomial((0,) * n, zb, 0), self.B[i][j].conjugate())
                if self.C[i][j]:
                    z = tuple(
                        (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
                    )
                    put(Monomial(z, (0,) * n, 0), self.C[i][j])
        self._qpoly = Poly(n, terms)
        return self._qpoly

    def q_powers(self, k: int) -> List[Poly]:
        """[Q^0, Q^1, ..., Q^k]; each power is computed once per quadric."""
        powers = self._qpowers
        if powers is None:
            powers = self._qpowers = [Poly.constant(1, self.n)]
        while len(powers) <= k:
            powers.append(powers[-1] * self.q_poly())
        return powers[: k + 1]

    def stacked(self):
        """The 2n-by-n matrix [A*; B] whose rank drives extendability."""
        return linalg.conj_transpose(self.A) + [list(row) for row in self.B]

    @property
    def has_antiholomorphic_part(self) -> bool:
        """Whether Q depends on zbar at all, i.e. A or B is nonzero."""
        return any(any(x for x in row) for row in self.A) or any(
            any(x for x in row) for row in self.B
        )

    def __eq__(self, other):
        if not isinstance(other, Quadric):
            return NotImplemented
        return (
            self.n == other.n
            and linalg.mat_eq(self.A, other.A)
            and linalg.mat_eq(self.B, other.B)
            and linalg.mat_eq(self.C, other.C)
        )

    __hash__ = None

    def __repr__(self):
        return "Quadric(n=%d, Q=%s)" % (self.n, self.q_poly())


class Manifold:
    """w = Q(z, zbar) + E(z, zbar) with E of order at least three."""

    __slots__ = ("quadric", "E", "_rho")

    def __init__(self, quadric: Quadric, E: Optional[Poly] = None):
        self.quadric = quadric
        if E is None:
            E = Poly.zero(quadric.n)
        if E.n != quadric.n:
            raise DimensionMismatch("E lives in dimension %d, quadric in %d" % (E.n, quadric.n))
        if not E.is_w_free:
            raise WVariablePresent("E must not contain w")
        order = E.order()
        if order is not None and order < 3:
            raise EOrderTooLow(
                "E has a term of total degree %d; all must be >= 3" % order
            )
        self.E = E
        self._rho = None

    @property
    def n(self) -> int:
        return self.quadric.n

    def rho(self) -> Poly:
        if self._rho is None:
            self._rho = self.quadric.q_poly() + self.E
        return self._rho

    def __eq__(self, other):
        if not isinstance(other, Manifold):
            return NotImplemented
        return self.quadric == other.quadric and self.E == other.E

    __hash__ = None

    def __repr__(self):
        return "Manifold(rho=%s)" % (self.rho(),)


def quadric_model(q: Quadric) -> Manifold:
    """The manifold with E = 0 over the given quadric."""
    return Manifold(q)


def rank_condition(q: Quadric) -> int:
    """Rank of the stacked matrix [A*; B].

    Rank at least two is the dividing line: every CR function on the quadric
    then extends holomorphically, and rank one or zero admits CR functions
    with no extension.
    """
    return linalg.rank(q.stacked())


def _require_n(n: int):
    if n < 2:
        raise RequiresNGe2("operation needs ambient dimension n >= 2")


@dataclass(frozen=True)
class CRField:
    """One tangential CR operator L_{k,l} with polynomial coefficients."""

    k: int
    l: int
    coeff_k: Poly  # multiplies d/d_zb_k
    coeff_l: Poly  # multiplies d/d_zb_l

    def apply(self, f: Poly) -> Poly:
        return self.coeff_k * f.differentiate("zb%d" % self.k) + self.coeff_l * f.differentiate("zb%d" % self.l)


def cr_field(m: Manifold, k: int, l: int) -> CRField:
    """The operator rho_zb_l d/d_zb_k - rho_zb_k d/d_zb_l."""
    _require_n(m.n)
    if not (1 <= k < l <= m.n):
        raise IndexOutOfRange("need 1 <= k < l <= %d, got (%d, %d)" % (m.n, k, l))
    rho = m.rho()
    return CRField(
        k=k,
        l=l,
        coeff_k=rho.differentiate("zb%d" % l),
        coeff_l=-rho.differentiate("zb%d" % k),
    )


def cr_fields(m: Manifold) -> List[CRField]:
    _require_n(m.n)
    return [cr_field(m, k, l) for k, l in cr_pairs(m.n)]


def cr_pairs(n: int) -> List[Tuple[int, int]]:
    """The index pairs (k, l), 1 <= k < l <= n, of the fields L_{k,l}."""
    return [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]


Terms = List[Tuple[Monomial, GaussRational]]


def zb_partials(rho: Poly) -> List[Terms]:
    """The partials rho_zb_1, ..., rho_zb_n, each as a list of (monomial,
    coefficient) terms.  Lowering one zbar exponent sends distinct
    monomials to distinct monomials, so no list repeats a monomial."""
    partials: List[Terms] = [[] for _ in range(rho.n)]
    for mono, c in rho.terms.items():
        zb = mono.zb
        for j, e in enumerate(zb):
            if e:
                lowered = zb[:j] + (e - 1,) + zb[j + 1 :]
                partials[j].append((Monomial(mono.z, lowered, mono.w), c * e))
    return partials


def cr_image(
    partials: List[Terms], k: int, l: int, terms
) -> Dict[Monomial, GaussRational]:
    """L_{k,l} applied to the polynomial with the given (monomial,
    coefficient) terms, as a dict of its nonzero terms.

    partials is zb_partials(rho).  A term c z^a zb^b maps to
    c b_k rho_zb_l z^a zb^(b - e_k) - c b_l rho_zb_k z^a zb^(b - e_l), so
    every output monomial is a lowered exponent plus the exponent of one
    term of a partial, and every output coefficient is c * e * pc: no
    polynomial is built and nothing is differentiated.  A coefficient c may
    be an int, as for the unit columns of the CR matrix; c * e then stays
    an int and scales pc without a full Gaussian product."""
    out: Dict[Monomial, GaussRational] = {}
    sides = ((k - 1, 1, partials[l - 1]), (l - 1, -1, partials[k - 1]))
    for mono, c in terms:
        z, zb, w = mono.z, mono.zb, mono.w
        for i, sign, partial in sides:
            e = zb[i]
            if not e or not partial:
                continue
            ce = c * (sign * e)
            lowered = zb[:i] + (e - 1,) + zb[i + 1 :]
            for pm, pc in partial:
                om = Monomial(
                    tuple(map(add, z, pm.z)), tuple(map(add, lowered, pm.zb)), w + pm.w
                )
                acc = out.get(om)
                out[om] = ce * pc if acc is None else acc + ce * pc
    return {om: c for om, c in out.items() if c}


@dataclass(frozen=True)
class CRCheck:
    """Outcome of testing the CR equations for one function."""

    holds: bool
    vacuous: bool  # all rho_zb_j vanish identically, so the test is empty
    failures: Tuple = ()  # ((k, l), residual) pairs for the failing fields

    def __bool__(self):
        return self.holds


def is_cr(m: Manifold, f: Poly) -> CRCheck:
    """Test L_{k,l} f == 0 for all pairs k < l, as exact polynomial
    identities in the independent variables z and zbar."""
    _require_n(m.n)
    if f.n != m.n:
        raise DimensionMismatch("f lives in dimension %d, manifold in %d" % (f.n, m.n))
    if not f.is_w_free:
        raise WVariablePresent("a CR function candidate must not contain w")
    partials = zb_partials(m.rho())
    failures = []
    for k, l in cr_pairs(m.n):
        image = cr_image(partials, k, l, f.terms.items())
        if image:
            failures.append(((k, l), Poly(m.n, image)))
    return CRCheck(
        holds=not failures, vacuous=not any(partials), failures=tuple(failures)
    )


def is_cr_through(m: Manifold, f: Poly, N: int) -> bool:
    """Whether every CR field applied to f vanishes through total degree N:
    the CR equations up to order N, the contract of formal extension."""
    if f.n != m.n:
        raise DimensionMismatch("f lives in dimension %d, manifold in %d" % (f.n, m.n))
    _require_n(m.n)
    partials = zb_partials(m.rho())
    return not any(
        om.total_degree() <= N
        for k, l in cr_pairs(m.n)
        for om in cr_image(partials, k, l, f.terms.items())
    )


def cr_linear_space(q: Quadric) -> List[List[GaussRational]]:
    """Basis of the vectors v for which v . zbar is CR on the quadric.

    The CR equations applied to sum_j v_j zb_j are linear in v; collecting
    coefficients of every monomial gives an exact linear system.  For rank
    at least two the space is trivial; for rank one with a nonzero
    antiholomorphic part it is a line.
    """
    _require_n(q.n)
    n = q.n
    partials = zb_partials(q.q_poly())
    rows = []
    for k, l in cr_pairs(n):
        # one row per output monomial of L_{k,l}, one column per zb_j
        block: Dict[Monomial, Dict[int, GaussRational]] = {}
        for j in range(n):
            zb_j = ((Monomial.of_var("zb", j + 1, n), 1),)
            for om, c in cr_image(partials, k, l, zb_j).items():
                block.setdefault(om, {})[j] = c
        rows.extend(block.values())
    return linalg.nullspace_sparse(rows, n)


def dot_zbar(v: List[GaussRational]) -> Poly:
    """The linear polynomial v . zbar = sum_j v_j zb_j."""
    n = len(v)
    return Poly(n, {Monomial.of_var("zb", j + 1, n): c for j, c in enumerate(v)})


def transform(obj: Union[Quadric, Manifold], T) -> Union[Quadric, Manifold]:
    """Apply the invertible linear change of coordinates z -> T z.

    The matrices transform as A -> T* A T, B -> T^t B T, C -> T^t C T and
    the higher-order part by substitution E(T z, conj(T) zbar).  The rank of
    the stacked matrix is unchanged.
    """
    if isinstance(obj, Manifold):
        new_quadric = transform(obj.quadric, T)
        n = obj.n
        Tm = [[as_gauss(x) for x in row] for row in T]
        z_images = [
            sum(
                (Tm[i][j] * Poly.variable("z%d" % (j + 1), n) for j in range(n)),
                Poly.zero(n),
            )
            for i in range(n)
        ]
        zb_images = [
            sum(
                (
                    Tm[i][j].conjugate() * Poly.variable("zb%d" % (j + 1), n)
                    for j in range(n)
                ),
                Poly.zero(n),
            )
            for i in range(n)
        ]
        new_E = obj.E.substitute_vars(z_images, zb_images)
        return Manifold(new_quadric, new_E)
    q = obj
    n = q.n
    Tm = [[as_gauss(x) for x in row] for row in T]
    if len(Tm) != n or any(len(row) != n for row in Tm):
        raise DimensionMismatch("T must be %d-by-%d" % (n, n))
    if linalg.rank(Tm) < n:
        raise SingularTransform("T is singular")
    Tt = linalg.transpose(Tm)
    Tstar = linalg.conj_transpose(Tm)
    A2 = linalg.mat_mul(linalg.mat_mul(Tstar, q.A), Tm)
    B2 = linalg.mat_mul(linalg.mat_mul(Tt, q.B), Tm)
    C2 = linalg.mat_mul(linalg.mat_mul(Tt, q.C), Tm)
    return Quadric(n, A2, B2, C2)
