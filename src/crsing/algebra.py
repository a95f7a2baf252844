"""Exact scalars and sparse polynomials.

Coefficients are Gaussian rationals: complex numbers whose real and imaginary
parts are arbitrary-precision rationals.  Polynomials live in the variables
z1..zn, their formal conjugates zb1..zbn, and one extra variable w.  The
conjugated variables are independent ring variables; conjugation of a
polynomial swaps the two blocks and conjugates coefficients.  The variable w
carries weight two so that weighted degrees stay consistent when a quadratic
expression is substituted for w.

Everything here is immutable by convention: operations return new objects and
never mutate their arguments.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import (
    ConstantTermInSubstitution,
    DimensionMismatch,
    UnknownVariable,
    WVariablePresent,
)


class GaussRational:
    """A complex number a + b*i with rational a, b, supporting exact field
    arithmetic.  Hashable and usable as a dict value or key."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if type(other) is int:
            return GaussRational(self.re * other, self.im * other)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, always an ordinary rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sign, _imag_str(abs(self.im)))

    def __repr__(self):
        return "GaussRational(%r)" % (str(self),)


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return "%si" % f


def _coerce(x) -> Optional[GaussRational]:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    return None


def as_gauss(x) -> GaussRational:
    """Coerce an int, Fraction or GaussRational; reject anything else."""
    g = _coerce(x)
    if g is None:
        raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))
    return g


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def gauss_as_int(x: GaussRational) -> Optional[int]:
    """The value as a Python int if it is a rational integer, else None."""
    if x.im != 0 or x.re.denominator != 1:
        return None
    return int(x.re)


def rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        raise ValueError("negative rational has no rational square root")
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def gauss_sqrt(x: GaussRational) -> Optional[GaussRational]:
    """A Gaussian rational y with y*y == x, or None when no such y exists."""
    a, b = x.re, x.im
    if b == 0:
        if a >= 0:
            r = rational_sqrt(a)
            return None if r is None else GaussRational(r)
        r = rational_sqrt(-a)
        return None if r is None else GaussRational(0, r)
    m = rational_sqrt(a * a + b * b)
    if m is None:
        return None
    # y = c + d*i needs c^2 = (a + |x|)/2; b != 0 forces that to be positive.
    c = rational_sqrt((a + m) / 2)
    if c is None or c == 0:
        return None
    d = b / (2 * c)
    y = GaussRational(c, d)
    if y * y != x:
        return None
    return y


_VAR_RE = _re.compile(r"^(zb|z)([0-9]+)$")


def parse_var(name: str):
    """Split a variable name into a (kind, index) pair.

    Returns ("z", k), ("zb", k) with k >= 1, or ("w", 0).
    """
    if name == "w":
        return ("w", 0)
    m = _VAR_RE.match(name)
    if m is None:
        raise UnknownVariable("unknown variable %r" % name)
    idx = int(m.group(2))
    if idx < 1:
        raise UnknownVariable("variable index must be at least 1: %r" % name)
    return (m.group(1), idx)


class Monomial(NamedTuple):
    """Exponent data for one term: z exponents, zb exponents, w exponent."""

    z: tuple
    zb: tuple
    w: int

    @staticmethod
    def unit(n: int) -> "Monomial":
        return Monomial((0,) * n, (0,) * n, 0)

    @staticmethod
    def of_var(kind: str, idx: int, n: int) -> "Monomial":
        if kind == "w":
            return Monomial((0,) * n, (0,) * n, 1)
        e = tuple(1 if j == idx - 1 else 0 for j in range(n))
        if kind == "z":
            return Monomial(e, (0,) * n, 0)
        return Monomial((0,) * n, e, 0)

    def total_degree(self) -> int:
        return sum(self.z) + sum(self.zb) + self.w

    def weighted_degree(self) -> int:
        return sum(self.z) + sum(self.zb) + 2 * self.w

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.z, other.z)),
            tuple(a + b for a, b in zip(self.zb, other.zb)),
            self.w + other.w,
        )

    def canonical_key(self):
        # Graded first, then higher powers of early z variables, then zb.
        return (
            self.total_degree(),
            tuple(-e for e in self.z),
            tuple(-e for e in self.zb),
        )


class Poly:
    """Sparse polynomial over the Gaussian rationals.

    Stored as a mapping from Monomial to nonzero GaussRational.  The ambient
    dimension n fixes the lengths of the exponent tuples.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        self.n = n
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, c, n: int) -> "Poly":
        c = as_gauss(c)
        if not c:
            return cls(n)
        return cls(n, {Monomial.unit(n): c})

    @classmethod
    def variable(cls, name: str, n: int) -> "Poly":
        kind, idx = parse_var(name)
        if kind != "w" and idx > n:
            raise DimensionMismatch(
                "variable %s exceeds ambient dimension %d" % (name, n)
            )
        return cls(n, {Monomial.of_var(kind, idx, n): ONE})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff, n: int) -> "Poly":
        c = as_gauss(coeff)
        if not c:
            return cls(n)
        return cls(n, {mono: c})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_w_free(self) -> bool:
        return all(m.w == 0 for m in self.terms)

    def coefficient(self, mono: Monomial) -> GaussRational:
        return self.terms.get(mono, ZERO)

    def constant_term(self) -> GaussRational:
        return self.terms.get(Monomial.unit(self.n), ZERO)

    def total_degree(self) -> Optional[int]:
        """Largest total degree among terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.total_degree() for m in self.terms)

    def order(self) -> Optional[int]:
        """Smallest total degree among terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(m.total_degree() for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].canonical_key())

    # -- ring operations ----------------------------------------------

    def _check_dim(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatch(
                "polynomials in dimensions %d and %d" % (self.n, other.n)
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = Poly.constant(c, self.n)
        self._check_dim(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            s = c if acc is None else acc + c
            if s:
                terms[m] = s
            elif acc is not None:
                del terms[m]
        out = Poly.__new__(Poly)
        out.n = self.n
        out.terms = terms
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = Poly.constant(c, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.n = self.n
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            if not c:
                return Poly(self.n)
            out = Poly.__new__(Poly)
            out.n = self.n
            out.terms = {m: a * c for m, a in self.terms.items()}
            return out
        self._check_dim(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                acc = terms.get(m)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s:
                    terms[m] = s
                elif acc is not None:
                    del terms[m]
        out = Poly.__new__(Poly)
        out.n = self.n
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.constant(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            return self == Poly.constant(c, self.n)
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    # -- calculus and structure ---------------------------------------

    def differentiate(self, var: str) -> "Poly":
        """Formal partial derivative with respect to z<k>, zb<k> or w."""
        kind, idx = parse_var(var)
        if kind != "w" and idx > self.n:
            raise DimensionMismatch(
                "variable %s exceeds ambient dimension %d" % (var, self.n)
            )
        terms = {}
        for m, c in self.terms.items():
            if kind == "w":
                e = m.w
                if e == 0:
                    continue
                dm = Monomial(m.z, m.zb, e - 1)
            elif kind == "z":
                e = m.z[idx - 1]
                if e == 0:
                    continue
                zt = list(m.z)
                zt[idx - 1] -= 1
                dm = Monomial(tuple(zt), m.zb, m.w)
            else:
                e = m.zb[idx - 1]
                if e == 0:
                    continue
                bt = list(m.zb)
                bt[idx - 1] -= 1
                dm = Monomial(m.z, tuple(bt), m.w)
            acc = terms.get(dm, ZERO) + c * e
            if acc:
                terms[dm] = acc
            elif dm in terms:
                del terms[dm]
        return Poly(self.n, terms)

    def conjugate(self) -> "Poly":
        """Swap z with zb and conjugate coefficients.  Undefined when w is
        present, since w is not paired with a conjugate variable."""
        terms = {}
        for m, c in self.terms.items():
            if m.w:
                raise WVariablePresent("cannot conjugate a polynomial containing w")
            terms[Monomial(m.zb, m.z, 0)] = c.conjugate()
        return Poly(self.n, terms)

    def homogeneous_part(self, d: int) -> "Poly":
        terms = {m: c for m, c in self.terms.items() if m.total_degree() == d}
        return Poly(self.n, terms)

    def homogeneous_parts(self) -> Iterator:
        """Yield (degree, part) pairs in increasing total degree."""
        for d in sorted({m.total_degree() for m in self.terms}):
            yield d, self.homogeneous_part(d)

    def truncate(self, N: int) -> "Poly":
        """Drop all terms of total degree greater than N."""
        terms = {m: c for m, c in self.terms.items() if m.total_degree() <= N}
        return Poly(self.n, terms)

    def substitute_w(self, q: "Poly") -> "Poly":
        """Replace w by the polynomial q.

        q must be free of w and have no constant term, so that the
        substitution respects orders of vanishing.
        """
        self._check_dim(q)
        if not q.is_w_free:
            raise WVariablePresent("substitution target must not contain w")
        if q.constant_term():
            raise ConstantTermInSubstitution(
                "substituted polynomial must vanish at the origin"
            )
        jmax = max((m.w for m in self.terms), default=0)
        powers = [Poly.constant(1, self.n)]
        for _ in range(jmax):
            powers.append(powers[-1] * q)
        result = Poly(self.n)
        for m, c in self.terms.items():
            base = Poly.from_monomial(Monomial(m.z, m.zb, 0), c, self.n)
            result = result + base * powers[m.w]
        return result

    def substitute_vars(self, z_images, zb_images) -> "Poly":
        """Substitute polynomials for every z and zb variable.

        The images must all live in one common ring, which becomes the ring
        of the result.  Only defined for w-free polynomials.
        """
        if not self.is_w_free:
            raise WVariablePresent("substitution source must not contain w")
        if len(z_images) != self.n or len(zb_images) != self.n:
            raise DimensionMismatch("need one image per variable")
        target_n = z_images[0].n if z_images else self.n
        for img in list(z_images) + list(zb_images):
            if img.n != target_n:
                raise DimensionMismatch("images live in different rings")
        result = Poly(target_n)
        for m, c in self.terms.items():
            term = Poly.constant(c, target_n)
            for i, e in enumerate(m.z):
                if e:
                    term = term * z_images[i] ** e
            for i, e in enumerate(m.zb):
                if e:
                    term = term * zb_images[i] ** e
            result = result + term
        return result

    def __str__(self):
        from .polyio import format_poly

        return format_poly(self)

    def __repr__(self):
        if not self.terms:
            return "Poly(0, n=%d)" % self.n
        return "Poly(%s, n=%d)" % (self, self.n)
