"""The benchmark's own exact arithmetic, kept apart from crsing.

Every answer crsing gives is checked here with code that shares nothing
with the package under test:

- Gaussian rationals are pairs of Fractions ``(re, im)``.
- Polynomials in z, zbar and w are ``QPoly`` objects: integer Gaussian
  numerators over one common positive denominator, which keeps products
  and sums in plain integer arithmetic.
- Independence and dimension proofs reduce modulo a prime p = 1 (mod 4),
  where i has a square root; a full rank mod p implies full rank over Q(i)
  as long as p divides no denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# -- Gaussian rationals as (re, im) pairs -------------------------------

G0 = (Fraction(0), Fraction(0))
G1 = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def gneg(a):
    return (-a[0], -a[1])


def gconj(a):
    return (a[0], -a[1])


def gint(a):
    """The integer value of a Gaussian rational, or None."""
    if a[1] != 0 or a[0].denominator != 1:
        return None
    return a[0].numerator


def rank_exact(rows):
    """Rank of a small dense matrix of Gaussian rationals, by plain
    Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != G0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != G0:
                f = gdiv(m[i][c], m[rank][c])
                m[i] = [gsub(x, gmul(f, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def matmul(a, b):
    return [
        [
            _gsum(gmul(a[i][k], b[k][j]) for k in range(len(b)))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def _gsum(items):
    acc = G0
    for x in items:
        acc = gadd(acc, x)
    return acc


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    return [[gconj(x) for x in col] for col in zip(*a)]


# -- polynomials with a common denominator ------------------------------
#
# A monomial is (z_exponents, zb_exponents, w_exponent); a term maps it to
# a Gaussian integer (re, im) of Python ints.


class QPoly:
    """Polynomial over Q(i) stored as Gaussian-integer numerators over one
    positive integer denominator.  Never normalised: equality is tested
    through the difference."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den=1):
        self.terms = {m: c for m, c in (terms or {}).items() if c != (0, 0)}
        self.den = den

    @classmethod
    def from_gauss(cls, terms):
        """From {monomial: (Fraction re, Fraction im)}."""
        den = 1
        for re_, im_ in terms.values():
            den = _lcm(_lcm(den, re_.denominator), im_.denominator)
        out = {}
        for m, (re_, im_) in terms.items():
            out[m] = (int(re_ * den), int(im_ * den))
        return cls(out, den)

    def to_gauss(self):
        return {
            m: (Fraction(a, self.den), Fraction(b, self.den))
            for m, (a, b) in self.terms.items()
        }

    def __add__(self, other):
        d = _lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        out = {m: (a * fa, b * fa) for m, (a, b) in self.terms.items()}
        for m, (a, b) in other.terms.items():
            x = out.get(m, (0, 0))
            out[m] = (x[0] + a * fb, x[1] + b * fb)
        return QPoly(out, d)

    def __neg__(self):
        return QPoly({m: (-a, -b) for m, (a, b) in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, (a1, b1) in self.terms.items():
            for m2, (a2, b2) in other.terms.items():
                m = _mono_mul(m1, m2)
                x = out.get(m, (0, 0))
                out[m] = (x[0] + a1 * a2 - b1 * b2, x[1] + a1 * b2 + b1 * a2)
        return QPoly(out, self.den * other.den)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (self - other).is_zero()

    __hash__ = None

    def diff_zb(self, k):
        """Partial derivative in zbar_k (0-based)."""
        out = {}
        for (z, zb, w), (a, b) in self.terms.items():
            e = zb[k]
            if e:
                nzb = zb[:k] + (e - 1,) + zb[k + 1 :]
                out[(z, nzb, w)] = (a * e, b * e)
        return QPoly(out, self.den)

    def substitute_w(self, rho):
        """F(z, rho) for a w-free rho."""
        jmax = max((m[2] for m in self.terms), default=0)
        powers = [one(_dim(rho, self))]
        for _ in range(jmax):
            powers.append(powers[-1] * rho)
        out = QPoly({}, 1)
        for (z, zb, w), c in self.terms.items():
            out = out + QPoly({(z, zb, 0): c}, self.den) * powers[w]
        return out


def _lcm(a, b):
    return a // math.gcd(a, b) * b


def _mono_mul(m1, m2):
    return (
        tuple(x + y for x, y in zip(m1[0], m2[0])),
        tuple(x + y for x, y in zip(m1[1], m2[1])),
        m1[2] + m2[2],
    )


def _dim(*polys):
    for p in polys:
        for m in p.terms:
            return len(m[0])
    raise ValueError("cannot infer the dimension of zero polynomials")


def one(n):
    return QPoly({((0,) * n, (0,) * n, 0): (1, 0)}, 1)


def quadric_poly(n, A, B, C):
    """Q = z* A z + conj(z^t B z) + z^t C z from (re, im) matrices."""
    terms = {}

    def put(z, zb, c):
        x = terms.get((z, zb, 0), G0)
        terms[(z, zb, 0)] = gadd(x, c)

    def e(*idx):
        return tuple(sum(k == i for i in idx) for k in range(n))

    for i in range(n):
        for j in range(n):
            if A[i][j] != G0:
                put(e(j), e(i), A[i][j])
            if B[i][j] != G0:
                put(e(), e(i, j), gconj(B[i][j]))
            if C[i][j] != G0:
                put(e(i, j), e(), C[i][j])
    return QPoly.from_gauss({m: c for m, c in terms.items() if c != G0})


def cr_images(rho, f, n):
    """L_{k,l} f = rho_zb_l f_zb_k - rho_zb_k f_zb_l for every k < l."""
    rz = [rho.diff_zb(j) for j in range(n)]
    fz = [f.diff_zb(j) for j in range(n)]
    return [
        rz[l] * fz[k] - rz[k] * fz[l]
        for k in range(n)
        for l in range(k + 1, n)
    ]


def is_cr(rho, f, n):
    return all(img.is_zero() for img in cr_images(rho, f, n))


def holomorphic_count(n, d):
    """#{(alpha, j) : |alpha| + 2j = d}, the paper's dimension of degree-d
    CR polynomials when the stacked rank is at least two."""
    return sum(math.comb(d - 2 * j + n - 1, n - 1) for j in range(d // 2 + 1))


def homogeneous_monomial_count(n, d):
    return math.comb(d + 2 * n - 1, 2 * n - 1)


# -- reduction modulo p = 1 (mod 4) -------------------------------------

PRIMES = (1000000009, 998244353, 1000000093, 1000000181)


class BadPrime(Exception):
    """The prime divides a denominator, so reduction is undefined."""


def sqrt_minus_one(p):
    for a in range(2, p):
        r = pow(a, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("p must be 1 mod 4")


def reduce_gauss(c, p, ip):
    re_, im_ = c
    if re_.denominator % p == 0 or im_.denominator % p == 0:
        raise BadPrime(p)
    a = re_.numerator * pow(re_.denominator, -1, p)
    b = im_.numerator * pow(im_.denominator, -1, p)
    return (a + b * ip) % p


def rank_mod(rows, p):
    """Rank of a dense matrix of residues mod p."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [x * inv % p for x in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        rank += 1
    return rank


def independent(vectors):
    """True when the Gaussian-rational vectors are provably linearly
    independent: full rank modulo a prime that divides no denominator."""
    if not vectors:
        return True
    for p in PRIMES:
        ip = sqrt_minus_one(p)
        try:
            rows = [[reduce_gauss(c, p, ip) for c in v] for v in vectors]
        except BadPrime:
            continue
        if rank_mod(rows, p) == len(vectors):
            return True
    return False


# -- reading crsing's printed polynomials --------------------------------

_VAR = re.compile(r"^(zb|z|w)(\d*)(?:\^(\d+))?$")
_SIGN = re.compile(r"\s*([+-])?\s*")


def parse_coeff(text):
    """'2', '-1/2', 'i', '3/4i', '1/2+3/4i' or '(1/2-i)' as (re, im)."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    re_text, im_text = (body[:k], body[k:]) if k > 0 else ("0", body)
    if im_text in ("", "+", "-"):
        im_text += "1"
    return (Fraction(re_text), Fraction(im_text))


def parse_poly(text, n):
    """Read the canonical printed form (see crsing's format_poly) into
    {monomial: (re, im)}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _SIGN.match(text, pos)
        sign = m.group(1)
        pos = m.end()
        if sign is None and not first:
            raise ValueError("missing operator at %d in %r" % (pos, text))
        first = False
        depth = 0
        end = pos
        while end < len(text):
            ch = text[end]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch == " ":
                break
            end += 1
        body = text[pos:end]
        pos = end
        coeff = G1
        z = [0] * n
        zb = [0] * n
        w = 0
        for factor in _split_factors(body):
            vm = _VAR.match(factor)
            if vm and (vm.group(1) == "w") == (vm.group(2) == ""):
                e = int(vm.group(3) or 1)
                if vm.group(1) == "w":
                    w += e
                elif vm.group(1) == "z":
                    z[int(vm.group(2)) - 1] += e
                else:
                    zb[int(vm.group(2)) - 1] += e
            else:
                coeff = gmul(coeff, parse_coeff(factor))
        if sign == "-":
            coeff = (-coeff[0], -coeff[1])
        mono = (tuple(z), tuple(zb), w)
        out[mono] = gadd(out.get(mono, G0), coeff)
    return {m: c for m, c in out.items() if c != G0}


def _split_factors(body):
    parts, depth, cur = [], 0, ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


# -- one-variable evaluation for the ODE checks ---------------------------


def eval_poly1(coeffs, x):
    """Horner evaluation of sum coeffs[k] x^k over Gaussian rationals."""
    acc = G0
    for c in reversed(coeffs):
        acc = gadd(gmul(acc, x), c)
    return acc
