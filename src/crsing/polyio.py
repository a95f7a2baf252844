"""Reading and writing polynomials and manifold descriptions.

Polynomial expressions use a small unambiguous grammar:

    expr   := ['-'] term { ('+'|'-') term }
    term   := factor { '*' factor }
    factor := coeff | var ['^' nat]
    var    := 'z' nat | 'zb' nat | 'w'
    coeff  := rat | '(' rat [('+'|'-') rat 'i'] ')' | rat 'i'
    rat    := nat ['/' nat]

Whitespace is insignificant.  A bare 'i' is also accepted for the imaginary
unit.  Examples: "zb1*z2 + zb2^3", "(1/2+3/4i)*z1^2*w", "-z1 + w".

Manifold descriptions are JSON objects:

    {"n": 2,
     "A": [["0", "1"], ["0", "0"]],
     "B": [["0", "0"], ["0", "0"]],
     "C": [["0", "0"], ["0", "0"]],
     "E": "zb2^3"}

A, B, C are n-by-n matrices of coefficient strings ("1/2+3/4i" style; plain
integers are also allowed); omitted matrices default to zero.  B and C must
be symmetric.  The optional E is a polynomial without w whose every term has
total degree at least three.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Tuple

from .algebra import GaussRational, Monomial, Poly, as_gauss
from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    EOrderTooLow,
    IndexOutOfRange,
    ManifoldSpecError,
    PolyParseError,
    UnknownVariable,
)
from .manifold import Manifold, Quadric

_OPS = set("+-*/^()")


def _tokenize(text: str):
    toks: List[Tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError("unexpected character %r" % ch, i)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, n: int):
        self.toks = _tokenize(text)
        self.k = 0
        self.n = n

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise PolyParseError("expected %r, found %r" % (kind, t[1] or "end"), t[2])
        return t

    def parse(self) -> Poly:
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise PolyParseError("unexpected trailing input %r" % t[1], t[2])
        return p

    def expr(self) -> Poly:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek()[0] == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        kind, text, pos = self.peek()
        if kind == "nat":
            c = self.rat()
            if self.peek()[0] == "name" and self.peek()[1] == "i":
                self.next()
                return Poly.constant(GaussRational(0, c), self.n)
            return Poly.constant(GaussRational(c), self.n)
        if kind == "(":
            self.next()
            c = self.complex_body()
            self.expect(")")
            return Poly.constant(c, self.n)
        if kind == "name":
            if text == "i":
                self.next()
                return Poly.constant(GaussRational(0, 1), self.n)
            return self.variable_factor()
        raise PolyParseError("expected a coefficient or variable", pos)

    def variable_factor(self) -> Poly:
        kind, text, pos = self.next()
        try:
            p = Poly.variable(text, self.n)
        except DimensionMismatch:
            raise IndexOutOfRange(
                "variable %s out of range for dimension %d" % (text, self.n)
            )
        except UnknownVariable:
            raise PolyParseError("unknown variable %r" % text, pos)
        if self.peek()[0] == "^":
            self.next()
            e = int(self.expect("nat")[1])
            p = p ** e
        return p

    def rat(self) -> Fraction:
        num = int(self.expect("nat")[1])
        if self.peek()[0] == "/":
            self.next()
            t = self.expect("nat")
            den = int(t[1])
            if den == 0:
                raise PolyParseError("zero denominator", t[2])
            return Fraction(num, den)
        return Fraction(num)

    def complex_body(self) -> GaussRational:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        first = self.rat()
        if self.peek()[0] == "name" and self.peek()[1] == "i":
            self.next()
            return GaussRational(0, sign * first)
        re = sign * first
        if self.peek()[0] in ("+", "-"):
            s = 1 if self.next()[0] == "+" else -1
            if self.peek()[0] == "name" and self.peek()[1] == "i":
                self.next()
                return GaussRational(re, s)
            im = self.rat()
            t = self.expect("name")
            if t[1] != "i":
                raise PolyParseError("expected 'i'", t[2])
            return GaussRational(re, s * im)
        return GaussRational(re)


def parse_poly(text: str, n: int) -> Poly:
    """Parse an expression in the grammar above into a Poly of dimension n."""
    return _Parser(text, n).parse()


def parse_coeff(text: str) -> GaussRational:
    """Parse one signed complex coefficient, e.g. "-1/2+3/4i" or "2i"."""
    parser = _Parser(text, 1)
    kind = parser.peek()[0]
    if kind == "(":
        parser.next()
        c = parser.complex_body()
        parser.expect(")")
    elif kind == "name" and parser.peek()[1] == "i":
        parser.next()
        c = GaussRational(0, 1)
    elif kind == "-" and parser.toks[1][0] == "name" and parser.toks[1][1] == "i":
        parser.next()
        parser.next()
        c = GaussRational(0, -1)
    else:
        c = parser.complex_body()
    t = parser.peek()
    if t[0] != "end":
        raise PolyParseError("unexpected trailing input %r" % t[1], t[2])
    return c


def format_coeff(c: GaussRational) -> str:
    return str(c)


def _coeff_atom(c: GaussRational) -> str:
    if c.im == 0 or c.re == 0:
        return str(c)
    return "(%s)" % c


def _mono_factors(mono: Monomial) -> List[str]:
    out = []
    for i in range(len(mono.z)):
        if mono.z[i]:
            out.append("z%d" % (i + 1) + ("^%d" % mono.z[i] if mono.z[i] > 1 else ""))
        if mono.zb[i]:
            out.append(
                "zb%d" % (i + 1) + ("^%d" % mono.zb[i] if mono.zb[i] > 1 else "")
            )
    if mono.w:
        out.append("w" + ("^%d" % mono.w if mono.w > 1 else ""))
    return out


def format_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(p), p.n) == p.

    Terms are ordered by total degree, then by decreasing z exponents, then
    by decreasing zb exponents.  Within a term, variables appear by index
    with z before zb, and w last.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for mono, c in p.sorted_terms():
        negative = c.re < 0 or (c.re == 0 and c.im < 0)
        mag = -c if negative else c
        factors = _mono_factors(mono)
        if not factors:
            body = _coeff_atom(mag)
        elif mag == GaussRational(1):
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_atom(mag)] + factors)
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def parse_matrix(entries, n: int, label: str) -> List[List[GaussRational]]:
    """Read an n-by-n matrix whose entries are coefficient strings or ints."""
    if not isinstance(entries, list) or len(entries) != n:
        raise ManifoldSpecError("%s must be a list of %d rows" % (label, n))
    out = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ManifoldSpecError(
                "%s row %d must have exactly %d entries" % (label, i, n)
            )
        orow = []
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                try:
                    orow.append(parse_coeff(cell))
                except PolyParseError as e:
                    raise ManifoldSpecError(
                        "%s[%d][%d] is not a number: %s" % (label, i, j, e)
                    )
            elif isinstance(cell, int) and not isinstance(cell, bool):
                orow.append(as_gauss(cell))
            else:
                raise ManifoldSpecError(
                    "%s[%d][%d] must be a string or integer" % (label, i, j)
                )
        out.append(orow)
    return out


def load_manifold(text: str) -> Manifold:
    """Build a Manifold from its JSON description (see module docstring)."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ManifoldSpecError("not valid JSON: %s" % e)
    if not isinstance(doc, dict):
        raise ManifoldSpecError("top-level value must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ManifoldSpecError('"n" must be a positive integer')
    mats = {}
    for key in ("A", "B", "C"):
        if key in doc:
            mats[key] = parse_matrix(doc[key], n, key)
        else:
            mats[key] = None
    try:
        quadric = Quadric(n, mats["A"], mats["B"], mats["C"])
    except AsymmetricMatrix as e:
        raise ManifoldSpecError('"%s" must be symmetric' % e.which)
    e_poly: Optional[Poly] = None
    if "E" in doc and doc["E"] is not None:
        if not isinstance(doc["E"], str):
            raise ManifoldSpecError('"E" must be a polynomial string')
        try:
            e_poly = parse_poly(doc["E"], n)
        except (PolyParseError, IndexOutOfRange) as e:
            raise ManifoldSpecError('"E": %s' % e)
        if not e_poly.is_w_free:
            raise ManifoldSpecError('"E" must not involve w')
    try:
        return Manifold(quadric, e_poly)
    except EOrderTooLow as e:
        raise ManifoldSpecError(str(e))


def manifold_to_dict(m: Manifold) -> dict:
    doc = {
        "n": m.n,
        "A": [[str(x) for x in row] for row in m.quadric.A],
        "B": [[str(x) for x in row] for row in m.quadric.B],
        "C": [[str(x) for x in row] for row in m.quadric.C],
    }
    if not m.E.is_zero:
        doc["E"] = format_poly(m.E)
    return doc
