"""Classification of exceptional quadrics and what CR functions can see.

Quadrics whose stacked matrix [A*; B] has rank one fall, up to an
invertible linear change of z and a scaling of w, into four families:

    case 1:  w = zb1 z2 + zb1^2
    case 2:  w = zb1 z2
    case 3:  w = |z1|^2 + a zb1^2   with a >= 0
    case 4:  w = zb1^2

The classifier first normalizes so that A* and B are supported in their
first columns, then reads off which family applies; for case 3 the modulus
a is pinned down by a^2 = |B'_11|^2 / |A'_11|^2, an exact rational.  Purely
holomorphic terms z^t C z never matter: they can be absorbed into w.

Each exceptional family is the image of a polynomial map from R^2 x C^(n-1)
built from the normal form, giving an explicit Levi-flat-style picture of
the manifold; the map is verified here as an exact polynomial identity.

A real-valued CR first integral g = alpha Q + higher order flattens the
manifold: its formal extension F satisfies g = F(z, rho) to the requested
order, exhibiting the manifold inside the zero set of Im-like data.  The
first-integral checks and the flattening construction live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from . import linalg
from .algebra import GaussRational, I, ONE, Poly, ZERO, rational_sqrt
from .errors import (
    FirstIntegralError,
    RankNotOne,
    RankTooLow,
    RequiresNGe2,
)
from .formal import FormalExtension, formal_extend
from .manifold import Manifold, Quadric, is_cr_through, rank_condition, transform


class LabelKind(Enum):
    NON_EXCEPTIONAL = "non_exceptional"
    RANK_ZERO = "rank_zero"
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"


@dataclass(frozen=True)
class ClassLabel:
    kind: LabelKind
    a_squared: Optional[Fraction] = None  # only for CASE3

    def describe(self) -> str:
        if self.kind is LabelKind.CASE3:
            return "case3 (w = |z1|^2 + a zb1^2, a^2 = %s)" % self.a_squared
        forms = {
            LabelKind.NON_EXCEPTIONAL: "rank >= 2 (every CR function extends)",
            LabelKind.RANK_ZERO: "rank 0 (no zbar part)",
            LabelKind.CASE1: "case1 (w = zb1 z2 + zb1^2)",
            LabelKind.CASE2: "case2 (w = zb1 z2)",
            LabelKind.CASE4: "case4 (w = zb1^2)",
        }
        return forms[self.kind]


def normalize_rank1(q: Quadric) -> Tuple[List[List[GaussRational]], Quadric]:
    """An invertible T after which A* and B are supported in column one.

    The columns of T beyond the first span the common kernel of A* and B,
    which has dimension n - 1 exactly when the stacked rank is one."""
    if q.n < 2:
        raise RequiresNGe2("normalization needs n >= 2")
    if rank_condition(q) != 1:
        raise RankNotOne("normalization applies to stacked rank one only")
    n = q.n
    kernel = linalg.nullspace(q.stacked())
    if len(kernel) != n - 1:
        raise RuntimeError("rank one but kernel dimension %d" % len(kernel))
    for lead in range(n):
        e = [ONE if i == lead else ZERO for i in range(n)]
        cols = [e] + kernel
        T = [[cols[j][i] for j in range(n)] for i in range(n)]
        if linalg.rank(T) == n:
            return T, transform(q, T)
    raise RuntimeError("kernel basis could not be completed to a basis")


def classify_quadric(q: Quadric) -> ClassLabel:
    """Decide which extension regime a quadric belongs to.

    Stacked rank at least two means every CR function extends; rank zero
    means the CR condition is vacuous.  Rank one lands in one of the four
    exceptional families above, read off from the normalized matrices."""
    if q.n < 2:
        raise RequiresNGe2("classification needs n >= 2")
    r = rank_condition(q)
    if r >= 2:
        return ClassLabel(LabelKind.NON_EXCEPTIONAL)
    if r == 0:
        return ClassLabel(LabelKind.RANK_ZERO)
    _, qn = normalize_rank1(q)
    row = qn.A[0]
    beta = qn.B[0][0]
    if not any(row):
        return ClassLabel(LabelKind.CASE4)
    if not any(row[1:]):
        a2 = beta.abs2() / row[0].abs2()
        return ClassLabel(LabelKind.CASE3, a_squared=a2)
    if beta:
        return ClassLabel(LabelKind.CASE1)
    return ClassLabel(LabelKind.CASE2)


class CRImageForm(Enum):
    """What the quadratic part allows CR-image normalization to reach."""

    FORM1 = "form1"  # w = zb1 z2 + zb1^2
    FORM2 = "form2"  # w = zb1 z2
    FORM3 = "form3"  # w = |z1|^2 + a zb1^2
    FORM4 = "form4"  # w = zb1^2
    FORM5 = "form5"  # quadratic part vanishes
    NOT_APPLICABLE = "not_applicable"  # rank >= 2


_FORM_OF = {
    LabelKind.NON_EXCEPTIONAL: CRImageForm.NOT_APPLICABLE,
    LabelKind.RANK_ZERO: CRImageForm.FORM5,
    LabelKind.CASE1: CRImageForm.FORM1,
    LabelKind.CASE2: CRImageForm.FORM2,
    LabelKind.CASE3: CRImageForm.FORM3,
    LabelKind.CASE4: CRImageForm.FORM4,
}


_FORM_TEXT = {
    CRImageForm.FORM1: "form1: graphs over w = zb1 z2 + zb1^2",
    CRImageForm.FORM2: "form2: graphs over w = zb1 z2",
    CRImageForm.FORM3: "form3: graphs over w = |z1|^2 + a zb1^2",
    CRImageForm.FORM4: "form4: graphs over w = zb1^2",
    CRImageForm.FORM5: "form5: quadratic part vanishes",
    CRImageForm.NOT_APPLICABLE: "not applicable: stacked rank >= 2, "
    "CR polynomials extend and separate",
}


@dataclass(frozen=True)
class CRImage:
    form: CRImageForm
    label: ClassLabel

    def describe(self) -> str:
        text = _FORM_TEXT[self.form]
        if self.form is CRImageForm.FORM3:
            text += " (a^2 = %s)" % self.label.a_squared
        return text


def classify_cr_image(m: Manifold) -> CRImage:
    """Sort a manifold by the exceptional type of its quadratic part."""
    label = classify_quadric(m.quadric)
    return CRImage(form=_FORM_OF[label.kind], label=label)


def normal_form_quadric(label: ClassLabel, n: int) -> Quadric:
    """The representative quadric of an exceptional class in dimension n."""
    if n < 2:
        raise RequiresNGe2("normal forms need n >= 2")
    A = linalg.zeros(n)
    B = linalg.zeros(n)
    kind = label.kind
    if kind is LabelKind.CASE1:
        A[0][1] = ONE
        B[0][0] = ONE
    elif kind is LabelKind.CASE2:
        A[0][1] = ONE
    elif kind is LabelKind.CASE3:
        if label.a_squared is None:
            raise ValueError("case3 label needs a_squared")
        a = rational_sqrt(label.a_squared)
        if a is None:
            raise ValueError(
                "a^2 = %s is not the square of a rational; cannot build an "
                "exact representative" % label.a_squared
            )
        A[0][0] = ONE
        B[0][0] = GaussRational(a)
    elif kind is LabelKind.CASE4:
        B[0][0] = ONE
    else:
        raise ValueError("no normal form for %s" % kind.value)
    return Quadric(n, A, B, None)


@dataclass
class LeviFlatParam:
    """Polynomial parametrization of an exceptional normal form.

    Components live in a ring of dimension n + 1 whose variables read
    z1 = s, z2 = t (a real pair replacing z1 and zb1 on the image) and
    z3.. = xi2.., the remaining coordinates.  components[0..n-1] are the
    images of z1..zn and components[n] is the image of w."""

    label: ClassLabel
    n: int
    components: List[Poly]
    verified: bool


def levi_flat_image_param(label: ClassLabel, n: int) -> LeviFlatParam:
    """The map (s, t, xi) -> (s + it, xi, Q(s + it, xi, s - it)) for an
    exceptional normal form, with the membership identity w = Q checked as
    an exact polynomial identity in s, t, xi and conj(xi)."""
    q = normal_form_quadric(label, n)
    ring = n + 1
    s = Poly.variable("z1", ring)
    t = Poly.variable("z2", ring)
    z1_img = s + I * t
    z1bar_img = s - I * t
    comps = [z1_img]
    for j in range(2, n + 1):
        comps.append(Poly.variable("z%d" % (j + 1), ring))
    # direct construction of the w component from the defining formula
    kind = label.kind
    if kind is LabelKind.CASE1:
        w_img = z1bar_img * comps[1] + z1bar_img * z1bar_img
    elif kind is LabelKind.CASE2:
        w_img = z1bar_img * comps[1]
    elif kind is LabelKind.CASE3:
        a = rational_sqrt(label.a_squared)
        w_img = z1bar_img * z1_img + GaussRational(a) * z1bar_img * z1bar_img
    else:
        w_img = z1bar_img * z1bar_img
    # independent membership check through the generic quadric polynomial
    z_images = [z1_img] + comps[1:]
    zb_images = [z1bar_img] + [
        Poly.variable("zb%d" % (j + 1), ring) for j in range(2, n + 1)
    ]
    membership = q.q_poly().substitute_vars(z_images, zb_images)
    verified = membership == w_img
    return LeviFlatParam(
        label=label, n=n, components=comps + [w_img], verified=verified
    )


@dataclass
class FirstIntegralReport:
    """Outcome of the three flattening preconditions for a candidate g."""

    real_valued: bool
    cr_to_order: bool
    quadratic_matches: Optional[bool]  # None when Q itself is not real-valued
    alpha: Optional[GaussRational]
    normalization_required: bool
    order: int

    @property
    def ok(self) -> bool:
        return self.real_valued and self.cr_to_order and self.quadratic_matches is True


def _q_is_real(q: Quadric) -> bool:
    n = q.n
    hermitian = all(
        q.A[i][j] == q.A[j][i].conjugate() for i in range(n) for j in range(n)
    )
    return hermitian and linalg.mat_eq(q.C, q.B)


def check_first_integral(m: Manifold, g: Poly, N: int = 8) -> FirstIntegralReport:
    """Test whether g looks like a real first integral through degree N:
    real-valued, annihilated by every CR field up to degree N, and with
    quadratic part a nonzero real multiple of Q.  The last test needs Q
    itself real-valued (A Hermitian and C = B); otherwise it is skipped and
    flagged as requiring prior normalization."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if m.n < 2:
        raise RequiresNGe2("first integral checks need n >= 2")
    if rank_condition(m.quadric) < 2:
        raise RankTooLow("first integral checks assume stacked rank at least two")
    real_valued = g.is_w_free and g.conjugate() == g
    cr_to_order = is_cr_through(m, g, N)
    if not _q_is_real(m.quadric):
        return FirstIntegralReport(
            real_valued=real_valued,
            cr_to_order=cr_to_order,
            quadratic_matches=None,
            alpha=None,
            normalization_required=True,
            order=N,
        )
    qp = m.quadric.q_poly()
    g2 = g.homogeneous_part(2)
    alpha = None
    matches = False
    if not qp.is_zero:
        lead_mono = min(qp.terms, key=lambda mm: mm.canonical_key())
        cand = g2.coefficient(lead_mono) / qp.coefficient(lead_mono)
        if cand and cand.is_real and g2 == cand * qp:
            alpha = cand
            matches = True
    return FirstIntegralReport(
        real_valued=real_valued,
        cr_to_order=cr_to_order,
        quadratic_matches=matches,
        alpha=alpha,
        normalization_required=False,
        order=N,
    )


def flatten_from_first_integral(m: Manifold, g: Poly, N: int = 8) -> FormalExtension:
    """Extend a verified first integral to F(z, w) with g = F(z, rho) up to
    degree N.  Requires stacked rank at least two, which check_first_integral
    enforces with RankTooLow before anything is extended.  Failures of the CR
    condition surface as NotCR with the offending degree; the other two
    preconditions raise FirstIntegralError."""
    report = check_first_integral(m, g, N)
    if not report.real_valued:
        raise FirstIntegralError("g is not real-valued")
    if report.normalization_required:
        raise FirstIntegralError(
            "Q is not real-valued; renormalize before flattening"
        )
    if report.cr_to_order and report.quadratic_matches is not True:
        raise FirstIntegralError(
            "the quadratic part of g is not a nonzero real multiple of Q"
        )
    return formal_extend(m, g, N)
