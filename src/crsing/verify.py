"""Self-contained verification suites for the package's main claims.

Each suite exercises one checkable statement at desk scale with exact
arithmetic and deterministic seeds, and reports per-claim rows.  The test
suite and the command line both run these.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from . import linalg
from .algebra import GaussRational, I, Monomial, ONE, Poly, ZERO
from .classify import (
    ClassLabel,
    CRImageForm,
    LabelKind,
    classify_cr_image,
    classify_quadric,
    levi_flat_image_param,
    normal_form_quadric,
)
from .errors import DegenerateQuadric, NoExtension, NotCR
from .extend import (
    cr_equation_matrix,
    counterexample_linear,
    extend_homogeneous,
    extend_polynomial,
    block_rank_sum,
    homogeneous_monomials,
    kernel_dimension_formula,
    matching_factorization,
    rank_formula,
    weighted_monomial_index,
)
from .formal import formal_extend
from .manifold import (
    Manifold,
    Quadric,
    cr_linear_space,
    dot_zbar,
    is_cr,
    quadric_model,
    rank_condition,
    transform,
)
from .odecrit import ODEParams, Verdict, brute_force_ode, decide, ode_residual


@dataclass
class SuiteRow:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    rows: List[SuiteRow] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.rows.append(SuiteRow(label, ok, detail))


# -- random generators ------------------------------------------------

_ENTRY_POOL = (
    ZERO,
    ONE,
    -ONE,
    I,
    -I,
    GaussRational(Fraction(1, 2)),
    GaussRational(Fraction(-1, 2)),
)


def _pool_entry(rng, zero_bias: float = 0.0) -> GaussRational:
    if zero_bias and rng.random() < zero_bias:
        return ZERO
    return _ENTRY_POOL[rng.randrange(len(_ENTRY_POOL))]


def _small_gauss(rng, zero_ok=True) -> GaussRational:
    while True:
        g = GaussRational(
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))),
        )
        if zero_ok or g:
            return g


def random_quadric(rng, n: int, zero_bias: float = 0.0) -> Quadric:
    """Entries drawn from {0, +-1, +-i, +-1/2}; a nonzero zero_bias skews
    toward sparse matrices so low stacked ranks actually occur."""
    A = [[_pool_entry(rng, zero_bias) for _ in range(n)] for _ in range(n)]
    B = linalg.zeros(n)
    C = linalg.zeros(n)
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = _pool_entry(rng, zero_bias)
            C[i][j] = C[j][i] = _pool_entry(rng, zero_bias)
    return Quadric(n, A, B, C)


def random_invertible(rng, n: int):
    while True:
        T = [[_small_gauss(rng) for _ in range(n)] for _ in range(n)]
        if linalg.rank(T) == n:
            return T


def random_symmetric(rng, n: int):
    M = linalg.zeros(n)
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = _small_gauss(rng)
    return M


def random_holomorphic(rng, n: int, max_wdeg: int = 6) -> Poly:
    """A nonzero polynomial in z and w of weighted degree at most max_wdeg."""
    candidates = []
    for d in range(max_wdeg + 1):
        candidates.extend(
            Monomial(alpha, (0,) * n, j) for alpha, j in weighted_monomial_index(n, d)
        )
    terms = {}
    for _ in range(rng.randint(2, 5)):
        mono = candidates[rng.randrange(len(candidates))]
        terms[mono] = _small_gauss(rng, zero_ok=False)
    return Poly(n, terms)


def random_e_poly(rng, n: int, degrees=(3, 4)) -> Poly:
    """A higher-order part with a few terms of the given total degrees."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(degrees)
        monos = homogeneous_monomials(n, d)
        mono = monos[rng.randrange(len(monos))]
        terms[mono] = _pool_entry(rng)
    return Poly(n, {m: c for m, c in terms.items() if c})


def _triangular_family_quadric(rng) -> Quadric:
    """A = [[1, beta], [0, delta]] with delta != 0, the normalized n = 2
    shape behind the closed-form rank count."""
    beta = _small_gauss(rng)
    delta = _small_gauss(rng, zero_ok=False)
    return Quadric(2, A=[[ONE, beta], [ZERO, delta]])


# -- shared helpers ---------------------------------------------------


def _extension_sweep(q: Quadric, dmax: int):
    """rank, whether every CR polynomial of degree 1..dmax extends, and
    whether the linear CR space is trivial.

    Each basis element of the degree-d CR space goes through
    extend_homogeneous, which returns an extension only after checking
    f - F(z, Q) = 0 exactly; the sweep stops at the first NoExtension."""
    r = rank_condition(q)
    all_extend = True
    try:
        for d in range(1, dmax + 1):
            for f in cr_equation_matrix(q, d).kernel_polys():
                extend_homogeneous(q, f)
    except NoExtension:
        all_extend = False
    lin_trivial = not cr_linear_space(q)
    return r, all_extend, lin_trivial


# -- suites -----------------------------------------------------------


def suite_rank_formula(samples: int = 20, dmax: int = 8, seed: int = 11259) -> SuiteResult:
    """Exact rank and kernel dimension of the degree-d CR matrix for the
    normalized n = 2 family, against the closed forms."""
    t0 = time.time()
    out = SuiteResult("rank-formula")
    rng = random.Random(seed)
    quadrics = [_triangular_family_quadric(rng) for _ in range(samples)]
    for d in range(1, dmax + 1):
        expected_rank = rank_formula(d)
        expected_dim = kernel_dimension_formula(d)
        expected_cols = math.comb(d + 3, 3)
        ok = True
        seen = None
        for q in quadrics:
            mat = cr_equation_matrix(q, d)
            r = mat.rank()
            dim = len(mat.columns) - r
            seen = (r, dim, len(mat.columns))
            if (
                r != expected_rank
                or dim != expected_dim
                or len(mat.columns) != expected_cols
            ):
                ok = False
                break
        out.add(
            "d=%d" % d,
            ok,
            "rank=%d kernel=%d columns=%d over %d samples"
            % (seen[0], seen[1], seen[2], samples),
        )
    out.elapsed = time.time() - t0
    return out


def suite_block_ranks(samples: int = 20, dmax: int = 8, seed: int = 20017) -> SuiteResult:
    """Per-block rank oracle: the case-split values r(j, d) must sum to the
    computed rank of the full degree-d matrix."""
    t0 = time.time()
    out = SuiteResult("block-ranks")
    rng = random.Random(seed)
    quadrics = [_triangular_family_quadric(rng) for _ in range(samples)]
    for d in range(1, dmax + 1):
        predicted = block_rank_sum(d)
        ok = all(cr_equation_matrix(q, d).rank() == predicted for q in quadrics)
        out.add("d=%d" % d, ok, "block sum=%d over %d samples" % (predicted, samples))
    out.elapsed = time.time() - t0
    return out


def suite_equivalence(samples: int = 200, dmax: int = 4, seed: int = 30103) -> SuiteResult:
    """Randomized equivalence: stacked rank >= 2, extendability of every
    low-degree kernel element, and triviality of the linear CR space all
    coincide; rank-one quadrics yield a certified non-extendable witness."""
    t0 = time.time()
    out = SuiteResult("equivalence")
    rng = random.Random(seed)
    counts = {0: 0, 1: 0, 2: 0}
    agreement = True
    witness_ok = True
    for _ in range(samples):
        n = rng.choice((2, 3))
        q = random_quadric(rng, n, zero_bias=rng.choice((0.0, 0.6, 0.85)))
        r, all_extend, lin_trivial = _extension_sweep(q, dmax)
        counts[min(r, 2)] += 1
        if ((r >= 2) != all_extend) or ((r >= 2) != lin_trivial):
            agreement = False
        if r == 1:
            v = counterexample_linear(q)
            if v is None or not any(v):
                witness_ok = False
            else:
                try:
                    extend_homogeneous(q, dot_zbar(v))
                    witness_ok = False
                except NoExtension:
                    pass
    out.add(
        "three-way equivalence",
        agreement,
        "samples=%d (rank0=%d rank1=%d rank>=2=%d), degrees 1..%d"
        % (samples, counts[0], counts[1], counts[2], dmax),
    )
    out.add(
        "all rank classes sampled",
        all(counts[k] > 0 for k in counts),
    )
    out.add("rank-one witnesses fail to extend", witness_ok and counts[1] > 0)
    out.elapsed = time.time() - t0
    return out


def suite_uniqueness(samples: int = 20, dmax: int = 6, seed: int = 40087) -> SuiteResult:
    """For rank >= 2 the matching map c -> sum c z^alpha Q^j is injective:
    its matrix has full column rank in every degree."""
    t0 = time.time()
    out = SuiteResult("uniqueness")
    rng = random.Random(seed)
    produced = 0
    ok = True
    while produced < samples:
        n = rng.choice((2, 3))
        q = random_quadric(rng, n)
        if rank_condition(q) < 2:
            continue
        produced += 1
        for d in range(1, dmax + 1):
            if not matching_factorization(q, d)[2].unique:
                ok = False
    out.add(
        "full column rank",
        ok,
        "%d rank>=2 quadrics, degrees 1..%d" % (samples, dmax),
    )
    out.elapsed = time.time() - t0
    return out


def _norm4_manifold() -> Manifold:
    q = Quadric(2)
    z1, z2 = Poly.variable("z1", 2), Poly.variable("z2", 2)
    zb1, zb2 = Poly.variable("zb1", 2), Poly.variable("zb2", 2)
    norm2 = z1 * zb1 + z2 * zb2
    return Manifold(q, norm2 * norm2)


def _cubic_term_manifold() -> Manifold:
    q = Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]])
    zb2 = Poly.variable("zb2", 2)
    return Manifold(q, zb2 ** 3)


def suite_examples(samples: int = 50, order: int = 8, seed: int = 50119) -> SuiteResult:
    """Three worked examples: the vacuously-flat graph over ||z||^4, the
    rank-one quadric with a non-extendable CR function, and the rank-one
    quadric repaired by a cubic term where restrictions round-trip."""
    t0 = time.time()
    out = SuiteResult("examples")

    m4 = _norm4_manifold()
    z1, z2 = Poly.variable("z1", 2), Poly.variable("z2", 2)
    norm2 = z1 * Poly.variable("zb1", 2) + z2 * Poly.variable("zb2", 2)
    chk = is_cr(m4, norm2)
    out.add("||z||^2 is CR on w = ||z||^4", chk.holds and not chk.vacuous)
    try:
        formal_extend(m4, norm2, order)
        out.add("w = ||z||^4 rejected as degenerate", False)
    except DegenerateQuadric:
        out.add("w = ||z||^4 rejected as degenerate", True)

    qz = Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]])
    zb1 = Poly.variable("zb1", 2)
    out.add("zb1 is CR on w = zb1 z2", bool(is_cr(quadric_model(qz), zb1)))
    try:
        extend_polynomial(qz, zb1)
        out.add("zb1 does not extend on w = zb1 z2", False)
    except NoExtension:
        out.add("zb1 does not extend on w = zb1 z2", True)

    m = _cubic_term_manifold()
    rng = random.Random(seed)
    rho = m.rho()
    roundtrips = 0
    recovered = 0
    for _ in range(samples):
        F = random_holomorphic(rng, 2, max_wdeg=6)
        f = F.substitute_w(rho)
        fe = formal_extend(m, f, order)
        if fe.certified:
            roundtrips += 1
        if fe.F == F:
            recovered += 1
    out.add(
        "restrictions round-trip on w = zb1 z2 + zb2^3",
        roundtrips == samples,
        "%d/%d certified past order %d, %d recovered exactly"
        % (roundtrips, samples, order, recovered),
    )
    try:
        formal_extend(m, zb1, order)
        out.add("zb1 rejected at degree 1", False)
    except NotCR as e:
        out.add("zb1 rejected at degree 1", e.degree == 1)
    out.elapsed = time.time() - t0
    return out


def suite_classification(samples: int = 50, seed: int = 60149) -> SuiteResult:
    """Class labels are invariant under invertible linear maps and added
    holomorphic terms, with the case-3 modulus preserved exactly."""
    t0 = time.time()
    out = SuiteResult("classification")
    rng = random.Random(seed)
    labels = [
        ClassLabel(LabelKind.CASE1),
        ClassLabel(LabelKind.CASE2),
        ClassLabel(LabelKind.CASE3, Fraction(9, 4)),
        ClassLabel(LabelKind.CASE4),
    ]
    for label in labels:
        base = normal_form_quadric(label, 2)
        ok = True
        for _ in range(samples):
            T = random_invertible(rng, 2)
            C = random_symmetric(rng, 2)
            q = Quadric(2, base.A, base.B, C)
            got = classify_quadric(transform(q, T))
            if got != label:
                ok = False
                break
        out.add(
            "%s invariant" % label.kind.value,
            ok,
            "%d random transforms with random holomorphic part" % samples,
        )

    q = Quadric(2, A=[[2, 0], [0, 0]], B=[[3, 0], [0, 0]])
    lab = classify_quadric(q)
    out.add(
        "2|z1|^2 + 3 zb1^2 has a^2 = 9/4",
        lab.kind is LabelKind.CASE3 and lab.a_squared == Fraction(9, 4),
    )

    z1, zb1, zb2 = (
        Poly.variable("z1", 2),
        Poly.variable("zb1", 2),
        Poly.variable("zb2", 2),
    )
    inner = zb2 + I * z1 * zb1 + (z1 * zb1) ** 2
    e_part = inner * inner - zb2 * zb2
    m = Manifold(Quadric(2, B=[[ZERO, ZERO], [ZERO, ONE]]), e_part)
    out.add(
        "squared-graph image lands in form 4",
        classify_cr_image(m).form is CRImageForm.FORM4,
    )
    m5 = Manifold(Quadric(2), zb1 ** 3)
    out.add(
        "w = zb1^3 lands in form 5",
        classify_cr_image(m5).form is CRImageForm.FORM5,
    )
    out.elapsed = time.time() - t0
    return out


def _random_ode_tuple(rng, case: str) -> ODEParams:
    kind = rng.random()
    if case == "a":
        s = _small_gauss(rng, zero_ok=False)
        if kind < 0.35:
            m = rng.randint(1, 10)
            return ODEParams(p=s * m, q=ZERO, r=_small_gauss(rng), s=s)
        if kind < 0.45:
            return ODEParams(p=ZERO, q=ZERO, r=_small_gauss(rng), s=s)
        return ODEParams(
            p=_small_gauss(rng), q=_small_gauss(rng), r=_small_gauss(rng), s=s
        )
    if case == "b":
        t = _small_gauss(rng, zero_ok=False)
        if kind < 0.30:
            while True:
                xi1, xi2 = _small_gauss(rng), _small_gauss(rng)
                if xi1 != xi2:
                    break
            e1 = rng.randint(0, 6)
            e2 = rng.randint(0 if e1 else 1, 6)
            s = -t * (xi1 + xi2)
            r = t * xi1 * xi2
            q = t * (e1 + e2)
            p = e1 * t * (xi1 - xi2) - q * xi1
            return ODEParams(p=p, q=q, r=r, s=s, t=t)
        if kind < 0.45:
            # irreducible quadratic with equal integer exponents
            c = rng.choice((2, 3, 5, 7))
            m = rng.randint(1, 6)
            return ODEParams(p=ZERO, q=2 * m * t, r=-c * t, s=ZERO, t=t)
        if kind < 0.55:
            return ODEParams(p=ZERO, q=ZERO, r=_small_gauss(rng), s=_small_gauss(rng), t=t)
        while True:
            p, q = _small_gauss(rng), _small_gauss(rng)
            r, s = _small_gauss(rng), _small_gauss(rng)
            if s * s - 4 * r * t:
                return ODEParams(p=p, q=q, r=r, s=s, t=t)
    t = _small_gauss(rng, zero_ok=False)
    xi = _small_gauss(rng)
    if kind < 0.35:
        m = rng.randint(1, 10)
        q = t * m
        return ODEParams(p=-q * xi, q=q, t=t, xi=xi)
    if kind < 0.45:
        return ODEParams(p=ZERO, q=ZERO, t=t, xi=xi)
    return ODEParams(p=_small_gauss(rng), q=_small_gauss(rng), t=t, xi=xi)


def suite_ode(samples: int = 500, bound: int = 12, seed: int = 70199) -> SuiteResult:
    """Closed-form ODE criteria against the brute-force coefficient solver,
    with witnesses verified by exact substitution."""
    t0 = time.time()
    out = SuiteResult("ode")
    rng = random.Random(seed)
    for case in ("a", "b", "c"):
        agree = True
        skipped = 0
        verdicts = {v: 0 for v in Verdict}
        for _ in range(samples):
            params = _random_ode_tuple(rng, case)
            decision = decide(case, params)
            verdicts[decision.verdict] += 1
            if decision.witness is not None:
                if not ode_residual(case, params, decision.witness).is_zero:
                    agree = False
                    continue
                if decision.witness.total_degree() > bound:
                    skipped += 1
                    continue
            brute = brute_force_ode(case, params, bound)
            if brute.verdict != decision.verdict:
                agree = False
            if brute.witness is not None and not ode_residual(
                case, params, brute.witness
            ).is_zero:
                agree = False
        out.add(
            "case %s agrees with brute force" % case,
            agree,
            "%d samples (%d nonconstant, %d constant-only, %d none, %d beyond bound)"
            % (
                samples,
                verdicts[Verdict.NONCONSTANT_POLY],
                verdicts[Verdict.CONSTANT_ONLY],
                verdicts[Verdict.NO_NONZERO],
                skipped,
            ),
        )
    for label, p, q, r, s in (
        ("p/s = -1/2 has no polynomial solution", 1, 0, 3, -2),
        ("p/s = -1/3 has no polynomial solution", 1, 0, 3, -3),
    ):
        params = ODEParams(
            p=GaussRational(p), q=GaussRational(q), r=GaussRational(r), s=GaussRational(s)
        )
        decision = decide("a", params)
        brute = brute_force_ode("a", params, bound)
        out.add(
            label,
            decision.verdict is Verdict.NO_NONZERO
            and brute.verdict is Verdict.NO_NONZERO,
        )
    out.elapsed = time.time() - t0
    return out


def suite_restriction_cr(samples: int = 100, seed: int = 80209) -> SuiteResult:
    """Restrictions of holomorphic polynomials to w = Q + E always satisfy
    the CR equations exactly."""
    t0 = time.time()
    out = SuiteResult("restriction-cr")
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        n = rng.choice((2, 3))
        while True:
            q = random_quadric(rng, n)
            if rank_condition(q) >= 2:
                break
        m = Manifold(q, random_e_poly(rng, n))
        F = random_holomorphic(rng, n, max_wdeg=6)
        f = F.substitute_w(m.rho())
        if not is_cr(m, f).holds:
            ok = False
            break
    out.add("is_cr(F(z, rho)) holds", ok, "%d random manifolds" % samples)
    out.elapsed = time.time() - t0
    return out


def suite_parametrization(dmax: int = 4) -> SuiteResult:
    """Exceptional normal forms carry exact polynomial parametrizations,
    and the flat rank-two quadric w = zb1^2 + zb2^2 passes the extension
    sweep."""
    t0 = time.time()
    out = SuiteResult("parametrization")
    labels = [
        ClassLabel(LabelKind.CASE1),
        ClassLabel(LabelKind.CASE2),
        ClassLabel(LabelKind.CASE3, Fraction(0)),
        ClassLabel(LabelKind.CASE3, Fraction(9, 4)),
        ClassLabel(LabelKind.CASE4),
    ]
    for label in labels:
        name = label.kind.value
        if label.a_squared is not None:
            name += " a^2=%s" % label.a_squared
        for n in (2, 3):
            par = levi_flat_image_param(label, n)
            out.add("%s parametrized identically (n=%d)" % (name, n), par.verified)
    q = Quadric(2, B=[[ONE, ZERO], [ZERO, ONE]])
    r, all_extend, lin_trivial = _extension_sweep(q, dmax)
    out.add(
        "w = zb1^2 + zb2^2 has rank 2 and extends",
        r == 2 and all_extend and lin_trivial,
        "degrees 1..%d" % dmax,
    )
    out.elapsed = time.time() - t0
    return out


SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "rank-formula": suite_rank_formula,
    "block-ranks": suite_block_ranks,
    "equivalence": suite_equivalence,
    "uniqueness": suite_uniqueness,
    "examples": suite_examples,
    "classification": suite_classification,
    "ode": suite_ode,
    "restriction-cr": suite_restriction_cr,
    "parametrization": suite_parametrization,
}


def run_suite(name: str, **overrides) -> SuiteResult:
    fn = SUITES[name]
    return fn(**overrides)
