"""Differential tests of the certified extension step and its neighbours.

extend_homogeneous solves the matching system first and returns an answer
only when the exact residual f - F(z, Q) vanishes, which certifies f as CR;
the CR equations are evaluated only when the system is inconsistent.  The
reference below is the other order: test CR-ness first, then solve the
augmented matching system by a fresh elimination.  Both must agree on F,
uniqueness, exception type and degree.

cr_linear_space and brute_force_ode are checked the same way against the
constructions they replaced: a dict of zbar partials for the CR linear space,
and exact ode_residual products for the columns of the ODE system.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crsing import (
    GaussRational,
    Monomial,
    ODEParams,
    Poly,
    Quadric,
    Verdict,
    brute_force_ode,
    cr_equation_matrix,
    cr_linear_space,
    extend_homogeneous,
    extend_polynomial,
    formal_extend,
    is_cr,
    ode_residual,
    parse_poly,
    quadric_model,
    rank_condition,
)
from crsing import extend as extend_module
from crsing.errors import NoExtension, NotCR
from crsing.extend import matching_matrix, weighted_monomial_index
from crsing.linalg import nullspace_sparse, rref_sparse
from crsing.manifold import Manifold, zb_partials

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

G = GaussRational
ZERO = G(0)
COEFFS = st.sampled_from(
    [
        GaussRational(1),
        GaussRational(-1),
        GaussRational(2),
        GaussRational(0, 1),
        GaussRational(Fraction(1, 2), -3),
        GaussRational(Fraction(-2, 3)),
    ]
)


@st.composite
def sparse_quadrics(draw, n_min=2, n_max=3):
    """Quadrics whose A and B together hold at most a few nonzero entries,
    so that stacked ranks 0, 1 and 2 all occur; C is drawn freely."""
    n = draw(st.integers(n_min, n_max))
    A = [[ZERO] * n for _ in range(n)]
    B = [[ZERO] * n for _ in range(n)]
    C = [[ZERO] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(COEFFS)
        if draw(st.booleans()):
            A[i][j] = c
        else:
            B[i][j] = B[j][i] = c
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                C[i][j] = C[j][i] = draw(COEFFS)
    return Quadric(n, A, B, C)


def _random_homogeneous(draw, q, d):
    monos = extend_module.homogeneous_monomials(q.n, d)
    picks = draw(st.lists(st.integers(0, len(monos) - 1), min_size=1, max_size=3))
    return Poly(q.n, {monos[i]: draw(COEFFS) for i in picks})


def _restriction(draw, q, d):
    """F(z, Q) for a random holomorphic F of weighted degree d."""
    unknowns = weighted_monomial_index(q.n, d)
    picks = draw(st.lists(st.integers(0, len(unknowns) - 1), min_size=1, max_size=3))
    F = Poly(
        q.n,
        {
            Monomial(unknowns[i][0], (0,) * q.n, unknowns[i][1]): draw(COEFFS)
            for i in picks
        },
    )
    return F.substitute_w(q.q_poly())


def _kernel_element(draw, q, d):
    basis = cr_equation_matrix(q, d).kernel_polys()
    if not basis:
        return Poly.zero(q.n)
    f = Poly.zero(q.n)
    for i in draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=2)):
        f = f + draw(COEFFS) * basis[i]
    return f


def _part(draw, q, d):
    """A degree-d homogeneous f: a CR-kernel element, a random polynomial
    (rarely CR) or a restriction F(z, Q)."""
    kind = draw(st.sampled_from((_kernel_element, _random_homogeneous, _restriction)))
    return kind(draw, q, d)


@st.composite
def homogeneous_inputs(draw):
    q = draw(sparse_quadrics())
    return q, _part(draw, q, draw(st.integers(1, 3)))


@st.composite
def polynomial_inputs(draw):
    """A quadric and a sum of parts of distinct degrees 0..3."""
    q = draw(sparse_quadrics())
    f = Poly.zero(q.n)
    for d in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
        if d == 0:
            f = f + Poly.constant(draw(COEFFS), q.n)
        else:
            f = f + _part(draw, q, d)
    return q, f


# -- the reference flow: CR test first, then a fresh solve ----------------


def reference_extend_homogeneous(q, f):
    """(F, unique) by testing CR-ness first and then eliminating the
    augmented matching system [M | f] afresh."""
    if f.is_zero:
        return Poly.zero(q.n), True
    d = f.total_degree()
    if not is_cr(quadric_model(q), f).holds:
        raise NotCR("not CR", degree=d)
    monos, rows, unknowns = matching_matrix(q, d)
    k = len(unknowns)
    augmented = [dict(row) for row in rows]
    for row, m in zip(augmented, monos):
        c = f.terms.get(m)
        if c:
            row[k] = c
    red, pivots = rref_sparse(augmented, k + 1)
    if k in pivots:
        raise NoExtension("no extension", degree=d)
    F = Poly(
        q.n,
        {
            Monomial(unknowns[pc][0], (0,) * q.n, unknowns[pc][1]): red[i].get(k, ZERO)
            for i, pc in enumerate(pivots)
        },
    )
    return F, len(pivots) == k


def reference_extend_polynomial(q, f):
    F, unique = Poly.zero(q.n), True
    for d, part in f.homogeneous_parts():
        if d == 0:
            F = F + part
            continue
        G, u = reference_extend_homogeneous(q, part)
        F, unique = F + G, unique and u
    return F, unique


def outcome(fn, *args):
    """("ok", F, unique) or (exception type, degree)."""
    try:
        res = fn(*args)
    except (NotCR, NoExtension) as e:
        return type(e), e.degree
    if isinstance(res, tuple):
        return ("ok",) + res
    assert res.residual.is_zero
    return "ok", res.F, res.unique


class TestExtensionDifferential:
    @SETTINGS
    @given(homogeneous_inputs())
    def test_extend_homogeneous_matches_cr_first_flow(self, qf):
        q, f = qf
        assert outcome(extend_homogeneous, q, f) == outcome(
            reference_extend_homogeneous, q, f
        )

    @SETTINGS
    @given(polynomial_inputs())
    def test_extend_polynomial_matches_cr_first_flow(self, qf):
        q, f = qf
        assert outcome(extend_polynomial, q, f) == outcome(
            reference_extend_polynomial, q, f
        )

    def test_inputs_reach_every_rank_and_outcome(self):
        ranks, outcomes = set(), set()

        @settings(max_examples=80, deadline=None, database=None, derandomize=True)
        @given(homogeneous_inputs())
        def collect(qf):
            q, f = qf
            ranks.add(min(rank_condition(q), 2))
            outcomes.add(outcome(extend_homogeneous, q, f)[0])

        collect()
        assert ranks == {0, 1, 2}
        assert outcomes == {"ok", NotCR, NoExtension}


class TestCrEquationsOnlyOnFailure:
    """is_cr runs only when the matching system is inconsistent."""

    @pytest.fixture
    def is_cr_calls(self, monkeypatch):
        calls = []

        def counting(m, f):
            calls.append(f)
            return is_cr(m, f)

        monkeypatch.setattr(extend_module, "is_cr", counting)
        return calls

    def test_success_evaluates_no_cr_equations(self, is_cr_calls):
        q = Quadric(2, A=[[1, 0], [0, 1]])
        Q = q.q_poly()
        f = 3 + parse_poly("z1", 2) + Q + Q * Q
        assert extend_polynomial(q, f).F == parse_poly("3 + z1 + w + w^2", 2)
        m = Manifold(q, parse_poly("zb1^2*z2", 2))
        assert formal_extend(m, m.rho() + m.rho() ** 2, 6).certified
        assert is_cr_calls == []

    @pytest.mark.parametrize(
        "f, error, degree",
        [("z1 + zb2", NotCR, 1), ("z1^2 + zb1", NoExtension, 1)],
    )
    def test_failure_evaluates_them_once(self, is_cr_calls, f, error, degree):
        q = Quadric(2, A=[[0, 1], [0, 0]])
        with pytest.raises(error) as exc:
            extend_polynomial(q, parse_poly(f, 2))
        assert exc.value.degree == degree
        assert len(is_cr_calls) == 1


# -- cr_linear_space against the dict-of-partials construction ------------


def reference_cr_linear_space(q):
    """L_{k,l}(v . zbar) = Q_zb_l v_k - Q_zb_k v_l, coefficient by
    coefficient, with the partials kept as dicts."""
    n = q.n
    partials = [dict(p) for p in zb_partials(q.q_poly())]
    rows = []
    for k in range(n):
        for l in range(k + 1, n):
            for mono in sorted(
                set(partials[l]) | set(partials[k]), key=lambda mm: mm.canonical_key()
            ):
                row = {}
                ck = partials[l].get(mono, ZERO)
                cl = partials[k].get(mono, ZERO)
                if ck:
                    row[k] = ck
                if cl:
                    row[l] = -cl
                if row:
                    rows.append(row)
    return nullspace_sparse(rows, n)


@st.composite
def dense_quadrics(draw):
    n = draw(st.integers(2, 4))
    entries = st.one_of(st.just(ZERO), COEFFS)
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    B = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw(entries)
    return Quadric(n, A, B)


@st.composite
def rank_one_quadrics(draw):
    """A = a b^t or B = a a^t with every entry of a nonzero: the CR linear
    space is a line spanned by a vector with no zero entry."""
    n = draw(st.integers(2, 4))
    a = [draw(COEFFS) for _ in range(n)]
    b = [draw(COEFFS)] + [draw(st.one_of(st.just(ZERO), COEFFS)) for _ in range(n - 1)]
    if draw(st.booleans()):
        return Quadric(n, A=[[x * y for y in b] for x in a])
    return Quadric(n, B=[[x * y for y in a] for x in a])


class TestCrLinearSpace:
    @SETTINGS
    @given(st.one_of(dense_quadrics(), sparse_quadrics(2, 4), rank_one_quadrics()))
    def test_matches_partials_reference(self, q):
        assert cr_linear_space(q) == reference_cr_linear_space(q)

    @SETTINGS
    @given(rank_one_quadrics())
    def test_rank_one_lines(self, q):
        line = cr_linear_space(q)
        assert line == reference_cr_linear_space(q)
        assert len(line) == 1 and all(line[0])


# -- brute_force_ode against the ode_residual column build ----------------


def eta():
    return Poly.variable("z1", 1)


def reference_brute_force_ode(case, params, D):
    """The ODE system with column m the exact residual of eta^m."""
    columns = []
    for m in range(D + 1):
        res = ode_residual(case, params, eta() ** m)
        columns.append({mono.z[0]: c for mono, c in res.terms.items()})
    rows = [dict() for _ in range(D + 2)]
    for m, col in enumerate(columns):
        for out_deg, c in col.items():
            rows[out_deg][m] = c
    kernel = nullspace_sparse(rows, D + 1)
    if not kernel:
        return Verdict.NO_NONZERO, None
    best = max(kernel, key=lambda v: max((i for i, c in enumerate(v) if c), default=0))
    top = max((i for i, c in enumerate(best) if c), default=0)
    if top == 0:
        return Verdict.CONSTANT_ONLY, None
    witness = Poly.zero(1)
    for i, c in enumerate(best):
        witness = witness + Poly.constant(c, 1) * eta() ** i
    return Verdict.NONCONSTANT_POLY, witness


SMALL = st.sampled_from(
    [GaussRational(k) for k in (-2, -1, 0, 1, 2, 3)]
    + [GaussRational(Fraction(1, 2)), GaussRational(0, 1), GaussRational(1, -2)]
)


@st.composite
def ode_instances(draw):
    """A case and parameters: either arbitrary, or planted so that a
    polynomial solution of degree 1..6 exists."""
    case = draw(st.sampled_from(("a", "b", "c")))
    t = draw(SMALL.filter(bool))
    if not draw(st.booleans()):
        p, q, r, s, xi = (draw(SMALL) for _ in range(5))
        return case, ODEParams(p=p, q=q, r=r, s=s, t=t, xi=xi)
    if case == "a":
        s, r, m = t, draw(SMALL), draw(st.integers(1, 6))
        return case, ODEParams(p=m * s, q=ZERO, r=r, s=s)
    xi1, e1, e2 = draw(SMALL), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    if case == "c":
        return case, ODEParams(p=-(e2 * t * xi1), q=e2 * t, t=t, xi=xi1)
    xi2 = draw(SMALL.filter(lambda x: x != xi1))
    # zeta = (eta - xi1)^e1 (eta - xi2)^e2 solves the case-b equation
    return case, ODEParams(
        p=-(t * (e1 * xi2 + e2 * xi1)),
        q=t * (e1 + e2),
        r=t * xi1 * xi2,
        s=-(t * (xi1 + xi2)),
        t=t,
    )


class TestBruteForceOde:
    @settings(max_examples=60, deadline=None)
    @given(ode_instances(), st.integers(0, 12))
    def test_matches_residual_columns(self, instance, D):
        case, params = instance
        got = brute_force_ode(case, params, D)
        assert (got.verdict, got.witness) == reference_brute_force_ode(case, params, D)

    @pytest.mark.parametrize(
        "case, params",
        [
            # zeta = (1 + i + eta)^3
            ("a", ODEParams(p=G(3), q=ZERO, r=G(1, 1), s=G(1))),
            # R = (eta - 2)(eta + 1), zeta = (eta - 2)(eta + 1)^2
            ("b", ODEParams(p=G(-3), q=G(3), r=G(-2), s=G(-1), t=G(1))),
            # zeta = (eta - 1)^2
            ("c", ODEParams(p=G(-2), q=G(2), t=G(1), xi=G(1))),
        ],
    )
    def test_every_bound_on_planted_solutions(self, case, params):
        verdicts = set()
        for D in range(13):
            got = brute_force_ode(case, params, D)
            assert (got.verdict, got.witness) == reference_brute_force_ode(case, params, D)
            verdicts.add(got.verdict)
        assert Verdict.NONCONSTANT_POLY in verdicts
