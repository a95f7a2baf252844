"""The four workloads: how their inputs are made, what one operation is,
and how its answer is checked.

Each workload defines

- ``generate(rng, count)``: ``count`` inputs in the benchmark's own terms
  (``(re, im)`` Fraction pairs, exponent tuples, strings), made from the
  seeded ``rng`` only,
- ``prepare(crs, inp)``: the input turned into the objects crsing's API
  takes; done during set-up, outside the timed operations,
- ``run(crs, args)``: one operation, one user question answered end to
  end; the only code that is timed,
- ``check(crs, inp, out)``: raises ``CheckFailed`` unless the answer is
  right, judged by ``exact`` and never by a stored copy of crsing's output.

An expected negative answer is a correct outcome: ``NoExtension`` on a
rank <= 1 quadric, ``DegenerateQuadric`` when Q has no zbar part, and the
``NO_NONZERO`` ODE verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import exact
from exact import G0, QPoly


class CheckFailed(Exception):
    """An answer of crsing did not pass the benchmark's own check."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- shared input helpers ------------------------------------------------

HALF = Fraction(1, 2)
# entries of quadric matrices, as in the paper's random sweeps
ENTRY_POOL = tuple(
    exact.g(re, im) for re, im in ((1, 0), (-1, 0), (0, 1), (0, -1), (HALF, 0), (-HALF, 0))
)


def pool_entry(rng):
    return ENTRY_POOL[rng.randrange(len(ENTRY_POOL))]


def small_gauss(rng, nonzero=False):
    while True:
        c = exact.g(
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))),
        )
        if c != G0 or not nonzero:
            return c


def dense_matrices(rng, n):
    """A, symmetric B and symmetric C, every entry from ENTRY_POOL."""
    A = [[pool_entry(rng) for _ in range(n)] for _ in range(n)]
    B = [[G0] * n for _ in range(n)]
    C = [[G0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = pool_entry(rng)
            C[i][j] = C[j][i] = pool_entry(rng)
    return A, B, C


def stacked_rank(A, B):
    return exact.rank_exact(exact.conj_transpose(A) + [list(r) for r in B])


def to_gauss(crs, c):
    return crs.GaussRational(c[0], c[1])


def to_gauss_matrix(crs, M):
    return [[to_gauss(crs, c) for c in row] for row in M]


def to_crsing_poly(crs, n, terms):
    return crs.Poly(
        n, {crs.Monomial(z, zb, w): to_gauss(crs, c) for (z, zb, w), c in terms.items()}
    )


def from_crsing_poly(p):
    """{(z, zb, w): (re, im)} read off a crsing Poly's terms."""
    return {(m.z, m.zb, m.w): (c.re, c.im) for m, c in p.terms.items()}


def own_poly(p):
    return QPoly.from_gauss(from_crsing_poly(p))


def check_cr_basis(n, rho, basis_terms, d, full_rank):
    """Each element is a degree-d CR polynomial on w = rho, the elements are
    independent, and for stacked rank >= 2 there are as many as the
    paper's count of z^alpha w^j with |alpha| + 2j = d."""
    monos = set()
    for terms in basis_terms:
        expect(terms, "zero basis element at degree %d" % d)
        for z, zb, w in terms:
            expect(w == 0 and sum(z) + sum(zb) == d, "basis element not homogeneous of degree %d" % d)
            monos.add((z, zb, w))
        expect(exact.is_cr(rho, QPoly.from_gauss(terms), n), "basis element fails the CR equations at degree %d" % d)
    index = sorted(monos)
    vectors = [[terms.get(m, G0) for m in index] for terms in basis_terms]
    expect(exact.independent(vectors), "basis elements are dependent at degree %d" % d)
    if full_rank:
        expect(
            len(basis_terms) == exact.holomorphic_count(n, d),
            "degree-%d basis has %d elements, expected %d"
            % (d, len(basis_terms), exact.holomorphic_count(n, d)),
        )


# -- sweep: decide one random quadric -------------------------------------

SWEEP_DEGREES = (1, 2, 3, 4)
# (n, nonzero entries among A and B, nonzero entries among C), visited in
# turn; every rank class occurs, and fixing the counts keeps the cost of
# one round, and so the run-to-run spread, small
SWEEP_STRATA = ((2, 1, 1), (3, 1, 2), (3, 4, 2), (3, 5, 2), (3, 0, 2))


def sparse_matrices(rng, n, nonzero_ab, nonzero_c):
    """A, symmetric B and symmetric C with exactly the given numbers of
    nonzero entries from ENTRY_POOL (B and C counted on and above the
    diagonal)."""
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    slots_ab = [("A", i, j) for i in range(n) for j in range(n)] + [("B", i, j) for i, j in upper]
    slots = rng.sample(slots_ab, nonzero_ab) + [("C", i, j) for i, j in rng.sample(upper, nonzero_c)]
    M = {key: [[G0] * n for _ in range(n)] for key in "ABC"}
    for key, i, j in slots:
        M[key][i][j] = pool_entry(rng)
        if key != "A":
            M[key][j][i] = M[key][i][j]
    return M["A"], M["B"], M["C"]


def sweep_generate(rng, count):
    out = []
    for k in range(count):
        n, nonzero_ab, nonzero_c = SWEEP_STRATA[k % len(SWEEP_STRATA)]
        A, B, C = sparse_matrices(rng, n, nonzero_ab, nonzero_c)
        while True:
            T = [[small_gauss(rng) for _ in range(n)] for _ in range(n)]
            if exact.rank_exact(T) == n:
                break
        out.append({"n": n, "A": A, "B": B, "C": C, "T": T})
    return out


def sweep_prepare(crs, inp):
    return (inp["n"],) + tuple(to_gauss_matrix(crs, inp[k]) for k in "ABC")


def sweep_run(crs, args):
    q = crs.Quadric(*args)
    rank = crs.rank_condition(q)
    degrees = []
    for d in SWEEP_DEGREES:
        space = crs.cr_homogeneous_basis(q, d)
        extensions = []
        for f in space.basis:
            try:
                extensions.append(crs.extend_homogeneous(q, f).F)
            except crs.NoExtension:
                extensions.append(None)
        degrees.append((d, space.basis, extensions))
    linear = crs.cr_linear_space(q)
    try:
        witness = crs.counterexample_linear(q)
        degenerate = False
    except crs.DegenerateQuadric:
        witness, degenerate = None, True
    label = crs.classify_quadric(q) if rank == 1 else None
    return {
        "quadric": q,
        "rank": rank,
        "degrees": degrees,
        "linear": linear,
        "witness": witness,
        "degenerate": degenerate,
        "label": label,
    }


def sweep_check(crs, inp, out):
    n, A, B, C = inp["n"], inp["A"], inp["B"], inp["C"]
    rank = stacked_rank(A, B)
    expect(out["rank"] == rank, "stacked rank %d, expected %d" % (out["rank"], rank))
    no_zbar = all(c == G0 for row in A + B for c in row)
    Q = exact.quadric_poly(n, A, B, C)
    any_refused = False
    for d, basis, extensions in out["degrees"]:
        terms = [from_crsing_poly(f) for f in basis]
        check_cr_basis(n, Q, terms, d, rank >= 2)
        if no_zbar:
            # every L_{k,l} vanishes, so every monomial is CR
            expect(len(terms) == exact.homogeneous_monomial_count(n, d), "rank-0 basis incomplete")
        for f, F in zip(terms, extensions):
            if F is None:
                any_refused = True
                continue
            own_F = own_poly(F)
            expect(all(sum(zb) == 0 for _, zb, _ in own_F.terms), "extension depends on zbar")
            expect(own_F.substitute_w(Q) == QPoly.from_gauss(f), "F(z, Q) != f at degree %d" % d)
    expect(any_refused == (rank <= 1), "NoExtension occurred %s rank %d" % ("with" if any_refused else "without", rank))

    zb_lin = [((0,) * n, tuple(int(k == j) for k in range(n)), 0) for j in range(n)]

    def linear_poly(v):
        return QPoly.from_gauss({m: (c.re, c.im) for m, c in zip(zb_lin, v) if c})

    linear = out["linear"]
    for v in linear:
        expect(exact.is_cr(Q, linear_poly(v), n), "v . zbar from cr_linear_space is not CR")
    expect(exact.independent([[(c.re, c.im) for c in v] for v in linear]), "linear CR space basis dependent")
    expect((not linear) == (rank >= 2), "linear CR space trivial exactly when rank >= 2")
    if no_zbar:
        expect(len(linear) == n and out["degenerate"], "rank-0 quadric not reported degenerate")
        return
    expect(not out["degenerate"], "DegenerateQuadric on a quadric with a zbar part")
    v = out["witness"]
    if rank >= 2:
        expect(v is None, "counterexample returned for rank >= 2")
        expect(out["label"] is None, "classified a rank >= 2 quadric as rank one")
        return
    expect(v is not None and any(v), "no counterexample for rank %d" % rank)
    expect(exact.is_cr(Q, linear_poly(v), n), "counterexample v . zbar is not CR")
    f = crs.Poly(n, {crs.Monomial(*m): c for m, c in zip(zb_lin, v) if c})
    try:
        crs.extend_homogeneous(out["quadric"], f)
        raise CheckFailed("counterexample v . zbar was extended at degree 1")
    except crs.NoExtension:
        pass
    check_label_invariance(crs, inp, out["label"])


def check_label_invariance(crs, inp, label):
    """The rank-one label is unchanged by z -> T z, with T* A T, T^t B T and
    T^t C T computed here."""
    n, T = inp["n"], inp["T"]
    expect(label.kind.value in ("case1", "case2", "case3", "case4"), "rank-one label %s" % label.kind.value)
    Tt, Ts = exact.transpose(T), exact.conj_transpose(T)
    A2 = exact.matmul(exact.matmul(Ts, inp["A"]), T)
    B2 = exact.matmul(exact.matmul(Tt, inp["B"]), T)
    C2 = exact.matmul(exact.matmul(Tt, inp["C"]), T)
    moved = crs.classify_quadric(
        crs.Quadric(n, *(to_gauss_matrix(crs, M) for M in (A2, B2, C2)))
    )
    expect(
        (moved.kind, moved.a_squared) == (label.kind, label.a_squared),
        "label %s changed to %s under a change of variables" % (label.describe(), moved.describe()),
    )


# -- basis: cr-basis through the CLI on dense quadrics ---------------------

# (n, degree) points visited in turn; see README for why these sizes
BASIS_GRID = ((2, 5), (4, 2), (3, 3), (2, 6), (5, 2))


def coeff_text(c):
    """The manifold JSON's coefficient string: '1/2', '-i', '1-3/2i'."""
    re_, im_ = c
    mag = "" if abs(im_) == 1 else str(abs(im_))
    im_text = "%s%si" % ("-" if im_ < 0 else "+", mag)
    if im_ == 0:
        return str(re_)
    if re_ == 0:
        return im_text.lstrip("+")
    return str(re_) + im_text


def basis_generate(rng, count):
    out = []
    for k in range(count):
        n, d = BASIS_GRID[k % len(BASIS_GRID)]
        while True:
            A, B, C = dense_matrices(rng, n)
            if stacked_rank(A, B) >= 2:
                break
        doc = json.dumps(
            {key: [[coeff_text(c) for c in row] for row in M] for key, M in zip("ABC", (A, B, C))}
            | {"n": n},
            sort_keys=True,
        )
        out.append({"n": n, "degree": d, "A": A, "B": B, "C": C, "doc": doc})
    return out


def basis_prepare(crs, inp):
    return inp["doc"], ["cr-basis", "--manifold", "-", "--degree", str(inp["degree"]), "--json"]


def basis_run(crs, args):
    doc, argv = args
    stdout = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(stdout):
            code = crs.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, stdout.getvalue()


def basis_check(crs, inp, out):
    code, text = out
    n, d = inp["n"], inp["degree"]
    expect(code == 0, "cr-basis exited %s" % code)
    doc = json.loads(text)
    expect(doc["command"] == "cr-basis" and doc["ok"] is True, "cr-basis reported failure")
    res = doc["result"]
    ncols = exact.homogeneous_monomial_count(n, d)
    expect(res["degree"] == d, "wrong degree in output")
    expect(res["matrix_shape"] == [n * (n - 1) // 2 * ncols, ncols], "matrix shape %s" % res["matrix_shape"])
    expect(res["dimension"] == len(res["basis"]), "dimension disagrees with the basis")
    expect(res["matrix_rank"] + res["dimension"] == ncols, "rank + dimension != columns")
    terms = [exact.parse_poly(text, n) for text in res["basis"]]
    Q = exact.quadric_poly(n, inp["A"], inp["B"], inp["C"])
    check_cr_basis(n, Q, terms, d, True)


# -- formal: order-by-order extension of a planted holomorphic F ----------

# (n, nonzero entries among A and B, nonzero entries among C, shape of the
# planted F as (|alpha|, j) per term z^alpha w^j), visited in turn; the
# first term fixes the weighted degree of F
FORMAL_STRATA = (
    (2, 3, 1, ((4, 3), (4, 1), (3, 0))),
    (3, 4, 1, ((2, 3), (2, 1), (3, 0))),
    (2, 3, 1, ((2, 4), (5, 1), (4, 0))),
)


def formal_generate(rng, count):
    return [formal_input(rng, *FORMAL_STRATA[k % len(FORMAL_STRATA)]) for k in range(count)]


def formal_input(rng, n, nonzero_ab, nonzero_c, shape):
    """A rank >= 2 manifold w = Q + E with a cubic and a quartic term in E,
    a planted holomorphic F of the given shape, f = F(z, rho) computed
    here, and an order N at least the weighted degree of F."""
    while True:
        A, B, C = sparse_matrices(rng, n, nonzero_ab, nonzero_c)
        if stacked_rank(A, B) >= 2:
            break
    E = {}
    for d in (3, 4):
        z = _random_exponents(rng, n, rng.randint(0, d))
        E[(z, _random_exponents(rng, n, d - sum(z)), 0)] = pool_entry(rng)
    F = {}
    for size, j in shape:
        F[(_random_exponents(rng, n, size), (0,) * n, j)] = small_gauss(rng, nonzero=True)
    rho = exact.quadric_poly(n, A, B, C) + QPoly.from_gauss(E)
    f = QPoly.from_gauss(F).substitute_w(rho).to_gauss()
    top = shape[0][0] + 2 * shape[0][1]
    return {"n": n, "A": A, "B": B, "C": C, "E": E, "F": F, "f": f, "order": top + rng.randint(0, 2)}


def _random_exponents(rng, n, total):
    e = [0] * n
    for _ in range(total):
        e[rng.randrange(n)] += 1
    return tuple(e)


def formal_prepare(crs, inp):
    n = inp["n"]
    return (
        (n,) + tuple(to_gauss_matrix(crs, inp[k]) for k in "ABC"),
        to_crsing_poly(crs, n, inp["E"]),
        to_crsing_poly(crs, n, inp["f"]),
        inp["order"],
    )


def formal_run(crs, args):
    quadric, E, f, order = args
    m = crs.Manifold(crs.Quadric(*quadric), E)
    return crs.formal_extend(m, f, order)


def formal_check(crs, inp, out):
    got = {m: c for m, c in from_crsing_poly(out.F).items()}
    expect(got == inp["F"], "recovered F differs from the planted F")
    expect(out.residual.is_zero and out.residual_order is None, "nonzero residual")
    expect(out.certified and out.unique, "result not certified or not unique")


# -- ode: closed-form criteria against the brute-force oracle --------------

ODE_BOUND = 12


def ode_generate(rng, count):
    """Tuples for cases a, b, c in turn.  ``planted`` is the verdict the
    construction forces, or None where only the oracle can tell; a nonzero
    solution of degree k forces q = k t (k s in case a) from the leading
    coefficients, which decides the tuples drawn at random."""
    out = []
    for k in range(count):
        case = "abc"[k % 3]
        out.append(dict(case=case, **_ode_tuple(rng, case)))
    return out


def _ode_tuple(rng, case):
    kind = rng.random()
    g0 = G0
    if case == "a":
        s = small_gauss(rng, nonzero=True)
        r = small_gauss(rng)
        if kind < 0.35:
            m = rng.randint(1, 10)
            return _ode(p=exact.gmul(s, exact.g(m)), q=g0, r=r, s=s, planted="nonconstant_poly", degree=m)
        if kind < 0.45:
            return _ode(p=g0, q=g0, r=r, s=s, planted="constant_only")
        p, q = small_gauss(rng), small_gauss(rng)
        return _ode(p=p, q=q, r=r, s=s, planted=_leading_verdict("a", p, q, s))
    t = small_gauss(rng, nonzero=True)
    if case == "b":
        if kind < 0.30:
            while True:
                xi1, xi2 = small_gauss(rng), small_gauss(rng)
                if xi1 != xi2:
                    break
            e1 = rng.randint(0, 6)
            e2 = rng.randint(0 if e1 else 1, 6)
            s = exact.gmul(t, exact.gneg(exact.gadd(xi1, xi2)))
            r = exact.gmul(t, exact.gmul(xi1, xi2))
            q = exact.gmul(t, exact.g(e1 + e2))
            p = exact.gsub(exact.gmul(exact.gmul(exact.g(e1), t), exact.gsub(xi1, xi2)), exact.gmul(q, xi1))
            return _ode(p=p, q=q, r=r, s=s, t=t, planted="nonconstant_poly", degree=e1 + e2)
        if kind < 0.45:
            # R = t (eta^2 - c) with c not a square: witness R^m
            c, m = rng.choice((2, 3, 5, 7)), rng.randint(1, 6)
            q = exact.gmul(t, exact.g(2 * m))
            return _ode(p=g0, q=q, r=exact.gmul(t, exact.g(-c)), s=g0, t=t, planted="nonconstant_poly", degree=2 * m)
        while True:
            r, s = small_gauss(rng), small_gauss(rng)
            if exact.gsub(exact.gmul(s, s), exact.gmul(exact.g(4), exact.gmul(r, t))) != G0:
                break
        if kind < 0.55:
            return _ode(p=g0, q=g0, r=r, s=s, t=t, planted="constant_only")
        p, q = small_gauss(rng), small_gauss(rng)
        return _ode(p=p, q=q, r=r, s=s, t=t, planted=_leading_verdict("b", p, q, t))
    xi = small_gauss(rng)
    if kind < 0.35:
        m = rng.randint(1, 10)
        q = exact.gmul(t, exact.g(m))
        return _ode(p=exact.gneg(exact.gmul(q, xi)), q=q, t=t, xi=xi, planted="nonconstant_poly", degree=m)
    if kind < 0.45:
        return _ode(p=g0, q=g0, t=t, xi=xi, planted="constant_only")
    p, q = small_gauss(rng), small_gauss(rng)
    return _ode(p=p, q=q, t=t, xi=xi, planted=_leading_verdict("c", p, q, t))


def _ode(p, q, r=G0, s=G0, t=G0, xi=None, planted=None, degree=None):
    return {"p": p, "q": q, "r": r, "s": s, "t": t, "xi": xi, "planted": planted, "degree": degree}


def _leading_verdict(case, p, q, lead):
    """The verdict forced by leading coefficients alone, or None.

    A solution of degree k with leading coefficient c gives q c = 0 and
    p c = k s c in case a, and q c = k t c in cases b and c."""
    if p == G0 and q == G0:
        return "constant_only"
    if case == "a":
        if q != G0:
            return "no_nonzero"
        k = exact.gint(exact.gdiv(p, lead))
    else:
        k = exact.gint(exact.gdiv(q, lead))
        if k == 0:  # q = 0 but p != 0: not even constants
            return "no_nonzero"
    return "no_nonzero" if k is None or k < 0 else None


def ode_prepare(crs, inp):
    fields = {k: to_gauss(crs, inp[k]) for k in ("p", "q", "r", "s", "t")}
    xi = None if inp["xi"] is None else to_gauss(crs, inp["xi"])
    return inp["case"], crs.ODEParams(xi=xi, **fields)


def ode_run(crs, args):
    case, params = args
    return crs.decide(case, params), crs.brute_force_ode(case, params, ODE_BOUND)


def ode_check(crs, inp, out):
    decision, brute = out
    for name, res in (("decide", decision), ("brute force", brute)):
        if res.verdict.value == "nonconstant_poly":
            coeffs = witness_coeffs(res.witness)
            expect(len(coeffs) >= 2, "%s witness is constant" % name)
            expect(ode_witness_ok(inp, coeffs), "%s witness does not solve the ODE" % name)
        else:
            expect(res.witness is None, "%s returned a witness with verdict %s" % (name, res.verdict.value))
    if inp["planted"] is not None:
        expect(decision.verdict.value == inp["planted"], "verdict %s, planted %s" % (decision.verdict.value, inp["planted"]))
    if inp["degree"] is not None:
        expect(len(witness_coeffs(decision.witness)) - 1 == inp["degree"], "witness degree differs from the planted one")
    wdeg = 0 if decision.witness is None else len(witness_coeffs(decision.witness)) - 1
    if wdeg <= ODE_BOUND:
        expect(brute.verdict == decision.verdict, "decide %s but brute force %s" % (decision.verdict.value, brute.verdict.value))


def witness_coeffs(poly):
    """Coefficient list in eta (crsing writes eta as z1)."""
    terms = {m.z[0]: (c.re, c.im) for m, c in poly.terms.items()}
    return [terms.get(k, G0) for k in range(max(terms, default=-1) + 1)]


def ode_witness_ok(inp, coeffs):
    """(p + q eta) zeta - R(eta) zeta' vanishes at deg + 2 distinct points;
    the residual has degree at most deg + 1, so it vanishes identically."""
    case = inp["case"]
    deriv = [exact.gmul(exact.g(k), c) for k, c in enumerate(coeffs)][1:]
    for x in range(len(coeffs) + 1):
        x = exact.g(x)
        if case == "a":
            R = exact.gadd(inp["r"], exact.gmul(inp["s"], x))
        elif case == "b":
            R = exact.eval_poly1([inp["r"], inp["s"], inp["t"]], x)
        else:
            shifted = exact.gsub(x, inp["xi"])
            R = exact.gmul(inp["t"], exact.gmul(shifted, shifted))
        lhs = exact.gmul(exact.gadd(inp["p"], exact.gmul(inp["q"], x)), exact.eval_poly1(coeffs, x))
        if exact.gsub(lhs, exact.gmul(R, exact.eval_poly1(deriv, x))) != G0:
            return False
    return True


WORKLOADS = {
    "sweep": (sweep_generate, sweep_prepare, sweep_run, sweep_check),
    "basis": (basis_generate, basis_prepare, basis_run, basis_check),
    "formal": (formal_generate, formal_prepare, formal_run, formal_check),
    "ode": (ode_generate, ode_prepare, ode_run, ode_check),
}
