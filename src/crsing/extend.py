"""Holomorphic extension of CR functions on quadric models.

Two linear-algebra objects drive everything here.  First, the CR equations
restricted to homogeneous polynomials of degree d form a matrix: columns are
indexed by degree-d monomials in z and zbar, rows by output monomials of
each tangential operator L_{k,l}, and the kernel is exactly the space of
degree-d CR polynomials.  Second, a candidate extension is an ansatz

    sum over |alpha| + 2j = d  of  c_{alpha,j} z^alpha Q^j

and matching monomial coefficients against a target f gives an exact linear
system whose solvability decides extendability degree by degree.

Both matrices are assembled by exponent arithmetic, without polynomial
products.  Column c of the CR matrix is manifold.cr_image of the c-th
monomial: the zbar partials of Q are computed once per matrix, and each
output term is a shifted exponent with coefficient e times a coefficient of
a partial.  Column (alpha, j) of the matching matrix is the list of terms
of Q^j, taken from q.q_powers, with alpha added to their z exponents; it
needs no coefficient arithmetic at all.

Monomial columns are ordered by total z-degree, then lexicographically by
the z exponents, then by the zbar exponents, all ascending.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import add
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebra import GaussRational, Monomial, ONE, Poly, ZERO
from .errors import (
    DegenerateQuadric,
    DimensionMismatch,
    NoExtension,
    NotCR,
    RequiresNGe2,
    WVariablePresent,
)
from .manifold import (
    Quadric,
    cr_image,
    cr_linear_space,
    cr_pairs,
    dot_zbar,
    is_cr,
    quadric_model,
    rank_condition,
    zb_partials,
)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers with the given sum, in
    ascending lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def homogeneous_monomials(n: int, d: int) -> List[Monomial]:
    """All w-free monomials of total degree d, in column order: the loops
    already run through z-degree, then z, then zbar exponents ascending."""
    return [
        Monomial(a, b, 0)
        for zdeg in range(d + 1)
        for a in _compositions(zdeg, n)
        for b in _compositions(d - zdeg, n)
    ]


@dataclass
class CRMatrix:
    """The CR equations on degree-d homogeneous polynomials, as a sparse
    matrix together with its labelling."""

    n: int
    degree: int
    columns: List[Monomial]
    pairs: List[Tuple[int, int]]
    rows: List[Dict[int, GaussRational]]
    row_labels: List[Tuple[int, int, Monomial]]

    def rank(self) -> int:
        return len(self.columns) - len(self.kernel())

    def kernel(self) -> List[List[GaussRational]]:
        return linalg.certified_nullspace(self.rows, len(self.columns))

    def kernel_polys(self) -> List[Poly]:
        """The kernel as polynomials: a basis of the degree-d CR space."""
        return [
            Poly(self.n, {m: c for m, c in zip(self.columns, vec) if c})
            for vec in self.kernel()
        ]


def cr_equation_matrix(q: Quadric, d: int) -> CRMatrix:
    """Assemble the matrix of all L_{k,l} acting on degree-d monomials.

    The operators preserve total degree, so rows are indexed by degree-d
    monomials as well, one block per pair (k, l)."""
    if q.n < 2:
        raise RequiresNGe2("the CR equations need n >= 2")
    if d < 1:
        raise ValueError("degree must be at least 1")
    n = q.n
    monos = homogeneous_monomials(n, d)
    row_of = {m: i for i, m in enumerate(monos)}
    partials = zb_partials(q.q_poly())
    pairs = cr_pairs(n)
    rows: List[Dict[int, GaussRational]] = []
    row_labels: List[Tuple[int, int, Monomial]] = []
    for (k, l) in pairs:
        block: List[Dict[int, GaussRational]] = [dict() for _ in monos]
        for ci, mono in enumerate(monos):
            for om, c in cr_image(partials, k, l, ((mono, 1),)).items():
                block[row_of[om]][ci] = c
        rows.extend(block)
        row_labels.extend((k, l, m) for m in monos)
    return CRMatrix(
        n=n, degree=d, columns=monos, pairs=pairs, rows=rows, row_labels=row_labels
    )


def rank_formula(d: int) -> int:
    """Closed form for the rank of the degree-d CR matrix of the normalized
    n = 2 family Q = |z1|^2 + beta z2 zb1 + delta |z2|^2 with delta != 0."""
    return sum(2 * ((j + 1) // 2) * (d - j + 1) for j in range(1, d + 1))


def block_rank(j: int, d: int) -> int:
    """Predicted rank of the zbar-degree-j block of that matrix: columns of
    zbar-degree j map to rows of zbar-degree j - 1."""
    if not 1 <= j <= d:
        raise ValueError("need 1 <= j <= d")
    if d - j + 1 <= j:
        return (j + 1) * (d - j + 1)
    return j * (d - j + 2)


def block_rank_sum(d: int) -> int:
    return sum(block_rank(j, d) for j in range(1, d + 1))


def kernel_dimension_formula(d: int) -> int:
    """Dimension of degree-d CR polynomials for n = 2 quadrics of stacked
    rank two: the number of weighted-homogeneous monomials z^alpha w^j."""
    return ((d + 2) * (d + 2)) // 4


@dataclass
class CRSpace:
    """A basis of the CR polynomials of one fixed degree on a quadric."""

    degree: int
    basis: List[Poly]

    @property
    def dim(self) -> int:
        return len(self.basis)


def cr_homogeneous_basis(q: Quadric, d: int) -> CRSpace:
    return CRSpace(degree=d, basis=cr_equation_matrix(q, d).kernel_polys())


def weighted_monomial_index(n: int, d: int) -> List[Tuple[Tuple[int, ...], int]]:
    """All (alpha, j) with |alpha| + 2j = d: the unknowns of the matching
    system, ordered by j then alpha."""
    out = []
    for j in range(d // 2 + 1):
        for alpha in _compositions(d - 2 * j, n):
            out.append((alpha, j))
    return out


def matching_matrix(q: Quadric, d: int):
    """The matching system of the degree-d ansatz sum c_{alpha,j} z^alpha Q^j.

    Returns (monos, rows, unknowns): monos is homogeneous_monomials(n, d),
    rows[i] is the sparse row of the coefficient of monos[i], and column c
    holds z^alpha Q^j for (alpha, j) = unknowns[c]."""
    n = q.n
    monos = homogeneous_monomials(n, d)
    row_of = {m: i for i, m in enumerate(monos)}
    unknowns = weighted_monomial_index(n, d)
    qpowers = q.q_powers(d // 2)
    rows: List[Dict[int, GaussRational]] = [dict() for _ in monos]
    for ci, (alpha, j) in enumerate(unknowns):
        # z^alpha Q^j: shift the z exponents of every term of Q^j by alpha
        for m, c in qpowers[j].terms.items():
            rows[row_of[Monomial(tuple(map(add, alpha, m.z)), m.zb, 0)]][ci] = c
    return monos, rows, unknowns


def matching_factorization(q: Quadric, d: int):
    """(monos, unknowns, factorization) of the degree-d matching system.

    The system is eliminated once per quadric and degree, on first use,
    and kept on q; every later right-hand side replays that elimination."""
    hit = q._matching.get(d)
    if hit is None:
        monos, rows, unknowns = matching_matrix(q, d)
        hit = (monos, unknowns, linalg.Factorization(rows, len(unknowns)))
        q._matching[d] = hit
    return hit


@dataclass
class ExtensionResult:
    """A holomorphic polynomial F(z, w) matching f on the quadric."""

    F: Poly
    residual: Poly  # f - F(z, Q), identically zero on success
    unique: bool


def extend_homogeneous(q: Quadric, f: Poly) -> ExtensionResult:
    """Extend one homogeneous polynomial across the quadric.

    Solves the exact linear system matching f against the z^alpha Q^j ansatz
    of the same weighted degree.  A solution is returned only after the
    exact residual f - F(z, Q) has been checked to vanish; a nonzero one is
    an internal fault and raises RuntimeError.  Every F(z, Q) is CR, so that
    identity also certifies f as CR.  The CR equations are evaluated only
    when the system is inconsistent, to tell NotCR from NoExtension; a CR f
    without extension can only occur when the stacked rank is at most one."""
    if q.n < 2:
        raise RequiresNGe2("extension needs n >= 2")
    if not f.is_w_free:
        raise WVariablePresent("f must be a function of z and zbar only")
    if f.n != q.n:
        raise DimensionMismatch("f has dimension %d, quadric %d" % (f.n, q.n))
    if f.is_zero:
        return ExtensionResult(F=Poly.zero(q.n), residual=Poly.zero(q.n), unique=True)
    d = f.total_degree()
    if f.order() != d:
        raise ValueError("f must be homogeneous")
    n = q.n
    monos, unknowns, fact = matching_factorization(q, d)
    sol = fact.solve([f.terms.get(m, ZERO) for m in monos])
    if sol is None:
        if not is_cr(quadric_model(q), f).holds:
            raise NotCR("degree-%d part of f fails the CR equations" % d, degree=d)
        raise NoExtension(
            "no holomorphic polynomial matches f at degree %d" % d, degree=d
        )
    fterms = {}
    for (alpha, j), c in zip(unknowns, sol):
        if c:
            fterms[Monomial(alpha, (0,) * n, j)] = c
    F = Poly(n, fterms)
    residual = f - F.substitute_w(q.q_poly())
    if not residual.is_zero:
        raise RuntimeError(
            "matching solution at degree %d leaves a nonzero residual f - F(z, Q)"
            % d
        )
    return ExtensionResult(F=F, residual=residual, unique=fact.unique)


def extend_polynomial(q: Quadric, f: Poly) -> ExtensionResult:
    """Extend a polynomial degree by degree.

    On a quadric the CR equations preserve degree, so f is CR exactly when
    each homogeneous part is, and each part is extended separately by
    extend_homogeneous.  The first part, in ascending degree, that is not
    CR raises NotCR and the first CR part without extension raises
    NoExtension, each tagged with its degree."""
    if q.n < 2:
        raise RequiresNGe2("extension needs n >= 2")
    if not f.is_w_free:
        raise WVariablePresent("f must be a function of z and zbar only")
    F = Poly.zero(q.n)
    unique = True
    for d, part in f.homogeneous_parts():
        if d == 0:
            F = F + part
            continue
        res = extend_homogeneous(q, part)
        F = F + res.F
        unique = unique and res.unique
    residual = f - F.substitute_w(q.q_poly())
    return ExtensionResult(F=F, residual=residual, unique=unique)


def counterexample_linear(q: Quadric) -> Optional[List[GaussRational]]:
    """A nonzero vector v with v . zbar CR but not holomorphically
    extendable, certified by construction; None when the stacked rank is at
    least two.  Quadrics with no antiholomorphic part are rejected since
    every function is then vacuously CR."""
    if q.n < 2:
        raise RequiresNGe2("needs n >= 2")
    if not q.has_antiholomorphic_part:
        raise DegenerateQuadric("Q has no zbar part; the CR condition is vacuous")
    if rank_condition(q) >= 2:
        return None
    basis = cr_linear_space(q)
    if not basis:
        raise RuntimeError("rank <= 1 quadric with trivial CR linear space")
    v = basis[0]
    chk = is_cr(quadric_model(q), dot_zbar(v))
    if not chk.holds:
        raise RuntimeError("certification failed: v . zbar is not CR")
    return v


def dump_matrix_csv(mat: CRMatrix, fileobj) -> None:
    """Write a CR matrix as CSV.

    The first row holds the column labels (input monomials).  Every other
    row starts with "L(k,l):<output monomial>" followed by the exact
    coefficient strings."""
    from .polyio import format_poly

    def label(mono):
        return format_poly(Poly.from_monomial(mono, ONE, mat.n))

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["row"] + [label(m) for m in mat.columns])
    for (k, l, mono), row in zip(mat.row_labels, mat.rows):
        cells = [str(row.get(j, ZERO)) for j in range(len(mat.columns))]
        writer.writerow(["L(%d,%d):%s" % (k, l, label(mono))] + cells)
