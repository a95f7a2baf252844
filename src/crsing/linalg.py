"""Exact linear algebra over Gaussian rationals.

Matrices are lists of rows; rows are lists of GaussRational entries.  The
elimination routines work on sparse rows (dicts keyed by column index) so
that the large, mostly empty constraint matrices stay cheap.  Pivots are
always the first usable candidate, which makes every result deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .algebra import GaussRational, ONE, ZERO


def to_sparse(dense) -> List[Dict[int, GaussRational]]:
    return [{j: a for j, a in enumerate(row) if a} for row in dense]


def rref_sparse(rows, ncols: int):
    """Reduced row echelon form in place on a list of sparse rows.

    Returns (rows, pivot_cols).  After the call, rows[i] for i below the
    rank has leading one in pivot_cols[i]; later rows vanish on the first
    ncols columns (entries beyond ncols, if any, are left as reduced).
    """
    rows = [dict(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_at = None
        for i in range(r, len(rows)):
            if rows[i].get(c):
                pivot_at = i
                break
        if pivot_at is None:
            continue
        rows[r], rows[pivot_at] = rows[pivot_at], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != ONE:
            inv = ONE / pv
            for j in list(prow):
                prow[j] = prow[j] * inv
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i].get(c)
            if not f:
                continue
            tgt = rows[i]
            for j, a in prow.items():
                acc = tgt.get(j)
                s = -f * a if acc is None else acc - f * a
                if s:
                    tgt[j] = s
                elif acc is not None:
                    del tgt[j]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_sparse(rows, ncols: int) -> int:
    _, pivots = rref_sparse(rows, ncols)
    return len(pivots)


def nullspace_sparse(rows, ncols: int) -> List[List[GaussRational]]:
    """Deterministic kernel basis, one vector per free column in column
    order, normalized with a 1 in the free position."""
    red, pivots = rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for i, pc in enumerate(pivots):
            a = red[i].get(f)
            if a:
                vec[pc] = -a
        basis.append(vec)
    return basis


def solve_many_sparse(rows, ncols: int, rhs_list):
    """Solve A x = b for several right-hand sides with one elimination.

    rows are sparse rows of A with ncols columns; rhs_list is a list of
    dense column vectors.  Returns (solutions, unique) where solutions[k]
    is a dense solution vector with free variables set to zero, or None if
    that system is inconsistent.  unique is True when A has full column
    rank.
    """
    aug = []
    for i, row in enumerate(rows):
        r = dict(row)
        for k, b in enumerate(rhs_list):
            if i < len(b) and b[i]:
                r[ncols + k] = b[i]
        aug.append(r)
    red, pivots = rref_sparse(aug, ncols)
    nrhs = len(rhs_list)
    bad = [False] * nrhs
    for row in red[len(pivots):]:
        for j in row:
            if j >= ncols and row[j]:
                bad[j - ncols] = True
    solutions = []
    for k in range(nrhs):
        if bad[k]:
            solutions.append(None)
            continue
        x = [ZERO] * ncols
        for i, pc in enumerate(pivots):
            a = red[i].get(ncols + k)
            if a:
                x[pc] = a
        solutions.append(x)
    return solutions, len(pivots) == ncols


# -- dense conveniences ----------------------------------------------


def rank(dense) -> int:
    if not dense:
        return 0
    return rank_sparse(to_sparse(dense), len(dense[0]))


def nullspace(dense) -> List[List[GaussRational]]:
    if not dense:
        return []
    return nullspace_sparse(to_sparse(dense), len(dense[0]))


def zeros(n: int, m: Optional[int] = None):
    m = n if m is None else m
    return [[ZERO] * m for _ in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("incompatible shapes")
    cols = len(b[0])
    out = []
    for row in a:
        orow = []
        for j in range(cols):
            s = ZERO
            for k in range(inner):
                if row[k] and b[k][j]:
                    s = s + row[k] * b[k][j]
            orow.append(s)
        out.append(orow)
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    if not a:
        return []
    return [[x.conjugate() for x in col] for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )
