"""Exact linear algebra over Gaussian rationals.

Matrices are lists of rows; rows are lists of GaussRational entries.  The
elimination routines work on sparse rows (dicts keyed by column index) so
that the large, mostly empty constraint matrices stay cheap.  Pivots are
always the first usable candidate, which makes every result deterministic.

rref_sparse is the one elimination kernel.  It can log its row operations,
and a Factorization keeps that log: solving for a right-hand side replays
the logged swaps, pivot scalings and row updates on it, which is the same
arithmetic that eliminating the augmented matrix would do on its last
column, so one elimination answers any number of right-hand sides.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .algebra import GaussRational, ONE, ZERO


def to_sparse(dense) -> List[Dict[int, GaussRational]]:
    return [{j: a for j, a in enumerate(row) if a} for row in dense]


def rref_sparse(rows, ncols: int, log: Optional[list] = None):
    """Reduced row echelon form of a list of sparse rows (the input rows
    are copied, not modified).

    Returns (rows, pivot_cols).  After the call, rows[i] for i below the
    rank has leading one in pivot_cols[i]; later rows vanish on the first
    ncols columns (entries beyond ncols, if any, are left as reduced).

    With a log list, one entry (r, pivot_at, inv, updates) is appended per
    pivot: rows r and pivot_at were swapped, row r was scaled by inv (None
    when the pivot was already one), and each (i, f) in updates subtracted
    f times row r from row i.
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
        inv = None
        if pv != ONE:
            inv = ONE / pv
            for j in list(prow):
                prow[j] = prow[j] * inv
        updates = [
            (i, f) for i, row in enumerate(rows) if i != r and (f := row.get(c))
        ]
        for i, f in updates:
            tgt = rows[i]
            for j, a in prow.items():
                acc = tgt.get(j)
                s = -f * a if acc is None else acc - f * a
                if s:
                    tgt[j] = s
                elif acc is not None:
                    del tgt[j]
        if log is not None:
            log.append((r, pivot_at, inv, updates))
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


class Factorization:
    """One elimination of a sparse matrix, kept to solve A x = b for any
    number of right-hand sides b.

    pivots are the pivot columns of the reduced form, and unique is True
    when A has full column rank."""

    __slots__ = ("nrows", "ncols", "pivots", "_log")

    def __init__(self, rows, ncols: int):
        self.nrows = len(rows)
        self.ncols = ncols
        self._log = []
        _, self.pivots = rref_sparse(rows, ncols, self._log)

    @property
    def unique(self) -> bool:
        return len(self.pivots) == self.ncols

    def solve(self, b) -> Optional[List[GaussRational]]:
        """A dense solution of A x = b with free variables set to zero, or
        None if the system is inconsistent.  b is a dense column; entries
        past its end count as zero."""
        x = list(b[: self.nrows]) + [ZERO] * (self.nrows - len(b))
        for r, pivot_at, inv, updates in self._log:
            x[r], x[pivot_at] = x[pivot_at], x[r]
            br = x[r]
            if not br:
                continue
            if inv is not None:
                br = br * inv
                x[r] = br
            for i, f in updates:
                x[i] = x[i] - f * br
        rank = len(self.pivots)
        if any(x[rank:]):
            return None
        sol = [ZERO] * self.ncols
        for i, pc in enumerate(self.pivots):
            sol[pc] = x[i]
        return sol


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
