"""Exact linear algebra over Gaussian rationals.

Matrices are lists of rows; rows are lists of GaussRational entries.  The
elimination routines work on sparse rows (dicts keyed by column index) so
that the large, mostly empty constraint matrices stay cheap.

rref_sparse is the exact reference elimination: its pivots are always the
first usable candidate, and rank_sparse, nullspace_sparse and Factorization
are views of it.  A Factorization keeps its log of row operations: solving
for a right-hand side replays the logged swaps, pivot scalings and row
updates on it, which is the same arithmetic that eliminating the augmented
matrix would do on its last column, so one elimination answers any number
of right-hand sides.

certified_nullspace returns nullspace_sparse's basis without the Fraction
elimination.  It eliminates modulo word-size primes p = 1 (mod 4), under
both embeddings i -> s and i -> -s with s^2 = -1 (mod p), which split every
entry into its real and imaginary part; it lifts the entries of the reduced
rows by CRT and rational reconstruction, and it returns the lifted basis
only after checking A v = 0 exactly for every vector.  That check makes
the answer exact: the pivot columns mod p are independent over Q(i), and
each checked vector shows its free column to depend on earlier pivot
columns, so the mod-p pivots are the exact ones and the basis normalized to
1 at each free column is the exact one.  When no prime passes the check it
returns nullspace_sparse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional

from .algebra import GaussRational, ONE, ZERO

# Word-size primes p = 1 (mod 4), so that i has an image mod p.  A kernel
# combines at most this many of them before it falls back to the exact
# elimination.
_PRIMES = (
    1000000009,
    1000000021,
    1000000033,
    1000000093,
    1000000097,
    1000000181,
    1000000241,
    1000000289,
)


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


def certified_nullspace(rows, ncols: int) -> List[List[GaussRational]]:
    """nullspace_sparse(rows, ncols), computed modulo primes and returned
    only after A v = 0 has been checked exactly for every basis vector."""
    scaled = [_gaussian_integers(row) for row in rows]
    best = None  # pivot columns shared by the primes combined so far
    modulus = 1
    lifted: Dict[tuple, tuple] = {}
    columns = None
    for p in _PRIMES:
        # scaling a row by a unit mod p leaves its RREF mod p alone; p
        # divides a scale exactly when it divides a denominator in the row
        if any(scale % p == 0 for scale, _ in scaled):
            continue
        s = _sqrt_minus_one(p)
        pivots, red_plus = _rref_mod(_embed(scaled, s, p), ncols, p)
        pivots_minus, red_minus = _rref_mod(_embed(scaled, -s, p), ncols, p)
        if pivots_minus != pivots:
            continue
        if best != pivots:
            # every prime's rank profile is at or after the exact one,
            # column by column; keep the earliest profile seen
            if best is not None and (-len(best), best) < (-len(pivots), pivots):
                continue
            best, modulus, lifted = pivots, 1, {}
        lifted = _crt(lifted, modulus, _split(red_plus, red_minus, pivots, s, p), p)
        modulus *= p
        basis = _reconstruct(lifted, modulus, pivots, ncols)
        if basis is None:
            continue
        if columns is None:
            columns = [[] for _ in range(ncols)]
            for i, (_, row) in enumerate(scaled):
                for j, (x, y) in row.items():
                    columns[j].append((i, x, y))
        if all(_annihilates(columns, vec) for vec in basis):
            return basis
    return nullspace_sparse(rows, ncols)


def _gaussian_integers(entries):
    """(scale, {key: (re, im)}): the entries times the lcm of their
    denominators, as pairs of integers."""
    scale = lcm(*(x.denominator for a in entries.values() for x in (a.re, a.im)))
    return scale, {
        key: (
            a.re.numerator * (scale // a.re.denominator),
            a.im.numerator * (scale // a.im.denominator),
        )
        for key, a in entries.items()
    }


def _embed(scaled, s: int, p: int):
    """The scaled rows mod p with i -> s."""
    out = []
    for _, row in scaled:
        image = {}
        for j, (x, y) in row.items():
            if (u := (x + s * y) % p):
                image[j] = u
        out.append(image)
    return out


def _sqrt_minus_one(p: int) -> int:
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


def _rref_mod(rows, ncols: int, p: int):
    """(pivots, reduced): the pivot columns of the RREF mod p and its
    nonzero rows.  The rows (dicts of residues) are consumed.

    Rows wait in a bucket for their leading column.  The RREF mod p is
    unique, so the pivot row may be any row of the bucket; the sparsest
    costs least to subtract."""
    buckets: List[list] = [[] for _ in range(ncols)]
    for row in rows:
        if row:
            buckets[min(row)].append(row)
    pivots: List[int] = []
    reduced: List[Dict[int, int]] = []
    for c, bucket in enumerate(buckets):
        if not bucket:
            continue
        prow = min(bucket, key=len)
        inv = pow(prow[c], -1, p)
        items = [(j, a * inv % p) for j, a in prow.items()]
        for row in bucket:
            if row is prow:
                continue
            f = row[c]
            for j, a in items:
                u = (row.get(j, 0) - f * a) % p
                if u:
                    row[j] = u
                else:
                    row.pop(j, None)
            if row:
                buckets[min(row)].append(row)
        pivots.append(c)
        reduced.append(dict(items))
    where = {c: k for k, c in enumerate(pivots)}
    for k in range(len(reduced) - 1, -1, -1):
        row = reduced[k]
        # rows below k are already reduced, so clearing one pivot column
        # leaves the other pivot columns of row k alone
        for c in [j for j in row if where.get(j, k) > k]:
            f = row[c]
            for j, a in reduced[where[c]].items():
                u = (row.get(j, 0) - f * a) % p
                if u:
                    row[j] = u
                else:
                    row.pop(j, None)
    return pivots, reduced


def _split(red_plus, red_minus, pivots, s: int, p: int):
    """{(k, f): (re, im)} mod p for the free-column entries of the reduced
    rows, from their images under i -> s and i -> -s."""
    half = pow(2, -1, p)
    half_s = pow(2 * s, -1, p)
    out = {}
    for k, (rp, rm) in enumerate(zip(red_plus, red_minus)):
        pc = pivots[k]
        for f in rp.keys() | rm.keys():
            if f != pc:
                x, y = rp.get(f, 0), rm.get(f, 0)
                out[k, f] = ((x + y) * half % p, (x - y) * half_s % p)
    return out


def _crt(lifted, modulus: int, residues, p: int):
    """Combine residues mod modulus with residues mod p (a missing key is
    zero), giving residues mod modulus * p."""
    m_inv = pow(modulus, -1, p)
    out = {}
    for key in lifted.keys() | residues.keys():
        old = lifted.get(key, (0, 0))
        new = residues.get(key, (0, 0))
        out[key] = tuple(
            a + modulus * ((b - a) * m_inv % p) for a, b in zip(old, new)
        )
    return out


def _reconstruct(lifted, modulus: int, pivots, ncols: int):
    """The kernel basis with -(reduced entry) at each pivot column, or None
    if some residue has no rational reconstruction."""
    bound = 1024 * modulus.bit_length()
    pivot_set = set(pivots)
    basis = {}
    for f in range(ncols):
        if f not in pivot_set:
            vec = basis[f] = [ZERO] * ncols
            vec[f] = ONE
    for (k, f), (x, y) in lifted.items():
        re = _rational(x, modulus, bound)
        im = _rational(y, modulus, bound)
        if re is None or im is None:
            return None
        if re or im:
            basis[f][pivots[k]] = GaussRational(-re, -im)
    return list(basis.values())


def _rational(u: int, m: int, bound: int):
    """n/d = u (mod m) by maximal-quotient rational reconstruction
    (Monagan 2004): the Euclidean step with the largest quotient, if that
    quotient exceeds bound; else None."""
    if u == 0:
        return Fraction(0)
    n = d = 0
    r0, t0, r1, t1 = m, 0, u, 1
    while r1 and r0 > bound:
        q = r0 // r1
        if q > bound:
            n, d, bound = r1, t1, q
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if d == 0 or gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def _annihilates(columns, vec) -> bool:
    """A v = 0, exactly, with v scaled to Gaussian integers and the
    product accumulated column by column over the support of v."""
    # skipping only the shared ZERO is sound: any other zero adds nothing
    _, support = _gaussian_integers(
        {j: a for j, a in enumerate(vec) if a is not ZERO}
    )
    acc_re: Dict[int, int] = {}
    acc_im: Dict[int, int] = {}
    for j, (x, y) in support.items():
        for i, u, w in columns[j]:
            acc_re[i] = acc_re.get(i, 0) + u * x - w * y
            acc_im[i] = acc_im.get(i, 0) + u * y + w * x
    return not any(acc_re.values()) and not any(acc_im.values())


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
