"""The certified modular kernel against the exact reference elimination.

certified_nullspace must return nullspace_sparse's basis element for
element, whether it certifies a lifted basis or falls back.  The forced
bad-prime tests swap the private prime list for tiny primes and check both
the answer and which path produced it.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crsing import GaussRational, Quadric, cr_equation_matrix, linalg
from crsing.linalg import certified_nullspace, nullspace_sparse, rank_sparse

P = 1000000009


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


VALUES = st.sampled_from(
    [
        g(1),
        g(-1),
        g(2),
        g(0, 1),
        g(Fraction(1, 2), -3),
        g(Fraction(-2, 3)),
        g(Fraction(7, 5), Fraction(1, 4)),
    ]
)


@st.composite
def quadrics(draw):
    """Dense, sparse and rank-0 quadrics with n = 2..4; B is often nonzero."""
    shape = draw(st.sampled_from(["dense", "sparse", "rank0"]))
    n = draw(st.integers(2, 4))
    zero = GaussRational(0)
    if shape == "dense":
        entry = VALUES
    else:
        entry = st.one_of(st.just(zero), st.just(zero), VALUES)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    B = [[zero] * n for _ in range(n)]
    C = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = draw(entry)
            C[i][j] = C[j][i] = draw(entry)
    if shape == "rank0":
        A = [[zero] * n for _ in range(n)]
        B = [[zero] * n for _ in range(n)]
    # the exact reference takes about a second at (n, d) = (3, 4) and (4, 3)
    # on a dense quadric, and 13 s at (4, 4)
    d = draw(st.integers(1, 6 - n if shape == "dense" else min(4, 7 - n)))
    return Quadric(n, A, B, C), d


class TestDifferential:
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(quadrics())
    def test_cr_kernel_and_rank_match_exact(self, case):
        q, d = case
        mat = cr_equation_matrix(q, d)
        ncols = len(mat.columns)
        assert mat.kernel() == nullspace_sparse(mat.rows, ncols)
        assert mat.rank() == rank_sparse(mat.rows, ncols)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda ncols: st.lists(
                st.dictionaries(st.integers(0, ncols - 1), VALUES, max_size=ncols),
                max_size=7,
            ).map(lambda rows: (rows, ncols))
        )
    )
    def test_random_sparse_matrices(self, case):
        rows, ncols = case
        assert certified_nullspace(rows, ncols) == nullspace_sparse(rows, ncols)


# -- forced bad primes ------------------------------------------------


@pytest.fixture
def paths(monkeypatch):
    """Counts exact fallbacks and lifted bases under the patched primes."""
    seen = {"fallback": 0, "lifted": 0}
    exact, reconstruct = linalg.nullspace_sparse, linalg._reconstruct

    def fallback(rows, ncols):
        seen["fallback"] += 1
        return exact(rows, ncols)

    def lifted(*args):
        seen["lifted"] += 1
        return reconstruct(*args)

    monkeypatch.setattr(linalg, "nullspace_sparse", fallback)
    monkeypatch.setattr(linalg, "_reconstruct", lifted)

    def run(primes, rows, ncols):
        monkeypatch.setattr(linalg, "_PRIMES", primes)
        seen.update(fallback=0, lifted=0)
        out = certified_nullspace(rows, ncols)
        assert out == exact(rows, ncols)
        return dict(seen)

    return run


# 2 - i vanishes under i -> 2 (mod 5) but not under i -> -2
GAUSS_ROWS = [{0: g(2, -1), 1: g(1), 2: g(3)}, {1: g(1), 2: g(0, 1)}]
# 1/5 has no image mod 5
FIFTH_ROWS = [{0: g(Fraction(1, 5)), 1: g(1)}, {1: g(2), 2: g(-1)}]
# the kernel vector (7/3, 1) needs a modulus far above 13
SEVEN_THIRDS_ROWS = [{0: g(3), 1: g(-7)}]
SMALL_PRIMES = (13, 17, 29, 37, 41, 53, 61, 73)


@pytest.mark.parametrize("rows", [GAUSS_ROWS, FIFTH_ROWS], ids=["2-i", "1/5"])
def test_prime_five_is_skipped(paths, rows):
    assert paths((5,), rows, 3) == {"fallback": 1, "lifted": 0}
    assert paths((5, P), rows, 3) == {"fallback": 0, "lifted": 1}


# 5 = (2 - i)(2 + i) vanishes under both embeddings mod 5.  That moves the
# pivots to later columns: to (1, 2) in place of (0, 1) in the first
# matrix, and to rank 1 in place of 2 in the second
SHIFT_ROWS = [{0: g(5), 2: g(7)}, {1: g(3), 2: g(-7)}]
DROP_ROWS = [{0: g(5), 1: g(10)}, {1: g(3), 2: g(-7)}]


@pytest.mark.parametrize("rows", [SHIFT_ROWS, DROP_ROWS], ids=["shift", "drop"])
def test_worse_pivots_mod_five(paths, rows):
    # alone, prime 5 lifts a basis that the exact check rejects
    assert paths((5,), rows, 3) == {"fallback": 1, "lifted": 1}
    # after a prime with the exact pivots it is skipped without lifting
    exact_pivots = paths(SMALL_PRIMES, rows, 3)
    assert exact_pivots["fallback"] == 0
    assert paths(SMALL_PRIMES[:1] + (5,) + SMALL_PRIMES[1:], rows, 3) == exact_pivots
    # before one it is replaced
    assert paths((5, P), rows, 3) == {"fallback": 0, "lifted": 2}


def test_too_few_primes_fall_back(paths):
    assert paths(SMALL_PRIMES[:1], SEVEN_THIRDS_ROWS, 2) == {"fallback": 1, "lifted": 1}
    # combined by CRT, the same small primes do reconstruct 7/3
    assert paths(SMALL_PRIMES, SEVEN_THIRDS_ROWS, 2)["fallback"] == 0


def test_rational_reconstruction():
    def residue(x, m):
        return x.numerator * pow(x.denominator, -1, m) % m

    bound = 1024 * P.bit_length()
    for x in (Fraction(7, 3), Fraction(-7, 3), Fraction(0), Fraction(-1), Fraction(1, 2)):
        assert linalg._rational(residue(x, P), P, bound) == x
    # 7/3 modulo 13 * 17 * 29 * 37: no quotient stands out, so no answer
    small = 13 * 17 * 29 * 37
    seven_thirds = residue(Fraction(7, 3), small)
    assert linalg._rational(seven_thirds, small, 1024 * small.bit_length()) is None


@pytest.mark.parametrize("error", [g(1), g(0, 1)], ids=["real", "imaginary"])
def test_wrong_reconstruction_is_rejected(paths, monkeypatch, error):
    reconstruct = linalg._reconstruct

    def corrupted(*args):
        basis = reconstruct(*args)
        basis[0][0] = basis[0][0] + error
        return basis

    monkeypatch.setattr(linalg, "_reconstruct", corrupted)
    assert paths(linalg._PRIMES[:2], SEVEN_THIRDS_ROWS, 2)["fallback"] == 1


@pytest.mark.parametrize(
    "A, B, d",
    [
        ([[g(1), g(0, 1)], [g(2), g(Fraction(1, 2), -3)]], [[g(0)] * 2] * 2, 4),
        (
            [[g(1), g(0), g(2)], [g(0, 1), g(-1), g(0)], [g(0), g(1), g(1)]],
            [[g(0), g(1), g(0)], [g(1), g(0), g(0, 1)], [g(0), g(0, 1), g(2)]],
            3,
        ),
    ],
    ids=["n2-d4", "n3-d3"],
)
def test_one_prime_certifies_cr_matrices(paths, A, B, d):
    n = len(A)
    mat = cr_equation_matrix(Quadric(n, A, B), d)
    counts = paths(linalg._PRIMES, mat.rows, len(mat.columns))
    assert counts == {"fallback": 0, "lifted": 1}
