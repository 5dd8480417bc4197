import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.linalg import sparse_rank
from oracles import dense_solve


def dense_rank(dense):
    """Rank by plain dense Gauss-Jordan elimination over Fractions: the
    oracle sparse_rank is tested against, so it shares no code with it."""
    work = [[Fraction(v) for v in row] for row in dense]
    n = len(work)
    m = len(work[0]) if work else 0
    rank = 0
    for c in range(m):
        pivot = next((k for k in range(rank, n) if work[k][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][c]
        work[rank] = [v * inv for v in work[rank]]
        for k in range(n):
            if k != rank and work[k][c]:
                f = work[k][c]
                work[k] = [a - f * b for a, b in zip(work[k], work[rank])]
        rank += 1
    return rank


# Factors of the combined rows in dense_matrices.
FACTORS = (0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))


@st.composite
def dense_matrices(draw, entries):
    """Up to 6 x 6 matrices whose entries are often 0, followed by up to
    three rows a*r + b*s of earlier rows r and s: a zero row when a = b = 0,
    a repeated row when a = 1 and b = 0."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), entries)
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          max_size=6))
    if dense:
        index = st.integers(0, len(dense) - 1)
        factor = st.sampled_from(FACTORS)
        for i, a, j, b in draw(st.lists(st.tuples(index, factor, index, factor),
                                        max_size=3)):
            dense.append([a * u + b * v for u, v in zip(dense[i], dense[j])])
    return dense


# Entries far wider than machine words, or fractions with large numerators
# and denominators.
WIDE_MATRICES = st.sampled_from([
    st.integers(-10 ** 12, 10 ** 12),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
]).flatmap(dense_matrices)


def tuple_column_rows(dense):
    """Sparse rows keyed by tuple columns (j % 2, j), so that key order
    differs from column order."""
    return [{(j % 2, j): v for j, v in enumerate(row) if v} for row in dense]


class TestSparseRank:
    def test_identity(self):
        rows = [{0: 1}, {1: 1}, {2: 1}]
        assert sparse_rank(rows) == 3

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
        assert sparse_rank(rows) == 2

    def test_zero_rows_ignored(self):
        assert sparse_rank([{}, {0: 0}, {1: 3}]) == 1

    def test_fractions(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
                {0: Fraction(3, 2), 1: Fraction(1, 1)}]
        assert sparse_rank(rows) == 1

    def test_tuple_columns(self):
        rows = [{(0, 1): 1, (1, 0): 1}, {(1, 0): 1}]
        assert sparse_rank(rows) == 2

    def test_against_dense_elimination(self):
        rng = random.Random(23)
        for _ in range(30):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            dense = [[Fraction(rng.randint(-2, 2)) for _ in range(m)]
                     for _ in range(n)]
            rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
            assert sparse_rank(rows) == dense_rank(dense)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(WIDE_MATRICES)
    def test_matches_dense_elimination(self, dense):
        assert sparse_rank(tuple_column_rows(dense)) == dense_rank(dense)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(WIDE_MATRICES)
    def test_matches_sympy(self, dense):
        sympy = pytest.importorskip("sympy")
        # sympy converts Fraction entries to exact Rationals
        want = sympy.Matrix(dense).rank()
        assert sparse_rank(tuple_column_rows(dense)) == want

    def test_rows_are_not_modified(self):
        rows = [{0: 2, 1: Fraction(1, 3)}, {0: 4, 1: 1}]
        copies = [dict(r) for r in rows]
        assert sparse_rank(rows) == 2
        assert rows == copies


class TestDenseSolve:
    def test_unique_solution(self):
        x = dense_solve([[1, 1], [1, -1]], [3, 1])
        assert x == [Fraction(2), Fraction(1)]

    def test_inconsistent(self):
        assert dense_solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_underdetermined_free_vars_zero(self):
        x = dense_solve([[1, 1, 0]], [5])
        assert x == [Fraction(5), Fraction(0), Fraction(0)]

    def test_solution_satisfies_system(self):
        rng = random.Random(9)
        for _ in range(20):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
                 for _ in range(n)]
            x_true = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            b = [sum(r[j] * x_true[j] for j in range(m)) for r in a]
            x = dense_solve(a, b)
            assert x is not None
            for r, bb in zip(a, b):
                assert sum(rj * xj for rj, xj in zip(r, x)) == bb
