from fractions import Fraction

import numpy as np

from vfkit.linalg import (
    exact_nullspace,
    exact_pivot_columns,
    exact_rank,
    exact_solve,
    in_span,
    span_rank,
    svd_rank,
)


def random_rational_matrix(rng, rows, cols):
    return [
        [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rank_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = random_rational_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        got = exact_rank(m)
        want = np.linalg.matrix_rank(np.array(m, dtype=float), tol=1e-9)
        assert got == want


def test_solve_consistent_and_inconsistent():
    A = [[1, 2], [2, 4]]
    assert exact_solve(A, [3, 6]) == [Fraction(3), Fraction(0)]
    assert exact_solve(A, [3, 7]) is None


def test_solve_verifies():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = random_rational_matrix(rng, rows, cols)
        x_true = [Fraction(int(rng.integers(-3, 4))) for _ in range(cols)]
        b = [sum(a * x for a, x in zip(row, x_true)) for row in A]
        x = exact_solve(A, b)
        assert x is not None
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


def test_nullspace_annihilates():
    A = [[1, 2, 3], [2, 4, 6]]
    basis = exact_nullspace(A)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)


def test_pivot_columns_are_independent():
    A = [[1, 2, 3], [0, 0, 1]]
    cols = exact_pivot_columns(A)
    assert cols == [0, 2]


def test_svd_rank_threshold():
    m = [[1.0, 0.0], [0.0, 1e-12]]
    assert svd_rank(m, 1e-9) == 1
    assert svd_rank(m, 1e-14) == 2
    assert svd_rank([[0.0, 0.0]], 1e-9) == 0


def test_span_rank_dispatch():
    assert span_rank([(1, 0), (0, 1)]) == 2
    assert span_rank([(1.0, 0.0), (2.0, 0.0)]) == 1
    assert span_rank([]) == 0


def test_in_span():
    assert in_span([(1, 0, 0), (0, 1, 0)], (2, -3, 0))
    assert not in_span([(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    assert in_span([(Fraction(1, 3), Fraction(1, 7))], (Fraction(3), Fraction(9, 7)))
    assert in_span([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], (2.0, -3.0, 0.0))
    assert not in_span([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], (0.0, 0.0, 1.0))
    # mixed exactness: one method for both ranks, so the exact 1e-12 entry
    # is a rounding zero beside the float vector, and v adds a direction
    base = [(1, 0, 0), (0, Fraction(1, 10**12), 0)]
    assert not in_span(base, (0.0, 0.0, 1.0))
    assert in_span(base, (0, 0, 0))
