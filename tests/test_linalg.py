from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vfkit.linalg import (
    affine_rank,
    exact_pivot_columns,
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
        got = len(exact_pivot_columns(m))
        want = np.linalg.matrix_rank(np.array(m, dtype=float), tol=1e-9)
        assert got == want


def test_solve_consistent_and_inconsistent():
    A = [[1, 2], [2, 4]]
    assert exact_solve(A, [[3, 6]]) == [[Fraction(3), Fraction(0)]]
    assert exact_solve(A, [[3, 7]]) == [None]
    # one elimination, both sides: each gets what it gets alone
    assert exact_solve(A, [[3, 7], [3, 6]]) == [None, [Fraction(3), Fraction(0)]]


def test_solve_verifies():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = random_rational_matrix(rng, rows, cols)
        x_true = [Fraction(int(rng.integers(-3, 4))) for _ in range(cols)]
        b = [sum(a * x for a, x in zip(row, x_true)) for row in A]
        [x] = exact_solve(A, [b])
        assert x is not None
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


def exact_nullspace(A):
    """A kernel basis of A from ``exact_solve``: per non-pivot column f, e_f
    plus the solution of A x = -A e_f whose free variables are 0."""
    pivots = exact_pivot_columns(A)
    free = [f for f in range(len(A[0]) if A else 0) if f not in pivots]
    solutions = exact_solve(A, [[-row[f] for row in A] for f in free])
    return [[x + (c == f) for c, x in enumerate(s)] for f, s in zip(free, solutions)]


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


def test_affine_rank_scale():
    assert affine_rank([[1.0, 2.0]], 1e-7) == 0
    assert affine_rank([[0.0, 0.0], [0.0, 0.0]], 1e-7) == 0
    assert affine_rank([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]], 1e-7) == 1
    assert affine_rank([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], 1e-7) == 2
    # differences of 1e-11 against vectors of size 0.16 are noise, although
    # they are all the differences there are
    noisy = [[0.163, 0.0, 0.0], [0.163 + 3e-11, 0.0, 0.0], [0.163 - 2e-11, 1e-11, 0.0]]
    assert affine_rank(noisy, 1e-7) == 0
    d = np.array(noisy[1:]) - noisy[0]
    assert svd_rank(d, 1e-7) == 2


@given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_affine_rank_never_above_the_rank_of_the_differences(rows):
    m = np.array(rows)
    assert affine_rank(rows, 1e-7) <= svd_rank(m[1:] - m[0], 1e-7)


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


# -- parity with dense Gauss-Jordan ------------------------------------------------
# The dense elimination that the sparse one replaced, kept as the oracle: the
# reduced row echelon form is unique, so every result must match exactly.


def _dense_elim(rows, ncols):
    """Row-reduce in place; returns list of (pivot_row, pivot_col)."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_pivot_columns(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    return [c for _, c in _dense_elim(rows, len(rows[0]))]


def dense_solve(A, b):
    rows = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    ncols = len(rows[0]) - 1
    pivots = _dense_elim(rows, ncols)
    for row in rows:
        if row[-1] != 0 and all(x == 0 for x in row[:-1]):
            return None
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = rows[r][-1]
    return x


def dense_nullspace(A):
    rows = [[Fraction(x) for x in row] for row in A]
    ncols = len(rows[0])
    pivots = _dense_elim(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in pivots:
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


# zero half the time, so rows are sparse and ranks drop
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
)


@st.composite
def matrices(draw):
    """Wide, tall and square rational matrices, with zero, repeated and
    scaled rows mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled"]))
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        extra = {"zero": [Fraction(0)] * ncols, "repeat": list(src),
                 "scaled": [k * x for x in src]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@st.composite
def systems(draw):
    """A matrix and one to three right-hand sides, each consistent (A x for
    a drawn x) or arbitrary, which is inconsistent whenever it leaves the
    column space."""
    A = draw(matrices())
    sides = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = draw(st.lists(ENTRY, min_size=len(A[0]), max_size=len(A[0])))
            sides.append([sum(a * v for a, v in zip(row, x)) for row in A])
        else:
            sides.append(draw(st.lists(ENTRY, min_size=len(A), max_size=len(A))))
    return A, sides


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_pivots_kernel_match_dense(A):
    pivots = dense_pivot_columns(A)
    assert exact_pivot_columns(A) == pivots
    assert exact_nullspace(A) == dense_nullspace(A)


def mapping_side(b):
    """A dense right-hand side as the {row index: value} Mapping of its
    nonzero entries."""
    return {i: v for i, v in enumerate(b) if v != 0}


def assert_solves_like_dense(A, sides):
    """``exact_solve`` of A with sequence and with {column: value} rows,
    and with dense and Mapping sides, against ``dense_solve``: the same
    Nones, and the same solutions with free unknowns 0, as lists of the
    full width or as dicts of their nonzero entries."""
    wants = [dense_solve(A, b) for b in sides]
    sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in A]
    for b_form in (list, mapping_side):
        b = [b_form(side) for side in sides]
        assert exact_solve(A, b) == wants
        got = exact_solve(sparse, b)
        assert got == [None if want is None else {c: x for c, x in enumerate(want) if x != 0}
                       for want in wants]


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_dense(system):
    assert_solves_like_dense(*system)


@st.composite
def block_systems(draw):
    """Two or three independent ``systems()`` blocks on their own rows and
    unknowns, with the rows and the unknowns shuffled together.  The first
    block's sides are all 0, and any other block's may be, so the rows that
    the nonzero sides reach leave some out.  Returns the system."""
    nsides = draw(st.integers(1, 3))
    blocks = []
    for k in range(draw(st.integers(2, 3))):
        A, sides = draw(systems())
        sides = (sides * 3)[:nsides]
        if k == 0 or draw(st.booleans()):
            sides = [[Fraction(0)] * len(A) for _ in sides]
        blocks.append((A, sides))
    nrows = sum(len(A) for A, _ in blocks)
    ncols = sum(len(A[0]) for A, _ in blocks)
    row_at = draw(st.permutations(range(nrows)))
    col_at = draw(st.permutations(range(ncols)))
    M = [[Fraction(0)] * ncols for _ in range(nrows)]
    sides = [[Fraction(0)] * nrows for _ in range(nsides)]
    r0 = c0 = 0
    for A, block_sides in blocks:
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                M[row_at[r0 + i]][col_at[c0 + j]] = x
            for side, block_side in zip(sides, block_sides):
                side[row_at[r0 + i]] = block_side[i]
        r0, c0 = r0 + len(A), c0 + len(A[0])
    return M, sides


@settings(max_examples=100, deadline=None)
@given(block_systems())
def test_solve_of_independent_blocks_matches_dense(system):
    # a block whose sides are all 0 solves to 0 whatever the other blocks
    # hold; membership systems, which leave such blocks out, rely on it
    # (tests/test_membership.py checks the part that its targets reach)
    assert_solves_like_dense(*system)


def test_solve_edge_shapes():
    for b_form in (list, mapping_side):
        assert exact_solve([[0, 0], [0, 0]], [b_form([0, 0])]) == [[Fraction(0), Fraction(0)]]
        assert exact_solve([[0, 0]], [b_form([1])]) == [None]
        assert exact_solve([{}, {1: 2}], [b_form([0, 3])]) == [{1: Fraction(3, 2)}]
        assert exact_solve([{}, {1: 2}], [b_form([1, 3])]) == [None]
        assert exact_solve([], [b_form([])]) == [[]]
    assert exact_solve([[1, 2]], []) == []
    # the width of sequence rows holds when no side reaches a row
    assert exact_solve([[1, 2, 0]], [{}]) == [[Fraction(0)] * 3]
    assert exact_pivot_columns([]) == [] and exact_nullspace([]) == []


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_reads_every_rational_cell_type_alike(system):
    # int cells, Fractions with denominator 1 and numpy integers are the
    # same rationals, and so are the floats that hold them exactly
    A, sides = system
    want = exact_solve(A, sides)

    def recast(x, k):
        if x.denominator != 1:
            return float(x) if x.denominator in (2, 4) and k % 2 else x
        return (int(x), np.int64(x), x)[k % 3]

    mixed = [[recast(x, i + j) for j, x in enumerate(row)] for i, row in enumerate(A)]
    mixed_sides = [[recast(v, i) for i, v in enumerate(b)] for b in sides]
    assert exact_solve(mixed, mixed_sides) == want
