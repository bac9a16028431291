"""Linear algebra: exact over Fraction, tolerance-based over floats.

This module alone decides how the rank of a set of vectors, and whether a
vector lies in their span, is computed: exactly when every entry is a
rational, by singular values otherwise.  The float thresholds live here
too, each relative to the largest singular value:

* ``VALUE_REL_TOL`` (1e-9) ranks generator and bracket values evaluated at
  a point.  Those floats are a few roundings away from exact, so anything
  below 1e-9 of the largest singular value is a rounding zero.
* ``FLOW_REL_TOL`` (1e-7) ranks vectors computed by integrating flows
  (pushforwards along words) and bounds their orthogonal residuals.  They
  carry the integrator's error (rtol 1e-10, grown along the word), so the
  threshold sits three orders above it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

__all__ = [
    "exact_rank",
    "exact_solve",
    "exact_nullspace",
    "exact_pivot_columns",
    "svd_rank",
    "span_rank",
    "in_span",
    "all_exact",
    "orthogonal_residual",
    "VALUE_REL_TOL",
    "FLOW_REL_TOL",
]

VALUE_REL_TOL = 1e-9
FLOW_REL_TOL = 1e-7


def _sparse_rows(matrix, rhs=()):
    """Rows as ``{column: int}`` dicts without zero cells, and the width.

    A row may be a sequence or a ``{column: value}`` dict; the width of dict
    rows is one past their largest column.  ``rhs`` lists right-hand sides,
    one entry per row each; the k-th joins the rows in column width + k.
    Every row is scaled to a primitive integer vector, which keeps its span.
    """
    rows = []
    ncols = 0
    for row in matrix:
        if isinstance(row, Mapping):
            ncols = max(ncols, max(row, default=-1) + 1)
            items = row.items()
        else:
            ncols = max(ncols, len(row))
            items = enumerate(row)
        rows.append({c: Fraction(x) for c, x in items if x != 0})
    for k, side in enumerate(rhs):
        for row, v in zip(rows, side):
            if v != 0:
                row[ncols + k] = Fraction(v)
    for i, row in enumerate(rows):
        scale = math.lcm(*(x.denominator for x in row.values()))
        rows[i] = _primitive(
            {c: x.numerator * (scale // x.denominator) for c, x in row.items()}
        )
    return rows, ncols


def _primitive(row):
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _rref(rows, ncols):
    """Sparse Gauss-Jordan elimination of ``_sparse_rows`` rows, in place.

    Columns are taken in order.  Each pivot is the sparsest row not yet used
    as one, and it is cleared from every other row by integer combinations
    (each row kept primitive), so no fraction is formed.  Dividing each
    pivot row by its pivot gives the reduced row echelon form, which is
    unique, so the pivot choice changes no result.  Returns ``(pivot row,
    column)`` pairs in column order; the other rows are zero in the first
    ``ncols`` columns.
    """
    holders = {}  # column -> indices of the rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    unused = set(range(len(rows)))
    pivots = []
    for c in range(ncols):
        if not unused:
            break
        candidates = holders.get(c, set()) & unused
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        a = prow[c]
        for i in list(holders[c]):
            if i == p:
                continue
            row = rows[i]
            g = math.gcd(a, row[c])
            ai, fi = a // g, row[c] // g
            # row <- ai * row - fi * prow, which clears column c
            if ai != 1:
                for k in row:
                    row[k] *= ai
            for k, v in prow.items():
                x = row.get(k)
                if x is None:
                    row[k] = -fi * v
                    holders.setdefault(k, set()).add(i)
                else:
                    x -= fi * v
                    if x:
                        row[k] = x
                    else:
                        del row[k]
                        holders[k].discard(i)
            _primitive(row)
        unused.discard(p)
        pivots.append((prow, c))
    return pivots


def exact_rank(matrix):
    return len(_rref(*_sparse_rows(matrix)))


def exact_pivot_columns(matrix):
    """Column indices of a maximal independent subset, in elimination order."""
    return [c for _, c in _rref(*_sparse_rows(matrix))]


def exact_solve(A, rhs):
    """For each right-hand side b in ``rhs``, one exact solution of A x = b
    (free variables 0), or None if none exists.

    One elimination serves every b: pivots are taken among A's columns only,
    and the reduced row echelon form is unique, so each solution is the one
    b would get alone.  Rows of A are sequences, and each solution is a
    list, or they are ``{column: value}`` dicts, and each is a dict of its
    nonzero entries.
    """
    rows, ncols = _sparse_rows(A, rhs)
    pivots = _rref(rows, ncols)
    # rows left over are zero among the unknowns: each reads 0 = b_i for its b's
    inconsistent = {c for row in rows if row and min(row) >= ncols for c in row}
    solutions = [
        None if b in inconsistent
        else {c: Fraction(row[b], row[c]) for row, c in pivots if b in row}
        for b in range(ncols, ncols + len(rhs))
    ]
    if len(A) and isinstance(A[0], Mapping):
        return solutions
    return [
        None if x is None else [x.get(c, Fraction(0)) for c in range(ncols)]
        for x in solutions
    ]


def exact_nullspace(A):
    """Basis of the kernel of A (rows = equations), as Fraction vectors."""
    rows, ncols = _sparse_rows(A)
    pivots = _rref(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in pivots:
            v[c] = -Fraction(row.get(free, 0), row[c])
        basis.append(v)
    return basis


def svd_rank(matrix, rel_tol):
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def all_exact(vectors):
    return all(
        isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        for v in vectors
        for x in v
    )


def _rank(vectors, exact):
    return exact_rank(vectors) if exact else svd_rank(vectors, VALUE_REL_TOL)


def span_rank(vectors):
    """Rank of the span of the given vectors; exact when all entries rational."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0
    return _rank(vectors, all_exact(vectors))


def in_span(vectors, v):
    """True when v lies in the span of the vectors.  One method, chosen over
    the vectors and v together, computes both ranks."""
    base = [tuple(w) for w in vectors]
    extended = base + [tuple(v)]
    exact = all_exact(extended)
    return _rank(extended, exact) == _rank(base, exact)


def orthogonal_residual(basis_rows, v):
    """Norm of the component of v orthogonal to the row span, relative."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    basis_rows = np.asarray(basis_rows, dtype=float)
    if basis_rows.size == 0:
        return 1.0
    _, sv, vt = np.linalg.svd(basis_rows)
    keep = int(np.sum(sv > VALUE_REL_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
    if keep == 0:
        return 1.0
    basis = vt[:keep]
    resid = v - basis.T @ (basis @ v)
    return float(np.linalg.norm(resid) / nv)
