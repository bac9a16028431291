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


def _elim(rows, ncols):
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


def exact_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    return len(_elim(rows, len(rows[0])))


def exact_pivot_columns(matrix):
    """Column indices of a maximal independent subset, in elimination order."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return []
    return [c for _, c in _elim(rows, len(rows[0]))]


def exact_solve(A, b):
    """One exact solution of A x = b (free variables 0), or None if none exists."""
    rows = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    pivots = _elim(rows, ncols)
    for i, row in enumerate(rows):
        if row[-1] != 0 and all(x == 0 for x in row[:-1]):
            return None
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = rows[r][-1]
    return x


def exact_nullspace(A):
    """Basis of the kernel of A (rows = equations), as Fraction vectors."""
    rows = [[Fraction(x) for x in row] for row in A]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = _elim(rows, ncols)
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
