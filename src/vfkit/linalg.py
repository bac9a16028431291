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

``affine_rank``, the dimension of an affine hull, ranks the differences
of the vectors against the scale of the vectors themselves: nearly equal
flow vectors differ only by integration noise, and a threshold relative to
the largest difference would count that noise as rank.

``exact_solve`` and ``exact_pivot_columns`` eliminate every row they are
given; a caller that needs only part of a system builds only that part, as
``membership`` builds only the rows its targets reach.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

__all__ = [
    "exact_solve",
    "exact_pivot_columns",
    "svd_rank",
    "affine_rank",
    "span_rank",
    "in_span",
    "all_exact",
    "orthogonal_residual",
    "VALUE_REL_TOL",
    "FLOW_REL_TOL",
]

VALUE_REL_TOL = 1e-9
FLOW_REL_TOL = 1e-7


def _is_mapping(row):
    # a plain dict, the common row, skips the Mapping ABC check
    return type(row) is dict or isinstance(row, Mapping)


def _sparse_rows(matrix, rhs=()):
    """Rows as ``{column: int}`` dicts without zero cells.

    A row may be a sequence or a ``{column: value}`` Mapping.  ``rhs``
    lists right-hand sides, each a ``{row index: value}`` Mapping; the k-th
    joins the rows in column -1 - k, so no width is needed to place it.
    Every row is scaled to a primitive integer vector, which keeps its
    span.  ``int`` and ``Fraction`` cells are read through their numerator
    and denominator as they are; only other cells go through
    ``Fraction(x)``.
    """
    rows = [{c: x if isinstance(x, (int, Fraction)) else Fraction(x)
             for c, x in (row.items() if _is_mapping(row) else enumerate(row)) if x != 0}
            for row in matrix]
    for k, side in enumerate(rhs, 1):
        for i, v in side.items():
            if v != 0:
                rows[i][-k] = v if isinstance(v, (int, Fraction)) else Fraction(v)
    for i, row in enumerate(rows):
        scale = math.lcm(*(x.denominator for x in row.values()))
        rows[i] = _primitive(
            {c: x.numerator * (scale // x.denominator) for c, x in row.items()}
        )
    return rows


def _primitive(row):
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _rref(rows):
    """Sparse Gauss-Jordan elimination of ``_sparse_rows`` rows, in place.

    The columns 0, 1, ... are taken in order; the negative ones, right-hand
    sides, are never pivots.  Each pivot is the sparsest row not yet used
    as one, and it is cleared from every other row by integer combinations
    (each row kept primitive), so no fraction is formed.  Dividing each
    pivot row by its pivot gives the reduced row echelon form, which is
    unique, so the pivot choice changes no result.  Returns ``(pivot row,
    column)`` pairs in column order; the other rows are zero in every
    column from 0 on.
    """
    holders = {}  # column -> indices of the rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    unused = set(range(len(rows)))
    pivots = []
    # elimination only fills in columns some row already holds
    for c in sorted(c for c in holders if c >= 0):
        if not unused:
            break
        candidates = holders[c] & unused
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


def exact_pivot_columns(matrix):
    """Column indices of a maximal independent subset, in elimination order."""
    return [c for _, c in _rref(_sparse_rows(matrix))]


def exact_solve(A, rhs):
    """For each right-hand side b in ``rhs``, one exact solution of A x = b
    (free variables 0), or None if none exists.

    One elimination serves every b: pivots are taken among A's columns only,
    and the reduced row echelon form is unique, so each solution is the one
    b would get alone.  Rows of A are sequences, and each solution is a
    list, or they are ``{column: value}`` Mappings, and each is a dict of
    its nonzero entries.  Each b is a sequence with one entry per row or a
    ``{row index: value}`` Mapping of its nonzero entries.
    """
    rows = _sparse_rows(A, [b if isinstance(b, Mapping) else dict(enumerate(b)) for b in rhs])
    pivots = _rref(rows)
    # rows left over are zero among the unknowns: each reads 0 = b_i for its b's
    inconsistent = {c for row in rows if row and max(row) < 0 for c in row}
    solutions = [
        None if b in inconsistent
        else {c: Fraction(row[b], row[c]) for row, c in pivots if b in row}
        for b in range(-1, -1 - len(rhs), -1)
    ]
    if len(A) and _is_mapping(A[0]):
        return solutions
    width = max(map(len, A), default=0)
    return [
        None if x is None else [x.get(c, Fraction(0)) for c in range(width)]
        for x in solutions
    ]


def svd_rank(matrix, rel_tol):
    import numpy as np  # only float ranks need numpy
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def affine_rank(vectors, rel_tol):
    """Dimension of the affine hull of the vectors: the rank of their
    differences from the first, counting singular values above rel_tol
    times the largest singular value of the vectors or of the differences,
    whichever is larger.  So it is never above ``svd_rank`` of the
    differences, and noise between nearly equal vectors is not rank."""
    import numpy as np
    m = np.asarray(vectors, dtype=float)
    if len(m) < 2:
        return 0
    diffs = m[1:] - m[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    scale = max(np.linalg.norm(m, 2), sv[0])
    if scale == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * scale))


def all_exact(vectors):
    return all(
        isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        for v in vectors
        for x in v
    )


def _rank(vectors, exact):
    return len(exact_pivot_columns(vectors)) if exact else svd_rank(vectors, VALUE_REL_TOL)


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
    import numpy as np
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
