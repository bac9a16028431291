"""Distributions generated by finitely many vector fields.

The fibre at a point is the real span of the generator values there.  Rank
is computed exactly over the rationals whenever every generator value
evaluates exactly (flat functions contribute exact zeros on their flat
set), and by singular values with a relative threshold otherwise.  For
polynomial generators on all of R^n the generic rank is exact: the largest
r with an r x r minor of the generator matrix that is not identically zero
(rank 0 gives the one minor "1").  One search walks the minors, largest
order first: ``singular_locus_minors`` keeps every nonzero minor of that
order, and ``fibre_ranks`` only the first, M.  No (r+1)-minor is nonzero
anywhere, so at a rational point where M is nonzero the rank is r; only
on M's zero set, at float points and for generators with a
``minors_obstacle`` are the generators evaluated and eliminated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .expr import Expr, ONE, compile_exact, sum_products
from .vectorfield import VectorField, field_values, point_text
from .linalg import all_exact, exact_pivot_columns, span_rank

__all__ = [
    "Distribution",
    "RankReport",
    "GridClassification",
    "SingularLocus",
    "rank_at",
    "fibre_rank",
    "fibre_ranks",
    "classify_grid",
    "grid_points",
    "singular_locus_minors",
]


@dataclass(frozen=True)
class Distribution:
    generators: Tuple[VectorField, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a distribution needs at least one generator")
        dims = {g.dim for g in self.generators}
        if len(dims) != 1:
            raise ValueError("generators live in different dimensions")

    @property
    def dim(self):
        return self.generators[0].dim

    def is_polynomial(self):
        return all(g.is_polynomial() for g in self.generators)

    def minors_obstacle(self):
        """Why ``singular_locus_minors`` does not apply, or None when it does.

        Minors of the full generator matrix match the fibre rank only when
        every generator is a polynomial defined on all of R^n."""
        if not self.is_polynomial():
            return "singular locus minors need polynomial generators"
        if not all(g.domain.is_full for g in self.generators):
            return "singular locus minors need generators defined on all of R^n"
        return None


@dataclass(frozen=True)
class RankReport:
    point: tuple
    rank: int
    method: str  # "exact-rational" | "svd-tolerance"
    witness: Tuple[int, ...]  # generator indices forming a fibre basis
    excluded: Tuple[int, ...]  # generators undefined at the point


def rank_at(D, point):
    return fibre_rank(point, field_values(D.generators, [point])[0])


def fibre_rank(point, values):
    """The ``RankReport`` at a point from the generators' values there
    (``vectorfield.field_values``)."""
    defined = [(i, v) for i, v in enumerate(values) if v is not None]
    if not defined:
        raise ValueError(f"no generator of the distribution is defined at {point_text(point)}")
    excluded = tuple(i for i, v in enumerate(values) if v is None)
    idxs = [i for i, _ in defined]
    vals = [v for _, v in defined]
    if all_exact(vals):
        pivots = exact_pivot_columns([list(col) for col in zip(*vals)])
        # columns of the n x k matrix are the generator values
        witness = tuple(idxs[c] for c in pivots)
        return RankReport(tuple(point), len(pivots), "exact-rational", witness, excluded)
    m = [[float(x) for x in v] for v in vals]
    r = span_rank(m)
    # greedy witness: add generators while the rank grows
    witness = []
    for row_i, i in enumerate(idxs):
        candidate = witness + [row_i]
        if span_rank([m[c] for c in candidate]) == len(candidate):
            witness.append(row_i)
        if len(witness) == r:
            break
    return RankReport(
        tuple(point), r, "svd-tolerance", tuple(idxs[c] for c in witness), excluded
    )


def fibre_ranks(D, points, values=None):
    """The fibre rank at each point, ``fibre_rank``'s, with each generator
    evaluated only where the first nonzero minor M of
    ``singular_locus_minors``'s order does not decide it (module docstring);
    ``values``, when given, are the generators' values at every point."""
    points = [tuple(p) for p in points]
    for p in points:
        if len(p) != D.dim:
            raise ValueError(f"a point has {len(p)} coordinates, the fields have {D.dim}")
    exact = [all(isinstance(c, (int, Fraction)) for c in p) for p in points]
    ranks = [None] * len(points)
    if any(exact) and D.minors_obstacle() is None:
        r, minor = next(_nonzero_minors(D))
        at = compile_exact(minor)
        ranks = [r if ok and at(p) != 0 else None for ok, p in zip(exact, points)]
    rest = [i for i, rank in enumerate(ranks) if rank is None]
    rest_values = (field_values(D.generators, [points[i] for i in rest]) if values is None
                   else [values[i] for i in rest])
    for i, vals in zip(rest, rest_values):
        ranks[i] = fibre_rank(points[i], vals).rank
    return tuple(ranks)


@dataclass(frozen=True)
class GridClassification:
    points: Tuple[tuple, ...]
    ranks: Tuple[int, ...]
    regular: Tuple[bool, ...]  # sampled-regular flags
    regular_density: float

    def label(self, i):
        return "regular" if self.regular[i] else "singular"


def grid_points(axes, n):
    """Points of the grid, last coordinate fastest.

    ``axes`` maps variable index (1-based) to a sequence of grid values for
    that coordinate; missing coordinates are pinned at 0.
    """
    return list(itertools.product(*(axes.get(i + 1, [Fraction(0)]) for i in range(n))))


def classify_grid(D, axes):
    """Classify grid samples (see ``grid_points``) as sampled-regular or
    sampled-singular.

    A sample is sampled-singular when an axis-adjacent neighbour has
    strictly greater rank (rank is lower semicontinuous, so a rank jump
    upward next door is the sampled signature of a singular point).
    """
    n = D.dim
    shape = [len(axes.get(i + 1, [0])) for i in range(n)]
    index_grid = list(itertools.product(*[range(s) for s in shape]))
    points = grid_points(axes, n)
    ranks = fibre_ranks(D, points)
    regular = [True] * len(points)
    # each axis-adjacent pair once: along axis d, the neighbour of the i-th
    # point (last coordinate fastest) is the (i + stride)-th
    for d in range(n):
        stride = math.prod(shape[d + 1:])
        for i, multi in enumerate(index_grid):
            j = i + stride
            if multi[d] + 1 < shape[d] and ranks[i] != ranks[j]:
                regular[i if ranks[i] < ranks[j] else j] = False
    density = sum(regular) / len(regular) if regular else 0.0
    return GridClassification(
        tuple(points), ranks, tuple(regular), density
    )


@dataclass(frozen=True)
class SingularLocus:
    generic_rank: int
    minors: Tuple[Expr, ...]


def _symbolic_minor(matrix, rows, cols):
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    head = matrix[rows[0]]
    return sum_products(
        (head[c] if k % 2 == 0 else -head[c],
         _symbolic_minor(matrix, rows[1:], cols[:k] + cols[k + 1 :]))
        for k, c in enumerate(cols))


def _nonzero_minors(D):
    """(r, minor) for each minor of the generator matrix that is not
    identically zero, of the largest order r that has one, rows then
    columns; (0, "1") when every generator is zero.  Lazy: a reader that
    stops early builds no further minor."""
    obstacle = D.minors_obstacle()
    if obstacle:
        raise ValueError(obstacle)
    n = D.dim
    k = len(D.generators)
    # component matrix: n rows (coordinates), k columns (generators)
    matrix = [[D.generators[j].components[i] for j in range(k)] for i in range(n)]
    for r in range(min(n, k), 0, -1):
        found = False
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(k), r):
                minor = _symbolic_minor(matrix, rows, cols)
                if not minor.is_zero():
                    found = True
                    yield r, minor
        if found:
            return
    yield 0, ONE


def singular_locus_minors(D):
    """Generic rank and the nonzero (rank x rank)-minors of the generator
    matrix; their common zeros cut out the singular locus.

    The generic rank is exact: rank A(p) >= r exactly where some r x r
    minor is nonzero at p, so it is the largest r with a minor that is
    not identically zero.  Rank 0 (every generator zero) gives the one
    minor "1", whose zero set, the singular locus, is empty."""
    found = list(_nonzero_minors(D))
    return SingularLocus(found[0][0], tuple(minor for _, minor in found))
