"""Distributions generated by finitely many vector fields.

The fibre at a point is the real span of the generator values there.  Rank
is computed exactly over the rationals whenever every generator value
evaluates exactly (flat functions contribute exact zeros on their flat
set), and by singular values with a relative threshold otherwise.  For
polynomial generators on all of R^n the generic rank is exact: the largest
r with an r x r minor of the generator matrix that is not identically zero
(rank 0 gives the one minor "1").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .expr import Expr, ONE, sum_products
from .vectorfield import VectorField, field_values, point_text
from .linalg import all_exact, exact_pivot_columns, span_rank

__all__ = [
    "Distribution",
    "RankReport",
    "GridClassification",
    "SingularLocus",
    "rank_at",
    "fibre_rank",
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
    values = field_values(D.generators, points)
    ranks = {multi: fibre_rank(p, vals).rank
             for multi, p, vals in zip(index_grid, points, values)}
    regular = []
    for multi in index_grid:
        r = ranks[multi]
        flag = True
        for d in range(n):
            for delta in (-1, 1):
                nb = list(multi)
                nb[d] += delta
                if 0 <= nb[d] < shape[d] and ranks[tuple(nb)] > r:
                    flag = False
        regular.append(flag)
    density = sum(regular) / len(regular) if regular else 0.0
    return GridClassification(
        tuple(points), tuple(ranks[m] for m in index_grid), tuple(regular), density
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


def singular_locus_minors(D):
    """Generic rank and the nonzero (rank x rank)-minors of the generator
    matrix; their common zeros cut out the singular locus.

    The generic rank is exact: rank A(p) >= r exactly where some r x r
    minor is nonzero at p, so it is the largest r with a minor that is
    not identically zero.  Rank 0 (every generator zero) gives the one
    minor "1", whose zero set, the singular locus, is empty."""
    obstacle = D.minors_obstacle()
    if obstacle:
        raise ValueError(obstacle)
    n = D.dim
    k = len(D.generators)
    # component matrix: n rows (coordinates), k columns (generators)
    matrix = [[D.generators[j].components[i] for j in range(k)] for i in range(n)]
    for r in range(min(n, k), 0, -1):
        minors = []
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(k), r):
                minor = _symbolic_minor(matrix, rows, cols)
                if not minor.is_zero():
                    minors.append(minor)
        if minors:
            return SingularLocus(r, tuple(minors))
    return SingularLocus(0, (ONE,))
