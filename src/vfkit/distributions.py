"""Distributions generated by finitely many vector fields.

The fibre at a point is the real span of the generator values there.  Rank
is computed exactly over the rationals whenever every generator value
evaluates exactly (flat functions contribute exact zeros on their flat
set), and by singular values with a relative threshold otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .expr import Expr, ZERO, compile_exact
from .vectorfield import VectorField, field_values
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
        raise ValueError(f"no generator of the distribution is defined at {point}")
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
    acc = ZERO
    sign = 1
    for k, c in enumerate(cols):
        sub = _symbolic_minor(matrix, rows[1:], cols[:k] + cols[k + 1 :])
        term = matrix[rows[0]][c] * sub
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


# Seeded rational points in [-4, 4]^n with denominator 8 set the generic
# rank and check the minors.
MINOR_SAMPLES = 200
MINOR_SEED = 20240


def singular_locus_minors(D):
    """Generic rank and the full list of (rank x rank)-minors of the
    generator matrix; their common zeros cut out the singular locus.

    The rank is the largest at ``MINOR_SAMPLES`` seeded rational points,
    and at every one of them a rank drop must coincide with all minors
    vanishing (an AssertionError otherwise)."""
    obstacle = D.minors_obstacle()
    if obstacle:
        raise ValueError(obstacle)
    n = D.dim
    k = len(D.generators)
    rng = random.Random(MINOR_SEED)
    pts = [tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(n))
           for _ in range(MINOR_SAMPLES)]
    ranks = [fibre_rank(p, vals).rank for p, vals in zip(pts, field_values(D.generators, pts))]
    m = max(ranks)
    # component matrix: n rows (coordinates), k columns (generators)
    matrix = [[D.generators[j].components[i] for j in range(k)] for i in range(n)]
    minors = []
    if m > 0:
        for rows in itertools.combinations(range(n), m):
            for cols in itertools.combinations(range(k), m):
                minor = _symbolic_minor(matrix, rows, cols)
                if not minor.is_zero():
                    minors.append(minor)
    zeros = [compile_exact(mi) for mi in minors]
    for p, rank in zip(pts, ranks):
        drop = rank < m
        all_zero = all(z(p) == 0 for z in zeros)
        if drop != all_zero:
            raise AssertionError(
                f"minor soundness failed at {p}: rank drop {drop}, minors zero {all_zero}"
            )
    return SingularLocus(m, tuple(minors))
