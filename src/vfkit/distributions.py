"""Distributions generated by finitely many vector fields.

The fibre at a point is the real span of the generator values there.  Rank
is computed exactly over the rationals whenever every generator value
evaluates exactly (flat functions contribute exact zeros on their flat
set), and by singular values with a relative threshold otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .expr import Expr, ZERO, const
from .fields import FlowError, VectorField, lie_bracket, pushforward_along_words
from .linalg import (
    FLOW_REL_TOL,
    all_exact,
    exact_nullspace,
    exact_pivot_columns,
    in_span,
    orthogonal_residual,
    span_rank,
)

__all__ = [
    "Distribution",
    "RankReport",
    "GridClassification",
    "SingularLocus",
    "InvarianceReport",
    "rank_at",
    "classify_grid",
    "grid_points",
    "singular_locus_minors",
    "adapt_generators",
    "invariance_check",
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

    def defined_values(self, point):
        """(index, value) for every generator whose domain contains point."""
        out = []
        for i, g in enumerate(self.generators):
            if g.domain.contains(point):
                out.append((i, g.value(point)))
        return out


@dataclass(frozen=True)
class RankReport:
    point: tuple
    rank: int
    method: str  # "exact-rational" | "svd-tolerance"
    witness: Tuple[int, ...]  # generator indices forming a fibre basis
    excluded: Tuple[int, ...]  # generators undefined at the point


def rank_at(D, point):
    defined = D.defined_values(point)
    if not defined:
        raise ValueError(f"no generator of the distribution is defined at {point}")
    excluded = tuple(
        i for i in range(len(D.generators)) if i not in {j for j, _ in defined}
    )
    idxs = [i for i, _ in defined]
    vals = [v for _, v in defined]
    if all_exact(vals):
        pivots = exact_pivot_columns([list(col) for col in zip(*vals)])
        # columns of the n x k matrix are the generator values
        witness = tuple(idxs[c] for c in pivots)
        return RankReport(tuple(point), len(pivots), "exact-rational", witness, excluded)
    m = np.array([[float(x) for x in v] for v in vals], dtype=float)
    r = span_rank(m)
    # greedy witness: add generators while the rank grows
    witness = []
    for row_i, i in enumerate(idxs):
        candidate = witness + [row_i]
        if span_rank(m[candidate]) == len(candidate):
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
    ranks = {multi: rank_at(D, p).rank for multi, p in zip(index_grid, points)}
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
    rng = np.random.default_rng(MINOR_SEED)
    pts = [
        tuple(Fraction(int(rng.integers(-32, 33)), 8) for _ in range(n))
        for _ in range(MINOR_SAMPLES)
    ]
    m = 0
    for p in pts:
        m = max(m, rank_at(D, p).rank)
        if m == min(n, k):
            break
    # component matrix: n rows (coordinates), k columns (generators)
    matrix = [[D.generators[j].components[i] for j in range(k)] for i in range(n)]
    minors = []
    if m > 0:
        for rows in itertools.combinations(range(n), m):
            for cols in itertools.combinations(range(k), m):
                minor = _symbolic_minor(matrix, rows, cols)
                if not minor.is_zero():
                    minors.append(minor)
    for p in pts:
        drop = rank_at(D, p).rank < m
        all_zero = all(mi.eval(p) == 0 for mi in minors)
        if drop != all_zero:
            raise AssertionError(
                f"minor soundness failed at {p}: rank drop {drop}, minors zero {all_zero}"
            )
    return SingularLocus(m, tuple(minors))


def adapt_generators(D, point):
    """Recombine generators so the first ``rank`` of them are a fibre basis
    at the point and the remaining ones vanish there.

    Requires every generator value at the point to be exactly evaluable.
    """
    defined = D.defined_values(point)
    idxs = [i for i, _ in defined]
    vals = [v for _, v in defined]
    if not all_exact(vals):
        raise ValueError("adapt_generators needs exactly evaluable generator values")
    k = len(vals)
    columns = [list(col) for col in zip(*vals)]  # n x k
    pivots = exact_pivot_columns(columns)
    m = len(pivots)
    order = list(pivots) + [j for j in range(k) if j not in pivots]
    reordered = [D.generators[idxs[j]] for j in order]
    reordered_vals = [vals[j] for j in order]
    kernel = exact_nullspace([list(col) for col in zip(*reordered_vals)])
    out = list(reordered[:m])
    for vec in kernel:
        comps = tuple(
            sum(
                (const(vec[l]) * reordered[l].components[c] for l in range(k)),
                ZERO,
            )
            for c in range(D.dim)
        )
        name = "+".join(
            f"({vec[l]})*{reordered[l].name}" for l in range(k) if vec[l] != 0
        )
        domain = reordered[0].domain
        for l in range(1, k):
            if vec[l] != 0:
                domain = domain.intersect(reordered[l].domain)
        out.append(VectorField(name or "0", comps, domain))
    for extra in out[m:]:
        value = extra.value(point)
        if any(v != 0 for v in value):
            raise AssertionError("adapted generator fails to vanish at the point")
    return out


@dataclass(frozen=True)
class InvarianceReport:
    bracket_invariant: bool
    bracket_witness: Optional[tuple]  # (generator index, point, bracket value)
    flow_invariant_sampled: bool
    flow_witness: Optional[tuple]  # (generator index, point, time, residual)
    flow_samples_skipped: int  # (generator, point, time) samples with no pushforward


def invariance_check(D, X, sample_points, flow_times):
    """Bracket-invariance ([X, g] stays in the fibre) and sampled
    flow-invariance (pushforwards by the flow of X stay in the fibre).

    At each sample point every generator is pushed forward through the
    one-step words of all the times in one walk.  A sample whose flow
    fails, or whose generator is undefined at the pulled-back point, is
    skipped and counted in ``flow_samples_skipped``."""
    bracket_ok = True
    bracket_witness = None
    for gi, g in enumerate(D.generators):
        B = lie_bracket(X, g)
        for p in sample_points:
            if not B.domain.contains(p):
                continue
            fibre = [v for _, v in D.defined_values(p)]
            bval = B.value(p)
            if not in_span(fibre, bval):
                bracket_ok = False
                if bracket_witness is None:
                    bracket_witness = (gi, tuple(p), tuple(bval))
    # the witness is the first failure in (generator, point, time) order
    flow_failures = []
    skipped = 0
    words = [[(0, t)] for t in flow_times]
    for pi, p in enumerate(sample_points):
        at_p = pushforward_along_words([X], words, D.generators, p)
        fibre = None  # evaluated at the first pushforward that succeeds
        for ti, (t, pushed) in enumerate(zip(flow_times, at_p)):
            if isinstance(pushed, FlowError):
                skipped += len(D.generators)
                continue
            if fibre is None:
                fibre = [vv for _, vv in D.defined_values(p)]
            for gi, v in enumerate(pushed):
                if v is None:
                    skipped += 1
                    continue
                residual = orthogonal_residual(fibre, v)
                if residual > FLOW_REL_TOL:
                    flow_failures.append(((gi, pi, ti), (gi, tuple(p), t, residual)))
    flow_witness = min(flow_failures)[1] if flow_failures else None
    return InvarianceReport(
        bracket_invariant=bracket_ok,
        bracket_witness=bracket_witness,
        flow_invariant_sampled=not flow_failures,
        flow_witness=flow_witness,
        flow_samples_skipped=skipped,
    )

