"""Bracket-generated Lie algebra of a finite family of vector fields.

Left-nested bracket words [X_ik, [..., [X_i2, X_i1]...]] span the whole
generated Lie algebra, so the filtration enumerates only those, pruning
symbolic zeros and rational multiples of words already kept.  For
polynomial families a stabilization certificate is attempted: once every
depth-(k+1) word is a degree-bounded member of the module spanned by the
words of depth <= k, no deeper word can leave that module, and pointwise
ranks are final.  Ranks at a point and depth are read from the filtration
with ``LieFiltration.rank_at``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .expr import Expr
from .fields import VectorField, lie_bracket
from .linalg import in_span, span_rank
from .membership import members_bounded

__all__ = [
    "BracketWord",
    "LieFiltration",
    "InvolutivityReport",
    "FixedTimeRankReport",
    "filtration",
    "involutive",
    "derived_algebra",
    "fixed_time_ideal_rank",
]

DEPTH_CAP_LIMIT = 10
DEFAULT_DEPTH_CAP = 6
# Multiplier degree bound of the module stabilization certificate.
DEFAULT_MODULE_DEGREE = 6


class LieAlgebraError(Exception):
    pass


@dataclass(frozen=True)
class BracketWord:
    """Indices (i1, ..., ik) standing for [X_ik, [..., [X_i2, X_i1]...]]."""

    indices: Tuple[int, ...]

    @property
    def depth(self):
        return len(self.indices)

    def __str__(self):
        if self.depth == 1:
            return f"X{self.indices[0] + 1}"
        inner = str(BracketWord(self.indices[:-1]))
        return f"[X{self.indices[-1] + 1},{inner}]"


def _normal_key(field_):
    """Key invariant under nonzero rational rescaling, for duplicate pruning."""
    for comp in field_.components:
        if comp.terms:
            lead = comp.terms[0][0]
            break
    else:
        return None
    scaled = tuple(
        (comp * Expr(((Fraction(1) / lead, ()),))).sort_key()
        for comp in field_.components
    )
    return (scaled, field_.domain.constraints)


@dataclass
class LieFiltration:
    family: Tuple[VectorField, ...]
    depth_cap: int
    levels: List[List[Tuple[BracketWord, VectorField]]]
    stabilized_at: Optional[int]  # certified depth; None = capped at depth_cap
    certificate: Optional[str]  # "symbolic-closure" | "module-degree-D"

    def rank_at(self, point, depth=None):
        """Rank at the point of the words of depth <= depth (default: the cap)."""
        depth = depth or self.depth_cap
        vectors = [
            f.value(point)
            for level in self.levels[:depth]
            for _, f in level
            if f.domain.contains(point)
        ]
        return span_rank(vectors)


def filtration(family, depth_cap=DEFAULT_DEPTH_CAP, module_degree=DEFAULT_MODULE_DEGREE):
    """Generate bracket words up to the cap and try to certify stabilization
    for polynomial families, with multipliers of degree <= module_degree:
    one membership system per depth tried.  A system outside the caps of
    ``members_bounded`` raises its MembershipError."""
    family = tuple(family)
    if depth_cap < 1 or depth_cap > DEPTH_CAP_LIMIT:
        raise LieAlgebraError(f"depth cap must lie in [1, {DEPTH_CAP_LIMIT}]")
    polynomial = all(g.is_polynomial() for g in family)

    seen = set()
    levels: List[List[Tuple[BracketWord, VectorField]]] = []
    current = []
    for i, g in enumerate(family):
        key = _normal_key(g)
        if key is None or key in seen:
            continue
        seen.add(key)
        current.append((BracketWord((i,)), g))
    levels.append(current)

    stabilized_at = None
    certificate = None
    for depth in range(2, depth_cap + 1):
        new_level = []
        for word, f in levels[-1]:
            for i, g in enumerate(family):
                b = lie_bracket(g, f)
                w = BracketWord(word.indices + (i,))
                if b.is_zero():
                    continue
                key = _normal_key(b)
                if key in seen:
                    continue
                seen.add(key)
                new_level.append((w, VectorField(str(w), b.components, b.domain)))
        levels.append(new_level)
        if not new_level and stabilized_at is None:
            # every deeper word is zero or a rational multiple of a kept one
            stabilized_at = depth - 1
            certificate = "symbolic-closure"
    if polynomial and stabilized_at is None:
        # module containment certificate, cheapest depth first
        kept = [[f for _, f in level] for level in levels]
        for depth in range(1, depth_cap):
            basis = [f for lv in kept[:depth] for f in lv]
            if all(c.member for c in members_bounded(kept[depth], basis, module_degree)):
                stabilized_at = depth
                certificate = f"module-degree-{module_degree}"
                break

    return LieFiltration(family, depth_cap, levels, stabilized_at, certificate)


@dataclass(frozen=True)
class InvolutivityReport:
    mode: str  # "pointwise" | "module"
    involutive: bool
    witness: Optional[tuple]  # (i, j, point) or (i, j) for module refutations
    degree: Optional[int] = None

    def __bool__(self):
        return self.involutive


def involutive(family, mode="pointwise", samples=(), degree=2):
    """Pairwise-bracket involutivity of the family.

    pointwise: every bracket value lies in the span of the generator values
    at each sample.  module: every bracket is a degree-bounded member of
    the generated module (polynomial families only).
    """
    family = tuple(family)
    pairs = list(itertools.combinations(range(len(family)), 2))
    if mode == "module":
        brackets = {(i, j): lie_bracket(family[i], family[j]) for i, j in pairs}
        brackets = {ij: b for ij, b in brackets.items() if not b.is_zero()}
        certs = members_bounded(brackets.values(), family, degree) if brackets else []
        witness = next((ij for ij, c in zip(brackets, certs) if not c.member), None)
        return InvolutivityReport("module", witness is None, witness, degree)
    if mode != "pointwise":
        raise LieAlgebraError(f"unknown involutivity mode {mode!r}")
    if not samples:
        raise LieAlgebraError("pointwise involutivity needs sample points")
    for i, j in pairs:
        b = lie_bracket(family[i], family[j])
        if b.is_zero():
            continue
        for p in samples:
            if not b.domain.contains(p):
                continue
            fibre = [g.value(p) for g in family if g.domain.contains(p)]
            if not in_span(fibre, b.value(p)):
                return InvolutivityReport("pointwise", False, (i, j, tuple(p)))
    return InvolutivityReport("pointwise", True, None)


def derived_algebra(family, depth_cap=DEFAULT_DEPTH_CAP):
    """All kept bracket words of depth >= 2 up to the cap."""
    filt = filtration(family, depth_cap)
    out = []
    for level in filt.levels[1:]:
        out.extend(level)
    return out


@dataclass(frozen=True)
class FixedTimeRankReport:
    point: tuple
    ideal_rank: int  # rank of I(X) at the point
    lie_rank: int  # rank of L^inf(X) at the point
    codim: int

    def __post_init__(self):
        if self.codim not in (0, 1):
            raise LieAlgebraError(
                f"codimension of the fixed-time ideal must be 0 or 1, got {self.codim}"
            )


def fixed_time_ideal_rank(filt, point):
    """Rank of the fixed-time ideal: zero-sum combinations of generators
    (the linear part of their affine hull at the point) plus the derived
    algebra of the filtration ``filt``; also the full Lie-algebra rank and
    the codimension."""
    defined = [g for g in filt.family if g.domain.contains(point)]
    if not defined:
        raise LieAlgebraError(f"no generator defined at {point}")
    values = [g.value(point) for g in defined]
    diffs = [
        [a - b for a, b in zip(v, values[0])] for v in values[1:]
    ]
    derived_vals = []
    for level in filt.levels[1:]:
        for _, f in level:
            if f.domain.contains(point):
                derived_vals.append(f.value(point))
    ideal_vectors = diffs + derived_vals
    lie_vectors = values + derived_vals
    i_rank = span_rank(ideal_vectors)
    l_rank = span_rank(lie_vectors)
    return FixedTimeRankReport(tuple(point), i_rank, l_rank, l_rank - i_rank)
