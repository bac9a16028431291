"""Bracket-generated Lie algebra of a finite family of vector fields.

Left-nested bracket words [X_ik, [..., [X_i2, X_i1]...]] span the whole
generated Lie algebra, so the filtration enumerates only those, pruning
symbolic zeros and rational multiples of words already kept.  ``filtration``
builds the words to the cap, with the free symbolic-closure certificate
and nothing else.  For polynomial families ``certify`` then attempts a
stabilization certificate: once every depth-(k+1) word is a degree-bounded
member of the module spanned by the words of depth <= k, no deeper word can
leave that module, and pointwise ranks are final.  Each depth tried is one
``membership.module_contains`` system, whose "no" builds no multipliers and
whose "yes" is re-verified.  ``vfkit lie`` always certifies; the orbit
functions only below full rank.
Brackets of polynomial fields are computed on exponent dicts
(``vectorfield.lie_bracket``).  Every bracket rank at points is read from one
ladder, ``word_vectors``: one depth at a time, the filtration built so far
and, per point, its words' values and rank, each word evaluated once per
point and none at a point already at full rank, so a caller that needs only
a rank can stop at the first depth that gives it (``orbits.exact_ranks``).
Fixed time needs no algebra of its own.  The time-extended family
``time_extended``, Y_i = (X_i, 1) on R^n x R, has brackets
[Y_i, Y_j] = ([X_i, X_j], 0), so at (x, t) its words span
R*Y_j + (L0(x) x 0), where L0 = {sum c_i X_i : sum c_i = 0} + [L, L] is the
zero-time ideal: ``ideal_vectors`` reads from Y's word values vectors
spanning L0(x), whose rank is the rank of Y's words minus 1, and dropping
their last coordinate gives Lie(F)(x).  ``zero_time_ladder`` is the one
ladder of L0 at points p: Y's words at the starts (p, 0).
Involutivity reads the nonzero pairwise brackets, built once by
``pairwise_brackets`` and compiled once by ``pointwise_witnesses``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .expr import ONE, Expr
from .vectorfield import VectorField, field_evaluators, field_values, jacobian, lie_bracket
from .linalg import in_span, span_rank
from .membership import OversizeError, module_contains

__all__ = [
    "BracketWord",
    "LieFiltration",
    "filtration",
    "word_vectors",
    "certify",
    "zero_time_ladder",
    "pairwise_brackets",
    "pointwise_witnesses",
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
            inverse = Fraction(1) / comp.terms[0][0]
            break
    else:
        return None
    scaled = tuple(
        Expr(tuple((c * inverse, f) for c, f in comp.terms)).sort_key()
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
    note: Optional[str] = None  # why the module search stopped short of the cap


def _filtration_by_depth(family, depth_cap):
    """The filtration to depth d = 1, ..., depth_cap (its ``depth_cap``),
    the brackets of depth d + 1 built only when asked for, with only the
    symbolic-closure certificate; a cap outside [1, DEPTH_CAP_LIMIT] raises
    before any word is built."""
    family = tuple(family)
    if depth_cap < 1 or depth_cap > DEPTH_CAP_LIMIT:
        raise LieAlgebraError(f"depth cap must lie in [1, {DEPTH_CAP_LIMIT}]")

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
    partials = None  # the generators' jacobians, taken at the first bracket depth
    for depth in range(1, depth_cap + 1):
        if depth > 1:
            if partials is None:
                # polynomial brackets differentiate on exponent dicts instead
                polynomial = all(g.is_polynomial() for g in family)
                partials = [None if polynomial else jacobian(g) for g in family]
            new_level = []
            for word, f in levels[-1]:
                for i, g in enumerate(family):
                    b = lie_bracket(g, f, partials[i])
                    key = _normal_key(b)
                    if key is None or key in seen:  # zero, or a multiple of a kept word
                        continue
                    seen.add(key)
                    w = BracketWord(word.indices + (i,))
                    new_level.append((w, VectorField(str(w), b.components, b.domain)))
            levels.append(new_level)
            if not new_level and stabilized_at is None:
                # every deeper word is zero or a rational multiple of a kept one
                stabilized_at = depth - 1
        certificate = None if stabilized_at is None else "symbolic-closure"
        yield LieFiltration(family, depth, list(levels), stabilized_at, certificate)


def filtration(family, depth_cap=DEFAULT_DEPTH_CAP):
    """The bracket words up to the cap, with the symbolic-closure
    certificate when some depth adds no word.  No module search is run;
    ``certify`` runs it."""
    *_, filt = _filtration_by_depth(family, depth_cap)
    return filt


def word_vectors(family, values, points, depth_cap=DEFAULT_DEPTH_CAP, view=None):
    """The rank ladder: per depth d = 1, ..., depth_cap, the filtration to
    depth d and, per point, the values there of its words (each left out
    outside its domain) and the ``linalg.span_rank`` of ``view(words)`` (by
    default the words; ``ideal_vectors`` ranks the zero-time ideal), given
    the generators' ``vectorfield.field_values`` there.  A rank only grows
    with depth up to the viewed vectors' length, so a point at that rank
    keeps its values and takes no deeper word.  Each word is compiled once,
    for the points below it, and not at all when there are none."""
    view = view or (lambda words: words)
    vectors, ranks, live = [[] for _ in points], [0] * len(points), list(range(len(points)))
    for filt in _filtration_by_depth(family, depth_cap):
        if filt.depth_cap == 1:  # the generators' values are given
            found = [[vals[w.indices[0]] for w, _ in filt.levels[0]] for vals in values]
        else:
            level = [f for _, f in filt.levels[-1]]
            found = field_values(level, [points[k] for k in live]) if level and live else ()
        for k, vals in zip(list(live), found):
            if new := [v for v in vals if v is not None]:
                vectors[k] = vectors[k] + new
                viewed = view(vectors[k])
                ranks[k] = span_rank(viewed)
                if viewed and ranks[k] == len(viewed[0]):
                    live.remove(k)
        yield filt, list(vectors), list(ranks)


def certify(filt, module_degree=DEFAULT_MODULE_DEGREE):
    """``filt`` with a stabilization certificate where the module search
    finds one: for a polynomial family that symbolic closure did not
    certify, the first depth whose words are members, with multipliers of
    degree <= module_degree, of the module of the shallower words
    ("module-degree-D"), one membership system per depth tried.  The search
    stops, uncertified and with a note, at the first system whose solve
    raises ``membership.OversizeError``; a degree outside ``DEGREE_CAP``
    raises MembershipError.  Any other filtration is returned as it is."""
    if filt.certificate is not None or not all(g.is_polynomial() for g in filt.family):
        return filt
    kept = [[f for _, f in level] for level in filt.levels]
    stabilized_at, note = _module_closure(kept, module_degree)
    certificate = None if stabilized_at is None else f"module-degree-{module_degree}"
    return replace(filt, stabilized_at=stabilized_at, certificate=certificate, note=note)


def _module_closure(levels, degree):
    """The first depth d whose words are members, with multipliers of
    degree <= degree, of the module generated by the words of
    ``levels[:d]``: (d, None).  (None, why) when a system's solve raises
    ``membership.OversizeError`` first; (None, None) when no depth below
    the cap closes."""
    for depth in range(1, len(levels)):
        basis = [f for lv in levels[:depth] for f in lv]
        try:
            if module_contains(levels[depth], basis, degree):
                return depth, None
        except OversizeError as err:
            return None, f"module search stopped at depth {depth}: {err}"
    return None, None


def time_extended(family):
    """The time-extended family Y_i = (X_i, 1) on R^n x R, each on its
    field's domain, named as its field: a word of net time T flows (x, t)
    to (x', t + T), so the fixed-time orbits are the slices t = const of
    Y's orbits."""
    return tuple(VectorField(X.name, X.components + (ONE,), X.domain) for X in family)


def ideal_vectors(words):
    """Vectors spanning the zero-time ideal L0(x), given the values at
    (x, t) of the time-extended family's words (``word_vectors``): the
    brackets, whose last coordinate is 0, and each generator's difference
    from the first, whose last coordinate is 1, without that coordinate.
    Their rank is the rank of the words minus 1, but unlike that it does not
    depend on how large the values are against the constant 1."""
    generators = [w for w in words if w[-1]]
    return ([[a - b for a, b in zip(g[:-1], generators[0])] for g in generators[1:]]
            + [w[:-1] for w in words if not w[-1]])


def zero_time_ladder(family, values, points, depth_cap=DEFAULT_DEPTH_CAP):
    """The rank ladder (``word_vectors``) of the zero-time ideal at the
    points p: the time-extended family's words at the starts (p, 0), ranked
    on their ``ideal_vectors``, given the family's
    ``vectorfield.field_values`` at the points (Y_i(p, 0) is X_i(p) with a
    1 appended)."""
    lifted = [[None if v is None else [*v, 1] for v in vals] for vals in values]
    return word_vectors(time_extended(family), lifted, [(*p, 0) for p in points], depth_cap,
                        ideal_vectors)


def pairwise_brackets(family):
    """The nonzero brackets [X_i, X_j], i < j, keyed by (i, j) in
    ``itertools.combinations`` order."""
    brackets = {(i, j): lie_bracket(family[i], family[j])
                for i, j in itertools.combinations(range(len(family)), 2)}
    return {ij: b for ij, b in brackets.items() if not b.is_zero()}


def pointwise_witnesses(values, brackets, points):
    """Per point, drawn lazily: (i, j, point) for the first of the
    ``pairwise_brackets`` whose value there leaves the span of the
    generators' ``vectorfield.field_values`` ``values`` there, or None: the
    family is involutive at the point.  Each bracket is compiled once for
    all the points and evaluated only until the first witness."""
    evaluators = list(zip(brackets, field_evaluators(brackets.values())))
    for vals, point in zip(values, points):
        fibre = [v for v in vals if v is not None]
        witness = None
        for (i, j), value in evaluators:
            b = value(point)
            if b is not None and not in_span(fibre, b):
                witness = (i, j, tuple(point))
                break
        yield witness

