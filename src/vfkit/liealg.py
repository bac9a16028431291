"""Bracket-generated Lie algebra of a finite family of vector fields.

Left-nested bracket words [X_ik, [..., [X_i2, X_i1]...]] span the whole
generated Lie algebra, so the filtration enumerates only those, pruning
symbolic zeros and rational multiples of words already kept.  A pruned
bracket that is a multiple of a generator is still recorded, apart from
the levels, since the derived algebra [L, L] needs it.  ``filtration``
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
walk, ``word_vectors``: one depth at a time, the filtration built so far
and, per point, the values of the words and of the derived words, each word
evaluated once per point, so a caller that needs only a rank can stop at
the first depth that gives it (``orbits.exact_ranks``).
``derived_certificate`` certifies the same way that the derived words span
[L, L] at every point.
Involutivity reads the nonzero pairwise brackets, built once by
``pairwise_brackets`` and compiled once by ``pointwise_witnesses``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .expr import Expr
from .vectorfield import VectorField, field_evaluators, field_values, lie_bracket, point_text
from .linalg import in_span
from .membership import OversizeError, module_contains

__all__ = [
    "BracketWord",
    "LieFiltration",
    "filtration",
    "word_vectors",
    "certify",
    "derived_certificate",
    "pairwise_brackets",
    "pointwise_witnesses",
    "zero_time_vectors",
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
    # pruned brackets of depth >= 2 that are rational multiples of a
    # generator, the first one per generator
    generator_duplicates: List[Tuple[BracketWord, VectorField]] = field(
        default_factory=list)


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
    generator_keys = set(seen)
    duplicates = {}  # generator key -> the first bracket that is its multiple

    stabilized_at = None
    for depth in range(1, depth_cap + 1):
        if depth > 1:
            new_level = []
            for word, f in levels[-1]:
                for i, g in enumerate(family):
                    b = lie_bracket(g, f)
                    w = BracketWord(word.indices + (i,))
                    if b.is_zero():
                        continue
                    key = _normal_key(b)
                    if key in seen:
                        if key in generator_keys and key not in duplicates:
                            duplicates[key] = (w, VectorField(str(w), b.components,
                                                              b.domain))
                        continue
                    seen.add(key)
                    new_level.append((w, VectorField(str(w), b.components, b.domain)))
            levels.append(new_level)
            if not new_level and stabilized_at is None:
                # every deeper word is zero or a rational multiple of a kept one
                stabilized_at = depth - 1
        certificate = None if stabilized_at is None else "symbolic-closure"
        yield LieFiltration(family, depth, list(levels), stabilized_at, certificate, None,
                            list(duplicates.values()))


def filtration(family, depth_cap=DEFAULT_DEPTH_CAP):
    """The bracket words up to the cap, with the symbolic-closure
    certificate when some depth adds no word.  No module search is run;
    ``certify`` runs it."""
    *_, filt = _filtration_by_depth(family, depth_cap)
    return filt


def word_vectors(family, values, points, depth_cap=DEFAULT_DEPTH_CAP):
    """Per depth d = 1, ..., depth_cap: the filtration to depth d and, per
    point, (words, derived): the values there of its words and of the
    derived words (depth >= 2, then the generator duplicates, which with
    them span every bracket of depth >= 2), each left out outside its
    domain.  ``values`` are the generators' ``vectorfield.field_values`` there.
    Each word is compiled once for all the points and evaluated at the depth
    that builds it; a caller that stops early builds no deeper word."""
    deeper = [[] for _ in points]  # per point, the words of depth >= 2
    duplicates = [[] for _ in points]  # and the generator duplicates
    evaluated = 0  # generator duplicates evaluated so far
    for filt in _filtration_by_depth(family, depth_cap):
        level = [f for _, f in filt.levels[-1]] if filt.depth_cap > 1 else []
        new = level + [f for _, f in filt.generator_duplicates[evaluated:]]
        evaluated = len(filt.generator_duplicates)
        for words, dups, vals in zip(deeper, duplicates, field_values(new, points)):
            words += [v for v in vals[:len(level)] if v is not None]
            dups += [v for v in vals[len(level):] if v is not None]
        generators = [w.indices[0] for w, _ in filt.levels[0]]
        yield filt, [([vals[i] for i in generators if vals[i] is not None] + words,
                      words + dups) for vals, words, dups in zip(values, deeper, duplicates)]


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
    stabilized_at, note = _module_closure(kept, 0, [], module_degree)
    certificate = None if stabilized_at is None else f"module-degree-{module_degree}"
    return replace(filt, stabilized_at=stabilized_at, certificate=certificate, note=note)


def _module_closure(levels, low, extra, degree):
    """The first depth d > low whose words are members, with multipliers
    of degree <= degree, of the module generated by the words of
    ``levels[low:d]`` and ``extra``: (d, None).  (None, why) when a
    system's solve raises ``membership.OversizeError`` first; (None, None)
    when no depth below the cap closes."""
    for depth in range(low + 1, len(levels)):
        basis = [f for lv in levels[low:depth] for f in lv] + extra
        try:
            if module_contains(levels[depth], basis, degree):
                return depth, None
        except OversizeError as err:
            return None, f"module search stopped at depth {depth}: {err}"
    return None, None


def derived_certificate(filt):
    """Why the derived words of ``filt`` (``word_vectors``) span [L, L] at
    every point, or None.

    Under "symbolic-closure" every bracket of depth >= 2 is zero or a
    rational multiple of a derived word, and that certificate is returned.
    Under a module certificate, d = 2, 3, ... are tried below the cap: once
    every depth-(d+1) word is a member, with multipliers of degree <=
    ``DEFAULT_MODULE_DEGREE``, of the module generated by the words of
    depths 2..d and the generator duplicates, the product rule
    [X_i, a Y] = X_i(a) Y + a [X_i, Y] closes that module under every
    ad X_i, so it holds every bracket of depth >= 2, and
    "derived-module-degree-D" is returned.  One membership system per depth
    tried; the search stops uncertified at the first system whose solve
    raises ``membership.OversizeError``."""
    if filt.certificate is None or filt.certificate == "symbolic-closure":
        return filt.certificate
    kept = [[f for _, f in level] for level in filt.levels]
    duplicates = [f for _, f in filt.generator_duplicates]
    depth, _ = _module_closure(kept, 1, duplicates, DEFAULT_MODULE_DEGREE)
    return None if depth is None else f"derived-module-degree-{DEFAULT_MODULE_DEGREE}"


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


def zero_time_vectors(values, derived, point):
    """Vectors spanning the fixed-time ideal at the point: the differences
    of the generators' values there (``vectorfield.field_values``, None outside
    a domain) from the first defined one, then the derived words' values
    ``derived``."""
    defined = [v for v in values if v is not None]
    if not defined:
        raise LieAlgebraError(f"no generator defined at {point_text(point)}")
    return [[a - b for a, b in zip(v, defined[0])] for v in defined[1:]] + derived
