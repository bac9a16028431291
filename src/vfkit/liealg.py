"""Bracket-generated Lie algebra of a finite family of vector fields.

Left-nested bracket words [X_ik, [..., [X_i2, X_i1]...]] span the whole
generated Lie algebra, so the filtration enumerates only those, pruning
symbolic zeros and rational multiples of words already kept on the same
domain, and of depth 2 only [X_i, X_j] with i > j: [X_i, X_i] = 0, and
[X_i, X_j] = -[X_j, X_i] is built earlier in the same depth, from X_i, or
from X_k where X_i is pruned as c X_k, k < i, so the kept words are those
of every pair (the first layer of a Hall basis).  Each bracket is one
``vectorfield.bracket_components`` call on its operands' components,
exponent maps for a polynomial family, built once per word, and Exprs
otherwise, each generator's partials taken once, when first read.  One
key, ``_normal_key``, prunes on both: the terms with coprime integer
coefficients of a fixed sign, and the domain's constraints as a set.  Only a
kept word becomes a VectorField, with canonical Exprs.  ``filtration``
builds the words to the cap, with the free symbolic-closure certificate
and nothing else.  For polynomial families ``certify`` then attempts a
stabilization certificate: once every depth-(k+1) word is a degree-bounded
member of the module spanned by the words of depth <= k, no deeper word can
leave that module, and pointwise ranks are final.  Each depth tried is one
``membership.module_contains`` system, whose "no" builds no multipliers and
whose "yes" is re-verified.  ``vfkit lie`` always certifies; the orbit
functions only below full rank.
Every bracket rank at points is read from one ladder, ``word_vectors``:
one depth at a time, the filtration built so far and, per point, its
words' values and rank, each word evaluated once per point and none at a
point already at full rank, so a caller that needs only a rank can stop at
the first depth that gives it (``orbits.exact_ranks``).
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
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .expr import ONE, Expr, poly_coeff_dict, poly_from_coeff_dict
from .vectorfield import (VectorField, bracket_components, field_evaluators, field_values,
                          lie_bracket)
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
        text = f"X{self.indices[0] + 1}"
        for i in self.indices[1:]:
            text = f"[X{i + 1},{text}]"
        return text


def _normal_key(components, domain):
    """Key of a field up to nonzero rational rescaling, for duplicate
    pruning, from its components' (monomial, coefficient) terms: the set of
    (component, monomial, coefficient), the coefficients brought to coprime
    integers, the one of the least monomial of the first nonzero component
    positive, and the set of the domain's constraints; None for the zero
    field."""
    terms = [(i, m, c) for i, comp in enumerate(components) for m, c in comp]
    if not terms:
        return None
    den = math.lcm(*[c.denominator for _, _, c in terms])
    ints = [c.numerator * (den // c.denominator) for _, _, c in terms]
    scale = math.gcd(*ints)
    if min(t for t in terms if t[0] == terms[0][0])[2] < 0:
        scale = -scale
    return (frozenset([(i, m, k // scale) for (i, m, _), k in zip(terms, ints)]),
            frozenset(domain.constraints))


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

    # each word's components as exponent maps for a polynomial family, else
    # as Exprs, with the terms that the key reads and the Exprs of a kept word
    if all(g.is_polynomial() for g in family):
        nv = max([g.dim for g in family] + [c.max_var() for g in family for c in g.components],
                 default=0)
        comps = [[poly_coeff_dict(c, nv) for c in g.components] for g in family]
        terms, exprs = dict.items, lambda cs: tuple(poly_from_coeff_dict(c, nv) for c in cs)
    else:
        comps = [g.components for g in family]
        terms, exprs = Expr.sort_key, tuple
    partials = [{} for _ in family]  # -d_j X_i per generator, taken when first read

    seen = set()
    levels: List[List[Tuple[BracketWord, VectorField]]] = []
    current, last = [], []  # the kept words of the last depth, and their components
    for i, g in enumerate(family):
        key = _normal_key(map(terms, comps[i]), g.domain)
        if key is None or key in seen:
            continue
        seen.add(key)
        current.append((BracketWord((i,)), g))
        last.append(comps[i])
    levels.append(current)

    stabilized_at = None
    for depth in range(1, depth_cap + 1):
        if depth > 1:
            new_level, new_last = [], []
            for (word, f), fs in zip(levels[-1], last):
                # of depth 2 only [X_i, X_j] with i > j: see the module docstring
                for i in range(word.indices[0] + 1 if depth == 2 else 0, len(family)):
                    b = bracket_components(comps[i], fs, partials[i])
                    domain = family[i].domain.intersect(f.domain)
                    key = _normal_key(map(terms, b), domain)
                    if key is None or key in seen:  # zero, or a multiple of a kept word
                        continue
                    seen.add(key)
                    w = BracketWord(word.indices + (i,))
                    new_level.append((w, VectorField(str(w), exprs(b), domain)))
                    new_last.append(b)
            levels.append(new_level)
            last = new_last
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

