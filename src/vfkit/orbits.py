"""Orbit and fixed-time-orbit tangent spaces.

One rule, ``exact_certificate``, says when an exact bracket rank at p is the
dimension, so that no flow is integrated, and it tries the cheapest
sufficient reason first.  For any smooth family Lie(F)(p) lies in the orbit
tangent (Sussmann 1973), so a rank of n is the dimension
(``certificate="bracket-rank"``); so is a rank of 0 where every generator
is defined and exactly zero, since every flow fixes p.  Only below that does
Nagano decide: when every generator is real analytic on all of R^n (no
``bump``, ``bumpp`` or division atom, every domain full) and the bracket
filtration carries a stabilization certificate, the family is
*Nagano-certified*: the tangent is Lie(F)(p) (Nagano 1966) and its rank is
the dimension (``certificate="nagano"``).  One ladder, ``exact_ranks``,
applies the rule at any number of points: it reads the ranks from the walk
``liealg.word_vectors`` one depth at a time and stops at the first depth
where every point's rank is exact, each word evaluated once per point; else
it runs the module search (``liealg.certify``) once, at the cap.
Fixed-time orbits take the rank of the zero-time ideal at the float point
that the seed word reaches, exact by the same rule (``"zero-time-ideal"``
also needs ``liealg.derived_certificate``).
Every other case samples flow words that push the generators forward to the
point, by one path (``sampled_orbit``) whose fixed-time words have net time
zero: the rank of the collected vectors (for zero-sum words, of the linear
part of their affine hull) is a lower bound (``certificate="sampled"``).  Every
orbit is an immersed submanifold of R^n (Sussmann 1973), so a sampled rank of
n is the orbit dimension: ``sampled_orbit_dimensions`` walks the first
``FIRST_WORDS`` words of all its points in one walk and draws the rest only
for the points whose rank stays below n, all of them in one more walk, for
one point (a fixed-time orbit's ``reached``) or many.
``WordSampler`` reads its words from one raw PCG64 stream with the bits of
numpy's ``Generator.integers`` and ``uniform``, so a seed gives the same
words whatever numpy release draws them.
Flow ranks are read at ``linalg.FLOW_REL_TOL``, and filtrations go to
``liealg.DEFAULT_DEPTH_CAP`` unless a cap is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat, tee
from typing import NamedTuple, Tuple

import numpy as np

from .expr import ONE, ZERO
from .fields import WALK_ROWS, apply_word, pushforward_along_words, value_float
from .liealg import (DEFAULT_DEPTH_CAP, DEFAULT_MODULE_DEGREE, certify, derived_certificate,
                     word_vectors, zero_time_vectors)
from .linalg import FLOW_REL_TOL, affine_rank, all_exact, span_rank, svd_rank
from .membership import OversizeError, module_contains
from .vectorfield import DomainExitError, FlowError, field_values, point_text

__all__ = [
    "WordSampler",
    "OrbitTangentReport",
    "FixedTimeReport",
    "ChowReport",
    "SampledOrbit",
    "sampled_orbit",
    "sampled_orbit_dimensions",
    "FIRST_WORDS",
    "nagano_certified",
    "exact_certificate",
    "exact_ranks",
    "orbit_dimension",
    "fixed_time_dimension",
    "chow_verdict",
]

# Words walked before a dimension-only sample checks for full rank.
FIRST_WORDS = 32


# Raw PCG64 outputs fetched per call to the bit generator.
_RAW_CHUNK = 256
_LOW32 = 0xFFFFFFFF


def _raw_outputs(bits):
    """The bit generator's raw 64-bit outputs as ints, in order."""
    while True:
        yield from bits.random_raw(_RAW_CHUNK).tolist()


def _raw_halves(raw):
    """The 32-bit draws of PCG64's ``next_uint32``: the low half of a fresh
    raw output, then its stored high half.  Pulls from ``raw`` only when a
    low half is asked for, so the doubles drawn in between keep their order."""
    for r in raw:
        yield r & _LOW32
        yield r >> 32


def _bounded(halves, s):
    """Lemire's bounded integers in [0, s) from the 32-bit draws: m = u * s,
    redrawn while m mod 2^32 < (2^32 - s) mod s, then m >> 32.  For s = 1
    no draw is taken."""
    if not 1 <= s < 1 << 32:
        raise ValueError(f"bounded draw range {s} outside [1, 2^32)")
    if s == 1:
        return repeat(0)
    cut = ((1 << 32) - s) % s
    return (m >> 32 for m in (u * s for u in halves) if m & _LOW32 >= cut)


@dataclass(frozen=True)
class WordSampler:
    """Seeded sampler of flow words: tuples of (field index, time) steps.

    Lengths are uniform on 1..max_len, field indices uniform, step times
    uniform on [-max_time, max_time].  The zero-sum constraint replaces
    the final time by minus the partial sum, so the word's net time is
    exactly zero.

    The words are read from one stream, ``np.random.PCG64(seed).random_raw``,
    with the bits that ``Generator.integers`` and ``Generator.uniform`` give
    on that bit generator: per word its length, its field indices, then its
    times.  A draw in [0, s) is Lemire's bounded integer (Lemire 2019, "Fast
    random integer generation in an interval") on 32 bits u: the low half of
    a fresh raw output, the next such draw its stored high half (PCG64's
    ``next_uint32``), and no draw at all when s = 1; m = u * s is redrawn
    while m mod 2^32 < (2^32 - s) mod s, and the value is m >> 32.  A time
    takes a fresh raw output r and is lo + (hi - lo) * ((r >> 11) * 2^-53).
    A zero-sum word's last time is ``-np.sum`` of the others, numpy's
    pairwise sum.  So the words depend only on the seed and PCG64's raw
    output, which numpy keeps fixed (a new algorithm is a new bit
    generator), not on how a numpy release draws from it.
    """

    seed: int
    max_len: int = 6
    max_time: float = 0.5
    count: int = 200
    constraint: str = "free"  # "free" | "zero-sum"

    def draw(self, n_fields):
        """The words one at a time, each drawn only when asked for.  A range
        of lengths or fields of 2^32 or more raises ValueError, a non-finite
        time range OverflowError and an unknown constraint ValueError, all
        at the first word."""
        bits = np.random.PCG64(self.seed)
        if self.count <= 0:
            return
        raw = _raw_outputs(bits)
        halves = _raw_halves(raw)
        lengths, indices = _bounded(halves, self.max_len), _bounded(halves, n_fields)
        lo, hi = float(-self.max_time), float(self.max_time)
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        if self.constraint not in ("free", "zero-sum"):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        zero_sum = self.constraint == "zero-sum"
        for _ in range(self.count):
            k = 1 + next(lengths)
            idx = list(islice(indices, k))
            times = [lo + span * ((r >> 11) * 2.0**-53) for r in islice(raw, k)]
            if zero_sum:
                times[-1] = -float(np.sum(times[:-1]))
            yield tuple(zip(idx, times))

    def words(self, n_fields):
        return list(self.draw(n_fields))


@dataclass(frozen=True)
class OrbitTangentReport:
    point: tuple
    dimension: int
    vectors: Tuple[tuple, ...]  # sampled pushforwards; empty when exact
    linf_rank: int  # bracket-filtration rank at the same point
    words_used: int  # 0 when exact, as is words_skipped
    words_skipped: int
    certificate: str  # "nagano" | "bracket-rank" (exact) | "sampled" (a lower bound)


class SampledOrbit(NamedTuple):
    dimension: int  # rank of the vectors (affine rank for zero-sum words): a lower bound
    vectors: list  # generator values at the point and their pushforwards
    words_used: int
    words_skipped: int


def _sample_orbits(family, points, samplers, batches):
    """Per point, its SampledOrbit (the DomainExitError where no generator is
    defined): the generator values and their pushforwards along its sampler's
    words in the given batch sizes (None: the rest) until the rank (of the
    span, or of the affine hull's linear part for zero-sum words) is full; a
    batch of every point below it walks together, a sampler drawn once.  A
    point without n coordinates raises the walk's ValueError first."""
    n, out, streams = family[0].dim, [None] * len(points), {}
    for k, p in enumerate(points):
        if len(p) != n:
            raise ValueError(f"a start point has {len(p)} coordinates, the fields have {n}")
        if not any(X.domain.contains(p) for X in family):
            out[k] = DomainExitError(f"no generator is defined at {point_text(p)}")
    for s in dict.fromkeys(samplers):
        ks = [k for k, t in enumerate(samplers) if t == s and out[k] is None]
        streams.update(zip(ks, tee(s.draw(len(family)), len(ks))))
    found, values = {k: [] for k in streams}, {}
    walked, used, offset = dict.fromkeys(streams, 0), dict.fromkeys(streams, 0), 0
    for size in batches:
        rows = ((w, k) for k in streams for w in islice(streams[k], size))
        while run := list(islice(rows, WALK_ROWS)):
            pushes = pushforward_along_words(family, [w for w, _ in run], [family] * len(run),
                                             [points[k] for _, k in run])
            for (_, k), pushed in zip(run, pushes):
                vs = [] if isinstance(pushed, FlowError) else [v for v in pushed if v is not None]
                walked[k], used[k] = walked[k] + 1, used[k] + bool(vs)
                found[k] += vs
        offset = None if size is None else offset + size
        for k in list(streams):
            if k not in values:  # once the walk has checked the point
                values[k] = np.array([value_float(X, points[k]) for X in family
                                      if X.domain.contains(points[k])])
            vectors = np.vstack([values[k]] + found[k])
            rank = affine_rank if samplers[k].constraint == "zero-sum" else svd_rank
            dim = rank(vectors, FLOW_REL_TOL)
            if dim == n or offset is None or walked[k] < offset:  # full rank or no more words
                out[k] = SampledOrbit(dim, [tuple(v) for v in vectors.tolist()], used[k],
                                      walked[k] - used[k])
                del streams[k]
    return out


def _raised(result):
    if isinstance(result, FlowError):
        raise result
    return result


def sampled_orbit(family, point, sampler):
    """Sampled orbit dimension at the point, from the pushforwards that all
    the sampler's words give there; no bracket filtration is built.  With
    zero-sum words (``constraint="zero-sum"``) it is the sampled dimension
    of the fixed-time orbit through the point."""
    return _raised(_sample_orbits(family, [point], [sampler], (None,))[0])


def sampled_orbit_dimensions(family, points, samplers):
    """Per point, ``sampled_orbit(family, points[k], samplers[k]).dimension``
    (the DomainExitError where it raises), in one walk for every point's
    first ``FIRST_WORDS`` words and one more for the rest of every point
    still below full rank (an orbit has no more dimensions than R^n)."""
    return [s if isinstance(s, FlowError) else s.dimension
            for s in _sample_orbits(family, points, samplers, (FIRST_WORDS, None))]


def nagano_certified(filt):
    """Whether the rank at p of the words of ``filt`` is the orbit dimension
    at every p: every generator is real analytic on all of R^n and a
    stabilization certificate proves that the words span Lie(F)(p)."""
    return filt.certificate is not None and all(
        X.domain.is_full and all(c.is_analytic() for c in X.components)
        for X in filt.family
    )


def exact_certificate(filt, rank, values, fixed_time=False):
    """Why the exact rank of Lie(F) at a point (of the zero-time ideal, for
    ``fixed_time``) is the tangent dimension there, or None: sample it.
    ``values`` are the generators' values there (``vectorfield.field_values``).

    The cheapest sufficient reason first: a rank of n, or of 0 where every
    flow fixes the point (every value exact and zero: a float pinned to 0
    does not count), is "bracket-rank" for any smooth family.  Only
    below that does Nagano decide, from the stabilization certificate that
    ``filt`` carries (and, for fixed time, ``derived_certificate``):
    ``exact_ranks`` passes ``liealg.certify(filt)`` once a rank stays below
    n at the cap, so the module search runs only there and at most once per
    filtration."""
    fixed = None not in values and all_exact(values) and not any(map(any, values))
    if rank == filt.family[0].dim or (rank == 0 and fixed):
        return "bracket-rank"
    if nagano_certified(filt) and not (fixed_time and derived_certificate(filt) is None):
        return "zero-time-ideal" if fixed_time else "nagano"
    return None


def exact_ranks(family, values, points, depth_cap=DEFAULT_DEPTH_CAP, fixed_time=False):
    """(filtration, ranks, certificates, Lie ranks) at the points, given the
    generators' ``vectorfield.field_values`` there: the rank of Lie(F) at each
    point (of the zero-time ideal, for ``fixed_time``) and why
    ``exact_certificate`` finds it exact (None: sample it), read from
    ``liealg.word_vectors`` at the first depth where every point's rank is
    exact; else, at the cap, with the module search run once on the
    filtration (``liealg.certify``).  A rank found exact is the rank at the
    cap, as no deeper word can raise it."""
    for filt, vectors in word_vectors(family, values, points, depth_cap):
        lie, ranks, exact = [], [], []
        for vals, (words, derived), p in zip(values, vectors, points):
            lie.append(span_rank(words))
            ranks.append(span_rank(zero_time_vectors(vals, derived, p)) if fixed_time
                         else lie[-1])
            exact.append(exact_certificate(filt, ranks[-1], vals, fixed_time))
            if not exact[-1] and filt.depth_cap < depth_cap:
                break  # a deeper word is needed whatever the other points' ranks
        if all(exact):  # no deeper word and no module search
            return filt, ranks, exact, lie
    filt = certify(filt)
    return filt, ranks, [exact_certificate(filt, r, vals, fixed_time)
                         for r, vals in zip(ranks, values)], lie


def orbit_dimension(family, point, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Orbit dimension at the point, with the bracket-filtration rank there:
    that rank where ``exact_certificate`` finds it exact, else the sampled
    dimension (a certified lower bound).  Bracket words stop at the first
    depth whose rank is n, which is then also the rank at the cap."""
    family = tuple(family)
    _, (linf,), (exact,), _ = exact_ranks(family, field_values(family, [point]), [point],
                                          depth_cap)
    if exact:  # no flow word is walked
        return OrbitTangentReport(tuple(point), linf, (), linf, 0, 0, exact)
    s = sampled_orbit(family, point, sampler)
    return OrbitTangentReport(tuple(point), s.dimension, tuple(s.vectors), linf,
                              s.words_used, s.words_skipped, "sampled")


@dataclass(frozen=True)
class FixedTimeReport:
    start: tuple
    reached: tuple
    net_time: float
    dimension: int  # rank of L0 (exact) or of the sampled affine-hull linear part
    orbit_dimension_at_reached: int  # orbit_dimension's rule at the reached point
    ideal_rank: int  # I(X) rank at the reached point
    words_used: int  # 0 when exact, as is words_skipped
    words_skipped: int
    certificate: str  # "zero-time-ideal" | "bracket-rank" (exact) | "sampled" (a lower bound)

    @property
    def dimension_gap(self):
        return self.orbit_dimension_at_reached - self.dimension


def _seed_point(family, point, T):
    """The point that the first successful net-time-T word reaches from the
    given one, trying single steps then pairs of half steps."""
    index = range(len(family))
    for word in chain(([(i, T)] for i in index),
                      ([(i, T / 2.0), (j, T / 2.0)] for i in index for j in index)):
        try:
            return apply_word(family, word, point)
        except FlowError:
            continue
    raise DomainExitError(f"no net-time-{T} seed word succeeds from {point_text(point)}")


def fixed_time_dimension(family, point, T, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Tangent dimension of the fixed-time orbit through the point.

    Reaches x by one net-time-T word.  For real analytic generators the
    fixed-time orbit through x has tangent L0(x), where the zero-time ideal
    is L0 = {sum c_i X_i : sum c_i = 0} + [L, L] (Sussmann and Jurdjevic
    1972, "Controllability of nonlinear systems"; Jurdjevic, *Geometric
    Control Theory*, 1997, ch. 3); for any smooth family L0(x) lies in it,
    as that orbit holds the curves e^{tX_i} e^{-tX_j} x and every flow of F
    preserves it.  Where ``exact_certificate`` finds the rank of L0 at x
    exact ("zero-time-ideal" or "bracket-rank"), no word but the seed is
    walked; otherwise ``sampled_orbit`` along the sampler's words, made
    zero-sum, gives the sampled lower bound.  The orbit dimension at x is
    ``orbit_dimension``'s, by the same rule and sampler.
    """
    family = tuple(family)
    reached = _seed_point(family, point, T)
    at = tuple(reached)
    values = field_values(family, [at])
    filt, (ideal_rank,), (certificate,), (linf,) = exact_ranks(family, values, [at],
                                                               depth_cap, True)
    dim, used, skipped = ideal_rank, 0, 0
    if certificate is None:
        certificate = "sampled"
        dim, _, used, skipped = sampled_orbit(family, reached,
                                              replace(sampler, constraint="zero-sum"))

    # the ideal lies in Lie(F): a stop at full ideal rank is a full Lie rank,
    # and any other filtration here is final and certified
    exact = exact_certificate(filt, linf, values[0])
    orbit_dim = linf if exact else _raised(sampled_orbit_dimensions(family, [at], [sampler])[0])
    return FixedTimeReport(
        start=tuple(point),
        reached=at,
        net_time=float(T),
        dimension=dim,
        orbit_dimension_at_reached=orbit_dim,
        ideal_rank=ideal_rank,
        words_used=used,
        words_skipped=skipped,
        certificate=certificate,
    )


@dataclass(frozen=True)
class ChowReport:
    bracket_generating: bool
    depth_cap: int
    verdict: str
    failing_samples: Tuple[tuple, ...]
    sampled_orbit_dims: Tuple[int, ...]  # at failing samples, when computed


def chow_verdict(family, samples, depth_cap=DEFAULT_DEPTH_CAP, orbit_sampler=None):
    """Sufficiency test: any two points are joinable by flows when the words
    of the filtration span every tangent space (Chow-Rashevskii).  Certified
    only for a polynomial family on full domains, by each coordinate field
    being a member of the words' module at ``DEFAULT_MODULE_DEGREE``; full
    rank at the samples alone is no certificate.  Failure decides nothing."""
    family = tuple(family)
    n = family[0].dim
    *_, (filt, vectors) = word_vectors(family, field_values(family, samples), samples,
                                       depth_cap)
    failing = [tuple(p) for p, (words, _) in zip(samples, vectors) if span_rank(words) < n]
    if not failing:
        words = [f for level in filt.levels for _, f in level]
        axes = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
        certified, too_large = False, ""
        if all(g.is_polynomial() and g.domain.is_full for g in family):
            try:
                certified = module_contains(axes, words, DEFAULT_MODULE_DEGREE)
            except OversizeError as err:
                too_large = f"; {err}"
        verdict = (
            "sufficient condition met: any two points joinable by flows"
            if certified
            else "full bracket rank at every sample, but no module certificate "
            f"at depth cap {depth_cap} that the words span every tangent space{too_large}"
        )
        return ChowReport(certified, depth_cap, verdict, (), ())
    dims = []
    if orbit_sampler is not None:  # -1 where no generator is defined
        dims = [-1 if isinstance(d, FlowError) else d for d in
                sampled_orbit_dimensions(family, failing, [orbit_sampler] * len(failing))]
    note = f"not established at depth cap {depth_cap}"
    if dims and all(d == n for d in dims):
        note += (
            "; sampled orbit dimension is full at every failing sample, so the "
            "family may still be controllable (the test is one-sided)"
        )
    return ChowReport(False, depth_cap, note, tuple(failing), tuple(dims))
