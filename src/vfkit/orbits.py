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
where every point's rank is exact, each word evaluated once per point; else,
for a family analytic on all of R^n (no other is Nagano-certified), it runs
the module search (``liealg.certify``) once, at the cap.
``orbit_dimensions`` reads the certified rank, else samples every uncertified
point in one walk, for ``frobenius`` and fixed time alike.
A fixed-time orbit is a slice t = const of an orbit of the time-extended
family Y (``liealg.time_extended``), so its dimension is the rank of
Lie(Y) minus 1 (``liealg.ideal_vectors``), read by the same ladder once,
on Y at (x, T) for the float point x that the seed word reaches, and exact
by the same rule (Y's ``"nagano"`` is reported as ``"zero-time-ideal"``);
dropping the last coordinate of Y's words gives Lie(F)(x) for the orbit
dimension there.
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
words whatever numpy release draws them.  numpy and the flow layer
(``vfkit.fields``) are imported by the functions that draw words or walk
flows, so an exact answer loads neither.
Flow ranks are read at ``linalg.FLOW_REL_TOL``, and filtrations go to
``liealg.DEFAULT_DEPTH_CAP`` unless a cap is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice, repeat, tee
from typing import NamedTuple, Tuple

from .expr import ONE, ZERO, compile_exact
from .liealg import (DEFAULT_DEPTH_CAP, DEFAULT_MODULE_DEGREE, certify, ideal_vectors,
                     time_extended, word_vectors)
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
    "orbit_dimensions",
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
        import numpy as np  # only sampled words need numpy
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
    import numpy as np  # the flow layer loads only where a flow is walked
    from .fields import WALK_ROWS, pushforward_along_words, value_float
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


def _analytic(family):
    """Whether every generator is real analytic on all of R^n."""
    return all(X.domain.is_full and all(c.is_analytic() for c in X.components)
               for X in family)


def _fixes(values):
    """Whether every generator's value at a point (None: undefined) is exactly
    zero, a float pinned to 0 not counting; read up to the first that fails."""
    return all(v is not None and all(x == 0 and all_exact([(x,)]) for x in v)
               for v in values)


def nagano_certified(filt):
    """Whether the rank at p of the words of ``filt`` is the orbit dimension
    at every p: every generator is real analytic on all of R^n and a
    stabilization certificate proves that the words span Lie(F)(p)."""
    return filt.certificate is not None and _analytic(filt.family)


def exact_certificate(filt, rank, values):
    """Why the exact rank of Lie(F) at a point is the tangent dimension
    there, or None: sample it.  ``values`` are the generators' values there
    (``vectorfield.field_values``), whose length is the dimension n.

    The cheapest sufficient reason first: a rank of n, or of 0 where every
    flow fixes the point (every value exact and zero: a float pinned to 0
    does not count), is "bracket-rank" for any smooth family.  Only
    below that does Nagano decide, from the stabilization certificate that
    ``filt`` carries: ``exact_ranks`` passes ``liealg.certify(filt)`` once a
    rank stays below n at the cap of an analytic family, so the module
    search runs only there and at most once per filtration.  ``filt`` may be
    the time-extended family's, whose words span Lie(F) once their last
    coordinate is dropped (``fixed_time_dimension``)."""
    n = next((len(v) for v in values if v is not None), None)
    if rank == n or (rank == 0 and _fixes(values)):
        return "bracket-rank"
    return "nagano" if nagano_certified(filt) else None


def exact_ranks(family, values, points, depth_cap=DEFAULT_DEPTH_CAP, view=None):
    """(filtration, ranks, certificates, word values) at the points, given
    the generators' ``vectorfield.field_values`` there: the rank of Lie(F)
    at each point and why ``exact_certificate`` finds it exact (None: sample
    it), read from ``liealg.word_vectors`` at the first depth where every
    point's rank is exact, with the words' values there; else, at the cap,
    with the module search run once on the filtration (``liealg.certify``).
    A rank found exact is the rank at the cap, as no deeper word can raise
    it.  ``view(words, values)`` gives, per point, the vectors whose rank is
    wanted and the generator values that ``exact_certificate`` judges it by
    (by default the words and ``values``; ``fixed_time_dimension`` ranks
    the zero-time ideal on the time-extended family this way)."""
    view = view or (lambda words, vals: (words, vals))
    for filt, vectors in word_vectors(family, values, points, depth_cap):
        ranks, exact, judged = [], [], []
        for vals, words in zip(values, vectors):
            spanning, base = view(words, vals)
            ranks.append(span_rank(spanning))
            judged.append(base)
            exact.append(exact_certificate(filt, ranks[-1], base))
            if not exact[-1] and filt.depth_cap < depth_cap:
                break  # a deeper word is needed whatever the other points' ranks
        if all(exact):  # no deeper word and no module search
            return filt, ranks, exact, vectors
    if _analytic(family):  # else no module certificate can make a rank exact
        filt = certify(filt)
    return filt, ranks, [exact_certificate(filt, r, base)
                         for r, base in zip(ranks, judged)], vectors


def orbit_dimensions(family, points, ranks, certificates, sampler):
    """Per point, (dimension, kind): the rank and certificate that ``exact_ranks``
    gives, else ``sampled_orbit_dimensions`` (a lower bound; every such point in
    one walk, none without one; raising where no generator is defined) and "sampled"."""
    sampled = [p for p, kind in zip(points, certificates) if not kind]
    dims = iter(sampled_orbit_dimensions(family, sampled, [sampler] * len(sampled))
                if sampled else ())
    return [(dim, kind) if kind else (_raised(next(dims)), "sampled")
            for dim, kind in zip(ranks, certificates)]


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
    from .fields import apply_word
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

    Reaches x by one net-time-T word, or takes x = p where every X_i(p) is
    exactly zero, as every flow fixes p.  The fixed-time orbit through x is
    the slice t = T of the orbit of the time-extended family Y
    (``liealg.time_extended``) through (x, T), and t is a submersion on
    that orbit, so the slice has one dimension less (Sussmann and Jurdjevic
    1972, "Controllability of nonlinear systems"; Jurdjevic, *Geometric
    Control Theory*, 1997, ch. 3).  Lie(Y)(x, T) = R*Y_j + (L0(x) x 0) for
    the zero-time ideal L0 = {sum c_i X_i : sum c_i = 0} + [L, L], so the
    rank of Y's words minus 1 is the rank of L0(x), taken on the vectors
    that ``liealg.ideal_vectors`` reads from them.  One ladder
    (``exact_ranks``) walks Y's words at (x, T): where ``exact_certificate``
    finds that rank exact ("bracket-rank" at n, or at 0 where every X_i(x)
    is exactly zero; Y's "nagano", reported as "zero-time-ideal"), no word
    but the seed is walked; otherwise ``sampled_orbit`` along the sampler's words, made
    zero-sum, gives the sampled lower bound.  The orbit dimension at x is
    the rank of the same words with their last coordinate dropped,
    Lie(F)(x), exact by the same rule, else sampled (``orbit_dimensions``).
    """
    family = tuple(family)
    fixed = all_exact([point]) and _fixes(
        (compile_exact(c)(point) for c in X.components) if X.domain.contains(point) else None
        for X in family)
    at = tuple(point) if fixed else tuple(_seed_point(family, point, T))
    # no Y_i depends on t, so an exact T keeps Y exact at an exact x
    extended, start = time_extended(family), [at + (Fraction(T),)]
    values = field_values(extended, start)
    base = [None if v is None else v[:-1] for v in values[0]]  # the generators' values at x
    filt, (ideal_rank,), (certificate,), (words,) = exact_ranks(
        extended, values, start, depth_cap, lambda words, _: (ideal_vectors(words), base))
    dim, used, skipped = ideal_rank, 0, 0
    if certificate is None:
        certificate = "sampled"
        dim, _, used, skipped = sampled_orbit(family, at,
                                              replace(sampler, constraint="zero-sum"))
    elif certificate == "nagano":
        certificate = "zero-time-ideal"

    # an exact ideal rank makes the projected rank exact: L0(x) lies in
    # Lie(F)(x), so n there is n here, 0 at a fixed point is 0, and Y's
    # certificate spans Lie(F) too
    linf = span_rank([w[:-1] for w in words])
    ((orbit_dim, _),) = orbit_dimensions(family, [at], [linf],
                                         [exact_certificate(filt, linf, base)], sampler)
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
    failing = [tuple(p) for p, words in zip(samples, vectors) if span_rank(words) < n]
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
