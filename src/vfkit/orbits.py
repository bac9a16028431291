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
the dimension (``certificate="nagano"``).  ``exact_ranks`` applies the rule
to a rank ladder at any number of points (``liealg.word_vectors``, where a
point at full rank takes no deeper word) and stops at the first depth where
every point's rank is exact; else, for a family analytic on all of R^n (no
other is Nagano-certified), it runs the module search (``liealg.certify``)
once, at the cap.
``orbit_dimensions`` reads the certified rank, else samples every uncertified
point in one walk, for ``frobenius``.
A fixed-time orbit is a slice t = const of an orbit of the time-extended
family Y (``liealg.time_extended``), so its dimension is the rank of
Lie(Y) minus 1, read once by the same rule from the zero-time ideal's
ladder on Y at the start (p, 0) (``liealg.zero_time_ladder``), exactly
where p is (Y's ``"nagano"`` is reported as ``"zero-time-ideal"``);
dropping the last coordinate of Y's words gives Lie(F)(p) for the orbit
dimension.  Both hold along Y's orbit, so at the point ``reached`` by the
seed word too.
Every other case samples flow words that push the generators forward to the
point, in the one sampled walk ``sampled_orbits``: the span rank of the
vectors bounds the orbit dimension from below and their affine rank the
fixed-time one (``certificate="sampled"``), so one walk of free words from
``reached`` gives both.  An orbit is an immersed submanifold of R^n
(Sussmann 1973), so no word can raise a rank of n: every walk takes the
first ``FIRST_WORDS`` words of all its points at once and the rest, in one
more walk, only for the points whose rank stays below n.
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
from dataclasses import dataclass
from itertools import chain, islice, repeat, tee
from typing import NamedTuple, Tuple

from .expr import ONE, ZERO
from .liealg import (DEFAULT_DEPTH_CAP, DEFAULT_MODULE_DEGREE, certify, word_vectors,
                     zero_time_ladder)
from .linalg import FLOW_REL_TOL, affine_rank, all_exact, span_rank, svd_rank
from .membership import OversizeError, module_contains
from .vectorfield import DomainExitError, FlowError, field_values, point_text

__all__ = [
    "WordSampler",
    "OrbitTangentReport",
    "FixedTimeReport",
    "ChowReport",
    "zero_sum_words",
    "SampledOrbit",
    "sampled_orbits",
    "FIRST_WORDS",
    "nagano_certified",
    "exact_certificate",
    "exact_ranks",
    "orbit_dimensions",
    "orbit_dimension",
    "fixed_time_dimension",
    "chow_verdict",
]

# Words of every point that a sampled walk takes before it checks for rank n.
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
    uniform on [-max_time, max_time] (``zero_sum_words`` gives words of net
    time zero).

    The words are read from one stream, ``np.random.PCG64(seed).random_raw``,
    with the bits that ``Generator.integers`` and ``Generator.uniform`` give
    on that bit generator: per word its length, its field indices, then its
    times.  A draw in [0, s) is Lemire's bounded integer (Lemire 2019, "Fast
    random integer generation in an interval") on 32 bits u: the low half of
    a fresh raw output, the next such draw its stored high half (PCG64's
    ``next_uint32``), and no draw at all when s = 1; m = u * s is redrawn
    while m mod 2^32 < (2^32 - s) mod s, and the value is m >> 32.  A time
    takes a fresh raw output r and is lo + (hi - lo) * ((r >> 11) * 2^-53).
    So the words depend only on the seed and PCG64's raw
    output, which numpy keeps fixed (a new algorithm is a new bit
    generator), not on how a numpy release draws from it.
    """

    seed: int
    max_len: int = 6
    max_time: float = 0.5
    count: int = 200

    def draw(self, n_fields):
        """The words one at a time, each drawn only when asked for.  A range
        of lengths or fields of 2^32 or more raises ValueError and a
        non-finite time range OverflowError, both at the first word."""
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
        for _ in range(self.count):
            k = 1 + next(lengths)
            idx = list(islice(indices, k))
            times = [lo + span * ((r >> 11) * 2.0**-53) for r in islice(raw, k)]
            yield tuple(zip(idx, times))

    def words(self, n_fields):
        return list(self.draw(n_fields))


def zero_sum_words(words):
    """The words with each last time replaced by ``-np.sum`` of the others
    (numpy's pairwise sum), so that every word's net time is exactly zero."""
    import numpy as np
    return [w[:-1] + ((w[-1][0], -float(np.sum([t for _, t in w[:-1]]))),) for w in words]


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
    dimension: int  # the walk's rank of the vectors (span or affine): a lower bound
    vectors: list  # generator values at the point and their pushforwards
    words_used: int
    words_skipped: int


def sampled_orbits(family, points, samplers, rank=svd_rank):
    """Per point, its SampledOrbit (the DomainExitError where no generator is
    defined): the generator values there and their pushforwards along its
    sampler's words, and the ``rank`` of those vectors, a lower bound
    (``linalg.svd_rank`` for the orbit, ``affine_rank`` for the fixed-time
    orbit).  The first ``FIRST_WORDS`` words of every point are walked
    together, the rest in one more walk, only for the points whose rank is
    still below n; a sampler shared by points is drawn once.  A point
    without n coordinates raises the walk's ValueError first."""
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
    walked, used = dict.fromkeys(streams, 0), dict.fromkeys(streams, 0)
    for size in (FIRST_WORDS, None):
        rows = ((w, k) for k in streams for w in islice(streams[k], size))
        while run := list(islice(rows, WALK_ROWS)):
            pushes = pushforward_along_words(family, [w for w, _ in run], [family] * len(run),
                                             [points[k] for _, k in run])
            for (_, k), pushed in zip(run, pushes):
                vs = [] if isinstance(pushed, FlowError) else [v for v in pushed if v is not None]
                walked[k], used[k] = walked[k] + 1, used[k] + bool(vs)
                found[k] += vs
        for k in list(streams):
            if k not in values:  # once the walk has checked the point
                values[k] = np.array([value_float(X, points[k]) for X in family
                                      if X.domain.contains(points[k])])
            vectors = np.concatenate([values[k], np.array(found[k]).reshape(-1, n)])
            dim = rank(vectors, FLOW_REL_TOL)
            if dim == n or size is None or walked[k] < size:  # full rank or no more words
                out[k] = SampledOrbit(dim, [tuple(v) for v in vectors.tolist()], used[k],
                                      walked[k] - used[k])
                del streams[k]
    return out


def _raised(result):
    if isinstance(result, FlowError):
        raise result
    return result


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


def exact_ranks(ladder, values):
    """(filtration, ranks, certificates, word values) from a rank ladder at
    some points (``liealg.word_vectors``, or ``liealg.zero_time_ladder`` for
    the zero-time ideal), judged by the generators'
    ``vectorfield.field_values`` there: each point's rank and why
    ``exact_certificate`` finds it exact (None: sample it), at the first
    depth where every point's rank is exact, with the words' values there;
    else, at the cap, with the module search run once on the filtration
    (``liealg.certify``).  A point at full rank takes no deeper word; no
    deeper word can raise a rank found exact."""
    for filt, vectors, ranks in ladder:
        exact = [exact_certificate(filt, r, vals) for r, vals in zip(ranks, values)]
        if all(exact):  # no deeper word and no module search
            return filt, ranks, exact, vectors
    if _analytic(filt.family):  # else no module certificate can make a rank exact
        filt = certify(filt)
        exact = [exact_certificate(filt, r, vals) for r, vals in zip(ranks, values)]
    return filt, ranks, exact, vectors


def orbit_dimensions(family, points, ranks, certificates, sampler):
    """Per point, (dimension, kind): the rank and certificate that ``exact_ranks``
    gives, else the ``sampled_orbits`` dimension (a lower bound; every such point
    in one walk, none without one; raising where no generator is defined) and "sampled"."""
    sampled = [p for p, kind in zip(points, certificates) if not kind]
    walks = iter(sampled_orbits(family, sampled, [sampler] * len(sampled)) if sampled else ())
    return [(dim, kind) if kind else (_raised(next(walks)).dimension, "sampled")
            for dim, kind in zip(ranks, certificates)]


def orbit_dimension(family, point, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Orbit dimension at the point, with the bracket-filtration rank there:
    that rank where ``exact_certificate`` finds it exact, else the sampled
    dimension (a certified lower bound), whose walk stops at rank n.  Bracket
    words stop at the first depth whose rank is n, which is then also the
    rank at the cap."""
    family = tuple(family)
    values = field_values(family, [point])
    _, (linf,), (exact,), _ = exact_ranks(word_vectors(family, values, [point], depth_cap),
                                          values)
    if exact:  # no flow word is walked
        return OrbitTangentReport(tuple(point), linf, (), linf, 0, 0, exact)
    s = _raised(sampled_orbits(family, [point], [sampler])[0])
    return OrbitTangentReport(tuple(point), s.dimension, tuple(s.vectors), linf,
                              s.words_used, s.words_skipped, "sampled")


@dataclass(frozen=True)
class FixedTimeReport:
    start: tuple
    reached: tuple
    net_time: float
    dimension: int  # rank of L0 (exact) or affine rank of the sampled pushforwards
    orbit_dimension_at_reached: int  # exact by orbit_dimension's rule, else their span rank
    ideal_rank: int  # rank of L0 at the start, as at the reached point
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
    """Tangent dimension of the fixed-time orbit through the point p.

    The fixed-time orbit through p is the slice t = 0 of the orbit of the
    time-extended family Y (``liealg.time_extended``) through (p, 0), and t
    is a submersion on that orbit, so the slice has one dimension less
    (Sussmann and Jurdjevic 1972, "Controllability of nonlinear systems";
    Jurdjevic, *Geometric Control Theory*, 1997, ch. 3).  Lie(Y)(p, 0) =
    R*Y_j + (L0(p) x 0) for the zero-time ideal L0 = {sum c_i X_i : sum c_i
    = 0} + [L, L], so the rank of Y's words minus 1 is the rank of L0(p),
    taken on the vectors that ``liealg.ideal_vectors`` reads from them.  One
    ladder (``liealg.zero_time_ladder``, judged by ``exact_ranks``) walks Y's
    words at (p, 0), in Fractions where p is: where ``exact_certificate``
    finds that rank exact ("bracket-rank" at n, or at 0 where every X_i(p)
    is exactly zero; Y's "nagano", reported as "zero-time-ideal"), no word
    but the seed is walked.  The orbit dimension
    is the rank of Lie(F)(p), Y's words with their last coordinate dropped,
    exact by the same rule.  Both ranks are constant along Y's orbit
    (Sussmann 1973), so they hold at (x, T) for the point x ``reached`` by
    one net-time-T word (x = p where every flow fixes p).  Else one walk of
    the sampler's free words from x gives both bounds: Y_i pushed along a
    word w is ((Phi_w)_* X_i, 1), so the affine rank of the pushforwards
    bounds the fixed-time dimension and their span rank the orbit's; the
    walk stops early only at an affine rank of n, which is a span rank of n.
    """
    family = tuple(family)
    (base,) = field_values(family, [point])  # the generators' values at p
    at = tuple(point) if _fixes(base) else tuple(_seed_point(family, point, T))
    filt, (ideal_rank,), (certificate,), (words,) = exact_ranks(
        zero_time_ladder(family, [base], [point], depth_cap), [base])
    # an exact ideal rank makes the projected rank exact: L0(p) lies in
    # Lie(F)(p), so n there is n here, 0 at a fixed point is 0, and Y's
    # certificate spans Lie(F) too
    linf = span_rank([w[:-1] for w in words])
    dim, orbit_dim, used, skipped = ideal_rank, linf, 0, 0
    if certificate is None:
        certificate = "sampled"
        dim, vectors, used, skipped = _raised(sampled_orbits(family, [at], [sampler],
                                                             affine_rank)[0])
        if not exact_certificate(filt, linf, base):
            orbit_dim = svd_rank(vectors, FLOW_REL_TOL)
    elif certificate == "nagano":
        certificate = "zero-time-ideal"
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
    *_, (filt, _, ranks) = word_vectors(family, field_values(family, samples), samples,
                                        depth_cap)
    failing = [tuple(p) for p, rank in zip(samples, ranks) if rank < n]
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
        dims = [-1 if isinstance(s, FlowError) else s.dimension for s in
                sampled_orbits(family, failing, [orbit_sampler] * len(failing))]
    note = f"not established at depth cap {depth_cap}"
    if dims and all(d == n for d in dims):
        note += (
            "; sampled orbit dimension is full at every failing sample, so the "
            "family may still be controllable (the test is one-sided)"
        )
    return ChowReport(False, depth_cap, note, tuple(failing), tuple(dims))
