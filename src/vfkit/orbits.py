"""Orbit and fixed-time-orbit tangent spaces.

A family is *Nagano-certified* when every generator is real analytic on
all of R^n (no ``bump``, ``bumpp`` or division atom, every domain full)
and its bracket filtration carries a stabilization certificate.  Then the
orbit tangent at p is Lie(F)(p) (Nagano 1966; Sussmann 1973): the orbit
dimension is the filtration's exact rank at p (``certificate="nagano"``)
and no flow is integrated.  Every other family is sampled: flow words push
the generators forward to the point, and the rank of the collected vectors
is a certified lower bound (``certificate="sampled"``).  Every orbit is an
immersed submanifold of R^n (Sussmann 1973), so a sampled rank that reaches
n is the orbit dimension and no further word can change it: callers that
need only the dimension (``sampled_orbit_dimension``) walk the first
``FIRST_WORDS`` words and draw the rest only when their rank stays below n.
Fixed-time orbits sample zero-sum words and take the linear part of the
affine hull of the collected vectors.  Flow ranks are read at
``linalg.FLOW_REL_TOL``, and filtrations go to ``liealg.DEFAULT_DEPTH_CAP``
unless a cap is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .expr import ONE, ZERO, Expr
from .fields import (
    DomainExitError,
    FlowError,
    apply_word,
    apply_words,
    pushforward_along_words,
)
from .liealg import (DEFAULT_DEPTH_CAP, DEFAULT_MODULE_DEGREE, filtration,
                     fixed_time_ideal_rank)
from .linalg import FLOW_REL_TOL, svd_rank
from .membership import members_bounded

__all__ = [
    "WordSampler",
    "OrbitTangentReport",
    "FixedTimeReport",
    "ChowReport",
    "SteeringReport",
    "SampledOrbit",
    "sampled_orbit",
    "sampled_orbit_dimension",
    "FIRST_WORDS",
    "nagano_certified",
    "orbit_dimension",
    "fixed_time_dimension",
    "chow_verdict",
    "steer_linear",
]

# Words walked before a dimension-only sample checks for full rank.
FIRST_WORDS = 32


@dataclass(frozen=True)
class WordSampler:
    """Seeded sampler of flow words: tuples of (field index, time) steps.

    Lengths are uniform on 1..max_len, field indices uniform, step times
    uniform on [-max_time, max_time].  The zero-sum constraint replaces
    the final time by minus the partial sum, so the word's net time is
    exactly zero.
    """

    seed: int
    max_len: int = 6
    max_time: float = 0.5
    count: int = 200
    constraint: str = "free"  # "free" | "zero-sum"

    def draw(self, n_fields):
        """The words one at a time, each drawn only when asked for."""
        rng = np.random.default_rng(self.seed)
        for _ in range(self.count):
            k = int(rng.integers(1, self.max_len + 1))
            idx = rng.integers(0, n_fields, size=k)
            times = rng.uniform(-self.max_time, self.max_time, size=k)
            if self.constraint == "zero-sum":
                times[-1] = -float(np.sum(times[:-1]))
            elif self.constraint != "free":
                raise ValueError(f"unknown constraint {self.constraint!r}")
            yield tuple((int(i), float(t)) for i, t in zip(idx, times))

    def words(self, n_fields):
        return list(self.draw(n_fields))


@dataclass(frozen=True)
class OrbitTangentReport:
    point: tuple
    dimension: int
    vectors: Tuple[tuple, ...]  # sampled pushforwards; empty under "nagano"
    linf_rank: int  # bracket-filtration rank at the same point
    words_used: int
    words_skipped: int
    certificate: str  # "nagano" (exact) | "sampled" (a lower bound)

    @property
    def certified_exact(self):
        return self.certificate == "nagano" or self.dimension == len(self.point)


def _generator_values(family, point):
    return [tuple(X.value_float(point)) for X in family if X.domain.contains(point)]


def _pushforwards(family, words, point):
    """The generators' pushforwards to the point along each word (all words
    walked together), with the number of words that pushed some generator
    forward and the number that pushed none."""
    vectors = []
    used = 0
    skipped = 0
    for pushed in pushforward_along_words(family, words, family, point):
        if isinstance(pushed, FlowError):
            pushed = ()
        got = [tuple(float(x) for x in v) for v in pushed if v is not None]
        vectors.extend(got)
        if got:
            used += 1
        else:
            skipped += 1
    return vectors, used, skipped


class SampledOrbit(NamedTuple):
    dimension: int  # rank of the vectors: a certified lower bound
    vectors: list  # generator values at the point and their pushforwards
    words_used: int
    words_skipped: int


def _sample_orbit(family, point, sampler, batches):
    """Generator values at the point and their pushforwards along the
    sampler's words, walked in the given batch sizes (None: all the rest)
    until the rank of the collected vectors is full.  A generator defined
    at the point gives a vector even when every word exits."""
    if not any(X.domain.contains(point) for X in family):
        raise DomainExitError(f"no generator is defined at {point}")
    draw = sampler.draw(len(family))
    vectors = _generator_values(family, point)
    used = skipped = 0
    for size in batches:
        pushed, u, s = _pushforwards(family, list(islice(draw, size)), point)
        vectors += pushed
        used += u
        skipped += s
        dim = svd_rank(np.array(vectors, dtype=float), FLOW_REL_TOL)
        if dim == len(point):
            break
    return SampledOrbit(dim, vectors, used, skipped)


def sampled_orbit(family, point, sampler):
    """Sampled orbit dimension at the point, from the pushforwards that all
    the sampler's words give there; no bracket filtration is built."""
    return _sample_orbit(family, point, sampler, (None,))


def sampled_orbit_dimension(family, point, sampler):
    """``sampled_orbit(family, point, sampler).dimension``, stopping after
    the first ``FIRST_WORDS`` words when their rank is already full (an
    orbit has no more dimensions than R^n); else the rank of all the
    vectors, in the same order."""
    return _sample_orbit(family, point, sampler, (FIRST_WORDS, None)).dimension


def nagano_certified(filt):
    """Whether ``filt.rank_at(p)`` is the orbit dimension at every p: every
    generator is real analytic on all of R^n and a stabilization
    certificate proves that the words span Lie(F)(p)."""
    return filt.certificate is not None and all(
        X.domain.is_full and all(c.is_analytic() for c in X.components)
        for X in filt.family
    )


def orbit_dimension(family, point, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Orbit dimension at the point, with the bracket-filtration rank there:
    that rank itself when the family is Nagano-certified (no word is
    walked; its generators are defined everywhere), else the sampled
    dimension (a certified lower bound)."""
    family = tuple(family)
    filt = filtration(family, depth_cap)
    linf = filt.rank_at(point)
    if nagano_certified(filt):
        return OrbitTangentReport(tuple(point), linf, (), linf, 0, 0, "nagano")
    s = sampled_orbit(family, point, sampler)
    return OrbitTangentReport(
        tuple(point), s.dimension, tuple(s.vectors), linf, s.words_used,
        s.words_skipped, "sampled",
    )


@dataclass(frozen=True)
class FixedTimeReport:
    start: tuple
    reached: tuple
    net_time: float
    dimension: int  # rank of the affine-hull linear part
    orbit_dimension_at_reached: int  # as orbit_dimension decides it
    ideal_rank: int  # I(X) rank at the reached point
    max_displacement: float  # max |word(x) - x| over the zero-sum words
    invariant_max_deviation: Optional[float]
    words_used: int
    words_skipped: int

    @property
    def dimension_gap(self):
        return self.orbit_dimension_at_reached - self.dimension


def _seed_point(family, point, T):
    """The point that the first successful net-time-T word reaches from the
    given one, trying single steps then pairs."""
    n = len(family)
    for i in range(n):
        try:
            return apply_word(family, [(i, T)], point)
        except FlowError:
            continue
    for i in range(n):
        for j in range(n):
            try:
                return apply_word(family, [(i, T / 2.0), (j, T / 2.0)], point)
            except FlowError:
                continue
    raise DomainExitError(f"no net-time-{T} seed word succeeds from {point}")


def fixed_time_dimension(
    family,
    point,
    T,
    sampler,
    invariant: Optional[Expr] = None,
    depth_cap=DEFAULT_DEPTH_CAP,
):
    """Sampled tangent dimension of the fixed-time orbit through the point.

    Reaches x by one net-time-T word, then samples zero-sum words at x;
    the tangent estimate is the rank of the differences of the collected
    pushforward vectors (the linear part of their affine hull).  The orbit
    dimension at x is read from the same filtration as the ideal rank when
    the family is Nagano-certified, and sampled otherwise.
    """
    family = tuple(family)
    reached = _seed_point(family, point, T)
    words = replace(sampler, constraint="zero-sum").words(len(family))
    pushed, used, skipped = _pushforwards(family, words, reached)
    vectors = _generator_values(family, reached) + pushed
    if not vectors:
        raise DomainExitError("all zero-sum words exited the domains")
    base = np.array(vectors[0], dtype=float)
    diffs = np.array([np.array(v) - base for v in vectors[1:]], dtype=float)
    dim = svd_rank(diffs, FLOW_REL_TOL) if len(diffs) else 0

    max_disp = 0.0
    inv_dev = None
    if invariant is not None:
        inv_dev = 0.0
        inv_ref = invariant.eval_float(reached)
    for landed in apply_words(family, words, reached):
        if isinstance(landed, FlowError):
            continue
        max_disp = max(max_disp, float(np.max(np.abs(landed - reached))))
        if invariant is not None:
            inv_dev = max(inv_dev, abs(invariant.eval_float(landed) - inv_ref))

    filt = filtration(family, depth_cap)
    if nagano_certified(filt):
        orbit_dim = filt.rank_at(tuple(reached))
    else:
        orbit_dim = sampled_orbit_dimension(family, tuple(reached), sampler)
    ideal = fixed_time_ideal_rank(filt, tuple(reached))
    return FixedTimeReport(
        start=tuple(point),
        reached=tuple(reached),
        net_time=float(T),
        dimension=dim,
        orbit_dimension_at_reached=orbit_dim,
        ideal_rank=ideal.ideal_rank,
        max_displacement=max_disp,
        invariant_max_deviation=inv_dev,
        words_used=used,
        words_skipped=skipped,
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
    filt = filtration(family, depth_cap)
    failing = [tuple(p) for p in samples if filt.rank_at(p) < n]
    if not failing:
        words = [f for level in filt.levels for _, f in level]
        axes = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
        certified = all(g.is_polynomial() and g.domain.is_full for g in family) and all(
            c.member for c in members_bounded(axes, words, DEFAULT_MODULE_DEGREE)
        )
        verdict = (
            "sufficient condition met: any two points joinable by flows"
            if certified
            else "full bracket rank at every sample, but no module certificate "
            f"at depth cap {depth_cap} that the words span every tangent space"
        )
        return ChowReport(certified, depth_cap, verdict, (), ())
    dims = []
    if orbit_sampler is not None:
        for p in failing:
            try:
                dims.append(sampled_orbit_dimension(family, p, orbit_sampler))
            except FlowError:
                dims.append(-1)
    note = f"not established at depth cap {depth_cap}"
    if dims and all(d == n for d in dims):
        note += (
            "; sampled orbit dimension is full at every failing sample, so the "
            "family may still be controllable (the test is one-sided)"
        )
    return ChowReport(False, depth_cap, note, tuple(failing), tuple(dims))


@dataclass(frozen=True)
class SteeringReport:
    u1: float
    u2: float
    trajectory: Tuple[tuple, ...]
    landing_error: float


def steer_linear(start, target, T):
    """Two-piece steering for the planar double integrator x1' = x2,
    x2' = u: closed-form u1, u2 drive start to target in time T (first
    input on [0, T/2], second on [T/2, T])."""
    if T == 0:
        raise ValueError("steering time T must be nonzero")
    x11, x12 = (float(v) for v in start)
    x21, x22 = (float(v) for v in target)
    T = float(T)
    u1 = (-3 * T * x12 - T * x22 - 4 * x11 + 4 * x21) / T**2
    u2 = (T * x12 + 3 * T * x22 + 4 * x11 - 4 * x21) / T**2

    def step(x, u, t):
        # exact flow of the double integrator: x1 += t x2 + u t^2/2, x2 += u t
        return np.array([x[0] + t * x[1] + u * t * t / 2.0, x[1] + u * t], dtype=float)

    samples = 8
    xs = [np.array([x11, x12])]
    for u in (u1, u2):
        base = xs[-1]
        for k in range(1, samples + 1):
            xs.append(step(base, u, (T / 2.0) * k / samples))
    landing = xs[-1]
    err = float(np.max(np.abs(landing - np.array([x21, x22]))))
    return SteeringReport(u1, u2, tuple(tuple(p) for p in xs), err)
