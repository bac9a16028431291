"""Monte-Carlo estimation of orbit and fixed-time-orbit tangent spaces.

Sampled flow words push the generators forward to a chosen point; the rank
of the collected vectors is a certified lower bound for the orbit
dimension (the tangent space is the span over the full diffeomorphism
group, which no finite sample exhausts).  Fixed-time orbits use zero-sum
words and the linear part of the affine hull of the collected vectors.
Ranks are read at ``linalg.FLOW_REL_TOL`` and bracket filtrations are
built to ``liealg.DEFAULT_DEPTH_CAP`` unless a depth cap is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .expr import ONE, ZERO, Expr
from .fields import (
    DomainExitError,
    FlowError,
    apply_word,
    pushforward_along_word,
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
    "orbit_dimension",
    "fixed_time_dimension",
    "chow_verdict",
    "steer_linear",
]


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

    def words(self, n_fields):
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.count):
            k = int(rng.integers(1, self.max_len + 1))
            idx = rng.integers(0, n_fields, size=k)
            times = rng.uniform(-self.max_time, self.max_time, size=k)
            if self.constraint == "zero-sum":
                times[-1] = -float(np.sum(times[:-1]))
            elif self.constraint != "free":
                raise ValueError(f"unknown constraint {self.constraint!r}")
            out.append(tuple((int(i), float(t)) for i, t in zip(idx, times)))
        return out


@dataclass(frozen=True)
class OrbitTangentReport:
    point: tuple
    dimension: int
    vectors: Tuple[tuple, ...]
    linf_rank: int  # bracket-filtration rank at the same point
    words_used: int
    words_skipped: int

    @property
    def certified_exact(self):
        # both the sampled dimension and linf_rank are lower bounds for a
        # smooth family, so only a full dimension is a certificate
        return self.dimension == len(self.point)


def _collect_pushforwards(family, words, point):
    """Generator values at the point and their pushforwards along each word,
    with the number of words that pushed some generator forward and the
    number that pushed none."""
    vectors = []
    for X in family:
        if X.domain.contains(point):
            vectors.append(tuple(X.value_float(point)))
    used = 0
    skipped = 0
    for w in words:
        try:
            pushed = pushforward_along_word(family, w, family, point)
        except FlowError:
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


def sampled_orbit(family, point, sampler):
    """Sampled orbit dimension at the point, from the pushforwards that the
    sampler's words give there; no bracket filtration is built."""
    if not any(X.domain.contains(point) for X in family):
        raise DomainExitError(f"no generator is defined at {point}")
    words = sampler.words(len(family))
    vectors, used, skipped = _collect_pushforwards(family, words, point)
    if not vectors:
        raise DomainExitError(
            f"all {len(words)} sampled words exited the domains "
            f"(used {used}, skipped {skipped})"
        )
    dim = svd_rank(np.array(vectors, dtype=float), FLOW_REL_TOL)
    return SampledOrbit(dim, vectors, used, skipped)


def orbit_dimension(family, point, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Sampled orbit dimension at the point (a certified lower bound), with
    the bracket-filtration rank there."""
    family = tuple(family)
    s = sampled_orbit(family, point, sampler)
    linf = filtration(family, depth_cap).rank_at(point)
    return OrbitTangentReport(
        tuple(point), s.dimension, tuple(s.vectors), linf, s.words_used,
        s.words_skipped,
    )


@dataclass(frozen=True)
class FixedTimeReport:
    start: tuple
    reached: tuple
    net_time: float
    dimension: int  # rank of the affine-hull linear part
    orbit_dimension_at_reached: int
    ideal_rank: int  # I(X) rank at the reached point
    max_displacement: float  # max |word(x) - x| over the zero-sum words
    invariant_max_deviation: Optional[float]
    words_used: int
    words_skipped: int

    @property
    def dimension_gap(self):
        return self.orbit_dimension_at_reached - self.dimension


def _seed_word(family, point, T):
    """A net-time-T word from the point, trying single steps then pairs."""
    n = len(family)
    for i in range(n):
        try:
            apply_word(family, [(i, T)], point)
            return [(i, float(T))]
        except FlowError:
            continue
    for i in range(n):
        for j in range(n):
            try:
                apply_word(family, [(i, T / 2.0), (j, T / 2.0)], point)
                return [(i, float(T / 2.0)), (j, float(T / 2.0))]
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
    pushforward vectors (the linear part of their affine hull).
    """
    family = tuple(family)
    seed_word = _seed_word(family, point, T)
    reached = apply_word(family, seed_word, point)
    words = replace(sampler, constraint="zero-sum").words(len(family))
    vectors, used, skipped = _collect_pushforwards(family, words, reached)
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
    for w in words:
        try:
            landed = apply_word(family, w, reached)
        except FlowError:
            continue
        max_disp = max(max_disp, float(np.max(np.abs(landed - reached))))
        if invariant is not None:
            inv_dev = max(inv_dev, abs(invariant.eval_float(landed) - inv_ref))

    orbit_dim = sampled_orbit(family, tuple(reached), sampler).dimension
    ideal = fixed_time_ideal_rank(filtration(family, depth_cap), tuple(reached))
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
                dims.append(sampled_orbit(family, p, orbit_sampler).dimension)
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
