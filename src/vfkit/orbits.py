"""Orbit and fixed-time-orbit tangent spaces.

One rule, ``_exact_certificate``, says when an exact bracket rank at p is the
dimension, so that no flow is integrated.  For any smooth family Lie(F)(p)
lies in the orbit tangent (Sussmann 1973), so a rank of n is the dimension
(``certificate="bracket-rank"``).  When every generator is real analytic on
all of R^n (no ``bump``, ``bumpp`` or division atom, every domain full) and
the bracket filtration carries a stabilization certificate, the family is
*Nagano-certified*: the tangent is Lie(F)(p) (Nagano 1966) and its rank is
the dimension (``certificate="nagano"``).  Fixed-time orbits take the rank of
the zero-time ideal at the float point that the seed word reaches, exact by
the same rule (``"zero-time-ideal"`` also needs ``liealg.derived_certificate``).
Every other case samples flow words that push the generators forward to the
point: the rank of the collected vectors (for fixed time, of the linear part
of their affine hull) is a lower bound (``certificate="sampled"``).  Every
orbit is an immersed submanifold of R^n (Sussmann 1973), so a sampled rank of
n is the orbit dimension: ``sampled_orbit_dimension`` walks the first
``FIRST_WORDS`` words and draws the rest only when their rank stays below n.
Flow ranks are read at ``linalg.FLOW_REL_TOL``, and filtrations go to
``liealg.DEFAULT_DEPTH_CAP`` unless a cap is given.
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
from .liealg import (DEFAULT_DEPTH_CAP, DEFAULT_MODULE_DEGREE, derived_certificate,
                     filtration, fixed_time_ideal_rank)
from .linalg import FLOW_REL_TOL, affine_rank, svd_rank
from .membership import members_bounded

__all__ = [
    "WordSampler",
    "OrbitTangentReport",
    "FixedTimeReport",
    "ChowReport",
    "SampledOrbit",
    "sampled_orbit",
    "sampled_orbit_dimension",
    "sampled_fixed_time",
    "FIRST_WORDS",
    "nagano_certified",
    "orbit_dimension",
    "fixed_time_dimension",
    "chow_verdict",
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
    vectors: Tuple[tuple, ...]  # sampled pushforwards; empty when exact
    linf_rank: int  # bracket-filtration rank at the same point
    words_used: int  # 0 when exact, as is words_skipped
    words_skipped: int
    certificate: str  # "nagano" | "bracket-rank" (exact) | "sampled" (a lower bound)


def _generator_values(family, point):
    return [tuple(X.value_float(point)) for X in family if X.domain.contains(point)]


def _pushforwards(family, words, point):
    """The generators' pushforwards to the point along each word (all words
    walked together), with the number of words that pushed some generator
    forward and the number that pushed none."""
    vectors = []
    used = 0
    for pushed in pushforward_along_words(family, words, family, point):
        if isinstance(pushed, FlowError):
            continue
        got = [tuple(float(x) for x in v) for v in pushed if v is not None]
        vectors.extend(got)
        used += bool(got)
    return vectors, used, len(words) - used


class SampledOrbit(NamedTuple):
    dimension: int  # rank of the vectors (affine rank for fixed time): a lower bound
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


def _exact_certificate(filt, rank, n, fixed_time=False):
    """Why the exact rank of Lie(F) at a point (of the zero-time ideal, for
    ``fixed_time``) is the tangent dimension there, or None: sample it."""
    if nagano_certified(filt) and not (fixed_time and derived_certificate(filt) is None):
        return "zero-time-ideal" if fixed_time else "nagano"
    return "bracket-rank" if rank == n else None


def orbit_dimension(family, point, sampler, depth_cap=DEFAULT_DEPTH_CAP):
    """Orbit dimension at the point, with the bracket-filtration rank there:
    that rank where ``_exact_certificate`` finds it exact, else the sampled
    dimension (a certified lower bound)."""
    family = tuple(family)
    filt = filtration(family, depth_cap)
    linf = filt.rank_at(point)
    exact = _exact_certificate(filt, linf, len(point))
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
    max_displacement: float  # max |word(x) - x| over the zero-sum words
    invariant_max_deviation: Optional[float]
    words_used: int  # of the displacement walk when exact, else of the sample
    words_skipped: int
    certificate: str  # "zero-time-ideal" | "bracket-rank" (exact) | "sampled" (a lower bound)

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


def _zero_sum_words(family, sampler):
    return replace(sampler, constraint="zero-sum").words(len(family))


def _sample_fixed_time(family, words, point):
    pushed, used, skipped = _pushforwards(family, words, point)
    vectors = _generator_values(family, point) + pushed
    if not vectors:
        raise DomainExitError("all zero-sum words exited the domains")
    return SampledOrbit(affine_rank(vectors, FLOW_REL_TOL), vectors, used, skipped)


def sampled_fixed_time(family, point, sampler):
    """Sampled tangent dimension of the fixed-time orbit through the point:
    the generator values there and their pushforwards along the sampler's
    words, made zero-sum, ranked as the linear part of their affine hull
    (``linalg.affine_rank``), a lower bound.  No filtration is built."""
    family = tuple(family)
    return _sample_fixed_time(family, _zero_sum_words(family, sampler), point)


def fixed_time_dimension(
    family,
    point,
    T,
    sampler,
    invariant: Optional[Expr] = None,
    depth_cap=DEFAULT_DEPTH_CAP,
):
    """Tangent dimension of the fixed-time orbit through the point.

    Reaches x by one net-time-T word.  For real analytic generators the
    fixed-time orbit through x has tangent L0(x), where the zero-time ideal
    is L0 = {sum c_i X_i : sum c_i = 0} + [L, L] (Sussmann and Jurdjevic
    1972, "Controllability of nonlinear systems"; Jurdjevic, *Geometric
    Control Theory*, 1997, ch. 3); for any smooth family L0(x) lies in it,
    as that orbit holds the curves e^{tX_i} e^{-tX_j} x and every flow of F
    preserves it.  Where ``_exact_certificate`` finds the rank of L0 at x
    exact ("zero-time-ideal" or "bracket-rank"), no pushforward is walked;
    otherwise the pushforwards along the sampler's zero-sum words give the
    sampled lower bound of ``sampled_fixed_time``.

    The zero-sum words are applied to x in either case, for the largest
    displacement and the invariant's deviation; on the exact path they also
    give ``words_used`` and ``words_skipped``.  The orbit dimension at x is
    ``orbit_dimension``'s, by the same rule and sampler.
    """
    family = tuple(family)
    reached = _seed_point(family, point, T)
    at = tuple(reached)
    words = _zero_sum_words(family, sampler)
    filt = filtration(family, depth_cap)
    ideal = fixed_time_ideal_rank(filt, at)
    certificate = _exact_certificate(filt, ideal.ideal_rank, len(at), True) or "sampled"

    max_disp = 0.0
    inv_dev = None
    if invariant is not None:
        inv_dev = 0.0
        inv_ref = invariant.eval_float(reached)
    used = 0
    for landed in apply_words(family, words, reached):
        if isinstance(landed, FlowError):
            continue
        used += 1
        max_disp = max(max_disp, float(np.max(np.abs(landed - reached))))
        if invariant is not None:
            inv_dev = max(inv_dev, abs(invariant.eval_float(landed) - inv_ref))
    dim, skipped = ideal.ideal_rank, len(words) - used
    if certificate == "sampled":
        dim, _, used, skipped = _sample_fixed_time(family, words, reached)

    linf = filt.rank_at(at)
    exact = _exact_certificate(filt, linf, len(at))
    orbit_dim = linf if exact else sampled_orbit_dimension(family, at, sampler)
    return FixedTimeReport(
        start=tuple(point),
        reached=at,
        net_time=float(T),
        dimension=dim,
        orbit_dimension_at_reached=orbit_dim,
        ideal_rank=ideal.ideal_rank,
        max_displacement=max_disp,
        invariant_max_deviation=inv_dev,
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
