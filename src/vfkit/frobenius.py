"""Integrability verdicts and flow-box integral-manifold charts.

The verdict reads one rank ladder (``liealg.word_vectors``) at the samples,
as Fractions (``vectorfield.exact_point``), with three detectors:

* a pair bracket escaping the fibre at a sample rules integrability out
  near it (integrable implies involutive): the ladder's depth 2 adds the
  pair brackets to the fibre, so a sample fails where its rank grows
  there, and the first pair value there off the fibre is the witness;
* a degree-bounded module-involutivity certificate, on the kept depth-2
  words, rules it in: the module of sections generated by a real-analytic
  family on all of R^n is involutive, so the distribution is integrable
  (Hermann 1962; Nagano 1966).  It is tried only for polynomial generators
  on full domains.  It is the only "yes": rank that looks constant on the
  samples is no certificate, since the rank may drop between them;
* otherwise the orbit, which an integral manifold would hold to the
  fibre, is compared to the fibre in three steps: (a) bracket words of
  rank above the fibre rank at a sample rule integrability out for any
  smooth family, since Lie(F)(p) lies in the orbit tangent (a bracket-rank
  witness); (b) where ``orbits.exact_ranks`` finds the bracket rank at a
  sample to be the orbit dimension (full rank, every generator defined and
  exactly zero there, or, below full rank, a Nagano-certified family), no
  flow can find more; (c) else a sampled orbit dimension above the fibre
  rank rules it out, every such sample sampled in one walk; both are read
  from ``orbits.orbit_dimensions``.  The same ladder goes on to the first
  depth where every sample's rank is exact, and stops at full rank sooner.

A flow-box chart takes one path whatever its rank m: the flows of a fibre
basis at the base over a ``CHART_GRID_POINTS``-per-axis grid of times in
[-CHART_RADIUS, CHART_RADIUS] (for m = 0, the one empty word) give the images
in one walk and each image's m tangents in one more.  The first failing check
names the rejection: a flow, a tangent off the fibre, a varying fibre rank,
an orbit dimension (from (b) or (c) above) other than m, a degenerate image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Optional, Tuple

from .distributions import Distribution, fibre_rank, fibre_ranks
from .liealg import word_vectors
from .linalg import FLOW_REL_TOL, VALUE_REL_TOL, in_span, orthogonal_residual, svd_rank
from .membership import OversizeError, module_contains
from .orbits import WordSampler, exact_ranks, orbit_dimensions
from .vectorfield import DomainExitError, FlowError, exact_point, field_evaluators, field_values

__all__ = ["FrobeniusVerdict", "FlowBoxChart", "frobenius_verdict", "flow_box_chart"]

CHART_RADIUS = 0.2
CHART_GRID_POINTS = 3
# Multiplier degree bound of the module-involutivity certificate.
DEFAULT_INVOLUTIVITY_DEGREE = 4
ORBIT_SAMPLER = WordSampler(seed=0, max_len=8, max_time=1.0)


@dataclass(frozen=True)
class FrobeniusVerdict:
    integrable: str  # "yes" | "no" | "undetermined"
    clause: str  # which part of the decision tree fired
    involutive_pointwise: bool
    involutive_witness: Optional[tuple]
    module_involutive: Optional[bool]  # None when not attempted
    module_degree: Optional[int]
    ranks: Tuple[int, ...]
    witnesses: Tuple[tuple, ...]  # points backing a "no"
    invariant_slice_samples: Tuple[tuple, ...]  # involutivity held there


def frobenius_verdict(
    D: Distribution,
    samples,
    module_degree=DEFAULT_INVOLUTIVITY_DEGREE,
    orbit_sampler: Optional[WordSampler] = None,
):
    samples = [tuple(p) for p in samples]
    exact = [exact_point(p) for p in samples]
    family = list(D.generators)
    values = field_values(family, exact)  # once per (generator, sample), for every test
    ranks = fibre_ranks(D, exact, values)

    # one ladder for every test: depth 1 is the fibre and depth 2 adds the
    # pair brackets, so a sample is involutive where its rank stays; the
    # witness is the first pair value off the fibre at the first failing one
    ladder = word_vectors(family, values, exact)
    read = [next(ladder), next(ladder)]
    (_, spans, depth1), (filt, vectors, depth2) = read
    failing = [k for k, (a, b) in enumerate(zip(depth1, depth2)) if b > a]
    first_witness = next(((*w.indices, samples[k]) for k in failing[:1] for w, v in zip(
        [w for w, f in filt.levels[1] if f.domain.contains(exact[k])],
        vectors[k][len(spans[k]):]) if not in_span(spans[k], v)), None)

    # the module certificate, on the kept pair brackets (a pruned one is a
    # member whenever they are), runs only when every sample passes and every
    # generator is a polynomial on all of R^n (an oversized system leaves it
    # unattempted, and says why), and the orbit comparison when it does not certify
    module_ok: Optional[bool] = None
    too_large = ""
    if not failing and D.minors_obstacle() is None:
        targets = [f for _, f in filt.levels[1]]
        try:
            module_ok = not targets or module_contains(targets, family, module_degree)
        except OversizeError as err:
            too_large = f"; the module certificate was not attempted: {err}"
    witnesses = [samples[k] for k in failing]
    bracket_rank_gap = False
    if not failing and not module_ok:
        # (a) bracket-rank witnesses; (b) where ``orbits.exact_ranks`` finds
        # the bracket rank exact, no flow can find more; (c) else sample orbits
        _, lie_ranks, kinds, _ = exact_ranks(chain(read, ladder), values)
        witnesses = [p for p, lie, r in zip(samples, lie_ranks, ranks) if lie > r]
        bracket_rank_gap = bool(witnesses)
        if not witnesses:
            orbit = orbit_dimensions(family, samples, lie_ranks, kinds,
                                     orbit_sampler or ORBIT_SAMPLER)
            witnesses = [p for p, (dim, _), r in zip(samples, orbit, ranks) if dim > r]

    if failing:
        integrable, clause = "no", (
            "a bracket of generators leaves the fibre at a sample; an "
            "integrable distribution is involutive, so no integral "
            "manifold passes near the witness points"
        )
    elif module_ok:
        integrable, clause = "yes", (
            "pointwise involutive and the generator module is involutive "
            f"(multipliers of degree <= {module_degree}); a finitely "
            "generated involutive module of sections is integrable"
        )
    elif bracket_rank_gap:
        integrable, clause = "no", (
            "bracket words reach a rank above the fibre rank at a witness "
            "point (a bracket-rank witness); Lie(F)(p) lies in the orbit "
            "tangent, which an integral manifold would hold to the fibre"
        )
    elif witnesses:
        integrable, clause = "no", (
            "sampled orbit dimension exceeds the fibre rank at a witness "
            "point; generator flows cannot leave an integral manifold, so "
            "the orbit outrunning the fibre refutes integrability"
        )
    else:
        integrable, clause = "undetermined", (
            "pointwise involutive, and neither a module certificate nor an "
            f"orbit-rank gap decided the question{too_large}"
        )
    return FrobeniusVerdict(
        integrable=integrable,
        clause=clause,
        involutive_pointwise=not failing,
        involutive_witness=first_witness,
        module_involutive=module_ok,
        module_degree=module_degree if module_ok is not None else None,
        ranks=ranks,
        witnesses=tuple(witnesses),
        invariant_slice_samples=tuple(p for p, a, b in zip(samples, depth1, depth2) if a == b),
    )


@dataclass(frozen=True)
class FlowBoxChart:
    base: tuple
    chart_rank: int  # fibre rank m at the base
    max_residual: float  # worst tangency defect of d(phi)/dt_j over the grid
    image_tangent_rank: int
    fibre_rank_constant: bool  # fibre rank stays m over the sampled image
    orbit_dimension: int  # exact or sampled orbit dimension at the base
    accepted: bool
    rejected_reason: Optional[str] = None


def flow_box_chart(D: Distribution, base, orbit_sampler: Optional[WordSampler] = None):
    """Chart candidate t -> flow_{Y_m, t_m} o ... o flow_{Y_1, t_1}(base)
    built from a fibre basis of generators at the base, accepted only where it
    behaves like an integral-manifold chart on the sample (module docstring).
    Generator flows cannot leave an integral manifold, so an orbit dimension
    at the base above the chart rank refutes the chart."""
    import numpy as np  # the flow layer loads only where a flow is walked
    from .fields import apply_words, pushforward_along_words
    # ranked at the Fraction, each generator evaluated once there; flows start from base
    base, exact_base, family = tuple(base), exact_point(base), D.generators
    values = field_values(family, [exact_base])
    base_report = fibre_rank(exact_base, values[0])
    m = base_report.rank
    _, ranks, exact, _ = exact_ranks(word_vectors(family, values, [exact_base]), values)
    ((orbit_dim, orbit_kind),) = orbit_dimensions(family, [base], ranks, exact,
                                                  orbit_sampler or ORBIT_SAMPLER)
    frame = [family[i] for i in base_report.witness]
    axis = np.linspace(-CHART_RADIUS, CHART_RADIUS, CHART_GRID_POINTS).tolist()
    words = [tuple(enumerate(t)) for t in product(axis, repeat=m)]
    evaluators = field_evaluators(family)
    residual, fibre_ok, tangents, failure = 0.0, True, [], None
    try:
        # the images in one walk, checked in grid order; then per image one
        # walk for its m tangents d(phi)/dt_j: the frame field Y_j after
        # step j, pushed through the remaining flows (row j, field Y_j alone)
        for word, image in zip(words, apply_words(frame, words, [base] * len(words))):
            if isinstance(image, FlowError):
                raise image
            vals = [f(image) for f in evaluators]
            fibre_ok &= fibre_rank(tuple(image), vals).rank == m
            fibre = [v for v in vals if v is not None]
            tails = [word[j + 1:] for j in range(m)]
            pushes = pushforward_along_words(frame, tails, [(Y,) for Y in frame], [image] * m)
            for Y, pushed in zip(frame, pushes):
                if isinstance(pushed, FlowError):
                    raise pushed
                (tangent,) = pushed
                if tangent is None:
                    raise DomainExitError(f"{Y.name} is undefined at the pulled-back point")
                tangents.append(tuple(float(x) for x in tangent))
                residual = max(residual, orthogonal_residual(fibre, tangent))
    except FlowError as err:
        failure = f"flow failure: {err}"
        residual, fibre_ok, tangents = float("inf"), False, []
    # the tighter threshold: this asks whether the sampled image degenerates,
    # not whether a tangent leaves the fibre
    tangent_rank = svd_rank(tangents, VALUE_REL_TOL)
    reason = next((text for failed, text in (
        (failure, failure),
        (residual >= FLOW_REL_TOL, f"tangency residual {residual:.3e} exceeds {FLOW_REL_TOL:.1e}"),
        (not fibre_ok, "fibre rank varies over the sampled image"),
        (orbit_dim != m,
         f"{orbit_kind} orbit dimension {orbit_dim} at the base exceeds the chart rank {m}"),
        (tangent_rank != m, "sampled image degenerates (tangent rank below chart rank)"),
    ) if failed), None)
    return FlowBoxChart(
        base=base,
        chart_rank=m,
        max_residual=residual,
        image_tangent_rank=tangent_rank,
        fibre_rank_constant=fibre_ok,
        orbit_dimension=orbit_dim,
        accepted=reason is None,
        rejected_reason=reason,
    )
