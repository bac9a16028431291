"""Integrability verdicts and flow-box integral-manifold charts.

The verdict combines three independent detectors:

* a pointwise bracket escaping the fibre at a sample rules integrability
  out near that sample (integrable implies involutive);
* a degree-bounded module-involutivity certificate rules it in: the module
  of sections generated by a real-analytic family is involutive, so the
  distribution is integrable (Hermann 1962; Nagano 1966).  It is the only
  "yes": rank that looks constant on the samples is no certificate, since
  the rank may drop between them;
* otherwise the orbit, which an integral manifold would hold to the
  fibre, is compared to the fibre in three steps: (a) bracket words of
  rank above the fibre rank at a sample rule integrability out for any
  smooth family, since Lie(F)(p) lies in the orbit tangent (a bracket-rank
  witness); (b) if the family is Nagano-certified (``orbits``) the words
  span the orbit tangent, so no flow can find more and the verdict stays
  undetermined; (c) else a sampled orbit dimension above the fibre rank
  rules it out.  Step (c) samples only where that can happen: not at full
  rank, and not where every generator is defined and exactly zero (the
  orbit is the point, of dimension 0).

Flow-box charts sample a ``CHART_GRID_POINTS``-per-axis grid of flow times
in [-CHART_RADIUS, CHART_RADIUS].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import Distribution, rank_at
from .fields import FlowError, apply_words, pushforward_along_word
from .liealg import filtration, involutive
from .orbits import (WordSampler, nagano_certified, orbit_dimension,
                     sampled_orbit_dimension)
from .linalg import FLOW_REL_TOL, VALUE_REL_TOL, orthogonal_residual, svd_rank

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
    family = list(D.generators)
    reports = [rank_at(D, p) for p in samples]
    ranks = tuple(rep.rank for rep in reports)

    # pointwise involutivity, sample by sample so mixed outcomes are visible
    failing: List[tuple] = []
    holding: List[tuple] = []
    first_witness = None
    for p in samples:
        rep = involutive(family, "pointwise", samples=[p])
        if rep.involutive:
            holding.append(p)
        else:
            failing.append(p)
            if first_witness is None:
                first_witness = rep.witness

    # the module certificate runs only when every sample passes, and the
    # orbit comparison only when it does not certify
    module_ok: Optional[bool] = None
    if not failing and D.is_polynomial():
        module_ok = bool(involutive(family, "module", degree=module_degree))
    witnesses = list(failing)
    bracket_rank_gap = False
    if not failing and not module_ok:
        # (a) bracket-rank witnesses; (b) under Nagano the words span the
        # orbit tangent, so no flow can find more; (c) else sample orbits
        filt = filtration(family)
        witnesses = [p for p, r in zip(samples, ranks) if filt.rank_at(p) > r]
        bracket_rank_gap = bool(witnesses)
        if not witnesses and not nagano_certified(filt):
            sampler = orbit_sampler or ORBIT_SAMPLER
            for p, rep in zip(samples, reports):
                # no orbit outruns a full-rank fibre, and where every
                # generator is defined and exactly zero the orbit is {p}
                vanishing = (rep.rank == 0 and rep.method == "exact-rational"
                             and not rep.excluded)
                if rep.rank == D.dim or vanishing:
                    continue
                try:
                    dim = sampled_orbit_dimension(family, p, sampler)
                except FlowError:
                    continue
                if dim > rep.rank:
                    witnesses.append(p)

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
            "orbit-rank gap decided the question"
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
        invariant_slice_samples=tuple(holding),
    )


@dataclass(frozen=True)
class FlowBoxChart:
    base: tuple
    chart_rank: int  # fibre rank m at the base
    max_residual: float  # worst tangency defect of d(phi)/dt_j over the grid
    image_tangent_rank: int
    fibre_rank_constant: bool  # fibre rank stays m over the sampled image
    orbit_dimension: Optional[int]  # orbits.orbit_dimension at the base
    accepted: bool
    rejected_reason: Optional[str] = None


def flow_box_chart(D: Distribution, base, orbit_sampler: Optional[WordSampler] = None):
    """Chart candidate t -> flow_{Y_m, t_m} o ... o flow_{Y_1, t_1}(base)
    built from a fibre basis of generators at the base.

    Accepted only when the chart behaves like an integral-manifold chart on
    the sample: every coordinate tangent stays in the fibre, the fibre rank
    matches the chart rank over the sampled image, and the orbit dimension
    at the base (``orbits.orbit_dimension``: an exact bracket rank, or a
    sampled lower bound) does not outrun the chart (generator flows cannot
    leave an integral manifold, so a larger orbit refutes it)."""
    base = tuple(base)
    base_report = rank_at(D, base)
    m = base_report.rank
    sampler = orbit_sampler or ORBIT_SAMPLER
    try:
        orbit = orbit_dimension(D.generators, base, sampler)
        orbit_dim, orbit_kind = orbit.dimension, orbit.certificate
    except FlowError:
        orbit_dim, orbit_kind = None, "sampled"
    if m == 0:
        ok = orbit_dim in (0, None)
        return FlowBoxChart(
            base=base,
            chart_rank=0,
            max_residual=0.0,
            image_tangent_rank=0,
            fibre_rank_constant=True,
            orbit_dimension=orbit_dim,
            accepted=ok,
            rejected_reason=(
                None if ok else f"{orbit_kind} orbit dimension exceeds the chart rank"
            ),
        )
    frame = [D.generators[i] for i in base_report.witness]
    axes = np.linspace(-CHART_RADIUS, CHART_RADIUS, CHART_GRID_POINTS)
    grids = np.meshgrid(*([axes] * m), indexing="ij")
    t_list = np.stack([g.ravel() for g in grids], axis=-1)
    max_residual = 0.0
    fibre_ok = True
    tangents = []
    reason = None
    words = [[(j, float(t[j])) for j in range(m)] for t in t_list]
    try:
        # the images in one walk, checked in grid order
        for word, image_pt in zip(words, apply_words(frame, words, base)):
            if isinstance(image_pt, FlowError):
                raise image_pt
            fibre_vals = [v for _, v in D.defined_values(image_pt)]
            if rank_at(D, tuple(image_pt)).rank != m:
                fibre_ok = False
            for j in range(m):
                tail = word[j + 1 :]
                # d(phi)/dt_j: the frame field Y_j after step j, pushed through
                # the remaining flows (the pushforward pulls back from the image)
                v = pushforward_along_word(frame, tail, frame[j], image_pt)
                tangents.append(tuple(float(x) for x in v))
                max_residual = max(max_residual, orthogonal_residual(fibre_vals, v))
    except FlowError as err:
        return FlowBoxChart(
            base=base,
            chart_rank=m,
            max_residual=float("inf"),
            image_tangent_rank=0,
            fibre_rank_constant=False,
            orbit_dimension=orbit_dim,
            accepted=False,
            rejected_reason=f"flow failure: {err}",
        )
    # the tighter threshold: this asks whether the sampled image degenerates,
    # not whether a tangent leaves the fibre
    tangent_rank = svd_rank(np.array(tangents, dtype=float), VALUE_REL_TOL)
    orbit_ok = orbit_dim is None or orbit_dim == m
    accepted = max_residual < FLOW_REL_TOL and fibre_ok and tangent_rank == m and orbit_ok
    if not accepted:
        if max_residual >= FLOW_REL_TOL:
            reason = f"tangency residual {max_residual:.3e} exceeds {FLOW_REL_TOL:.1e}"
        elif not fibre_ok:
            reason = "fibre rank varies over the sampled image"
        elif not orbit_ok:
            reason = (
                f"{orbit_kind} orbit dimension {orbit_dim} at the base exceeds the "
                f"chart rank {m}"
            )
        else:
            reason = "sampled image degenerates (tangent rank below chart rank)"
    return FlowBoxChart(
        base=base,
        chart_rank=m,
        max_residual=max_residual,
        image_tangent_rank=tangent_rank,
        fibre_rank_constant=fibre_ok,
        orbit_dimension=orbit_dim,
        accepted=accepted,
        rejected_reason=reason,
    )

