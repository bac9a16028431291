"""Integrability verdicts and flow-box integral-manifold charts.

The verdict combines three independent detectors:

* a pointwise bracket escaping the fibre at a sample rules integrability
  out near that sample (integrable implies involutive);
* pointwise involutivity plus sampled-constant rank, or plus a
  degree-bounded module-involutivity certificate, rules it in;
* otherwise the sampled orbit dimension is compared to the fibre rank: an
  integral manifold through a point would force the orbit tangent to equal
  the fibre, so sampled orbit dimension exceeding the rank rules
  integrability out even when every bracket test passes.

Flow-box charts sample a ``CHART_GRID_POINTS``-per-axis grid of flow times
in [-CHART_RADIUS, CHART_RADIUS].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import Distribution, rank_at
from .fields import FlowError, apply_word, pushforward_along_word
from .liealg import involutive
from .orbits import WordSampler, sampled_orbit
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
    rank_constant_sampled: bool
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
    ranks = tuple(rank_at(D, p).rank for p in samples)
    rank_constant = len(set(ranks)) <= 1

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

    # the module certificate and the orbit comparison run only when the
    # cheaper tests leave the question open
    open_question = not failing and not rank_constant
    module_ok: Optional[bool] = None
    if open_question and D.is_polynomial():
        module_ok = bool(involutive(family, "module", degree=module_degree))
    witnesses = list(failing)
    if open_question and not module_ok:
        sampler = orbit_sampler or ORBIT_SAMPLER
        for p, r in zip(samples, ranks):
            try:
                dim = sampled_orbit(family, p, sampler).dimension
            except FlowError:
                continue
            if dim > r:
                witnesses.append(p)

    if failing:
        integrable, clause = "no", (
            "a bracket of generators leaves the fibre at a sample; an "
            "integrable distribution is involutive, so no integral "
            "manifold passes near the witness points"
        )
    elif rank_constant:
        integrable, clause = "yes", (
            "pointwise involutive with sampled-constant rank: a locally "
            "constant-rank involutive distribution is integrable"
        )
    elif module_ok:
        integrable, clause = "yes", (
            "pointwise involutive and the generator module is involutive "
            f"(multipliers of degree <= {module_degree}); a finitely "
            "generated involutive module of sections is integrable"
        )
    elif witnesses:
        integrable, clause = "no", (
            "sampled orbit dimension exceeds the fibre rank at a witness "
            "point; generator flows cannot leave an integral manifold, so "
            "the orbit outrunning the fibre refutes integrability"
        )
    else:
        integrable, clause = "undetermined", (
            "pointwise involutive, rank varies across samples, and neither a "
            "module certificate nor an orbit-rank gap decided the question"
        )
    return FrobeniusVerdict(
        integrable=integrable,
        clause=clause,
        involutive_pointwise=not failing,
        involutive_witness=first_witness,
        module_involutive=module_ok,
        module_degree=module_degree if module_ok is not None else None,
        rank_constant_sampled=rank_constant,
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
    orbit_dimension: Optional[int]  # sampled orbit dimension at the base
    accepted: bool
    rejected_reason: Optional[str] = None


def flow_box_chart(D: Distribution, base, orbit_sampler: Optional[WordSampler] = None):
    """Chart candidate t -> flow_{Y_m, t_m} o ... o flow_{Y_1, t_1}(base)
    built from a fibre basis of generators at the base.

    Accepted only when the chart behaves like an integral-manifold chart on
    the sample: every coordinate tangent stays in the fibre, the fibre rank
    matches the chart rank over the sampled image, and the sampled orbit
    dimension at the base does not outrun the chart (generator flows cannot
    leave an integral manifold, so a larger sampled orbit refutes it)."""
    base = tuple(base)
    base_report = rank_at(D, base)
    m = base_report.rank
    sampler = orbit_sampler or ORBIT_SAMPLER
    try:
        orbit_dim = sampled_orbit(list(D.generators), base, sampler).dimension
    except FlowError:
        orbit_dim = None
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
                None if ok else "sampled orbit dimension exceeds the chart rank"
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
    for t in t_list:
        word = [(j, float(t[j])) for j in range(m)]
        try:
            image_pt = apply_word(frame, word, base)
        except FlowError as err:
            return _chart_flow_failure(base, m, orbit_dim, err)
        fibre_vals = [v for _, v in D.defined_values(image_pt)]
        if rank_at(D, tuple(image_pt)).rank != m:
            fibre_ok = False
        for j in range(m):
            tail = word[j + 1 :]
            # d(phi)/dt_j: the frame field Y_j after step j, pushed through
            # the remaining flows (the pushforward pulls back from the image)
            try:
                v = pushforward_along_word(frame, tail, frame[j], image_pt)
            except FlowError as err:
                return _chart_flow_failure(base, m, orbit_dim, err)
            tangents.append(tuple(float(x) for x in v))
            max_residual = max(max_residual, orthogonal_residual(fibre_vals, v))
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
                f"sampled orbit dimension {orbit_dim} at the base exceeds the "
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


def _chart_flow_failure(base, m, orbit_dim, err):
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
