"""Preset systems with machine-checked expected facts.

Each preset bundles a system definition with the facts the literature
states for it (tag "published"), facts that are immediate ("trivial"),
and facts whose expected values come from an independent oracle computed
here ("derived").  Running a preset re-derives every fact and reports
mismatches, so drift between the corpus and the implementation is
mechanically visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Tuple

from .distributions import Distribution, rank_at, singular_locus_minors
from .expr import compile_float, parse
from .frobenius import flow_box_chart, frobenius_verdict
from .liealg import filtration, pairwise_brackets, pointwise_witnesses, word_vectors
from .membership import ideal_member_bounded, member_bounded
from .orbits import (WordSampler, chow_verdict, fixed_time_dimension, sampled_orbits,
                     zero_sum_words)
from .systems import parse_system
from .vectorfield import FlowError, field_values, lie_bracket

__all__ = ["Preset", "Fact", "FactResult", "PRESETS", "run_preset", "steer_linear"]


@dataclass(frozen=True)
class FactResult:
    ok: bool
    expected: str
    measured: str


@dataclass(frozen=True)
class Fact:
    fact_id: str
    tag: str  # "published" | "trivial" | "derived"
    description: str
    check: Callable[["PresetContext"], FactResult]


@dataclass(frozen=True)
class Preset:
    name: str
    title: str
    system_text: str
    facts: Tuple[Fact, ...]


# every preset by name, in corpus order: each is registered once, below its checks
PRESETS: Dict[str, Preset] = {}


def _register(name, title, system_text, *facts):
    PRESETS[name] = Preset(name, title, system_text, facts)


class PresetContext:
    def __init__(self, preset, seed):
        self.preset = preset
        self.seed = int(seed)
        self.system = parse_system(preset.system_text)
        self.family = list(self.system.fields)
        self.distribution = Distribution(self.system.fields)

    def sampler(self, offset=0, **kw):
        return WordSampler(seed=self.seed + offset, **kw)


@dataclass(frozen=True)
class PresetRun:
    preset: str
    seed: int
    results: Tuple[Tuple[Fact, FactResult], ...]

    @property
    def passed(self):
        return sum(1 for _, r in self.results if r.ok)

    @property
    def failed(self):
        return sum(1 for _, r in self.results if not r.ok)


def _result(ok, expected, measured):
    return FactResult(bool(ok), str(expected), str(measured))


def _equals(expected, question):
    """Check that ``question(ctx)`` equals ``expected``."""

    def check(ctx):
        measured = question(ctx)
        return _result(expected == measured, expected, measured)

    return check


def _first_bracket(ctx):
    """[X1, X2] as printed, e.g. "(0, 1)"."""
    b = lie_bracket(ctx.family[0], ctx.family[1])
    return f"({', '.join(str(c) for c in b.components)})"


def _bracket_generating_at(samples):
    """Check that ``chow_verdict`` at depth 2 passes at the samples."""

    def check(ctx):
        rep = chow_verdict(ctx.family, samples, 2)
        return _result(rep.bracket_generating, "bracket-generating at depth 2",
                       rep.verdict)

    return check


def _zero_sum_change(ctx, rep, sampler, *functions):
    """The largest change of any of the functions between the point that the
    report reached and where the sampler's zero-sum words take it; a
    coordinate projection measures displacement, an invariant its drift.
    A word that exits is skipped."""
    import numpy as np  # the flow layer loads only where a flow is walked
    from .fields import apply_words
    reached = np.array(rep.reached)
    start = [f(reached.tolist()) for f in functions]
    words = zero_sum_words(sampler.words(len(ctx.family)))
    change = 0.0
    for q in apply_words(ctx.family, words, [reached] * len(words)):
        if not isinstance(q, FlowError):
            q = q.tolist()
            change = max(change, *(abs(f(q) - s) for f, s in zip(functions, start)))
    return change


# Frobenius sample grids: half steps on [-1, 1]^2, unit steps on [-1, 1]^3.
_HALF_STEP_GRID = [
    (Fraction(i, 2), Fraction(j, 2)) for i in range(-2, 3) for j in range(-2, 3)
]
_UNIT_CUBE_GRID = [
    (Fraction(i), Fraction(j), Fraction(k))
    for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
]


# ---------------------------------------------------------------------------
# diagonal scalings: nine orbits, hyperbolic fixed-time orbits


_DIAG_SYSTEM = """\
system diagonal-scalings dim 2
field X1 = (x1, 0)
field X2 = (0, x2)
"""

_NINE_POINTS = [
    (0, 0),
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (-1, 1),
    (1, -1),
    (-1, -1),
]


def _nine_orbit_signs(ctx):
    import numpy as np
    from .fields import apply_words
    samplers = [ctx.sampler(100 + i) for i in range(len(_NINE_POINTS))]
    starts = [p for p, s in zip(_NINE_POINTS, samplers) for _ in range(s.count)]
    words = chain.from_iterable(s.draw(len(ctx.family)) for s in samplers)
    landed = apply_words(ctx.family, words, starts)
    for q in landed:
        if isinstance(q, FlowError):
            raise q
    landed = np.array(landed)
    signs = np.sign(np.where(np.abs(landed) < 1e-12, 0.0, landed))
    bad = int((signs != np.sign(np.array(starts, dtype=float))).any(axis=1).sum())
    return _result(bad == 0, "sign pattern (sgn x1, sgn x2) never changes", f"{bad} violations")


def _diag_stabilizes(ctx):
    filt = filtration(ctx.family)
    ok = filt.stabilized_at == 1 and all(
        not level for level in filt.levels[1:]
    )
    return _result(ok, "all depth>=2 brackets vanish; stable at depth 1",
                   f"stabilized_at={filt.stabilized_at}")


_register(
    "nine-orbits",
    "two diagonal scalings on the plane with nine distinct orbits",
    _DIAG_SYSTEM,
    Fact("orbit-dims", "published",
         "orbit dimensions at the nine representative points are "
         "(0,1,1,1,1,2,2,2,2)",
         _equals((0, 1, 1, 1, 1, 2, 2, 2, 2), lambda ctx: tuple(
             s.dimension for s in sampled_orbits(ctx.family, _NINE_POINTS, [
                 ctx.sampler(i) for i in range(len(_NINE_POINTS))])))),
    Fact("sign-pattern", "published",
         "200 seeded words per point never change the sign pattern",
         _nine_orbit_signs),
    Fact("bracket-closure", "derived",
         "all depth>=2 brackets vanish symbolically", _diag_stabilizes),
    Fact("fibre-ranks", "trivial",
         "fibre ranks at (0,0),(1,0),(1,1) are 0,1,2",
         _equals((0, 1, 2), lambda ctx: tuple(
             rank_at(ctx.distribution, p).rank for p in [(0, 0), (1, 0), (1, 1)]))),
)


def _axis_singleton(ctx):
    rep = fixed_time_dimension(ctx.family, (1, 0), 0.5, ctx.sampler(0))
    disp = _zero_sum_change(ctx, rep, ctx.sampler(0), itemgetter(0), itemgetter(1))
    return _result(
        disp < 1e-9,
        "every zero-sum word fixes the reached axis point within 1e-9 "
        "(stated singleton fixed-time orbit)",
        f"max displacement {disp:.3e} (fixed-time dimension "
        f"{rep.dimension}, {rep.certificate}); zero-sum words that idle on the "
        "axis move the point, so the fixed-time orbit is one-dimensional",
    )


def _hyperbola_invariant(ctx):
    rep = fixed_time_dimension(ctx.family, (1, 1), 0.0, ctx.sampler(2))
    drift = _zero_sum_change(ctx, rep, ctx.sampler(2), compile_float(parse("x1*x2", 2)))
    return _result(drift < 1e-8, "x1*x2 preserved within 1e-8 over 200 zero-sum words",
                   f"max deviation {drift:.3e}")


_register(
    "hyperbola-fixed-time",
    "fixed-time orbits of the diagonal scalings: hyperbolas x1*x2 = c",
    _DIAG_SYSTEM,
    Fact("axis-singleton", "published",
         "the fixed-time orbit through (1,0) is a sampled singleton",
         _axis_singleton),
    Fact("hyperbola-dim", "published",
         "sampled fixed-time dimension at (1,1) is 1",
         _equals(1, lambda ctx: fixed_time_dimension(
             ctx.family, (1, 1), 0.0, ctx.sampler(1)).dimension)),
    Fact("product-invariant", "derived",
         "zero-sum words preserve x1*x2 (each flow scales one coordinate "
         "by e^t; zero net time cancels)", _hyperbola_invariant),
    Fact("dimension-gap", "published",
         "orbit dimension minus fixed-time dimension is 1 at (1,1)",
         _equals(1, lambda ctx: fixed_time_dimension(
             ctx.family, (1, 1), 0.0, ctx.sampler(3)).dimension_gap)),
)


# ---------------------------------------------------------------------------
# flat pairs: full orbits, deficient bracket rank, not integrable


_FLAT_SYSTEM = """\
system one-sided-flat dim 2
field X1 = (1, 0)
field X2 = (0, bumpp(x1))
"""

_FLAT_POINTS = [(-1, 0), (0, 0), (1, 0)]


def _flat_sampler(ctx, offset):
    # long, generous words: escaping the flat half-plane from x1=-1 needs
    # net leftward displacement beyond 1.25
    return ctx.sampler(offset, count=400, max_len=8, max_time=1.5)


def _lie_ranks(family, points):
    """The bracket-filtration ranks at the points at depth cap 8."""
    *_, (_, _, ranks) = word_vectors(family, field_values(family, points), points, 8)
    return tuple(ranks)


def _flat_chow(ctx):
    rep = chow_verdict(
        ctx.family, _FLAT_POINTS, 8, orbit_sampler=_flat_sampler(ctx, 20)
    )
    ok = (not rep.bracket_generating) and all(d == 2 for d in rep.sampled_orbit_dims)
    return _result(ok,
                   "bracket test not established at cap 8, yet sampled orbit "
                   "dimension is 2 at every failing sample",
                   f"bracket_generating={rep.bracket_generating}, "
                   f"orbit dims {rep.sampled_orbit_dims}")


def _flat_involutive(ctx):
    brackets = pairwise_brackets(ctx.family)
    points = _FLAT_POINTS + [(0.5, 0.5), (-0.5, 2.0)]
    values = field_values(ctx.family, points)
    witness = next(filter(None, pointwise_witnesses(values, brackets, points)), None)
    return _result(witness is None, "pointwise involutive at all samples",
                   f"involutive={witness is None}, witness={witness}")


def _flat_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _HALF_STEP_GRID,
                          orbit_sampler=_flat_sampler(ctx, 30))
    ok = (
        v.integrable == "no"
        and v.involutive_pointwise
        and (Fraction(0), Fraction(0)) in v.witnesses
    )
    return _result(ok,
                   "involutive but not integrable, with an orbit-rank witness "
                   "at the origin",
                   f"integrable={v.integrable}, involutive={v.involutive_pointwise}, "
                   f"origin witnessed={(Fraction(0), Fraction(0)) in v.witnesses}")


def _flat_generator_dependence(ctx):
    smooth = parse_system(_LINEAR_SHEAR)
    (flat_rank,) = _lie_ranks(ctx.family, [(0, 0)])
    (poly_rank,) = _lie_ranks(smooth.fields, [(0, 0)])
    return _result(flat_rank == 1 and poly_rank == 2,
                   "bracket rank at the origin: 1 for the flat generators, "
                   "2 for polynomial generators of a distribution agreeing "
                   "off the flat set",
                   f"flat={flat_rank}, polynomial={poly_rank}")


_register(
    "one-sided-flat",
    "flat (one-sided bump) second generator: full orbits despite deficient "
    "bracket rank; involutive but not integrable",
    _FLAT_SYSTEM,
    Fact("lie-ranks", "published",
         "bracket-filtration ranks at depth cap 8 are 1,1,2 at "
         "(-1,0),(0,0),(1,0)",
         _equals((1, 1, 2), lambda ctx: _lie_ranks(ctx.family, _FLAT_POINTS))),
    Fact("orbit-dims", "published",
         "sampled orbit dimension is 2 at all three points",
         _equals((2, 2, 2), lambda ctx: tuple(s.dimension for s in sampled_orbits(
             ctx.family, _FLAT_POINTS, [_flat_sampler(ctx, 10 + i) for i in range(3)])))),
    Fact("chow-gap", "published",
         "the bracket sufficiency test fails at the cap although the "
         "sampled orbits are full", _flat_chow),
    Fact("involutive", "published",
         "the pair is pointwise involutive", _flat_involutive),
    Fact("not-integrable", "published",
         "integrability verdict is 'no' with witness at the origin",
         _flat_frobenius),
    Fact("generator-dependence", "published",
         "bracket rank at the origin depends on the generators chosen "
         "for the same distribution off the flat set",
         _flat_generator_dependence),
)


_TWO_SIDED_FLAT = """\
system two-sided-flat dim 2
field X1 = (1, 0)
field X2 = (0, bump(x1))
"""


def _two_sided_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _HALF_STEP_GRID,
                          orbit_sampler=_flat_sampler(ctx, 40))
    ok = v.integrable == "no" and v.involutive_pointwise
    return _result(ok, "involutive but not integrable",
                   f"integrable={v.integrable}, involutive={v.involutive_pointwise}")


_register(
    "two-sided-flat",
    "the two-sided flat generator: bracket rank collapses only on x1=0",
    _TWO_SIDED_FLAT,
    Fact("lie-ranks", "published",
         "bracket ranks 2,1,2 at (-1,0),(0,0),(1,0) at depth cap 8",
         _equals((2, 1, 2), lambda ctx: _lie_ranks(ctx.family, _FLAT_POINTS))),
    Fact("not-integrable", "published",
         "involutive but not integrable", _two_sided_frobenius),
)


# ---------------------------------------------------------------------------
# polynomial shears: exact bracket regressions


_LINEAR_SHEAR = """\
system linear-shear dim 2
field X1 = (1, 0)
field X2 = (0, x1)
"""


def _linear_shear_rank(ctx):
    walk = list(word_vectors(ctx.family, field_values(ctx.family, [(0, 0)]), [(0, 0)]))
    ranks, filt = [rank for _, _, (rank,) in walk], walk[-1][0]
    ok = ranks[-1] == 2 and filt.stabilized_at == 2
    return _result(ok, "rank 2 at the origin, stable at depth 2",
                   f"ranks={ranks}, stabilized_at={filt.stabilized_at}")


_register(
    "linear-shear",
    "the bracket [d1, x1 d2] = d2 spans the missing direction",
    _LINEAR_SHEAR,
    Fact("bracket", "published", "[X1, X2] = (0, 1) exactly",
         _equals("(0, 1)", _first_bracket)),
    Fact("full-rank", "published",
         "bracket rank 2 everywhere, certified stable at depth 2",
         _linear_shear_rank),
    Fact("chow", "derived", "the sufficiency test passes at depth 2",
         _bracket_generating_at([(0, 0), (1, 1), (-2, 3)])),
)


_QUADRATIC_SHEAR = """\
system quadratic-shear dim 2
field X1 = (1, 0)
field X2 = (0, x1^2)
"""


def _quadratic_shear_brackets(ctx):
    b1 = lie_bracket(ctx.family[0], ctx.family[1])
    b2 = lie_bracket(ctx.family[0], b1)
    return (str(b1.components[1]), str(b2.components[1]))


_register(
    "quadratic-shear",
    "a depth-3 bracket is needed at the origin when the shear is quadratic",
    _QUADRATIC_SHEAR,
    Fact("brackets", "published",
         "[X1,X2] = 2 x1 d2 and [X1,[X1,X2]] = 2 d2 exactly",
         _equals(("2*x1", "2"), _quadratic_shear_brackets)),
)


# ---------------------------------------------------------------------------
# planar double integrator: closed-form steering


_DOUBLE_INTEGRATOR = """\
system double-integrator dim 2
field X0 = (x2, 0)
field X1 = (x2, 1)
"""


def steer_linear(start, target, T):
    """Two-piece steering for the planar double integrator x1' = x2,
    x2' = u: closed-form inputs u1 on [0, T/2] and u2 on [T/2, T] drive
    start to target in time T.  Returns (u1, u2, landing_error), the
    largest coordinate gap between the target and the point that the exact
    flow lands on."""
    if T == 0:
        raise ValueError("steering time T must be nonzero")
    x11, x12 = (float(v) for v in start)
    x21, x22 = (float(v) for v in target)
    T = float(T)
    u1 = (-3 * T * x12 - T * x22 - 4 * x11 + 4 * x21) / T**2
    u2 = (T * x12 + 3 * T * x22 + 4 * x11 - 4 * x21) / T**2
    x1, x2, t = x11, x12, T / 2.0
    for u in (u1, u2):
        # exact flow of the double integrator: x1 += t x2 + u t^2/2, x2 += u t
        x1, x2 = x1 + t * x2 + u * t * t / 2.0, x2 + u * t
    return u1, u2, max(abs(x1 - x21), abs(x2 - x22))


def _steer_to_corner(ctx):
    u1, u2, err = steer_linear((0, 0), (1, 1), 1.0)
    ok = abs(u1 - 3.0) < 1e-12 and abs(u2 + 1.0) < 1e-12 and err < 1e-8
    return _result(ok, "u1=3, u2=-1, landing error < 1e-8",
                   f"u1={u1}, u2={u2}, error={err:.2e}")


def _steer_loop(ctx):
    u1, u2, err = steer_linear((1, 1), (1, 1), 1.0)
    ok = (abs(u1) > 1e-9 or abs(u2) > 1e-9) and err < 1e-8
    return _result(ok, "a nonzero-input loop lands back within 1e-8",
                   f"u1={u1}, u2={u2}, error={err:.2e}")


_register(
    "double-integrator",
    "planar double integrator under two constant inputs: closed-form steering",
    _DOUBLE_INTEGRATOR,
    Fact("steer-corner", "published",
         "steering (0,0) to (1,1) in time 1 uses u1=3, u2=-1",
         _steer_to_corner),
    Fact("steer-loop", "derived",
         "the same formula produces nonzero loops", _steer_loop),
    Fact("chow", "derived",
         "the input family is bracket-generating at depth 2",
         _bracket_generating_at([(0, 0), (2, -1)])),
    Fact("fixed-time-full", "published",
         "fixed-time orbits are the whole plane: sampled dimension 2",
         _equals(2, lambda ctx: fixed_time_dimension(
             ctx.family, (0, 0), 1.0, ctx.sampler(4)).dimension)),
)


# ---------------------------------------------------------------------------
# partially defined translations


_HALF_PLANE = """\
system half-plane-translations dim 2
field X1 = (1, 0) on x1 < 1
field X2 = (0, 1) on x1 > -1
"""


def _half_plane_dims(ctx):
    r_out, r_in = sampled_orbits(ctx.family, [(2, 0), (0, 0)], [ctx.sampler(5), ctx.sampler(6)])
    ok = r_out.dimension == 1 and r_in.dimension == 2 and r_out.words_skipped > 0
    return _result(ok,
                   "orbit dimension 1 at (2,0) (with skipped words reported) "
                   "and 2 at (0,0)",
                   f"dims=({r_out.dimension},{r_in.dimension}), "
                   f"skipped at (2,0): {r_out.words_skipped}")


def _half_plane_singleton(ctx):
    rep = fixed_time_dimension(ctx.family, (3, 4), 0.0, ctx.sampler(7))
    disp = _zero_sum_change(ctx, rep, ctx.sampler(7), itemgetter(0), itemgetter(1))
    return _result(rep.dimension == 0 and disp < 1e-9,
                   "the zero-time orbit at (3,4) is a sampled singleton "
                   "(only the vertical field is defined there, and it "
                   "cancels exactly)",
                   f"dimension={rep.dimension}, displacement={disp:.2e}")


def _half_plane_diagonal(ctx):
    sampler = ctx.sampler(8, max_time=0.3)
    rep = fixed_time_dimension(ctx.family, (0, 0), 0.0, sampler)
    drift = _zero_sum_change(ctx, rep, sampler, compile_float(parse("x1+x2", 2)))
    return _result(rep.dimension == 1 and drift < 1e-8,
                   "zero-time orbits left of x1=1 are diagonal lines: "
                   "dimension 1 and x1+x2 preserved",
                   f"dimension={rep.dimension}, deviation={drift:.2e}")


_register(
    "half-plane-translations",
    "partially defined translations: orbit dimension drops where a field "
    "switches off",
    _HALF_PLANE,
    Fact("orbit-dims", "published",
         "orbits are a half-plane left of x1=1 and vertical lines from "
         "x1>=1", _half_plane_dims),
    Fact("frozen-point", "published",
         "zero-time orbits right of x1=1 are singletons",
         _half_plane_singleton),
    Fact("diagonal-lines", "derived",
         "zero-time orbits left of x1=1 are diagonal lines preserving "
         "x1+x2", _half_plane_diagonal),
)


# ---------------------------------------------------------------------------
# module involutivity: the vanishing pair and its mixed-degree cousin


_VANISHING_PAIR = """\
system vanishing-pair dim 2
field X1 = (x1^2+x2^2, 0)
field X2 = (0, x1^2+x2^2)
"""


def _pair_membership(ctx):
    b = lie_bracket(ctx.family[0], ctx.family[1])
    cert = member_bounded(b, ctx.family, 1)
    ok = cert.member and tuple(str(m) for m in cert.multipliers) == ("-2*x2", "2*x1")
    return _result(ok, "bracket = -2*x2 * X1 + 2*x1 * X2 (member at degree 1)",
                   str(cert))


def _pair_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _HALF_STEP_GRID, module_degree=1)
    ok = v.integrable == "yes" and v.module_involutive
    return _result(ok, "integrable via the module-involutivity certificate",
                   f"integrable={v.integrable}, clause: {v.clause}")


def _pair_minors(ctx):
    locus = singular_locus_minors(ctx.distribution)
    expected = str(parse("(x1^2+x2^2)^2", 2))
    got = [str(m) for m in locus.minors]
    ok = locus.generic_rank == 2 and got == [expected]
    return _result(ok, f"generic rank 2, single minor {expected}",
                   f"rank {locus.generic_rank}, minors {got}")


_register(
    "vanishing-pair",
    "both generators vanish at the origin yet the module stays involutive",
    _VANISHING_PAIR,
    Fact("bracket-member", "published",
         "the bracket lies in the generator module with degree-1 "
         "multipliers", _pair_membership),
    Fact("integrable", "published",
         "the integrability verdict is 'yes' via the module certificate",
         _pair_frobenius),
    Fact("singular-locus", "derived",
         "the singular locus is cut out by the squared radius",
         _pair_minors),
)


_MIXED_PAIR = """\
system mixed-degree-pair dim 2
field X1 = (x1^2+x2^2, 0)
field X2 = (0, x1^4+x2^4)
"""


def _mixed_membership(ctx):
    b = lie_bracket(ctx.family[0], ctx.family[1])
    cert = member_bounded(b, ctx.family, 8)
    return _result(not cert.member, "not a member up to degree 8", str(cert))


_register(
    "mixed-degree-pair",
    "same distribution, different generators: the module loses involutivity",
    _MIXED_PAIR,
    Fact("bracket-not-member", "published",
         "the bracket escapes the generator module at every multiplier "
         "degree up to 8", _mixed_membership),
)


# ---------------------------------------------------------------------------
# one-dimensional module pathology and the umbrella ideal


_FLAT_GENERATOR = """\
system flat-generator-module dim 1
field G1 = (x1)
field G2 = (x1^2)
"""


def _bad_generator(ctx):
    g1, g2 = ctx.family
    c1 = member_bounded(g1, [g2], 10)
    c2 = member_bounded(g2, [g1], 10)
    ok = (not c1.member) and c2.member and str(c2.multipliers[0]) == "x1"
    return _result(ok,
                   "x1 is not a multiple of x1^2 up to degree 10; x1^2 = x1 * x1",
                   f"{c1.verdict}; {c2}")


_register(
    "flat-generator-module",
    "a generator of the right span can still generate the wrong module",
    _FLAT_GENERATOR,
    Fact("membership", "published",
         "the linear section is outside the module of the quadratic "
         "generator", _bad_generator),
)


_UMBRELLA = """\
system umbrella-ideal dim 3
field U = (x3*(x1^2+x2^2) - x2^3, 0, 0)
"""


def _umbrella_checks(ctx):
    f = ctx.family[0].components[0]
    x1 = parse("x1", 3)
    c1 = ideal_member_bounded(x1, [f], 8)
    c2 = ideal_member_bounded(f, [f], 8)
    c3 = ideal_member_bounded(x1 * f, [f], 8)
    ok = (
        not c1.member
        and c2.member and str(c2.multipliers[0]) == "1"
        and c3.member and str(c3.multipliers[0]) == "x1"
    )
    return _result(ok,
                   "x1 outside the ideal up to degree 8; f and x1*f inside "
                   "with multipliers 1 and x1",
                   f"{c1.verdict}; {c2}; {c3}")


_register(
    "umbrella-ideal",
    "the umbrella surface's ideal refuses the plane section x1 = 0",
    _UMBRELLA,
    Fact("ideal-membership", "published",
         "degree-bounded ideal membership separates x1 from the "
         "umbrella polynomial", _umbrella_checks),
)


# ---------------------------------------------------------------------------
# integrability table: shear, plane, isolated leaf


_SHEAR3 = """\
system nonintegrable-shear dim 3
field X1 = (0, 1, 0)
field X2 = (1, 0, x2)
"""


def _shear3_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _UNIT_CUBE_GRID)
    ok = v.integrable == "no" and not v.involutive_pointwise
    return _result(ok, "not involutive anywhere, hence not integrable",
                   f"integrable={v.integrable}")


def _shear3_commutator(ctx):
    import numpy as np
    from .fields import apply_word
    t = 0.37
    word = [(0, t), (1, t), (0, -t), (1, -t)]
    landed = apply_word(ctx.family, word, (0.0, 0.0, 0.0))
    target = np.array([0.0, 0.0, t * t])
    err = float(np.max(np.abs(landed - target)))
    return _result(err < 1e-9,
                   "the commutator word reaches (0, 0, t^2)",
                   f"landed {tuple(np.round(landed, 12).tolist())}, error {err:.2e}")


def _shear3_chart(ctx):
    chart = flow_box_chart(ctx.distribution, (0, 0, 0))
    return _result(not chart.accepted,
                   "the flow-box chart at the origin is rejected",
                   f"accepted={chart.accepted}, residual={chart.max_residual:.3e}")


_register(
    "nonintegrable-shear",
    "a rank-2 plane field in R^3 whose bracket escapes: no integral "
    "manifolds at all",
    _SHEAR3,
    Fact("bracket", "derived", "[X1, X2] = (0, 0, 1) exactly",
         _equals("(0, 0, 1)", _first_bracket)),
    Fact("not-integrable", "published",
         "the verdict is 'no' by the involutivity clause",
         _shear3_frobenius),
    Fact("commutator-word", "published",
         "the forward-forward-backward-backward word climbs to height "
         "t^2", _shear3_commutator),
    Fact("chart-rejected", "derived",
         "no accepted flow-box chart exists at the origin",
         _shear3_chart),
)


_PLANE3 = """\
system coordinate-plane dim 3
field X1 = (1, 0, 0)
field X2 = (0, 1, 0)
"""


def _plane_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _UNIT_CUBE_GRID)
    chart = flow_box_chart(ctx.distribution, (0, 0, 0))
    ok = v.integrable == "yes" and chart.accepted and chart.max_residual < 1e-9
    return _result(ok, "integrable, chart accepted with residual < 1e-9",
                   f"integrable={v.integrable}, residual={chart.max_residual:.2e}")


_register(
    "coordinate-plane",
    "two commuting translations: the model integrable plane field",
    _PLANE3,
    Fact("integrable", "published",
         "constant rank 2 and involutive: integrable with an exact chart",
         _plane_frobenius),
)


_ISOLATED = """\
system isolated-leaf dim 3
field X1 = (x1*x3, 1, 0)
field X2 = (0, 0, 1)
"""


def _isolated_frobenius(ctx):
    v = frobenius_verdict(ctx.distribution, _UNIT_CUBE_GRID)
    ok = (
        v.integrable == "no"
        and all(p[0] != 0 for p in v.witnesses)
        and all(p[0] == 0 for p in v.invariant_slice_samples)
        and len(v.invariant_slice_samples) == 9
    )
    return _result(ok,
                   "not integrable off x1=0; involutivity holds exactly on "
                   "the x1=0 slice samples",
                   f"integrable={v.integrable}, witnesses off slice="
                   f"{all(p[0] != 0 for p in v.witnesses)}, "
                   f"slice samples={len(v.invariant_slice_samples)}")


def _isolated_charts(ctx):
    on_slice = flow_box_chart(ctx.distribution, (0, 0, 0))
    off_slice = flow_box_chart(ctx.distribution, (Fraction(1, 2), 0, 0))
    ok = on_slice.accepted and not off_slice.accepted
    return _result(ok, "chart accepted on the slice, rejected off it",
                   f"on={on_slice.accepted}, off={off_slice.accepted}")


_register(
    "isolated-leaf",
    "one isolated integral surface: the slice x1=0 survives, nothing else",
    _ISOLATED,
    Fact("bracket", "published", "[X1, X2] = (-x1, 0, 0) exactly",
         _equals("(-x1, 0, 0)", _first_bracket)),
    Fact("slice-verdict", "published",
         "not integrable off x1=0, with the slice reported as the "
         "surviving invariant set", _isolated_frobenius),
    Fact("charts", "derived",
         "flow-box charts certify exactly the slice", _isolated_charts),
)


def run_preset(name, seed=0):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    preset = PRESETS[name]
    ctx = PresetContext(preset, seed)
    results = tuple((fact, fact.check(ctx)) for fact in preset.facts)
    return PresetRun(name, seed, results)
