"""Degree-bounded membership in modules generated by polynomial vector fields.

A target lies in the module when polynomial multipliers m_i with
sum_i m_i * g_i = target exist.  We search multipliers of total degree <= d
by solving the exact linear system over the rationals that matching
monomial coefficients produces.  A refutation is only "up to degree d":
it never claims non-membership at all degrees.

Many targets against one generator set are one solve, read two ways:
``members_bounded`` gives a certificate per target, with every member's
multipliers built and re-verified symbolically; ``module_contains`` only
says whether every target is a member, builds no multipliers for a "no"
and re-verifies every target's multipliers before a "yes".  That solve
alone decides whether a system is too large: it raises OversizeError,
naming the count, before any monomial is enumerated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import Expr, poly_coeff_dict, poly_from_coeff_dict, sum_products
from .vectorfield import VectorField
from .linalg import exact_solve

__all__ = [
    "MembershipError",
    "OversizeError",
    "MembershipCertificate",
    "member_bounded",
    "members_bounded",
    "module_contains",
    "ideal_member_bounded",
]

DEGREE_CAP = 12
# Unknowns (generators x multiplier monomials) of one membership system.
UNKNOWNS_CAP = 4_000


class MembershipError(Exception):
    pass


class OversizeError(MembershipError):
    """A system with more than ``UNKNOWNS_CAP`` unknowns, raised by the solve
    before any monomial is enumerated; its text names the count."""


@dataclass(frozen=True)
class MembershipCertificate:
    """Either ``member`` with verified multipliers or a bounded refutation."""

    member: bool
    degree: int
    multipliers: Optional[Tuple[Expr, ...]] = None

    @property
    def verdict(self):
        if self.member:
            return "member"
        return f"not-member-up-to-degree({self.degree})"

    def __str__(self):
        if self.member:
            mults = ", ".join(str(m) for m in self.multipliers)
            return f"member (multipliers: {mults})"
        return self.verdict


def _monomials_up_to(n, d):
    out = []
    for total in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            mono = [0] * n
            for j in combo:
                mono[j] += 1
            out.append(tuple(mono))
    return out


def _components(obj):
    if isinstance(obj, VectorField):
        return obj.components
    if isinstance(obj, Expr):
        return (obj,)
    return tuple(obj)


def _require_polynomial(components, what):
    for c in components:
        if not c.is_polynomial():
            raise MembershipError(
                f"{what} must be polynomial; flat (bump) or divided components "
                "are outside the scope of the membership test"
            )


def _solve(targets, generators, degree):
    """The one exact solve behind ``members_bounded`` and
    ``module_contains``: (target components, generator components, the
    solutions, one per target or None, and the multiplier monomials and
    variable count that ``_multipliers`` reads a solution with)."""
    if degree < 0 or degree > DEGREE_CAP:
        raise MembershipError(f"degree bound {degree} outside [0, {DEGREE_CAP}]")
    tgts = [_components(t) for t in targets]
    gens = [_components(g) for g in generators]
    if not gens:
        raise MembershipError("no generators given")
    ncomp = len(gens[0])
    if any(len(c) != ncomp for c in tgts + gens):
        raise MembershipError("component count mismatch")
    for t in tgts:
        _require_polynomial(t, "target")
    for g in gens:
        _require_polynomial(g, "generators")

    n = max([c.max_var() for f in tgts + gens for c in f] + [1])
    if all(c.is_zero() for t in tgts for c in t):
        return tgts, gens, [{} for _ in tgts], [], n

    unknowns = len(gens) * math.comb(n + degree, degree)
    if unknowns > UNKNOWNS_CAP:
        raise OversizeError(f"membership system has {unknowns} unknowns, more than {UNKNOWNS_CAP}")
    monos = _monomials_up_to(n, degree)

    # one sparse equation {unknown: coefficient} per (component, monomial of
    # the expanded products), with each target's coefficient on the right;
    # unknown gi * len(monos) + j is the coefficient of monos[j] in m_gi
    rows = {}
    for gi, g in enumerate(gens):
        for comp in range(ncomp):
            for gmono, gc in poly_coeff_dict(g[comp], n).items():
                if gc.denominator == 1:
                    gc = gc.numerator  # an int cell costs less to read
                for k, mmono in enumerate(monos, gi * len(monos)):
                    prod = tuple(map(operator.add, gmono, mmono))
                    rows.setdefault((comp, prod), {})[k] = gc
    sides = [
        {
            (comp, mono): tc
            for comp in range(ncomp)
            for mono, tc in poly_coeff_dict(t[comp], n).items()
        }
        for t in tgts
    ]
    for side in sides:
        for key in side:
            rows.setdefault(key, {})  # no multiplier produces it: 0 = coefficient
    solutions = exact_solve(
        list(rows.values()), [[side.get(key, 0) for key in rows] for side in sides]
    )
    return tgts, gens, solutions, monos, n


def _multipliers(x, monos, n, ngens):
    """The generators' multipliers of a solution {unknown: value}."""
    return tuple(
        poly_from_coeff_dict(
            {m: x[k] for k, m in enumerate(monos, gi * len(monos)) if k in x}, n
        )
        for gi in range(ngens)
    )


def members_bounded(targets, generators, degree):
    """Search multipliers of total degree <= degree for each target; one
    exact verdict per target, in order.

    Every target and generator may be a VectorField or a plain tuple of
    expressions of equal length (scalars count as length one).  The
    generators' system is built, and its size checked, once: each target
    is one more right-hand side of a single elimination.  Every member's
    multipliers are built and re-verified symbolically.
    """
    tgts, gens, solutions, monos, n = _solve(targets, generators, degree)
    certs = []
    for tgt, x in zip(tgts, solutions):
        if x is None:
            certs.append(MembershipCertificate(False, degree))
            continue
        multipliers = _multipliers(x, monos, n, len(gens))
        _verify(multipliers, tgt, gens)
        certs.append(MembershipCertificate(True, degree, multipliers))
    return certs


def module_contains(targets, generators, degree):
    """Whether every target is a member, with multipliers of total degree
    <= degree: the same one solve as ``members_bounded``.  A "no" returns
    False as soon as one target has no solution and builds no multipliers;
    a "yes" builds and re-verifies every target's multipliers first."""
    tgts, gens, solutions, monos, n = _solve(targets, generators, degree)
    if any(x is None for x in solutions):
        return False
    for tgt, x in zip(tgts, solutions):
        _verify(_multipliers(x, monos, n, len(gens)), tgt, gens)
    return True


def member_bounded(target, generators, degree):
    """The one-target case of ``members_bounded``."""
    return members_bounded([target], generators, degree)[0]


def _verify(multipliers, tgt, gens):
    for comp in range(len(tgt)):
        if sum_products((m, g[comp]) for m, g in zip(multipliers, gens)) != tgt[comp]:
            raise MembershipError("certificate failed symbolic re-verification")


def ideal_member_bounded(target, generators, degree):
    """Scalar specialization: membership of target in the ideal <generators>."""
    return member_bounded((target,), [(g,) for g in generators], degree)

