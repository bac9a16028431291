"""Degree-bounded membership in modules generated by polynomial vector fields.

A target lies in the module when polynomial multipliers m_i with
sum_i m_i * g_i = target exist.  We search multipliers of total degree <= d
by solving the exact linear system over the rationals that matching
monomial coefficients produces.  A refutation is only "up to degree d":
it never claims non-membership at all degrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import Expr, ZERO, poly_coeff_dict, poly_from_coeff_dict
from .fields import VectorField
from .linalg import exact_solve

__all__ = [
    "MembershipError",
    "MembershipCertificate",
    "member_bounded",
    "ideal_member_bounded",
    "module_contained_bounded",
]

DEGREE_CAP = 12
# Unknowns (generators x multiplier monomials) of one membership system.
UNKNOWNS_CAP = 4_000


class MembershipError(Exception):
    pass


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


def member_bounded(target, generators, degree):
    """Search for multipliers of total degree <= degree; exact verdict.

    ``target`` and every generator may be a VectorField or a plain tuple of
    expressions of equal length (scalars count as length one).
    """
    if degree < 0 or degree > DEGREE_CAP:
        raise MembershipError(f"degree bound {degree} outside [0, {DEGREE_CAP}]")
    tgt = _components(target)
    gens = [_components(g) for g in generators]
    if not gens:
        raise MembershipError("no generators given")
    ncomp = len(tgt)
    for g in gens:
        if len(g) != ncomp:
            raise MembershipError("component count mismatch")
    _require_polynomial(tgt, "target")
    for g in gens:
        _require_polynomial(g, "generators")

    n = max(
        [c.max_var() for c in tgt]
        + [c.max_var() for g in gens for c in g]
        + [1]
    )
    if all(c.is_zero() for c in tgt):
        zero_mults = tuple(ZERO for _ in gens)
        return MembershipCertificate(True, degree, zero_mults)

    unknowns = len(gens) * math.comb(n + degree, degree)
    if unknowns > UNKNOWNS_CAP:
        raise MembershipError(
            f"membership system has {unknowns} unknowns, more than {UNKNOWNS_CAP}"
        )
    monos = _monomials_up_to(n, degree)
    unknown_index = {}
    for gi in range(len(gens)):
        for mono in monos:
            unknown_index[(gi, mono)] = len(unknown_index)

    # one sparse equation {unknown: coefficient} per (component, monomial of
    # the expanded products), with the target's coefficient on the right
    rows = {}
    for gi, g in enumerate(gens):
        for comp in range(ncomp):
            for gmono, gc in poly_coeff_dict(g[comp], n).items():
                for mmono in monos:
                    prod = tuple(a + b for a, b in zip(gmono, mmono))
                    rows.setdefault((comp, prod), {})[unknown_index[(gi, mmono)]] = gc
    target = {
        (comp, mono): tc
        for comp in range(ncomp)
        for mono, tc in poly_coeff_dict(tgt[comp], n).items()
    }
    for key in target:
        rows.setdefault(key, {})  # no multiplier produces it: 0 = coefficient
    solution = exact_solve(list(rows.values()), [target.get(key, 0) for key in rows])
    if solution is None:
        return MembershipCertificate(False, degree)

    multipliers = []
    for gi in range(len(gens)):
        coeffs = {
            mono: solution[unknown_index[(gi, mono)]]
            for mono in monos
            if unknown_index[(gi, mono)] in solution
        }
        multipliers.append(poly_from_coeff_dict(coeffs, n))
    cert = MembershipCertificate(True, degree, tuple(multipliers))
    _verify(cert, tgt, gens)
    return cert


def _verify(cert, tgt, gens):
    for comp in range(len(tgt)):
        acc = ZERO
        for m, g in zip(cert.multipliers, gens):
            acc = acc + m * g[comp]
        if acc != tgt[comp]:
            raise MembershipError("certificate failed symbolic re-verification")


def ideal_member_bounded(target, generators, degree):
    """Scalar specialization: membership of target in the ideal <generators>."""
    return member_bounded((target,), [(g,) for g in generators], degree)


def module_contained_bounded(A, B, degree):
    """True when every field of A is a degree-bounded member of the module <B>."""
    return all(member_bounded(a, list(B), degree).member for a in A)
