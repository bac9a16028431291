"""Vector fields on R^n, possibly defined only on an open box-like domain,
and their exact layer, which loads no numpy: ``lie_bracket`` (on exponent
dicts for polynomial fields, on ``expr.sum_products`` otherwise), and
``field_values`` and ``field_evaluators``, each field's value (exact where
it can be) at many points, the field compiled once per call.  Flows, and
``value_float`` with them, are in ``fields``."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .expr import (Expr, compile_exact, compile_float, poly_coeff_dict, poly_from_coeff_dict,
                   sum_products)

__all__ = ["DomainPredicate", "VectorField", "FlowError", "DomainExitError", "IntegrationError",
           "lie_bracket", "field_values", "field_evaluators", "point_text"]


class FlowError(Exception):
    """A flow that failed.  ``step`` is the index of the failing step when the
    failure happened in a word walk, and None otherwise."""

    step = None


class DomainExitError(FlowError):
    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class IntegrationError(FlowError):
    pass


@dataclass(frozen=True)
class DomainPredicate:
    """Conjunction of strict one-variable inequalities; empty means all of R^n.

    Each bound b keeps its float form: f = float(b) (an infinity beyond the
    float range) and whether f < b.  No float lies strictly between b and
    f, so ``contains`` decides v < b for a Python float v exactly as v < f,
    or v == f when f < b (likewise for ">"), building no Fraction; other
    coordinates compare with b exactly.  ODE domain events cross at f.
    """

    constraints: Tuple[Tuple[int, str, Fraction], ...] = ()

    def __post_init__(self):
        floats = []
        for index, rel, bound in self.constraints:
            if rel not in ("<", ">"):
                raise ValueError(f"bad relation {rel!r}")
            if index < 1:
                raise ValueError("constraint variable indices are 1-based")
            try:
                f = float(bound)
            except OverflowError:
                f = math.inf if bound > 0 else -math.inf
            below = rel == "<"
            floats.append((index - 1, below, bound, f, f < bound if below else f > bound))
        object.__setattr__(self, "_float_form", tuple(floats))

    @property
    def is_full(self):
        return not self.constraints

    def contains(self, point):
        for i, below, bound, f, f_inside in self._float_form:
            v = point[i]
            if type(v) is float:
                inside = (v < f if below else v > f) or (f_inside and v == f)
            else:
                inside = v < bound if below else v > bound
            if not inside:
                return False
        return True

    def intersect(self, other):
        merged = tuple(dict.fromkeys(self.constraints + other.constraints))
        return DomainPredicate(merged)

    def __str__(self):
        if self.is_full:
            return "R^n"
        return " and ".join(f"x{i} {rel} {bound}" for i, rel, bound in self.constraints)


@dataclass(frozen=True)
class VectorField:
    name: str
    components: Tuple[Expr, ...]
    domain: DomainPredicate = DomainPredicate()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for index, _, _ in self.domain.constraints:
            if index > self.dim:
                raise ValueError(f"domain constraint on x{index} exceeds dimension")

    def __hash__(self):
        # computed once, as Expr keeps its own: every flow step looks its
        # field up in the ``_flow_kind`` cache
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.components, self.domain))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def dim(self):
        return len(self.components)

    def is_polynomial(self):
        return all(c.is_polynomial() for c in self.components)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __str__(self):
        comps = ", ".join(str(c) for c in self.components)
        body = f"{self.name} = ({comps})"
        if not self.domain.is_full:
            body += f" on {self.domain}"
        return body


def lie_bracket(X, Y):
    """[X, Y] in coordinates, with the intersected domain:
    [X, Y]_i = sum_j X_j d_j Y_i - Y_j d_j X_i.  When both fields are
    polynomial this sum runs on exponent-tuple -> coefficient views
    (``poly_coeff_dict``), otherwise on ``sum_products``, which skips the
    products whose multiplier X_j or Y_j is zero; either way each component
    becomes one canonical Expr, sorted once at the end."""
    if X.dim != Y.dim:
        raise ValueError("bracket of fields of different dimensions")
    n = X.dim
    xs, ys = X.components, Y.components
    if X.is_polynomial() and Y.is_polynomial():
        comps = _poly_bracket(xs, ys, n)
    else:
        comps = tuple(
            sum_products([(xs[j], ys[i].diff(j + 1)) for j in range(n) if xs[j].terms]
                         + [(-ys[j], xs[i].diff(j + 1)) for j in range(n) if ys[j].terms])
            for i in range(n))
    return VectorField(f"[{X.name},{Y.name}]", comps, X.domain.intersect(Y.domain))


def _poly_bracket(xs, ys, n):
    """The components of [X, Y] for polynomial components xs and ys."""
    nv = max([n] + [c.max_var() for c in xs + ys])
    X = [_int_view(c, nv) for c in xs]
    Y = [_int_view(c, nv) for c in ys]
    comps = []
    for i in range(n):
        acc = {}
        for j in range(n):
            _add_product(acc, X[j], _partial(Y[i], j, 1))
            _add_product(acc, Y[j], _partial(X[i], j, -1))
        comps.append(poly_from_coeff_dict(acc, nv))
    return tuple(comps)


def _int_view(e, n):
    """``poly_coeff_dict`` with integral coefficients as ints, whose
    products cost far less than Fraction products."""
    return {m: c.numerator if c.denominator == 1 else c
            for m, c in poly_coeff_dict(e, n).items()}


def _partial(d, j, sign):
    """sign * d/dx_(j+1) of an exponent-tuple -> coefficient map."""
    out = {}
    for mono, c in d.items():
        k = mono[j]
        if k:
            out[mono[:j] + (k - 1,) + mono[j + 1:]] = c * (sign * k)
    return out


def _add_product(acc, a, b):
    """acc += a * b, all exponent-tuple -> coefficient maps."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(operator.add, ma, mb))
            acc[m] = acc.get(m, 0) + ca * cb


def _compile_value(X):
    """X's value: Fractions when every component is exact at the point,
    else floats.  The components are compiled once: exactly at the first
    rational point, to floats at the first point that needs them."""
    exact, floats = [], []

    def value(point):
        vals = [None] * X.dim
        if all(isinstance(v, (int, Fraction)) for v in point):
            if not exact:
                exact.extend(compile_exact(c) for c in X.components)
            vals = [f(point) for f in exact]
            if None not in vals:
                return vals
        if not floats:
            floats.extend(compile_float(c) for c in X.components)
        pt = [float(v) for v in point]
        return [f(pt) if v is None else float(v) for f, v in zip(floats, vals)]

    return value


def field_evaluators(fields):
    """Per field, a function from a point to the field's value there
    (None outside its domain), the field compiled once however many points
    it is called at."""
    def evaluator(X):
        inside, value = X.domain.contains, _compile_value(X)
        return lambda p: value(p) if inside(p) else None

    return [evaluator(X) for X in fields]


def point_text(point):
    """The point as the CLI reads it, for error texts: (1/2, -1, 0.25)."""
    return f"({', '.join(map(str, point))})"


def field_values(fields, points):
    """Per point, each field's value there (None outside its domain),
    each field compiled once; a point of another dimension raises ValueError."""
    evaluators = field_evaluators(fields)
    for p in points:
        if fields and len(p) != fields[0].dim:
            raise ValueError(f"a point has {len(p)} coordinates, the fields have {fields[0].dim}")
    return [[f(p) for f in evaluators] for p in points]
