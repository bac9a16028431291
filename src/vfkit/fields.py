"""Vector fields on R^n, possibly defined only on an open box-like domain.

Flows take a closed-form fast path whenever the field allows it:

* fields constant along their own integral curves (L_X X = 0 symbolically)
  flow in straight lines,
* affine fields x' = A x + b flow by a matrix exponential,
* everything else goes through an adaptive Runge-Kutta integration at
  relative tolerance 1e-10.

Tangent vectors are pushed forward along flow words by transporting them
with the exact Jacobian of each step (closed form where the flow is closed
form, otherwise the variational equation dV/dt = DX(x(t)) V integrated
jointly with the trajectory).  Several fields are pushed forward along one
word together: the word is walked once and their values, stacked as the
columns of an n x k matrix V, are transported in that single walk.  A
k-column variational solve scales rtol and atol by sqrt(2 / (k + 1)), so
each component keeps the error bound of a one-column solve.

A field's flow kind is detected once, and its value and Jacobian are
compiled once (``expr.compile_float``, same log-space semantics) in the
same ``_flow_kind`` entry; flow steps and ODE right-hand sides call them.

The relative tolerance ``DEFAULT_RTOL`` and the bounding box ``DEFAULT_BOX``
(every coordinate stays within 1e6 in absolute value) are module constants,
not per-call options.  Words are walked step by step in one place, which
sets ``.step`` on the error of a failing step to that step's index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .expr import Expr, ZERO, compile_float, const, poly_coeff_dict

__all__ = [
    "DomainPredicate",
    "VectorField",
    "FlowError",
    "DomainExitError",
    "IntegrationError",
    "lie_bracket",
    "flow",
    "apply_word",
    "pushforward_along_word",
    "scale_field",
    "add_fields",
    "multiply_field",
    "jacobian_exprs",
]

DEFAULT_BOX = 1e6
DEFAULT_RTOL = 1e-10


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
    """Conjunction of strict one-variable inequalities; empty means all of R^n."""

    constraints: Tuple[Tuple[int, str, Fraction], ...] = ()

    def __post_init__(self):
        for index, rel, _ in self.constraints:
            if rel not in ("<", ">"):
                raise ValueError(f"bad relation {rel!r}")
            if index < 1:
                raise ValueError("constraint variable indices are 1-based")

    @property
    def is_full(self):
        return not self.constraints

    def contains(self, point):
        for index, rel, bound in self.constraints:
            v = point[index - 1]
            if rel == "<" and not v < bound:
                return False
            if rel == ">" and not v > bound:
                return False
        return True

    def intersect(self, other):
        merged = tuple(dict.fromkeys(self.constraints + other.constraints))
        return DomainPredicate(merged)

    def __str__(self):
        if self.is_full:
            return "R^n"
        return " and ".join(f"x{i} {rel} {bound}" for i, rel, bound in self.constraints)


FULL_DOMAIN = DomainPredicate()


@dataclass(frozen=True)
class VectorField:
    name: str
    components: Tuple[Expr, ...]
    domain: DomainPredicate = FULL_DOMAIN

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

    def value(self, point):
        """Value at a point: Fractions when exactly evaluable, else floats."""
        vals = [c.eval(point) for c in self.components]
        if all(isinstance(v, (int, Fraction)) for v in vals):
            return vals
        return [float(v) for v in vals]

    def value_float(self, point):
        return _flow_kind(self).value(point)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __str__(self):
        comps = ", ".join(str(c) for c in self.components)
        body = f"{self.name} = ({comps})"
        if not self.domain.is_full:
            body += f" on {self.domain}"
        return body


def _as_steps(word):
    return tuple((int(i), float(t)) for i, t in word)


def lie_bracket(X, Y, name=None):
    """[X, Y] in coordinates, with the intersected domain."""
    if X.dim != Y.dim:
        raise ValueError("bracket of fields of different dimensions")
    n = X.dim
    comps = []
    for i in range(n):
        acc = ZERO
        for j in range(n):
            acc = acc + X.components[j] * Y.components[i].diff(j + 1)
            acc = acc - Y.components[j] * X.components[i].diff(j + 1)
        comps.append(acc)
    return VectorField(
        name or f"[{X.name},{Y.name}]",
        tuple(comps),
        X.domain.intersect(Y.domain),
    )


def scale_field(c, X, name=None):
    c = Fraction(c)
    return VectorField(
        name or f"{c}*{X.name}",
        tuple(const(c) * comp for comp in X.components),
        X.domain,
    )


def add_fields(X, Y, name=None):
    if X.dim != Y.dim:
        raise ValueError("sum of fields of different dimensions")
    return VectorField(
        name or f"{X.name}+{Y.name}",
        tuple(a + b for a, b in zip(X.components, Y.components)),
        X.domain.intersect(Y.domain),
    )


def multiply_field(f, X, name=None):
    """Scalar-function multiple f*X (module action)."""
    return VectorField(
        name or f"f*{X.name}",
        tuple(f * comp for comp in X.components),
        X.domain,
    )


# -- flow kind detection ----------------------------------------------------------


@lru_cache(maxsize=None)
def jacobian_exprs(X):
    return tuple(
        tuple(X.components[i].diff(j + 1) for j in range(X.dim)) for i in range(X.dim)
    )


class _Flow(NamedTuple):
    kind: str  # "straight" | "affine" | "ode"
    value: Callable  # point -> X(point), a float vector
    jacobian: Callable  # point -> DX(point), a float n x n matrix
    eye: np.ndarray  # n x n identity, for the straight step's Jacobian
    M: Optional[np.ndarray] = None  # affine x' = Ax + b: [[A, b], [0, 0]]
    diagonal: bool = False  # affine: whether A is diagonal


def _floats(point):
    if isinstance(point, np.ndarray) and point.dtype == float:
        return point.tolist()
    return [float(v) for v in point]


@lru_cache(maxsize=None)
def _flow_kind(X):
    """X's flow kind, detected symbolically, and X's value and Jacobian
    compiled once into functions that convert the point to floats once."""
    J = jacobian_exprs(X)
    n = X.dim
    comps = tuple(compile_float(c) for c in X.components)
    rows = tuple(tuple(compile_float(e) for e in row) for row in J)

    def value(point):
        pt = _floats(point)
        return np.array([f(pt) for f in comps], dtype=float)

    def jacobian(point):
        pt = _floats(point)
        return np.array([[f(pt) for f in row] for row in rows], dtype=float)

    eye = np.eye(n)
    eye.flags.writeable = False
    # straight lines: the field is constant along its own integral curves
    if all(
        sum((X.components[j] * J[i][j] for j in range(n)), ZERO).is_zero()
        for i in range(n)
    ):
        return _Flow("straight", value, jacobian, eye)
    if all(c.is_polynomial() and c.total_degree() <= 1 for c in X.components):
        A = [[Fraction(0)] * n for _ in range(n)]
        b = [Fraction(0)] * n
        for i, comp in enumerate(X.components):
            for mono, c in poly_coeff_dict(comp, n).items():
                deg = sum(mono)
                if deg == 0:
                    b[i] = c
                else:
                    j = mono.index(1)
                    A[i][j] = c
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = np.array(A, dtype=float)
        M[:n, n] = np.array(b, dtype=float)
        M.flags.writeable = False
        diagonal = all(A[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        return _Flow("affine", value, jacobian, eye, M, diagonal)
    return _Flow("ode", value, jacobian, eye)


def _affine_maps(M, t):
    n = M.shape[0] - 1
    E = expm(M * t)
    return E[:n, :n], E[:n, n]


def _check_domain_endpoint(X, s, point):
    if not X.domain.contains(point):
        raise DomainExitError(f"trajectory of {X.name} left its domain", exit_time=s)


def _check_box(p):
    if np.abs(p).max() > DEFAULT_BOX:
        raise IntegrationError("trajectory escaped the bounding box")


def _flow_step(X, t, p, v=None):
    """Advance p by the time-t flow of X; optionally transport v, an
    n x k matrix whose columns are tangent vectors at p."""
    p = np.asarray(p, dtype=float)
    if not X.domain.contains(p):
        raise DomainExitError(f"start point outside the domain of {X.name}", exit_time=0.0)
    if t == 0.0:
        return (p.copy(), None if v is None else np.array(v, dtype=float))
    kind = _flow_kind(X)
    if kind.kind == "straight":
        end = p + t * kind.value(p)
        _check_domain_endpoint(X, t, end)
        _check_box(end)
        if v is None:
            return end, None
        J = kind.eye + t * kind.jacobian(p)
        return end, J @ np.asarray(v, dtype=float)
    if kind.kind == "affine":
        M, diagonal = kind.M, kind.diagonal
        E, c = _affine_maps(M, t)
        end = E @ p + c
        if not X.domain.is_full:
            if diagonal:
                _check_domain_endpoint(X, t, end)
            else:
                for k in range(1, 17):
                    s = t * k / 16.0
                    Es, cs = _affine_maps(M, s)
                    _check_domain_endpoint(X, s, Es @ p + cs)
        _check_box(end)
        if v is None:
            return end, None
        return end, E @ np.asarray(v, dtype=float)
    return _flow_step_ode(X, kind, t, p, v)


MAX_RHS_EVALS = 50_000


def _flow_step_ode(X, kind, t, p, v):
    n = X.dim
    value, jacobian = kind.value, kind.jacobian
    transport = v is not None
    rtol, atol = DEFAULT_RTOL, 1e-12
    if transport:
        # RK45 bounds the RMS of the scaled errors over all n (k + 1) state
        # components; shrink both tolerances so that each component keeps
        # the worst case it has in a one-column (2n-component) solve.
        scale = np.sqrt(2.0 / (v.shape[1] + 1))
        rtol, atol = rtol * scale, atol * scale
    evals = [0]

    def rhs(_, y):
        evals[0] += 1
        if evals[0] > MAX_RHS_EVALS:
            raise IntegrationError(
                "integration budget exceeded (likely finite-time blow-up)"
            )
        x = y[:n]
        out = np.empty_like(y)
        out[:n] = value(x)
        if transport:
            out[n:] = (jacobian(x) @ y[n:].reshape(v.shape)).ravel()
        return out

    def domain_event(index, bound):
        def ev(_, y):
            return y[index - 1] - bound

        ev.terminal = True
        return ev

    events = [domain_event(i, float(b)) for i, _, b in X.domain.constraints]
    y0 = np.concatenate([p, v.ravel()]) if transport else p.copy()
    sol = solve_ivp(
        rhs,
        (0.0, t),
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        events=events or None,
        dense_output=False,
    )
    if sol.status == 1:
        hit = min(
            (te[0] for te in sol.t_events if len(te)), default=None, key=abs
        )
        raise DomainExitError(f"trajectory of {X.name} left its domain", exit_time=hit)
    if sol.status != 0:
        raise IntegrationError(f"integrator failed: {sol.message}")
    _check_box(sol.y[:n])
    yT = sol.y[:, -1]
    if transport:
        return yT[:n], yT[n:].reshape(v.shape)
    return yT, None


def _walk(family, steps, p, V=None):
    """Flow p through the steps, transporting V when given; a failing step's
    error gets the step's index as ``step``."""
    p = np.asarray(p, dtype=float)
    for k, (i, t) in enumerate(steps):
        try:
            p, V = _flow_step(family[i], t, p, V)
        except FlowError as err:
            err.step = k
            raise
    return p, V


def flow(X, t, point):
    """Flow the point for time t along X.  Raises on domain exit or blow-up."""
    end, _ = _flow_step(X, float(t), point)
    return end


def apply_word(family, word, point):
    """Apply a flow word left to right: step k flows along family[i_k]."""
    return _walk(family, _as_steps(word), point)[0]


def pushforward_along_word(family, word, X, point):
    """Pushforward of X under the word's composite diffeomorphism, at point.

    Walks back to y = Phi^{-1}(point), stacks the values at y of the
    requested fields as the columns of an n x k matrix V, and transports V
    forward through every step with the step's exact flow Jacobian, so the
    word is walked once whatever k is.

    X is one field, giving one vector (DomainExitError when X is undefined
    at y), or a sequence of fields, giving one vector per field, with None
    for a field undefined at y.  A failing step raises FlowError with
    ``step`` set, whatever the number of fields; a failure of the walk back
    carries its index in that walk.
    """
    single = isinstance(X, VectorField)
    fields = (X,) if single else tuple(X)
    steps = _as_steps(word)
    inverse = tuple((i, -t) for i, t in reversed(steps))
    y, _ = _walk(family, inverse, point)
    defined = [F.domain.contains(y) for F in fields]
    if single and not defined[0]:
        raise DomainExitError(f"{X.name} is undefined at the pulled-back point")
    if not any(defined):
        return [None] * len(fields)
    V = np.column_stack([F.value_float(y) for F, ok in zip(fields, defined) if ok])
    p, V = _walk(family, steps, y, V)
    drift = np.max(np.abs(p - np.asarray(point, dtype=float)))
    if drift > 1e-6 * (1.0 + np.max(np.abs(point))):
        raise IntegrationError(f"round-trip drift {drift:.2e} exceeds tolerance")
    columns = iter(V.T)
    pushed = [next(columns) if ok else None for ok in defined]
    return pushed[0] if single else pushed
