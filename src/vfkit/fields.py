"""Flows of vector fields: the flow layer, on numpy.

The fields, their brackets and exact values are in ``vectorfield``, which
loads no numpy; ``lie_bracket`` is also served from here.

Flows take a closed-form fast path only where the flow is exact and its
end point alone decides whether it left the field's domain:

* fields constant along their own integral curves (L_X X = 0 symbolically)
  flow in straight lines, monotone in each coordinate,
* affine fields x' = A x + b flow by a matrix exponential when they scale
  (A diagonal, b = 0: each coordinate moves monotonically) on any domain, or
  when the zero pattern of M = [[A, b], [0, 0]] has no cycle, so M is
  nilpotent (strictly triangular in some order of the coordinates), on all
  of R^n,
* everything else, every other affine field included, goes through
  ``solve_ivp``, this module's Dormand-Prince 5(4) integrator, at relative
  tolerance 1e-10, which locates a domain exit at every accepted step.

Tangent vectors are pushed forward along a flow word in one walk: its
inverse is walked back from x to y, carrying the n x n identity through the
exact Jacobian of each step (closed form where the flow is, otherwise the
variational equation dV/dt = DX(x(t)) V) to J = D(Phi^{-1})(x).  The
pushforward of X is J^{-1} X(y) = DPhi(y) X(y), one stacked linear solve.

A field's flow kind is detected once, and its value and the Jacobian
entries that its kind calls are compiled once (``expr.compile_float``, same
log-space semantics) in the same ``_flow_kind`` entry: a straight field's
entries of X and DX not identically zero, and a non-polynomial ODE field's
whole Jacobian, which its array evaluator of X and DX calls row by row; a
polynomial ODE field's evaluator runs on its monomials.

Many words are walked in one place, ``_walk``, each from its own start
point and each a row of arrays, position by position, the live rows of
each field index in one stacked step.  A closed-form group steps
end = E p + c and V <- E V: E = I + t DX(p) for a straight field, only the
entries of X and DX not identically zero evaluated (a constant field keeps
V), and E, c from the exponential of t M for an affine one, so each row has
the bits of a one-word walk.  A scaling field's exponential is one
vectorised ``np.exp`` of the diagonal of t M; a nilpotent one takes one
stacked ``expm``, its finite Taylor sum.  An ODE group takes one
``solve_ivp`` over its rows [x, V]: each row has its own time, step,
acceptance by a max-norm error per component, right-hand-side budget, box
check of the whole row (point and matrix) at every accepted step and
domain exit located on the step's dense output, all by elementwise
arithmetic, so no row's bits depend on another.  ``apply_words`` and
``pushforward_along_words`` take one start point (and one sequence of
fields) per word, walk ``WALK_ROWS`` words at a time and return, per word,
its result or the FlowError that stopped it.  Where the rows enter, a count
other than one per word raises ValueError in ``_runs``, and a point without
the fields' n coordinates in ``_walk``.  ``apply_word`` and ``flow`` are
their one-word cases, ``pushforward_along_word`` pushes one field along
one word, and these raise the error.

The relative tolerance ``DEFAULT_RTOL`` and the bounding box ``DEFAULT_BOX``
(every coordinate stays within 1e6 in absolute value) are module constants,
not per-call options; a step that reaches a non-finite point or tangent
fails.  The walk sets ``.step`` on the error of a failing step to that
step's index in the word it walks: for a pushforward, the walk back.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, islice
from typing import Callable, NamedTuple, Optional

import numpy as np

from .expr import compile_float, poly_coeff_dict, sum_products
from .vectorfield import DomainExitError, FlowError, IntegrationError, lie_bracket

__all__ = ["lie_bracket", "flow", "apply_word", "apply_words", "pushforward_along_word",
           "pushforward_along_words", "jacobian_exprs", "value_float"]

DEFAULT_BOX = 1e6
DEFAULT_RTOL = 1e-10
# Words walked at once: a walk holds arrays and results for all its words, so
# longer calls walk runs of this many, which bounds their memory.
WALK_ROWS = 512


# -- flow kind detection ----------------------------------------------------------


@lru_cache(maxsize=None)
def jacobian_exprs(X):
    return tuple(
        tuple(X.components[i].diff(j + 1) for j in range(X.dim)) for i in range(X.dim)
    )


class _Flow(NamedTuple):
    kind: str  # "straight" | "affine" | "ode"
    comps: tuple  # compiled components: list of floats -> float
    eye: np.ndarray  # n x n identity, for the straight step's Jacobian
    M: Optional[np.ndarray] = None  # affine x' = Ax + b: [[A, b], [0, 0]]
    diagonal: Optional[np.ndarray] = None  # scaling (M diagonal): M's diagonal
    batch: Optional[Callable] = None  # ODE: (m, n), c -> (m, c): X, then DX row-major
    const: Optional[np.ndarray] = None  # straight with DX = 0: the constant X
    # straight: (c, closure) of the entries not identically zero, X then DX row-major
    live: tuple = ()


@lru_cache(maxsize=None)
def _flow_kind(X):
    """X's flow kind, detected symbolically, and X's value and the Jacobian
    entries that kind calls compiled once into functions of a list of floats.  An affine field is
    "affine" only when it scales (M diagonal) or M is nilpotent by its zero
    pattern on a full domain, else "ode"."""
    J = jacobian_exprs(X)
    n = X.dim
    comps = tuple(compile_float(c) for c in X.components)
    eye = np.eye(n)
    eye.flags.writeable = False
    # straight lines: the field is constant along its own integral curves
    if all(sum_products(zip(X.components, J[i])).is_zero() for i in range(n)):
        live = tuple((c, comps[c] if c < n else compile_float(e))  # X, then DX
                     for c, e in enumerate(X.components + sum(J, ())) if not e.is_zero())
        const = (None if any(c >= n for c, _ in live) else
                 np.array([f([0.0] * n) for f in comps], dtype=float))
        return _Flow("straight", comps, eye, const=const, live=live)
    if all(c.is_polynomial() and c.total_degree() <= 1 for c in X.components):
        M = np.zeros((n + 1, n + 1))
        for i, comp in enumerate(X.components):
            for mono, c in poly_coeff_dict(comp, n).items():
                M[i, mono.index(1) if any(mono) else n] = float(c)
        M.flags.writeable = False
        scaling = not M[~np.eye(n + 1, dtype=bool)].any()
        if scaling or (X.domain.is_full and _nilpotent(M)):
            return _Flow("affine", comps, eye, M, np.diagonal(M) if scaling else None)
    if X.is_polynomial():
        batch = _poly_batch(X.components + sum(J, ()), n)
    else:
        closures = comps + tuple(compile_float(e) for e in sum(J, ()))

        def batch(x, count):
            return np.array([[f(p) for f in closures[:count]] for p in x.tolist()],
                            dtype=float).reshape(len(x), count)
    return _Flow("ode", comps, eye, batch=batch)


def value_float(X, point):
    """X at the point as a float array, compiled once with the flow kind."""
    pt = [float(v) for v in point]
    return np.array([f(pt) for f in _flow_kind(X).comps], dtype=float)


def _poly_batch(exprs, n):
    """Evaluator of the first c polynomial Exprs on the rows of an (m, n) array:
    x_j^k a running product, a term c * x_j^k * ... (c if not 1), summed in order."""
    polys = [[(None if c == 1 and any(mono) else float(c),
               [(j, k) for j, k in enumerate(mono) if k])
              for mono, c in poly_coeff_dict(e, n).items()] for e in exprs]

    def batch(x, count):
        out = np.zeros((len(x), count))
        powers = [[1.0, x[:, j]] for j in range(n)]
        for i, terms in enumerate(polys[:count]):
            acc = None
            for term, factors in terms:  # term None: coefficient 1
                for j, k in factors:
                    while len(powers[j]) <= k:
                        powers[j].append(powers[j][-1] * powers[j][1])
                    term = powers[j][k] if term is None else term * powers[j][k]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[:, i] = acc
        return out

    return batch


def _nilpotent(A):
    """Per n x n matrix in A, whether its zero pattern has no cycle (the
    pattern's n-th power is zero), so that a reordering of the coordinates
    makes it strictly triangular and A^n = 0."""
    pattern = power = np.asarray(A) != 0
    for _ in range(pattern.shape[-1] - 1):
        power = power @ pattern
    return ~power.any(axis=(-2, -1))


def expm(A):
    """The exponential of every n x n matrix in A (any leading shape), each on
    its own, for the t M of closed-form affine flows: the finite Taylor sum,
    over k < n of A^k / k!, of an A that ``_nilpotent`` accepts, and
    ``np.exp`` of the diagonal of a diagonal A.  A matrix with a non-finite
    entry gives NaNs; any other matrix raises ValueError."""
    shape, n = np.shape(A), np.shape(A)[-1]
    A = np.asarray(A, dtype=float).reshape(-1, n, n)
    out, eye = np.full(A.shape, np.nan), np.eye(n)
    finite = np.isfinite(A).all(axis=(1, 2))
    nil = finite & _nilpotent(A)
    if nil.any():
        N = A[nil]
        term, total = N, eye + N
        for k in range(2, n):
            term = term @ N / k
            total = total + term
        out[nil] = total
    diag = finite & ~nil & ~A[:, eye == 0].any(axis=1)
    if (finite & ~nil & ~diag).any():
        raise ValueError("expm takes only matrices that a reordering of the coordinates "
                         "makes strictly triangular or diagonal")
    out[diag] = np.where(eye == 1, np.exp(A[diag]), 0.0)
    return out.reshape(shape)


MAX_RHS_EVALS = 50_000

# Dormand-Prince 5(4) (Dormand and Prince 1980) as in DOPRI5 (Hairer, Norsett and
# Wanner, Solving ODEs I, II.4-5): A (its last row the end point, whose value is
# the 7th stage), the error weights (5th minus 4th order), the dense-output ones
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)


def _combo(K, weights):
    """The sum of w * K[i] over the nonzero weights, one term at a time."""
    terms = [k * w for k, w in zip(K, weights) if w]
    for term in terms[1:]:
        terms[0] += term
    return terms[0]


def solve_ivp(fun, t_end, y0, events, name):
    """Dormand-Prince 5(4) for all rows of the (m, d) array y0 at once, row j
    from time 0 to t_end[j] != 0; fun(t, Y) gives the live rows' derivatives
    (t is their times at the step start: fields are autonomous).  A row
    accepts a step when max_i |err_i| / (1e-12 + rtol max(|y_i|, |y_new_i|))
    < 1, rtol ``DEFAULT_RTOL``.  It fails at once if its start value or its
    time is not finite, later if its step underflows or it uses up
    ``MAX_RHS_EVALS``, and after an accepted step, in this order, if
    coordinate c crossed b for a (c, b) in events (exit time from the dense
    output), if any of its columns (the point and any transported matrix)
    left ``DEFAULT_BOX`` or if it is not finite.  Returns the end rows and
    {row: FlowError}."""
    rtol, atol = DEFAULT_RTOL, 1e-12
    out, T = y0.copy(), np.asarray(t_end, dtype=float)
    with np.errstate(all="ignore"):
        f = fun(np.zeros(len(y0)), y0)
        fin = np.isfinite(f).all(axis=1) & np.isfinite(T)
        failed = {j: IntegrationError("flow step gave a non-finite value")
                  for j in np.flatnonzero(~fin).tolist()}
        live, T, y, f = np.flatnonzero(fin), T[fin], y0[fin], f[fin]
        t, absT, sign = np.zeros(len(live)), np.abs(T), np.sign(T)
        # the initial step of Hairer, Norsett and Wanner, II.4, in the max norm
        scale = atol + np.abs(y) * rtol
        d0, d1 = (np.abs(y) / scale).max(axis=1), (np.abs(f) / scale).max(axis=1)
        h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), absT)
        d2 = (np.abs(fun(t, y + (h0 * sign)[:, None] * f) - f) / scale).max(axis=1) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.fmax(d1, d2)) ** 0.2)
        h = np.fmin(np.fmin(100 * h0, h1), absT) * sign
        nfev, rejected, retry = 2, np.zeros(len(live), dtype=bool), False
        while live.size:
            if nfev + 6 > MAX_RHS_EVALS:
                msg = "integration budget exceeded (likely finite-time blow-up)"
                failed.update((r, IntegrationError(msg)) for r in live.tolist())
                break
            t_new = np.minimum(np.abs(t + h), absT) * sign  # T once the step reaches it
            h, K, Y = t_new - t, [f], y
            for a in _DP_A:  # elementwise sums, so no row's bits depend on another
                Y = y + h[:, None] * _combo(K, a)
                K.append(fun(t, Y))
            nfev += 6
            err = np.abs(h[:, None] * _combo(K, _DP_E))
            err = (err / (atol + rtol * np.maximum(np.abs(y), np.abs(Y)))).max(axis=1)
            ok, raw, ends = err < 1, 0.9 * err ** -0.2, {}
            for c, b in events:  # bisect the dense output for the crossing
                g0, g1 = y[:, c] - b, Y[:, c] - b
                for j in np.flatnonzero(ok & ((g0 <= 0) & (g1 >= 0) | (g0 >= 0) & (g1 <= 0))):
                    u, du, hj, lo, hi = y[j, c], Y[j, c] - y[j, c], h[j], 0.0, float(g0[j] != 0)
                    p = hj * K[0][j, c] - du
                    q = du - hj * K[6][j, c] - p
                    r = hj * sum(d * k[j, c] for d, k in zip(_DP_D, K))
                    while lo < (s := 0.5 * (lo + hi)) < hi:
                        at = u + s * (du + (1 - s) * (p + s * (q + (1 - s) * r)))
                        lo, hi = (s, hi) if (at > b) == (u > b) else (lo, s)
                    s = float(t[j] + hi * hj)
                    if j not in ends or abs(s) < abs(ends[j].exit_time):
                        ends[j] = DomainExitError(f"trajectory of {name} left its domain", s)
            if not np.abs(Y).max() <= DEFAULT_BOX:  # False also when Y has a NaN
                for j in np.flatnonzero(ok & (np.abs(Y).max(axis=1) > DEFAULT_BOX)):
                    ends.setdefault(j, IntegrationError("trajectory escaped the bounding box"))
                for j in np.flatnonzero(ok & ~np.isfinite(Y).all(axis=1)):
                    ends.setdefault(j, IntegrationError("flow step gave a non-finite value"))
            cap = np.where(rejected, 1.0, 10.0) if retry else 10.0
            retry = not ok.all()
            if not retry:
                h, t, y, f = h * np.fmin(cap, raw), t_new, Y, K[6]
            else:
                h = h * np.where(ok, np.fmin(cap, raw), np.fmax(0.2, raw))
                tiny = ~ok & (np.abs(h) < 10 * np.abs(np.nextafter(t, T) - t))
                for j in np.flatnonzero(tiny):
                    ends[j] = IntegrationError("integrator failed: Required step size "
                                               "is less than spacing between numbers.")
                t, y, f = (np.where(ok, t_new, t), np.where(ok[:, None], Y, y),
                           np.where(ok[:, None], K[6], f))
            rejected, done = ~ok, t == T
            if ends or done.any():
                out[live[done]] = y[done]
                failed.update((int(live[j]), e) for j, e in ends.items())
                keep = ~done
                keep[list(ends)] = False
                live, T, absT, sign, t, y, f, h, rejected = (
                    a[keep] for a in (live, T, absT, sign, t, y, f, h, rejected))
    return out, failed


def _ode_rhs(batch, n, k):
    """``solve_ivp``'s fun for rows Y = [x, V flattened], V an n x k matrix
    (none when k = 0): X(x) and DX(x) V, by elementwise products and sums."""
    if not k:
        return lambda _, Y: batch(Y, n)

    def fun(_, Y):
        m = len(Y)
        vals = batch(Y[:, :n], n + n * n)
        J, V = vals[:, n:].reshape(m, n, n), Y[:, n:].reshape(m, n, k)
        dV = sum(J[:, :, j, None] * V[:, None, j] for j in range(n))
        return np.concatenate([vals[:, :n], dV.reshape(m, n * k)], axis=1)

    return fun


def _inside(domain, P):
    """Per row of P, ``domain.contains`` by its comparisons on a float point
    (``DomainPredicate._float_form``); True for a full domain."""
    ok = True
    for i, below, _, f, f_inside in domain._float_form:
        v = P[:, i]
        side = v < f if below else v > f
        if f_inside:
            side |= v == f
        ok = side if ok is True else ok & side
    return ok


@np.errstate(all="ignore")  # a non-finite step is an IntegrationError, not a warning
def _step_group(X, ts, rows, P, V):
    """One flow step along X for the rows (an index array) of P (m x n),
    row rows[j] for time ts[j], transporting their n x k matrices in V
    (m x n x k) unless V is None, in place (module docstring); returns
    {row: FlowError} for the rows that fail.  A start point outside X's
    domain fails with exit time 0, and a zero time leaves the row as it is.
    A closed-form flow is monotone in each coordinate or its domain is R^n,
    so a row whose end point lies outside the domain, by the comparisons
    ``DomainPredicate.contains`` makes, fails with exit time t.
    """
    kind, failed = _flow_kind(X), {}
    if not X.domain.is_full:
        out = ~_inside(X.domain, P[rows])
        if np.count_nonzero(out):
            failed = {r: DomainExitError(f"start point outside the domain of {X.name}", 0.0)
                      for r in rows[out].tolist()}
            rows, ts = rows[~out], ts[~out]
    if np.count_nonzero(ts) < len(ts):
        rows, ts = rows[ts != 0.0], ts[ts != 0.0]
    if not len(rows):
        return failed
    n, p = X.dim, P[rows]
    if kind.kind == "ode":
        k = 0 if V is None else V.shape[2]
        y0 = p if V is None else np.concatenate([p, V[rows].reshape(len(rows), n * k)], axis=1)
        ends, errors = solve_ivp(_ode_rhs(kind.batch, n, k), ts, y0,
                                 [(i, f) for i, _, _, f, _ in X.domain._float_form], X.name)
        failed.update((int(rows[j]), err) for j, err in errors.items())
        ok = [j not in errors for j in range(len(rows))]
        P[rows[ok]] = ends[ok, :n]
        if V is not None:
            V[rows[ok]] = ends[ok, n:].reshape(-1, n, k)
        return failed
    E = None  # the identity
    if kind.kind == "affine":
        if kind.diagonal is not None and np.isfinite(ts).all():
            # every t M is diagonal, so its exponential is exp of its diagonal
            F = np.zeros((len(ts), n + 1, n + 1))
            F[:, range(n + 1), range(n + 1)] = np.exp(kind.diagonal * ts[:, None])
        else:
            F = expm(kind.M * ts[:, None, None])  # [[E, c], [0, 1]]
        E = F[:, :n, :n]
        end = (E @ p[:, :, None])[:, :, 0] + F[:, :n, n]
    elif kind.const is not None:
        end = p + ts[:, None] * kind.const
    else:
        width = n if V is None else n + n * n  # X, then DX row-major
        base, vals = p.tolist(), np.zeros((len(rows), width))
        for c, f in kind.live:
            if c < width:
                vals[:, c] = [f(q) for q in base]
        end = p + ts[:, None] * vals[:, :n]
        if V is not None:
            E = kind.eye + ts[:, None, None] * vals[:, n:].reshape(-1, n, n)
    moved = None if V is None or kind.const is not None else E @ V[rows]
    # a row fails, in this order, outside the domain, outside the box, not finite
    inside = _inside(X.domain, end)
    ok = inside & (np.abs(end).max(axis=1) <= DEFAULT_BOX)  # False also for a NaN
    if moved is not None:
        ok &= np.isfinite(moved).all(axis=(1, 2))
    if np.count_nonzero(ok) < len(ok):
        inside = np.ones(len(ok), dtype=bool) & inside
        for r, t, stays, size in zip(rows[~ok].tolist(), ts[~ok].tolist(), inside[~ok],
                                     np.abs(end[~ok]).max(axis=1).tolist()):
            failed[r] = (IntegrationError("trajectory escaped the bounding box"
                                          if size > DEFAULT_BOX else
                                          "flow step gave a non-finite value") if stays else
                         DomainExitError(f"trajectory of {X.name} left its domain", t))
        rows, end, moved = rows[ok], end[ok], None if moved is None else moved[ok]
    P[rows] = end
    if moved is not None:
        V[rows] = moved
    return failed


def _walk(family, words, P, V=None, back=False):
    """Flow row r of P (m x n) through words[r], or its inverse when ``back``,
    transporting V[r] (V m x n x k) unless V is None: position by position,
    the live rows of each field index in one ``_step_group``.  Returns P, V
    and per row the FlowError that stopped it (``step`` set) or None; a start
    point without n coordinates raises ValueError."""
    m, n = len(words), family[0].dim if family else len(P[0])
    for p in P:
        if len(p) != n:
            raise ValueError(f"a start point has {len(p)} coordinates, the fields have {n}")
    P = np.array(P, dtype=float).reshape(m, n)
    V = None if V is None else np.asarray(V, dtype=float)  # moved in place
    lens = [len(w) for w in words]
    steps = np.fromiter(chain.from_iterable(chain.from_iterable(words)), float, 2 * sum(lens))
    index, times = steps[::2], -steps[1::2] if back else steps[1::2]
    # floats: numpy's integer comparisons would page in 128 kB more of its code
    lengths = np.array(lens, dtype=float)
    # per live row its step at this position, from the first (the last when walked back)
    bounds = np.fromiter(accumulate(lens, initial=0), np.intp, m + 1)
    at = bounds[1:] - 1 if back else bounds[:-1]
    errors, dead, live, failed = [None] * m, np.zeros(m, dtype=bool), np.arange(m), False
    shortest = min(lens)
    for pos in range(max(lens)):
        at = at if not pos else (at - 1 if back else at + 1)
        if pos >= shortest or failed:  # drop the rows whose word ended or failed
            going = (lengths[live] > pos) & ~dead[live]
            live, at, failed = live[going], at[going], False
        fields, ts = index[at], times[at]
        groups = dict.fromkeys(fields.tolist())  # field indices, in the order of their rows
        for i in groups:
            group = fields == i if len(groups) > 1 else slice(None)
            for r, err in _step_group(family[int(i)], ts[group], live[group], P, V).items():
                err.step, errors[r], dead[r], failed = pos, err, True, True
    return P, V, errors


def flow(X, t, point):
    """Flow the point for time t along X.  Raises on domain exit or blow-up."""
    P, _, (err,) = _walk((X,), [((0, t),)], [point])
    if err is not None:
        err.step = None  # a lone flow is no step of a word
        raise err
    return P[0]


def _runs(words, **per_word):
    """Lists of at most ``WALK_ROWS`` words and their entries in each
    iterable of per_word, read a run at a time; ValueError, naming both
    counts, where an iterable does not hold one entry per word."""
    words, others, read = iter(words), {k: iter(a) for k, a in per_word.items()}, 0
    while True:
        run = list(islice(words, WALK_ROWS))
        entries = [list(islice(it, len(run))) for it in others.values()]
        for (name, it), got in zip(others.items(), entries):
            extra = sum(1 for _ in it) if len(run) < WALK_ROWS else 0  # every word read
            if len(got) < len(run) or extra:
                raise ValueError(f"one {name.replace('_', ' ')} per word: {read + len(got) + extra}"
                                 f" for {read + len(run) + sum(1 for _ in words)} words")
        if not run:
            return
        read += len(run)
        yield [run] + entries


def apply_words(family, words, points):
    """Apply every flow word to its start point, word r to points[r], in one
    walk per ``WALK_ROWS`` words: per word, the end point, or the FlowError
    (``step`` set) that stopped the word."""
    out = []
    for run, starts in _runs(words, start_point=points):
        P, _, errors = _walk(family, run, starts)
        out += [end if err is None else err for end, err in zip(P, errors)]
    return out


def apply_word(family, word, point):
    """Apply a flow word left to right: step k flows along family[i_k]."""
    (end,) = apply_words(family, [word], [point])
    if isinstance(end, FlowError):
        raise end
    return end


def pushforward_along_words(family, words, fields, points):
    """Per word, the pushforward of each field of ``fields[r]`` under word
    r's composite diffeomorphism, at points[r], in one walk per
    ``WALK_ROWS`` words (module docstring): one vector per field (None
    where the field is undefined at the pulled-back point), or the
    FlowError that stopped the word, an IntegrationError for a singular J
    or a non-finite pushforward.  Each field is evaluated at all its rows
    of a walk, and every J^{-1} X(y) of a walk is one stacked solve with
    one finiteness check."""
    pushed = []
    for words, fields, points in _runs(words, field_sequence=fields, start_point=points):
        m, n = len(words), len(points[0])
        Y, J, out = _walk(family, words, points, np.eye(n)[None].repeat(m, axis=0), True)
        sequences = {}  # the live rows of each sequence of fields, which may serve many words
        for r, err in enumerate(out):
            if err is None:
                sequences.setdefault(id(fields[r]), (fields[r], []))[1].append(r)
                out[r] = [None] * len(fields[r])
        rows, slots, b, ys = [], [], [], Y.tolist()
        for seq, live in sequences.values():
            for j, F in enumerate(seq):
                at = live if F.domain.is_full else [
                    r for r, keep in zip(live, _inside(F.domain, Y[live]).tolist()) if keep]
                rows, slots, comps = rows + at, slots + [j] * len(at), _flow_kind(F).comps
                b += [[f(ys[r]) for f in comps] for r in at]
        if rows:
            # one right-hand side per matrix: a vector's bits do not depend on the other fields
            U = _solve(J[rows], np.array(b)[:, :, None])[:, :, 0]
            for r, j, u, fin in zip(rows, slots, U, np.isfinite(U).all(axis=1).tolist()):
                if not fin:
                    out[r] = IntegrationError("pushforward is not finite")
                elif isinstance(out[r], list):
                    out[r][j] = u
        pushed += out
    return pushed


def _solve(A, B):
    """A^-1 B for each pair of the stacks A and B, NaN where A is singular."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        if len(A) == 1:
            return np.full(B.shape, np.nan)
        return np.concatenate([_solve(A[j:j + 1], B[j:j + 1]) for j in range(len(A))])


def pushforward_along_word(family, word, X, point):
    """Pushforward of the field X under the word's composite diffeomorphism,
    at point: ``pushforward_along_words`` for one word and one field.  A
    failing step raises its FlowError (``step`` its index in the walk back),
    X undefined at the pulled-back point DomainExitError, and a singular J
    or a non-finite pushforward IntegrationError."""
    (pushed,) = pushforward_along_words(family, [word], [(X,)], [point])
    if isinstance(pushed, FlowError):
        raise pushed
    if pushed[0] is None:
        raise DomainExitError(f"{X.name} is undefined at the pulled-back point")
    return pushed[0]
