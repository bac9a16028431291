import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfkit import fields, vectorfield
from vfkit.expr import Expr, compile_float, const, parse, var
from vfkit.fields import (
    apply_word,
    apply_words,
    flow,
    lie_bracket,
    pushforward_along_word,
    pushforward_along_words,
)
from vfkit.liealg import filtration
from vfkit.orbits import WordSampler, fixed_time_dimension, orbit_dimension, sampled_orbit
from vfkit.presets import PRESETS
from vfkit.systems import parse_system
from vfkit.vectorfield import (
    DomainExitError,
    DomainPredicate,
    FlowError,
    IntegrationError,
    VectorField,
    field_evaluators,
)

from conftest import make_field, multiply_field


def random_poly_field(rng, n, max_degree=3):
    comps = []
    for i in range(n):
        e = const(0)
        for _ in range(int(rng.integers(1, 4))):
            c = Fraction(int(rng.integers(-2, 3)))
            if c == 0:
                continue
            t = const(c)
            for _ in range(int(rng.integers(0, max_degree + 1))):
                t = t * var(int(rng.integers(1, n + 1)))
            e = e + t
        comps.append(e)
    return VectorField(f"R{rng.integers(0, 10**6)}", tuple(comps))


class TestBracketRegressions:
    """Exact symbolic values for the corpus brackets."""

    def test_translation_shear(self, vf):
        X = vf("X", ["1", "0"], 2)
        Y = vf("Y", ["0", "x1"], 2)
        assert [str(c) for c in lie_bracket(X, Y).components] == ["0", "1"]

    def test_commuting_scalings(self, vf):
        X = vf("X", ["x1", "0"], 2)
        Y = vf("Y", ["0", "x2"], 2)
        assert lie_bracket(X, Y).is_zero()

    def test_isolated_leaf_bracket(self, vf):
        X = vf("X", ["x1*x3", "1", "0"], 3)
        Y = vf("Y", ["0", "0", "1"], 3)
        assert [str(c) for c in lie_bracket(X, Y).components] == ["-x1", "0", "0"]

    def test_quadratic_shear_brackets(self, vf):
        X = vf("X", ["1", "0"], 2)
        Y = vf("Y", ["0", "x1^2"], 2)
        b1 = lie_bracket(X, Y)
        b2 = lie_bracket(X, b1)
        assert [str(c) for c in b1.components] == ["0", "2*x1"]
        assert [str(c) for c in b2.components] == ["0", "2"]

    def test_partial_domain_intersection(self, vf):
        X = vf("X", ["1", "0"], 2, [(1, "<", Fraction(1))])
        Y = vf("Y", ["0", "x1"], 2, [(1, ">", Fraction(-1))])
        b = lie_bracket(X, Y)
        assert b.domain.contains((0, 0))
        assert not b.domain.contains((2, 0))
        assert not b.domain.contains((-2, 0))


def seeded_field_pairs(count, n=2, seed=1234):
    rng = np.random.default_rng(seed)
    return [(random_poly_field(rng, n), random_poly_field(rng, n)) for _ in range(count)]


def test_antisymmetry_symbolic():
    for X, Y in seeded_field_pairs(25):
        b = lie_bracket(X, Y)
        c = lie_bracket(Y, X)
        assert all((u + v).is_zero() for u, v in zip(b.components, c.components))


def test_jacobi_symbolic():
    rng = np.random.default_rng(99)
    for _ in range(20):
        X, Y, Z = (random_poly_field(rng, 2) for _ in range(3))
        terms = (
            lie_bracket(X, lie_bracket(Y, Z)),
            lie_bracket(Z, lie_bracket(X, Y)),
            lie_bracket(Y, lie_bracket(Z, X)),
        )
        assert all((a + b + c).is_zero() for a, b, c in zip(*(t.components for t in terms)))


@st.composite
def flat_laurent_fields(draw, count):
    """``count`` fields on R^2 whose components are sums of up to two
    Laurent monomials c * x1^a * x2^b (|a|, |b| <= 2), each times nothing,
    bump or bumpp of one variable."""
    flats = st.sampled_from([None, "bump", "bumpp"])
    term = st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 3)]), st.integers(-2, 2),
                     st.integers(-2, 2), flats, st.integers(1, 2))

    def component():
        e = const(0)
        for c, a, b, flat, j in draw(st.lists(term, max_size=2)):
            t = const(c) * var(1).int_pow(a) * var(2).int_pow(b)
            e = e + (t * parse(f"{flat}(x{j})", 2) if flat else t)
        return e

    return [VectorField(f"F{k}", (component(), component())) for k in range(count)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(flat_laurent_fields(2))
def test_flat_laurent_antisymmetry(pair):
    X, Y = pair
    b, c = lie_bracket(X, Y), lie_bracket(Y, X)
    assert b.components == tuple(-u for u in c.components)
    assert b.components == oracle_bracket(X, Y)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(flat_laurent_fields(3))
def test_flat_laurent_jacobi_is_an_exact_zero(triple):
    X, Y, Z = triple
    terms = (
        lie_bracket(X, lie_bracket(Y, Z)),
        lie_bracket(Z, lie_bracket(X, Y)),
        lie_bracket(Y, lie_bracket(Z, X)),
    )
    assert all((a + b + c).is_zero() for a, b, c in zip(*(t.components for t in terms)))


def test_module_leibniz_rule():
    # [f X, Y] = f [X, Y] - (L_Y f) X, the identity behind module closure
    rng = np.random.default_rng(5)
    for _ in range(20):
        X, Y = random_poly_field(rng, 2), random_poly_field(rng, 2)
        f = parse("x1^2 - x2", 2) if rng.integers(0, 2) else parse("x1*x2 + 1", 2)
        lhs = lie_bracket(multiply_field(f, X), Y)
        lyf = sum(
            (Y.components[j] * f.diff(j + 1) for j in range(2)), const(0)
        )
        rhs_comps = tuple(
            f * lie_bracket(X, Y).components[i] - lyf * X.components[i]
            for i in range(2)
        )
        assert all((a - b).is_zero() for a, b in zip(lhs.components, rhs_comps))


def oracle_bracket(X, Y):
    """[X, Y]_i = sum_j X_j d_j Y_i - Y_j d_j X_i on Expr arithmetic and
    ``Expr.diff``, the components only."""
    n = X.dim
    return tuple(
        sum((X.components[j] * Y.components[i].diff(j + 1)
             - Y.components[j] * X.components[i].diff(j + 1) for j in range(n)), const(0))
        for i in range(n)
    )


@st.composite
def polynomial_field_pairs(draw):
    """Two polynomial fields on R^n, n <= 3, of degree <= 3 with small
    rational coefficients, each with or without a one-variable domain bound."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    monomial = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda m: sum(m) <= 3)

    def field(name):
        comps = []
        for _ in range(n):
            e = const(0)
            for c, mono in draw(st.lists(st.tuples(coeff, monomial), max_size=4)):
                t = const(c)
                for j, k in enumerate(mono):
                    t = t * var(j + 1).int_pow(k) if k else t
                e = e + t
            comps.append(e)
        bounds = draw(st.lists(
            st.tuples(st.integers(1, n), st.sampled_from("<>"), coeff), max_size=1))
        return VectorField(name, tuple(comps), DomainPredicate(tuple(bounds)))

    return field("X"), field("Y")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polynomial_field_pairs())
def test_polynomial_bracket_matches_expr_oracle(pair):
    X, Y = pair
    b = lie_bracket(X, Y)
    assert b.name == "[X,Y]"
    assert b.domain == X.domain.intersect(Y.domain)
    assert b.components == oracle_bracket(X, Y)
    # canonical terms keep Fraction coefficients, so they print as before
    assert all(type(c) is Fraction for comp in b.components for c, _ in comp.terms)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_expr_oracle_reproduces_every_filtration_word(name):
    family = list(parse_system(PRESETS[name].system_text).fields)
    filt = filtration(family, 6)
    words = [wf for level in filt.levels[1:] for wf in level] + filt.generator_duplicates
    for word, f in words:
        g = family[word.indices[0]]
        comps, domain = g.components, g.domain
        for i in word.indices[1:]:
            comps = oracle_bracket(family[i], VectorField("f", comps, domain))
            domain = family[i].domain.intersect(domain)
        assert (f.components, f.domain) == (comps, domain), str(word)


FAR = Fraction(10**400)  # beyond the float range
DOMAIN_BOUNDS = [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 10), Fraction(0), FAR]


def _float_candidates(bound):
    """The bound's nearest float, both its neighbours, and the special floats."""
    f = math.inf if bound == FAR else float(bound)
    return [math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf), 0.0, -0.0,
            math.inf, -math.inf, math.nan, sys.float_info.max]


def _exact_side(v, rel, bound):
    """Whether v < bound (rel "<") or v > bound, in exact arithmetic, with
    the infinities as limits and nan on neither side."""
    if isinstance(v, float):
        if math.isnan(v):
            return False
        if math.isinf(v):
            return (v < 0) == (rel == "<")
        v = Fraction(v)
    return v < bound if rel == "<" else v > bound


@st.composite
def _bounded_points(draw):
    constraints, point = [], []
    for index in (1, 2):
        rel, bound = draw(st.sampled_from("<>")), draw(st.sampled_from(DOMAIN_BOUNDS))
        v = draw(st.one_of(st.sampled_from(_float_candidates(bound)), st.floats()))
        kind = draw(st.sampled_from(["float", "float64", "Fraction", "int", "bound"]))
        if kind == "float64":
            v = np.float64(v)
        elif kind == "bound":
            v = bound
        elif kind != "float" and math.isfinite(v):
            v = Fraction(v) if kind == "Fraction" else int(v)
        constraints.append((index, rel, bound))
        point.append(v)
    return constraints, point


class TestDomainFloatForm:
    @settings(max_examples=400, derandomize=True)
    @given(_bounded_points())
    def test_contains_matches_exact_comparison(self, case):
        constraints, point = case
        want = all(_exact_side(v, rel, b) for (_, rel, b), v in zip(constraints, point))
        assert DomainPredicate(tuple(constraints)).contains(point) == want
        for c, v in zip(constraints, point):
            assert DomainPredicate((c,)).contains([v, v]) == _exact_side(v, *c[1:])

    def test_bound_beyond_float_range_flows_as_unbounded(self, vf):
        far = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x2^2"], 2, [(1, "<", FAR)])]
        free = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x2^2"], 2)]
        words = WordSampler(seed=2, count=6, max_len=3).words(2)
        points = [(0.0, 0.1)] * len(words)
        for a, b in zip(apply_words(far, words, points), apply_words(free, words, points)):
            assert np.array_equal(a, b)
        for a, b in zip(pushforward_along_words(far, words, [far] * len(words), points),
                        pushforward_along_words(free, words, [free] * len(words), points)):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestFlows:
    def test_diagonal_scaling_closed_form(self, vf):
        X = vf("X", ["x1", "0"], 2)
        end = flow(X, 1.25, (2.0, 0.0))
        assert end == pytest.approx([2.0 * math.exp(1.25), 0.0], rel=1e-12)

    def test_constant_field(self, vf):
        X = vf("X", ["0", "1"], 2)
        assert flow(X, -3.5, (1.0, 2.0)) == pytest.approx([1.0, -1.5])

    def test_affine_matches_rk(self, vf):
        # double integrator with unit input: closed form vs the analytic
        # flow and vs an independent RK45 solve
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        X = vf("X", ["x2", "1"], 2)
        x1, x2 = 0.2, -0.4
        for t in (0.3, 1.0, -0.7):
            closed = flow(X, t, (x1, x2))
            exact = np.array([x1 + x2 * t + t * t / 2, x2 + t])
            assert np.max(np.abs(closed - exact)) < 1e-12
            rk = solve_ivp(lambda _, y: [y[1], 1.0], (0.0, t), [x1, x2],
                           method="RK45", rtol=1e-10, atol=1e-12).y[:, -1]
            assert np.max(np.abs(closed - rk)) < 1e-10

    def test_nonlinear_rk(self, vf):
        # scalar Riccati x' = x^2 from 1: x(t) = 1/(1 - t)
        X = vf("X", ["x1^2"], 1)
        end = flow(X, 0.5, (1.0,))
        assert end[0] == pytest.approx(2.0, rel=1e-8)

    def test_flow_group_law(self, vf):
        rng = np.random.default_rng(21)
        X = vf("X", ["x2", "1"], 2)
        for _ in range(10):
            s, t = rng.uniform(-1, 1, size=2)
            p = rng.uniform(-1, 1, size=2)
            twice = apply_word([X], [(0, s), (0, t)], p)
            once = apply_word([X], [(0, s + t)], p)
            assert np.max(np.abs(twice - once)) < 1e-9

    def test_domain_exit_reports_time(self, vf):
        X = vf("X", ["1", "0"], 2, [(1, "<", Fraction(1))])
        with pytest.raises(DomainExitError) as err:
            flow(X, 2.0, (0.0, 0.0))
        assert err.value.exit_time is not None

    def test_bounding_box(self, vf):
        X = vf("X", ["x1^2"], 1)
        with pytest.raises((IntegrationError, DomainExitError)):
            flow(X, 2.0, (1.0,))  # finite-time blow-up

    def test_restricted_rotation_exits_domain(self, vf):
        # a non-diagonal affine flow on a restricted domain: from (0, 1) the
        # backward rotation (-sin t, cos t) leaves x1 < 1/2 at -pi/6 and
        # re-enters at -5pi/6; it leaves x1 < 999/1000 at -asin(0.999) for
        # a short arc only, so its end point at -0.97 pi lies inside again
        R = vf("R", ["-x2", "x1"], 2, [(1, "<", Fraction(1, 2))])
        assert fields._flow_kind(R).kind == "ode"
        with pytest.raises(DomainExitError) as err:
            flow(R, -math.pi, (0.0, 1.0))
        assert err.value.exit_time == pytest.approx(-math.pi / 6, abs=1e-9)
        assert err.value.step is None
        with pytest.raises(DomainExitError) as err:
            apply_word([R], [(0, 0.5), (0, -math.pi)], (0.0, 1.0))
        assert err.value.step == 1
        near = vf("R", ["-x2", "x1"], 2, [(1, "<", Fraction(999, 1000))])
        with pytest.raises(DomainExitError) as err:
            flow(near, -0.97 * math.pi, (0.0, 1.0))
        assert err.value.exit_time == pytest.approx(-math.asin(0.999), abs=1e-9)

    def test_restricted_rotation_skips_the_words_the_angle_oracle_skips(self):
        # R = (-x2, x1) on x1 < 1/2 turns a point of radius r = 251/500 by
        # its time, and is undefined on the arc |theta| <= acos(1/(2r)).  A
        # pushforward walks the inverse word, so it fails exactly when the
        # range of the inverse word's partial sums, turned by the point's
        # angle, meets that arc
        text = (pathlib.Path(__file__).parent / "data" / "rotation.vf").read_text()
        family = list(parse_system(text).fields)
        point, r = (0, Fraction(251, 500)), 251 / 500
        alpha = math.acos(0.5 / r)

        def walks(word, theta):
            sums = list(itertools.accumulate((-t for _, t in reversed(word)), initial=0.0))
            lo, hi = theta + min(sums) - alpha, theta + max(sums) + alpha
            return math.ceil(lo / (2 * math.pi)) > math.floor(hi / (2 * math.pi))

        sampler = WordSampler(seed=0, max_time=6.0)
        orbit = orbit_dimension(family, point, sampler)
        fixed = fixed_time_dimension(family, point, 0.5, sampler)
        for report, start, theta, constraint, used in (
                (orbit, point, math.pi / 2, "free", 29),
                (fixed, fixed.reached, math.pi / 2 + 0.5, "zero-sum", 61)):
            words = replace(sampler, constraint=constraint).words(1)
            got = [not isinstance(v, FlowError) and v[0] is not None
                   for v in pushforward_along_words(family, words, [family[:1]] * len(words),
                                                    [start] * len(words))]
            assert got == [walks(w, theta) for w in words]
            assert (report.words_used, report.words_skipped) == (used, 200 - used)

    def test_apply_word_reports_step(self, vf):
        X = vf("X", ["1", "0"], 2, [(1, "<", Fraction(1))])
        Y = vf("Y", ["0", "1"], 2)
        with pytest.raises(DomainExitError) as err:
            apply_word([X, Y], [(1, 0.5), (0, 5.0)], (0.0, 0.0))
        assert err.value.step == 1


class TestPushforward:
    def test_empty_word_is_identity(self, vf):
        X = vf("X", ["x1*x2", "1"], 2)
        v = pushforward_along_word([X], [], X, (0.7, -0.3))
        assert v == pytest.approx(fields.value_float(X, (0.7, -0.3)))

    def test_translation_has_identity_jacobian(self, vf):
        d1 = vf("d1", ["1", "0"], 2)
        d2 = vf("d2", ["0", "1"], 2)
        v = pushforward_along_word([d1, d2], [(0, 1.3)], d2, (5.0, 5.0))
        assert v == pytest.approx([0.0, 1.0])

    def test_shear_pushforward_linear_in_time(self, vf):
        d1 = vf("d1", ["1", "0"], 2)
        s = vf("s", ["0", "x1"], 2)
        for t in (0.25, 0.5, 1.0):
            v = pushforward_along_word([d1, s], [(0, t)], s, (0.0, 0.0))
            assert v == pytest.approx([0.0, -t], abs=1e-9)

    def test_bracket_is_derivative_of_pushforward(self, vf):
        # [Y, X](p) = d/dt|0 of the pushforward of Y by the flow of X;
        # Richardson-extrapolated central differences as the oracle
        rng = np.random.default_rng(2024)
        pairs = seeded_field_pairs(20, seed=77)

        def central(X, Y, p, h):
            plus = pushforward_along_word([X], [(0, h)], Y, p)
            minus = pushforward_along_word([X], [(0, -h)], Y, p)
            return (plus - minus) / (2 * h)

        h = 1e-2
        for X, Y in pairs:
            b = lie_bracket(Y, X)
            for _ in range(5):
                p = tuple(rng.uniform(-1, 1, size=2))
                try:
                    fd = (4.0 * central(X, Y, p, h / 2) - central(X, Y, p, h)) / 3.0
                except (DomainExitError, IntegrationError):
                    continue
                want = fields.value_float(b, p)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(fd - want)) < 1e-6 * scale


FLAT_PAIR = (["1", "0"], ["0", "bumpp(x1)"])  # straight-line flows
DIAG_PAIR = (["x1", "0"], ["0", "x2"])  # affine flows
CUBIC_PAIR = (["1", "0"], ["0", "x1^2*x2+x2^3"])  # variational ODE


def _pushed(family, word, fields_seq, point):
    """Every field of fields_seq pushed along one word to the point, one
    vector per field (None where it is undefined at the pulled-back point);
    raises the FlowError that stops the word."""
    (pushed,) = pushforward_along_words(family, [word], [fields_seq], [point])
    if isinstance(pushed, FlowError):
        raise pushed
    return pushed


def _single_or_error(family, word, X, point):
    try:
        return pushforward_along_word(family, word, X, point)
    except FlowError as err:
        return err


class TestBatchedTransport:
    """A k-field pushforward walks the word once and agrees with k
    single-field pushforwards."""

    @pytest.mark.parametrize("comps", [FLAT_PAIR, DIAG_PAIR], ids=["straight", "affine"])
    def test_closed_form_batch_equals_singles_exactly(self, vf, comps):
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(comps)]
        point = (0.3, 0.7)
        for word in WordSampler(seed=11, count=60).words(2):
            singles = [_single_or_error(family, word, X, point) for X in family]
            try:
                batch = _pushed(family, word, family, point)
            except FlowError as err:
                assert all(type(s) is type(err) for s in singles)
                assert all(s.step == err.step for s in singles)
                continue
            for single, column in zip(singles, batch):
                assert np.array_equal(single, column)

    def test_ode_batch_matches_singles(self, vf):
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(CUBIC_PAIR)]
        point = (0.3, 0.7)
        compared = 0
        for word in WordSampler(seed=5, count=12, max_len=4).words(2):
            singles = [_single_or_error(family, word, X, point) for X in family]
            if any(isinstance(s, FlowError) for s in singles):
                continue
            batch = _pushed(family, word, family, point)
            for single, column in zip(singles, batch):
                scale = max(1.0, float(np.max(np.abs(single))))
                assert np.max(np.abs(column - single)) <= 1e-9 * scale
            compared += 1
        assert compared >= 8

    def test_word_walked_once(self, vf, flow_steps, monkeypatch):
        # one walk back carries the tangent map; no forward walk follows
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(FLAT_PAIR)]
        word = [(0, 0.2), (1, -0.3), (0, 0.1)]
        walks = []
        real = fields._walk
        monkeypatch.setattr(fields, "_walk", lambda *a: walks.append(1) or real(*a))
        _pushed(family, word, family, (0.3, 0.7))
        assert len(walks) == 1
        assert flow_steps == [(family[i], -t) for i, t in reversed(word)]

    def test_tangent_leaving_the_box_fails_ode_row(self, vf):
        # x' = x^2 walks back from 1 to 1 / (1 - 0.9995) = 2000 with tangent
        # 1 / (1 - 0.9995)^2 = 4e6: the point stays inside the box, its
        # tangent leaves it
        X = vf("X", ["x1^2"], 1)
        with pytest.raises(IntegrationError, match="escaped the bounding box"):
            pushforward_along_word([X], [(0, -0.9995)], X, (1.0,))
        assert pushforward_along_word([X], [(0, -0.99)], X, (1.0,)) == pytest.approx([1.0])

    def test_singular_tangent_map_fails_only_its_word(self, vf):
        # walking back along S = (x1, x2) for time -800 underflows the point
        # and its tangent map to zero; one singular matrix must not fail the
        # stacked solve of the other words
        S = vf("S", ["x1", "x2"], 2)
        singular, (ordinary,) = pushforward_along_words([S], [[(0, 800.0)], [(0, 0.5)]],
                                                        [(S,), (S,)], [(0.3, 0.7)] * 2)
        assert isinstance(singular, IntegrationError)
        assert str(singular) == "pushforward is not finite"
        assert np.array_equal(ordinary, pushforward_along_word([S], [(0, 0.5)], S, (0.3, 0.7)))

    def test_undefined_field_gives_none(self, vf):
        family = [vf("X", ["1", "0"], 2)]
        g1 = vf("g1", ["0", "1"], 2, [(1, ">", Fraction(-1, 2))])
        g2 = vf("g2", ["x1", "1"], 2)
        word = [(0, 0.75)]  # pulls (0, 0) back to (-0.75, 0), outside g1's domain
        missing, pushed = _pushed(family, word, [g1, g2], (0.0, 0.0))
        assert missing is None
        assert np.array_equal(pushed, pushforward_along_word(family, word, g2, (0.0, 0.0)))
        with pytest.raises(DomainExitError, match="g1 is undefined"):
            pushforward_along_word(family, word, g1, (0.0, 0.0))

    def test_failing_step_raises_once_with_step(self, vf):
        X1 = vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1, 2))])
        X2 = vf("X2", ["0", "1"], 2)
        word = [(0, -1.0), (1, 0.3)]  # the inverse walk leaves X1's domain
        for push in (_pushed, pushforward_along_word):
            with pytest.raises(DomainExitError) as err:
                push([X1, X2], word, [X1, X2] if push is _pushed else X2, (0.0, 0.0))
            assert err.value.step == 1

    def test_single_field_returns_one_vector(self, vf):
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(CUBIC_PAIR)]
        v = pushforward_along_word(family, [(1, 0.2), (0, -0.1)], family[1], (0.3, 0.7))
        assert isinstance(v, np.ndarray) and v.shape == (2,)
        batch = _pushed(family, [(1, 0.2)], family[:1], (0.3, 0.7))
        assert isinstance(batch, list) and len(batch) == 1


def _stacked_families(vf):
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    return {
        "straight": [vf(f"X{j + 1}", c, 2) for j, c in enumerate(FLAT_PAIR)],
        "half-plane-translations": [vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1))]),
                                    vf("X2", ["0", "1"], 2, [(1, ">", Fraction(-1))])],
        "diagonal-affine": [vf("X1", ["x1", "0"], 2, [(1, "<", 3 * half)]),
                            vf("X2", ["0", "x2"], 2, [(2, ">", -half)])],
        "rotation": [vf("R", ["-x2", "x1"], 2, [(1, "<", half)]), vf("X", ["1", "0"], 2)],
        "double-integrator": [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)],
        # A and C blow up in finite time and leave the bounding box
        "blow-up": [vf("A", ["x1^2", "0"], 2), vf("B", ["0", "1"], 2, [(1, ">", -half)]),
                    vf("C", ["0", "x2^3"], 2)],
        # X1 is undefined at many pulled-back points, so rows carry fewer columns
        "half-plane": [vf("X1", ["1", "0"], 2, [(1, "<", tenth)]), vf("X2", ["0", "x1"], 2)],
        # one step of S leaves the bounding box
        "box-escape": [vf("S", ["3000000", "0"], 2), vf("T", ["0", "1"], 2, [(2, "<", half)])],
    }


# outcomes each family must reach, so that the comparison covers them
STACKED_OUTCOMES = {
    "half-plane-translations": {"start point outside the domain", "left its domain"},
    "diagonal-affine": {"left its domain"},
    "rotation": {"left its domain"},
    "blow-up": {"escaped the bounding box"},
    "half-plane": {"undefined at the pulled-back point", "None column"},
    "box-escape": {"escaped the bounding box"},
}
ZERO_TIME_WORDS = [(), ((0, 0.0),), ((0, 0.3), (1, 0.0), (0, -0.3)), ((1, 0.0), (1, 0.2))]


def _one_word(walk, *args):
    try:
        return walk(*args)
    except FlowError as err:
        return err


def _outcome(a, b, seen):
    """Whether two walk results are the same, error for error and float
    for float; records what kind of outcome it was in ``seen``."""
    if isinstance(a, FlowError):
        seen.update(m for m in ("start point outside the domain", "left its domain",
                                "escaped the bounding box", "integrator failed",
                                "undefined at the pulled-back point") if m in str(a))
        return (type(a), str(a), a.step, getattr(a, "exit_time", None)) == (
            type(b), str(b), b.step, getattr(b, "exit_time", None))
    if isinstance(a, list):
        seen.update(["None column"] if any(x is None for x in a) else [])
        return len(a) == len(b) and all(
            x is y is None or (x is not None and y is not None and np.array_equal(x, y))
            for x, y in zip(a, b))
    return isinstance(b, np.ndarray) and np.array_equal(a, b)


class TestStackedWalk:
    """All words of a call walk together, position by position; each word
    ends as its own one-word walk does."""

    @pytest.mark.parametrize("name", list(_stacked_families(make_field)))
    def test_stacked_walk_equals_one_word_walks(self, vf, name):
        family = _stacked_families(vf)[name]
        ode = name in ("rotation", "blow-up")
        sampler = WordSampler(seed=7, count=8 if ode else 40, max_len=5, max_time=1.0)
        words = sampler.words(len(family)) + ZERO_TIME_WORDS
        seen = set()
        for point in [(0.3, 0.7), (Fraction(1, 2), Fraction(-1, 3)), (0.05, -0.6)]:
            stacked = apply_words(family, words, [point] * len(words))
            for w, got in zip(words, stacked):
                assert _outcome(_one_word(apply_word, family, w, point), got, seen), w
            for X in (family, family[0]):
                single = X is family[0]
                stacked = pushforward_along_words(family, words,
                                                  [(X,) if single else X] * len(words),
                                                  [point] * len(words))
                for w, got in zip(words, stacked):
                    want = _one_word(pushforward_along_word if single else _pushed, family, w,
                                     X, point)
                    if single and isinstance(got, list):
                        # a lone field's one-word call gives its vector, and
                        # raises where the field is undefined
                        (got,) = got
                        if got is None:
                            got = DomainExitError(f"{X.name} is undefined at the pulled-back "
                                                  "point")
                    assert _outcome(want, got, seen), (w, X)
        assert STACKED_OUTCOMES.get(name, set()) <= seen

    @pytest.mark.parametrize("walk_rows", [3, fields.WALK_ROWS])
    @pytest.mark.parametrize("name", ["half-plane-translations", "diagonal-affine", "blow-up"])
    def test_each_word_walks_from_its_own_point(self, vf, monkeypatch, name, walk_rows):
        # walks of three words split the call into runs
        monkeypatch.setattr(fields, "WALK_ROWS", walk_rows)
        family = _stacked_families(vf)[name]
        words = WordSampler(seed=9, count=8 if name == "blow-up" else 30, max_len=4,
                            max_time=1.0).words(len(family)) + ZERO_TIME_WORDS
        points = [(0.3, 0.7), (Fraction(1, 2), Fraction(-1, 3)), (-1.5, 0.2), (2.0, -0.6)]
        starts = [points[r % len(points)] for r in range(len(words))]
        seen = set()
        for w, p, got in zip(words, starts, apply_words(family, words, iter(starts))):
            assert _outcome(_one_word(apply_word, family, w, p), got, seen), (w, p)
        pushed = pushforward_along_words(family, words, [family] * len(words), starts)
        for w, p, got in zip(words, starts, pushed):
            assert _outcome(_one_word(_pushed, family, w, family, p), got, seen)
        assert len(pushed) == len(words)
        assert {"half-plane-translations": {"start point outside the domain", "left its domain"},
                "diagonal-affine": {"start point outside the domain", "left its domain"},
                "blow-up": {"escaped the bounding box"}}[name] <= seen

    @pytest.mark.parametrize("entry", ["apply_words", "pushforward_along_words", "flow"])
    def test_point_of_another_dimension_is_rejected(self, entry):
        family = parse_system(PRESETS["nonintegrable-shear"].system_text).fields
        call = {"apply_words": lambda: apply_words(family, [((0, 0.5),)], [(0.0, 0.0)]),
                "pushforward_along_words": lambda: pushforward_along_words(
                    family, [((0, 0.5),)], [family], [(0.0, 0.0)]),
                "flow": lambda: flow(family[0], 0.5, (0.0, 0.0))}[entry]
        with pytest.raises(ValueError, match="has 2 coordinates, the fields have 3"):
            call()

    @pytest.mark.parametrize("as_input", [list, iter], ids=["lists", "iterators"])
    @pytest.mark.parametrize("entry, words, points, sequences, error", [
        ("apply_words", 2, 1, None, "one start point per word: 1 for 2 words"),
        ("apply_words", 1, 2, None, "one start point per word: 2 for 1 words"),
        ("apply_words", 7, 5, None, "one start point per word: 5 for 7 words"),
        ("apply_words", 6, 7, None, "one start point per word: 7 for 6 words"),
        ("pushforward_along_words", 2, 2, 1, "one field sequence per word: 1 for 2 words"),
        ("pushforward_along_words", 7, 8, 7, "one start point per word: 8 for 7 words"),
    ], ids=["too-few-points", "too-many-points", "too-few-points-in-a-later-run",
            "a-point-after-full-runs", "too-few-field-sequences", "too-many-points-to-push"])
    def test_one_entry_per_word(self, monkeypatch, as_input, entry, words, points, sequences,
                                error):
        # runs of three words: 7 words walk as 3, 3 and 1, and 6 as two full runs
        monkeypatch.setattr(fields, "WALK_ROWS", 3)
        family = parse_system(PRESETS["nonintegrable-shear"].system_text).fields
        args = [as_input([((0, 0.5), (1, -0.25))] * words), as_input([(0.0, 0.0, 0.0)] * points)]
        if sequences is not None:
            args.insert(1, as_input([family] * sequences))
        with pytest.raises(ValueError) as err:
            getattr(fields, entry)(family, *args)
        assert str(err.value) == error

    def test_straight_exit_reports_its_step_and_time(self, vf):
        X1 = vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1))])
        X2 = vf("X2", ["0", "1"], 2)
        words = [[(0, 0.5), (1, 0.2), (0, 0.75)], [(1, 1.0), (0, 2.0)], [(0, -3.0)]]
        first, second, inside = apply_words([X1, X2], words, [(0.0, 0.0)] * 3)
        assert isinstance(first, DomainExitError) and isinstance(second, DomainExitError)
        assert (first.step, first.exit_time) == (2, 0.75)
        assert (second.step, second.exit_time) == (1, 2.0)
        assert np.array_equal(inside, [-3.0, 0.0])

    def test_straight_step_matches_one_point_arithmetic(self, vf):
        # X3 = (x2^2, 0) is constant along its own flow lines
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(FLAT_PAIR)]
        family.append(vf("X3", ["x2^2", "0"], 2))
        words = WordSampler(seed=3, count=40, max_len=5).words(3) + ZERO_TIME_WORDS
        point = (0.3, 0.7)
        V0 = np.column_stack([fields.value_float(X, point) for X in family])
        P, V, errors = fields._walk(family, words, [point] * len(words), [V0] * len(words))
        assert errors == [None] * len(words)
        for w, p, Vw in zip(words, P, V):
            q, U = np.array(point), V0
            for i, t in w:
                X = family[i]
                q, U = (q + t * fields.value_float(X, q),
                        (fields._flow_kind(X).eye + t * _jacobian(X, q)) @ U)
            assert np.array_equal(p, q) and np.array_equal(Vw, U)


    @pytest.mark.parametrize("name", ["diagonal", "diagonal-restricted", "non-diagonal",
                                      "scaling-3d", "nilpotent-3d", "reordered-nilpotent-3d"])
    def test_affine_step_matches_one_point_arithmetic(self, vf, name):
        half = Fraction(1, 2)
        family = {
            "diagonal": [vf("X1", ["x1", "0"], 2), vf("X2", ["0", "-x2"], 2)],
            "diagonal-restricted": [vf("X1", ["x1", "0"], 2, [(1, "<", 3 * half)]),
                                    vf("X2", ["0", "x2"], 2, [(2, ">", -half)])],
            "non-diagonal": [vf("X1", ["x2", "1"], 2), vf("N", ["-2*x2+1", "1/2"], 2)],
            # pure scalings take the closed-form exponential, not expm
            "scaling-3d": [vf("S1", ["x1", "0", "-x3"], 3), vf("S2", ["0", "-2*x2", "0"], 3),
                           vf("S3", ["3*x1", "x2", "0"], 3)],
            # strictly upper and strictly lower triangular M
            "nilpotent-3d": [vf("N1", ["x2", "x3", "1"], 3), vf("N2", ["0", "x1", "x2"], 3)],
            # M triangular only in another order of the coordinates
            "reordered-nilpotent-3d": [vf("R1", ["1", "x1", "x2"], 3),
                                       vf("R2", ["x3", "0", "x2+1"], 3)],
        }[name]
        assert all(fields._flow_kind(X).kind == "affine" for X in family)
        # WordSampler times are uniform on [-2, 2], so half the steps run backwards
        words = WordSampler(seed=3, count=60, max_len=5, max_time=2.0).words(len(family))
        words += ZERO_TIME_WORDS
        point = (0.3, -0.0, -0.7) if name.endswith("3d") else (0.3, 0.7)
        V0 = np.column_stack([fields.value_float(X, point) for X in family])
        P, V, errors = fields._walk(family, words, [point] * len(words), [V0] * len(words))
        seen = set()
        for w, p, Vw, err in zip(words, P, V, errors):
            want = _affine_steps(family, w, point, V0)
            if isinstance(want, FlowError):
                assert (type(err), str(err), err.step, err.exit_time) == (
                    type(want), str(want), want.step, want.exit_time), w
                seen.add("exit")
                continue
            assert err is None, w
            assert np.array_equal(p, want[0]) and np.array_equal(Vw, want[1]), w
            assert np.array_equal(np.signbit(p), np.signbit(want[0])), w
            seen.add("moved")
        assert "moved" in seen
        assert ("exit" in seen) == name.endswith("restricted")

    @pytest.mark.parametrize("domain, calls", [((), 1), ([(1, "<", Fraction(1, 2))], 0)])
    def test_affine_group_makes_one_stacked_expm(self, vf, monkeypatch, domain, calls):
        # a nilpotent field on a restricted domain is an ODE field
        X = vf("X", ["x2", "1"], 2, domain)
        made = []
        real = fields.expm
        monkeypatch.setattr(fields, "expm", lambda A: made.append(A.shape) or real(A))
        P = np.array([[0.0, 0.1 * k] for k in range(5)])
        V = np.array([np.eye(2)] * 5)
        assert fields._step_group(X, np.array([0.1, 0.2, 0.3, -0.4, 0.5]), np.arange(5), P,
                                  V) == {}
        assert made == [(5, 3, 3)] * calls

    @pytest.mark.parametrize(
        "comps, domain, kind, calls",
        [(["x1", "-2*x2"], [(1, "<", Fraction(1))], "affine", 0),
         (["x2", "1"], (), "affine", 1), (["1", "x1"], (), "affine", 1),
         (["x1", "-x2+1"], (), "ode", 0), (["x1", "x1+x2"], (), "ode", 0),
         (["-x2", "x1"], (), "ode", 0), (["x2", "1"], [(1, "<", Fraction(1))], "ode", 0)],
        ids=["scaling", "nilpotent", "reordered-nilpotent", "offset", "off-diagonal", "rotation",
             "restricted-nilpotent"])
    def test_only_non_scaling_groups_call_expm(self, vf, monkeypatch, comps, domain, kind,
                                               calls):
        # only scalings (on any domain) and nilpotent fields on R^n flow in
        # closed form: every other affine field is an ODE field
        X = vf("X", comps, 2, domain)
        assert fields._flow_kind(X).kind == kind
        made = []
        real = fields.expm
        monkeypatch.setattr(fields, "expm", lambda A: made.append(A.shape) or real(A))
        P = np.array([[0.3, 0.1 * k] for k in range(5)])
        V = np.array([np.eye(2)] * 5)
        assert fields._step_group(X, np.array([0.1, 0.2, 0.3, -0.4, 0.5]), np.arange(5), P,
                                  V) == {}
        assert made == [(5, 3, 3)] * calls

    def test_non_finite_step_fails(self, vf):
        # X2's value is exp(800) - exp(900) = inf - inf at x1 = 1
        family = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "exp(800*x1)-exp(900*x1)"], 2)]
        word = [(0, 0.5), (1, 0.1)]
        with pytest.raises(IntegrationError, match="non-finite") as err:
            apply_word(family, word, (0.5, 0.0))
        assert err.value.step == 1
        with pytest.raises(IntegrationError, match="non-finite"):
            _pushed(family, [(1, 0.1)], family, (1.0, 0.0))
        report = sampled_orbit(family, (0.5, 0.0), WordSampler(seed=1, count=40))
        assert report.words_skipped > 0
        assert report.words_used + report.words_skipped == 40


def _affine_steps(family, word, point, V0):
    """A word walked step by step with one one-matrix ``fields.expm(t M)``
    per step: the end point and matrix, or the FlowError that stops the
    word."""
    q, U = np.array(point, dtype=float), V0
    n = len(q)
    for step, (i, t) in enumerate(word):
        X = family[i]
        err = None
        if not X.domain.contains(q.tolist()):
            err = DomainExitError(f"start point outside the domain of {X.name}", 0.0)
        elif t != 0.0:
            F = fields.expm(fields._flow_kind(X).M * t)
            q, U = F[:n, :n] @ q + F[:n, n], F[:n, :n] @ U
            if not X.domain.contains(q.tolist()):
                err = DomainExitError(f"trajectory of {X.name} left its domain", t)
            elif np.abs(q).max() > fields.DEFAULT_BOX:
                err = IntegrationError("trajectory escaped the bounding box")
        if err is not None:
            err.step = step
            return err
    return q, U


@lru_cache(maxsize=None)
def _jacobian_rows(X):
    return tuple(tuple(compile_float(e) for e in row) for row in fields.jacobian_exprs(X))


def _jacobian(X, point):
    """DX at the point from X's Jacobian entries, each compiled once."""
    pt = [float(v) for v in point]
    return np.array([[f(pt) for f in row] for row in _jacobian_rows(X)], dtype=float)


# the affine field (x2, 1) of the double-integrator preset: x' = A x + b as
# M = [[A, b], [0, 0]], strictly upper triangular
DOUBLE_INTEGRATOR_M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


class TestExpm:
    """``fields.expm``, the stacked matrix exponential of affine flows."""

    def test_double_integrator_is_its_exact_taylor_sum(self, vf):
        assert np.array_equal(fields._flow_kind(vf("X1", ["x2", "1"], 2)).M, DOUBLE_INTEGRATOR_M)
        t = np.random.default_rng(1).uniform(-3.0, 3.0, size=200)
        F = fields.expm(DOUBLE_INTEGRATOR_M * t[:, None, None])
        for s, Fs in zip(t.tolist(), F):
            assert np.array_equal(Fs, [[1.0, s, s * s / 2], [0.0, 1.0, s], [0.0, 0.0, 1.0]]), s
        # strictly lower triangular matrices are nilpotent too
        assert np.array_equal(fields.expm(DOUBLE_INTEGRATOR_M.T * t[:, None, None]),
                              F.transpose(0, 2, 1))
        # and so is any matrix that a reordering makes triangular: (1, x1)
        # is the double integrator with x1 and x2 swapped
        assert np.array_equal(fields._flow_kind(vf("X1", ["1", "x1"], 2)).M,
                              DOUBLE_INTEGRATOR_M[[1, 0, 2]][:, [1, 0, 2]])
        assert np.array_equal(fields.expm(DOUBLE_INTEGRATOR_M[[1, 0, 2]][:, [1, 0, 2]]
                                          * t[:, None, None]), F[:, [1, 0, 2]][:, :, [1, 0, 2]])

    def test_row_bits_do_not_depend_on_batch(self):
        # strictly upper, strictly lower and diagonal matrices, and one NaN
        rng = np.random.default_rng(29)
        A = rng.normal(size=(300, 3, 3)) * 10 ** rng.uniform(-2.0, 1.9, size=(300, 1, 1))
        A = np.where(np.arange(300)[:, None, None] % 2, np.triu(A, 1), np.tril(A, -1))
        A[3::11] = np.eye(3) * rng.uniform(-5.0, 5.0, size=(27, 1, 3))
        A[5, 1, 0] = math.nan
        F = fields.expm(A)
        for r in range(300):
            assert np.array_equal(fields.expm(A[r]), F[r], equal_nan=True), r
            assert np.array_equal(fields.expm(A[r:r + 1]), F[r:r + 1], equal_nan=True), r
        assert np.isfinite(np.delete(F, 5, axis=0)).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_gives_non_finite_result(self, bad):
        rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in (DOUBLE_INTEGRATOR_M, np.diag([1.0, -2.0, 0.0]), rotation):
                for i, j in ((0, 1), (1, 1), (2, 0)):
                    A = M.copy()
                    A[i, j] = bad
                    assert not np.isfinite(fields.expm(A)).any(), (M, i, j)

    def test_other_matrices_raise(self):
        # closed-form affine flows are only scalings and nilpotent fields
        rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="strictly triangular or diagonal"):
            fields.expm(np.stack([DOUBLE_INTEGRATOR_M, rotation]))


class TestNonFiniteStepsAreQuiet:
    """A flow step that overflows fails with an IntegrationError and prints
    no numpy warning."""

    @pytest.mark.parametrize("comps", [["x1", "0"], ["x2", "1"], ["-x2", "x1"], ["1", "0"],
                                       ["x2", "-x1-x1^3"]],
                             ids=["scaling", "nilpotent", "rotation", "straight", "duffing"])
    def test_infinite_time_raises_without_warning(self, vf, comps):
        # an ODE row with a non-finite time fails before its first step, not
        # after spending its whole right-hand-side budget
        for t in (math.inf, -math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError) as err:
                    flow(vf("X", comps, 2), t, (0.5, 0.25))
            assert str(err.value) == "flow step gave a non-finite value", t

    def test_overflowing_orbit_writes_nothing_to_stderr(self, tmp_path):
        system = tmp_path / "big.vf"
        system.write_text("system big dim 2\nfield X1 = (x1, 0)\nfield X2 = (x2, 1)\n")
        src = str(pathlib.Path(fields.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run(
            [sys.executable, "-m", "vfkit.cli", "orbit", "--system", str(system), "--point",
             "1/2,1/4", "--max-time", "1e300", "--words", "20"],
            env=env, capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")


DUFFING = ["x2", "-x1-x1^3"]  # polynomial ODE field with bounded orbits
DAMPED = ["x2*exp(-x1^2)", "-x1+1/10*exp(x1)"]  # non-polynomial ODE field


def _ode_group(X, points, times, V=None):
    """One stacked ODE step of X for the given rows: per row (end point,
    transported matrix) or its FlowError."""
    P = np.array([list(map(float, q)) for q in points])
    V = None if V is None else np.array(V, dtype=float)
    failed = fields._step_group(X, np.array(times, dtype=float), np.arange(len(P)), P, V)
    return [failed[r] if r in failed else (np.array(P[r]), None if V is None else V[r])
            for r in range(len(P))]


def _same_row(a, b):
    if isinstance(a, FlowError):
        return (type(a), str(a), getattr(a, "exit_time", None)) == (
            type(b), str(b), getattr(b, "exit_time", None))
    return (not isinstance(b, FlowError) and np.array_equal(a[0], b[0])
            and (a[1] is b[1] is None or np.array_equal(a[1], b[1])))


class TestIntegrator:
    """``fields.solve_ivp``, the stacked Dormand-Prince 5(4) of ODE groups."""

    def test_riccati_closed_form_and_jacobian(self, vf):
        # x' = x^2 flows x to x / (1 - t x), with Jacobian 1 / (1 - t x)^2
        X = vf("Q", ["x1^2"], 1)
        starts = [(a,) for a in np.linspace(-2.0, 1.2, 9) for _ in range(4)]
        times = [t for _ in range(9) for t in (-0.4, -0.2, 0.3, 0.55)]
        rows = _ode_group(X, starts, times, [np.eye(1)] * len(starts))
        for (a,), t, row in zip(starts, times, rows):
            assert not isinstance(row, FlowError)
            end, jac = row
            assert end[0] == pytest.approx(a / (1 - t * a), rel=1e-9, abs=1e-12)
            assert jac[0, 0] == pytest.approx(1 / (1 - t * a) ** 2, rel=1e-9)

    @pytest.mark.parametrize("comps", [DUFFING, DAMPED], ids=["polynomial", "non-polynomial"])
    def test_matches_scipy_at_tight_tolerance(self, vf, comps):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        X = vf("X", comps, 2)
        rng = np.random.default_rng(3)
        starts = rng.uniform(-0.8, 0.8, size=(12, 2))
        times = rng.uniform(-1.0, 1.0, size=12)
        V0 = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(12)]

        def rhs(_, y):
            jac = _jacobian(X, y[:2])
            return np.concatenate([fields.value_float(X, y[:2]),
                                   (jac @ y[2:].reshape(2, 2)).ravel()])

        for p, t, v, row in zip(starts, times, V0, _ode_group(X, starts, times, V0)):
            sol = solve_ivp(rhs, (0.0, t), np.concatenate([p, v.ravel()]), method="RK45",
                            rtol=1e-13, atol=1e-15)
            want = sol.y[:, -1]
            got = np.concatenate([row[0], row[1].ravel()])
            assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("comps,domain", [(["x1^2+x2^2", "0"], []),
                                              (DAMPED, [(1, "<", Fraction(4, 5))])],
                             ids=["polynomial", "non-polynomial"])
    def test_row_bits_do_not_depend_on_batch(self, vf, comps, domain):
        X = vf("X", comps, 2, domain)
        rng = np.random.default_rng(17)
        starts = rng.uniform(-1.0, 1.0, size=(300, 2))
        times = rng.uniform(-3.0, 3.0, size=300)
        V0 = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(300)]
        for V in (None, V0):
            batch = _ode_group(X, starts, times, V)
            kinds = set()
            for r in range(0, 300, 12):
                alone = _ode_group(X, starts[r:r + 1], times[r:r + 1],
                                   None if V is None else V[r:r + 1])
                assert _same_row(alone[0], batch[r]), r
                kinds.add(type(batch[r]).__name__)
            assert "tuple" in kinds and len(kinds) > 1  # rows that end and rows that fail

    def test_domain_exit_time_matches_closed_form(self, vf):
        # from x = 1, x' = x^2 reaches 2 at t = 1/2 and 1/2 at t = -1
        for bound, t, exit_time in (((1, "<", Fraction(2)), 1.0, 0.5),
                                    ((1, ">", Fraction(1, 2)), -2.0, -1.0)):
            X = vf("Q", ["x1^2"], 1, [bound])
            with pytest.raises(DomainExitError) as err:
                flow(X, t, (1.0,))
            assert err.value.exit_time == pytest.approx(exit_time, abs=1e-9)

    def test_budget_fails_only_its_own_row(self, vf, monkeypatch):
        monkeypatch.setattr(fields, "MAX_RHS_EVALS", 400)
        X = vf("D", DUFFING, 2)
        starts, times = [(1.0, 0.0)] * 4, [0.1, -0.3, 50.0, 0.7]
        rows = _ode_group(X, starts, times)
        assert isinstance(rows[2], IntegrationError)
        assert "integration budget exceeded" in str(rows[2])
        for r in (0, 1, 3):
            assert _same_row(_ode_group(X, starts[r:r + 1], times[r:r + 1])[0], rows[r])

    def test_non_finite_row_fails_alone(self, vf):
        # at x1 = 1 the first component is exp(800) - exp(900) = inf - inf
        X = vf("N", ["exp(800*x1)-exp(900*x1)", "x2"], 2)
        rows = _ode_group(X, [(1.0, 0.5), (-0.5, 0.5)], [0.2, 0.2])
        assert isinstance(rows[0], IntegrationError) and "non-finite" in str(rows[0])
        assert not isinstance(rows[1], FlowError)
        with pytest.raises(IntegrationError, match="non-finite"):
            flow(X, 0.2, (1.0, 0.5))


class TestCompiledEvaluation:
    def test_each_field_compiled_once_per_cache_lifetime(self, vf, monkeypatch):
        family = [vf(f"X{j + 1}", c, 2) for j, c in enumerate(CUBIC_PAIR)]
        fields._flow_kind.cache_clear()
        fields.jacobian_exprs.cache_clear()
        compiled = []
        real = fields.compile_float
        monkeypatch.setattr(
            fields, "compile_float", lambda e: compiled.append(e) or real(e)
        )
        walked = []
        real_eval = Expr.eval_float
        monkeypatch.setattr(
            Expr, "eval_float", lambda *a: walked.append(1) or real_eval(*a)
        )
        # values only: X1 is straight with DX = 0, and X2 a polynomial ODE
        # field, whose Jacobian runs on its monomials
        once = sum(X.dim for X in family)
        word = [(0, 0.1), (1, 0.1), (0, -0.05)]
        for _ in range(100):
            _pushed(family, word, family, (0.3, 0.7))
        assert len(compiled) == once
        assert not walked  # flow steps never evaluate an Expr directly
        fields._flow_kind.cache_clear()
        fields.jacobian_exprs.cache_clear()
        _pushed(family, word, family, (0.3, 0.7))
        assert len(compiled) == 2 * once

    def test_field_hashed_once_across_lookups(self, vf, monkeypatch):
        half = [(1, "<", Fraction(1))]
        X = vf("X", ["1", "x1*x2"], 2, half)
        hashed = []
        real = DomainPredicate.__hash__
        monkeypatch.setattr(
            DomainPredicate, "__hash__", lambda d: hashed.append(1) or real(d)
        )
        kinds = {id(fields._flow_kind(X)) for _ in range(100)}
        assert len(kinds) == 1
        assert len(hashed) <= 1
        twin = vf("X", ["1", "x1*x2"], 2, half)
        assert twin == X and hash(twin) == hash(X)
        assert fields._flow_kind(twin) is fields._flow_kind(X)

    def test_value_closure_compiles_each_component_once(self, vf, monkeypatch):
        # exactly at the first rational point, to floats at the first point
        # that needs them, however many points follow
        X = vf("X", ["x1^2", "bumpp(x1)"], 2)
        compiled = []
        for name in ("compile_float", "compile_exact"):
            real = getattr(vectorfield, name)
            monkeypatch.setattr(vectorfield, name,
                                lambda e, real=real, name=name: compiled.append(name) or real(e))
        points = [(0.5, 1.0), (Fraction(1, 2), 1), (Fraction(-1, 2), 0), (0.25, -1.0)]
        (value,) = field_evaluators([X])
        got = [value(p) for p in points]
        assert sorted(compiled) == ["compile_exact"] * 2 + ["compile_float"] * 2
        assert got == [vectorfield.field_values([X], [p])[0][0] for p in points]
        assert got[1][0] == 0.25 and got[2] == [Fraction(1, 4), 0]
        assert [type(v) for p in got for v in p] == [float] * 4 + [Fraction] * 2 + [float] * 2

