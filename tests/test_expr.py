import math
import struct
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vfkit.expr import (
    FLAT_EVAL_EPS,
    ONE,
    ZERO,
    Atom,
    Expr,
    EvalError,
    ExprError,
    ParseError,
    bump,
    bumpp,
    compile_exact,
    compile_float,
    const,
    divide,
    exp_of,
    parse,
    poly_coeff_dict,
    poly_from_coeff_dict,
    sum_products,
    var,
)
from vfkit.fields import jacobian_exprs, value_float
from vfkit.vectorfield import VectorField

N = 3


def poly_exprs(max_terms=4, max_degree=3, nvars=N):
    """Random polynomial expressions with small rational coefficients."""
    coeff = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
    ).filter(lambda q: q != 0)
    mono = st.lists(
        st.tuples(st.integers(1, nvars), st.integers(1, max_degree)),
        min_size=0,
        max_size=2,
    )

    def build(terms):
        e = const(0)
        for c, factors in terms:
            t = const(c)
            for idx, k in factors:
                t = t * var(idx).int_pow(k)
            e = e + t
        return e

    return st.lists(st.tuples(coeff, mono), min_size=0, max_size=max_terms).map(build)


class TestParsing:
    def test_sum_of_squares(self):
        e = parse("x1^2 + x2^2", 2)
        assert len(e.terms) == 2
        assert e.is_polynomial()
        assert e.total_degree() == 2

    def test_bumpp_node(self):
        e = parse("bumpp(x1)", 2)
        assert not e.is_polynomial()
        assert str(e) == "bumpp(x1)"

    def test_umbrella_polynomial(self):
        e = parse("x3*(x1^2+x2^2) - x2^3", 3)
        assert e.is_polynomial()
        assert e.total_degree() == 3
        assert len(e.terms) == 3

    def test_parse_print_parse_idempotent(self):
        for text in [
            "x1^2 + x2^2",
            "2*x1^-3*bump(x1)",
            "bumpp(x1)*x2 - 1/2",
            "exp(x1+x2)",
            "x3*(x1^2+x2^2) - x2^3",
        ]:
            once = parse(text, 3)
            assert parse(str(once), 3) == once

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("x4 + 1", 3)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * 2", 2)
        assert "column" in str(err.value)

    def test_only_ascii_digits(self):
        # str.isdigit takes "²" and "١" too: int() rejects the first, and
        # "x١" would read as x1
        with pytest.raises(ParseError, match=r"unexpected character '²' \(line 1, column 4\)"):
            parse("x1^²", 1)
        with pytest.raises(ParseError, match="unknown identifier 'x١'"):
            parse("x١", 1)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse("x1^x2", 2)

    def test_negative_exponent_allowed(self):
        assert parse("x1^-3", 1) == var(1).int_pow(-3)

    def test_division_cancels_to_polynomial(self):
        assert parse("(x1^2+x1)/x1", 1) == parse("x1 + 1", 1)
        assert parse("(x1^2-x2^2)/(x1+x2)", 2) == parse("x1 - x2", 2)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ExprError):
            parse("x1/0", 1)

    def test_positive_power_of_an_inverse_base_expands(self):
        # the inverse of a single inverse-base term is its polynomial base
        e = parse("((x1+1)^-1)^-1", 2)
        assert e == parse("x1+1", 2)
        assert e.is_polynomial()
        assert compile_exact(e)((1, 0)) == 2
        assert parse("((x1+1)^-1)^-2", 2) == parse("(x1+1)^2", 2)


def parse_trees(n=2, functions=True):
    """Random expression trees as (text, thunk): the text fully
    parenthesised, the thunk computing the Expr with ``Expr``'s operators
    and ``divide`` in the order the parser meets them.  Powers run from -2
    to 3, unary minus binds looser than ``^``, and with ``functions`` exp,
    bump and bumpp nodes mix non-polynomial terms in."""
    leaves = st.one_of(
        st.integers(0, 4).map(lambda k: (str(k), lambda: const(k))),
        st.integers(1, n).map(lambda i: (f"x{i}", lambda: var(i))),
    )
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": divide}

    def extend(trees):
        nodes = [
            st.tuples(trees, st.sampled_from(sorted(ops)), trees).map(
                lambda t: (f"({t[0][0]}){t[1]}({t[2][0]})",
                           lambda: ops[t[1]](t[0][1](), t[2][1]()))),
            st.tuples(trees, st.integers(-2, 3)).map(
                lambda t: (f"({t[0][0]})^{t[1]}", lambda: t[0][1]().int_pow(t[1]))),
            st.tuples(trees, st.integers(-2, 3)).map(
                lambda t: (f"-({t[0][0]})^{t[1]}", lambda: -t[0][1]().int_pow(t[1]))),
            trees.map(lambda t: (f"-({t[0]})", lambda: -t[1]())),
        ]
        if functions:
            nodes.append(st.tuples(st.sampled_from([("exp", exp_of), ("bump", bump),
                                                    ("bumpp", bumpp)]), trees).map(
                lambda t: (f"{t[0][0]}({t[1][0]})", lambda: t[0][1](t[1][1]()))))
        return st.one_of(nodes)

    return st.recursive(leaves, extend, max_leaves=8)


def assert_parses_as_built(text, build, n=2):
    """parse(text) is the Expr that ``build`` computes term for term, every
    coefficient a Fraction, or raises the same error, which (as an error of
    Expr arithmetic) carries no line or column."""
    try:
        want = build()
    except ExprError as err:
        with pytest.raises(ExprError) as got:
            parse(text, n)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        assert not isinstance(got.value, ParseError)
        return
    got = parse(text, n)
    assert got.terms == want.terms
    assert all(type(c) is Fraction for c, _ in got.terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parse_trees(functions=False))
def test_parsed_polynomial_trees_match_expr_arithmetic(tree):
    assert_parses_as_built(*tree)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parse_trees())
def test_parsed_mixed_trees_match_expr_arithmetic(tree):
    assert_parses_as_built(*tree)


@pytest.mark.parametrize("text, build", [
    ("0^0", lambda: ZERO.int_pow(0)),
    ("(x1-x1)^0", lambda: ZERO.int_pow(0)),
    ("0^-1", lambda: ZERO.int_pow(-1)),
    ("x1/0", lambda: divide(var(1), ZERO)),
    ("x2/(x1-x1)", lambda: divide(var(2), ZERO)),
    ("exp(x1)/(2-2)", lambda: divide(exp_of(var(1)), ZERO)),
    ("(x1+1)^65", lambda: (var(1) + 1).int_pow(65)),
    ("(x1+x2)^-65", lambda: (var(1) + var(2)).int_pow(-65)),
    ("(2*x1)^65", lambda: (2 * var(1)).int_pow(65)),
    ("x1^-2", lambda: var(1).int_pow(-2)),
    ("-x1^2", lambda: -var(1).int_pow(2)),
    ("-x1^-2*x2", lambda: -var(1).int_pow(-2) * var(2)),
    ("(-x1)^-3", lambda: (-var(1)).int_pow(-3)),
    ("2^-3*x1", lambda: const(Fraction(1, 8)) * var(1)),
    ("(1/3)^-2", lambda: const(9)),
    ("x1^2/x1", lambda: var(1)),
    ("x1/x2", lambda: divide(var(1), var(2))),
    ("(x1^2-x2^2)/(x1-x2)", lambda: var(1) + var(2)),
    ("(x1^2+1)/(x1+1)", lambda: divide(var(1) ** 2 + 1, var(1) + 1)),
    ("x1/3", lambda: const(Fraction(1, 3)) * var(1)),
    ("(x1+x2)^+2", lambda: (var(1) + var(2)) ** 2),
])
def test_parse_matches_expr_arithmetic(text, build):
    # errors (0^0, division by zero, an exponent too large to expand) and
    # powers of every sign, each as Expr arithmetic gives it
    assert_parses_as_built(text, build)


def test_a_division_by_a_constant_stays_exact():
    (c, factors), = parse("x1/3", 1).terms
    assert type(c) is Fraction and c == Fraction(1, 3) and factors == var(1).terms[0][1]


class TestDiff:
    def test_power_rule(self):
        assert parse("x1^2+x2^2", 2).diff(1) == parse("2*x1", 2)

    def test_bump_rule(self):
        assert bump(var(1)).diff(1) == parse("2*x1^-3*bump(x1)", 1)

    def test_bump_rule_matches_finite_differences(self):
        # independent oracle: central differences of the two-sided flat
        d = bump(var(1)).diff(1)
        h = 1e-6
        for x in (-1.0, -0.5, 0.5, 1.0, 2.0):
            fd = (
                math.exp(-1.0 / (x + h) ** 2) - math.exp(-1.0 / (x - h) ** 2)
            ) / (2 * h)
            got = d.eval_float((x,))
            assert abs(got - fd) < 1e-6 * max(1.0, abs(fd))

    def test_bumpp_vanishes_left_of_zero(self):
        d = bumpp(var(1)).diff(1)
        for x in (-2, -1, Fraction(-1, 2), 0):
            assert bumpp(var(1)).eval((x,)) == 0
            assert d.eval((x,)) == 0

    def test_exp_chain_rule(self):
        e = exp_of(parse("x1*x2", 2))
        assert e.diff(1) == parse("x2", 2) * e

    def test_flat_closure_under_repeated_diff(self):
        e = bump(var(1))
        for _ in range(4):
            e = e.diff(1)
        # still evaluable and flat at the origin
        assert e.eval_float((0.0,)) == 0.0
        assert e.eval_float((0.5,)) != 0.0


@settings(max_examples=60, derandomize=True)
@given(poly_exprs(), st.integers(1, N), st.integers(1, N))
def test_diff_commutes(e, i, j):
    assert e.diff(i).diff(j) == e.diff(j).diff(i)


@settings(max_examples=60, derandomize=True)
@given(poly_exprs(), poly_exprs(), st.integers(1, N))
def test_leibniz(e, f, i):
    assert (e * f).diff(i) == e.diff(i) * f + e * f.diff(i)


@settings(max_examples=40, derandomize=True)
@given(poly_exprs())
def test_print_parse_roundtrip(e):
    assert parse(str(e), N) == e


@settings(max_examples=40, derandomize=True)
@given(poly_exprs(), poly_exprs())
def test_ring_laws(e, f):
    assert e + f == f + e
    assert e * f == f * e
    assert e - e == const(0)


@settings(max_examples=100, derandomize=True)
@given(poly_exprs(max_terms=6))
def test_coeff_dict_roundtrip(e):
    d = poly_coeff_dict(e, N)
    assert poly_from_coeff_dict(d, N) == e
    # whatever the order of the entries
    assert poly_from_coeff_dict(dict(reversed(d.items())), N) == e
    # the same Expr as summing const * x^k products one operation at a time
    summed = const(0)
    for mono, c in d.items():
        term = const(c)
        for j, k in enumerate(mono):
            term = term * var(j + 1).int_pow(k) if k else term
        summed = summed + term
    assert poly_from_coeff_dict(d, N).terms == summed.terms


def test_coeff_dict_of_zero():
    assert poly_coeff_dict(ZERO, N) == {}
    assert poly_from_coeff_dict({}, N) == ZERO
    assert poly_from_coeff_dict({(1, 0, 2): 0, (0, 0, 0): Fraction(0)}, N) == ZERO
    (c, factors), = poly_from_coeff_dict({(0, 2, 0): 3}, N).terms
    assert type(c) is Fraction and (c, factors) == (3, var(2).int_pow(2).terms[0][1])


class TestEval:
    def test_exact_rational(self):
        assert parse("x1*x2", 2).eval((3, Fraction(1, 2))) == Fraction(3, 2)

    def test_bump_extension_at_zero(self):
        assert parse("bump(x1)", 2).eval((0, 7)) == 0

    def test_logspace_no_nan(self):
        # monomial * flat products must underflow cleanly, never NaN
        e = parse("2*x1^-3*bump(x1)", 2)
        got = e.eval_float((1e-3, 0.0))
        assert got == pytest.approx(0.0, abs=1e-300)
        assert not math.isnan(got)

    def test_bumpp_negative_args_exactly_zero(self):
        e = parse("x2*bumpp(x1) + bumpp(x1)^2", 2)
        for k in range(100):
            x = -5.0 * (k + 1) / 100.0
            assert e.eval_float((x, 3.0)) == 0.0

    def test_pole_raises(self):
        with pytest.raises(EvalError):
            parse("x1^-1", 1).eval_float((0.0,))

    def test_flat_pole_product_extends_by_zero(self):
        assert parse("x1^-1*bump(x1)", 1).eval_float((0.0,)) == 0.0

    @pytest.mark.parametrize("text,x", [
        ("1/bump(x1)", 0), ("1/bump(x1)", 1e-13), ("1/bump(x1)", -1e-13),
        ("1/bumpp(x1)", 0), ("1/bumpp(x1)", 1e-13), ("1/bumpp(x1)", -1),
        ("1/bumpp(x1)", Fraction(-1, 2)), ("x1^3*bumpp(x1)^-2", -2),
        ("bump(x1)/bumpp(x1)", -1), ("bump(x1)/bumpp(x1)", 0),
    ], ids=str)
    def test_negative_flat_power_is_a_pole_on_the_flat_set(self, text, x):
        # bump(0) = 0 and bumpp(u) = 0 for u <= 0: as x1^-1 at 0, exact and float
        e = parse(text, 1)
        for evaluate in (e.eval, e.eval_float, compile_float(e)):
            with pytest.raises(EvalError, match="division by zero at a pole"):
                evaluate([x])

    def test_negative_flat_power_off_the_flat_set(self):
        assert parse("1/bumpp(x1)", 1).eval_float((0.5,)) == math.exp(4.0)
        assert parse("1/bump(x1)", 1).eval((-1,)) == math.exp(1.0)

    def test_inverse_base_eval(self):
        e = parse("x1/(x1+x2)", 2)
        assert e.eval_float((1.0, 1.0)) == pytest.approx(0.5)
        with pytest.raises(EvalError):
            e.eval_float((1.0, -1.0))

    def test_bump_small_argument_threshold(self):
        assert parse("bump(x1)", 1).eval_float((1e-13,)) == 0.0


# -- the exact evaluator against a per-term Fraction sum -------------------------------


def fraction_sum(e, pt):
    """A polynomial's value at a rational point, term by term in Fractions."""
    total = Fraction(0)
    for c, factors in e.terms:
        term = Fraction(c)
        for atom, k in factors:
            term *= Fraction(pt[atom.index - 1]) ** k
        total += term
    return total


def rational_polys(nvars=N):
    """Polynomials in up to nvars variables of degree <= 6, with rational
    coefficients of assorted denominators."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
    mono = st.lists(st.tuples(st.integers(1, nvars), st.integers(1, 3)), max_size=2)
    return st.lists(st.tuples(coeff, mono), max_size=6).map(
        lambda terms: sum((math.prod((var(i) ** k for i, k in f), start=const(c))
                           for c, f in terms), const(0)))


# ints (0 and negatives among them) and Fractions of different denominators
rational_coordinates = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=16))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rational_polys(), st.lists(rational_coordinates, min_size=N, max_size=N))
def test_compiled_exact_matches_fraction_sum(e, pt):
    got = compile_exact(e)(pt)
    assert type(got) is Fraction and got == fraction_sum(e, pt)
    assert e.eval(pt) == got


class TestExactEvaluator:
    def test_flat_factors_on_their_extension_set_give_zero(self):
        x = var(1)
        assert compile_exact(bump(x))((0,)) == 0
        for v in (0, -1, Fraction(-1, 3)):
            assert compile_exact(bumpp(x))((v,)) == 0
        assert compile_exact(x ** -3 * bump(x))((0,)) == 0
        assert compile_exact(parse("x1^-3*bumpp(x1) + x2/3", 2))((0, 1)) == Fraction(1, 3)

    def test_bare_pole_raises(self):
        with pytest.raises(EvalError):
            compile_exact(parse("x1^-1", 1))((0,))
        with pytest.raises(EvalError):  # a flat factor of another argument
            compile_exact(parse("x2^-1*bump(x1)", 2))((0, 0))

    def test_pole_away_from_zero_is_exact(self):
        assert compile_exact(parse("x1^-2*x2 - 1/2", 2))((Fraction(1, 2), 3)) == Fraction(23, 2)

    def test_flat_factor_off_its_zero_set_falls_back_to_floats(self):
        e = bump(var(1))
        assert compile_exact(e)((1,)) is None
        got = e.eval((1,))
        assert type(got) is float and got == math.exp(-1.0)


# -- the compiled evaluator against a tree-walking oracle -------------------------------


def walk_eval_float(e, pt):
    """Reference float evaluation: walks the term tree at every call."""
    total = 0.0
    for c, factors in e.terms:
        total += _term_eval_float(c, factors, pt)
    return total


def _term_eval_float(coeff, factors, pt):
    """One term in log-space so monomial*bump products cannot overflow."""
    if not factors:
        return float(coeff)
    for atom, k in factors:  # a negative flat power: a pole on its flat set
        if atom.kind in ("bump", "bumpp") and k < 0:
            u = walk_eval_float(atom.arg, pt)
            if (abs(u) if atom.kind == "bump" else u) < FLAT_EVAL_EPS:
                raise EvalError("division by zero at a pole")
    flat_zero_args = []
    for atom, k in factors:
        if atom.kind in ("bump", "bumpp") and k > 0:
            u = walk_eval_float(atom.arg, pt)
            if atom.kind == "bump" and abs(u) < FLAT_EVAL_EPS:
                flat_zero_args.append(atom.arg)
            elif atom.kind == "bumpp" and u < FLAT_EVAL_EPS:
                flat_zero_args.append(atom.arg)
    if flat_zero_args:
        # the flat factor pins the term to 0; only an unrelated pole objects
        for atom, k in factors:
            if atom.kind == "var" and k < 0:
                if abs(pt[atom.index - 1]) < FLAT_EVAL_EPS and not any(
                    a == var(atom.index) for a in flat_zero_args
                ):
                    raise EvalError("division by zero at a pole")
            if atom.kind == "invbase":
                if abs(walk_eval_float(atom.arg, pt)) < FLAT_EVAL_EPS and not any(
                    a == atom.arg for a in flat_zero_args
                ):
                    raise EvalError("division by zero at a pole")
        return 0.0
    sign = 1.0 if coeff > 0 else -1.0
    logmag = math.log(abs(float(coeff)))
    for atom, k in factors:
        if atom.kind == "var":
            v = pt[atom.index - 1]
            if v == 0.0:
                if k > 0:
                    return 0.0
                raise EvalError("division by zero at a pole")
            if v < 0 and k % 2:
                sign = -sign
            logmag += k * math.log(abs(v))
        elif atom.kind == "exp":
            logmag += k * walk_eval_float(atom.arg, pt)
        elif atom.kind in ("bump", "bumpp"):
            u = walk_eval_float(atom.arg, pt)
            logmag += k * (-1.0 / (u * u))
        elif atom.kind == "invbase":
            v = walk_eval_float(atom.arg, pt)
            if v == 0.0:
                if k > 0:
                    return 0.0
                raise EvalError("division by zero at a pole")
            if v < 0 and k % 2:
                sign = -sign
            logmag += k * math.log(abs(v))
        else:
            raise ExprError(f"unknown atom kind {atom.kind}")
    try:
        return sign * math.exp(logmag)
    except OverflowError:
        return sign * math.inf


def outcome(evaluate, *args):
    """The bits of a float result, or the type and message of the error."""
    try:
        return ("value", struct.pack("<d", evaluate(*args)))
    except Exception as err:  # the oracle's errors are part of its answer
        return ("error", type(err).__name__, str(err))


def _power(e, k):
    try:
        return e.int_pow(k)
    except ExprError:  # 0^k with k <= 0
        return e


def grammar_exprs(nvars=2, depth=2):
    """Expressions over the whole grammar: sums of products of powers of
    either sign of variables, exp, bump, bumpp and sums (a negative power
    of a sum is an inverse base), nested ``depth`` deep."""
    coeff = st.sampled_from([1, -1, Fraction(3, 2), Fraction(-2, 7), 400]).map(const)
    if depth == 0:
        return coeff
    xs = [var(i) for i in range(1, nvars + 1)]
    simple = st.sampled_from(xs + [xs[0] - xs[-1], xs[0] * xs[-1] + 1])
    args = st.one_of(simple, grammar_exprs(nvars, depth - 1))
    base = st.one_of(
        st.sampled_from(xs),
        args.map(exp_of),
        args.map(bump),
        args.map(bumpp),
        st.tuples(args, args).map(lambda p: p[0] + p[1]),
    )
    factor = st.tuples(base, st.integers(-3, 3)).map(lambda p: _power(*p))
    term = st.tuples(coeff, st.lists(factor, max_size=3)).map(
        lambda p: math.prod(p[1], start=p[0])
    )
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: sum(ts, const(0)))


_NEAR_EPS = [
    FLAT_EVAL_EPS,
    -FLAT_EVAL_EPS,
    math.nextafter(FLAT_EVAL_EPS, 0.0),
    math.nextafter(FLAT_EVAL_EPS, 1.0),
    -math.nextafter(FLAT_EVAL_EPS, 0.0),
]
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-170, 750.0, -750.0] + _NEAR_EPS),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(grammar_exprs(), st.lists(coordinates, min_size=2, max_size=2))
def test_compiled_eval_matches_tree_walk_bit_for_bit(e, pt):
    want = outcome(walk_eval_float, e, pt)
    assert outcome(compile_float(e), pt) == want
    assert outcome(e.eval_float, tuple(pt)) == want


def test_parity_cases_cover_the_grammar():
    # each branch of the oracle, with the outcome it must give
    cases = [
        ("x1^-3*bumpp(x1)", [0.0, 1.0], 0.0),  # flat factor cancels its pole
        ("x2^-1*bump(x1)", [0.0, 0.0], EvalError),  # unrelated pole
        ("(x1+x2)^-2*bump(x1+x2)", [1.0, -1.0], 0.0),  # cancelled inverse base
        ("(x1+x2)^-1*bump(x1)", [1.0, -1.0], EvalError),  # inverse base pole
        ("x1^-1", [0.0, 1.0], EvalError),
        ("x1^3*x2^-1", [0.0, 0.0], 0.0),  # a zero factor first returns 0
        ("exp(x1^2)", [750.0, 0.0], math.inf),  # overflow
        ("-exp(x1^2)", [750.0, 0.0], -math.inf),
        ("bump(x1)^-1", [0.0, 0.0], EvalError),  # a flat pole
        ("bumpp(x1)^-1*bump(x2)", [-1.0, 0.0], EvalError),  # no flat factor cancels it
        ("bump(x1)", [math.nextafter(FLAT_EVAL_EPS, 1.0), 0.0], 0.0),  # underflow
    ]
    for text, pt, want in cases:
        e = parse(text, 2)
        got = outcome(compile_float(e), pt)
        assert got == outcome(walk_eval_float, e, pt), text
        if isinstance(want, float):
            assert got == ("value", struct.pack("<d", want)), text
        else:
            assert got[:2] == ("error", want.__name__), text


@settings(max_examples=40, derandomize=True, deadline=None)
@given(grammar_exprs(depth=1), grammar_exprs(depth=1),
       st.lists(coordinates, min_size=2, max_size=2))
def test_field_value_and_jacobian_match_tree_walk(e1, e2, pt):
    X = VectorField("X", (e1, e2))
    entries = [e for row in jacobian_exprs(X) for e in row]  # row-major
    rows = [[compile_float(e) for e in row] for row in jacobian_exprs(X)]

    def jacobian(pt):
        return np.array([[f(pt) for f in row] for row in rows], dtype=float)

    for compiled, exprs in ((partial(value_float, X), X.components), (jacobian, entries)):
        want = [outcome(walk_eval_float, e, pt) for e in exprs]
        errors = [w for w in want if w[0] == "error"]
        if errors:  # the first failing entry raises
            assert outcome(compiled, pt) == errors[0]
        else:
            assert [outcome(float, v) for v in compiled(pt).ravel()] == want


# -- one-pass products against the chain of + and * they replace ----------------------


def reference_product(a, b):
    """a*b term by term: the exponents of each atom added, each product term
    its own Expr summed with +, and a positive power of a polynomial inverse
    base expanded by multiplying by its base that many times."""
    total = ZERO
    for c1, f1 in a.terms:
        for c2, f2 in b.terms:
            powers = dict(f1)
            for atom, k in f2:
                powers[atom] = powers.get(atom, 0) + k
            expand = [(atom, k) for atom, k in powers.items()
                      if atom.kind == "invbase" and k > 0 and atom.arg.is_polynomial()]
            rest = sorted(((atom, k) for atom, k in powers.items()
                           if k and (atom, k) not in expand), key=lambda p: p[0].sort_key())
            piece = Expr(((c1 * c2, tuple(rest)),))
            for atom, k in expand:
                for _ in range(k):
                    piece = reference_product(piece, atom.arg)
            total = total + piece
    return total


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(grammar_exprs(depth=1), grammar_exprs(depth=1)), max_size=4))
def test_sum_products_equals_the_chain_it_replaces(pairs):
    chain = ZERO
    for a, b in pairs:
        chain = chain + a * b
    reference = sum((reference_product(a, b) for a, b in pairs), ZERO)
    assert sum_products(pairs) == chain == reference
    assert sum_products(iter(pairs)).terms == chain.terms
    assert all(type(c) is Fraction for c, _ in sum_products(pairs).terms)


def test_sum_products_expands_a_positive_inverse_base_power():
    base = parse("x1 + x2", 2)
    inverse = Atom("invbase", arg=base)
    lifted = Expr(((Fraction(3), ((inverse, 2),)),))  # 3*(x1 + x2)^2, unexpanded
    bumped = bump(var(1)) * Expr(((Fraction(1), ((inverse, -1),)),))
    got = sum_products([(lifted, var(1)), (bumped, lifted), (ONE, ONE)])
    want = parse("3*x1*(x1 + x2)^2 + 3*(x1 + x2)*bump(x1) + 1", 2)
    assert got == want == reference_product(lifted, var(1)) + reference_product(
        bumped, lifted) + ONE
    assert parse("((x1 + x2)^-1*x1)^-2", 2) == parse("(x1 + x2)^2*x1^-2", 2)


def test_sum_products_of_nothing_is_zero():
    assert sum_products([]) == ZERO
    assert sum_products([(var(1), ZERO), (ZERO, bump(var(1)))]) == ZERO
    assert sum_products([(var(1), ONE), (-var(1), ONE)]) == ZERO


# -- derivatives against sympy, at 30 digits ----------------------------------------


def _sympy_of(e, sympy):
    """e as a sympy expression: bump(u) = exp(-1/u^2), and bumpp(u) that
    for u > 0 and 0 elsewhere."""
    xs = {f"x{i}": sympy.Symbol(f"x{i}", real=True) for i in (1, 2)}
    names = {
        "bump": lambda u: sympy.exp(-1 / u**2),
        "bumpp": lambda u: sympy.Piecewise((sympy.exp(-1 / u**2), u > 0), (0, True)),
        "exp": sympy.exp,
        **xs,
    }
    return sympy.sympify(str(e).replace("^", "**"), locals=names), xs


SYMPY_POINTS = [(Fraction(2, 7), Fraction(-5, 11)), (Fraction(3, 5), Fraction(4, 13)),
                (Fraction(-7, 9), Fraction(1, 3))]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(grammar_exprs(depth=1), st.integers(1, 2))
def test_diff_matches_sympy_to_30_digits(e, i):
    sympy = pytest.importorskip("sympy")
    ours, xs = _sympy_of(e.diff(i), sympy)
    theirs = sympy.diff(_sympy_of(e, sympy)[0], xs[f"x{i}"])
    for p in SYMPY_POINTS:
        subs = {xs["x1"]: sympy.Rational(p[0].numerator, p[0].denominator),
                xs["x2"]: sympy.Rational(p[1].numerator, p[1].denominator)}
        a, b = ours.evalf(40, subs=subs), theirs.evalf(40, subs=subs)
        if not (a.is_finite and b.is_finite):  # a pole of both at this point
            continue
        assert abs(a - b) <= sympy.Float(10) ** -30 * max(1, abs(a), abs(b)), (str(e), p)
