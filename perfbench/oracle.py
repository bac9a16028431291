"""Answer checks that do not use vfkit.

Exact evaluation of polynomial expressions printed by vfkit, polynomial
identity testing, the sampled-regular neighbour rule, and hand-derived
ranks for the benchmark's families.  Everything here is plain Python over ``fractions.Fraction`` so a
defect in vfkit's own arithmetic cannot make a wrong answer look right.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def poly_eval(text, point):
    """Exact value of a polynomial expression string at a rational point.

    Accepts the grammar vfkit prints for polynomials: rational constants,
    variables x1..xn, ``+ - * /`` and ``^`` with a non-negative integer
    exponent.  Anything else raises ValueError.
    """
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return _eval_node(tree.body, point)


def _eval_node(node, point):
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id.startswith("x") and node.id[1:].isdigit():
        return Fraction(point[int(node.id[1:]) - 1])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, point)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            exponent = node.right
            if not (isinstance(exponent, ast.Constant) and isinstance(exponent.value, int)
                    and exponent.value >= 0):
                raise ValueError("only non-negative integer exponents are polynomial")
            return _eval_node(node.left, point) ** exponent.value
        op = _BINOPS.get(type(node.op))
        if op is not None:
            return op(_eval_node(node.left, point), _eval_node(node.right, point))
    raise ValueError(f"not a polynomial expression: {ast.dump(node)}")


def _random_points(n, count, rng):
    """Rational points with large numerators, for identity testing."""
    return [
        tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)) for _ in range(n))
        for _ in range(count)
    ]


def identity_holds(lhs, rhs, n, seed, count=8):
    """Schwartz-Zippel test of lhs(p) == rhs(p) for callables on R^n.

    For polynomials of degree below 100 evaluated at points drawn from
    about 2e9 values per coordinate, a false pass has probability below
    (100 / 2e9) ** count.
    """
    rng = random.Random(seed)
    return all(lhs(p) == rhs(p) for p in _random_points(n, count, rng))


def grid_classes(ranks, shape):
    """Sampled-regular flags: no axis-adjacent neighbour has a larger rank.

    ``ranks`` maps a multi-index to the rank there; the flags come back in
    row-major order of the multi-indices.
    """
    flags = []
    for multi in sorted(ranks):
        r = ranks[multi]
        ok = True
        for d in range(len(shape)):
            for delta in (-1, 1):
                nb = list(multi)
                nb[d] += delta
                if 0 <= nb[d] < shape[d] and ranks[tuple(nb)] > r:
                    ok = False
        flags.append(ok)
    return flags


# -- hand-derived ranks --------------------------------------------------------
#
# ode-cubic, X1 = (1, 0), X2 = (0, x2*(x1^2 + x2^2)): [X1, X2] = (0, 2 x1 x2)
# and [X1, [X1, X2]] = (0, 2 x2).  Every field but X1 carries the factor x2,
# so the Lie algebra has rank 2 off the invariant line x2 = 0 and rank 1 on
# it.  The fixed-time ideal holds X2 - X1 = (-1, ...) and (0, 2 x2): rank 2
# off the line.  By Nagano's theorem (analytic fields) the orbit dimension
# equals the Lie rank, and the fixed-time orbit dimension equals the rank
# of the ideal.
#
# isolated-leaf, X1 = (x1 x3, 1, 0), X2 = (0, 0, 1): [X1, X2] = (-x1, 0, 0)
# and every deeper bracket vanishes.  Lie rank 3 off the slice x1 = 0 and 2
# on it; the ideal holds X2 - X1 = (-x1 x3, -1, 1) and (-x1, 0, 0), rank 2
# off the slice.  The time-T flow of X1 is (x1 e^(x3 T), x2 + T, x3).


def cubic_orbit_rank(p):
    return 2 if p[1] != 0 else 1


def cubic_ideal_rank(p):
    return 2 if p[1] != 0 else 1


def leaf_orbit_rank(p):
    return 3 if p[0] != 0 else 2


def leaf_ideal_rank(p):
    return 2 if p[0] != 0 else 1
