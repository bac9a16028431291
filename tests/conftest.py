from fractions import Fraction

import pytest

from vfkit import fields
from vfkit.expr import parse
from vfkit.fields import DomainPredicate, VectorField


def make_field(name, components, dim, constraints=()):
    dom = DomainPredicate(tuple(constraints))
    return VectorField(name, tuple(parse(c, dim) for c in components), dom)


@pytest.fixture
def vf():
    return make_field


def multiply_field(f, X):
    """The module action f*X: each component of X times f, on X's domain."""
    return VectorField(f"f*{X.name}", tuple(f * c for c in X.components), X.domain)


def frac_grid(lo, hi, denom):
    return [Fraction(k, denom) for k in range(lo * denom, hi * denom + 1)]


@pytest.fixture
def flow_steps(monkeypatch):
    """(field, time) of every flow step taken while the test runs, one per
    walked row of each stacked step."""
    steps = []
    real = fields._step_group

    def counted(X, ts, *args):
        steps.extend((X, t) for t in ts)
        return real(X, ts, *args)

    monkeypatch.setattr(fields, "_step_group", counted)
    return steps
