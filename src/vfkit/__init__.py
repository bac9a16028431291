"""vfkit: symbolic-numeric analysis of finite families of vector fields.

Exact Lie brackets and flows, pointwise rank and singular loci of
bracket-generated distributions, degree-bounded module membership,
Monte-Carlo orbit and fixed-time-orbit tangent estimation, and
integrability verdicts, with a preset corpus of worked examples.
"""

from .expr import Expr, ExprError, EvalError, ParseError, bump, bumpp, const, exp_of, parse, var
from .vectorfield import (DomainExitError, DomainPredicate, FlowError, IntegrationError,
                          VectorField, lie_bracket)

__version__ = "0.1.0"


def __getattr__(name):
    # the flows load numpy, which exact work never needs (PEP 562)
    if name in ("apply_word", "flow", "pushforward_along_word"):
        from . import fields

        return getattr(fields, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
