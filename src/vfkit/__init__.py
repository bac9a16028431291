"""vfkit: symbolic-numeric analysis of finite families of vector fields.

Exact Lie brackets and flows, pointwise rank and singular loci of
bracket-generated distributions, degree-bounded module membership,
Monte-Carlo orbit and fixed-time-orbit tangent estimation, and
integrability verdicts, with a preset corpus of worked examples.
"""

from .expr import Expr, ExprError, EvalError, ParseError, bump, bumpp, const, exp_of, parse, var
from .fields import (
    DomainExitError,
    DomainPredicate,
    FlowError,
    IntegrationError,
    VectorField,
    apply_word,
    flow,
    lie_bracket,
    pushforward_along_word,
)

__version__ = "0.1.0"
