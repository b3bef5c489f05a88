"""Exact symbolic calculus for vertex superalgebras over Q(k)."""

from .coefficients import (
    DivergesAtInfinity,
    EvaluationAtPole,
    Rational,
    RatFunc,
    ZeroDenominator,
    parse_ratfunc,
)
from .constructions import diagonal_current
from .core import Element, Generator, LambdaPoly, VAPresentation, VAError
from .lie import LiePresentation, builtin_lie, lie_from_constants

__all__ = [
    "DivergesAtInfinity",
    "Element",
    "EvaluationAtPole",
    "Generator",
    "LambdaPoly",
    "LiePresentation",
    "Rational",
    "RatFunc",
    "VAError",
    "VAPresentation",
    "ZeroDenominator",
    "builtin_lie",
    "diagonal_current",
    "lie_from_constants",
    "parse_ratfunc",
]

__version__ = "0.1.0"
