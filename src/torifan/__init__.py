"""Exact-arithmetic toolkit for smooth toric Fano varieties.

Computes the volume, Seshadri constant eps, stability threshold delta and
beta = min(eps, delta) of torus-invariant classes and their vanishing-order
volume profiles, builds Newton-Okounkov bodies for invariant flags, and
verifies the score bound beta^n * Vol <= (n+1)^n across a bundled catalog,
all in rational arithmetic.
"""

from torifan.errors import (
    DegeneratePolytope,
    EmptyGrid,
    NotAmple,
    NotBig,
    NotComplete,
    NotFano,
    NotNef,
    NotSimplicial,
    NotSmooth,
    ParseError,
    ThresholdExceeded,
    TorifanError,
    ValidationError,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "DegeneratePolytope",
    "EmptyGrid",
    "NotAmple",
    "NotBig",
    "NotComplete",
    "NotFano",
    "NotNef",
    "NotSimplicial",
    "NotSmooth",
    "ParseError",
    "ThresholdExceeded",
    "TorifanError",
    "ValidationError",
    "VerificationError",
    "__version__",
]
