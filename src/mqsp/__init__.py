"""Multivariable quantum signal processing over two commuting SU(2) oracles.

Exact bivariate-Laurent protocol unitaries, structural verification,
inverse phase read-off, Fejer-Riesz unitary completion in one and two
variables, named protocol families, and a single-/six-query
discrimination demo.
"""

from mqsp.errors import (
    FactorizationError,
    MqspError,
    ReadoffError,
    VerificationError,
)
from mqsp.laurent import DegreePair, LaurentPoly1, LaurentPoly2

__all__ = [
    "DegreePair",
    "FactorizationError",
    "LaurentPoly1",
    "LaurentPoly2",
    "MqspError",
    "ReadoffError",
    "VerificationError",
]

__version__ = "0.1.0"
