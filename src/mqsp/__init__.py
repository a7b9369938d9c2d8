"""Multivariable quantum signal processing over two commuting SU(2) oracles.

Exact bivariate-Laurent protocol unitaries, structural verification,
inverse phase read-off, Fejer-Riesz unitary completion in one and two
variables, the specs of two named protocol families, and a six-query
discrimination demo.
"""

from mqsp.errors import FactorizationError, MqspError, ReadoffError
from mqsp.laurent import LaurentPoly1, LaurentPoly2

__all__ = [
    "FactorizationError",
    "LaurentPoly1",
    "LaurentPoly2",
    "MqspError",
    "ReadoffError",
]

__version__ = "0.1.0"
