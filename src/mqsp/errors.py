"""Error taxonomy.

Messages double as interface contracts (the CLI and tests match on them),
so raise with the exact strings documented on each operation. The class
split exists for exit-code routing: verification-style failures map to
exit 1. A completion that checks out but cannot be peeled maps to exit 3:
complete_unitary_2d (one variable is its case m = n) catches the
ReadoffError or VerificationError of its read-off and returns spec None.
"""

from __future__ import annotations


class MqspError(Exception):
    """Base class for all library-level failures."""


class VerificationError(MqspError):
    """A structural or numerical check failed (readoff rebuild, x-picture
    decomposition, promise validation, factor verification, ...)."""


class FactorizationError(MqspError):
    """Spectral factorization could not proceed: nonnegativity, positivity,
    Fourier convergence, factor verification, or rank trouble."""


class ReadoffError(MqspError):
    """Phase read-off failed: missing/zero leading slice, slices not
    proportional, or the input is not a protocol unitary at all."""
