"""Error taxonomy.

Messages double as interface contracts (the CLI and tests match on them),
so raise with the exact strings documented on each operation. The class
split exists for exit-code routing, one route per class: ReadoffError
gives `mqsp readoff` exit 1 and `mqsp complete` exit 3, since
complete_unitary_2d (one variable is its case m = n) catches it and
returns spec None; FactorizationError gives `mqsp complete` exit 1; and
ValueError, unusable input, gives exit 2.
"""

from __future__ import annotations


class MqspError(Exception):
    """Base class for all library-level failures."""


class FactorizationError(MqspError):
    """Spectral factorization could not proceed: nonnegativity, positivity,
    Fourier convergence, factor verification, or rank trouble."""


class ReadoffError(MqspError):
    """Phase read-off failed: missing/zero leading slice, slices not
    proportional, the input is not a protocol unitary at all, or its
    rebuild misses it ("rebuild mismatch")."""
