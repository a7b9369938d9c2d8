"""Single-variable completion: the m = n case of factor2d.complete_unitary_2d.

Spectral factorization and completion live in factor2d for one variable
and two. This module is kept only because bench/spans.py looks up
`mqsp.factor1d.fejer_riesz` and `mqsp.factor1d.complete_unitary_1d` by
module and name, with `mqsp.cli` the only module it imports; it goes when
the benchmark reads those names from factor2d.
"""

from mqsp.factor2d import complete_unitary_2d, fejer_riesz  # noqa: F401


def complete_unitary_1d(p_tilde, q_tilde, n):
    return complete_unitary_2d(p_tilde, q_tilde, n, n)
