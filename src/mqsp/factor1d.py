"""Single-variable spectral factorization, and completion as its m = n case.

spectral_factor returns g (a LaurentPoly1 with exponents 0..D) with
f = g * conj_reciprocal(g) for f real and nonnegative on the unit circle,
f a LaurentPoly2 on axis a, from one of two routes, each refused when its
residual fails the factor gate factor2d.VERIFY_REL_TOL:

- factor2d.gamma_factor, the two-variable Gamma route: with the b axis of
  extent 0 the rank condition is vacuous and every grid has one sample
  along b. It needs f strictly positive and 1/f within FOURIER_AXIS_MAX
  samples. Its g, a LaurentPoly1 on the factor's p box, is stable (no
  zeros in the closed disk), with g_0 > 0.
- fejer_riesz, when the Gamma route raises, runs Wilson's Newton iteration
  on g * conj_reciprocal(g) = f from the constant sqrt(c_0): one dense
  real solve per step, at most NEWTON_STEPS steps.
  It alone factors f with zeros on the circle (root class "outer"); its
  g has no zeros in the open disk, and its top coefficient is real
  positive.

complete_unitary_1d is complete_unitary_2d with weight m = n, with
spectral_factor's g in place of the stable factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp import factor2d
from mqsp.errors import FactorizationError
from mqsp.factor2d import (
    CompletionResult,
    _pow2_grid,
    assemble_and_read_off,
    check_targets,
    gamma_factor,
)
from mqsp.laurent import LaurentPoly1, LaurentPoly2, aligned

# most Newton steps of fejer_riesz: strictly positive f converges
# quadratically in 6-16 steps, double zeros on the circle linearly in ~30
NEWTON_STEPS = 64
# smallest circle grid on which fejer_riesz checks f's sign and its factor
CHECK_GRID = 1024


@dataclass(frozen=True)
class Factorization1D:
    """Spectral factor g (a LaurentPoly1, exponents 0..D), sup-norm
    residual of f - g*conj_reciprocal(g) on the verification grid, and the
    root class. A Gamma-route factor is "stable" (no zeros in the closed unit disk).
    fejer_riesz's is "outer" when f's smallest sample on its check grid is
    at most the sign check's floor (a zero of f on the circle, so of g) and
    "stable" otherwise; a zero on the circle between grid samples reads
    "stable"."""

    g: LaurentPoly1
    residual: float
    root_class: str


def _verified(g, residual, root_class, scale):
    # the factor gate of extract_stable_factor, relative to max f
    if residual >= factor2d.VERIFY_REL_TOL * scale:
        raise FactorizationError("verification failed")
    return Factorization1D(g=g, residual=residual, root_class=root_class)


def _newton_step(g, f_top):
    """Wilson's step: h (exponents 0..d, Im h_0 = 0) with
    g*conj_reciprocal(h) + h*conj_reciprocal(g) = f + g*conj_reciprocal(g).

    Both sides are Hermitian, so their coefficients 0..d (f_top) fix them;
    the rows are the real parts of those and the imaginary parts of 1..d,
    the unknowns Re h_0..h_d and Im h_1..h_d. Raises LinAlgError when the
    system is singular."""
    d = len(g) - 1
    k = np.arange(d + 1)
    # coefficient k of g*conj_reciprocal(h) is sum_j g_{j+k} conj(h_j), of
    # h*conj_reciprocal(g) sum_m conj(g_{m-k}) h_m
    hankel = np.concatenate([g, np.zeros(d)])[k[:, None] + k]
    toeplitz = np.triu(g.conj()[np.abs(k - k[:, None])])
    by_re, by_im = hankel + toeplitz, 1j * (toeplitz - hankel)
    system = np.block(
        [[by_re.real, by_im.real[:, 1:]], [by_re.imag[1:], by_im.imag[1:, 1:]]]
    )
    target = f_top + toeplitz @ g
    x = np.linalg.solve(system, np.concatenate([target.real, target.imag[1:]]))
    return x[: d + 1] + 1j * np.concatenate([[0.0], x[d + 1 :]])


def fejer_riesz(f):
    """Factor f, a circle-nonnegative LaurentPoly2 on axis a, as |g|^2 by
    Wilson's Newton iteration (G. T. Wilson, SIAM J. Numer. Anal. 6 (1969)
    1-7); g is a LaurentPoly1.

    From g = sqrt(c_0), each step solves _newton_step's linear system. It
    stops when that system is singular (the exact factor of an f with
    zeros on the circle makes it so), when a step is no shorter than the
    one before, or after NEWTON_STEPS steps, and keeps whichever of the
    last two iterates fits f's coefficients better. Wilson's iterates keep
    their zeros outside the open unit disk. g is scaled so that its top
    coefficient is real positive.

    Raises "not nonnegative on circle" when sampled values dip below the
    tolerance floor and "verification failed" when the residual of |g|^2
    against f on the grid is at least VERIFY_REL_TOL times max f.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit circle)")
    if f.is_zero():
        return Factorization1D(LaurentPoly1.zero(), 0.0, "stable")

    # the FFT grid must exceed the exponent spread 2 * deg; doubling keeps
    # the CHECK_GRID points in it
    grid = _pow2_grid(CHECK_GRID, f.degrees().deg_a)
    ((_, values),) = f.unit_grid_blocks((grid, 1), grid)
    values = values[:, 0].real
    scale = float(np.max(np.abs(values)))
    floor = 1e-12 * max(1.0, scale)
    lowest = float(np.min(values))
    if lowest < -floor:
        raise FactorizationError("not nonnegative on circle")
    root_class = "outer" if lowest <= floor else "stable"

    box, _, (lo, _) = aligned(f, f)
    d = lo + len(box) - 1  # the top exponent
    if d == 0:
        c = f.coeff(0, 0).real
        g = LaurentPoly1({0: math.sqrt(max(c, 0.0))})
        return _verified(g, abs(c - max(c, 0.0)), root_class, scale)

    full = np.array([f.coeff(k, 0) for k in range(-d, d + 1)])
    f_top = full[d:]

    def misfit(coeffs):
        # max |g*conj_reciprocal(g) - f| over the coefficients
        return float(np.max(np.abs(np.convolve(coeffs, coeffs[::-1].conj()) - full)))

    g = np.zeros(d + 1, dtype=complex)
    g[0] = math.sqrt(max(f_top[0].real, 0.0))
    previous, last_step = g, math.inf
    for _ in range(NEWTON_STEPS):
        try:
            h = _newton_step(g, f_top)
        except np.linalg.LinAlgError:
            break
        step = float(np.max(np.abs(h - g)))
        previous, g = g, h
        if not step < last_step:
            break
        last_step = step
    if not misfit(g) < misfit(previous):
        g = previous
    top = g[-1]
    # the dict constructor stores a -0.0 part as +0.0
    g = LaurentPoly1(dict(enumerate(g * (abs(top) / top if top else 1.0))))
    ((_, g_values),) = g.unit_grid_blocks((grid, 1), grid)
    residual = float(np.max(np.abs(values - np.abs(g_values[:, 0]) ** 2)))
    return _verified(g, residual, root_class, scale)


def spectral_factor(f):
    """gamma_factor's factor of f (a LaurentPoly2 on axis a), with g the
    LaurentPoly1 on its p box, or, when that raises, fejer_riesz's factor of
    the LaurentPoly1 on f's box; neither box is copied."""
    try:
        fac, _, _ = gamma_factor(f)
    except FactorizationError:
        return fejer_riesz(LaurentPoly1.from_poly2(f))
    return Factorization1D(LaurentPoly1.from_poly2(fac.p), fac.residual, "stable")


def complete_unitary_1d(p_tilde, q_tilde, n):
    """Complete real-on-circle targets (Ptilde, Qtilde) into a single-oracle
    protocol unitary of length n: complete_unitary_2d with weight m = n.

    The targets, LaurentPoly2s on axis a (a LaurentPoly1 is one), pass the
    same check_targets and give f = 1 - Ptilde^2 - Qtilde^2 by the same
    arithmetic; the unitary is assembled and read off the same way. The
    factor is spectral_factor's: gamma_factor's, complete_unitary_2d's
    stable factor bit for bit, or, when that raises (f with zeros on or too
    near the circle), fejer_riesz's, whose outcome and message are then
    final. The result has no rank report or convergence residual.
    """
    n = int(n)
    check_targets(p_tilde, q_tilde, n, n)
    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    fac = spectral_factor(f)
    return CompletionResult(*assemble_and_read_off(p_tilde, q_tilde, fac.g, n, n), fac)
