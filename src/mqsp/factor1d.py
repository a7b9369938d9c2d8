"""Single-variable spectral factorization, and completion as its m = n case.

Both factorizations take a Laurent polynomial f that is real and
nonnegative on the unit circle and return g with exponents 0..D such that
f = g * conj_reciprocal(g), and both refuse a g whose residual fails the
factor gate of factor2d (VERIFY_REL_TOL).

- toeplitz_factor is factor2d's route in one variable: the Fourier
  coefficients of 1/f, the Toeplitz Gamma and one linear solve. It needs f
  strictly positive, and fails when 1/f needs more than TOEPLITZ_MAX
  samples. Its g is stable (no zeros in the closed disk), with g_0 > 0.
- fejer_riesz pairs the roots of z^D f(z), choosing the root from each
  (r, 1/conj(r)) pair with magnitude >= 1 and clustering the roots on the
  circle to even multiplicity. It is the only one that factors f with
  zeros on the circle (root class "outer"). Its g is monic times a
  positive scale.

spectral_factor tries toeplitz_factor and falls back to fejer_riesz.
complete_unitary_1d is the two-variable completion of factor2d with
weight m = n: the same target checks, assembly and read-off, with
spectral_factor's g in place of the stable factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp.errors import FactorizationError
from mqsp.factor2d import (
    FOURIER_TOL,
    VERIFY_REL_TOL,
    CompletionResult,
    FourierTable,
    _pow2_grid,
    assemble_and_read_off,
    build_gamma,
    check_targets,
)
from mqsp.laurent import LaurentPoly1

# Root classification/pairing tolerances. A boundary zero of a nonnegative
# polynomial has even multiplicity; the companion-matrix noise splits such
# a double root by about sqrt(machine eps) ~ 1e-8, well inside the band.
BOUNDARY_TOL = 1e-6
PAIRING_TOL = 1e-6
CLUSTER_TOL = 1e-5
VERIFY_GRID = 1024
# toeplitz_factor doubles its FFT grid from TOEPLITZ_START up to
# TOEPLITZ_MAX samples (1 MB of complex values) before it gives up; the
# few targets that would need more go to root pairing instead.
TOEPLITZ_START = 1024
TOEPLITZ_MAX = 2**16


@dataclass(frozen=True)
class Factorization1D:
    """Spectral factor g (exponents 0..D), sup-norm residual of
    f - g*conj_reciprocal(g) on the verification grid, and the root class:
    "stable" when every root is strictly outside the closed unit disk,
    "outer" when boundary roots were used."""

    g: LaurentPoly1
    residual: float
    root_class: str


def _cluster_boundary(roots):
    """Group near-coincident boundary roots; each cluster must have even
    size (even multiplicity). Returns (representative, multiplicity) pairs
    with the representative projected onto the unit circle: the split of an
    even-order zero is symmetric to first order, so the cluster mean
    restores most of the lost accuracy."""
    remaining = list(roots)
    clusters = []
    while remaining:
        seed = remaining.pop()
        members = [seed]
        rest = []
        for r in remaining:
            if abs(r - seed) < CLUSTER_TOL:
                members.append(r)
            else:
                rest.append(r)
        remaining = rest
        if len(members) % 2 != 0:
            raise FactorizationError("root pairing failed")
        mean = sum(members) / len(members)
        if mean == 0:
            raise FactorizationError("root pairing failed")
        clusters.append((mean / abs(mean), len(members) // 2))
    return clusters


def _pair_off_circle(outside, inside):
    """Match each root outside the circle with its reflection 1/conj(r)
    inside; leftovers mean the root set is inconsistent with |g|^2."""
    pool = list(inside)
    for r in outside:
        mirror = 1.0 / r.conjugate()
        if not pool:
            raise FactorizationError("root pairing failed")
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - mirror))
        if abs(pool[j] - mirror) > PAIRING_TOL * max(1.0, abs(mirror)):
            raise FactorizationError("root pairing failed")
        pool.pop(j)
    if pool:
        raise FactorizationError("root pairing failed")


def _verified(g, residual, root_class, scale):
    # the factor gate of extract_stable_factor, relative to max f
    if residual >= VERIFY_REL_TOL * scale:
        raise FactorizationError("verification failed")
    return Factorization1D(g=g, residual=residual, root_class=root_class)


def fejer_riesz(f):
    """Factor a circle-nonnegative Laurent polynomial as |g|^2.

    Raises "not nonnegative on circle" when sampled values dip below the
    tolerance floor, "root pairing failed" when the computed roots do not
    organize into (r, 1/conj(r)) pairs and even boundary clusters, and
    "verification failed" when the residual of |g|^2 against f on the
    grid is at least VERIFY_REL_TOL times max f.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit circle)")
    if f.is_zero():
        return Factorization1D(LaurentPoly1.zero(), 0.0, "stable")

    # the FFT grid must exceed the exponent spread 2 * deg; doubling keeps
    # the VERIFY_GRID points in it
    grid = VERIFY_GRID
    while grid <= 2 * f.degree():
        grid *= 2
    values = f.eval_circle_grid(grid).real
    scale = float(np.max(np.abs(values)))
    if float(np.min(values)) < -1e-12 * max(1.0, scale):
        raise FactorizationError("not nonnegative on circle")

    d = f.max_exp()
    if d == 0:
        c = f.coeff(0).real
        g = LaurentPoly1({0: math.sqrt(max(c, 0.0))})
        return _verified(g, abs(c - max(c, 0.0)), "stable", scale)

    # roots of z^d f(z), an ordinary polynomial of degree 2d with h(0) != 0
    h = np.array([f.coeff(k - d) for k in range(2 * d + 1)])
    roots = np.roots(h[::-1])

    outside = [r for r in roots if abs(r) > 1.0 + BOUNDARY_TOL]
    inside = [r for r in roots if abs(r) < 1.0 - BOUNDARY_TOL]
    boundary = [r for r in roots if abs(abs(r) - 1.0) <= BOUNDARY_TOL]

    _pair_off_circle(outside, inside)
    clusters = _cluster_boundary(boundary)

    selected = list(outside)
    for rep, mult in clusters:
        selected.extend([rep] * mult)
    if len(selected) != d:
        raise FactorizationError("root pairing failed")

    # monic product over the selected roots, then least-squares scale
    monic = np.poly(selected) if selected else np.array([1.0 + 0.0j])
    m_poly = LaurentPoly1(dict(enumerate(monic[::-1])))
    m_abs2 = np.abs(m_poly.eval_circle_grid(grid)) ** 2
    lam = float(np.dot(values, m_abs2) / np.dot(m_abs2, m_abs2))
    if lam <= 0.0:
        raise FactorizationError("root pairing failed")
    g = math.sqrt(lam) * m_poly

    g_abs2 = np.abs(g.eval_circle_grid(grid)) ** 2
    residual = float(np.max(np.abs(values - g_abs2)))
    return _verified(g, residual, "outer" if clusters else "stable", scale)


def toeplitz_factor(f):
    """Stable factor g of a strictly positive f from the Fourier
    coefficients of 1/f: factor2d's Gamma route in one variable.

    The coefficients c_k, |k| <= d = deg f, come from the FFT of sampled
    1/f, with the grid doubled from TOEPLITZ_START until they move by less
    than FOURIER_TOL. The Toeplitz Gamma[i, j] = c_{i-j} then gives
    Gamma q = e_0 with q = conj(g_0) g, so g = q / sqrt(q_0) has g_0 real
    positive. Raises "f not strictly positive" for a sample of f at or
    below zero, "no convergence" past TOEPLITZ_MAX samples, and
    "verification failed" as fejer_riesz does, on the converged grid.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit circle)")
    d = f.degree() or 0
    grid = _pow2_grid(TOEPLITZ_START, d)
    ks = np.arange(-d, d + 1)
    previous = None
    while grid <= TOEPLITZ_MAX:
        values = f.eval_circle_grid(grid).real
        if values.min() <= 0.0:
            raise FactorizationError("f not strictly positive")
        window = np.fft.fft(1.0 / values)[ks % grid] / grid
        if previous is not None:
            moved = float(np.abs(window - previous).max())
            if moved < FOURIER_TOL:
                break
        previous = window
        grid *= 2
    else:
        raise FactorizationError("no convergence")

    table = FourierTable((d, 0), window[:, None], grid, moved)
    unit = np.zeros(d + 1)
    unit[0] = 1.0
    solved = np.linalg.solve(build_gamma(table, d, 0), unit)
    q0 = solved[0].real
    if not q0 > 0.0:
        raise FactorizationError("verification failed")
    g = LaurentPoly1(dict(enumerate(solved / math.sqrt(q0))))
    residual = float(np.max(np.abs(values - np.abs(g.eval_circle_grid(grid)) ** 2)))
    return _verified(g, residual, "stable", float(values.max()))


def spectral_factor(f):
    """toeplitz_factor's factor of f, or fejer_riesz's when that raises."""
    try:
        return toeplitz_factor(f)
    except FactorizationError:
        return fejer_riesz(f)


def complete_unitary_1d(p_tilde, q_tilde, n):
    """Complete real-on-circle targets (Ptilde, Qtilde) into a single-oracle
    protocol unitary of length n: complete_unitary_2d with weight m = n.

    The targets, embedded on axis a, pass the same check_targets, and the
    unitary is assembled and read off the same way. The factor of
    f = 1 - Ptilde^2 - Qtilde^2, computed in one variable, is
    spectral_factor's: toeplitz_factor's g or, when that raises (f with
    zeros on or too near the circle), fejer_riesz's, whose outcome and
    message are then final. The result has no rank report or convergence
    residual.
    """
    n = int(n)
    p_a, q_a = p_tilde.embed(), q_tilde.embed()
    check_targets(p_a, q_a, n, n)
    # in LaurentPoly1 arithmetic: the root-pairing fallback can flip on the
    # last bits of f
    f = LaurentPoly1.one() - p_tilde * p_tilde - q_tilde * q_tilde
    fac = spectral_factor(f)
    return CompletionResult(*assemble_and_read_off(p_a, q_a, fac.g.embed(), n, n), fac)
