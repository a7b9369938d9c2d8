"""Single-variable spectral factorization, and completion as its m = n case.

Both factorizations return g (a LaurentPoly1 with exponents 0..D) with
f = g * conj_reciprocal(g) for f real and nonnegative on the unit circle,
and both refuse a g whose residual fails the factor gate of factor2d
(VERIFY_REL_TOL).

- toeplitz_factor is factor2d's Gamma route with the b axis of extent 0,
  for f a LaurentPoly2 on axis a: fourier_of_reciprocal, build_gamma and
  the solve of extract_stable_factor. It needs f strictly positive and
  1/f within FOURIER_AXIS_MAX samples. Its g is stable (no zeros in the
  closed disk), with g_0 > 0.
- fejer_riesz pairs the roots of z^D f(z), f a LaurentPoly1, choosing the
  root from each (r, 1/conj(r)) pair with magnitude >= 1 and clustering
  the roots on the circle to even multiplicity. It alone factors f with
  zeros on the circle (root class "outer"). Its g is monic times a
  positive scale.

spectral_factor tries toeplitz_factor and falls back to fejer_riesz.
complete_unitary_1d is complete_unitary_2d with weight m = n, with
spectral_factor's g in place of the stable factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp.errors import FactorizationError
from mqsp.factor2d import (
    VERIFY_GRID,
    VERIFY_REL_TOL,
    CompletionResult,
    _pow2_grid,
    _solve_for_factor,
    assemble_and_read_off,
    build_gamma,
    check_targets,
    fourier_of_reciprocal,
)
from mqsp.laurent import LaurentPoly1, LaurentPoly2

# Root classification/pairing tolerances. A boundary zero of a nonnegative
# polynomial has even multiplicity; the companion-matrix noise splits such
# a double root by about sqrt(machine eps) ~ 1e-8, well inside the band.
BOUNDARY_TOL = 1e-6
PAIRING_TOL = 1e-6
CLUSTER_TOL = 1e-5
# smallest circle grid on which fejer_riesz samples f and checks its factor
PAIRING_GRID = 1024


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
    # the PAIRING_GRID points in it
    grid = _pow2_grid(PAIRING_GRID, f.degree())
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
    """Stable factor g of a strictly positive f (a LaurentPoly2 on axis a)
    by factor2d's Gamma route with window (d, 0), d = deg f.

    fourier_of_reciprocal gives the coefficients c_k, |k| <= d, of 1/f;
    the Toeplitz Gamma[i, j] = c_{i-j} (build_gamma) then gives
    Gamma q = e_0 with q = conj(g_0) g, so g = q / sqrt(q_0) has g_0 real
    positive. Raises as fourier_of_reciprocal and the solve do, and
    "verification failed" as fejer_riesz does, on the grid along a that
    extract_stable_factor uses.
    """
    deg = f.degrees()
    d = 0 if deg.is_zero else deg.deg_a
    table = fourier_of_reciprocal(f, (d, 0))
    g = LaurentPoly1(dict(enumerate(_solve_for_factor(build_gamma(table, d, 0)))))
    grid = _pow2_grid(VERIFY_GRID, 2 * d)
    ((_, f_values),) = f.unit_grid_blocks((grid, 1), grid)
    values = f_values[:, 0].real
    residual = float(np.max(np.abs(values - np.abs(g.eval_circle_grid(grid)) ** 2)))
    return _verified(g, residual, "stable", float(values.max()))


def spectral_factor(f):
    """toeplitz_factor's factor of f (a LaurentPoly2 on axis a) or, when
    that raises, fejer_riesz's factor of f's coefficients as a
    LaurentPoly1."""
    try:
        return toeplitz_factor(f)
    except FactorizationError:
        return fejer_riesz(LaurentPoly1({j: c for (j, _), c in f.items()}))


def complete_unitary_1d(p_tilde, q_tilde, n):
    """Complete real-on-circle targets (Ptilde, Qtilde) into a single-oracle
    protocol unitary of length n: complete_unitary_2d with weight m = n.

    The targets, embedded on axis a, pass the same check_targets and give
    f = 1 - Ptilde^2 - Qtilde^2 by the same arithmetic; the unitary is
    assembled and read off the same way. The factor is spectral_factor's:
    toeplitz_factor's g, complete_unitary_2d's stable factor bit for bit,
    or, when that raises (f with zeros on or too near the circle),
    fejer_riesz's, whose outcome and message are then final. The result
    has no rank report or convergence residual.
    """
    n = int(n)
    p_a, q_a = p_tilde.embed(), q_tilde.embed()
    check_targets(p_a, q_a, n, n)
    f = LaurentPoly2.one() - p_a * p_a - q_a * q_a
    fac = spectral_factor(f)
    return CompletionResult(*assemble_and_read_off(p_a, q_a, fac.g.embed(), n, n), fac)
