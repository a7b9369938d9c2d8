"""Single-variable spectral factorization and unitary completion.

Given a Laurent polynomial f that is real and nonnegative on the unit
circle, fejer_riesz computes g with exponents 0..D such that
f = g * conj_reciprocal(g), choosing the root from each (r, 1/conj(r))
pair with magnitude >= 1. complete_unitary_1d uses this to extend a pair
of real-on-circle target polynomials (Ptilde, Qtilde) to a full protocol
unitary [[Ptilde + iR, Qtilde + iS], [...]] and reads the phases back off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp.errors import FactorizationError
from mqsp.laurent import LaurentPoly1
from mqsp.protocol import Su2LaurentUnitary, assemble_completion
from mqsp.readoff import readoff

# Root classification/pairing tolerances. A boundary zero of a nonnegative
# polynomial has even multiplicity; the companion-matrix noise splits such
# a double root by about sqrt(machine eps) ~ 1e-8, well inside the band.
BOUNDARY_TOL = 1e-6
PAIRING_TOL = 1e-6
CLUSTER_TOL = 1e-5
VERIFY_GRID = 1024


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


def fejer_riesz(f):
    """Factor a circle-nonnegative Laurent polynomial as |g|^2.

    Raises "not nonnegative on circle" when sampled values dip below the
    tolerance floor, and "root pairing failed" when the computed roots do
    not organize into (r, 1/conj(r)) pairs and even boundary clusters.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit circle)")
    if f.is_zero():
        return Factorization1D(LaurentPoly1.zero(var=f.var), 0.0, "stable")

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
        g = LaurentPoly1({0: math.sqrt(max(c, 0.0))}, var=f.var)
        return Factorization1D(g, abs(c - max(c, 0.0)), "stable")

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
    m_poly = LaurentPoly1.from_coeff_array(monic[::-1], var=f.var)
    m_abs2 = np.abs(m_poly.eval_circle_grid(grid)) ** 2
    lam = float(np.dot(values, m_abs2) / np.dot(m_abs2, m_abs2))
    if lam <= 0.0:
        raise FactorizationError("root pairing failed")
    g = math.sqrt(lam) * m_poly

    g_abs2 = np.abs(g.eval_circle_grid(grid)) ** 2
    residual = float(np.max(np.abs(values - g_abs2)))
    root_class = "outer" if clusters else "stable"
    return Factorization1D(g=g, residual=residual, root_class=root_class)


@dataclass(frozen=True)
class CompletionResult1D:
    """Completed protocol unitary (single variable, embedded on oracle A),
    the recovered protocol, and the factorization used."""

    unitary: Su2LaurentUnitary
    spec: object
    factorization: Factorization1D


def complete_unitary_1d(p_tilde, q_tilde, n):
    """Complete real-on-circle targets (Ptilde, Qtilde) of degree <= n and
    negation parity n mod 2 into a protocol unitary of length n.

    The missing imaginary parts are R = Hermitian part of g(z) z^{-n} and
    S from its anti-Hermitian part; R^2 + S^2 = 1 - Ptilde^2 - Qtilde^2 by
    construction, making the assembled matrix (assemble_completion)
    exactly unitary up to the factorization residual. Phases are then
    recovered by readoff, whose errors propagate.
    """
    n = int(n)
    if n < 0:
        raise ValueError("length must satisfy n >= 0")
    if p_tilde.var != q_tilde.var:
        raise ValueError(
            "variable mismatch: %r vs %r" % (p_tilde.var, q_tilde.var)
        )
    for poly in (p_tilde, q_tilde):
        if not poly.is_hermitian():
            raise ValueError("inputs must be real on the unit circle")
        deg = poly.degree()
        if deg is not None and deg > n:
            raise FactorizationError("degree exceeds bound")
        bit = poly.negation_bit()
        if bit is not None and bit != n % 2:
            raise FactorizationError("parity mismatch")

    one = LaurentPoly1.one(var=p_tilde.var)
    f = one - p_tilde * p_tilde - q_tilde * q_tilde
    fac = fejer_riesz(f)

    # on oracle A alone the protocol has weight m = n
    unitary = assemble_completion(
        p_tilde.embed("a"), q_tilde.embed("a"), fac.g.embed("a"), n, n
    )
    result = readoff(unitary.P, unitary.Q)
    return CompletionResult1D(unitary=unitary, spec=result.spec, factorization=fac)
