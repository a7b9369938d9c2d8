"""Two-variable conditional spectral factorization and unitary completion.

A strictly positive Hermitian Laurent polynomial f on the torus admits
f = p * conj_reciprocal(p) with p a *stable* polynomial (no zeros on the
closed bidisk, support in {0..n}x{0..m}) exactly when a rank condition on
the Fourier coefficients of 1/f holds. This module computes those Fourier
coefficients, tests the rank condition by two independent routes, extracts
the stable factor from a linear solve, and uses it to complete a pair of
real-on-torus targets (Ptilde, Qtilde) to a full protocol unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mqsp.errors import FactorizationError, ReadoffError, VerificationError
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import Su2LaurentUnitary, assemble_completion
from mqsp.readoff import readoff

FOURIER_START = 128
FOURIER_MAX = 4096
FOURIER_TOL = 1e-10
# fourier_of_reciprocal samples f this many theta_a rows at a time.
FOURIER_BLOCK_ROWS = 256
RANK_REL_TOL = 1e-8
# Relative size of the inverse-block entries below which the second route
# counts as satisfied. Observed ~1e-12 on exact-rank fixtures (set by the
# Fourier truncation) and O(1) on non-factorable f.
INVERSE_BLOCK_REL_TOL = 1e-6
VERIFY_GRID = 128
VERIFY_REL_TOL = 1e-6
NET_RADII = (0.2, 0.4, 0.6, 0.8, 1.0)
NET_ANGLES = 64


def _pow2_grid(base, max_degree):
    """Smallest admissible FFT grid >= base for the given exponent spread."""
    grid = base
    while grid <= 2 * max_degree:
        grid *= 2
    return grid


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients of 1/f on the window |j| <= wa, |k| <= wb.

    coeffs[wa + j, wb + k] = c_{jk}; grid_size is the FFT size at which the
    doubling iteration converged, convergence_residual the last sweep's
    max coefficient change.
    """

    window: tuple
    coeffs: np.ndarray
    grid_size: int
    convergence_residual: float

    def coeff(self, j, k):
        wa, wb = self.window
        if abs(j) > wa or abs(k) > wb:
            raise IndexError("(%d, %d) outside window" % (j, k))
        return complex(self.coeffs[wa + j, wb + k])


def fourier_of_reciprocal(f, window):
    """Fourier coefficients of 1/f over `window` = (wa, wb).

    f must be Hermitian and strictly positive on the torus. On an N x N
    grid the table is the windowed fft2 of sampled 1/f, with N doubled from
    128 until the table changes by less than FOURIER_TOL (aliasing decays
    exponentially for strictly positive f). f is sampled FOURIER_BLOCK_ROWS
    theta_a rows at a time (`unit_grid_blocks`); each block is transformed
    along b and only the window's 2*wb + 1 columns are kept, then that
    N x (2*wb + 1) strip is transformed along a. No N x N array is held:
    memory is O(FOURIER_BLOCK_ROWS * N) for one block plus O(N * box width)
    for f's box transformed along a, and time O(N^2 log N) per grid
    whatever f's degree. A sample of f at or below zero on any of these
    grids raises "f not strictly positive".
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit torus)")
    wa, wb = int(window[0]), int(window[1])
    if wa < 0 or wb < 0:
        raise ValueError("window must be nonnegative")

    deg = f.degrees()
    max_deg = 0 if deg.is_zero else max(deg.deg_a, deg.deg_b)
    grid = _pow2_grid(FOURIER_START, max_deg)
    if 2 * grid > FOURIER_MAX:
        # convergence needs two successive grids within FOURIER_MAX; fail
        # before sampling anything
        raise FactorizationError("no convergence")

    js = np.arange(-wa, wa + 1)
    ks = np.arange(-wb, wb + 1)
    previous = None
    while grid <= FOURIER_MAX:
        # fft2 of 1/f with the window's columns kept after the pass along b
        strip = np.empty((grid, ks.size), dtype=complex)
        for start, block in f.unit_grid_blocks(grid, FOURIER_BLOCK_ROWS):
            values = block.real
            if values.min() <= 0.0:
                raise FactorizationError("f not strictly positive")
            strip[start : start + len(values)] = np.fft.fft(1.0 / values, axis=1)[:, ks % grid]
        table = np.fft.fft(strip, axis=0)[js % grid] / grid**2
        if previous is not None:
            residual = float(np.abs(table - previous).max())
            if residual < FOURIER_TOL:
                return FourierTable(
                    window=(wa, wb),
                    coeffs=table,
                    grid_size=grid,
                    convergence_residual=residual,
                )
        previous = table
        grid *= 2
    raise FactorizationError("no convergence")


@dataclass(frozen=True)
class GammaMatrix:
    """Difference-indexed matrix Gamma[(j,k),(j',k')] = c_{j-j', k-k'} over
    the lattice {0..n}x{0..m}, ordinal (j,k) -> j*(m+1) + k."""

    matrix: np.ndarray
    n: int
    m: int


def build_gamma(table, n, m):
    wa, wb = table.window
    if wa < n or wb < m:
        raise FactorizationError("window insufficient")
    # lattice coordinates of each ordinal j*(m+1) + k
    j, k = np.divmod(np.arange((n + 1) * (m + 1)), m + 1)
    matrix = table.coeffs[wa + j[:, None] - j, wb + k[:, None] - k]
    return GammaMatrix(matrix=matrix, n=n, m=m)


@dataclass(frozen=True)
class RankConditionReport:
    """Outcome of both rank-condition routes.

    Route one: the submatrix of Gamma with rows (j,0) and columns (0,l)
    removed must have rank exactly n*m. Route two: the inverse of Gamma
    restricted to the lattice minus the origin must vanish on the block
    with rows (i,0), i>=1 and columns (0,l), l>=1. The two must agree;
    `satisfied` reports their common verdict.
    """

    satisfied: bool
    submatrix_rank: int
    target_rank: int
    singular_values: np.ndarray
    inverse_block_max: float
    inverse_block_rel: float
    gamma_condition: float


def rank_condition(gamma, n, m):
    matrix = gamma.matrix
    lattice = [(j, k) for j in range(n + 1) for k in range(m + 1)]
    target = n * m

    rows = [i for i, (j, k) in enumerate(lattice) if k >= 1]
    cols = [i for i, (j, k) in enumerate(lattice) if j >= 1]
    sub = matrix[np.ix_(rows, cols)]
    if sub.size == 0:
        singular_values = np.zeros(0)
        rank = 0
    else:
        singular_values = np.linalg.svd(sub, compute_uv=False)
        top = singular_values[0]
        rank = 0 if top == 0 else int((singular_values > RANK_REL_TOL * top).sum())
    route_one = rank == target

    # ordinal of (0,0) is 0, so dropping the origin is dropping index 0
    reduced = matrix[1:, 1:]
    if reduced.size == 0:
        block_max = 0.0
        block_rel = 0.0
        condition = 1.0
    else:
        condition = float(np.linalg.cond(reduced))
        inverse = np.linalg.inv(reduced)
        block_rows = [(i * (m + 1)) - 1 for i in range(1, n + 1)]
        block_cols = [l - 1 for l in range(1, m + 1)]
        block = inverse[np.ix_(block_rows, block_cols)]
        block_max = float(np.abs(block).max()) if block.size else 0.0
        block_rel = block_max / float(np.abs(inverse).max())
    route_two = block_rel <= INVERSE_BLOCK_REL_TOL

    if route_one != route_two:
        raise FactorizationError(
            "routes disagree: submatrix rank %d (target %d) vs inverse-block "
            "relative %.3e" % (rank, target, block_rel)
        )
    return RankConditionReport(
        satisfied=route_one,
        submatrix_rank=rank,
        target_rank=target,
        singular_values=singular_values,
        inverse_block_max=block_max,
        inverse_block_rel=block_rel,
        gamma_condition=condition,
    )


@dataclass(frozen=True)
class Factorization2D:
    """Stable factor p (support in {0..n}x{0..m}, constant coefficient real
    positive), sup residual of f - |p|^2 on the verification grid, and the
    outcome of sampling |p| on a radial-angular net of the closed bidisk."""

    p: LaurentPoly2
    residual: float
    stable_verified: bool
    min_on_net: float
    convergence_residual: float = 0.0


def _bidisk_net():
    angles = np.exp(2j * np.pi * np.arange(NET_ANGLES) / NET_ANGLES)
    return np.concatenate([r * angles for r in NET_RADII])


def _min_on_bidisk_net(p):
    net = _bidisk_net()
    values = p.eval_grid(net, net)
    return float(np.abs(values).min())


def extract_stable_factor(gamma, f, n, m, convergence_residual=0.0):
    """Candidate stable factor from the linear solve Gamma q = e_{(0,0)}.

    When the rank condition holds, q is the conjugate of the factor's
    constant coefficient times the factor itself, so normalizing by
    sqrt(q_{00}) recovers p with p_{00} real positive (this pins the
    overall phase, making repeated extractions identical). The candidate
    is verified against f on a torus grid and against a closed-bidisk
    sampling net.
    """
    matrix = gamma.matrix
    unit = np.zeros((n + 1) * (m + 1))
    unit[0] = 1.0
    solved = np.linalg.solve(matrix, unit)
    q00 = solved[0]
    if not (q00.real > 0 and abs(q00.imag) <= 1e-8 * abs(q00)):
        raise FactorizationError(
            "verification failed: constant coefficient of the solve is not positive"
        )
    scale = 1.0 / math.sqrt(q00.real)
    # the lattice ordinal j*(m+1) + k is row-major order on the (n+1, m+1) box
    p = LaurentPoly2.from_array(solved.reshape(n + 1, m + 1) * scale, 0, 0)

    deg = f.degrees()
    max_deg = 0 if deg.is_zero else max(deg.deg_a, deg.deg_b)
    grid = _pow2_grid(VERIFY_GRID, max(max_deg, 2 * n, 2 * m))
    f_values = f.eval_unit_grid(grid).real
    p_values = p.eval_unit_grid(grid)
    residual = float(np.abs(f_values - np.abs(p_values) ** 2).max())
    if residual >= VERIFY_REL_TOL * float(np.abs(f_values).max()):
        raise FactorizationError("verification failed")

    min_on_net = _min_on_bidisk_net(p)
    return Factorization2D(
        p=p,
        residual=residual,
        stable_verified=min_on_net > 0.0,
        min_on_net=min_on_net,
        convergence_residual=convergence_residual,
    )


def stable_from_contraction(K, slots):
    """det(I - K Z) for Z = diag of the variable named in each slot.

    Expanded over principal minors: the coefficient of a^j b^k is
    sum over subsets S with j 'a'-slots and k 'b'-slots of
    (-1)^{|S|} det(K[S, S]). A strict contraction K makes the result
    stable, since KZ then has spectral radius below one on the bidisk.
    """
    slots = tuple(slots)
    if any(s not in ("a", "b") for s in slots):
        raise ValueError("slots must be 'a' or 'b'")
    size = len(slots)
    K = np.atleast_2d(np.asarray(K, dtype=complex))
    if K.shape != (size, size):
        raise ValueError("K must be %d x %d" % (size, size))
    if size and np.linalg.norm(K, 2) >= 1.0:
        raise ValueError("K must be a strict contraction")

    coeffs = {(0, 0): 1.0 + 0.0j}
    for count in range(1, size + 1):
        for subset in combinations(range(size), count):
            minor = np.linalg.det(K[np.ix_(subset, subset)])
            j = sum(1 for i in subset if slots[i] == "a")
            k = count - j
            coeffs[(j, k)] = coeffs.get((j, k), 0.0) + (-1) ** count * minor
    return LaurentPoly2(coeffs)


def generate_stable(deg_a, deg_b, seed):
    """Random stable polynomial of degree (deg_a, deg_b) with p(0,0) = 1,
    built as det(I - KZ) from a random contraction rescaled to norm 0.8."""
    deg_a, deg_b = int(deg_a), int(deg_b)
    if deg_a < 0 or deg_b < 0:
        raise ValueError("degrees must be nonnegative")
    if deg_a + deg_b > 8:
        raise ValueError("degree sum too large for determinant expansion")
    size = deg_a + deg_b
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    if size:
        K *= 0.8 / np.linalg.norm(K, 2)
    p = stable_from_contraction(K, ("a",) * deg_a + ("b",) * deg_b)
    if _min_on_bidisk_net(p) <= 0.0:
        raise RuntimeError("generated polynomial vanishes on the bidisk net")
    return p


@dataclass(frozen=True)
class CompletionResult2D:
    """Completed unitary, recovered protocol (None when the completion is a
    valid unitary but peeling fails), the stable factorization, and the
    rank-condition report."""

    unitary: Su2LaurentUnitary
    spec: object
    factorization: Factorization2D
    rank_report: RankConditionReport


def complete_unitary_2d(p_tilde, q_tilde, n, m):
    """Extend real-on-torus targets to a protocol unitary of length n and
    weight m.

    Ptilde must be inversion-even and Qtilde inversion-odd, both with
    negation parity (m mod 2, (n-m) mod 2) and degrees within (m, n-m);
    f = 1 - Ptilde^2 - Qtilde^2 must be strictly positive. The stable
    factor of f, shifted by a^{-m} b^{-(n-m)}, splits into a Hermitian
    part R and anti-Hermitian part iS with R^2 + S^2 = f, so the matrix
    [[Ptilde + iR, Qtilde + iS], [...]] is exactly unitary up to the
    factorization residual. Phase read-off is attempted; failure leaves
    spec None rather than raising, since a valid completion need not be
    protocol-realizable.
    """
    n, m = int(n), int(m)
    if not 0 <= m <= n:
        raise ValueError("weight must satisfy 0 <= m <= n")
    for poly in (p_tilde, q_tilde):
        if not poly.is_hermitian():
            raise ValueError("inputs must be real on the unit torus")
        if not poly.is_zero():
            bit_a, bit_b = poly.negation_bits()
            if bit_a != m % 2 or bit_b != (n - m) % 2:
                raise FactorizationError("parity mismatch")
            deg = poly.degrees()
            if deg.deg_a > m or deg.deg_b > n - m:
                raise FactorizationError("degree exceeds bound")
    if not p_tilde.has_inversion_sign(+1) or not q_tilde.has_inversion_sign(-1):
        raise FactorizationError("parity mismatch")

    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    deg_f = f.degrees()
    lattice_n = 0 if deg_f.is_zero else deg_f.deg_a
    lattice_m = 0 if deg_f.is_zero else deg_f.deg_b

    table = fourier_of_reciprocal(f, (lattice_n, lattice_m))
    gamma = build_gamma(table, lattice_n, lattice_m)
    report = rank_condition(gamma, lattice_n, lattice_m)
    if not report.satisfied:
        raise FactorizationError("rank condition not satisfied")
    factorization = extract_stable_factor(
        gamma, f, lattice_n, lattice_m, table.convergence_residual
    )

    unitary = assemble_completion(p_tilde, q_tilde, factorization.p, n, m)
    try:
        spec = readoff(unitary.P, unitary.Q).spec
    except (ReadoffError, VerificationError):
        spec = None
    return CompletionResult2D(
        unitary=unitary,
        spec=spec,
        factorization=factorization,
        rank_report=report,
    )
