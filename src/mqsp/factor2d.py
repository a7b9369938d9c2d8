"""Two-variable conditional spectral factorization and unitary completion.

A strictly positive Hermitian Laurent polynomial f on the torus admits
f = p * conj_reciprocal(p) with p a *stable* polynomial (no zeros on the
closed bidisk, support in {0..n}x{0..m}) exactly when a rank condition on
the Fourier coefficients of 1/f holds. gamma_factor, the Gamma route,
computes those Fourier coefficients, tests the rank condition by two
independent routes and extracts the stable factor from a linear solve;
complete_unitary_2d uses it to complete a pair of real-on-torus targets
(Ptilde, Qtilde) to a full protocol unitary.

The route sizes its work per axis, so f in one variable (factor1d, the
case m = n) costs one-variable work and meets a vacuous rank condition.
The completion contract is shared with one variable: check_targets on the
inputs, assemble_and_read_off after the factor, and one CompletionResult;
factor1d's fallback factor must pass the same residual gate,
VERIFY_REL_TOL times max f.
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

# fourier_of_reciprocal's grid bounds (one axis, in all) and sampling block
FOURIER_START = 128
FOURIER_AXIS_MAX = 2**16
FOURIER_CELLS_MAX = 4096**2
FOURIER_BLOCK_CELLS = 2**18
FOURIER_TOL = 1e-10
RANK_REL_TOL = 1e-8
# Relative size of the inverse-block entries below which the second route
# counts as satisfied. Observed ~1e-12 on exact-rank fixtures (set by the
# Fourier truncation) and O(1) on non-factorable f.
INVERSE_BLOCK_REL_TOL = 1e-6
VERIFY_GRID = 128
VERIFY_REL_TOL = 1e-6
NET_RADII = (0.2, 0.4, 0.6, 0.8, 1.0)
NET_ANGLES = 64


def _degrees(poly):
    """(deg_a, deg_b) of poly, (0, 0) for the zero polynomial."""
    deg = poly.degrees()
    return (0, 0) if deg.is_zero else (deg.deg_a, deg.deg_b)


def _pow2_grid(base, max_degree):
    """Smallest admissible FFT grid >= base for the given exponent spread."""
    grid = base
    while grid <= 2 * max_degree:
        grid *= 2
    return grid


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients of 1/f on the window |j| <= wa, |k| <= wb.

    coeffs[wa + j, wb + k] = c_{jk}; grid_size is the pair (na, nb) of FFT
    sizes at which the doubling iteration converged, convergence_residual
    the last sweep's max coefficient change.
    """

    window: tuple
    coeffs: np.ndarray
    grid_size: tuple
    convergence_residual: float

    def coeff(self, j, k):
        wa, wb = self.window
        if abs(j) > wa or abs(k) > wb:
            raise IndexError("(%d, %d) outside window" % (j, k))
        return complex(self.coeffs[wa + j, wb + k])


def _exceeds_bounds(na, nb):
    return max(na, nb) > FOURIER_AXIS_MAX or na * nb > FOURIER_CELLS_MAX


def fourier_of_reciprocal(f, window):
    """Fourier coefficients of 1/f over `window` = (wa, wb).

    f must be Hermitian and strictly positive on the torus. The table is
    the windowed fft2 of 1/f sampled on an na x nb grid sized per axis:
    one sample, which is exact, along an axis where f has degree 0 and the
    window is 0; else _pow2_grid(FOURIER_START, f's degree in that
    variable) samples, doubled with the other axis until the table changes
    by less than FOURIER_TOL (aliasing decays exponentially for strictly
    positive f). Past FOURIER_AXIS_MAX samples on an axis or
    FOURIER_CELLS_MAX in all it raises "no convergence", before sampling
    anything when the first doubling is already past them.

    f is sampled in whole theta_a rows, at most FOURIER_BLOCK_CELLS samples
    at a time (`unit_grid_blocks`); each block is transformed along b and
    only the window's 2*wb + 1 columns are kept, then that na x (2*wb + 1)
    strip is transformed along a. Memory is O(max(FOURIER_BLOCK_CELLS, nb))
    samples for one block plus O(na * box width) for f's box transformed
    along a, and time O(na nb log(na nb)) per grid whatever f's degree. A
    sample of f at or below zero raises "f not strictly positive".
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit torus)")
    wa, wb = int(window[0]), int(window[1])
    if wa < 0 or wb < 0:
        raise ValueError("window must be nonnegative")

    na, nb = (1 if d == w == 0 else _pow2_grid(FOURIER_START, d) for d, w in zip(_degrees(f), (wa, wb)))
    step_a, step_b = (2 if na > 1 else 1), (2 if nb > 1 else 1)
    exact = na == nb == 1
    if not exact and _exceeds_bounds(step_a * na, step_b * nb):
        # convergence needs two successive grids within the bounds; fail
        # before sampling anything
        raise FactorizationError("no convergence")

    js = np.arange(-wa, wa + 1)
    ks = np.arange(-wb, wb + 1)
    previous = None
    while not _exceeds_bounds(na, nb):
        # fft2 of 1/f with the window's columns kept after the pass along b;
        # an axis of one sample takes no FFT
        strip = np.empty((na, ks.size), dtype=complex)
        for start, block in f.unit_grid_blocks((na, nb), FOURIER_BLOCK_CELLS):
            values = block.real
            if values.min() <= 0.0:
                raise FactorizationError("f not strictly positive")
            recip = np.fft.fft(1.0 / values, axis=1) if nb > 1 else 1.0 / values
            strip[start : start + len(values)] = recip[:, ks % nb]
        table = (np.fft.fft(strip, axis=0) if na > 1 else strip)[js % na] / (na * nb)
        if exact or previous is not None:
            residual = 0.0 if exact else float(np.abs(table - previous).max())
            if residual < FOURIER_TOL:
                return FourierTable(
                    window=(wa, wb),
                    coeffs=table,
                    grid_size=(na, nb),
                    convergence_residual=residual,
                )
        previous = table
        na, nb = step_a * na, step_b * nb
    raise FactorizationError("no convergence")


def _lattice(n, m):
    """Lattice coordinates (j, k) of each ordinal j*(m+1) + k on {0..n}x{0..m}."""
    return np.divmod(np.arange((n + 1) * (m + 1)), m + 1)


def build_gamma(table, n, m):
    """Difference-indexed matrix Gamma[(j,k),(j',k')] = c_{j-j', k-k'} over
    the lattice {0..n}x{0..m}, rows and columns in ordinal order."""
    wa, wb = table.window
    if wa < n or wb < m:
        raise FactorizationError("window insufficient")
    j, k = _lattice(n, m)
    return table.coeffs[wa + j[:, None] - j, wb + k[:, None] - k]


@dataclass(frozen=True)
class RankConditionReport:
    """Outcome of both rank-condition routes.

    Route one: the submatrix of Gamma with rows (j,0) and columns (0,l)
    removed must have rank exactly n*m. Route two: the inverse of Gamma
    restricted to the lattice minus the origin must vanish on the block
    with rows (i,0), i>=1 and columns (0,l), l>=1 (inverse_block_rel,
    relative to the inverse's largest entry). The two must agree;
    `satisfied` reports their common verdict. With n*m = 0 both hold
    vacuously: rank 0, inverse_block_rel 0.0, and nothing is decomposed.
    """

    satisfied: bool
    submatrix_rank: int
    target_rank: int
    singular_values: np.ndarray
    inverse_block_rel: float


def rank_condition(gamma, n, m):
    target = n * m
    if not target:
        # the submatrix and the inverse block are empty: both routes hold
        return RankConditionReport(True, 0, 0, np.zeros(0), 0.0)
    j, k = _lattice(n, m)

    sub = gamma[np.ix_(np.flatnonzero(k >= 1), np.flatnonzero(j >= 1))]
    singular_values = np.linalg.svd(sub, compute_uv=False)
    top = singular_values[0]
    rank = 0 if top == 0 else int((singular_values > RANK_REL_TOL * top).sum())
    route_one = rank == target

    # ordinal of (0,0) is 0, so dropping the origin is dropping index 0
    inverse = np.linalg.inv(gamma[1:, 1:])
    # rows (i,0), i>=1 and columns (0,l), l>=1, shifted past the origin
    block_rows = np.flatnonzero((k == 0) & (j >= 1)) - 1
    block_cols = np.flatnonzero((j == 0) & (k >= 1)) - 1
    block = inverse[np.ix_(block_rows, block_cols)]
    block_rel = float(np.abs(block).max()) / float(np.abs(inverse).max())
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
        inverse_block_rel=block_rel,
    )


@dataclass(frozen=True)
class Factorization2D:
    """Stable factor p (support in {0..n}x{0..m}, constant coefficient real
    positive) and sup residual of f - |p|^2 on the verification grid.

    min_on_net (smallest |p| on a radial-angular net of the closed bidisk)
    and stable_verified (that minimum is positive) are report values, not
    a gate: each is computed when read, so a completion that never reads
    them never evaluates the net."""

    p: LaurentPoly2
    residual: float

    @property
    def min_on_net(self):
        return _min_on_bidisk_net(self.p)

    @property
    def stable_verified(self):
        return self.min_on_net > 0.0


def _bidisk_net():
    angles = np.exp(2j * np.pi * np.arange(NET_ANGLES) / NET_ANGLES)
    return np.concatenate([r * angles for r in NET_RADII])


def _min_on_bidisk_net(p):
    """min |p| on the net in both variables; along an axis where p has
    degree 0 (p constant along it) one net point gives the same minimum."""
    net = _bidisk_net()
    za, zb = (net if d else net[:1] for d in _degrees(p))
    return float(np.abs(p.eval_grid(za, zb)).min())


def _solve_for_factor(gamma):
    """Solution q of Gamma q = e_0 scaled by 1/sqrt(q_0): the candidate
    factor's coefficients in lattice order, the first one real positive."""
    unit = np.zeros(len(gamma))
    unit[0] = 1.0
    solved = np.linalg.solve(gamma, unit)
    q0 = solved[0]
    if not (q0.real > 0 and abs(q0.imag) <= 1e-8 * abs(q0)):
        raise FactorizationError(
            "verification failed: constant coefficient of the solve is not positive"
        )
    return solved * (1.0 / math.sqrt(q0.real))


def extract_stable_factor(gamma, f, n, m):
    """Candidate stable factor from the linear solve Gamma q = e_{(0,0)}.

    When the rank condition holds, q is the conjugate of the factor's
    constant coefficient times the factor itself, so normalizing by
    sqrt(q_{00}) recovers p with p_{00} real positive (this pins the
    overall phase, making repeated extractions identical). The candidate
    must fit f to within VERIFY_REL_TOL times max f ("verification
    failed") on a torus grid of _pow2_grid(VERIFY_GRID, max(deg f, 2n, 2m))
    samples per axis, or one sample along an axis where f and the lattice
    both have extent 0. The closed-bidisk net is left to Factorization2D.
    """
    # the lattice ordinal j*(m+1) + k is row-major order on the (n+1, m+1) box
    p = LaurentPoly2.from_array(_solve_for_factor(gamma).reshape(n + 1, m + 1), 0, 0)

    degrees = _degrees(f)
    grid = _pow2_grid(VERIFY_GRID, max(*degrees, 2 * n, 2 * m))
    shape = tuple(grid if d or w else 1 for d, w in zip(degrees, (n, m)))
    ((_, f_values),) = f.unit_grid_blocks(shape, grid * grid)
    ((_, p_values),) = p.unit_grid_blocks(shape, grid * grid)
    f_values = f_values.real
    residual = float(np.abs(f_values - np.abs(p_values) ** 2).max())
    if residual >= VERIFY_REL_TOL * float(np.abs(f_values).max()):
        raise FactorizationError("verification failed")
    return Factorization2D(p=p, residual=residual)


def gamma_factor(f):
    """(Factorization2D, RankConditionReport, convergence residual): the
    stable factor of a strictly positive f on the lattice of its degree box
    by fourier_of_reciprocal, build_gamma, rank_condition and
    extract_stable_factor. Raises as they do, and "rank condition not
    satisfied" when the rank condition fails.
    """
    n, m = _degrees(f)
    table = fourier_of_reciprocal(f, (n, m))
    gamma = build_gamma(table, n, m)
    report = rank_condition(gamma, n, m)
    if not report.satisfied:
        raise FactorizationError("rank condition not satisfied")
    return extract_stable_factor(gamma, f, n, m), report, table.convergence_residual


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


def check_targets(p_tilde, q_tilde, n, m):
    """The completion's contract on real targets for length n, weight m.

    Both must be real on the torus, with negation parity (m mod 2,
    (n-m) mod 2) and degrees within (m, n-m); Ptilde must be
    inversion-even and Qtilde inversion-odd. One variable is the case
    m = n with the targets embedded on axis a.
    """
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


@dataclass(frozen=True)
class CompletionResult:
    """Completed unitary, recovered protocol (None when the completion is a
    valid unitary but peeling fails), and the factorization used: a
    Factorization2D for two variables, a factor1d.Factorization1D for one.
    complete_unitary_2d also reports gamma_factor's rank condition and the
    convergence residual of the Fourier table of 1/f; both are None for
    one variable, whichever route its factor took."""

    unitary: Su2LaurentUnitary
    spec: object
    factorization: object
    rank_report: RankConditionReport | None = None
    convergence_residual: float | None = None


def assemble_and_read_off(p_tilde, q_tilde, factor, n, m):
    """(unitary, spec): [[Ptilde + iR, Qtilde + iS], ...] assembled from the
    spectral factor (assemble_completion), and the protocol read off it.
    A read-off failure leaves spec None rather than raising, since a valid
    completion need not be protocol-realizable."""
    unitary = assemble_completion(p_tilde, q_tilde, factor, n, m)
    try:
        spec = readoff(unitary.P, unitary.Q).spec
    except (ReadoffError, VerificationError):
        spec = None
    return unitary, spec


def complete_unitary_2d(p_tilde, q_tilde, n, m):
    """Extend real-on-torus targets to a protocol unitary of length n and
    weight m.

    The targets must pass check_targets, and f = 1 - Ptilde^2 - Qtilde^2
    must be strictly positive. gamma_factor's stable factor of f, shifted by
    a^{-m} b^{-(n-m)}, splits into a Hermitian part R and anti-Hermitian
    part iS with R^2 + S^2 = f, so the matrix [[Ptilde + iR, Qtilde + iS],
    [...]] is exactly unitary up to the factorization residual
    (assemble_and_read_off).
    """
    n, m = int(n), int(m)
    check_targets(p_tilde, q_tilde, n, m)
    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    factorization, report, residual = gamma_factor(f)
    unitary, spec = assemble_and_read_off(p_tilde, q_tilde, factorization.p, n, m)
    return CompletionResult(unitary, spec, factorization, report, residual)
