"""Spectral factorization and unitary completion, in one variable and two.

A strictly positive Hermitian Laurent polynomial f on the torus admits
f = p * conj_reciprocal(p) with p a *stable* polynomial (no zeros on the
closed bidisk, support in {0..n}x{0..m}) exactly when a rank condition on
the Fourier coefficients of 1/f holds. gamma_factor, the Gamma route,
computes those Fourier coefficients, tests the rank condition on one
submatrix of Gamma and extracts the stable factor from a linear solve. It
sizes its work per axis, so f in one variable costs one-variable work (f's
half spectrum made once, then one irfft/rfft pair per grid) and meets a
vacuous rank condition, and it doubles its Fourier grid only while the
residuals can still reach a tolerance relative to the table's scale; on
two axes it first looks once for a witness that f touches zero on the
torus, where no stable factor exists. fejer_riesz, Wilson's Newton
iteration, factors a nonnegative f on axis a, zeros on the circle
included.

spectral_factor is the one place that picks the route: gamma_factor, and
fejer_riesz when that raises and f lies on axis a; an f on axis b alone is
factored as its transpose. Either route returns one Factorization2D, which
says which route made it, through one factor gate, _gated, which samples
the factor on the grid of f's samples: residual below VERIFY_REL_TOL times
max f. complete_unitary_2d completes a pair of real-on-torus targets
(Ptilde, Qtilde) through it to a full protocol unitary; one variable is
its case m = n with the targets on axis a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from mqsp.errors import FactorizationError, ReadoffError
from mqsp.laurent import (
    LaurentPoly1,
    LaurentPoly2,
    aligned,
    cos_sin_rows,
    harmonic_analysis,
    harmonic_sums_pay,
)
from mqsp.protocol import Su2LaurentUnitary, assemble_completion, conforms
from mqsp.readoff import readoff

# fourier_of_reciprocal's grid bounds (one axis, in all) and sampling block
FOURIER_START = 128
FOURIER_AXIS_MAX = 2**16
FOURIER_CELLS_MAX = 4096**2
FOURIER_BLOCK_CELLS = 2**18
FOURIER_TOL = 1e-10
RANK_REL_TOL = 1e-8
VERIFY_GRID = 128
VERIFY_REL_TOL = 1e-6
# most Newton steps of fejer_riesz: strictly positive f converges
# quadratically in 6-16 steps, double zeros on the circle linearly in ~30;
# also of the Gamma route's search for a zero of f on the torus
NEWTON_STEPS = 64
# f's sign-check floor, relative to max(1, max f): fejer_riesz's negativity
# floor and root class, and the value at which the Gamma route's search
# takes a point as a zero of f on the torus
SIGN_FLOOR_REL = 1e-12
# smallest circle grid on which fejer_riesz checks f's sign and its factor
CHECK_GRID = 1024


def _pow2_grid(base, max_degree):
    """Smallest admissible FFT grid >= base for the given exponent spread."""
    grid = base
    while grid <= 2 * max_degree:
        grid *= 2
    return grid


@dataclass(frozen=True)
class FourierTable:
    """Fourier coefficients of 1/f on the window |j| <= wa, |k| <= wb.

    coeffs[wa + j, wb + k] = c_{jk}; grid_size is the pair (na, nb) of grid
    sizes (samples per axis) at which the doubling iteration converged,
    convergence_residual the last sweep's max coefficient change.
    """

    window: tuple
    coeffs: np.ndarray
    grid_size: tuple
    convergence_residual: float


def _exceeds_bounds(na, nb):
    return max(na, nb) > FOURIER_AXIS_MAX or na * nb > FOURIER_CELLS_MAX


def _may_converge(residual, scale, grid, steps):
    """Whether doubling on from `grid` can still bring the residual below
    the tolerance FOURIER_TOL * scale, scale = max(1, max |table|).

    For a positive 1/f no Fourier coefficient exceeds c_00 in size. While
    they decay like C rho^|k| with C at most scale, the residual between
    the last two grids is about `aliases` C rho^(N/2), from the
    coefficients N/2 away along the doubled axes (2 along one axis, 8
    along two), so rho^(N/2) >= x = residual / (aliases scale). Each
    doubling squares that factor (trapezoidal sums of an analytic periodic
    integrand), so after the D doublings left within the bounds the
    residual is at least aliases scale x^(2^D): the doubling can succeed
    only if that falls below the tolerance."""
    (na, nb), (step_a, step_b) = grid, steps
    aliases = 3 ** ((step_a > 1) + (step_b > 1)) - 1
    x = residual / (aliases * scale)
    while residual >= FOURIER_TOL * scale:
        na, nb = step_a * na, step_b * nb
        if _exceeds_bounds(na, nb):
            return False
        x *= x
        residual = aliases * scale * x
    return True


def _dft_entries(half, offsets, n):
    """Entries at offsets (mod n) along the last axis of the DFT of a real
    length-n sequence, read from its first entries `half` (its rfft half,
    or as many as the offsets reach): past n/2, the conjugate of the
    mirror entry."""
    residues = offsets % n
    mirrored = residues > n // 2
    entries = half[..., np.where(mirrored, n - residues, residues)]
    entries[..., mirrored] = entries[..., mirrored].conj()
    return entries


def _axis_table(f_half, js, na):
    """The unscaled table of 1/f on an na x 1 grid from f's half spectrum:
    one irfft, 1/f in place, one rfft read by _dft_entries."""
    recip = np.fft.irfft(f_half, n=na, norm="forward")
    if np.minimum.reduce(recip) <= 0.0:
        raise FactorizationError("f not strictly positive")
    return _dft_entries(np.fft.rfft(np.divide(1.0, recip, out=recip)), js, na)


def _torus_zero(f, point, cells, floor):
    """The point (theta_a, theta_b) where Newton's method on grad f = 0,
    from `point`, meets f <= floor: a witness that f touches zero on the
    torus. None when it stops short of one, which proves nothing.

    Exact first and second derivatives come from f's coefficients, and
    each step is scaled down to at most `cells` = (cell_a, cell_b) radians
    per axis, one grid cell. The search stops at a witness, after
    NEWTON_STEPS steps, when the 2 x 2 system is singular, or when a step,
    measured in cells before that cap, is no shorter than the one before
    (as at a positive minimum once rounding sets the step)."""
    terms = f.items()
    exps = np.array([e for e, _ in terms], dtype=float).T
    coeffs = np.array([c for _, c in terms])
    theta = np.array(point, dtype=float)
    last = math.inf
    with np.errstate(all="ignore"):
        for steps_left in range(NEWTON_STEPS, -1, -1):
            values = coeffs * np.exp(1j * (theta @ exps))
            if values.real.sum() <= floor:
                return theta
            if not steps_left:
                break
            # grad f = -exps @ Im(values), its Hessian -(exps Re(values)) exps^T
            try:
                step = -np.linalg.solve((exps * values.real) @ exps.T, exps @ values.imag)
            except np.linalg.LinAlgError:
                break
            reach = float(np.max(np.abs(step) / cells))
            if not reach < last:
                break
            theta += step / max(1.0, reach)
            last = reach
    return None


def fourier_of_reciprocal(f, window):
    """Fourier coefficients of 1/f over `window` = (wa, wb).

    f must be Hermitian and strictly positive on the torus. The table is
    the windowed fft2 of 1/f sampled on an na x nb grid sized per axis:
    one sample, which is exact, along an axis where f has degree 0 and the
    window is 0; else _pow2_grid(FOURIER_START, f's degree in that
    variable) samples, doubled with the other axis until the table changes
    by less than FOURIER_TOL * max(1, max |table|), a tolerance relative to
    the table's scale because rounding in the sampled 1/f grows with it
    (aliasing decays exponentially for strictly positive f). It raises "no
    convergence" past FOURIER_AXIS_MAX samples on an axis or
    FOURIER_CELLS_MAX in all, before sampling anything when the first
    doubling is already past them, and as soon as a residual shows that
    the tolerance cannot be reached within them (_may_converge): the
    fastest decay of the aliases that the residual and the table's scale
    allow, squared at each doubling left, still ends at or above it.
    "no convergence" thus means that no zero of f was found either: with
    more than one sample on both axes, the first residual that misses the
    tolerance starts one search for a zero of f on the torus, before
    _may_converge is asked (_torus_zero, from the smallest sample of the
    grid just sampled, with the floor SIGN_FLOOR_REL * max(1, max f) over
    those samples). A witness raises "f not strictly positive", since such
    an f has no stable factor and 1/f no Fourier series; a miss leaves the
    grids and the table as they were. One-axis grids never search.

    f is sampled as real numbers. With one sample along b, f's
    half_spectrum is made once per call, and a grid costs one irfft and
    one rfft (_axis_table). Otherwise f is sampled in whole theta_a rows,
    at most FOURIER_BLOCK_CELLS samples at a time (`real_grid_blocks`).
    1/f is taken in place of each block's samples, and along b the block
    yields only the window's harmonics k = 0..wb (those of k < 0 are their
    conjugates): when harmonic_sums_pay(wb + 1, nb, FOURIER_BLOCK_CELLS),
    i.e. wb + 1 <= log2(nb) and the cos_sin_rows table of 2 (wb + 1) nb
    values fits in a block, as direct sums, one matrix product per block;
    else by one rfft of the block. That na x (2*wb + 1) strip is then
    transformed along a. Memory is, per block, at most
    max(FOURIER_BLOCK_CELLS, nb) real samples plus, on the FFT paths, half
    spectra of about half as many complex values; per grid, the direct
    paths' tables (at most FOURIER_BLOCK_CELLS values each), the strip and
    f's box columns of b exponent >= 0 transformed along a (na x
    (deg_b + 1) complex). Time per grid is O(na nb log(na nb)) on the FFT
    paths; direct sums, O(nb) per harmonic and row, are taken only for at
    most log2(nb) harmonics. A sample of f at or below zero raises "f not
    strictly positive"; the positivity test of each block takes its argmin,
    which also keeps the grid's smallest sample for the search.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit torus)")
    wa, wb = int(window[0]), int(window[1])
    if wa < 0 or wb < 0:
        raise ValueError("window must be nonnegative")

    na, nb = (1 if d == w == 0 else _pow2_grid(FOURIER_START, d) for d, w in zip(f.degrees(), (wa, wb)))
    step_a, step_b = (2 if na > 1 else 1), (2 if nb > 1 else 1)
    js = np.arange(-wa, wa + 1)
    ks = np.arange(-wb, wb + 1)
    if nb == 1:
        f_half = f.half_spectrum()
    # f on one axis meets its zeros on the circle in fejer_riesz
    search = na > 1 and nb > 1
    previous = None
    # convergence takes two grids within the bounds, so the first is sampled
    # only if its successor fits; a 1 x 1 grid is its own (sampled twice)
    while not _exceeds_bounds(*((na, nb) if previous is not None else (step_a * na, step_b * nb))):
        if nb == 1:
            table = _axis_table(f_half, js, na)[:, None]
        else:
            # fft2 of 1/f with only the window's columns taken along b:
            # direct sums over k = 0..wb when they pay, else one rfft per block
            rows = cos_sin_rows(wb + 1, nb) if harmonic_sums_pay(wb + 1, nb, FOURIER_BLOCK_CELLS) else None
            strip = np.empty((na, ks.size), dtype=complex)
            lowest, highest = (math.inf, 0), 0.0
            for start, values in f.real_grid_blocks((na, nb), FOURIER_BLOCK_CELLS):
                at = int(values.argmin())
                if values.flat[at] <= 0.0:
                    raise FactorizationError("f not strictly positive")
                if search:
                    lowest = min(lowest, (values.flat[at], start * nb + at))
                    highest = max(highest, values.max())
                recip = np.divide(1.0, values, out=values)
                half = np.fft.rfft(recip, axis=1) if rows is None else harmonic_analysis(recip, rows)
                strip[start : start + len(values)] = _dft_entries(half, ks, nb)
            table = (np.fft.fft(strip, axis=0) if na > 1 else strip)[js % na]
        table /= na * nb
        if previous is not None:
            residual = float(np.abs(table - previous).max())
            scale = max(1.0, float(np.abs(table).max()))
            if residual < FOURIER_TOL * scale:
                return FourierTable(
                    window=(wa, wb),
                    coeffs=table,
                    grid_size=(na, nb),
                    convergence_residual=residual,
                )
            if search:
                # one witness search, from the smallest sample of this grid
                search = False
                cells = 2 * math.pi / np.array([na, nb])
                point = cells * np.array(divmod(lowest[1], nb))
                if _torus_zero(f, point, cells, SIGN_FLOOR_REL * max(1.0, highest)) is not None:
                    raise FactorizationError("f not strictly positive")
            if not _may_converge(residual, scale, (na, nb), (step_a, step_b)):
                break
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
    """Outcome of the rank condition: the submatrix of Gamma with rows
    (j,0) and columns (0,l) removed must have rank exactly n*m, counting
    the singular values above RANK_REL_TOL times the largest. With n*m = 0
    it holds vacuously: rank 0, and nothing is decomposed.
    """

    satisfied: bool
    submatrix_rank: int
    target_rank: int
    singular_values: np.ndarray


def rank_condition(gamma, n, m):
    target = n * m
    if not target:
        # the submatrix is empty: the condition holds
        return RankConditionReport(True, 0, 0, np.zeros(0))
    j, k = _lattice(n, m)
    sub = gamma[np.ix_(np.flatnonzero(k >= 1), np.flatnonzero(j >= 1))]
    singular_values = np.linalg.svd(sub, compute_uv=False)
    top = singular_values[0]
    rank = 0 if top == 0 else int((singular_values > RANK_REL_TOL * top).sum())
    return RankConditionReport(
        satisfied=rank == target,
        submatrix_rank=rank,
        target_rank=target,
        singular_values=singular_values,
    )


@dataclass(frozen=True)
class Factorization2D:
    """Spectral factor p (support in {0..n}x{0..m}), sup residual of
    f - |p|^2 on the verification grid, and root class: "stable" (no zeros
    in the closed bidisk) for a Gamma-route factor; for fejer_riesz's,
    "outer" when f's smallest sample on its check grid is at most the sign
    check's floor (a zero of f on the circle, so of p), else "stable".

    rank_report and convergence_residual (of the Fourier table of 1/f) say
    how the Gamma route ran; both are None for a fejer_riesz factor. The
    report holds an array, so it takes no part in ==."""

    p: LaurentPoly2
    residual: float
    root_class: str = "stable"
    rank_report: RankConditionReport | None = field(default=None, compare=False)
    convergence_residual: float | None = None


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
    must pass _gated on a torus grid of _pow2_grid(VERIFY_GRID,
    max(deg f, 2n, 2m)) samples per axis, or one sample along an axis where
    f and the lattice both have extent 0. Raises ValueError, as
    fourier_of_reciprocal does, unless f is Hermitian.
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit torus)")
    # the lattice ordinal j*(m+1) + k is row-major order on the (n+1, m+1) box
    p = LaurentPoly2.from_array(_solve_for_factor(gamma).reshape(n + 1, m + 1), 0, 0)

    degrees = f.degrees()
    grid = _pow2_grid(VERIFY_GRID, max(*degrees, 2 * n, 2 * m))
    shape = tuple(grid if d or w else 1 for d, w in zip(degrees, (n, m)))
    ((_, f_values),) = f.real_grid_blocks(shape, grid * grid)
    return _gated(p, f_values)


def _gated(p, f_values, root_class="stable"):
    """The factor gate of both routes: p sampled on the grid of f's samples
    f_values (`unit_grid`), "verification failed" unless the residual
    max |f - |p|^2| there is below VERIFY_REL_TOL times max |f|."""
    residual = float(np.abs(f_values - np.abs(p.unit_grid(f_values.shape)) ** 2).max())
    if residual >= VERIFY_REL_TOL * float(np.abs(f_values).max()):
        raise FactorizationError("verification failed")
    return Factorization2D(p, residual, root_class)


def gamma_factor(f):
    """The stable factor of a strictly positive f on the lattice of its
    degree box by fourier_of_reciprocal, build_gamma, rank_condition and
    extract_stable_factor, with the rank report and the table's
    convergence residual. Raises as they do, and "rank condition not
    satisfied" when the rank condition fails.
    """
    n, m = f.degrees()
    table = fourier_of_reciprocal(f, (n, m))
    gamma = build_gamma(table, n, m)
    report = rank_condition(gamma, n, m)
    if not report.satisfied:
        raise FactorizationError("rank condition not satisfied")
    factorization = extract_stable_factor(gamma, f, n, m)
    return replace(factorization, rank_report=report, convergence_residual=table.convergence_residual)


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
    1-7); the factorization's p is g, a LaurentPoly1 (exponents 0..deg f).

    From g = sqrt(c_0), each step solves _newton_step's linear system. It
    stops when that system is singular (the exact factor of an f with
    zeros on the circle makes it so), when a step is no shorter than the
    one before, or after NEWTON_STEPS steps, and keeps whichever of the
    last two iterates fits f's coefficients better. Wilson's iterates keep
    their zeros outside the open unit disk. g is scaled so that its top
    coefficient is real positive.

    Raises "not nonnegative on circle" when sampled values dip below the
    tolerance floor, and _gated's "verification failed".
    """
    if not f.is_hermitian():
        raise ValueError("f must be Hermitian (real on the unit circle)")
    if f.is_zero():
        return Factorization2D(LaurentPoly1.zero(), 0.0, "outer")

    # the FFT grid must exceed the exponent spread 2 * deg; doubling keeps
    # the CHECK_GRID points in it
    grid = _pow2_grid(CHECK_GRID, f.degrees()[0])
    ((_, values),) = f.real_grid_blocks((grid, 1), grid)
    floor = SIGN_FLOOR_REL * max(1.0, float(np.max(np.abs(values))))
    lowest = float(np.min(values))
    if lowest < -floor:
        raise FactorizationError("not nonnegative on circle")
    root_class = "outer" if lowest <= floor else "stable"

    box, _, (lo, _) = aligned(f, f)
    d = lo + len(box) - 1  # the top exponent
    # f's coefficients at exponents -d..d, zero-padded below; any below -d
    # (Hermitian within PARITY_REL only) are dropped
    full = np.zeros(2 * d + 1, dtype=complex)
    start = max(lo, -d)
    full[start + d :] = box[start - lo :, 0]
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
    return _gated(g, values, root_class)


def spectral_factor(f):
    """gamma_factor's factorization, or, when that raises and f lies on
    axis a (degree 0 in b), fejer_riesz's factor of the LaurentPoly1 on f's
    box (no copy); its outcome and message are then final. An f of degree 0
    in a and positive degree in b is factored as the transpose of
    spectral_factor(f.transposed()), so both routes serve either axis. An f
    with positive degree in both has the Gamma route alone."""
    n, m = f.degrees()
    if m and not n:
        factorization = spectral_factor(f.transposed())
        return replace(factorization, p=factorization.p.transposed())
    try:
        return gamma_factor(f)
    except FactorizationError:
        if m:
            raise
    return fejer_riesz(LaurentPoly1.from_poly2(f))


def check_targets(p_tilde, q_tilde, n, m):
    """The completion's contract on real targets for length n, weight m:
    both real on the torus, then protocol.conforms with Ptilde
    inversion-even and Qtilde inversion-odd. One variable is the case
    m = n with the targets embedded on axis a.

    Raises ValueError for a weight outside 0..n; then, for Ptilde and then
    Qtilde, ValueError "inputs must be real on the unit torus",
    FactorizationError "parity mismatch" (negation parity) or "degree
    exceeds bound"; and only once both pass those, FactorizationError
    "parity mismatch" when the inversion parity fails.
    """
    if not 0 <= m <= n:
        raise ValueError("weight must satisfy 0 <= m <= n")
    inversion = []
    for poly, sign in ((p_tilde, +1), (q_tilde, -1)):
        if not poly.is_hermitian():
            raise ValueError("inputs must be real on the unit torus")
        degree_ok, inversion_ok, negation_ok = conforms(poly, n, m, sign)
        if not negation_ok:
            raise FactorizationError("parity mismatch")
        if not degree_ok:
            raise FactorizationError("degree exceeds bound")
        inversion.append(inversion_ok)
    if not all(inversion):
        raise FactorizationError("parity mismatch")


@dataclass(frozen=True)
class CompletionResult:
    """Completed unitary, recovered protocol (None when the completion is a
    valid unitary but peeling fails), and spectral_factor's factorization."""

    unitary: Su2LaurentUnitary
    spec: object
    factorization: Factorization2D


def complete_unitary_2d(p_tilde, q_tilde, n, m):
    """Extend real-on-torus targets to a protocol unitary of length n and
    weight m.

    The targets must pass check_targets, and f = 1 - Ptilde^2 - Qtilde^2
    must not overflow (ValueError naming f). spectral_factor factors f:
    the stable factor when f is strictly positive, else, for f on one
    axis, the Newton factor. Shifted by a^{-m} b^{-(n-m)}, the factor
    splits into a Hermitian part R and anti-Hermitian part iS with
    R^2 + S^2 = f, so the matrix [[Ptilde + iR, Qtilde + iS], [...]] is
    exactly unitary up to the factorization residual
    (assemble_completion). The protocol is read off it; a read-off failure
    leaves spec None rather than raising, since a valid completion need
    not be protocol-realizable.
    """
    n, m = int(n), int(m)
    check_targets(p_tilde, q_tilde, n, m)
    try:
        f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    except ValueError as error:
        # the targets are finite, so a non-finite coefficient of f overflowed
        if not str(error).startswith("non-finite"):
            raise
        raise ValueError("f = 1 - Ptilde^2 - Qtilde^2 overflows") from None
    factorization = spectral_factor(f)
    unitary = assemble_completion(p_tilde, q_tilde, factorization.p, n, m)
    try:
        spec = readoff(unitary.P, unitary.Q).spec
    except ReadoffError:
        spec = None
    return CompletionResult(unitary, spec, factorization)
