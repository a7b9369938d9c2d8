"""Protocol unitaries over two commuting SU(2) oracles.

A protocol is a bit string s (1 = query oracle A, 0 = oracle B) threaded
with n+1 Z-phases. Its unitary is represented exactly as a 2x2 matrix
[[P, Q], [-Q~, P~]] of bivariate Laurent polynomials, where ~ is
conj_reciprocal; the bottom row is derived, never stored. This module
builds that representation, evaluates the same circuit numerically as an
independent route, checks the structural conditions (degree bound, parity
under joint inversion, negation parity, determinant identity) and
assembles the completed unitary from a spectral factor. random_spec
draws a random protocol from one Generator (the scan, in readoff, draws
its trials from three streams of its own).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from mqsp.laurent import LaurentPoly2, aligned, check_box, parity_steps

# Determinant identity P·P~ + Q·Q~ = 1 must hold to this max-coefficient
# residual for a unitary to count as structurally valid.
DET_RESIDUAL_TOL = 1e-10


def principal_phase(phi):
    """Map a phase to (-pi, pi]."""
    phi = float(phi)
    if -math.pi < phi <= math.pi:  # what remainder() gives, at less cost
        return phi
    out = math.remainder(phi, 2.0 * math.pi)
    if out <= -math.pi:  # remainder() can land exactly on -pi
        out = math.pi
    return out


@dataclass(frozen=True)
class ProtocolSpec:
    """Bit string s and phases (phi_0, ..., phi_n); phases must be finite
    and are normalized to (-pi, pi] on construction."""

    s: tuple
    phases: tuple

    def __post_init__(self):
        s = tuple(int(b) for b in self.s)
        if any(b not in (0, 1) for b in s):
            raise ValueError("s entries must be bits (0 or 1)")
        phases = tuple(map(float, self.phases))
        if not all(map(math.isfinite, phases)):
            raise ValueError("phases must be finite")
        phases = tuple(map(principal_phase, phases))
        if len(phases) != len(s) + 1:
            raise ValueError(
                "need %d phases for %d iterates, got %d"
                % (len(s) + 1, len(s), len(phases))
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phases", phases)

    @property
    def n(self):
        return len(self.s)

    @property
    def weight(self):
        return sum(self.s)


def random_spec(rng, n, weight=None):
    """Uniform random protocol: bits i.i.d. (or fixed Hamming weight) and
    phases uniform on (-pi, pi], drawn as rng.integers(0, 2, size=n), then
    rng.uniform(-pi, pi, size=n + 1)."""
    if weight is None:
        s = rng.integers(0, 2, size=n).tolist()
    else:
        s = [1] * weight + [0] * (n - weight)
        rng.shuffle(s)
    return ProtocolSpec(s, rng.uniform(-math.pi, math.pi, size=n + 1).tolist())


@dataclass(frozen=True)
class Su2LaurentUnitary:
    """[[P, Q], [-Q~, P~]] with ~ = conj_reciprocal; P, Q bivariate Laurent."""

    P: LaurentPoly2
    Q: LaurentPoly2

    def det_residual(self):
        """Max coefficient distance of P·P~ + Q·Q~ from the constant 1.

        On the torus P·P~ + Q·Q~ = |P|^2 + |Q|^2, and its coefficients are
        the autocorrelations of P's and Q's coefficient boxes, so they come
        from Fourier space in O(N log N): P and Q are aligned once; along an
        axis where both keep one exponent parity (parity_steps, as in
        LaurentPoly2.__mul__) the lags are even and only every other row or
        column is kept; the r x c boxes are transformed on a grid of at
        least (2r - 1) x (2c - 1) points, so no lag aliases; and one real
        FFT of |P^|^2 + |Q^|^2 gives the coefficients back. Nothing is
        pruned: the residual of a unitary reads the raw rounding, ~1e-15
        (the direct products dropped dust below PRUNE_REL and often read 0).

        Raises ValueError before allocating when the product box of P and Q
        (2R - 1 by 2C - 1 cells for their aligned R x C box) exceeds
        MAX_CELLS, and "non-finite coefficient" when the sums overflow.
        """
        x, y, _ = aligned(self.P, self.Q)
        if x.size == 0:
            return 1.0
        check_box(2 * x.shape[0] - 1, 2 * x.shape[1] - 1)
        step_a, step_b = parity_steps(x, y)
        boxes = np.stack((x[::step_a, ::step_b], y[::step_a, ::step_b]))
        grid = tuple(_fft_size(2 * length - 1) for length in boxes.shape[1:])
        # an overflow is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = np.fft.fft2(boxes, s=grid)
            power = (spectra.real**2 + spectra.imag**2).sum(axis=0)
            det = np.fft.rfft2(power, norm="forward")
            det[0, 0] -= 1.0
            residual = float(np.abs(det).max())
        if not math.isfinite(residual):
            raise ValueError("non-finite coefficient")
        return residual

    def matrix_at(self, theta_a, theta_b):
        a, b = np.exp(1j * theta_a), np.exp(1j * theta_b)
        p = complex(self.P.eval_grid(a, b)[0, 0])
        q = complex(self.Q.eval_grid(a, b)[0, 0])
        # conj_reciprocal evaluates to the plain conjugate on the torus
        return np.array([[p, q], [-q.conjugate(), p.conjugate()]])

    def distance(self, other):
        return max(self.P.distance(other.P), self.Q.distance(other.Q))


def _fft_size(length):
    """The smallest 2^k or 3 * 2^k at or above length: FFT sizes that stay
    fast, within 4/3 of the length."""
    size = 1 << (length - 1).bit_length()
    return 3 * size // 4 if 3 * size >= 4 * length else size


def build_unitary(spec):
    """Exact symbolic product, left to right: Z(phi_0), then for each k the
    oracle iterate followed by Z(phi_k).

    A stack of one for build_stack, whose lattice is scattered once onto
    every other cell of the tight box spanning the exponents [-m, m] x
    [-(n-m), n-m]; the result is pruned once at the end. A box above
    MAX_CELLS raises ValueError before anything is allocated.
    """
    n, m = spec.n, spec.weight
    check_box(2 * m + 1, 2 * (n - m) + 1)
    box = np.zeros((2, 2 * m + 1, 2 * (n - m) + 1), dtype=complex)
    box[:, ::2, ::2] = build_stack((n,), spec.s, spec.phases)[0][:, 0]
    # the box is fresh, so LaurentPoly2 keeps it pruned without from_array's copy
    lo_a, lo_b = -m, -(n - m)
    return Su2LaurentUnitary(
        LaurentPoly2._from_box(box[0], lo_a, lo_b), LaurentPoly2._from_box(box[1], lo_a, lo_b)
    )


def build_stack(lengths, bits, phases):
    """Coefficient boxes of P and Q for a stack of T protocols, on their
    parity lattices, as one array (p, q), and the order of its trials.

    The stack comes as drawn: `lengths` holds each trial's n_t in draw
    order, `bits` the trials' bit strings one after another in that order,
    and `phases` their phi_0..phi_{n_t} likewise, each taken to (-pi, pi]
    by principal_phase. Trials are stacked longest first, trial order[i]
    as the i-th (trials of equal length in draw order). Every a-exponent j
    of P and Q has the parity of the weight m_t and every b-exponent k
    that of the co-weight r_t = n_t - m_t, so p and q have shape
    (T, M + 1, R + 1) for M and R the largest weight and co-weight in the
    stack, and trial t's a^j b^k sits at [i, (j + m_t)/2, (k + r_t)/2];
    cells past [i, m_t, r_t] hold zeros.

    With z the oracle's variable, its iterate is [[x, y], [y, x]] for
    x = (z + 1/z)/2 and y = (z - 1/z)/2, so a step sets P' = (S z + D/z)/2
    and Q' = (S z - D/z)/2 from S = P + Q and D = P - Q. On the lattice
    (index i for exponent 2i - k after k iterates in z; nothing leaves the
    box) that is P'[i] = S[i - 1] + D[i] and Q'[i] = S[i - 1] - D[i], the
    same two operands in the same order as on the whole box, then one
    multiply per Z-phase. A stack of one steps its 2-D boxes in place; a
    larger one puts its bits and phase factors into padded rows with one
    masked scatter each, in draw order, orders the rows longest first with
    one index, and steps its prefix of trials still stepping, S[i - 1]
    taken along each trial's own variable by one take through a shift
    index. Phase factors are cmath.rect of each phase, one scalar at a
    time (numpy's vectorized cos and sin need not round as libm's do), as
    for a single protocol, so each box is its trial's own build's, signed
    zeros included.
    """
    count = len(lengths)
    if count == 1:
        m = sum(bits)
        boxes = np.zeros((2, 1, m + 1, len(bits) - m + 1), dtype=complex)
        p, q = boxes[0, 0], boxes[1, 0]
        p[0, 0] = cmath.rect(1.0, principal_phase(phases[0]))
        for bit, x in zip(bits, phases[1:]):
            _step(p, q, bit, 0.5 * cmath.rect(1.0, principal_phase(x)))
        return boxes, [0]
    lengths = np.asarray(lengths)
    steps = int(lengths.max())
    # padded rows in draw order: trial t's bits at [t, k < n_t], factors at [t, k <= n_t]
    grid = np.zeros((count, steps), dtype=np.intp)
    grid[np.arange(steps) < lengths[:, None]] = bits
    # principal_phase only where one test finds a phase outside (-pi, pi]:
    # it returns the others as they are; NaN stays NaN, and +-inf raises
    x = np.asarray(phases, dtype=float)
    values = x.tolist()
    for i in np.flatnonzero((x <= -math.pi) | (x > math.pi)).tolist():
        values[i] = principal_phase(values[i])
    factors = np.zeros((count, steps + 1), dtype=complex)
    factors[np.arange(steps + 1) <= lengths[:, None]] = [cmath.rect(1.0, v) for v in values]
    # a stable sort; numpy's argsort would map in ~0.3 MB of sort code
    order = sorted(range(count), key=lengths.tolist().__getitem__, reverse=True)
    ranked = np.array(order)
    lengths, grid, factors = lengths[ranked], grid[ranked], factors[ranked]
    stepping = np.arange(steps) < lengths[:, None]
    weight = grid.sum(axis=1)
    rows, cols = int(weight.max()) + 1, int((lengths - weight).max()) + 1
    cells = rows * cols
    boxes = np.zeros((2, count, rows, cols), dtype=complex)
    p, q = boxes[0], boxes[1]  # indexed: unpacking an array iterates it, which costs more
    p[:, 0, 0] = factors[:, 0]
    w = 0.5 * factors.T[1:, :, None, None]
    # row 2t + bit of shift: for each cell of the t-th trial stacked, the flat
    # index of S[i - 1] along its columns (bit 0) or rows (bit 1), or -1 (the
    # zero cell) at i = 0
    cell = np.arange(count * cells).reshape(count, 1, rows, cols)
    shift = cell - np.array([1, cols]).reshape(2, 1, 1)
    shift[:, 0, :, 0] = shift[:, 1, 0] = -1
    shift, pick = shift.reshape(2 * count, cells), grid.T + 2 * np.arange(count)
    flat = np.zeros(count * cells + 1, dtype=complex)  # S, then the zero cell
    total, index = flat[:-1].reshape(count, rows, cols), np.empty((count, cells), dtype=np.intp)
    for k, c in enumerate(np.count_nonzero(stepping, axis=0).tolist()):
        # S to flat, D over Q, S[i - 1] over P, then P' = S[i - 1] + D to
        # flat and Q' = S[i - 1] - D over Q, each times its factor
        pk, qk, sk = p[:c], q[:c], total[:c]
        np.add(pk, qk, out=sk)
        np.subtract(pk, qk, out=qk)
        np.take(shift, pick[k, :c], axis=0, out=index[:c])
        np.take(flat, index[:c], out=pk.reshape(c, cells))
        np.add(pk, qk, out=sk)
        np.subtract(pk, qk, out=qk)
        np.multiply(sk, w[k, :c], out=pk)
        qk *= w[k, :c].conjugate()
    return boxes, order


def _step(p, q, bit, w):
    """One oracle iterate, then the Z-phase factor w, in place on one
    lattice box."""
    # view the oracle's variable as the first axis
    pv, qv = (p, q) if bit else (p.T, q.T)
    # S z moves lattice index i to i + 1 and D/z keeps it (after k iterates
    # in a variable only indices 0..k hold, so nothing leaves the box): s is
    # S moved up one index, D overwrites Q, and P' = s + D, Q' = s - D
    s = np.empty_like(pv)
    s[0] = 0.0
    np.add(pv[:-1], qv[:-1], out=s[1:])
    np.subtract(pv, qv, out=qv)
    np.add(s, qv, out=pv)
    np.subtract(s, qv, out=qv)
    p *= w
    q *= w.conjugate()


def assemble_completion(p_tilde, q_tilde, factor, n, m):
    """[[Ptilde + iR, Qtilde + iS], ...] for a protocol of length n, weight m.

    `factor` is g with g * conj_reciprocal(g) = f = 1 - Ptilde^2 - Qtilde^2
    and exponents in {0..2m} x {0..2(n-m)}. Shifted by a^{-m} b^{-(n-m)},
    its Hermitian part R and anti-Hermitian part iS satisfy R^2 + S^2 = f,
    so the assembled matrix is unitary up to the factorization residual.
    The factor of a per-variable even-supported f is even-supported, so
    the shift forces negation parity (m, n-m) mod 2 on R and S; the
    projection drops only solver dust, which the read-off gate bounds.
    """
    box, _, (lo_a, lo_b) = aligned(factor, factor)  # factor's own box
    even, shifted = np.s_[lo_a % 2 :: 2, lo_b % 2 :: 2], np.zeros_like(box)
    shifted[even] = box[even] + 0.0  # a -0.0 part turns 0.0, as adding onto zeros does
    t = LaurentPoly2.from_array(shifted, lo_a - m, lo_b - (n - m))
    r = t.hermitian_part()
    s = (t - t.conj_reciprocal()) * (-0.5j)
    return Su2LaurentUnitary(p_tilde + 1j * r, q_tilde + 1j * s)


def eval_unitary(spec, theta_a, theta_b):
    """Numeric 2x2 product of the same circuit; independent of the Laurent
    route (used to cross-validate build_unitary)."""

    def z_rot(phi):
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])

    def iterate(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, 1j * s], [1j * s, c]])

    mat = z_rot(spec.phases[0])
    for bit, phi in zip(spec.s, spec.phases[1:]):
        theta = theta_a if bit else theta_b
        mat = mat @ iterate(theta) @ z_rot(phi)
    return mat


# -- structural verification ---------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the four structural checks for a protocol unitary of
    length n and weight m; the first three are conforms() on P (+1) and
    Q (-1), each flag holding when it holds for both.

    degree_ok: deg(P), deg(Q) within (m, n-m) componentwise (max |exponent|).
    inversion_parity_ok: P even and Q odd under (a, b) -> (1/a, 1/b) jointly.
    negation_parity_ok: every a-exponent of P and Q is congruent to m and
        every b-exponent to n-m (mod 2).
    determinant_residual: max coefficient distance of P·P~ + Q·Q~ from 1.
    """

    degree_ok: bool
    inversion_parity_ok: bool
    negation_parity_ok: bool
    determinant_residual: float
    overall: bool


def conforms(poly, length, weight, sign):
    """(degree_ok, inversion_ok, negation_ok) for one entry of a unitary of
    a protocol of length n and weight m: degrees within (m, n-m)
    componentwise, poly(1/a, 1/b) == sign * poly within PARITY_REL, and
    every a-exponent congruent to m and every b-exponent to n-m (mod 2).
    The zero polynomial conforms.
    """
    n, m = int(length), int(weight)
    if poly.is_zero():
        return True, True, True
    deg_a, deg_b = poly.degrees()
    degree_ok = deg_a <= m and deg_b <= n - m
    # negation_bits gives None for mixed residues
    negation_ok = poly.negation_bits() == (m % 2, (n - m) % 2)
    return degree_ok, poly.has_inversion_sign(sign), negation_ok


def verify_structure(u, length, weight):
    """Check the structural conditions for a protocol of the given length n
    and Hamming weight m. All four must hold for unitaries produced by
    build_unitary; the report records which fail for arbitrary inputs."""
    p_flags, q_flags = conforms(u.P, length, weight, +1), conforms(u.Q, length, weight, -1)
    degree_ok, inversion_ok, negation_ok = (x and y for x, y in zip(p_flags, q_flags))
    det_res = u.det_residual()
    overall = degree_ok and inversion_ok and negation_ok and det_res <= DET_RESIDUAL_TOL
    return StructureReport(
        degree_ok=degree_ok,
        inversion_parity_ok=inversion_ok,
        negation_parity_ok=negation_ok,
        determinant_residual=det_res,
        overall=overall,
    )
