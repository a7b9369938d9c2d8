"""Phase read-off: invert build_unitary by degree-lowering peeling.

Peeling removes the last oracle iterate: if the leading slices of P and Q
in some direction agree up to a unimodular phase e^{i phi_X}, then
right-multiplying by Z(-phi) W^{-1} with phi = phi_X/2 cancels the leading
terms and lowers the degree in that direction by one. The proportionality
itself is the load-bearing property (it is what makes read-off possible at
all), so this module also exposes a direct checker and a randomized scan
for it; a counterexample from the scan would be a genuine finding, not a
bug.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from mqsp.errors import ReadoffError, VerificationError
from mqsp.laurent import LaurentPoly2, aligned
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    build_unitary,
    principal_phase,
    random_spec,
)

DEFAULT_TOLERANCE = 1e-8


def readoff_tolerance():
    """Read-off tolerance; the MQSP_TOLERANCE env var overrides the default.

    Raises ValueError unless the override is a finite positive number: nan
    would pass every comparison against it, and zero or less rejects every
    input.
    """
    raw = os.environ.get("MQSP_TOLERANCE")
    if not raw:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError("MQSP_TOLERANCE must be a finite positive number, got %r" % raw)
    return tol


def _top_slice(p, q, lo, axis, tol):
    """Test P == e^{i phase} Q on the top slice along `axis` of the aligned
    boxes p, q of P and Q (first cell at exponent lo).

    Returns (level, ok, phase, mismatch, reason) with level the joint top
    exponent. Phase is read from the largest-magnitude coefficient of Q's
    slice; the mismatch norm is relative to P's slice.
    """
    if axis:  # view the axis as the first one
        p, q = p.T, q.T
    level = lo[axis] + len(p) - 1
    ps, qs = p[-1:].ravel(), q[-1:].ravel()
    if not (ps.any() and qs.any()):
        # one side vanishing while the other does not cannot be fixed by a
        # unimodular scalar (both vanish only for P = Q = 0, an empty box)
        return level, False, None, math.inf, "zero leading slice"
    star = np.argmax(np.abs(qs))
    ratio = complex(ps[star] / qs[star])
    phase = math.atan2(ratio.imag, ratio.real)
    w = complex(math.cos(phase), math.sin(phase))
    mismatch = float(np.abs(ps - w * qs).max()) / float(np.abs(ps).max())
    return level, not mismatch > tol, phase, mismatch, None


@dataclass(frozen=True)
class SliceReport:
    """Leading-slice proportionality per direction.

    holds_a/holds_b: slices proportional by a unimodular scalar within
    tolerance. phase_a/phase_b: the recovered phase (None when a slice
    vanished). mismatch_a/mismatch_b: relative sup-norm mismatch (inf when
    a slice vanished). reason_a/reason_b: "zero leading slice" when that is
    why the direction failed. The scanned property is that at least one
    direction holds for every protocol unitary.
    """

    holds_a: bool
    holds_b: bool
    phase_a: float | None
    phase_b: float | None
    mismatch_a: float
    mismatch_b: float
    reason_a: str | None
    reason_b: str | None

    @property
    def holds(self):
        return self.holds_a or self.holds_b


def check_leading_slices(u, tol=None):
    """Proportionality report for both directions.

    Q identically zero is the degenerate base case: both directions hold
    with phase 0 by convention (there is nothing to constrain).
    """
    if tol is None:
        tol = readoff_tolerance()
    if u.Q.is_zero():
        return SliceReport(True, True, 0.0, 0.0, 0.0, 0.0, None, None)
    p, q, lo = aligned(u.P, u.Q)
    _, holds_a, phase_a, mismatch_a, reason_a = _top_slice(p, q, lo, 0, tol)
    _, holds_b, phase_b, mismatch_b, reason_b = _top_slice(p, q, lo, 1, tol)
    return SliceReport(
        holds_a, holds_b, phase_a, phase_b, mismatch_a, mismatch_b, reason_a, reason_b
    )


def peel_once(u, direction, tol=None):
    """Remove the final oracle iterate in `direction` and its Z-phase.

    Returns (phase, reduced). The phase is fixed deterministically to
    phi_X/2 in (-pi/2, pi/2]; the other branch phi_X/2 + pi differs by a
    sign that later phases absorb, so rebuilds agree either way.
    """
    if tol is None:
        tol = readoff_tolerance()
    if direction not in ("a", "b"):
        raise ValueError("direction must be 'a' or 'b'")
    axis = "ab".index(direction)
    p, q, lo = aligned(u.P, u.Q)
    level, ok, phase, _, _ = _top_slice(p, q, lo, axis, tol)
    if level < 1:
        raise ReadoffError("cannot peel: no positive degree in direction %r" % direction)
    if not ok:
        raise ReadoffError("cannot peel: leading slices not proportional")
    phi = principal_phase(phase) / 2.0
    w = complex(math.cos(phi), math.sin(phi))
    # exact inverse of the oracle iterate then Z(phi): with x^2 - y^2 = 1,
    # P' = x w~P - y wQ = (D z + S/z)/2 and Q' = -y w~P + x wQ = (S/z - D z)/2
    # for S = w~P + wQ, D = w~P - wQ (w~ = conj(w), z the peeled variable)
    if axis:  # view the peeled variable as the first axis
        p, q = p.T, q.T
    pw, qw = (0.5 * w.conjugate()) * p, (0.5 * w) * q
    s, d = pw + qw, pw - qw
    # row t of the result holds exponent lo[axis] - 1 + t; the input's top
    # row is exponent `level`
    p_red = np.zeros((p.shape[0] + 2, p.shape[1]), dtype=complex)
    q_red = np.zeros_like(p_red)
    p_red[2:] = d
    q_red[2:] = -d
    p_red[:-2] += s
    q_red[:-2] += s
    # keep exponents [1 - level, level - 1]: what is left outside the
    # lowered degree is read-off noise, which the final rebuild check
    # accounts for
    first = max(2 - level - lo[axis], 0)
    p_red, q_red = p_red[first : p.shape[0]], q_red[first : p.shape[0]]
    lo = list(lo)
    lo[axis] += first - 1
    if axis:
        p_red, q_red = p_red.T, q_red.T
    p_red = LaurentPoly2.from_array(p_red, *lo)
    q_red = LaurentPoly2.from_array(q_red, *lo)
    return phi, Su2LaurentUnitary(p_red, q_red)


@dataclass(frozen=True)
class PeelStep:
    step: int
    direction: str
    phase: float
    both_directions_possible: bool


@dataclass(frozen=True)
class ReadoffResult:
    """Recovered protocol; residual is the max coefficient distance between
    build_unitary(spec) and the input. Phase lists are not unique when a
    step had both directions possible; equality is guaranteed only for the
    rebuilt unitary."""

    spec: ProtocolSpec
    residual: float
    branch_log: tuple


def readoff(P, Q, tol=None):
    """Recover (s, phases) from the two stored entries of a protocol unitary.

    Peels one iterate per step, preferring direction a when both are
    possible (the iterates commute in that case, so either choice rebuilds
    the same unitary). Raises "not an M-QSP unitary" when no direction
    peels before the constant level, and "rebuild mismatch" when the
    reconstruction misses the input by more than the tolerance.
    """
    if tol is None:
        tol = readoff_tolerance()
    original = Su2LaurentUnitary(P, Q)
    u = original
    bits_reversed = []
    phases_reversed = []
    log = []
    deg_p, deg_q = P.degrees(), Q.degrees()
    max_steps = sum(
        d or 0
        for deg in (deg_p, deg_q)
        for d in ((deg.deg_a, deg.deg_b) if not deg.is_zero else ())
    )
    for step in range(1, max_steps + 2):
        p, q, lo = aligned(u.P, u.Q)
        avail = []
        for axis in (0, 1):
            level, ok, _, _, _ = _top_slice(p, q, lo, axis, tol)
            if level >= 1 and ok:
                avail.append("ab"[axis])
        if not avail:
            break
        direction = avail[0]
        phi, u = peel_once(u, direction, tol=tol)
        bits_reversed.append(1 if direction == "a" else 0)
        phases_reversed.append(phi)
        log.append(
            PeelStep(
                step=step,
                direction=direction,
                phase=phi,
                both_directions_possible=len(avail) == 2,
            )
        )

    # base case: Q gone and P a unimodular constant, giving phi_0
    c = u.P.coeff(0, 0)
    nonconstant = (u.P - LaurentPoly2.constant(c)).max_abs()
    if u.Q.max_abs() > tol or nonconstant > tol or abs(abs(c) - 1.0) > tol:
        raise ReadoffError("not an M-QSP unitary")
    phi0 = math.atan2(c.imag, c.real)

    spec = ProtocolSpec(
        tuple(reversed(bits_reversed)),
        (phi0,) + tuple(reversed(phases_reversed)),
    )
    residual = build_unitary(spec).distance(original)
    if residual > tol:
        raise VerificationError("rebuild mismatch")
    return ReadoffResult(spec=spec, residual=residual, branch_log=tuple(log))


# -- numerical scan of the proportionality property ------------------------------


@dataclass(frozen=True)
class ScanSummary:
    """Randomized scan outcome. counterexamples holds (spec, report) pairs
    for which neither direction was proportional; expected empty."""

    trials: int
    passes: int
    worst_mismatch: float
    counterexamples: tuple
    n_max: int
    seed: int

    @property
    def all_passed(self):
        return self.passes == self.trials


def scan_leading_slices(n_max, trials, seed, tol=None):
    """Sample protocols with n uniform in {0..n_max}, bits and phases
    uniform; check the leading-slice proportionality on each."""
    if tol is None:
        tol = readoff_tolerance()
    rng = np.random.default_rng(seed)
    passes = 0
    worst = 0.0
    bad = []
    for _ in range(int(trials)):
        n = int(rng.integers(0, n_max + 1))
        spec = random_spec(rng, n)
        report = check_leading_slices(build_unitary(spec), tol=tol)
        if report.holds:
            passes += 1
            worst = max(worst, min(report.mismatch_a, report.mismatch_b))
        else:
            bad.append((spec, report))
    return ScanSummary(
        trials=int(trials),
        passes=passes,
        worst_mismatch=worst,
        counterexamples=tuple(bad),
        n_max=int(n_max),
        seed=int(seed),
    )
