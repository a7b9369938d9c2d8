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
from mqsp.laurent import LaurentPoly2, aligned, check_box, kept
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    build_stack,
    build_unitary,
    principal_phase,
    random_draw,
)

DEFAULT_TOLERANCE = 1e-8

# Most cells one stack of scan_leading_slices holds per coefficient box
# (trials times the padded box): 2^16 complex cells are 1 MB, room for 387
# trials of n <= 6 (13 x 13 boxes).
SCAN_STACK_CELLS = 1 << 16


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


def _slice_test(ps, qs, tol):
    """Test P == e^{i phase} Q on each slice pair of the stacks ps, qs
    (T x W, row t one pair).

    Returns lists (ok, phase, mismatch, reason), one entry per pair. Phase
    is read from the largest-magnitude coefficient of Q's slice; the
    mismatch norm is relative to P's slice. One slice vanishing while the
    other does not cannot be fixed by a unimodular scalar (both vanish only
    for P = Q = 0, an empty box): such a pair fails as "zero leading slice"
    with phase None and mismatch inf.
    """
    count, width = ps.shape
    # small strided views cost numpy more per call than one copy
    ps, qs = np.ascontiguousarray(ps), np.ascontiguousarray(qs)
    star = np.abs(qs).argmax(axis=1)
    star += np.arange(0, count * width, width)
    p_star, q_star = ps.ravel()[star], qs.ravel()[star]
    p_max = np.maximum.reduce(np.abs(ps), axis=1)
    zero = [
        t for t, (x, y) in enumerate(zip(p_max.tolist(), q_star.tolist())) if not (x and y)
    ]
    if zero:  # any finite stand-in: these pairs' results are replaced below
        p_max[zero] = q_star[zero] = 1.0
    # one scalar at a time with `math`: numpy's arctan2 can differ from
    # math.atan2 in the last bit
    phase = [math.atan2(r.imag, r.real) for r in (p_star / q_star).tolist()]
    w = np.array([[complex(math.cos(x), math.sin(x))] for x in phase])
    mismatch = (np.maximum.reduce(np.abs(ps - w * qs), axis=1) / p_max).tolist()
    reason = [None] * count
    for t in zero:
        phase[t], mismatch[t], reason[t] = None, math.inf, "zero leading slice"
    return [not x > tol for x in mismatch], phase, mismatch, reason


def _top_slices(p, q, lo, tol):
    """Test P == e^{i phase} Q on the top slices along a and along b of the
    aligned boxes p, q of P and Q (first cell at exponent lo), as one stack
    of two slice pairs; zero-padding the shorter pair changes no result.

    Returns (levels, ok, phase, mismatch, reason): the joint top exponents
    (a, b), then _slice_test's lists, direction a first.
    """
    rows, cols = p.shape
    pairs = np.zeros((2, 2, max(rows, cols, 1)), dtype=complex)
    if p.size:
        pairs[0, 0, :cols], pairs[0, 1, :rows] = p[-1], p[:, -1]
        pairs[1, 0, :cols], pairs[1, 1, :rows] = q[-1], q[:, -1]
    return ((lo[0] + rows - 1, lo[1] + cols - 1),) + _slice_test(*pairs, tol)


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


# SliceReport fields for Q identically zero
_Q_ZERO = (True, True, 0.0, 0.0, 0.0, 0.0, None, None)


def check_leading_slices(u):
    """Proportionality report for both directions, within
    readoff_tolerance().

    Q identically zero is the degenerate base case: both directions hold
    with phase 0 by convention (there is nothing to constrain).
    """
    tol = readoff_tolerance()
    if u.Q.is_zero():
        return SliceReport(*_Q_ZERO)
    _, ok, phase, mismatch, reason = _top_slices(*aligned(u.P, u.Q), tol)
    return SliceReport(*ok, *phase, *mismatch, *reason)


def peel_once(u, direction):
    """Remove the final oracle iterate in `direction` and its Z-phase.

    Returns (phase, reduced). The phase is fixed deterministically to
    phi_X/2 in (-pi/2, pi/2]; the other branch phi_X/2 + pi differs by a
    sign that later phases absorb, so rebuilds agree either way. The
    leading slices must agree within readoff_tolerance().
    """
    tol = readoff_tolerance()
    if direction not in ("a", "b"):
        raise ValueError("direction must be 'a' or 'b'")
    axis = "ab".index(direction)
    p, q, lo = aligned(u.P, u.Q)
    if axis:  # view the peeled variable as the first axis
        p, q = p.T, q.T
    level = lo[axis] + len(p) - 1
    if level < 1:
        raise ReadoffError("cannot peel: no positive degree in direction %r" % direction)
    # the top slice pair, as a stack of one
    (ok,), (phase,), _, _ = _slice_test(p[-1:], q[-1:], tol)
    if not ok:
        raise ReadoffError("cannot peel: leading slices not proportional")
    phi = principal_phase(phase) / 2.0
    w = complex(math.cos(phi), math.sin(phi))
    # exact inverse of the oracle iterate then Z(phi): with x^2 - y^2 = 1,
    # P' = x w~P - y wQ = (D z + S/z)/2 and Q' = -y w~P + x wQ = (S/z - D z)/2
    # for S = w~P + wQ, D = w~P - wQ (w~ = conj(w), z the peeled variable)
    pw, qw = (0.5 * w.conjugate()) * p, (0.5 * w) * q
    s, d = pw + qw, pw - qw
    # row t of the result holds exponent lo[axis] - 1 + t; the input's top
    # row is exponent `level`
    p_red = np.zeros((p.shape[0] + 2, p.shape[1]), dtype=complex)
    q_red = np.zeros(p_red.shape, dtype=complex)
    p_red[2:] = d
    np.negative(d, out=q_red[2:])
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


def readoff(P, Q):
    """Recover (s, phases) from the two stored entries of a protocol unitary.

    Peels one iterate per step, preferring direction a when both are
    possible (the iterates commute in that case, so either choice rebuilds
    the same unitary). Raises "not an M-QSP unitary" when no direction
    peels before the constant level, and "rebuild mismatch" when the
    reconstruction misses the input by more than readoff_tolerance().
    """
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
        levels, ok, _, _, _ = _top_slices(*aligned(u.P, u.Q), tol)
        avail = ["ab"[axis] for axis in (0, 1) if levels[axis] >= 1 and ok[axis]]
        if not avail:
            break
        direction = avail[0]
        phi, u = peel_once(u, direction)
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


def scan_leading_slices(n_max, trials, seed):
    """Sample protocols with n uniform in {0..n_max}, bits and phases
    uniform; check the leading-slice proportionality on each.

    The summary equals that of check_leading_slices(build_unitary(spec))
    over random_spec's draws, trial by trial; _scan_trials computes it on
    stacks of trials.
    """
    tol = readoff_tolerance()  # an invalid MQSP_TOLERANCE fails before any trial
    passes = 0
    worst = 0.0
    bad = []
    for draw, fields in _scan_trials(np.random.default_rng(seed), n_max, int(trials), tol):
        if fields[0] or fields[1]:
            passes += 1
            worst = max(worst, min(fields[4], fields[5]))
        else:
            bad.append((ProtocolSpec(*draw), SliceReport(*fields)))
    return ScanSummary(
        trials=int(trials),
        passes=passes,
        worst_mismatch=worst,
        counterexamples=tuple(bad),
        n_max=int(n_max),
        seed=int(seed),
    )


def _scan_trials(rng, n_max, trials, tol):
    """Yield each trial's draw (s, phases) with its SliceReport fields, in
    draw order.

    Trials are drawn as random_spec draws them, and each one's own exponent
    box is checked against MAX_CELLS as it is drawn. Consecutive trials are
    then tested as one stack while it holds at most SCAN_STACK_CELLS cells
    per box (a trial above that alone is a stack of one), so memory does
    not grow with the number of trials.
    """
    stack, rows, cols = [], 0, 0
    for _ in range(trials):
        n = int(rng.integers(0, n_max + 1))
        s, phases = random_draw(rng, n)
        m = sum(s)
        check_box(2 * m + 1, 2 * (n - m) + 1)
        rows, cols = max(rows, 2 * m + 1), max(cols, 2 * (n - m) + 1)
        if stack and (len(stack) + 1) * rows * cols > SCAN_STACK_CELLS:
            yield from zip(stack, _scan_stack(stack, tol))
            stack, rows, cols = [], 2 * m + 1, 2 * (n - m) + 1
        stack.append((s, [principal_phase(x) for x in phases]))
    if stack:
        yield from zip(stack, _scan_stack(stack, tol))


def _scan_stack(stack, tol):
    """check_leading_slices for a stack of drawn (s, phases) trials: one
    tuple of SliceReport fields per trial.

    Each trial's P and Q are pruned by LaurentPoly2's rule (laurent.kept)
    and tested on the joint top slices of their kept entries, which are the
    leading slices aligned() gives for the pruned polynomials.
    """
    steps = max(len(s) for s, _ in stack)
    bits = [s + [-1] * (steps - len(s)) for s, _ in stack]
    phases = [ph + [0.0] * (steps - len(s)) for s, ph in stack]
    p, q = build_stack(bits, phases)
    keep_p, _ = kept(p)
    keep_q, top_q = kept(q)
    p, q = np.where(keep_p, p, 0.0), np.where(keep_q, q, 0.0)
    either = keep_p | keep_q
    # each trial's joint top level along a (rows) and along b (columns)
    top_a = either.shape[1] - 1 - either.any(axis=2)[:, ::-1].argmax(axis=1)
    top_b = either.shape[2] - 1 - either.any(axis=1)[:, ::-1].argmax(axis=1)
    trial = np.arange(len(stack))
    ok_a, phase_a, mis_a, reason_a = _slice_test(p[trial, top_a], q[trial, top_a], tol)
    ok_b, phase_b, mis_b, reason_b = _slice_test(p[trial, :, top_b], q[trial, :, top_b], tol)
    reports = list(zip(ok_a, ok_b, phase_a, phase_b, mis_a, mis_b, reason_a, reason_b))
    for t in np.flatnonzero(top_q.ravel() == 0.0).tolist():
        reports[t] = _Q_ZERO
    return reports
