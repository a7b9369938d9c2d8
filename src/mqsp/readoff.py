"""Phase read-off: invert build_unitary by degree-lowering peeling.

Peeling removes the last oracle iterate: if the leading slices of P and Q
in some direction agree up to a unimodular phase e^{i phi_X}, then
right-multiplying by Z(-phi) W^{-1} with phi = phi_X/2 cancels the leading
terms and lowers the degree in that direction by one. The proportionality
itself is the load-bearing property (it is what makes read-off possible at
all), so this module also exposes a direct checker and a randomized scan
for it. Up to n = 40 a counterexample from the scan would be a genuine
finding; past n ~ 45 it is rounding: the unitary passes verify_structure,
but its leading slice is 1e-6 or less of its largest coefficient, and the
slice test, relative to that slice, reads the build's rounding as a
mismatch above tol (ROADMAP item 1 has the same precision loss).

`readoff` aligns P and Q once and then works on their coefficient boxes as
one stacked box: per step a slice test (_top_test, the module's one pair
test) of the top slice pair along a, and along b only when a does not
peel (each direction only at positive degree), the peel and its prune
(_pruned: one laurent.kept call when the reduced boxes need no trim, else
LaurentPoly2 and aligned() themselves). `peel_once` is the single public
step: the same private step on aligned LaurentPoly2 input, equal to one
step of `readoff`. The scan decodes its trials from the raw PCG64 words
of its generator (protocol.RawDraws, the same stream as random_spec's
Generator calls) and tests many trials at once with _stack_test, whose
verdicts equal _top_test's pair by pair.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from mqsp.errors import ReadoffError, VerificationError
from mqsp.laurent import LaurentPoly2, aligned, check_box, kept
from mqsp.protocol import (
    ProtocolSpec,
    RawDraws,
    Su2LaurentUnitary,
    build_stack,
    build_unitary,
    principal_phase,
)

DEFAULT_TOLERANCE = 1e-8

# Most cells one stack of scan_leading_slices holds per coefficient box
# (trials times the padded lattice box of build_stack): 2^14 complex cells
# are 256 KB, room for 334 trials of n <= 6 (7 x 7 lattice boxes); build_stack
# adds S, which its take gathers from, the int64 shift index (two per cell)
# and one step's int64 index rows (one per cell): ~1.1 MB a stack with P, Q.
SCAN_STACK_CELLS = 1 << 14


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


def _top_test(p, q, axis, tol):
    """Test P == e^{i phase} Q on the top slice pair along `axis` (0 for a,
    1 for b) of the aligned boxes p, q of P and Q.

    Returns (ok, phase, mismatch, reason). Phase is read from the
    largest-magnitude coefficient of Q's slice; the mismatch norm is
    relative to P's slice. One slice vanishing while the other does not
    cannot be fixed by a unimodular scalar (both vanish only for P = Q = 0,
    an empty box): such a pair fails as "zero leading slice" with phase
    None and mismatch inf.
    """
    p, q = (p[-1], q[-1]) if axis == 0 else (p[:, -1], q[:, -1])
    star = np.abs(q).argmax()
    p_max, q_star = np.abs(p).max(), q[star]
    if not (p_max and q_star):
        return False, None, math.inf, "zero leading slice"
    r = p[star] / q_star
    phase = math.atan2(r.imag, r.real)
    mismatch = float(np.abs(p - cmath.rect(1.0, phase) * q).max() / p_max)
    return not mismatch > tol, phase, mismatch, None


def _stack_test(ps, qs, tol):
    """_top_test on each slice pair of the stacks ps, qs (T x W, row t one
    pair): arrays (ok, mismatch), entry t for pair t, equal to ok and
    mismatch of _top_test on that pair bit for bit.
    """
    count, width = ps.shape
    # small strided views cost numpy more per call than one copy
    ps, qs = np.ascontiguousarray(ps), np.ascontiguousarray(qs)
    star = np.abs(qs).argmax(axis=1)
    star += np.arange(0, count * width, width)
    p_star, q_star = ps.take(star), qs.take(star)
    p_max = np.maximum.reduce(np.abs(ps), axis=1)
    zero = np.flatnonzero((p_max == 0.0) | (q_star == 0.0))
    if zero.size:  # any finite stand-in: these pairs' mismatches are replaced below
        p_max[zero] = q_star[zero] = 1.0
    # one scalar at a time with `math`: numpy's arctan2 can differ from
    # math.atan2 in the last bit
    phase = [math.atan2(r.imag, r.real) for r in (p_star / q_star).tolist()]
    w = np.array([cmath.rect(1.0, x) for x in phase])[:, None]
    mismatch = np.maximum.reduce(np.abs(ps - w * qs), axis=1) / p_max
    mismatch[zero] = math.inf
    return ~(mismatch > tol), mismatch


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


def check_leading_slices(u):
    """Proportionality report for both directions, within
    readoff_tolerance().

    Q identically zero under a constant P (P = 0 included) is the base
    case: both directions hold with phase 0 by convention (there is nothing
    to constrain). Under a non-constant P, Q = 0 gives zero leading slices.
    """
    tol = readoff_tolerance()
    if u.Q.is_zero() and not any(u.P.degrees()):
        return SliceReport(True, True, 0.0, 0.0, 0.0, 0.0, None, None)
    p, q, _ = aligned(u.P, u.Q)
    along_a, along_b = (_top_test(p, q, axis, tol) for axis in (0, 1))
    return SliceReport(*(x for pair in zip(along_a, along_b) for x in pair))


def peel_once(u, direction):
    """Remove the final oracle iterate in `direction` ("a" or "b") and its
    Z-phase: one step of readoff, whose result it equals.

    Returns (phase, reduced). With phi_X the phase by which the leading
    slice of P in `direction` equals that of Q (read as _top_test reads
    it), the phase is fixed deterministically to principal_phase(phi_X)/2,
    in (-pi/2, pi/2]; the other branch phi_X/2 + pi differs by a sign that
    later phases absorb, so rebuilds agree either way. `reduced` has degree
    one lower in `direction`; P and Q are pruned as every LaurentPoly2 is.

    Raises ValueError for a direction other than "a" or "b", for an
    invalid MQSP_TOLERANCE and, as LaurentPoly2 does, for a reduced
    coefficient that overflows; ReadoffError "cannot peel: no positive
    degree in direction ..." when P and Q have no positive exponent there,
    or "cannot peel: leading slices not proportional" when the slices
    differ by more than readoff_tolerance().
    """
    tol = readoff_tolerance()
    if direction not in ("a", "b"):
        raise ValueError("direction must be 'a' or 'b'")
    axis = "ab".index(direction)
    p, q, lo = aligned(u.P, u.Q)
    if lo[axis] + p.shape[axis] - 1 < 1:
        raise ReadoffError("cannot peel: no positive degree in direction %r" % direction)
    ok, phase, _, _ = _top_test(p, q, axis, tol)
    if not ok:
        raise ReadoffError("cannot peel: leading slices not proportional")
    phi, box, lo = _peel(p, q, lo, axis, phase)
    return phi, Su2LaurentUnitary(*(LaurentPoly2.from_array(layer, *lo) for layer in box))


def _peel(p, q, lo, axis, phase):
    """One peel of the aligned boxes p, q (first cell at exponent lo) along
    `axis`, whose top slice pair is proportional with `phase`.

    Returns (phi, box, lo): phi = principal_phase(phase)/2, and the reduced
    P and Q as one (2, rows, cols) stack whose first cell is at exponent
    lo. _pruned makes the stack what aligned() gives for the reduced
    polynomials as LaurentPoly2, signed zeros included.
    """
    phi = principal_phase(phase) / 2.0
    w = cmath.rect(1.0, phi)
    if axis:  # view the peeled variable as the first axis
        p, q = p.T, q.T
    rows = len(p)
    level = lo[axis] + rows - 1
    # exact inverse of the oracle iterate then Z(phi): with x^2 - y^2 = 1,
    # P' = x w~P - y wQ = (D z + S/z)/2 and Q' = -y w~P + x wQ = (S/z - D z)/2
    # for S = w~P + wQ, D = w~P - wQ (w~ = conj(w), z the peeled variable)
    pw, qw = (0.5 * w.conjugate()) * p, (0.5 * w) * q
    s, d = pw + qw, pw - qw
    # row t of the result holds exponent lo[axis] - 1 + t: row t of S plus,
    # from t = 2 on, row t - 2 of D (minus it for Q'); the input's top row
    # is exponent `level`. Keep exponents [1 - level, level - 1]: what is
    # left outside the lowered degree is read-off noise, which the final
    # rebuild check accounts for
    first = max(2 - level - lo[axis], 0)
    box = np.empty((2, rows - first, p.shape[1]), dtype=complex)
    low = max(first, 2)
    np.add(d[low - 2 : rows - 2], s[low:], out=box[0, low - first :])
    np.subtract(s[low:], d[low - 2 : rows - 2], out=box[1, low - first :])
    if first < 2:  # 0 + S, as the zero-padded sum has it: -0 turns +0
        np.add(s[first:2], 0j, out=box[:, : 2 - first])
    lo = list(lo)
    lo[axis] += first - 1
    if axis:
        box = box.transpose(0, 2, 1)
    return (phi,) + _pruned(box, lo)


def _pruned(box, lo):
    """(box, lo) for a (2, rows, cols) stack of P and Q whose first cell is
    at exponent lo: the pair aligned() gives for LaurentPoly2 of each
    layer, stacked, signed zeros included. Raises ValueError for a
    non-finite coefficient, as LaurentPoly2 does.

    The fast path: one prune (laurent.kept) of the whole stack, each layer
    that drops a nonzero coefficient set to +0 in its dropped cells, and,
    when both layers keep a cell on every edge row and column, the stack
    returned as it is, since nothing is trimmed and aligned() pads nothing.
    Every other stack takes LaurentPoly2 and aligned() themselves.
    """
    keep, top = kept(box)
    top_p, top_q = top.ravel().tolist()
    if not (top_p < math.inf and top_q < math.inf):
        raise ValueError("non-finite coefficient")
    if np.count_nonzero(box) != np.count_nonzero(keep):
        dust = [np.count_nonzero(box[k]) != np.count_nonzero(keep[k]) for k in (0, 1)]
        if dust[0] and dust[1]:
            box = np.where(keep, box, 0.0)
        else:
            k = dust.index(True)
            box[k] = np.where(keep[k], box[k], 0.0)
    # the edge rows and columns: when each layer keeps a cell on every one,
    # each layer's own box is the whole box, and nothing is trimmed
    height, width = box.shape[1:]
    edges = keep[:, :: max(height - 1, 1)].tolist()
    edges += keep[:, :, :: max(width - 1, 1)].transpose(0, 2, 1).tolist()
    if all(any(edge) for layer in edges for edge in layer):
        return box, tuple(lo)
    p, q, lo = aligned(*(LaurentPoly2._from_box(layer, *lo) for layer in box))
    return np.stack((p, q)), lo


@dataclass(frozen=True)
class ReadoffResult:
    """Recovered protocol; residual is the max coefficient distance between
    build_unitary(spec) and the input. Phase lists are not unique when a
    step had both directions possible; equality is guaranteed only for the
    rebuilt unitary."""

    spec: ProtocolSpec
    residual: float


def readoff(P, Q):
    """Recover (s, phases) from the two stored entries of a protocol unitary.

    Peels one iterate per step, preferring direction a when both are
    possible (the iterates commute in that case, so either choice rebuilds
    the same unitary). Raises "not an M-QSP unitary" when a coefficient of
    P or Q exceeds 1 + readoff_tolerance() in magnitude or no direction
    peels before the constant level, and "rebuild mismatch" when the
    reconstruction misses the input by more than readoff_tolerance().

    P and Q are aligned once; every step then works on their coefficient
    boxes as one stack: a slice test of the top slice pair along a, then
    along b only if a does not peel (each at positive degree only), the
    peel and its prune (_pruned). Each step equals peel_once on the pair
    as LaurentPoly2 objects, and the base case reads the last boxes too,
    so LaurentPoly2 objects are made only for the steps whose reduced
    boxes need a trim.
    """
    tol = readoff_tolerance()
    # |P|^2 + |Q|^2 = 1 on the torus caps every coefficient at 1
    if max(P.max_abs(), Q.max_abs()) > 1.0 + tol:
        raise ReadoffError("not an M-QSP unitary")
    original = Su2LaurentUnitary(P, Q)
    bits_reversed = []
    phases_reversed = []
    max_steps = sum(P.degrees()) + sum(Q.degrees())
    p, q, lo = aligned(P, Q)
    for _ in range(max_steps + 1):
        for axis in (0, 1):
            if lo[axis] + p.shape[axis] - 1 >= 1:
                held, phase = _top_test(p, q, axis, tol)[:2]
                if held:
                    break
        else:  # neither direction of positive degree peels
            break
        phi, box, lo = _peel(p, q, lo, axis, phase)
        p, q = box
        bits_reversed.append(1 - axis)
        phases_reversed.append(phi)

    # base case: Q gone and P a unimodular constant c, giving phi_0. On the
    # last boxes, |Q| is q's largest magnitude, and |P - c| is p's with the
    # cell of exponent (0, 0) left out
    mag_p, c = np.abs(p), 0j
    i, l = -lo[0], -lo[1]
    if 0 <= i < p.shape[0] and 0 <= l < p.shape[1]:
        c, mag_p[i, l] = complex(p[i, l]), 0.0
    nonconstant = np.max(mag_p, initial=0.0)
    if np.max(np.abs(q), initial=0.0) > tol or nonconstant > tol or abs(abs(c) - 1.0) > tol:
        raise ReadoffError("not an M-QSP unitary")
    phi0 = math.atan2(c.imag, c.real)

    spec = ProtocolSpec(
        tuple(reversed(bits_reversed)),
        (phi0,) + tuple(reversed(phases_reversed)),
    )
    residual = build_unitary(spec).distance(original)
    if residual > tol:
        raise VerificationError("rebuild mismatch")
    return ReadoffResult(spec=spec, residual=residual)


# -- numerical scan of the proportionality property ------------------------------


@dataclass(frozen=True)
class ScanSummary:
    """Randomized scan outcome. counterexamples holds, in draw order, the
    ProtocolSpecs for which neither direction was proportional; expected
    empty. check_leading_slices(build_unitary(spec)) gives the report of
    each, which the scan's test equals by construction."""

    trials: int
    passes: int
    worst_mismatch: float
    counterexamples: tuple
    n_max: int
    seed: int


def scan_leading_slices(n_max, trials, seed):
    """Sample protocols with n uniform in {0..n_max}, bits and phases
    uniform; check the leading-slice proportionality on each.

    The summary equals that of check_leading_slices(build_unitary(spec))
    over random_spec's draws, trial by trial, on default_rng(seed): n as
    rng.integers(0, n_max + 1), then random_spec(rng, n). The draws are
    decoded from the generator's raw words by protocol.RawDraws, bit for
    bit, with no Generator call per trial. _scan_trials gives each stack
    of trials its per-trial verdicts; passes and the worst mismatch
    are taken per stack, and a ProtocolSpec is made only for each
    counterexample, in draw order.
    """
    tol = readoff_tolerance()  # an invalid MQSP_TOLERANCE fails before any trial
    passes = 0
    worst = 0.0
    bad = []
    draws = RawDraws(np.random.default_rng(seed))
    for stack, (holds, mismatch) in _scan_trials(draws, int(n_max), int(trials), tol):
        passes += int(np.count_nonzero(holds))
        # exact, as the per-trial max(worst, mismatch): neither rounds
        worst = max(worst, float(mismatch[holds].max(initial=0.0)))
        bad += [ProtocolSpec(*stack[t]) for t in np.flatnonzero(~holds).tolist()]
    return ScanSummary(
        trials=int(trials),
        passes=passes,
        worst_mismatch=worst,
        counterexamples=tuple(bad),
        n_max=int(n_max),
        seed=int(seed),
    )


def _scan_trials(draws, n_max, trials, tol):
    """Yield stacks of consecutive trials in draw order, each as its list
    of draws (s, phases) with _scan_stack's verdicts for it.

    Trials are decoded by `draws` (a RawDraws) as random_spec draws them,
    and each one's own exponent box is checked against MAX_CELLS as it is
    drawn; a length whose smallest box, 1 x (2n + 1), already exceeds it
    is refused before its bits and phases are decoded. Consecutive trials
    are then tested as one stack while build_stack's lattice box for it
    holds at most SCAN_STACK_CELLS cells per box (a trial above that alone
    is a stack of one), so memory does not grow with the number of trials.
    """
    stack, rows, cols = [], 0, 0
    for _ in range(trials):
        n = draws.integers(n_max + 1)
        check_box(1, 2 * n + 1)  # every weight's box holds at least this many
        s, phases = draws.bits(n), draws.phases(n + 1)
        m = sum(s)
        check_box(2 * m + 1, 2 * (n - m) + 1)
        rows, cols = max(rows, m + 1), max(cols, n - m + 1)
        if stack and (len(stack) + 1) * rows * cols > SCAN_STACK_CELLS:
            yield stack, _scan_stack(stack, tol)
            stack, rows, cols = [], m + 1, n - m + 1
        stack.append((s, phases))
    if stack:
        yield stack, _scan_stack(stack, tol)


def _scan_stack(stack, tol):
    """The scan's verdict on check_leading_slices for each of a stack of
    drawn (s, phases) trials: arrays (holds, mismatch), entry t for trial
    t, with holds_a or holds_b and min(mismatch_a, mismatch_b) of its
    report (True and 0.0 for Q = 0, the convention of
    check_leading_slices).

    Each trial's P and Q are pruned by LaurentPoly2's rule (laurent.kept)
    and tested on the joint top slices of their kept entries, straight off
    build_stack's lattice boxes: the leading slices aligned() gives for the
    pruned polynomials less their zeros off the lattice, so _stack_test
    gives _top_test's results, both directions in one call on slices
    zero-padded to one width (which leaves ok and mismatch as they are).
    """
    boxes, order = build_stack(*zip(*stack))
    keep, top = kept(boxes)
    np.putmask(boxes, ~keep, 0.0)
    either = keep[0] | keep[1]
    count, rows, cols = either.shape
    # each trial's joint top level along a (rows) and along b (columns)
    top_a = rows - 1 - either.any(axis=2)[:, ::-1].argmax(axis=1)
    top_b = cols - 1 - either.any(axis=1)[:, ::-1].argmax(axis=1)
    trial = np.arange(count)
    slices = np.zeros((2, 2 * count, max(rows, cols)), dtype=complex)
    slices[:, :count, :cols] = boxes[:, trial, top_a]
    slices[:, count:, :rows] = boxes.transpose(0, 1, 3, 2)[:, trial, top_b]
    ok, mismatch = _stack_test(slices[0], slices[1], tol)
    holds, mismatch = ok[:count] | ok[count:], np.minimum(mismatch[:count], mismatch[count:])
    # a protocol unitary with Q = 0 has a unimodular, inversion-even
    # monomial P, a constant: the convention of check_leading_slices
    q_zero = top[1].ravel() == 0.0
    holds[q_zero], mismatch[q_zero] = True, 0.0
    # back to draw order from build_stack's, longest first
    drawn = np.empty_like(holds), np.empty_like(mismatch)
    drawn[0][order], drawn[1][order] = holds, mismatch
    return drawn
