"""Phase read-off: invert build_unitary by degree-lowering peeling.

Peeling removes the last oracle iterate: if the leading slices of P and Q
in some direction agree up to a unimodular phase e^{i phi_X}, then
right-multiplying by Z(-phi) W^{-1} with phi = phi_X/2 cancels the leading
terms and lowers the degree in that direction by one. The proportionality
itself is the load-bearing property (it is what makes read-off possible at
all), so this module also exposes a direct checker and a randomized scan
for it. The scan draws protocols, so every counterexample it reports is
rounding or a library defect, whatever n. Those seen are rounding (the
smallest has n = 42): the unitary passes verify_structure, but its
leading slice is 1e-6 or less of its largest coefficient, and the slice
test, relative to that slice, reads the build's rounding as a mismatch
above tol (ROADMAP item 1 has the same precision loss).

`readoff` aligns P and Q once and then works on their coefficient boxes as
one stacked box: per step a slice test (_top_test, the module's one pair
test) of the top slice pair along a, and along b only when a does not
peel (each direction only at positive degree), the peel and its prune
(_pruned: LaurentPoly2's prune rule on the whole stack, then LaurentPoly2
and aligned() only for a trim). `peel_once` is the single public
step: the same private step on aligned LaurentPoly2 input, equal to one
step of `readoff`. The scan draws its trials a chunk at a time from three
streams spawned from its seed (lengths, bits, phases), keeps them as
those flat arrays up to build_stack, and tests many trials at once with
_stack_test, whose verdicts equal _top_test's pair by pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from mqsp import laurent
from mqsp.errors import ReadoffError
from mqsp.laurent import LaurentPoly2, _prune, aligned, check_box, kept
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    build_stack,
    build_unitary,
    principal_phase,
)

# Read-off's exactness gate on slice mismatch, base-case residue and rebuild
# distance; read at call time, never frozen in a default argument.
READOFF_TOL = 1e-8

# Most cells one stack of scan_leading_slices holds per coefficient box
# (trials times the padded lattice box of build_stack): 2^14 complex cells
# are 256 KB, room for 334 trials of n <= 6 (7 x 7 lattice boxes); build_stack
# adds S, which its take gathers from, the int64 shift index (two per cell)
# and one step's int64 index rows (one per cell): ~1.1 MB a stack with P, Q.
SCAN_STACK_CELLS = 1 << 14


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
    """Proportionality report for both directions, within READOFF_TOL.

    Q identically zero under a constant P (P = 0 included) is the base
    case: both directions hold with phase 0 by convention (there is nothing
    to constrain). Under a non-constant P, Q = 0 gives zero leading slices.
    """
    if u.Q.is_zero() and not any(u.P.degrees()):
        return SliceReport(True, True, 0.0, 0.0, 0.0, 0.0, None, None)
    p, q, _ = aligned(u.P, u.Q)
    with np.errstate(over="ignore", invalid="ignore"):
        along_a, along_b = (_top_test(p, q, axis, READOFF_TOL) for axis in (0, 1))
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

    Raises ValueError for a direction other than "a" or "b" and, as
    LaurentPoly2 does, for a reduced coefficient that overflows;
    ReadoffError "cannot peel: no positive degree in direction ..." when P
    and Q have no positive exponent there, or "cannot peel: leading slices
    not proportional" when the slices differ by more than READOFF_TOL.
    """
    if direction not in ("a", "b"):
        raise ValueError("direction must be 'a' or 'b'")
    axis = "ab".index(direction)
    p, q, lo = aligned(u.P, u.Q)
    if lo[axis] + p.shape[axis] - 1 < 1:
        raise ReadoffError("cannot peel: no positive degree in direction %r" % direction)
    with np.errstate(over="ignore", invalid="ignore"):
        ok, phase, _, _ = _top_test(p, q, axis, READOFF_TOL)
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
    layer, stacked, signed zeros included. The stack is pruned in place by
    LaurentPoly2's own rule (laurent._prune, which raises ValueError for a
    non-finite coefficient); one that needs no trim is returned as it is,
    since aligned() pads nothing, and every other takes LaurentPoly2 and
    aligned() themselves."""
    if _prune(box)[2]:
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
    P or Q exceeds 1 + READOFF_TOL in magnitude or no direction peels
    before the constant level, and "rebuild mismatch" when the
    reconstruction misses the input by more than READOFF_TOL.

    P and Q are aligned once; every step then works on their coefficient
    boxes as one stack: a slice test of the top slice pair along a, then
    along b only if a does not peel (each at positive degree only), the
    peel and its prune (_pruned, by the rule every LaurentPoly2 is pruned
    by). Each step equals peel_once on the pair as LaurentPoly2 objects,
    and the base case reads the last boxes too, so LaurentPoly2 objects
    are made only for the steps whose reduced boxes need a trim.
    """
    tol = READOFF_TOL
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
        raise ReadoffError("rebuild mismatch")
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
    over the trials of _scan_trials, drawn from three streams spawned from
    SeedSequence(seed), one by one in draw order. _scan_trials gives each
    stack of trials, as its flat draws, its per-trial verdicts; passes and
    the worst mismatch are taken per stack, and a ProtocolSpec is made only
    for each counterexample, sliced from the draws, in draw order.
    """
    passes = 0
    worst = 0.0
    bad = []
    for (lengths, bits, phases), (holds, mismatch) in _scan_trials(
        int(n_max), int(trials), int(seed), READOFF_TOL
    ):
        passes += int(np.count_nonzero(holds))
        # exact, as the per-trial max(worst, mismatch): neither rounds
        worst = max(worst, float(mismatch[holds].max(initial=0.0)))
        failed = np.flatnonzero(~holds).tolist()
        if failed:
            # trial t's bits start at firsts[t], its phases at firsts[t] + t
            firsts = (np.cumsum(lengths) - lengths).tolist()
            for t in failed:
                first, n = firsts[t], int(lengths[t])
                s, row = bits[first : first + n], phases[first + t : first + t + n + 1]
                bad.append(ProtocolSpec(s.tolist(), row.tolist()))
    return ScanSummary(
        trials=int(trials),
        passes=passes,
        worst_mismatch=worst,
        counterexamples=tuple(bad),
        n_max=int(n_max),
        seed=int(seed),
    )


def _scan_trials(n_max, trials, seed, tol):
    """Yield stacks of consecutive trials in draw order, each as its draws
    (lengths, bits, phases), build_stack's input, with _scan_stack's
    verdicts for it.

    Trial t's n is the t-th integers(0, n_max + 1) of the first of three
    streams spawned from SeedSequence(seed), its bits the next n
    integers(0, 2) of the second, and its phases the next n + 1
    uniform(-pi, pi) draws of the third. Trials are drawn
    max(1, SCAN_STACK_CELLS // (n_max + 1)) at a time, one call per
    stream per chunk; numpy's draws run on across calls, so the trials do
    not depend on the chunk size. A chunk is handled on the arrays it
    draws, with no loop over its trials.

    A chunk of more than one trial holds at most SCAN_STACK_CELLS phases,
    so a length whose smallest box, 1 x (2n + 1), exceeds MAX_CELLS is
    refused before anything is drawn for it. Each trial's own exponent
    box is then checked, and the first in draw order that exceeds
    MAX_CELLS refused; both tests divide rather than multiply, so no
    int64 product overflows. Consecutive trials are tested as one stack
    while build_stack's lattice box for it holds at most SCAN_STACK_CELLS
    cells per box (a trial above that alone is a stack of one), so memory
    does not grow with the number of trials; the last stack of a chunk
    stays open for the trials of the next.
    """
    lengths_rng, bits_rng, phases_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(3)
    )
    chunk = max(1, SCAN_STACK_CELLS // (n_max + 1))
    held = ()  # the open stack's draws: lengths, weights, bits, phases
    for start in range(0, trials, chunk):
        lengths = lengths_rng.integers(0, n_max + 1, size=min(chunk, trials - start))
        (over,) = np.nonzero(lengths > (laurent.MAX_CELLS - 1) // 2)
        if over.size:
            check_box(1, 2 * int(lengths[over[0]]) + 1)
        ends = np.cumsum(lengths)
        bits = bits_rng.integers(0, 2, size=int(ends[-1]))
        phases = phases_rng.uniform(-math.pi, math.pi, size=bits.size + lengths.size)
        # every trial's weight from one running count of the chunk's bits
        ones = np.zeros(bits.size + 1, dtype=bits.dtype)
        np.cumsum(bits, out=ones[1:])
        weights = ones[ends] - ones[ends - lengths]
        rows, cols = 2 * weights + 1, 2 * (lengths - weights) + 1
        (over,) = np.nonzero(cols > laurent.MAX_CELLS // rows)
        if over.size:
            check_box(int(rows[over[0]]), int(cols[over[0]]))
        draws = lengths, weights, bits, phases
        if held:
            draws = tuple(map(np.concatenate, zip(held, draws)))
        lengths, weights, bits, phases = draws
        # each trial's lattice box in build_stack
        rows, cols = weights + 1, lengths - weights + 1
        # trial t's bits start at firsts[t], its phases at firsts[t] + t
        firsts = np.zeros(lengths.size + 1, dtype=lengths.dtype)
        np.cumsum(lengths, out=firsts[1:])
        t, count, more = 0, lengths.size, start + chunk < trials
        while t < count:
            # trial t, then each next trial while the stack's trials times its
            # largest rows times its largest cols stay within SCAN_STACK_CELLS
            # (compared by division, so no int64 product overflows)
            r, c = np.maximum.accumulate(rows[t:]), np.maximum.accumulate(cols[t:])
            over = c[1:] > SCAN_STACK_CELLS // (np.arange(2, r.size + 1) * r[1:])
            end = t + 1 + int(over.argmax()) if over.any() else count
            a, b = firsts[t], firsts[end]
            if end == count and more:
                held = lengths[t:], weights[t:], bits[a:], phases[a + t :]
                break
            stack = lengths[t:end], bits[a:b], phases[a + t : b + end]
            yield stack, _scan_stack(stack, tol)
            t = end


def _scan_stack(stack, tol):
    """The scan's verdict on check_leading_slices for each trial of a stack
    of draws (lengths, bits, phases), as build_stack takes them: arrays
    (holds, mismatch), entry t for trial t, with holds_a or holds_b and
    min(mismatch_a, mismatch_b) of its report (True and 0.0 for Q = 0, the
    convention of check_leading_slices).

    Each trial's P and Q are pruned by LaurentPoly2's rule (laurent.kept)
    and tested on the joint top slices of their kept entries, straight off
    build_stack's lattice boxes: the leading slices aligned() gives for the
    pruned polynomials less their zeros off the lattice, so _stack_test
    gives _top_test's results, both directions in one call on slices
    zero-padded to one width (which leaves ok and mismatch as they are).
    """
    boxes, order = build_stack(*stack)
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
