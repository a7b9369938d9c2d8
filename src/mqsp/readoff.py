"""Phase read-off: invert build_unitary by degree-lowering peeling.

Peeling removes the last oracle iterate: if the leading slices of P and Q
in some direction agree up to a unimodular phase e^{i phi_X}, then
right-multiplying by Z(-phi) W^{-1} with phi = phi_X/2 cancels the leading
terms and lowers the degree in that direction by one. The proportionality
itself is the load-bearing property (it is what makes read-off possible at
all), so this module also exposes a direct checker and a randomized scan
for it; a counterexample from the scan would be a genuine finding, not a
bug.

`readoff` aligns P and Q once and then works on their coefficient boxes as
one stacked box: per step one slice test (_slice_test, the module's only
one) of the top slices in the directions of positive degree, the peel, one
prune (laurent.kept) and a trim to the joint box. `peel_once` is the single
public step: the same private step on aligned LaurentPoly2 input, equal to
one step of `readoff`.
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
    p_star, q_star = ps.take(star), qs.take(star)
    p_max = np.maximum.reduce(np.abs(ps), axis=1)
    zero = [
        t for t, (x, y) in enumerate(zip(p_max.tolist(), q_star.tolist())) if not (x and y)
    ]
    if zero:  # any finite stand-in: these pairs' results are replaced below
        p_max[zero] = q_star[zero] = 1.0
    # one scalar at a time with `math`: numpy's arctan2 can differ from
    # math.atan2 in the last bit
    phase = [math.atan2(r.imag, r.real) for r in (p_star / q_star).tolist()]
    w = np.array([complex(math.cos(x), math.sin(x)) for x in phase])[:, None]
    mismatch = (np.maximum.reduce(np.abs(ps - w * qs), axis=1) / p_max).tolist()
    reason = [None] * count
    for t in zero:
        phase[t], mismatch[t], reason[t] = None, math.inf, "zero leading slice"
    return [not x > tol for x in mismatch], phase, mismatch, reason


def _top_slices(p, q, tol, axes=(0, 1)):
    """Test P == e^{i phase} Q on the top slices along `axes` (0 for a, 1
    for b) of the aligned boxes p, q of P and Q, as one stack of slice
    pairs; zero-padding the shorter pair changes no result.

    Returns _slice_test's lists (ok, phase, mismatch, reason), one entry
    per axis in `axes`.
    """
    if len(axes) == 1:  # the top slice pair as a stack of one, unpadded
        ps, qs = (p[-1:], q[-1:]) if axes[0] == 0 else (p[:, -1:].T, q[:, -1:].T)
        return _slice_test(ps, qs, tol)
    rows, cols = p.shape
    pairs = np.zeros((2, 2, max(rows, cols, 1)), dtype=complex)
    if p.size:
        pairs[0, 0, :cols], pairs[0, 1, :rows] = p[-1], p[:, -1]
        pairs[1, 0, :cols], pairs[1, 1, :rows] = q[-1], q[:, -1]
    return _slice_test(*pairs, tol)


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
    p, q, _ = aligned(u.P, u.Q)
    ok, phase, mismatch, reason = _top_slices(p, q, tol)
    return SliceReport(*ok, *phase, *mismatch, *reason)


def peel_once(u, direction):
    """Remove the final oracle iterate in `direction` ("a" or "b") and its
    Z-phase: one step of readoff, whose result it equals.

    Returns (phase, reduced). With phi_X the phase by which the leading
    slice of P in `direction` equals that of Q (read as _slice_test reads
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
    (ok,), (phase,), _, _ = _top_slices(p, q, tol, (axis,))
    if not ok:
        raise ReadoffError("cannot peel: leading slices not proportional")
    phi, box, lo = _peel(p, q, lo, axis, phase)
    return phi, Su2LaurentUnitary(*_polys(box, lo))


def _peel(p, q, lo, axis, phase):
    """One peel of the aligned boxes p, q (first cell at exponent lo) along
    `axis`, whose top slice pair is proportional with `phase`.

    Returns (phi, box, lo): phi = principal_phase(phase)/2, and the reduced
    P and Q as one (2, rows, cols) stack whose first cell is at exponent
    lo. The stack holds what aligned() gives for the reduced polynomials,
    signed zeros included (_pruned).
    """
    phi = principal_phase(phase) / 2.0
    w = complex(math.cos(phi), math.sin(phi))
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


def _span(flags):
    """(first, last + 1) of the True entries of a list, None when none."""
    if True not in flags:
        return None
    return flags.index(True), len(flags) - flags[::-1].index(True)


def _pruned(box, lo):
    """(box, lo) for a (2, rows, cols) stack of P and Q whose first cell is
    at exponent lo: each layer pruned by LaurentPoly2's rule (laurent.kept)
    and set to +0 outside its own trimmed box, the stack trimmed to the
    joint box.

    That is the pair aligned() gives for LaurentPoly2.from_array of each
    layer, signed zeros included: a layer that drops a nonzero coefficient
    has all its dropped cells set to +0, one that drops none keeps its
    zeros as they are inside its box. Raises ValueError for a non-finite
    coefficient, as from_array does.
    """
    keep, top = kept(box)
    top_p, top_q = top.ravel().tolist()
    if not (top_p < math.inf and top_q < math.inf):
        raise ValueError("non-finite coefficient")
    dust = [False, False]
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
    # else each layer's own box (None for a zero layer) and their union
    spans = [
        (_span(rows), _span(cols))
        for rows, cols in zip(keep.any(axis=2).tolist(), keep.any(axis=1).tolist())
    ]
    held = [span for span in spans if span[0]]
    if not held:
        return np.zeros((2, 0, 0), dtype=complex), (0, 0)
    joint = tuple(
        (min(span[i][0] for span in held), max(span[i][1] for span in held)) for i in (0, 1)
    )
    for layer, dropped, span in zip(box, dust, spans):
        if dropped or span == joint:
            continue
        # a layer that dropped nothing may hold -0 outside its own box,
        # where aligned() pads with +0
        if span[0] is None:
            layer[...] = 0.0
        else:
            (r0, r1), (c0, c1) = span
            layer[:r0], layer[r1:] = 0.0, 0.0
            layer[:, :c0], layer[:, c1:] = 0.0, 0.0
    (r0, r1), (c0, c1) = joint
    return box[:, r0:r1, c0:c1], (lo[0] + r0, lo[1] + c0)


def _polys(box, lo):
    """LaurentPoly2 P and Q from a stack that _pruned returned."""
    return [LaurentPoly2.from_array(layer, *lo) for layer in box]


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

    P and Q are aligned once; every step then works on their coefficient
    boxes as one stack: one slice test of the top slices in the directions
    of positive degree, the peel, one prune and a trim to the joint box.
    Each step equals peel_once on the pair as LaurentPoly2 objects; those
    are made only at the end, for the base case.
    """
    tol = readoff_tolerance()
    original = Su2LaurentUnitary(P, Q)
    bits_reversed = []
    phases_reversed = []
    log = []
    max_steps = sum(
        deg.deg_a + deg.deg_b for deg in (P.degrees(), Q.degrees()) if not deg.is_zero
    )
    p, q, lo = aligned(P, Q)
    for step in range(1, max_steps + 2):
        live = [axis for axis in (0, 1) if lo[axis] + p.shape[axis] - 1 >= 1]
        if not live:
            break
        ok, phase, _, _ = _top_slices(p, q, tol, live)
        avail = [(axis, x) for axis, held, x in zip(live, ok, phase) if held]
        if not avail:
            break
        axis, phase = avail[0]
        phi, box, lo = _peel(p, q, lo, axis, phase)
        p, q = box
        bits_reversed.append(1 - axis)
        phases_reversed.append(phi)
        log.append(
            PeelStep(
                step=step,
                direction="ab"[axis],
                phase=phi,
                both_directions_possible=len(avail) == 2,
            )
        )

    # base case: Q gone and P a unimodular constant, giving phi_0
    u = Su2LaurentUnitary(*_polys((p, q), lo)) if log else original
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
