"""Phase read-off: slice proportionality, peeling, full round trips."""

import cmath
import functools
import math
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from mqsp import laurent, readoff as readoff_module
from mqsp.errors import ReadoffError, VerificationError
from mqsp.factor1d import complete_unitary_1d
from mqsp.laurent import LaurentPoly1, LaurentPoly2, aligned
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    build_unitary,
    principal_phase,
    random_spec,
)
from mqsp.readoff import (
    PeelStep,
    ReadoffResult,
    ScanSummary,
    SliceReport,
    check_leading_slices,
    peel_once,
    readoff,
    readoff_tolerance,
    scan_leading_slices,
)


def test_tolerance_env_override(monkeypatch):
    monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    assert readoff_tolerance() == 1e-8
    monkeypatch.setenv("MQSP_TOLERANCE", "1e-6")
    assert readoff_tolerance() == 1e-6


# -- slice proportionality -------------------------------------------------------


def test_slices_of_diagonal_ab_protocol():
    u = build_unitary(ProtocolSpec((0, 1), (0.0, 0.0, 0.0)))
    rep = check_leading_slices(u)
    assert rep.holds_a and rep.holds_b
    assert rep.phase_a == pytest.approx(0.0, abs=1e-12)
    assert rep.mismatch_a < 1e-12


def test_slices_of_identity_hold_by_convention():
    rep = check_leading_slices(Su2LaurentUnitary(LaurentPoly2.one(), LaurentPoly2.zero()))
    assert rep.holds_a and rep.holds_b
    assert rep.phase_a == 0.0 and rep.phase_b == 0.0


def test_zero_slice_reported_not_raised():
    # P = x_a, Q = 0 is not a unitary but the checker still reports
    u = Su2LaurentUnitary(
        LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5}), LaurentPoly2({(0, 1): 1e-3})
    )
    rep = check_leading_slices(u)
    assert not rep.holds_a
    assert rep.reason_a == "zero leading slice"
    assert rep.mismatch_a == math.inf
    # P = 0 under a nonzero Q: both leading slices of P vanish
    u = Su2LaurentUnitary(LaurentPoly2.zero(), LaurentPoly2({(1, 0): 0.5, (-1, 2): -0.5}))
    rep = check_leading_slices(u)
    assert not rep.holds
    assert rep.reason_a == rep.reason_b == "zero leading slice"
    assert rep.mismatch_a == rep.mismatch_b == math.inf
    assert rep.phase_a is None and rep.phase_b is None


def test_all_b_protocol_holds_in_b_only():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, 3, weight=0)
    rep = check_leading_slices(build_unitary(spec))
    assert rep.holds_b
    assert not rep.holds_a  # no positive a power; level-0 slices differ


def test_random_protocols_hold_in_some_direction():
    rng = np.random.default_rng(13)
    for _ in range(60):
        spec = random_spec(rng, int(rng.integers(0, 9)))
        rep = check_leading_slices(build_unitary(spec))
        assert rep.holds, (spec, rep)


# -- single peel -----------------------------------------------------------------


def test_peel_single_a_iterate():
    u = build_unitary(ProtocolSpec((1,), (0.3, -0.7)))
    phase, reduced = peel_once(u, "a")
    assert phase == pytest.approx(-0.7)
    assert reduced.P.distance(LaurentPoly2.constant(cmath.exp(0.3j))) < 1e-12
    assert reduced.Q.max_abs() < 1e-12


def test_peel_lowers_degree_and_keeps_structure():
    rng = np.random.default_rng(31)
    spec = random_spec(rng, 6, weight=3)
    u = build_unitary(spec)
    direction = "a" if spec.s[-1] == 1 else "b"
    _, reduced = peel_once(u, direction)
    d0, d1 = u.P.degrees(), reduced.P.degrees()
    if direction == "a":
        assert d1.deg_a == d0.deg_a - 1 and d1.deg_b == d0.deg_b
    else:
        assert d1.deg_b == d0.deg_b - 1 and d1.deg_a == d0.deg_a
    assert reduced.det_residual() < 1e-12


def test_peel_identity_fails():
    # the identity, and P = Q = 0 (an empty coefficient box)
    for p in (LaurentPoly2.one(), LaurentPoly2.zero()):
        for direction in ("a", "b"):
            with pytest.raises(ReadoffError, match="cannot peel: no positive degree"):
                peel_once(Su2LaurentUnitary(p, LaurentPoly2.zero()), direction)


def test_peel_wrong_direction_fails():
    # an all-a protocol has nothing to peel in b
    u = build_unitary(ProtocolSpec((1, 1), (0.1, 0.2, 0.3)))
    with pytest.raises(ReadoffError, match="cannot peel"):
        peel_once(u, "b")


def test_peel_non_proportional_fails():
    # Hand-built instance with proportionality broken: P = x_a, Q = y_b
    u = Su2LaurentUnitary(
        LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5}),
        LaurentPoly2({(1, 0): 0.4, (-1, 0): -0.4, (1, 1): 0.3}),
    )
    with pytest.raises(ReadoffError, match="leading slices not proportional"):
        peel_once(u, "a")


def test_slice_test_and_peel_follow_env_tolerance(monkeypatch):
    # scale the largest top-a coefficient of Q by 1 + 1e-6: the phase is
    # read from that coefficient, so the a-slice mismatch is ~1e-6
    u = build_unitary(ProtocolSpec((0, 1, 1), (0.4, -1.1, 0.7, 2.0)))
    q = dict(u.Q.items())
    top = max(j for j, _ in q)
    key = max((e for e in q if e[0] == top), key=lambda e: abs(q[e]))
    q[key] *= 1 + 1e-6
    bent = Su2LaurentUnitary(u.P, LaurentPoly2(q))

    monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    rep = check_leading_slices(bent)
    assert not rep.holds_a
    assert 1e-7 < rep.mismatch_a < 1e-5
    with pytest.raises(ReadoffError, match="leading slices not proportional"):
        peel_once(bent, "a")

    monkeypatch.setenv("MQSP_TOLERANCE", "1e-4")
    assert check_leading_slices(bent).holds_a
    _, reduced = peel_once(bent, "a")
    assert reduced.P.degrees().deg_a == u.P.degrees().deg_a - 1


# -- full read-off ----------------------------------------------------------------


def test_readoff_base_case():
    res = readoff(LaurentPoly2.constant(cmath.exp(1.3j)), LaurentPoly2.zero())
    assert res.spec.s == ()
    assert res.spec.phases[0] == pytest.approx(1.3)
    assert res.residual < 1e-15


def test_readoff_three_iterates_pinned():
    spec = ProtocolSpec((1, 0, 1), (0.2, 0.4, -1.0, 0.9))
    u = build_unitary(spec)
    res = readoff(u.P, u.Q)
    assert res.residual < 1e-9
    assert len(res.branch_log) == 3
    assert build_unitary(res.spec).distance(u) < 1e-9
    # bits must match exactly (degrees pin the string)
    assert res.spec.s == spec.s


def test_readoff_exactly_n_steps_and_unit_degree_drops():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 9)
    u = build_unitary(spec)
    res = readoff(u.P, u.Q)
    assert len(res.branch_log) == spec.n
    assert res.spec.s == spec.s


def test_readoff_commuting_segment_both_directions():
    spec = ProtocolSpec((0, 1), (0.0, 0.0, 0.0))
    u = build_unitary(spec)
    res = readoff(u.P, u.Q)
    assert res.branch_log[0].both_directions_possible
    assert res.branch_log[0].direction == "a"  # tie-break
    assert res.residual < 1e-12


def test_readoff_interior_phase_quantized_when_both_possible():
    # whenever a step had both directions possible, the next recovered
    # phase must be 0 or +-pi (the two leading iterates commute)
    rng = np.random.default_rng(43)
    seen = 0
    for _ in range(80):
        n = int(rng.integers(2, 7))
        spec = random_spec(rng, n)
        # force a commuting tail: last two iterates differ, middle phase 0
        s = list(spec.s)
        s[-1], s[-2] = 1, 0
        phases = list(spec.phases)
        phases[-2] = 0.0
        spec = ProtocolSpec(tuple(s), tuple(phases))
        u = build_unitary(spec)
        res = readoff(u.P, u.Q)
        for step, entry in enumerate(res.branch_log):
            if entry.both_directions_possible and step + 1 < len(res.branch_log):
                nxt = res.branch_log[step + 1].phase
                dist = min(
                    abs(nxt), abs(nxt - math.pi), abs(nxt + math.pi)
                )
                assert dist < 1e-8, (spec, res.branch_log)
                seen += 1
    assert seen > 0  # the construction must actually exercise the branch


def test_readoff_rejects_garbage():
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(
            LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5}),
            LaurentPoly2({(1, 1): 0.3, (-1, -1): 0.8}),
        )


def test_readoff_rejects_nonunimodular_constant():
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(LaurentPoly2.constant(0.5), LaurentPoly2.zero())
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(LaurentPoly2.zero(), LaurentPoly2.zero())


def test_readoff_roundtrip_many():
    rng = np.random.default_rng(101)
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(0, 13)))
        u = build_unitary(spec)
        res = readoff(u.P, u.Q)
        assert res.residual < 1e-9
        assert len(res.branch_log) == spec.n


# -- read-off against a loop of public single steps --------------------------------


def reference_readoff(P, Q):
    """readoff as a loop of public single steps: check_leading_slices picks
    the direction (a first) among those of positive degree, peel_once
    peels, then readoff's base case and rebuild check follow."""
    tol = readoff_tolerance()
    original = u = Su2LaurentUnitary(P, Q)
    degrees = [d for poly in (P, Q) if not poly.is_zero() for d in astuple(poly.degrees())]
    log = []
    for step in range(1, sum(degrees) + 2):
        # Q = 0 holds by convention in check_leading_slices, but its zero
        # leading slices leave readoff nothing to peel
        if u.Q.is_zero():
            break
        report = check_leading_slices(u)
        tops = [max(e[axis] for poly in (u.P, u.Q) for e, _ in poly.items()) for axis in (0, 1)]
        holds = (report.holds_a, report.holds_b)
        avail = ["ab"[axis] for axis in (0, 1) if tops[axis] >= 1 and holds[axis]]
        if not avail:
            break
        phase, u = peel_once(u, avail[0])
        log.append(PeelStep(step, avail[0], phase, len(avail) == 2))
    c = u.P.coeff(0, 0)
    nonconstant = (u.P - LaurentPoly2.constant(c)).max_abs()
    if u.Q.max_abs() > tol or nonconstant > tol or abs(abs(c) - 1.0) > tol:
        raise ReadoffError("not an M-QSP unitary")
    spec = ProtocolSpec(
        tuple(1 if entry.direction == "a" else 0 for entry in reversed(log)),
        (math.atan2(c.imag, c.real),) + tuple(entry.phase for entry in reversed(log)),
    )
    residual = build_unitary(spec).distance(original)
    if residual > tol:
        raise VerificationError("rebuild mismatch")
    return ReadoffResult(spec, residual, tuple(log))


def outcome(fn, *args):
    """The result's repr (which tells -0.0 from 0.0), or the exception's type
    and message."""
    try:
        return repr(fn(*args))
    except (ReadoffError, VerificationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@functools.lru_cache(maxsize=None)
def readoff_inputs():
    """(name, P, Q): random-bit protocols n = 0..48 (those from n ~ 24 on
    mostly fail part-way), all-a and all-b protocols, and single-oracle
    completions n = 4..64."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in range(49):
        u = build_unitary(random_spec(rng, n))
        cases.append(("bits n=%d" % n, u.P, u.Q))
    for n in (1, 2, 5, 9, 16):
        for weight, name in ((0, "all-b"), (n, "all-a")):
            u = build_unitary(random_spec(rng, n, weight=weight))
            cases.append(("%s n=%d" % (name, n), u.P, u.Q))
    for n in (4, 5, 6, 8, 11, 16, 23, 32, 48, 64):
        u = build_unitary(random_spec(rng, n, weight=n))
        pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()})
        qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()})
        unitary = complete_unitary_1d(pt, qt, n).unitary
        cases.append(("completion n=%d" % n, unitary.P, unitary.Q))
    return tuple(cases)


@pytest.mark.parametrize("tolerance", [None, "1e-300"])
def test_readoff_equals_loop_of_public_steps(monkeypatch, tolerance):
    if tolerance is None:
        monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("MQSP_TOLERANCE", tolerance)
    exits = set()
    for name, P, Q in readoff_inputs():
        expected = outcome(reference_readoff, P, Q)
        assert outcome(readoff, P, Q) == expected, name
        exits.add(expected[0] if isinstance(expected, tuple) else "ok")
    # at 1e-300 only n = 0 reads off; VerificationError is in the edge paths
    assert exits == {"ok", "ReadoffError"}


def noisy_protocol(noise):
    """A protocol unitary, with Q given one extra coefficient at (0, 2), one
    b level above its b-degree, of `noise` times Q's largest."""
    u = build_unitary(ProtocolSpec((0, 1, 1), (0.4, -1.1, 0.7, 2.0)))
    q = dict(u.Q.items())
    q[(0, 2)] = noise * u.Q.max_abs()
    return u.P, LaurentPoly2(q)


def edge_cases():
    """{name: ((P, Q), expected outcome, or "ok" for a ReadoffResult)}."""
    cases = {
        # an empty coefficient box: nothing to peel, and no unimodular constant
        "P = Q = 0": (
            (LaurentPoly2.zero(), LaurentPoly2.zero()),
            ("ReadoffError", "not an M-QSP unitary"),
        ),
        # the peel along a leaves Q = 0 exactly and P = 1: the base case
        # holds but the rebuild misses the input
        "Q zero after the last peel": (
            (LaurentPoly2({(1, 0): 0.5, (-1, 0): 1.0}), LaurentPoly2({(1, 0): 0.5})),
            ("VerificationError", "rebuild mismatch"),
        ),
        # the same times b: Q = 0 while P = b has degree left
        "Q zero part-way": (
            (LaurentPoly2({(1, 1): 0.5, (-1, 1): 1.0}), LaurentPoly2({(1, 1): 0.5})),
            ("ReadoffError", "not an M-QSP unitary"),
        ),
        # the peel along a halves the noise to dust, which is pruned: the b
        # axis is trimmed and the protocol reads off
        "dust trims the other axis": (noisy_protocol(1.5e-14), "ok"),
        # twice that noise survives the prune and blocks the base case
        "noise kept": (noisy_protocol(3e-14), ("ReadoffError", "not an M-QSP unitary")),
        # the peel overflows, which LaurentPoly2 refuses
        "overflow": (
            (
                LaurentPoly2({(1, 0): 1.7e308, (-1, 0): 1.7e308}),
                LaurentPoly2({(1, 0): 1.7e308, (-1, 0): -1.7e308}),
            ),
            ("ValueError", "non-finite coefficient"),
        ),
    }
    # the phase-pi/2 draws of test_scan_stack_prunes_as_laurent_does
    half = math.pi / 2
    draws = [
        ((1, 1), (0.3, half, -0.4)),
        ((0, 1, 1), (0.1, 0.7, half, 1.0)),
        ((1, 0, 0), (0.2, 1.1, half, 0.0)),
        ((1, 1, 0, 1), (0.5, half, 0.2, half, 0.3)),
        ((0, 1, 0, 1, 1), (0.1, -0.2, 0.3, -0.4, 0.5, -0.6)),
    ]
    for i, (s, phases) in enumerate(draws):
        u = build_unitary(ProtocolSpec(s, phases))
        cases["phase pi/2 draw %d" % i] = ((u.P, u.Q), "ok")
    return cases


EDGE_CASES = edge_cases()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_readoff_edge_paths(monkeypatch, name):
    monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    (P, Q), expected = EDGE_CASES[name]
    got = outcome(readoff, P, Q)
    assert got == outcome(reference_readoff, P, Q)
    if expected == "ok":
        assert got.startswith("ReadoffResult(")
    else:
        assert got == expected


def test_peel_trims_the_axis_not_peeled():
    P, Q = noisy_protocol(1.5e-14)
    assert Q.degrees().deg_b == 2
    _, reduced = peel_once(Su2LaurentUnitary(P, Q), "a")
    assert reduced.P.degrees().deg_b == reduced.Q.degrees().deg_b == 1
    # while Q zero part-way is pruned to the zero polynomial
    _, reduced = peel_once(Su2LaurentUnitary(*EDGE_CASES["Q zero part-way"][0]), "a")
    assert reduced.Q.is_zero() and reduced.P == LaurentPoly2.monomial(0, 1)


def test_pruned_stack_is_aligned_from_array_bit_for_bit():
    # signed zeros, dust below PRUNE_REL and zero layers: each stack must
    # come out as aligned() of the two LaurentPoly2.from_array layers,
    # byte for byte
    rng = np.random.default_rng(8)
    values = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.5, 3e-15, -2e-16])
    for _ in range(400):
        shape = (2, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        box = np.empty(shape, dtype=complex)
        box.real = values[rng.integers(0, len(values), shape)]
        box.imag = values[rng.integers(0, len(values), shape)]
        lo = (int(rng.integers(-3, 3)), int(rng.integers(-3, 3)))
        polys = [LaurentPoly2.from_array(layer, *lo) for layer in box]
        x, y, want_lo = aligned(*polys)
        got, got_lo = readoff_module._pruned(box.copy(), lo)
        assert got_lo == want_lo and got.shape == (2,) + x.shape
        assert got[0].tobytes() == x.tobytes() and got[1].tobytes() == y.tobytes()


def reference_peel(u, direction):
    """peel_once's arithmetic as first written: zero-padded sums of the
    aligned boxes, cut to the lowered degree, then one
    LaurentPoly2.from_array per polynomial."""
    axis = "ab".index(direction)
    report = check_leading_slices(u)
    phi = principal_phase((report.phase_a, report.phase_b)[axis]) / 2.0
    w = complex(math.cos(phi), math.sin(phi))
    p, q, lo = aligned(u.P, u.Q)
    if axis:
        p, q = p.T, q.T
    rows = len(p)
    level = lo[axis] + rows - 1
    pw, qw = (0.5 * w.conjugate()) * p, (0.5 * w) * q
    s, d = pw + qw, pw - qw
    p_red, q_red = np.zeros((2, rows + 2, p.shape[1]), dtype=complex)
    p_red[2:] = d
    np.negative(d, out=q_red[2:])
    p_red[:-2] += s
    q_red[:-2] += s
    first = max(2 - level - lo[axis], 0)
    p_red, q_red = p_red[first:rows], q_red[first:rows]
    lo = list(lo)
    lo[axis] += first - 1
    if axis:
        p_red, q_red = p_red.T, q_red.T
    return phi, [LaurentPoly2.from_array(x, *lo) for x in (p_red, q_red)]


def test_peel_equals_reference_arithmetic_bit_for_bit(monkeypatch):
    # lopsided boxes (rows below exponent lo + 1 take S alone), signed zeros
    # and exact cancellations; a loose tolerance lets most pairs peel
    monkeypatch.setenv("MQSP_TOLERANCE", "10")
    rng = np.random.default_rng(12)
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
    peeled = 0
    for _ in range(300):
        shape = (2, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        box = np.empty(shape, dtype=complex)
        box.real = values[rng.integers(0, len(values), shape)]
        box.imag = values[rng.integers(0, len(values), shape)] * (rng.random() < 0.5)
        lo = (int(rng.integers(-2, 2)), int(rng.integers(-1, 2)))
        u = Su2LaurentUnitary(*(LaurentPoly2.from_array(layer, *lo) for layer in box))
        for direction in "ab":
            try:
                phi, reduced = peel_once(u, direction)
            except ReadoffError:
                continue
            want_phi, want = reference_peel(u, direction)
            assert repr(phi) == repr(want_phi)
            for got, poly in zip((reduced.P, reduced.Q), want):
                assert got._lo == poly._lo and got._box.tobytes() == poly._box.tobytes()
            peeled += 1
    assert peeled > 200


# -- scan -------------------------------------------------------------------------


def test_scan_deterministic_and_clean():
    s1 = scan_leading_slices(n_max=4, trials=50, seed=99)
    s2 = scan_leading_slices(n_max=4, trials=50, seed=99)
    assert s1 == s2
    assert s1.all_passed
    assert s1.worst_mismatch < 1e-8


def test_scan_vacuous_at_zero_length():
    s = scan_leading_slices(n_max=0, trials=10, seed=1)
    assert s.all_passed and s.worst_mismatch == 0.0


def reference_scan(n_max, trials, seed):
    """The scan as a loop over single trials, in draw order."""
    rng = np.random.default_rng(seed)
    passes, worst, bad = 0, 0.0, []
    for _ in range(trials):
        n = int(rng.integers(0, n_max + 1))
        spec = random_spec(rng, n)
        report = check_leading_slices(build_unitary(spec))
        if report.holds:
            passes += 1
            worst = max(worst, min(report.mismatch_a, report.mismatch_b))
        else:
            bad.append((spec, report))
    return ScanSummary(trials, passes, worst, tuple(bad), n_max, seed)


@pytest.mark.parametrize("tolerance", [None, "1e-300"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 6, 9])
def test_scan_equals_per_trial_loop(monkeypatch, n_max, tolerance):
    if tolerance is None:
        monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("MQSP_TOLERANCE", tolerance)
    sizes = []
    scan_stack = readoff_module._scan_stack

    def spy(stack, tol):
        sizes.append(len(stack))
        return scan_stack(stack, tol)

    monkeypatch.setattr(readoff_module, "_scan_stack", spy)
    # (fewest, most) trials per stack but the last: the default budget
    # holds all 60, a one-cell budget is below every box (stacks of one),
    # and the last holds at least three trials of the largest box
    budgets = {
        readoff_module.SCAN_STACK_CELLS: (60, 60),
        1: (1, 1),
        3 * (2 * n_max + 1) ** 2: (3, 60),
    }
    for seed in (0, 1, 5):
        expected = reference_scan(n_max, 60, seed)
        for budget, (fewest, most) in budgets.items():
            monkeypatch.setattr(readoff_module, "SCAN_STACK_CELLS", budget)
            sizes.clear()
            assert scan_leading_slices(n_max, 60, seed) == expected
            assert sum(sizes) == 60
            assert fewest <= min(sizes[:-1] or [fewest]) and max(sizes) <= most


def test_scan_stack_prunes_as_laurent_does():
    # phase pi/2 leaves rounding dust on levels that cancel; LaurentPoly2
    # prunes it, so the leading slices sit lower than the stacked box's top
    half = math.pi / 2
    draws = [
        ((1, 1), (0.3, half, -0.4)),
        ((0, 1, 1), (0.1, 0.7, half, 1.0)),
        ((1, 0, 0), (0.2, 1.1, half, 0.0)),
        ((1, 1, 0, 1), (0.5, half, 0.2, half, 0.3)),
        ((), (0.9,)),
        ((0, 1, 0, 1, 1), (0.1, -0.2, 0.3, -0.4, 0.5, -0.6)),
    ]
    stack = [(list(s), list(phases)) for s, phases in draws]
    for (s, phases), fields in zip(draws, readoff_module._scan_stack(stack, 1e-8)):
        expected = check_leading_slices(build_unitary(ProtocolSpec(s, phases)))
        assert SliceReport(*fields) == expected


def test_scan_counterexamples_at_tiny_tolerance_in_draw_order(monkeypatch):
    monkeypatch.setenv("MQSP_TOLERANCE", "1e-300")
    summary = scan_leading_slices(6, 100, 1)
    assert len(summary.counterexamples) == 78
    assert summary == reference_scan(6, 100, 1)


@pytest.mark.parametrize(
    "seed, worst",
    [(1, "0x1.4c10c39eb4085p-52"), (2, "0x1.70d5e32087a3fp-52"), (424242, "0x1.2f447ac604e85p-52")],
)
def test_scan_pinned_at_bench_size(monkeypatch, seed, worst):
    # recorded from the per-trial scan before trials were stacked
    monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    summary = scan_leading_slices(6, 100, seed)
    assert summary.passes == 100 and not summary.counterexamples
    assert summary.worst_mismatch.hex() == worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scan_refuses_max_cells_per_trial_in_draw_order(monkeypatch, seed):
    # a 3 x 5 box fits and a 5 x 5 one does not; a stack holding a 9 x 1 and
    # a 1 x 9 trial spans 9 x 9 but is not refused
    monkeypatch.setattr(laurent, "MAX_CELLS", 15)
    with pytest.raises(ValueError, match="exceeds MAX_CELLS") as expected:
        reference_scan(4, 200, seed)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        scan_leading_slices(4, 200, seed)


def test_scan_refuses_a_huge_box_without_allocating_it():
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="exponent box of 2871 x 2809 coefficients exceeds MAX_CELLS"
        ):
            scan_leading_slices(6000, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20)


def test_scan_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (500, 5000):
        tracemalloc.start()
        try:
            assert scan_leading_slices(6, trials, 3).all_passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0]
