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
    ReadoffResult,
    ScanSummary,
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
    assert not (rep.holds_a or rep.holds_b)
    assert rep.reason_a == rep.reason_b == "zero leading slice"
    assert rep.mismatch_a == rep.mismatch_b == math.inf
    assert rep.phase_a is None and rep.phase_b is None


def test_q_zero_under_nonconstant_p_agrees_with_peel():
    # Q = 0 holds by convention only for a constant P: P = a reports the
    # zero leading slices that peel_once refuses
    u = Su2LaurentUnitary(LaurentPoly2({(1, 0): 1.0}), LaurentPoly2.zero())
    rep = check_leading_slices(u)
    assert not (rep.holds_a or rep.holds_b)
    assert rep.reason_a == rep.reason_b == "zero leading slice"
    assert rep.phase_a is None and rep.phase_b is None
    assert rep.mismatch_a == rep.mismatch_b == math.inf
    with pytest.raises(ReadoffError, match="leading slices not proportional"):
        peel_once(u, "a")
    for p in (LaurentPoly2({(0, 0): -1j}), LaurentPoly2.zero()):
        rep = check_leading_slices(Su2LaurentUnitary(p, LaurentPoly2.zero()))
        assert astuple(rep) == (True, True, 0.0, 0.0, 0.0, 0.0, None, None)


def test_one_pair_slice_test_equals_its_row_of_a_stack():
    rng = np.random.default_rng(19)
    verdicts = set()
    for width in range(1, 14):
        ps = rng.standard_normal((8, width)) + 1j * rng.standard_normal((8, width))
        ps *= 10.0 ** rng.integers(-3, 3, size=(8, 1))
        # rows 3.. are proportional up to noise of 1e-12 .. 1e-6 of the row
        turn = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(8, 1)))
        noise = 10.0 ** rng.integers(-12, -5, size=(8, 1)) * rng.standard_normal((8, width))
        qs = ps * turn + noise * np.abs(ps).max(axis=1, keepdims=True)
        qs[0] = 0.0  # a zero Q slice
        ps[1] = 0.0  # a zero P slice
        if width > 1:  # a tie in |q| at its largest: the first one wins
            qs[2, 0], qs[2, -1] = 10.0, 10.0j
        ok, mismatch = readoff_module._stack_test(ps, qs, 1e-8)
        stacked = [(held, x.hex()) for held, x in zip(ok.tolist(), mismatch.tolist())]
        verdicts.update(ok[3:].tolist())
        # the pair as the top row (axis 0) and the top column (axis 1) of a
        # box, each contiguous in one memory order and strided in the other
        for stack_p, stack_q in ((ps, qs), (np.asfortranarray(ps), np.asfortranarray(qs))):
            for t in range(len(ps)):
                p, q = stack_p[t : t + 1], stack_q[t : t + 1]
                for axis, (box_p, box_q) in enumerate(((p, q), (p.T, q.T))):
                    held, phase, x, reason = readoff_module._top_test(box_p, box_q, axis, 1e-8)
                    assert (held, x.hex()) == stacked[t]
                    zero = t < 2
                    assert reason == ("zero leading slice" if zero else None)
                    assert (phase is None) == zero
    assert verdicts == {True, False}


def test_stack_test_reads_zero_padded_rows_as_they_are():
    # the scan tests its slices along a and b in one call, zero-padded to
    # one width: the padding leaves every ok and mismatch as it is, and an
    # all-zero row reads inf either way
    rng = np.random.default_rng(23)
    verdicts = set()
    for width in range(1, 9):
        ps = rng.standard_normal((7, width)) + 1j * rng.standard_normal((7, width))
        turn = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(7, 1)))
        noise = 10.0 ** rng.integers(-12, -5, size=(7, 1)) * rng.standard_normal((7, width))
        qs = ps * turn + noise
        ps[0] = qs[0] = 0.0  # both slices zero
        qs[1] = 0.0
        ps[2] = 0.0
        ok, mismatch = readoff_module._stack_test(ps, qs, 1e-8)
        assert mismatch[:3].tolist() == [math.inf] * 3 and not ok[:3].any()
        verdicts.update(ok[3:].tolist())
        hexes = [x.hex() for x in mismatch.tolist()]
        for pad in (1, 2, 9):
            wide_p, wide_q = (np.pad(x, ((0, 0), (0, pad))) for x in (ps, qs))
            wide_ok, wide_mismatch = readoff_module._stack_test(wide_p, wide_q, 1e-8)
            assert wide_ok.tolist() == ok.tolist()
            assert [x.hex() for x in wide_mismatch.tolist()] == hexes
    assert verdicts == {True, False}


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
        assert rep.holds_a or rep.holds_b, (spec, rep)


# -- single peel -----------------------------------------------------------------


def test_peel_single_a_iterate():
    u = build_unitary(ProtocolSpec((1,), (0.3, -0.7)))
    phase, reduced = peel_once(u, "a")
    assert phase == pytest.approx(-0.7)
    assert reduced.P.distance(LaurentPoly2({(0, 0): cmath.exp(0.3j)})) < 1e-12
    assert reduced.Q.max_abs() < 1e-12


def test_peel_lowers_degree_and_keeps_structure():
    rng = np.random.default_rng(31)
    spec = random_spec(rng, 6, weight=3)
    u = build_unitary(spec)
    direction = "a" if spec.s[-1] == 1 else "b"
    _, reduced = peel_once(u, direction)
    (a0, b0), (a1, b1) = u.P.degrees(), reduced.P.degrees()
    if direction == "a":
        assert a1 == a0 - 1 and b1 == b0
    else:
        assert b1 == b0 - 1 and a1 == a0
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
    with pytest.raises(ValueError, match="^direction must be 'a' or 'b'$"):
        peel_once(u, "c")


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
    assert reduced.P.degrees()[0] == u.P.degrees()[0] - 1


# -- full read-off ----------------------------------------------------------------


def test_readoff_base_case():
    res = readoff(LaurentPoly2({(0, 0): cmath.exp(1.3j)}), LaurentPoly2.zero())
    assert res.spec.s == ()
    assert res.spec.phases[0] == pytest.approx(1.3)
    assert res.residual < 1e-15


def test_readoff_three_iterates_pinned():
    spec = ProtocolSpec((1, 0, 1), (0.2, 0.4, -1.0, 0.9))
    u = build_unitary(spec)
    res = readoff(u.P, u.Q)
    assert res.residual < 1e-9
    assert len(res.spec.s) == 3
    assert build_unitary(res.spec).distance(u) < 1e-9
    # bits must match exactly (degrees pin the string)
    assert res.spec.s == spec.s


def test_readoff_exactly_n_steps_and_unit_degree_drops():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 9)
    u = build_unitary(spec)
    res = readoff(u.P, u.Q)
    assert len(res.spec.s) == spec.n
    assert res.spec.s == spec.s


def test_readoff_commuting_segment_both_directions():
    spec = ProtocolSpec((0, 1), (0.0, 0.0, 0.0))
    u = build_unitary(spec)
    rep = check_leading_slices(u)
    assert rep.holds_a and rep.holds_b
    res = readoff(u.P, u.Q)
    assert res.spec.s[-1] == 1  # tie-break: the last iterate is peeled along a
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
        # walk the peels as reference_readoff does: each step peels a when
        # a holds at positive degree, else b
        u = build_unitary(spec)
        steps = []  # (both directions peel, phase), one per peel
        for _ in range(spec.n):
            rep = check_leading_slices(u)
            degrees = map(max, u.P.degrees(), u.Q.degrees())
            holds = [held and d >= 1 for held, d in zip((rep.holds_a, rep.holds_b), degrees)]
            phase, u = peel_once(u, "a" if holds[0] else "b")
            steps.append((all(holds), phase))
        for (both, _), (_, nxt) in zip(steps, steps[1:]):
            if both:
                dist = min(abs(nxt), abs(nxt - math.pi), abs(nxt + math.pi))
                assert dist < 1e-8, spec
                seen += 1
    assert seen > 0  # the construction must actually exercise the branch


def test_readoff_tests_b_only_when_a_does_not_peel(monkeypatch):
    # a random-bit protocol, most of whose steps peel a: a spy on the slice
    # test records (step, axis, held) per call, the step counted by peels
    spec = random_spec(np.random.default_rng(4), 12)
    u = build_unitary(spec)
    expected = repr(readoff(u.P, u.Q))
    calls, peels = [], []
    top_test, peel = readoff_module._top_test, readoff_module._peel

    def spy_top_test(p, q, axis, tol):
        result = top_test(p, q, axis, tol)
        calls.append((len(peels), axis, result[0]))
        return result

    def counting_peel(*args):
        peels.append(args[3])
        return peel(*args)

    monkeypatch.setattr(readoff_module, "_top_test", spy_top_test)
    monkeypatch.setattr(readoff_module, "_peel", counting_peel)
    assert repr(readoff(u.P, u.Q)) == expected
    a_held = {step for step, axis, held in calls if axis == 0 and held}
    assert peels.count(0) == len(a_held) == spec.weight == 8
    assert not [step for step, axis, _ in calls if axis == 1 and step in a_held]


def test_readoff_rejects_garbage():
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(
            LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5}),
            LaurentPoly2({(1, 1): 0.3, (-1, -1): 0.8}),
        )


def test_readoff_rejects_nonunimodular_constant():
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(LaurentPoly2({(0, 0): 0.5}), LaurentPoly2.zero())
    with pytest.raises(ReadoffError, match="not an M-QSP unitary"):
        readoff(LaurentPoly2.zero(), LaurentPoly2.zero())


def test_readoff_roundtrip_many():
    rng = np.random.default_rng(101)
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(0, 13)))
        u = build_unitary(spec)
        res = readoff(u.P, u.Q)
        assert res.residual < 1e-9
        assert len(res.spec.s) == spec.n


# -- read-off against a loop of public single steps --------------------------------


def reference_readoff(P, Q):
    """readoff as a loop of public single steps, after readoff's bound on
    the coefficients: check_leading_slices picks the direction (a first)
    among those of positive degree, peel_once peels, then readoff's base
    case and rebuild check follow."""
    tol = readoff_tolerance()
    if max(P.max_abs(), Q.max_abs()) > 1.0 + tol:
        raise ReadoffError("not an M-QSP unitary")
    original = u = Su2LaurentUnitary(P, Q)
    max_steps = sum(P.degrees()) + sum(Q.degrees())
    peels = []  # (direction, phase), one per step
    for _ in range(max_steps + 1):
        report = check_leading_slices(u)
        tops = [
            max((e[axis] for poly in (u.P, u.Q) for e, _ in poly.items()), default=0)
            for axis in (0, 1)
        ]
        holds = (report.holds_a, report.holds_b)
        avail = ["ab"[axis] for axis in (0, 1) if tops[axis] >= 1 and holds[axis]]
        if not avail:
            break
        phase, u = peel_once(u, avail[0])
        peels.append((avail[0], phase))
    c = u.P.coeff(0, 0)
    nonconstant = (u.P - LaurentPoly2({(0, 0): c})).max_abs()
    if u.Q.max_abs() > tol or nonconstant > tol or abs(abs(c) - 1.0) > tol:
        raise ReadoffError("not an M-QSP unitary")
    spec = ProtocolSpec(
        tuple(1 if direction == "a" else 0 for direction, _ in reversed(peels)),
        (math.atan2(c.imag, c.real),) + tuple(phase for _, phase in reversed(peels)),
    )
    residual = build_unitary(spec).distance(original)
    if residual > tol:
        raise VerificationError("rebuild mismatch")
    return ReadoffResult(spec, residual)


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
        # coefficients above 1, whose peel would overflow, are refused first
        "overflow": (
            (
                LaurentPoly2({(1, 0): 1.7e308, (-1, 0): 1.7e308}),
                LaurentPoly2({(1, 0): 1.7e308, (-1, 0): -1.7e308}),
            ),
            ("ReadoffError", "not an M-QSP unitary"),
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
    assert Q.degrees()[1] == 2
    _, reduced = peel_once(Su2LaurentUnitary(P, Q), "a")
    assert reduced.P.degrees()[1] == reduced.Q.degrees()[1] == 1
    # while Q zero part-way is pruned to the zero polynomial
    _, reduced = peel_once(Su2LaurentUnitary(*EDGE_CASES["Q zero part-way"][0]), "a")
    assert reduced.Q.is_zero() and reduced.P == LaurentPoly2({(0, 1): 1.0})


def test_pruned_stack_is_aligned_from_array_bit_for_bit(monkeypatch):
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
    # stacks whose layers keep a cell on every edge row and column take the
    # fast path, which makes no LaurentPoly2: their -0.0, +0.0 and dust,
    # in one layer or both, must still come out as the reference has them
    calls = []
    monkeypatch.setattr(readoff_module, "aligned", lambda *polys: calls.append(polys))
    zeros_and_dust = values[[0, 1, 6, 7]]
    for trial in range(400):
        shape = (2, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        box = np.empty(shape, dtype=complex)
        box.real = zeros_and_dust[rng.integers(0, 4, shape)]
        box.imag = zeros_and_dust[rng.integers(0, 4, shape)]
        if trial % 3:  # one layer holds no dust: only signed zeros
            box[trial % 2] = np.where(np.abs(box[trial % 2]) > 0, 0.0, box[trial % 2])
        for layer in box:
            rows, cols = layer.shape
            for i in (0, rows - 1):
                layer[i, rng.integers(0, cols)] = rng.choice([1.0, -0.5j])
            for l in (0, cols - 1):
                layer[rng.integers(0, rows), l] = rng.choice([1.0, -0.5j])
        lo = (int(rng.integers(-3, 3)), int(rng.integers(-3, 3)))
        x, y, want_lo = aligned(*(LaurentPoly2.from_array(layer, *lo) for layer in box))
        got, got_lo = readoff_module._pruned(box.copy(), lo)
        assert not calls
        assert got_lo == want_lo and got.shape == (2,) + x.shape
        assert got[0].tobytes() == x.tobytes() and got[1].tobytes() == y.tobytes()


def spec_or_message(P, Q):
    try:
        return readoff(P, Q).spec
    except (ReadoffError, VerificationError) as exc:
        return str(exc)


def test_readoff_commutes_with_the_ab_mirror():
    # swapping the variables maps the unitary of (s, phases) to that of
    # (1 - s, phases): read-off on the transposed P and Q must fail with the
    # same message, or recover the mirrored bits and the transposed rebuild
    rng = np.random.default_rng(5)
    tol = readoff_tolerance()
    succeeded = 0
    for _ in range(80):
        u = build_unitary(random_spec(rng, int(rng.integers(8, 33))))
        got = spec_or_message(u.P, u.Q)
        flip = spec_or_message(u.P.transposed(), u.Q.transposed())
        if isinstance(got, str) or isinstance(flip, str):
            assert got == flip
            continue
        succeeded += 1
        assert flip.s == tuple(1 - bit for bit in got.s)
        rebuilt, mirrored = build_unitary(got), build_unitary(flip)
        assert mirrored.P.distance(rebuilt.P.transposed()) <= tol
        assert mirrored.Q.distance(rebuilt.Q.transposed()) <= tol
    assert succeeded >= 40  # 68 of the 80 read off, so the mirror is checked


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
    assert s1.passes == s1.trials
    assert s1.worst_mismatch < 1e-8


def test_scan_vacuous_at_zero_length():
    s = scan_leading_slices(n_max=0, trials=10, seed=1)
    assert s.passes == s.trials and s.worst_mismatch == 0.0


def reference_scan(n_max, trials, seed):
    """The scan as a loop over single trials, in draw order."""
    rng = np.random.default_rng(seed)
    passes, worst, bad = 0, 0.0, []
    for _ in range(trials):
        n = int(rng.integers(0, n_max + 1))
        spec = random_spec(rng, n)
        report = check_leading_slices(build_unitary(spec))
        if report.holds_a or report.holds_b:
            passes += 1
            worst = max(worst, min(report.mismatch_a, report.mismatch_b))
        else:
            bad.append(spec)
    return ScanSummary(trials, passes, worst, tuple(bad), n_max, seed)


@pytest.mark.parametrize("tolerance", [None, "1e-300"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 6, 9, 40])
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
    # holds all 60 up to n_max = 9 (and at least as many trials of the
    # largest box as it has room for), a one-cell budget is below every box
    # (stacks of one), and the last holds at least three trials of the
    # largest box
    default = readoff_module.SCAN_STACK_CELLS
    budgets = {
        default: (min(60, default // (n_max + 1) ** 2), 60),
        1: (1, 1),
        3 * (n_max + 1) ** 2: (3, 60),
    }
    for seed in (0, 1, 5):
        expected = reference_scan(n_max, 60, seed)
        for budget, (fewest, most) in budgets.items():
            monkeypatch.setattr(readoff_module, "SCAN_STACK_CELLS", budget)
            sizes.clear()
            assert scan_leading_slices(n_max, 60, seed) == expected
            assert sum(sizes) == 60
            assert fewest <= min(sizes[:-1] or [fewest]) and max(sizes) <= most


@pytest.mark.parametrize("seed", [1, 2, 424242])
def test_scan_makes_no_generator_draw(monkeypatch, seed):
    # the scan decodes its trials from raw words: Generator's methods cannot
    # be patched (an immutable type), so default_rng gives a subclass whose
    # integers and uniform raise
    class Refusing(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("Generator.integers")

        def uniform(self, *args, **kwargs):
            raise AssertionError("Generator.uniform")

    expected = scan_leading_slices(6, 100, seed)
    monkeypatch.setattr(np.random, "default_rng", lambda s: Refusing(np.random.PCG64(s)))
    assert scan_leading_slices(6, 100, seed) == expected


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
    holds, mismatch = readoff_module._scan_stack(stack, 1e-8)
    assert len(holds) == len(mismatch) == len(draws)
    for (s, phases), held, x in zip(draws, holds.tolist(), mismatch.tolist()):
        rep = check_leading_slices(build_unitary(ProtocolSpec(s, phases)))
        assert held == (rep.holds_a or rep.holds_b)
        assert x.hex() == min(rep.mismatch_a, rep.mismatch_b).hex()


def test_scan_counterexamples_at_tiny_tolerance_in_draw_order(monkeypatch):
    monkeypatch.setenv("MQSP_TOLERANCE", "1e-300")
    summary = scan_leading_slices(6, 100, 1)
    assert len(summary.counterexamples) == 78
    assert summary == reference_scan(6, 100, 1)
    for spec in summary.counterexamples:
        rep = check_leading_slices(build_unitary(spec))
        assert not (rep.holds_a or rep.holds_b)


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
    # numpy's first generator in a process peaks near 1 MB on its own: make
    # it before tracing, so the bound measures the scan alone and reads the
    # same peak whether the test runs alone or after others
    np.random.default_rng()
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


def test_scan_memory_does_not_grow_with_trials(monkeypatch):
    # a trial of n <= 6 has a lattice box of at most 7 x 7 cells, so a stack
    # holds at least SCAN_STACK_CELLS // 49 trials; the small run is sized
    # to fill three such stacks, and counted to span at least two
    per_stack = readoff_module.SCAN_STACK_CELLS // 7**2
    stacks, scan_stack = [], readoff_module._scan_stack

    def counted(stack, tol):
        stacks.append(len(stack))
        return scan_stack(stack, tol)

    monkeypatch.setattr(readoff_module, "_scan_stack", counted)
    peaks, spans = [], []
    for trials in (3 * per_stack, 30 * per_stack):
        tracemalloc.start()
        try:
            summary = scan_leading_slices(6, trials, 3)
            assert summary.passes == summary.trials
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        spans.append(len(stacks))
    assert spans[0] >= 2
    assert peaks[1] < 1.5 * peaks[0]
