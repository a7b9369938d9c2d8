"""Phase read-off: slice proportionality, peeling, full round trips."""

import cmath
import math

import numpy as np
import pytest

from mqsp.errors import ReadoffError
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import ProtocolSpec, Su2LaurentUnitary, build_unitary, random_spec
from mqsp.readoff import (
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
