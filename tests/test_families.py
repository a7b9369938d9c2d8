"""Tests for the named protocol families and the discrimination demo."""

import cmath
import math

import numpy as np
import pytest

from mqsp.families import (
    CASE_ONE_POINTS,
    DiscriminationInstance,
    case_one_instances,
    case_two_samples,
    chebyshev_t,
    chebyshev_u,
    discriminate,
    trivial_protocol,
    xyz_protocol,
)
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import build_unitary, verify_structure

ROOT2_OVER_4 = math.sqrt(2.0) / 4.0


# ---------------------------------------------------------------- chebyshev


def test_chebyshev_pinned_scalar_values():
    assert chebyshev_t(3, 0.5) == pytest.approx(-1.0)
    assert chebyshev_u(2, 0.5) == pytest.approx(0.0)
    for n in range(9):
        assert chebyshev_t(n, 1.0) == pytest.approx(1.0)


def test_chebyshev_against_trigonometric_oracle():
    # T_n(cos t) = cos(nt), U_n(cos t) = sin((n+1)t)/sin(t)
    for t in (0.3, 1.1, 2.7):
        x = math.cos(t)
        for n in range(8):
            assert chebyshev_t(n, x) == pytest.approx(math.cos(n * t), abs=1e-12)
            expected_u = math.sin((n + 1) * t) / math.sin(t)
            assert chebyshev_u(n, x) == pytest.approx(expected_u, abs=1e-12)


def test_chebyshev_polynomial_arguments():
    x_a = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    t3 = chebyshev_t(3, x_a)
    assert t3.distance(LaurentPoly2({(3, 0): 0.5, (-3, 0): 0.5})) < 1e-14
    u2 = chebyshev_u(2, x_a)
    expected = LaurentPoly2({(2, 0): 1.0, (0, 0): 1.0, (-2, 0): 1.0})
    assert u2.distance(expected) < 1e-14


def test_chebyshev_rejects_negative_degree():
    with pytest.raises(ValueError):
        chebyshev_t(-1, 0.5)
    with pytest.raises(ValueError):
        chebyshev_u(-2, 0.5)


# ---------------------------------------------------------------- families


def test_trivial_n1_pinned():
    named = trivial_protocol(1)
    assert named.spec.s == (0, 1)
    assert named.spec.phases == (0.0, 0.0, 0.0)
    p_expected = LaurentPoly2({(1, 1): 0.5, (-1, -1): 0.5})
    q_expected = LaurentPoly2({(1, 1): 0.5, (-1, -1): -0.5})
    assert named.closed_form.P.distance(p_expected) < 1e-14
    assert named.closed_form.Q.distance(q_expected) < 1e-14


def test_trivial_build_matches_closed_form():
    for n in range(1, 7):
        named = trivial_protocol(n)
        built = build_unitary(named.spec)
        assert built.distance(named.closed_form) < 1e-10


def test_trivial_support_is_diagonal_exactly():
    for n in (1, 3, 5):
        named = trivial_protocol(n)
        for poly in (named.closed_form.P, named.closed_form.Q):
            assert all(j == k for (j, k), _ in poly.items())


def test_trivial_passes_structure_checks():
    named = trivial_protocol(4)
    report = verify_structure(named.closed_form, 8, 4)
    assert report.overall


def test_xyz_n1_pinned_coefficients():
    named = xyz_protocol(1)
    assert named.spec.s == (1, 0)
    assert named.spec.phases == pytest.approx(
        (math.pi / 4, -math.pi / 4, math.pi / 4)
    )
    p, q = named.closed_form.P, named.closed_form.Q
    assert abs(p.coeff(1, 1) - 1j * ROOT2_OVER_4) < 1e-14
    assert abs(p.coeff(1, -1) - ROOT2_OVER_4) < 1e-14
    assert abs(p.coeff(-1, 1) - ROOT2_OVER_4) < 1e-14
    assert abs(p.coeff(-1, -1) - 1j * ROOT2_OVER_4) < 1e-14
    assert abs(q.coeff(1, 1) - ROOT2_OVER_4) < 1e-14
    assert abs(q.coeff(1, -1) - 1j * ROOT2_OVER_4) < 1e-14
    assert abs(q.coeff(-1, 1) + 1j * ROOT2_OVER_4) < 1e-14
    assert abs(q.coeff(-1, -1) + ROOT2_OVER_4) < 1e-14


def test_xyz_build_matches_closed_form():
    for n in range(1, 7):
        named = xyz_protocol(n)
        built = build_unitary(named.spec)
        assert built.distance(named.closed_form) < 1e-10


def test_xyz_transition_prob_on_half_cosine_curve():
    # at cos(theta_a)cos(theta_b) = 1/2: T_3 = -1 and U_2 = 0, so |P|^2 = 1
    named = xyz_protocol(3)
    for theta_a in (0.0, 0.4, -0.9):
        theta_b = math.acos(0.5 / math.cos(theta_a))
        value = named.closed_form.P.eval_grid(np.exp(1j * theta_a), np.exp(1j * theta_b))[0, 0]
        assert abs(abs(value) ** 2 - 1.0) < 1e-12


def test_xyz_phase_sandwich_turns_x_into_y():
    # e^{-i sz pi/4} e^{i t sx} e^{i sz pi/4} = e^{i t sy}
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for t in (0.0, 0.7, -1.9, 2.4):
        zp = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
        zm = zp.conj()
        rx = math.cos(t) * np.eye(2) + 1j * math.sin(t) * sx
        ry = math.cos(t) * np.eye(2) + 1j * math.sin(t) * sy
        assert np.abs(zm @ rx @ zp - ry).max() < 1e-14


def test_family_length_validation():
    for fn in (trivial_protocol, xyz_protocol):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(9)


def test_family_boundedness_on_grid():
    for fn in (trivial_protocol, xyz_protocol):
        named = fn(3)
        values = np.abs(named.closed_form.P.eval_unit_grid(128)) ** 2
        assert values.max() <= 1 + 1e-10


# ---------------------------------------------------------------- problem 1


def test_case_one_points_give_zero_probability():
    for instance in case_one_instances():
        result = discriminate(instance)
        assert result.transition_prob < 1e-9
        assert result.decision == "one"
        assert result.queries == 6


def test_case_two_pinned_point():
    # theta = (0, pi/3): 4 cos^2(0) cos^2(pi/3) = 1
    result = discriminate(
        DiscriminationInstance(case="two", theta_a=0.0, theta_b=math.pi / 3)
    )
    assert abs(result.transition_prob - 1.0) < 1e-9
    assert result.decision == "two"


def test_case_two_samples_deterministic_and_in_promise():
    first = case_two_samples(25, seed=11)
    second = case_two_samples(25, seed=11)
    assert first == second
    for instance in first:
        assert instance.in_promise()
        result = discriminate(instance)
        assert abs(result.transition_prob - 1.0) < 1e-9
        assert result.decision == "two"


def test_promise_violations_rejected():
    with pytest.raises(ValueError, match="violates promise"):
        discriminate(DiscriminationInstance(case="two", theta_a=0.3, theta_b=0.3))
    with pytest.raises(ValueError, match="violates promise"):
        discriminate(
            DiscriminationInstance(case="one", theta_a=0.1, theta_b=math.pi / 2)
        )
    with pytest.raises(ValueError, match="violates promise"):
        discriminate(
            DiscriminationInstance(case="three", theta_a=0.0, theta_b=math.pi / 2)
        )


def test_case_one_point_set():
    assert len(CASE_ONE_POINTS) == 4
    for a, b in CASE_ONE_POINTS:
        assert {abs(a), abs(b)} == {0.0, math.pi / 2}
