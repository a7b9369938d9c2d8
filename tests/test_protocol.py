"""Protocol unitaries: pinned constructions, structure checks, dual routes."""

import cmath
import json
import math

import numpy as np
import pytest

from mqsp import serialize
from mqsp.errors import VerificationError
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    assemble_completion,
    build_unitary,
    eval_unitary,
    principal_phase,
    random_spec,
    verify_structure,
    x_picture_cross_check,
)

X_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
Y_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): -0.5})


# -- spec validation -----------------------------------------------------------


def test_spec_validates_lengths_and_bits():
    with pytest.raises(ValueError, match="phases"):
        ProtocolSpec((1, 0), (0.0, 0.0))
    with pytest.raises(ValueError, match="bits"):
        ProtocolSpec((2,), (0.0, 0.0))


def test_phase_normalization_to_principal_range():
    spec = ProtocolSpec((), (3 * math.pi,))
    assert spec.phases[0] == pytest.approx(math.pi)
    assert principal_phase(-math.pi) == pytest.approx(math.pi)
    assert principal_phase(0.3) == pytest.approx(0.3)


# -- pinned constructions --------------------------------------------------------


def test_empty_protocol_is_phase_only():
    u = build_unitary(ProtocolSpec((), (0.7,)))
    assert u.P.distance(LaurentPoly2.constant(cmath.exp(0.7j))) < 1e-15
    assert u.Q.is_zero()


def test_single_a_iterate_zero_phases():
    u = build_unitary(ProtocolSpec((1,), (0.0, 0.0)))
    assert u.P.distance(X_A) < 1e-15
    assert u.Q.distance(Y_A) < 1e-15


def test_b_then_a_gives_diagonal_ab():
    # B then A with zero phases: P = ((ab) + (ab)^-1)/2, Q = ((ab) - (ab)^-1)/2
    u = build_unitary(ProtocolSpec((0, 1), (0.0, 0.0, 0.0)))
    assert u.P.distance(LaurentPoly2({(1, 1): 0.5, (-1, -1): 0.5})) < 1e-15
    assert u.Q.distance(LaurentPoly2({(1, 1): 0.5, (-1, -1): -0.5})) < 1e-15


def test_single_a_iterate_nonzero_phases():
    # s=[1], phases {0.3, -0.7}: P = e^{-0.4i} x_a, Q = e^{1.0i} y_a
    u = build_unitary(ProtocolSpec((1,), (0.3, -0.7)))
    assert u.P.distance(cmath.exp(-0.4j) * X_A) < 1e-14
    assert u.Q.distance(cmath.exp(1.0j) * Y_A) < 1e-14


def test_eval_unitary_quarter_x_rotation():
    # s=[1], zero phases, theta_a = pi/2: the iterate is i*sigma_x
    mat = eval_unitary(ProtocolSpec((1,), (0.0, 0.0)), math.pi / 2, 0.123)
    expect = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.max(np.abs(mat - expect)) < 1e-14


def test_numeric_and_symbolic_routes_agree():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 8)
    u = build_unitary(spec)
    for _ in range(12):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        assert np.max(np.abs(eval_unitary(spec, ta, tb) - u.matrix_at(ta, tb))) < 1e-10


def test_eval_unitary_numerically_unitary():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 10)
    mat = eval_unitary(spec, 0.37, -1.91)
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12


def test_alternating_zero_phase_depends_on_sum():
    # With phases all zero and s alternating, P = cos(theta_a + theta_b):
    # at theta_a + theta_b = 0 the P entry is exactly 1.
    spec = ProtocolSpec((0, 1, 0, 1), (0.0,) * 5)
    mat = eval_unitary(spec, 0.8, -0.8)
    assert abs(mat[0, 0] - 1.0) < 1e-12


def test_composition_matches_matrix_product():
    rng = np.random.default_rng(21)
    s1, s2 = random_spec(rng, 4), random_spec(rng, 3)
    # concatenate with the seam phases merged: phi = last of s1 + first of s2
    merged = ProtocolSpec(
        s1.s + s2.s,
        s1.phases[:-1] + (s1.phases[-1] + s2.phases[0],) + s2.phases[1:],
    )
    assert build_unitary(merged).distance(build_unitary(s1) @ build_unitary(s2)) < 1e-12


def test_length_sweep_build_matches_circuit_and_round_trips():
    # every even n in 8..64 plus n = 96, and single-oracle protocols (one
    # axis of the coefficient box has length 1)
    rng = np.random.default_rng(64)
    specs = [random_spec(rng, n) for n in (*range(8, 65, 2), 96)]
    specs += [random_spec(rng, n, weight=w) for n in (8, 33) for w in (0, n)]
    for spec in specs:
        u = build_unitary(spec)
        for _ in range(6):
            ta, tb = rng.uniform(-math.pi, math.pi, size=2)
            err = np.max(np.abs(eval_unitary(spec, ta, tb) - u.matrix_at(ta, tb)))
            assert err < 1e-9, (spec.n, spec.weight, err)
        if spec.n <= 64:
            assert verify_structure(u, spec.n, spec.weight).overall, spec.n
        for poly in (u.P, u.Q):
            wired = json.loads(json.dumps(serialize.poly_to_records(poly)))
            assert serialize.poly_from_records(wired) == poly


# -- structural checks -----------------------------------------------------------


def test_assemble_completion_shifts_factor_and_drops_odd_cells():
    # n = 3, m = 1: factor cell (j, k) moves to (j - 1, k - 2), and only
    # cells with both exponents even are kept (the odd ones are solver dust)
    factor = LaurentPoly2({(0, 0): 0.5, (2, 4): 0.25j, (1, 0): 1e-9, (2, 3): -1e-9})
    t = LaurentPoly2({(-1, -2): 0.5, (1, 2): 0.25j})
    p_tilde, q_tilde = LaurentPoly2.constant(0.1), LaurentPoly2.monomial(1, 0, 0.2)
    u = assemble_completion(p_tilde, q_tilde, factor, 3, 1)
    assert u.P == p_tilde + 1j * t.hermitian_part()
    assert u.Q == q_tilde + 1j * ((t - t.conj_reciprocal()) * (-0.5j))


def test_structure_report_passes_for_built_unitaries():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 5, 9, 12):
        spec = random_spec(rng, n)
        rep = verify_structure(build_unitary(spec), spec.n, spec.weight)
        assert rep.overall, rep


def test_structure_rejects_wrong_inversion_parity():
    # P = a, Q = 0: determinant holds but inversion parity fails.
    u = Su2LaurentUnitary(LaurentPoly2.monomial(1, 0), LaurentPoly2.zero())
    rep = verify_structure(u, 1, 1)
    assert rep.determinant_residual < 1e-15
    assert not rep.inversion_parity_ok
    assert not rep.overall


def test_structure_rejects_mismatched_oracle_pair():
    # P = x_a, Q = y_b: cos^2(t_a) + sin^2(t_b) is not 1.
    yb = LaurentPoly2({(0, 1): 0.5, (0, -1): -0.5})
    rep = verify_structure(Su2LaurentUnitary(X_A, yb), 1, 1)
    assert rep.determinant_residual > 0.1
    assert not rep.overall


def test_structure_rejects_degree_overflow():
    u = build_unitary(ProtocolSpec((1, 1), (0.1, 0.2, 0.3)))
    rep = verify_structure(u, 1, 1)  # claim a shorter protocol than built
    assert not rep.degree_ok


def test_degree_saturation_generic_phases():
    rng = np.random.default_rng(17)
    spec = random_spec(rng, 7)
    u = build_unitary(spec)
    d = u.P.degrees()
    assert (d.deg_a, d.deg_b) == (spec.weight, spec.n - spec.weight)


def test_pointwise_unitarity_on_grid():
    rng = np.random.default_rng(29)
    spec = random_spec(rng, 9)
    u = build_unitary(spec)
    thetas = -math.pi + 2 * math.pi * np.arange(64) / 64
    z = np.exp(1j * thetas)
    p = u.P.eval_grid(z, z)
    q = u.Q.eval_grid(z, z)
    assert np.max(np.abs(np.abs(p) ** 2 + np.abs(q) ** 2 - 1.0)) < 1e-10


# -- x-picture cross-check --------------------------------------------------------


def test_x_picture_identity():
    rep = x_picture_cross_check(Su2LaurentUnitary(LaurentPoly2.one(), LaurentPoly2.zero()))
    assert np.max(np.abs(rep.p_hat - 1.0)) < 1e-12
    assert np.max(np.abs(rep.q_hat)) < 1e-10
    assert np.max(np.abs(rep.r_hat)) < 1e-10
    assert np.max(np.abs(rep.s_hat)) < 1e-10


def test_x_picture_single_iterate():
    u = build_unitary(ProtocolSpec((1,), (0.0, 0.0)))
    rep = x_picture_cross_check(u)
    # P(theta) = cos(t_a) = x_a;  Q(theta) = i sin(t_a) so r_hat = i
    assert np.max(np.abs(rep.p_hat - np.cos(rep.thetas)[:, None])) < 1e-12
    assert np.max(np.abs(rep.r_hat - 1j)) < 1e-12
    assert rep.decomposition_residual < 1e-10
    assert rep.det_relation_residual < 1e-10


def test_x_picture_random_protocols():
    rng = np.random.default_rng(41)
    for n in (2, 5, 8):
        u = build_unitary(random_spec(rng, n))
        rep = x_picture_cross_check(u)
        assert rep.decomposition_residual < 1e-8
        assert rep.det_relation_residual < 1e-8


def test_x_picture_rejects_non_protocol_input():
    # a + b has no parity structure at all
    bad = Su2LaurentUnitary(
        LaurentPoly2({(1, 0): 0.7, (0, 1): 0.7}), LaurentPoly2.zero()
    )
    with pytest.raises(VerificationError, match="decomposition residual exceeded"):
        x_picture_cross_check(bad)
