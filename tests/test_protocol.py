"""Protocol unitaries: pinned constructions, structure checks, dual routes."""

import cmath
import json
import math

import numpy as np
import pytest

from mqsp import laurent, serialize
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import (
    ProtocolSpec,
    Su2LaurentUnitary,
    assemble_completion,
    build_stack,
    build_unitary,
    eval_unitary,
    principal_phase,
    random_spec,
    verify_structure,
)
from support import X_A, Y_A, Y_B, compose, flat_draws, x_picture_cross_check


# -- spec validation -----------------------------------------------------------


def test_spec_validates_lengths_and_bits():
    with pytest.raises(ValueError, match="phases"):
        ProtocolSpec((1, 0), (0.0, 0.0))
    with pytest.raises(ValueError, match="bits"):
        ProtocolSpec((2,), (0.0, 0.0))


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_spec_refuses_non_finite_phases(phase):
    with pytest.raises(ValueError, match="^phases must be finite$"):
        ProtocolSpec((1,), (0.0, phase))


def test_phase_normalization_to_principal_range():
    spec = ProtocolSpec((), (3 * math.pi,))
    assert spec.phases[0] == pytest.approx(math.pi)
    assert principal_phase(-math.pi) == pytest.approx(math.pi)
    assert principal_phase(0.3) == pytest.approx(0.3)


def test_principal_phase_equals_the_remainder_route_by_hex():
    # a phase already in (-pi, pi] is returned as it is, the same float by
    # hex as the remainder route gives (remainder(phi, 2 pi), -pi turned to
    # pi); NaN passes through and +-inf raise
    def remainder_route(phi):
        out = math.remainder(phi, 2.0 * math.pi)
        return math.pi if out <= -math.pi else out

    pi = math.pi
    edges = [0.0, -0.0, 5e-324, -5e-324, math.nextafter(pi, 0.0), math.nextafter(-pi, 0.0),
             pi, -pi, math.nextafter(pi, 4.0), math.nextafter(-pi, -4.0), 3 * pi, -3 * pi,
             2 * pi, -2 * pi, 1e300, -1e300]
    draws = np.random.default_rng(41).uniform(-4.0, 4.0, size=100_000).tolist()
    for phi in edges + draws:
        assert principal_phase(phi).hex() == remainder_route(phi).hex()
    assert math.isnan(principal_phase(math.nan))
    for phi in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            principal_phase(phi)


# -- pinned constructions --------------------------------------------------------


def test_empty_protocol_is_phase_only():
    u = build_unitary(ProtocolSpec((), (0.7,)))
    assert u.P.distance(LaurentPoly2({(0, 0): cmath.exp(0.7j)})) < 1e-15
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
    assert build_unitary(merged).distance(compose(build_unitary(s1), build_unitary(s2))) < 1e-12


def test_length_sweep_build_matches_circuit_and_round_trips():
    # every even n in 8..64 plus n = 96, 256 and 512, and single-oracle
    # protocols (one axis of the coefficient box has length 1)
    rng = np.random.default_rng(64)
    specs = [random_spec(rng, n) for n in (*range(8, 65, 2), 96, 256, 512)]
    specs += [random_spec(rng, n, weight=w) for n in (8, 33) for w in (0, n)]
    for spec in specs:
        u = build_unitary(spec)
        for _ in range(6):
            ta, tb = rng.uniform(-math.pi, math.pi, size=2)
            err = np.max(np.abs(eval_unitary(spec, ta, tb) - u.matrix_at(ta, tb)))
            assert err < 1e-9, (spec.n, spec.weight, err)
        assert verify_structure(u, spec.n, spec.weight).overall, spec.n
        for poly in (u.P, u.Q):
            wired = json.loads(json.dumps(serialize.poly_to_records(poly)))
            assert serialize.poly_from_records(wired) == poly


# -- determinant residual ----------------------------------------------------------


def _direct_det_residual(u):
    # the reference: both products taken directly, as LaurentPoly2 does
    det = u.P * u.P.conj_reciprocal() + u.Q * u.Q.conj_reciprocal()
    return det.distance(LaurentPoly2.one())


def _det_residual_cases():
    rng = np.random.default_rng(25)
    cases = [build_unitary(random_spec(rng, n, w)) for n in range(65) for w in (None, n, 0)]
    built = build_unitary(random_spec(rng, 12))
    (j, k), _ = built.P.items()[0]
    return cases + [
        Su2LaurentUnitary(X_A, Y_B),  # mixed parities: no axis is thinned
        Su2LaurentUnitary(LaurentPoly2.zero(), LaurentPoly2.zero()),
        Su2LaurentUnitary(LaurentPoly2({(3, 0): 1.0}), LaurentPoly2.zero()),  # off the origin
        Su2LaurentUnitary(built.P + LaurentPoly2({(j, k): 1e-9}), built.Q),
    ]


def test_det_residual_matches_direct_products():
    # random-bit and single-oracle protocols, n 0..64, and the edge cases
    cases = _det_residual_cases()
    got = [u.det_residual() for u in cases]
    for u, residual in zip(cases, got):
        assert abs(residual - _direct_det_residual(u)) <= 1e-14, residual
    *protocols, mixed, zero, shifted, perturbed = got
    assert max(protocols) <= 1e-14
    assert abs(mixed - 0.25) <= 1e-15  # 1 + (a^2 + a^-2 - b^2 - b^-2)/4
    assert zero == 1.0
    assert shifted == 0.0
    assert 1e-10 < perturbed < 1e-8


def test_det_residual_refuses_a_box_over_max_cells(monkeypatch):
    # n = 10, m = 5: an 11 x 11 box, whose product box is 21 x 21
    u = build_unitary(ProtocolSpec((1, 0) * 5, (0.1,) * 11))
    monkeypatch.setattr(laurent, "MAX_CELLS", 21 * 21)
    assert u.det_residual() < 1e-14
    monkeypatch.setattr(laurent, "MAX_CELLS", 21 * 21 - 1)
    with pytest.raises(ValueError, match="exponent box of 21 x 21 coefficients exceeds MAX_CELLS"):
        u.det_residual()


def test_det_residual_refuses_an_overflow():
    big = LaurentPoly2({(1, 0): 1e200, (-1, 0): 1e200})
    with pytest.raises(ValueError, match="non-finite coefficient"):
        Su2LaurentUnitary(big, LaurentPoly2.zero()).det_residual()


# -- structural checks -----------------------------------------------------------


@pytest.mark.parametrize("weight", [None, "all a", "all b", "none"])
def test_build_stack_matches_single_builds(weight):
    # trials in draw order, flat as the scan draws them: mixed lengths 0..8
    # and bits, with raw phases outside (-pi, pi] (3pi and -pi, which
    # principal_phase takes to pi) and phases that leave signed zeros, or
    # five all-a, all-b or zero-length protocols. Stacked longest first,
    # trial t = order[i] has its a^j b^k at [i, (j + m_t)/2, (k + r_t)/2]
    rng = np.random.default_rng(17)
    if weight is None:
        lengths = [int(n) for n in rng.integers(0, 9, size=12)] + [0, 8]
        rows = [(spec.s, spec.phases) for spec in (random_spec(rng, n) for n in lengths)]
        rows[3:3] = [
            ((1, 0, 1), (-math.pi, 3 * math.pi, -0.0, math.pi / 2)),
            ((0, 0), (-0.0, math.pi / 2, -math.pi / 2)),
            ((), (-math.pi,)),
        ]
    else:
        n = 0 if weight == "none" else 6
        rows = [
            (spec.s, spec.phases)
            for spec in (random_spec(rng, n, n if weight == "all a" else 0) for _ in range(5))
        ]
    (p, q), order = build_stack(*flat_draws(rows))
    assert order == sorted(range(len(rows)), key=lambda t: -len(rows[t][0]))
    specs = [ProtocolSpec(*rows[t]) for t in order]
    top_a, top_b = max(sp.weight for sp in specs), max(sp.n - sp.weight for sp in specs)
    assert p.shape == q.shape == (len(specs), top_a + 1, top_b + 1)
    signed_zeros = 0
    for t, spec, p_lattice, q_lattice in zip(order, specs, p, q):
        m, r = spec.weight, spec.n - spec.weight
        u = build_unitary(spec)
        # the stack of one is the lattice build_unitary scatters onto its box,
        # from the spec's tuples as from the trial's raw draws
        single = build_stack((spec.n,), spec.s, spec.phases)[0][:, 0]
        assert build_stack(*flat_draws([rows[t]]))[0][:, 0].tobytes() == single.tobytes()
        for lattice, alone, poly in ((p_lattice, single[0], u.P), (q_lattice, single[1], u.Q)):
            assert lattice[: m + 1, : r + 1].tobytes() == alone.tobytes()
            assert not lattice[m + 1 :].any() and not lattice[:, r + 1 :].any()
            box = np.zeros((2 * m + 1, 2 * r + 1), dtype=complex)
            box[::2, ::2] = alone
            assert LaurentPoly2.from_array(box, -m, -r) == poly
            parts = alone.view(float)
            signed_zeros += np.count_nonzero((parts == 0.0) & np.signbit(parts))
    assert weight or signed_zeros


def test_rect_phase_factors_equal_cos_sin_bit_for_bit():
    # build_stack and readoff take e^{ix} as cmath.rect(1.0, x) and the
    # step factor as half of it: the same parts as complex(cos x, sin x)
    # and half of that, compared by hex (NaN reads "nan" either way)
    edges = [0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
             math.nextafter(-math.pi, 0.0), 5e-324, -5e-324, 1e300, -1e300, math.nan]
    draws = np.random.default_rng(35).uniform(-math.pi, math.pi, size=10_000).tolist()

    def parts(z):
        return z.real.hex(), z.imag.hex()

    for x in edges + draws:
        old = complex(math.cos(x), math.sin(x))
        assert parts(cmath.rect(1.0, x)) == parts(old)
        assert parts(0.5 * cmath.rect(1.0, x)) == parts(0.5 * old)
    for x in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            cmath.rect(1.0, x)
        with pytest.raises(ValueError):
            complex(math.cos(x), math.sin(x))


@pytest.mark.parametrize("seed", [0, 1, 424242])
def test_random_spec_of_length_zero_leaves_the_stream(seed):
    # numpy's bit draw of size 0 consumes nothing, so random_spec(rng, 0)
    # takes only its one phase and every later draw is what it was
    rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(0, 2, size=0)
    assert rng.bit_generator.state == fresh.bit_generator.state
    spec = random_spec(rng, 0)
    phases = fresh.uniform(-math.pi, math.pi, size=1).tolist()
    assert spec.s == () and spec.phases == tuple(map(principal_phase, phases))
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_build_mirrors_under_swapped_oracles():
    # swapping bits 0 <-> 1 swaps the variables: P and Q come out as the
    # transposed boxes, byte for byte, signed zeros included
    rng = np.random.default_rng(5)
    specs = [random_spec(rng, n) for n in (*range(65), 96, 128)]
    specs += [ProtocolSpec((1, 0) * 3, (0.0,) * 7), ProtocolSpec((1, 1, 0), (math.pi / 2,) * 4)]
    for spec in specs:
        u = build_unitary(spec)
        v = build_unitary(ProtocolSpec(tuple(1 - b for b in spec.s), spec.phases))
        for poly, mirror in ((u.P, v.P), (u.Q, v.Q)):
            swapped = poly.transposed()
            assert mirror._lo == swapped._lo
            assert mirror._box.tobytes() == swapped._box.tobytes()


def test_assemble_completion_shifts_factor_and_drops_odd_cells():
    # n = 3, m = 1: factor cell (j, k) moves to (j - 1, k - 2), and only
    # cells with both exponents even are kept (the odd ones are solver dust)
    factor = LaurentPoly2({(0, 0): 0.5, (2, 4): 0.25j, (1, 0): 1e-9, (2, 3): -1e-9})
    t = LaurentPoly2({(-1, -2): 0.5, (1, 2): 0.25j})
    p_tilde, q_tilde = LaurentPoly2({(0, 0): 0.1}), LaurentPoly2({(1, 0): 0.2})
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
    u = Su2LaurentUnitary(LaurentPoly2({(1, 0): 1.0}), LaurentPoly2.zero())
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
    assert u.P.degrees() == (spec.weight, spec.n - spec.weight)


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
    with pytest.raises(AssertionError, match="decomposition residual exceeded"):
        x_picture_cross_check(bad)
