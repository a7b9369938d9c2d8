"""Tests for the two-variable factorization pipeline and completion."""

import math
import tracemalloc

import numpy as np
import pytest

from mqsp import factor2d
from mqsp.errors import FactorizationError
from mqsp.factor2d import (
    CompletionResult2D,
    build_gamma,
    complete_unitary_2d,
    extract_stable_factor,
    fourier_of_reciprocal,
    generate_stable,
    rank_condition,
    stable_from_contraction,
)
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import ProtocolSpec, build_unitary, verify_structure

W = LaurentPoly2.monomial(1, 1)  # the product variable ab
GEOMETRIC = LaurentPoly2({(0, 0): 1.0, (1, 1): 0.5})  # 1 + ab/2


def _abs_square(p):
    return p * p.conj_reciprocal()


def _pipeline(f):
    deg = f.degrees()
    n = 0 if deg.is_zero else deg.deg_a
    m = 0 if deg.is_zero else deg.deg_b
    table = fourier_of_reciprocal(f, (n, m))
    gamma = build_gamma(table, n, m)
    return gamma, rank_condition(gamma, n, m), n, m


# ---------------------------------------------------------------- fourier


def test_fourier_constant_reciprocal():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    assert abs(table.coeff(0, 0) - 1.0) < 1e-14
    others = [
        abs(table.coeff(j, k))
        for j in (-1, 0, 1)
        for k in (-1, 0, 1)
        if (j, k) != (0, 0)
    ]
    assert max(others) < 1e-12
    assert table.convergence_residual < 1e-10


def test_fourier_geometric_series_on_diagonal():
    # 1/|1 + z/2|^2 has Fourier coefficients (4/3)(-1/2)^|k| (geometric
    # series from partial fractions); in two variables the table is the
    # same sequence supported on the diagonal j = k.
    f = _abs_square(GEOMETRIC)
    table = fourier_of_reciprocal(f, (2, 2))
    for j in range(-2, 3):
        for k in range(-2, 3):
            expected = (4.0 / 3.0) * (-0.5) ** abs(j) if j == k else 0.0
            assert abs(table.coeff(j, k) - expected) < 1e-10


def test_fourier_table_hermitian_symmetry():
    f = _abs_square(generate_stable(2, 1, seed=3))
    table = fourier_of_reciprocal(f, (2, 2))
    for j in range(-2, 3):
        for k in range(-2, 3):
            delta = table.coeff(-j, -k) - table.coeff(j, k).conjugate()
            assert abs(delta) < 1e-12


def test_fourier_rejects_torus_zero():
    # 1 - cos(theta_a + theta_b) touches zero
    f = LaurentPoly2({(0, 0): 1.0, (1, 1): -0.5, (-1, -1): -0.5})
    with pytest.raises(FactorizationError, match="not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


def test_fourier_rejects_dip_between_coarse_samples():
    # 0.9995 - cos(31 theta_a + 2 pi/128) stays above 1e-3 on a 64-point
    # axis but reaches -5e-4 on the 128-point one the Fourier step samples
    w = 0.5 * np.exp(1j * np.pi / 64)
    f = LaurentPoly2({(0, 0): 0.9995, (31, 0): -w, (-31, 0): -np.conj(w)})
    assert f.eval_unit_grid(64).real.min() > 0.0
    with pytest.raises(FactorizationError, match="f not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


def test_fourier_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        fourier_of_reciprocal(LaurentPoly2.monomial(1, 0), (1, 1))


def test_fourier_no_convergence_near_singular():
    # roots at distance 1e-3 from the torus: aliasing decays like
    # (1 - 1e-3)^N, still order 0.1 at the largest admissible grid; every
    # grid up to FOURIER_MAX is sampled, one block of rows at a time, so the
    # peak stays far below one 4096^2 complex grid (256 MB)
    near = LaurentPoly2({(0, 0): 1.0, (1, 1): 1.0 - 1e-3})
    f = _abs_square(near)
    tracemalloc.start()
    try:
        with pytest.raises(FactorizationError, match="no convergence"):
            fourier_of_reciprocal(f, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_fourier_no_convergence_before_any_grid(monkeypatch):
    # convergence compares two successive grids, so when the second would
    # exceed FOURIER_MAX the answer is known before sampling anything (at
    # degree >= 2048 the positivity grid alone would be 8192^2)
    monkeypatch.setattr(factor2d, "FOURIER_MAX", factor2d.FOURIER_START)
    calls = []
    original = LaurentPoly2.unit_grid_blocks

    def spy(self, n, block_rows):
        calls.append(n)
        return original(self, n, block_rows)

    monkeypatch.setattr(LaurentPoly2, "unit_grid_blocks", spy)
    with pytest.raises(FactorizationError, match="no convergence"):
        fourier_of_reciprocal(_abs_square(generate_stable(2, 1, seed=3)), (2, 2))
    assert calls == []


def _reciprocal_fft2(f, grid):
    """Reference: fft2 of 1/f on the whole N x N grid, f summed term by
    term at the N-th roots of unity (exponents reduced mod N)."""
    roots = np.exp(2j * np.pi * np.arange(grid) / grid)
    r = np.arange(grid)
    values = np.zeros((grid, grid))
    for (j, k), c in f.items():
        values += (c * np.outer(roots[j * r % grid], roots[k * r % grid])).real
    return np.fft.fft2(1.0 / values) / grid**2


def _reference_table(f, window, full):
    """The doubling rule of fourier_of_reciprocal on full-grid fft2 tables
    (cached per grid in `full`): (table, grid_size)."""
    wa, wb = window
    deg = f.degrees()
    grid = factor2d._pow2_grid(factor2d.FOURIER_START, max(deg.deg_a, deg.deg_b))
    previous = None
    while True:
        if grid not in full:
            full[grid] = _reciprocal_fft2(f, grid)
        table = full[grid][np.ix_(np.arange(-wa, wa + 1) % grid, np.arange(-wb, wb + 1) % grid)]
        if previous is not None and np.abs(table - previous).max() < factor2d.FOURIER_TOL:
            return table, grid
        previous = table
        grid *= 2


FFT2_CASES = {
    # (f, FOURIER_START): converged grid 128 (grids of one partial block),
    # 256 (one block), 512 (two blocks), and degree 120 in a and in b (1024,
    # four blocks)
    "low degree, start 64": (_abs_square(generate_stable(2, 1, seed=3)), 64),
    "low degree": (_abs_square(generate_stable(2, 1, seed=3)), 128),
    "slow decay": (_abs_square(LaurentPoly2({(0, 0): 1.0, (1, 1): 0.9})), 128),
    "degree 120 in a": (_abs_square(LaurentPoly2({(0, 0): 1.0, (120, 0): 0.5, (1, 1): 0.2})), 128),
    "degree 120 in b": (_abs_square(LaurentPoly2({(0, 0): 1.0, (0, 120): 0.5, (1, 1): 0.2})), 128),
}


@pytest.mark.parametrize("case", sorted(FFT2_CASES))
def test_fourier_matches_full_grid_fft2(case, monkeypatch):
    f, start = FFT2_CASES[case]
    monkeypatch.setattr(factor2d, "FOURIER_START", start)
    full = {}
    for window in [(0, 0)] + [(w, 8 - w) for w in range(9)] + [(8, 8)]:
        want, grid = _reference_table(f, window, full)
        table = fourier_of_reciprocal(f, window)
        assert table.grid_size == grid, window
        assert np.abs(table.coeffs - want).max() <= 1e-14 * np.abs(want).max(), window


def test_fourier_rejects_dip_in_a_later_row_block():
    # 0.999 - cos(theta_a - 3 pi/2) + 1e-4 cos(130 theta_b): degree 130 makes
    # the first grid 512, two blocks of rows; the first block (theta_a in
    # [0, pi)) stays above 0.998, the dip below zero lies in the second
    f = LaurentPoly2(
        {(0, 0): 0.999, (1, 0): -0.5j, (-1, 0): 0.5j, (0, 130): 5e-5, (0, -130): 5e-5}
    )
    grid = factor2d._pow2_grid(factor2d.FOURIER_START, 130)
    assert grid == 2 * factor2d.FOURIER_BLOCK_ROWS
    values = f.eval_unit_grid(grid).real
    assert values[: factor2d.FOURIER_BLOCK_ROWS].min() > 0.998 and values.min() < 0.0
    with pytest.raises(FactorizationError, match="f not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


# ---------------------------------------------------------------- gamma


def test_gamma_identity_for_constant():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    gamma = build_gamma(table, 1, 1)
    assert np.abs(gamma.matrix - np.eye(4)).max() < 1e-12


def test_gamma_hand_indexed_layout():
    f = _abs_square(GEOMETRIC)
    table = fourier_of_reciprocal(f, (1, 1))
    gamma = build_gamma(table, 1, 1).matrix
    # ordinals: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)
    assert gamma[0, 0] == table.coeff(0, 0)
    assert gamma[0, 1] == table.coeff(0, -1)
    assert gamma[2, 0] == table.coeff(1, 0)
    assert gamma[3, 0] == table.coeff(1, 1)
    assert gamma[1, 2] == table.coeff(-1, 1)
    assert gamma[3, 2] == table.coeff(0, 1)


def test_gamma_difference_structure():
    f = _abs_square(generate_stable(1, 1, seed=5))
    table = fourier_of_reciprocal(f, (2, 2))
    gamma = build_gamma(table, 2, 2).matrix
    lattice = [(j, k) for j in range(3) for k in range(3)]
    for row, u in enumerate(lattice):
        for col, v in enumerate(lattice):
            want = table.coeff(u[0] - v[0], u[1] - v[1])
            assert gamma[row, col] == want
    assert np.abs(gamma - gamma.conj().T).max() < 1e-12


def test_gamma_window_insufficient():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    with pytest.raises(FactorizationError, match="window insufficient"):
        build_gamma(table, 2, 1)


# ---------------------------------------------------------------- rank


def test_rank_constant_f():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    report = rank_condition(build_gamma(table, 1, 1), 1, 1)
    assert report.satisfied
    assert report.submatrix_rank == 1 == report.target_rank
    assert report.inverse_block_rel == 0.0


def test_rank_forward_determinantal():
    for seed, (da, db) in [(7, (1, 1)), (8, (2, 1)), (9, (2, 2))]:
        f = _abs_square(generate_stable(da, db, seed=seed))
        _, report, n, m = _pipeline(f)
        assert report.satisfied, (seed, report)
        assert report.submatrix_rank == n * m
        assert report.inverse_block_rel < 1e-8


def test_rank_rejects_generic_positive_f():
    # a strictly positive trig polynomial in general position admits no
    # stable factor at its own bidegree, so both routes must say no
    f = LaurentPoly2(
        {
            (0, 0): 3.0,
            (1, 0): 0.5,
            (-1, 0): 0.5,
            (0, 1): 0.5,
            (0, -1): 0.5,
            (1, 1): 0.25,
            (-1, -1): 0.25,
            (1, -1): 0.15,
            (-1, 1): 0.15,
        }
    )
    _, report, _, _ = _pipeline(f)
    assert not report.satisfied
    assert report.submatrix_rank == 2 > report.target_rank == 1
    assert report.inverse_block_rel > 1e-4


def test_rank_diagonal_f_is_satisfied_exactly():
    # f = |q(ab)|^2 with stable univariate q *is* factorable by the stable
    # bivariate polynomial q(ab), so the condition holds; the inverse-route
    # block vanishes identically because the coefficient table of 1/f is
    # supported on the diagonal, making Gamma block-diagonal in j - k.
    q = LaurentPoly2.one() + 0.5 * W + 0.2 * W * W
    f = _abs_square(q)
    gamma, report, n, m = _pipeline(f)
    assert (n, m) == (2, 2)
    assert report.satisfied
    assert report.submatrix_rank == 4
    assert report.inverse_block_rel < 1e-12
    factorization = extract_stable_factor(gamma, f, n, m)
    assert factorization.p.distance(q) < 1e-9


def test_rank_univariate_f_trivial_target():
    # f depending on one variable only: the target rank n*m is zero and
    # the condition holds vacuously (1D strictly positive f always has a
    # stable factor)
    f = LaurentPoly2({(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
    _, report, n, m = _pipeline(f)
    assert (n, m) == (1, 0)
    assert report.satisfied
    assert report.target_rank == 0


# ---------------------------------------------------------------- extract


def test_extract_constant():
    f = LaurentPoly2.constant(4.0)
    table = fourier_of_reciprocal(f, (0, 0))
    gamma = build_gamma(table, 0, 0)
    fac = extract_stable_factor(gamma, f, 0, 0)
    assert fac.p.distance(LaurentPoly2.constant(2.0)) < 1e-12
    assert fac.stable_verified


def test_extract_geometric_pinned_phase():
    # normalization (constant coefficient real positive) pins the phase,
    # so the constructing polynomial is recovered exactly, not just up to
    # a unimodular factor
    f = _abs_square(GEOMETRIC)
    gamma, report, n, m = _pipeline(f)
    assert report.satisfied
    fac = extract_stable_factor(gamma, f, n, m)
    assert fac.p.distance(GEOMETRIC) < 1e-9
    assert fac.residual < 1e-12
    assert fac.min_on_net > 0.4


def test_extract_matches_generator():
    for seed, (da, db) in [(11, (1, 1)), (12, (2, 1)), (13, (2, 2))]:
        p = generate_stable(da, db, seed=seed)
        f = _abs_square(p)
        gamma, report, n, m = _pipeline(f)
        assert report.satisfied
        fac = extract_stable_factor(gamma, f, n, m)
        assert fac.p.distance(p) < 1e-6
        assert fac.residual < 1e-6 * f.max_abs()
        assert fac.stable_verified


def test_extract_without_polish_on_near_unit_contractions():
    # ||K|| = 0.95 puts the factor's zeros close to the closed bidisk; the
    # single linear solve must still factor f to well inside the 1e-6 gate
    worst = 0.0
    for da in range(9):
        for db in range(9 - da):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                size = da + db
                K = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
                if size:
                    K *= 0.95 / np.linalg.norm(K, 2)
                f = _abs_square(stable_from_contraction(K, ("a",) * da + ("b",) * db))
                gamma, report, n, m = _pipeline(f)
                assert report.satisfied
                worst = max(worst, extract_stable_factor(gamma, f, n, m).residual)
    assert worst < 1e-11


def test_extract_deterministic_across_rebuild():
    p = generate_stable(2, 2, seed=21)
    f = _abs_square(p)
    gamma, _, n, m = _pipeline(f)
    first = extract_stable_factor(gamma, f, n, m)
    rebuilt = _abs_square(first.p)
    gamma2, _, n2, m2 = _pipeline(rebuilt)
    second = extract_stable_factor(gamma2, rebuilt, n2, m2)
    assert first.p.distance(second.p) < 1e-8


def test_extract_verification_gate():
    # feeding a gamma whose rank condition fails must trip the
    # a-posteriori residual check rather than return garbage
    f = LaurentPoly2(
        {
            (0, 0): 3.0,
            (1, 0): 0.5,
            (-1, 0): 0.5,
            (0, 1): 0.5,
            (0, -1): 0.5,
            (1, 1): 0.25,
            (-1, -1): 0.25,
            (1, -1): 0.15,
            (-1, 1): 0.15,
        }
    )
    table = fourier_of_reciprocal(f, (1, 1))
    gamma = build_gamma(table, 1, 1)
    with pytest.raises(FactorizationError, match="verification failed"):
        extract_stable_factor(gamma, f, 1, 1)


# ---------------------------------------------------------------- generator


def test_contraction_scalar_and_empty():
    p = stable_from_contraction(0.5, ("a",))
    assert p.distance(LaurentPoly2({(0, 0): 1.0, (1, 0): -0.5})) < 1e-15
    zero_k = np.zeros((2, 2))
    assert stable_from_contraction(zero_k, ("a", "b")) == LaurentPoly2.one()


def test_contraction_two_by_two_formula():
    K = np.array([[0.3, 0.2], [-0.1, 0.4]])
    p = stable_from_contraction(K, ("a", "b"))
    expected = LaurentPoly2(
        {
            (0, 0): 1.0,
            (1, 0): -0.3,
            (0, 1): -0.4,
            (1, 1): float(np.linalg.det(K)),
        }
    )
    assert p.distance(expected) < 1e-12


def test_contraction_rejects_expansive_K():
    with pytest.raises(ValueError, match="contraction"):
        stable_from_contraction(1.0, ("a",))


def test_generate_stable_properties():
    p = generate_stable(2, 2, seed=17)
    assert abs(p.coeff(0, 0) - 1.0) < 1e-12
    deg = p.degrees()
    assert deg.deg_a <= 2 and deg.deg_b <= 2
    assert min(e for e, _ in p.items()) >= (0, 0)
    assert p == generate_stable(2, 2, seed=17)
    assert generate_stable(0, 0, seed=1) == LaurentPoly2.one()


def test_generate_stable_degree_cap():
    with pytest.raises(ValueError, match="degree sum"):
        generate_stable(5, 4, seed=0)


# ---------------------------------------------------------------- completion


def _real_targets(s, phases):
    u = build_unitary(ProtocolSpec(s=s, phases=phases))
    return u.P.hermitian_part(), u.Q.hermitian_part()


def test_complete_protocol_targets_pinned():
    # real parts of an actual protocol with a healthy positivity margin;
    # the completion is a different unitary with the same real parts and
    # is itself protocol-realizable
    p_tilde, q_tilde = _real_targets((0, 1), (0.1, 2.8, -2.2))
    result = complete_unitary_2d(p_tilde, q_tilde, 2, 1)
    assert isinstance(result, CompletionResult2D)
    report = verify_structure(result.unitary, 2, 1)
    assert report.overall
    assert report.determinant_residual < 1e-9
    assert result.spec is not None
    assert result.spec.n == 2 and result.spec.weight == 1
    rebuilt = build_unitary(result.spec)
    assert rebuilt.distance(result.unitary) < 1e-8
    assert result.unitary.P.hermitian_part().distance(p_tilde) < 1e-9
    assert result.unitary.Q.hermitian_part().distance(q_tilde) < 1e-9


def test_complete_constant_targets():
    result = complete_unitary_2d(
        LaurentPoly2.constant(0.9), LaurentPoly2.zero(), 0, 0
    )
    p = result.unitary.P
    assert abs(p.coeff(0, 0) - (0.9 + 1j * math.sqrt(0.19))) < 1e-12
    assert result.unitary.Q.is_zero()
    assert result.spec is not None
    assert result.spec.s == ()
    assert abs(result.spec.phases[0] - math.atan2(math.sqrt(0.19), 0.9)) < 1e-9


def test_complete_univariate_target_with_shift_parity():
    # degenerate f (constant in b): the shift by the protocol parameters,
    # not by f's own degrees, is what makes R and S land on the right
    # negation parity
    x_a = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    result = complete_unitary_2d(0.9 * x_a, LaurentPoly2.zero(), 1, 1)
    report = verify_structure(result.unitary, 1, 1)
    assert report.overall
    assert report.determinant_residual < 1e-9
    assert result.spec is not None
    assert result.spec.s == (1,)


def test_complete_rejects_trivial_family_targets():
    # zero-phase alternating protocols embed functions of ab alone; their
    # completion target 1 - P^2 - Q^2 vanishes on the torus and is
    # rejected at the positivity gate
    p_tilde, q_tilde = _real_targets((0, 1), (0.0, 0.0, 0.0))
    with pytest.raises(FactorizationError, match="not strictly positive"):
        complete_unitary_2d(p_tilde, q_tilde, 2, 1)


def test_complete_rank_failure_is_clean():
    # strictly positive targets whose f admits no stable factor at its
    # bidegree: the rank condition fails and the error says so
    p_tilde, q_tilde = _real_targets((0, 1), (2.45, -1.71, 0.77))
    with pytest.raises(FactorizationError, match="rank condition not satisfied"):
        complete_unitary_2d(p_tilde, q_tilde, 2, 1)


def test_complete_validation_errors():
    x_a = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    iy_a = LaurentPoly2({(1, 0): 0.5j, (-1, 0): -0.5j})
    with pytest.raises(ValueError, match="real on the unit torus"):
        complete_unitary_2d(LaurentPoly2.monomial(1, 0), LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="parity mismatch"):
        complete_unitary_2d(LaurentPoly2.constant(0.5), LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="parity mismatch"):
        complete_unitary_2d(iy_a, LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="degree exceeds bound"):
        complete_unitary_2d(
            LaurentPoly2({(3, 1): 0.25, (-3, -1): 0.25}), LaurentPoly2.zero(), 2, 1
        )
    with pytest.raises(ValueError, match="weight"):
        complete_unitary_2d(x_a, LaurentPoly2.zero(), 1, 2)
