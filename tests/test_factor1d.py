"""1D spectral factorization and completion: pinned factors, round trips."""

import math

import numpy as np
import pytest

from mqsp import factor2d
from mqsp.errors import FactorizationError
from mqsp.laurent import LaurentPoly1, LaurentPoly2
from mqsp.factor1d import complete_unitary_1d
from mqsp.factor2d import (
    build_gamma,
    complete_unitary_2d,
    fejer_riesz,
    fourier_of_reciprocal,
    gamma_factor,
    rank_condition,
    spectral_factor,
)
from mqsp.protocol import ProtocolSpec, assemble_completion, build_unitary, verify_structure
from mqsp.readoff import readoff
from support import coeff_at, min_on_bidisk_net, spy_on_samples


def chebyshev_t_laurent(n):
    # T_n(cos t) = cos(n t) = (z^n + z^-n)/2
    if n == 0:
        return LaurentPoly1.one()
    return LaurentPoly1({n: 0.5, -n: 0.5})


# -- factorization ----------------------------------------------------------------


def test_factor_constant_one():
    fac = fejer_riesz(LaurentPoly1.one())
    assert fac.p.distance(LaurentPoly1.one()) < 1e-15
    assert fac.root_class == "stable"
    assert fac.residual < 1e-14


def test_factor_pinned_stable_example():
    # f = 5 + 2(z + 1/z) = |2 + z|^2, root -2 outside
    f = LaurentPoly1({0: 5.0, 1: 2.0, -1: 2.0})
    fac = fejer_riesz(f)
    assert fac.root_class == "stable"
    assert fac.p.distance(LaurentPoly1({0: 2.0, 1: 1.0})) < 1e-10
    assert fac.residual < 1e-12


def test_factor_pinned_boundary_example():
    # f = 2 + z + 1/z = |1 + z|^2, double root at -1 on the circle
    f = LaurentPoly1({0: 2.0, 1: 1.0, -1: 1.0})
    fac = fejer_riesz(f)
    assert fac.root_class == "outer"
    assert fac.p.distance(LaurentPoly1({0: 1.0, 1: 1.0})) < 1e-7
    assert fac.residual < 1e-10


def test_factor_chebyshev_sine_squared():
    # f = 1 - T_n^2 = sin^2(n t): all roots double on the circle;
    # g = (z^{2n} - 1)/2 exactly
    for n in (1, 2, 4):
        t = chebyshev_t_laurent(n)
        f = LaurentPoly1.one() - t * t
        fac = fejer_riesz(f)
        assert fac.root_class == "outer"
        expect = LaurentPoly1({0: -0.5, 2 * n: 0.5})
        assert fac.p.distance(expect) < 1e-9
        assert fac.residual < 1e-10


def test_factor_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        fejer_riesz(LaurentPoly1({1: 1.0}))


def test_factor_rejects_negative():
    with pytest.raises(FactorizationError, match="not nonnegative on circle"):
        fejer_riesz(LaurentPoly1({0: -1.0}))
    with pytest.raises(FactorizationError, match="not nonnegative on circle"):
        fejer_riesz(LaurentPoly1({1: 0.5, -1: 0.5}))  # cos(t) changes sign


def test_factor_zero_polynomial():
    fac = fejer_riesz(LaurentPoly1.zero())
    assert fac.p.is_zero() and fac.residual == 0.0
    # every sample of f = 0 is at most the sign check's floor
    assert fac.root_class == "outer"


@pytest.mark.parametrize("c, root_class", [(1.0, "stable"), (2.0, "stable"), (0.3, "stable"), (1e-300, "outer")])
def test_factor_constant_takes_the_newton_loop(c, root_class, monkeypatch):
    # a positive constant has no branch of its own: Wilson's step on a
    # one-coefficient g gives sqrt(c) to within one ulp
    steps = []
    step = factor2d._newton_step
    monkeypatch.setattr(factor2d, "_newton_step", lambda g, f_top: steps.append(g) or step(g, f_top))
    fac = fejer_riesz(LaurentPoly1({0: c}))
    assert steps
    assert len(fac.p) == 1 and abs(coeff_at(fac.p, 0, 0) - math.sqrt(c)) <= math.ulp(math.sqrt(c))
    assert fac.residual <= math.ulp(c)
    assert fac.root_class == root_class


def _random_positive(rng, deg):
    h = LaurentPoly1(
        {k: complex(rng.normal(), rng.normal()) for k in range(deg + 1)}
    )
    return h * h.conj_reciprocal() + LaurentPoly1({0: 0.01})


def test_factor_random_strictly_positive():
    rng = np.random.default_rng(8)
    for deg in (1, 3, 7, 12, 16):
        f = _random_positive(rng, deg)
        fac = fejer_riesz(f)
        fmax = max(abs(fac_v) for fac_v in (f.max_abs(),))
        assert fac.residual < 1e-8 * fmax
        assert fac.root_class == "stable"
        roots = np.roots([coeff_at(fac.p, k, 0) for k in range(deg, -1, -1)])
        assert np.all(np.abs(roots) > 1.0)


def test_factor_deterministic_normalization():
    # unique up to phase; our normalization (monic x positive scale) pins
    # the phase, so refactoring a rebuilt f reproduces g itself
    rng = np.random.default_rng(15)
    f = _random_positive(rng, 6)
    g1 = fejer_riesz(f).p
    f2 = g1 * g1.conj_reciprocal()
    g2 = fejer_riesz(f2).p
    assert g1.distance(g2) < 1e-8 * g1.max_abs()


def _coeffs(p, deg):
    return np.array([coeff_at(p, k, 0) for k in range(deg + 1)])


def test_gamma_factor_matches_newton():
    # the same factor up to a global phase, pinned by p_0 > 0 instead of
    # fejer_riesz's top coefficient, so refactoring p p* reproduces p; the
    # Gamma-route factorization carries its rank report and the convergence
    # residual of its Fourier table
    rng = np.random.default_rng(8)
    for deg in (1, 3, 7, 12, 16):
        f = _random_positive(rng, deg)
        fac = gamma_factor(f)
        assert spectral_factor(f) == fac and fac.root_class == "stable"
        table = fourier_of_reciprocal(f, (deg, 0))
        report = rank_condition(build_gamma(table, deg, 0), deg, 0)
        assert fac.convergence_residual == table.convergence_residual
        assert vars(fac.rank_report).keys() == vars(report).keys()
        for key, value in vars(report).items():
            assert np.array_equal(getattr(fac.rank_report, key), value), key
        assert fac.residual < 1e-12 * f.max_abs()
        g = _coeffs(fac.p, deg)
        ref = _coeffs(fejer_riesz(f).p, deg)
        assert np.abs(np.abs(g) - np.abs(ref)).max() < 1e-12 * np.abs(g).max()
        assert g[0].real > 0 and abs(g[0].imag) <= 1e-12 * g[0].real
        again = gamma_factor(fac.p * fac.p.conj_reciprocal()).p
        assert again.distance(fac.p) < 1e-12 * fac.p.max_abs()


def test_boundary_zeros_fall_back_to_newton():
    # zeros on the circle ("outer"): the Toeplitz solve refuses f, and
    # spectral_factor returns fejer_riesz's factor itself
    for f in (
        LaurentPoly1({0: 2.0, 1: 1.0, -1: 1.0}),  # |1 + z|^2
        *(LaurentPoly1.one() - t * t for t in map(chebyshev_t_laurent, (1, 2, 4))),
    ):
        with pytest.raises(FactorizationError):
            gamma_factor(f)
        fac = fejer_riesz(f)
        assert fac.root_class == "outer"
        assert fac.rank_report is None and fac.convergence_residual is None
        assert spectral_factor(f) == fac
    # and the completions of cos t = T_1 and T_n are the Newton ones
    for n in (1, 2, 5):
        t = chebyshev_t_laurent(n)
        res = complete_unitary_1d(t, LaurentPoly1.zero(), n)
        fac = fejer_riesz(LaurentPoly1.one() - t * t)
        assert res.factorization == fac and fac.root_class == "outer"
        unitary = assemble_completion(t, LaurentPoly2.zero(), fac.p, n, n)
        assert res.unitary.distance(unitary) == 0.0
        assert res.spec == readoff(unitary.P, unitary.Q).spec


# phases of a single-oracle protocol at n = 8 whose real parts leave
# f = 1 - Ptilde^2 - Qtilde^2 a relative margin of 9.4e-7 on the circle
NEAR_CIRCLE_PHASES = (
    -1.8604047989335761, -0.9214242360588618, 0.27214618940453184,
    -0.4545818519992624, -2.3717412849253936, 2.926884404046045,
    1.2019444600348876, 2.092521107551984, -0.8956005446123783,
)
# the same at a relative margin of 6.7e-7, where 1/f needs 2^18 samples
PAST_THE_CAP_PHASES = (
    0.28131394940324617, -0.4353119212675196, -1.0552122792793073,
    1.8613723582900779, -1.7651594050557189, 1.2888756919281166,
    -0.6348129066509767, 2.9781572695358873, -1.61638614438458,
)


def test_strictly_positive_past_the_grid_cap_falls_back():
    # 1/f of |1 - 0.9999 z|^2 cannot converge within FOURIER_AXIS_MAX
    # samples: Newton factors it instead
    h = LaurentPoly1({0: 1.0, 1: -0.9999})
    f = h * h.conj_reciprocal()
    with pytest.raises(FactorizationError, match="^no convergence$"):
        gamma_factor(f)
    fac = fejer_riesz(f)
    assert spectral_factor(f) == fac and fac.root_class == "stable"
    # 1/f of this protocol-derived f does not converge within
    # FOURIER_AXIS_MAX samples: the target still completes, through
    # Newton, and reads off
    spec = ProtocolSpec((1,) * 8, PAST_THE_CAP_PHASES)
    u = build_unitary(spec)
    pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()})
    qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()})
    # f as complete_unitary_1d builds it, on axis a
    f = LaurentPoly2.one() - pt * pt - qt * qt
    with pytest.raises(FactorizationError, match="^no convergence$"):
        gamma_factor(f)
    res = complete_unitary_1d(pt, qt, 8)
    assert res.factorization == fejer_riesz(f)
    assert verify_structure(res.unitary, 8, 8).overall
    assert readoff(res.unitary.P, res.unitary.Q).residual < 1e-9


def test_factor_stable_under_one_ulp_changes_of_f():
    # moving one coefficient of f (and its mirror) by one ulp either way
    # keeps the outcome and the root class, and moves g by at most 1e-10
    # (f strictly positive) or 1e-7 (double zeros on the circle) of max |g|
    u = build_unitary(ProtocolSpec((1,) * 8, NEAR_CIRCLE_PHASES))
    p_a, q_a = u.P.hermitian_part(), u.Q.hermitian_part()
    near = LaurentPoly2.one() - p_a * p_a - q_a * q_a
    cases = [(near, 1e-10)]
    for n in (4, 16, 32):
        t = chebyshev_t_laurent(n)
        cases.append((LaurentPoly1.one() - t * t, 1e-7))
    for f, bound in cases:
        base = fejer_riesz(f)
        for (k, _), c in f.items():
            if k < 0:
                continue
            for toward in (math.inf, -math.inf):
                moved = complex(
                    np.nextafter(c.real, toward), np.nextafter(c.imag, toward) if c.imag else 0.0
                )
                coeffs = {j: x for (j, _), x in f.items()}
                coeffs[k], coeffs[-k] = moved, moved.conjugate()
                fac = fejer_riesz(LaurentPoly1(coeffs))
                assert fac.root_class == base.root_class, (k, toward)
                assert fac.p.distance(base.p) <= bound * base.p.max_abs(), (k, toward)


# -- completion -------------------------------------------------------------------


def test_completion_identity():
    res = complete_unitary_1d(LaurentPoly1.one(), LaurentPoly1.zero(), 0)
    assert res.spec.s == ()
    assert res.spec.phases[0] == pytest.approx(0.0)


def test_completion_of_cosine():
    # Ptilde = cos t completes to the single-A protocol with zero phases
    x = LaurentPoly1({1: 0.5, -1: 0.5})
    res = complete_unitary_1d(x, LaurentPoly1.zero(), 1)
    assert res.spec.s == (1,)
    assert abs(res.spec.phases[0]) < 1e-9 and abs(res.spec.phases[1]) < 1e-9
    rep = verify_structure(res.unitary, 1, 1)
    assert rep.overall


def test_completion_chebyshev_family():
    for n in (*range(1, 9), 16, 32, 64, 128):
        t = chebyshev_t_laurent(n)
        res = complete_unitary_1d(t, LaurentPoly1.zero(), n)
        rep = verify_structure(res.unitary, n, n)
        assert rep.overall, (n, rep)
        assert res.spec.s == (1,) * n
        # rebuild residual against the assembled unitary
        rebuilt = build_unitary(res.spec)
        assert rebuilt.distance(res.unitary) < 1e-9
        # the A^n protocol: all phases vanish
        assert max(abs(p) for p in res.spec.phases) < 1e-8


def test_completion_from_random_protocol_real_parts():
    # real parts of actual all-A protocols are always completable
    rng = np.random.default_rng(23)
    for n in (2, 5, 8, 64, 128, 256):
        phases = tuple(rng.uniform(-math.pi, math.pi, size=n + 1))
        u = build_unitary(ProtocolSpec((1,) * n, phases))
        # all-A protocols carry no b: the real parts live on axis a alone
        pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()})
        qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()})
        res = complete_unitary_1d(pt, qt, n)
        assert verify_structure(res.unitary, n, n).overall
        rr = readoff(res.unitary.P, res.unitary.Q)
        assert rr.residual < 1e-9


def test_two_variable_route_with_one_axis_is_the_one_variable_route():
    # all-A targets embedded on axis a: complete_unitary_2d with m = n takes
    # the same f, the same Fourier table of 1/f and the same Gamma solve,
    # so its completion is complete_unitary_1d's bit for bit
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5, 8, 16, 32):
        phases = tuple(rng.uniform(-math.pi, math.pi, size=n + 1))
        u = build_unitary(ProtocolSpec((1,) * n, phases))
        pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()})
        qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()})
        one = complete_unitary_1d(pt, qt, n)
        two = complete_unitary_2d(pt, qt, n, n)
        assert two.unitary.distance(one.unitary) == 0.0, n
        assert two.spec == one.spec and one.spec is not None, n
        assert two.factorization.p == one.factorization.p, n
        assert two.factorization.residual == one.factorization.residual, n
        assert one.factorization.root_class == "stable", n


def test_gamma_route_sizes_its_work_per_axis(monkeypatch):
    # a single-oracle target takes the Gamma route in one variable and in
    # two; every grid it samples f on has one point along b
    phases = tuple(np.random.default_rng(31).uniform(-math.pi, math.pi, size=9))
    u = build_unitary(ProtocolSpec((1,) * 8, phases))
    pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()})
    qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()})
    shapes = spy_on_samples(monkeypatch)
    one = complete_unitary_1d(pt, qt, 8)
    two = complete_unitary_2d(pt, qt, 8, 8)
    assert one.factorization.p == two.factorization.p
    assert shapes and all(nb == 1 for _, nb in shapes), shapes
    assert min_on_bidisk_net(two.factorization.p) > 0.0


def test_completion_parity_mismatch():
    for p_tilde, n in (
        (LaurentPoly1({1: 0.5, -1: 0.5}), 2),  # odd cos t at even n
        (LaurentPoly1({0: 0.3, 1: 0.15, -1: 0.15}), 1),  # 0.3 + 0.3 cos t: mixed
        (LaurentPoly1({1: -0.3j, -1: 0.3j}), 1),  # 0.6 sin t: inversion-odd
    ):
        with pytest.raises(FactorizationError, match="parity mismatch"):
            complete_unitary_1d(p_tilde, LaurentPoly1.zero(), n)


def test_factor_gate_refuses_residual(monkeypatch):
    # the gate complete_unitary_2d applies: residual >= VERIFY_REL_TOL * max f,
    # one binding for both routes
    monkeypatch.setattr(factor2d, "VERIFY_REL_TOL", 0.0)
    f = LaurentPoly1({0: 5.0, 1: 2.0, -1: 2.0})
    for factor in (fejer_riesz, gamma_factor):
        with pytest.raises(FactorizationError, match="^verification failed$"):
            factor(f)
    with pytest.raises(FactorizationError, match="^verification failed$"):
        complete_unitary_1d(chebyshev_t_laurent(2), LaurentPoly1.zero(), 2)
    # the zero polynomial is its own exact factor
    assert fejer_riesz(LaurentPoly1.zero()).residual == 0.0


def test_completion_degree_overflow():
    t3 = chebyshev_t_laurent(3)
    with pytest.raises(FactorizationError, match="degree exceeds bound"):
        complete_unitary_1d(t3, LaurentPoly1.zero(), 1)


def test_completion_rejects_complex_valued_target():
    with pytest.raises(ValueError, match="real on the unit torus"):
        complete_unitary_1d(LaurentPoly1({1: 1.0}), LaurentPoly1.zero(), 1)


def test_completion_of_oversized_target_fails_nonneg():
    # |Ptilde| > 1 somewhere: 1 - P^2 goes negative
    big = LaurentPoly1({1: 1.0, -1: 1.0})  # 2 cos t
    with pytest.raises(FactorizationError, match="not nonnegative on circle"):
        complete_unitary_1d(big, LaurentPoly1.zero(), 1)
