"""1D spectral factorization and completion: pinned factors, round trips."""

import math

import numpy as np
import pytest

from mqsp.errors import FactorizationError
from mqsp.laurent import LaurentPoly1
from mqsp.factor1d import complete_unitary_1d, fejer_riesz
from mqsp.protocol import ProtocolSpec, build_unitary, verify_structure
from mqsp.readoff import readoff


def chebyshev_t_laurent(n):
    # T_n(cos t) = cos(n t) = (z^n + z^-n)/2
    if n == 0:
        return LaurentPoly1.one()
    return LaurentPoly1({n: 0.5, -n: 0.5})


# -- factorization ----------------------------------------------------------------


def test_factor_constant_one():
    fac = fejer_riesz(LaurentPoly1.one())
    assert fac.g.distance(LaurentPoly1.one()) < 1e-15
    assert fac.root_class == "stable"
    assert fac.residual < 1e-14


def test_factor_pinned_stable_example():
    # f = 5 + 2(z + 1/z) = |2 + z|^2, root -2 outside
    f = LaurentPoly1({0: 5.0, 1: 2.0, -1: 2.0})
    fac = fejer_riesz(f)
    assert fac.root_class == "stable"
    assert fac.g.distance(LaurentPoly1({0: 2.0, 1: 1.0})) < 1e-10
    assert fac.residual < 1e-12


def test_factor_pinned_boundary_example():
    # f = 2 + z + 1/z = |1 + z|^2, double root at -1 on the circle
    f = LaurentPoly1({0: 2.0, 1: 1.0, -1: 1.0})
    fac = fejer_riesz(f)
    assert fac.root_class == "outer"
    assert fac.g.distance(LaurentPoly1({0: 1.0, 1: 1.0})) < 1e-7
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
        assert fac.g.distance(expect) < 1e-9
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
    assert fac.g.is_zero() and fac.residual == 0.0


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
        roots = np.roots([fac.g.coeff(k) for k in range(deg, -1, -1)])
        assert np.all(np.abs(roots) > 1.0)


def test_factor_deterministic_normalization():
    # unique up to phase; our normalization (monic x positive scale) pins
    # the phase, so refactoring a rebuilt f reproduces g itself
    rng = np.random.default_rng(15)
    f = _random_positive(rng, 6)
    g1 = fejer_riesz(f).g
    f2 = g1 * g1.conj_reciprocal()
    g2 = fejer_riesz(f2).g
    assert g1.distance(g2) < 1e-8 * g1.max_abs()


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
    for n in range(1, 9):
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
    for n in (2, 5, 8):
        phases = tuple(rng.uniform(-math.pi, math.pi, size=n + 1))
        u = build_unitary(ProtocolSpec((1,) * n, phases))
        # all-A protocols carry no b: the real parts live on axis a alone
        pt = LaurentPoly1({j: c for (j, _), c in u.P.hermitian_part().items()}, var="a")
        qt = LaurentPoly1({j: c for (j, _), c in u.Q.hermitian_part().items()}, var="a")
        res = complete_unitary_1d(pt, qt, n)
        assert verify_structure(res.unitary, n, n).overall
        rr = readoff(res.unitary.P, res.unitary.Q)
        assert rr.residual < 1e-9


def test_completion_parity_mismatch():
    x = LaurentPoly1({1: 0.5, -1: 0.5})
    with pytest.raises(FactorizationError, match="parity mismatch"):
        complete_unitary_1d(x, LaurentPoly1.zero(), 2)


def test_completion_degree_overflow():
    t3 = chebyshev_t_laurent(3)
    with pytest.raises(FactorizationError, match="degree exceeds bound"):
        complete_unitary_1d(t3, LaurentPoly1.zero(), 1)


def test_completion_rejects_complex_valued_target():
    with pytest.raises(ValueError, match="real on the unit circle"):
        complete_unitary_1d(LaurentPoly1({1: 1.0}), LaurentPoly1.zero(), 1)


def test_completion_of_oversized_target_fails_nonneg():
    # |Ptilde| > 1 somewhere: 1 - P^2 goes negative
    big = LaurentPoly1({1: 1.0, -1: 1.0})  # 2 cos t
    with pytest.raises(FactorizationError, match="not nonnegative on circle"):
        complete_unitary_1d(big, LaurentPoly1.zero(), 1)
