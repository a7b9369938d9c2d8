"""Laurent polynomial arithmetic: pinned values and ring axioms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsp.laurent import LaurentPoly1, LaurentPoly2


# -- pinned fixtures ---------------------------------------------------------


def test_product_of_conjugate_pair_univariate():
    # (2 + z)(2 + 1/z) = 5 + 2 z + 2 z^{-1}
    p = LaurentPoly1({0: 2.0, 1: 1.0})
    q = LaurentPoly1({0: 2.0, -1: 1.0})
    prod = p * q
    expect = LaurentPoly1({-1: 2.0, 0: 5.0, 1: 2.0})
    assert prod.distance(expect) < 1e-15


def test_inverse_monomials_cancel():
    a = LaurentPoly2.monomial(1, 0)
    ainv = LaurentPoly2.monomial(-1, 0)
    assert (a * ainv).distance(LaurentPoly2.one()) == 0.0


def test_eval_torus_matches_cosine():
    # Re of a*b at angles pi/3, pi/6 is cos(pi/2) = 0.
    p = LaurentPoly2({(1, 1): 1.0})
    v = p.eval_torus(math.pi / 3, math.pi / 6)
    assert abs(v - cmath.exp(1j * math.pi / 2)) < 1e-15
    x = (p + p.conj_reciprocal()) * 0.5
    assert abs(x.eval_torus(math.pi / 3, math.pi / 6)) < 1e-15


def test_conj_reciprocal_is_torus_conjugate():
    p = LaurentPoly2({(1, 0): 0.5 + 0.25j, (0, -2): -1.0j, (0, 0): 0.75})
    for ta, tb in [(0.3, -1.2), (2.0, 0.0), (-0.7, 2.9)]:
        lhs = p.conj_reciprocal().eval_torus(ta, tb)
        rhs = p.eval_torus(ta, tb).conjugate()
        assert abs(lhs - rhs) < 1e-14


def test_parity_signature_xa():
    # x_a = (a + 1/a)/2: inversion even, exponents all odd in a, even in b.
    xa = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    sig = xa.parity_signature()
    assert sig.inversion == "even"
    assert sig.negation_a == 1
    assert sig.negation_b == 0


def test_parity_signature_ya():
    # y_a = (a - 1/a)/2: inversion odd.
    ya = LaurentPoly2({(1, 0): 0.5, (-1, 0): -0.5})
    sig = ya.parity_signature()
    assert sig.inversion == "odd"
    assert sig.negation_a == 1
    assert sig.negation_b == 0


def test_parity_signature_indefinite():
    p = LaurentPoly2({(1, 0): 1.0, (0, 0): 1.0})
    sig = p.parity_signature()
    assert sig.inversion == "indefinite"
    assert sig.negation_a is None


def test_leading_slice_extraction():
    # P = a*b + a*b^{-1} + a^{-1}: slice at max a-exponent 1 is b + 1/b.
    p = LaurentPoly2({(1, 1): 1.0, (1, -1): 1.0, (-1, 0): 1.0})
    s = p.leading_slice("a")
    assert s.var == "b"
    assert s.distance(LaurentPoly1({1: 1.0, -1: 1.0}, var="b")) == 0.0
    t = p.leading_slice("b")
    assert t.var == "a"
    assert t.distance(LaurentPoly1({1: 1.0}, var="a")) == 0.0


def test_leading_slice_of_zero_raises():
    with pytest.raises(ValueError, match="no leading slice"):
        LaurentPoly2.zero().leading_slice("a")


def test_degrees_sentinel_for_zero():
    d = LaurentPoly2.zero().degrees()
    assert d.is_zero
    assert d.deg_a is None and d.pos_b is None


def test_degrees_signed_and_absolute():
    p = LaurentPoly2({(-3, 1): 1.0, (1, -2): 1.0})
    d = p.degrees()
    assert (d.deg_a, d.deg_b) == (3, 2)
    assert (d.pos_a, d.pos_b) == (1, 1)


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        LaurentPoly2({(0, 0): float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        LaurentPoly1({0: complex(float("inf"), 0)})


def test_variable_mismatch_rejected():
    p = LaurentPoly1({0: 1.0}, var="a")
    q = LaurentPoly1({0: 1.0}, var="b")
    with pytest.raises(ValueError, match="variable mismatch"):
        p * q
    with pytest.raises(ValueError, match="variable mismatch"):
        p + q


def test_prune_drops_relative_dust():
    p = LaurentPoly2({(0, 0): 1.0, (5, 5): 1e-16})
    assert p.support() == [(0, 0)]
    # absolute-small but relatively-large coefficients survive
    q = LaurentPoly2({(0, 0): 1e-20, (1, 1): 1e-21})
    assert len(q) == 2


def test_unit_grid_matches_direct_eval():
    rng = np.random.default_rng(7)
    coeffs = {
        (int(j), int(k)): complex(rng.normal(), rng.normal())
        for j, k in rng.integers(-3, 4, size=(6, 2))
    }
    p = LaurentPoly2(coeffs)
    n = 16
    grid = p.eval_unit_grid(n)
    thetas = 2 * np.pi * np.arange(n) / n
    direct = p.eval_theta_grid(thetas, thetas)
    assert np.max(np.abs(grid - direct)) < 1e-12


def test_unit_grid_too_small_raises():
    p = LaurentPoly2({(4, 0): 1.0, (-4, 0): 1.0})
    with pytest.raises(ValueError, match="too small"):
        p.eval_unit_grid(8)


def test_circle_grid_univariate():
    p = LaurentPoly1({1: 0.5, -1: 0.5})  # cos(theta)
    vals = p.eval_circle_grid(8)
    thetas = 2 * np.pi * np.arange(8) / 8
    assert np.max(np.abs(vals - np.cos(thetas))) < 1e-14


def test_hermitian_detection():
    f = LaurentPoly1({-1: 2.0, 0: 5.0, 1: 2.0})
    assert f.is_hermitian()
    g = LaurentPoly1({1: 1.0j, -1: 1.0j})  # 2i cos(theta), purely imaginary
    assert not g.is_hermitian()


def test_embed_and_slice_roundtrip():
    p = LaurentPoly1({2: 1.5, -1: 2.0j}, var="a")
    q = p.embed("a")
    assert q.coeff(2, 0) == 1.5
    assert q.slice_at("b", 0).distance(p) == 0.0


# -- ring axioms (property-based) ---------------------------------------------

coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)
exponent = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
poly2 = st.dictionaries(exponent, coeff, max_size=6).map(LaurentPoly2)


@settings(max_examples=60, deadline=None)
@given(poly2, poly2, poly2)
def test_mul_distributes_over_add(p, q, r):
    lhs = p * (q + r)
    rhs = p * q + p * r
    assert lhs.distance(rhs) <= 1e-9 * max(1.0, lhs.max_abs(), rhs.max_abs())


@settings(max_examples=60, deadline=None)
@given(poly2, poly2)
def test_mul_commutes(p, q):
    assert (p * q).distance(q * p) <= 1e-9 * max(1.0, (p * q).max_abs())


@settings(max_examples=60, deadline=None)
@given(poly2)
def test_conj_reciprocal_involution(p):
    assert p.conj_reciprocal().conj_reciprocal().distance(p) == 0.0


@settings(max_examples=60, deadline=None)
@given(poly2, poly2)
def test_conj_reciprocal_multiplicative(p, q):
    lhs = (p * q).conj_reciprocal()
    rhs = p.conj_reciprocal() * q.conj_reciprocal()
    assert lhs.distance(rhs) <= 1e-9 * max(1.0, lhs.max_abs())


@settings(max_examples=60, deadline=None)
@given(poly2, st.floats(-3.1, 3.1), st.floats(-3.1, 3.1))
def test_eval_is_ring_hom(p, ta, tb):
    q = LaurentPoly2({(1, -1): 0.5j, (0, 1): 1.0})
    lhs = (p * q).eval_torus(ta, tb)
    rhs = p.eval_torus(ta, tb) * q.eval_torus(ta, tb)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(poly2)
def test_hermitian_part_is_real_on_torus(p):
    h = p.hermitian_part()
    for ta, tb in [(0.0, 0.0), (1.1, -2.2), (2.9, 0.4)]:
        assert abs(h.eval_torus(ta, tb).imag) <= 1e-9 * max(1.0, h.max_abs())
