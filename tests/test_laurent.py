"""Laurent polynomial arithmetic: pinned values and ring axioms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsp.laurent import MAX_CELLS, PRUNE_REL, LaurentPoly1, LaurentPoly2, aligned


def on_torus(p, theta_a, theta_b):
    """p(e^{i theta_a}, e^{i theta_b}) as a complex scalar."""
    return complex(p.eval_grid(cmath.exp(1j * theta_a), cmath.exp(1j * theta_b))[0, 0])


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
    v = on_torus(p, math.pi / 3, math.pi / 6)
    assert abs(v - cmath.exp(1j * math.pi / 2)) < 1e-15
    x = (p + p.conj_reciprocal()) * 0.5
    assert abs(on_torus(x, math.pi / 3, math.pi / 6)) < 1e-15


def test_conj_reciprocal_is_torus_conjugate():
    p = LaurentPoly2({(1, 0): 0.5 + 0.25j, (0, -2): -1.0j, (0, 0): 0.75})
    for ta, tb in [(0.3, -1.2), (2.0, 0.0), (-0.7, 2.9)]:
        lhs = on_torus(p.conj_reciprocal(), ta, tb)
        rhs = on_torus(p, ta, tb).conjugate()
        assert abs(lhs - rhs) < 1e-14


def test_parity_signature_xa():
    # x_a = (a + 1/a)/2: inversion even, exponents all odd in a, even in b.
    xa = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    assert xa.has_inversion_sign(+1)
    assert xa.negation_bits() == (1, 0)


def test_parity_signature_ya():
    # y_a = (a - 1/a)/2: inversion odd.
    ya = LaurentPoly2({(1, 0): 0.5, (-1, 0): -0.5})
    assert not ya.has_inversion_sign(+1) and ya.has_inversion_sign(-1)
    assert ya.negation_bits() == (1, 0)


def test_parity_signature_indefinite():
    p = LaurentPoly2({(1, 0): 1.0, (0, 0): 1.0})
    assert not p.has_inversion_sign(+1) and not p.has_inversion_sign(-1)
    assert p.negation_bits()[0] is None


def test_leading_slice_extraction():
    # P = a*b + a*b^{-1} + a^{-1}: slice at max a-exponent 1 is b + 1/b.
    p = LaurentPoly2({(1, 1): 1.0, (1, -1): 1.0, (-1, 0): 1.0})
    x, _, (lo_a, lo_b) = aligned(p, LaurentPoly2.zero())
    assert lo_a + x.shape[0] - 1 == 1
    assert x[-1].tolist() == [1.0, 0.0, 1.0]  # b^-1 .. b^1
    assert lo_b + x.shape[1] - 1 == 1
    assert x[:, -1].tolist() == [0.0, 0.0, 1.0]  # a^-1 .. a^1


def test_degrees_sentinel_for_zero():
    d = LaurentPoly2.zero().degrees()
    assert d.is_zero
    assert d.deg_a is None and d.deg_b is None


def test_degrees_signed_and_absolute():
    p = LaurentPoly2({(-3, 1): 1.0, (1, -2): 1.0})
    d = p.degrees()
    assert (d.deg_a, d.deg_b) == (3, 2)
    # the signed top exponents are the last row and column of the box
    x, _, (lo_a, lo_b) = aligned(p, p)
    assert (lo_a + x.shape[0] - 1, lo_b + x.shape[1] - 1) == (1, 1)


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
    assert [e for e, _ in p.items()] == [(0, 0)]
    # absolute-small but relatively-large coefficients survive
    q = LaurentPoly2({(0, 0): 1e-20, (1, 1): 1e-21})
    assert len(q) == 2


def _random_poly2(rng, terms, spread):
    return LaurentPoly2(
        {
            (int(j), int(k)): complex(rng.normal(), rng.normal())
            for j, k in rng.integers(-spread, spread + 1, size=(terms, 2))
        }
    )


def test_unit_grid_matches_direct_eval():
    p = _random_poly2(np.random.default_rng(7), terms=6, spread=3)
    n = 16
    grid = p.eval_unit_grid(n)
    thetas = 2 * np.pi * np.arange(n) / n
    z = np.exp(1j * thetas)
    direct = p.eval_grid(z, z)
    assert np.max(np.abs(grid - direct)) < 1e-12


def test_eval_grid_matches_per_term_sum():
    rng = np.random.default_rng(5)
    for trial in range(20):
        p = _random_poly2(rng, terms=1 + trial, spread=4)
        # points on the unit circle and inside it (radius down to 1/2)
        za = np.exp(1j * rng.uniform(-np.pi, np.pi, 7)) * rng.choice([1.0, 0.5, 0.8], 7)
        zb = np.exp(1j * rng.uniform(-np.pi, np.pi, 5)) * rng.choice([1.0, 0.6], 5)
        expect = np.zeros((za.size, zb.size), dtype=complex)
        for (j, k), c in p.items():
            expect += c * np.outer(za**j, zb**k)
        got = p.eval_grid(za, zb)
        assert got.shape == (7, 5)
        scale = sum(abs(c) for _, c in p.items())
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale


def test_eval_grid_zero_polynomial_and_single_point():
    assert np.array_equal(LaurentPoly2.zero().eval_grid([1.0, 0.5j], [2.0]), np.zeros((2, 1)))
    p = LaurentPoly2({(-2, 1): 3.0, (1, 0): 1.0j})
    got = p.eval_grid([0.5], [1j])
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - (3.0 * 4.0 * 1j + 0.5j)) <= 1e-12 * 4.0


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
    assert dict(q.items()) == {(k, 0): c for k, c in p.items()}


# -- dense backend against dict references ------------------------------------


def _random_terms(rng, terms, spread, parity=None):
    """Dict of small-integer coefficients (sums of their products are exact
    in floating point, in any order); `parity` fixes the exponent residues."""
    out = {}
    for _ in range(terms):
        j, k = (int(x) for x in rng.integers(-spread, spread + 1, size=2))
        if parity is not None:
            j, k = 2 * (j // 2) + parity[0], 2 * (k // 2) + parity[1]
        out[(j, k)] = complex(*(float(x) for x in rng.integers(-9, 10, size=2)))
    return {e: c for e, c in out.items() if c != 0}


def _dict_mul(x, y):
    out = {}
    for (j1, k1), c1 in x.items():
        for (j2, k2), c2 in y.items():
            e = (j1 + j2, k1 + k2)
            out[e] = out.get(e, 0.0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _dict_add(x, y, sign=1.0):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0.0) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def _reference_cases():
    rng = np.random.default_rng(11)
    cases = [({}, {}), ({}, {(1, -2): 3.0}), ({(0, 0): 2.0}, {(-3, 1): 1j, (2, 2): -4.0})]
    for trial in range(40):
        # mixed parities, then one parity per axis (the protocol case)
        parity_x = None if trial < 20 else (trial % 2, (trial // 2) % 2)
        parity_y = None if trial < 20 else ((trial // 3) % 2, (trial // 5) % 2)
        cases.append(
            (
                _random_terms(rng, 1 + trial % 9, 4, parity_x),
                _random_terms(rng, 1 + trial % 13, 5, parity_y),
            )
        )
    return cases


def test_mul_matches_per_term_convolution():
    for x, y in _reference_cases():
        prod = LaurentPoly2(x) * LaurentPoly2(y)
        assert dict(prod.items()) == _dict_mul(x, y)
        assert dict((LaurentPoly2(y) * LaurentPoly2(x)).items()) == _dict_mul(x, y)


def test_mul_matches_convolution_on_float_coefficients():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = {e: complex(rng.normal(), rng.normal()) for e in _random_terms(rng, 12, 6)}
        y = {e: complex(rng.normal(), rng.normal()) for e in _random_terms(rng, 9, 3)}
        prod = LaurentPoly2(x) * LaurentPoly2(y)
        ref = _dict_mul(x, y)
        # summation order differs: a few ulps of sum |c1 c2|, plus the prune
        scale = sum(map(abs, x.values())) * sum(map(abs, y.values()))
        for e in set(ref) | {e for e, _ in prod.items()}:
            assert abs(prod.coeff(*e) - ref.get(e, 0.0)) <= 1e-14 * scale


def test_scalar_mul_zero_and_constants():
    p = LaurentPoly2({(-2, 1): 1.5, (3, 0): -2j})
    assert (p * 0).is_zero() and (0.0 * p).is_zero()
    assert dict((p * 2).items()) == {(-2, 1): 3.0, (3, 0): -4j}
    assert dict((np.float64(2.0) * p).items()) == {(-2, 1): 3.0, (3, 0): -4j}
    assert (p * LaurentPoly2.zero()).is_zero()
    assert (LaurentPoly2.one() * p) == p
    assert dict((LaurentPoly2.constant(1j) * p).items()) == {(-2, 1): 1.5j, (3, 0): 2.0}


def test_add_sub_conj_degrees_match_dict_references():
    for x, y in _reference_cases():
        p, q = LaurentPoly2(x), LaurentPoly2(y)
        assert dict((p + q).items()) == _dict_add(x, y)
        assert dict((p - q).items()) == _dict_add(x, y, -1.0)
        assert dict((-p).items()) == {e: -c for e, c in x.items()}
        assert dict(p.conj_reciprocal().items()) == {
            (-j, -k): c.conjugate() for (j, k), c in x.items()
        }
        assert dict(p.inversion().items()) == {(-j, -k): c for (j, k), c in x.items()}
        d = p.degrees()
        if not x:
            assert d.is_zero
            continue
        js, ks = [j for j, _ in x], [k for _, k in x]
        assert (d.deg_a, d.deg_b) == (max(map(abs, js)), max(map(abs, ks)))


def test_prune_boundary_relative_to_largest():
    # every result is pruned once: at or below PRUNE_REL * max is dust
    p = LaurentPoly2({(0, 0): 1.0, (1, 0): 0.5 * PRUNE_REL, (0, 1): 2.0 * PRUNE_REL})
    assert [e for e, _ in p.items()] == [(0, 0), (0, 1)]
    # dust inside the exponent box of the kept terms goes too
    inner = LaurentPoly2({(0, 0): 1.0, (1, 1): 0.5 * PRUNE_REL, (2, 2): -1.0})
    assert [e for e, _ in inner.items()] == [(0, 0), (2, 2)] and inner.coeff(1, 1) == 0.0
    assert [e for e, _ in (inner * LaurentPoly2.monomial(0, 1)).items()] == [(0, 1), (2, 3)]
    q = LaurentPoly2({(0, 0): 1.0}) + LaurentPoly2({(2, 2): 0.5 * PRUNE_REL, (-1, 0): 2.0 * PRUNE_REL})
    assert [e for e, _ in q.items()] == [(-1, 0), (0, 0)]
    box = np.array([[1.0, 0.5 * PRUNE_REL], [2.0 * PRUNE_REL, 0.0]])
    assert [e for e, _ in LaurentPoly2.from_array(box, -1, 3).items()] == [(-1, 3), (0, 3)]


def test_overflowing_product_raises():
    big = LaurentPoly2({(0, 0): 1e200, (1, 0): 1e200})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            big * big
        with pytest.raises(ValueError, match="non-finite"):
            big * 1e200
    with pytest.raises(ValueError, match="non-finite"):
        LaurentPoly2.from_array([[1.0, float("nan")]], 0, 0)


def test_far_apart_exponents_rejected_before_allocating():
    with pytest.raises(ValueError, match="MAX_CELLS"):
        LaurentPoly2({(0, 0): 1.0, (MAX_CELLS, 0): 1.0})
    a, b = LaurentPoly2.monomial(0, 0), LaurentPoly2.monomial(5000, 5000)
    with pytest.raises(ValueError, match="MAX_CELLS"):
        a + b


def test_equality_and_items():
    p = LaurentPoly2({(2, -1): 1.0, (-1, 3): 2.5j, (0, 0): 0.0})
    assert p == LaurentPoly2({(-1, 3): 2.5j, (2, -1): 1.0})
    assert p != LaurentPoly2({(-1, 3): 2.5j, (2, -1): 1.0 + 1e-12})
    assert p != p * LaurentPoly2.monomial(1, 0)
    assert LaurentPoly2.zero() == LaurentPoly2({(4, 4): 0.0})
    items = p.items()
    assert len(items) == len(p) == 2
    assert items == [((-1, 3), 2.5j), ((2, -1), 1.0 + 0j)]
    for (j, k), c in items:
        assert type(j) is int and type(k) is int and type(c) is complex
    assert LaurentPoly2.zero().items() == [] and len(LaurentPoly2.zero()) == 0


def test_unit_grid_of_zero_polynomial():
    assert np.array_equal(LaurentPoly2.zero().eval_unit_grid(4), np.zeros((4, 4)))


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
    lhs = on_torus(p * q, ta, tb)
    rhs = on_torus(p, ta, tb) * on_torus(q, ta, tb)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(poly2)
def test_hermitian_part_is_real_on_torus(p):
    h = p.hermitian_part()
    for ta, tb in [(0.0, 0.0), (1.1, -2.2), (2.9, 0.4)]:
        assert abs(on_torus(h, ta, tb).imag) <= 1e-9 * max(1.0, h.max_abs())
