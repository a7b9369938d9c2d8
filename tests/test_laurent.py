"""Laurent polynomial arithmetic: pinned values and ring axioms."""

import cmath
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqsp.cli
from mqsp import factor1d
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
    ((_, vals),) = p.unit_grid_blocks((8, 1), 8)
    thetas = 2 * np.pi * np.arange(8) / 8
    assert np.max(np.abs(vals[:, 0] - np.cos(thetas))) < 1e-14


def test_hermitian_detection():
    f = LaurentPoly1({-1: 2.0, 0: 5.0, 1: 2.0})
    assert f.is_hermitian()
    g = LaurentPoly1({1: 1.0j, -1: 1.0j})  # 2i cos(theta), purely imaginary
    assert not g.is_hermitian()


def test_poly1_is_the_poly2_on_axis_a():
    p = LaurentPoly1({2: 1.5, -1: 2.0j})
    q = LaurentPoly2({(2, 0): 1.5, (-1, 0): 2.0j})
    assert isinstance(p, LaurentPoly2) and p == q and q == p
    assert p.coeff(2, 0) == 1.5 and p.max_exp() == 2
    assert dict(p.items()) == {(2, 0): 1.5, (-1, 0): 2.0j}
    assert repr(p) == repr(q).replace("LaurentPoly2", "LaurentPoly1")
    # from_poly2 shares the box; arithmetic returns LaurentPoly2
    r = LaurentPoly1.from_poly2(q)
    assert type(r) is LaurentPoly1 and aligned(r, r)[0] is aligned(q, q)[0]
    assert type(p + p) is type(p * p) is type(p - p) is type(-p) is LaurentPoly2
    assert type(LaurentPoly1.constant(2.0)) is type(LaurentPoly1.monomial(1, 0)) is LaurentPoly2
    assert LaurentPoly1.zero().max_exp() is None


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


def test_exponent_outside_int64_rejected():
    with pytest.raises(ValueError, match="int64"):
        LaurentPoly2({(10**30, 0): 1.0})
    with pytest.raises(ValueError, match="int64"):
        LaurentPoly2({(0, 0): 1.0, (0, -(10**30)): 1.0})
    with pytest.raises(ValueError, match="int64"):
        LaurentPoly1({10**30: 1.0})


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(mqsp.cli.__file__))), "bench")


def _bench_spans():
    spec = importlib.util.spec_from_file_location("spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_spans_count_a_poly1_product_once():
    # bench/spans.py wraps LaurentPoly2's and LaurentPoly1's __mul__, __add__
    # and conj_reciprocal (and names in every loaded mqsp module, hence the
    # mqsp.cli import): a LaurentPoly1 product is one span and one call, and
    # leaving restores both classes exactly
    spans = _bench_spans()
    before = [dict(vars(cls)) for cls in (LaurentPoly1, LaurentPoly2)]
    p = LaurentPoly1({0: 2.0, 1: 1.0})
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        p * p
    assert list(tracer.name) == [spans.SPAN_NAMES.index("laurent.mul")]
    assert tracer.counts["laurent.mul.calls"] == 1
    for cls, held in zip((LaurentPoly1, LaurentPoly2), before):
        now = vars(cls)
        assert now.keys() == held.keys() and all(now[k] is v for k, v in held.items())


def test_bench_spans_names_resolve_from_mqsp_cli():
    # bench/spans.py imports mqsp.cli alone and looks every name it wraps up
    # in sys.modules, mqsp.factor1d's fejer_riesz and complete_unitary_1d
    # among them; its roots count calls max_exp() on fejer_riesz's argument,
    # so a Newton-route completion must hand fejer_riesz a LaurentPoly1
    script = (
        "import sys\n"
        "import mqsp.cli\n"
        "sys.path.insert(0, %r)\n"
        "import spans\n"
        "keys = [(m, p) for _, m, p in spans.SPANS] + list(spans._counting_hooks(spans.Tracer()))\n"
        "for key in keys:\n"
        "    getattr(*spans._resolve(*key))\n"
    ) % BENCH
    src = os.path.dirname(os.path.dirname(mqsp.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = _bench_spans()
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        factor1d.complete_unitary_1d(LaurentPoly1({1: 0.5, -1: 0.5}), LaurentPoly1.zero(), 1)
    assert list(tracer.name).count(spans.SPAN_NAMES.index("factor1d.fejer_riesz")) == 1
    assert tracer.counts["factor1d.roots"] > 0


def test_one_and_zero_equal_the_dict_constructor():
    def same(p, q):
        assert p == q and p.max_abs() == q.max_abs()
        (x, _, _), (y, _, _) = aligned(p, p), aligned(q, q)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(x, part)), np.signbit(getattr(y, part)))

    same(LaurentPoly2.one(), LaurentPoly2({(0, 0): 1.0}))
    same(LaurentPoly2.zero(), LaurentPoly2({}))


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
