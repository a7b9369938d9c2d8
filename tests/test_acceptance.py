"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

Each test prints one summary line ("criterion NN ...: PASS/FAIL (detail)")
and fails hard when its criterion is not met. Criterion 7 is expected to
fail: it demands that the rank condition reject strictly positive
(ab)-diagonal densities, but every such density has a stable univariate
factor in the joint variable, so the condition is provably satisfied
instead; the analysis lives in /root/notes/decisions.md.
"""

import json
import math
import time

import numpy as np
import pytest

from mqsp import families, serialize
from mqsp.factor1d import complete_unitary_1d
from mqsp.factor2d import (
    build_gamma,
    extract_stable_factor,
    fejer_riesz,
    fourier_of_reciprocal,
    generate_stable,
    rank_condition,
)
from mqsp.laurent import LaurentPoly1, LaurentPoly2
from mqsp.protocol import build_unitary, random_spec, verify_structure
from mqsp.readoff import readoff, scan_leading_slices

SPEC_SEED = 2024
SPEC_COUNT = 500
SPEC_N_MAX = 12


def _report(num, name, ok, detail):
    print(
        "criterion %02d %-24s %s (%s)"
        % (num, name + ":", "PASS" if ok else "FAIL", detail),
        flush=True,
    )


def _sample_specs():
    rng = np.random.default_rng(SPEC_SEED)
    lengths = rng.integers(1, SPEC_N_MAX + 1, size=SPEC_COUNT)
    return [random_spec(rng, int(n)) for n in lengths]


def test_01_forward_structure():
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for spec in _sample_specs():
        report = verify_structure(build_unitary(spec), spec.n, spec.weight)
        worst = max(worst, report.determinant_residual)
        failures += not report.overall
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst < 1e-10 and elapsed < 30.0
    _report(
        1,
        "forward structure",
        ok,
        "%d/%d verified, max det residual %.2e, %.1f s"
        % (SPEC_COUNT - failures, SPEC_COUNT, worst, elapsed),
    )
    assert failures == 0
    assert worst < 1e-10
    assert elapsed < 30.0


def test_02_readoff_round_trip():
    start = time.perf_counter()
    worst = 0.0
    step_mismatches = 0
    for spec in _sample_specs():
        u = build_unitary(spec)
        result = readoff(u.P, u.Q)
        worst = max(worst, result.residual)
        step_mismatches += len(result.branch_log) != spec.n
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and step_mismatches == 0 and elapsed < 60.0
    _report(
        2,
        "read-off round trip",
        ok,
        "max rebuild residual %.2e, %d step-count mismatches, %.1f s"
        % (worst, step_mismatches, elapsed),
    )
    assert worst < 1e-9
    assert step_mismatches == 0
    assert elapsed < 60.0


def test_03_proportionality_scan(tmp_path):
    summary = scan_leading_slices(n_max=6, trials=1000, seed=0)
    ok = summary.all_passed and summary.worst_mismatch < 1e-8
    _report(
        3,
        "leading-slice scan",
        ok,
        "%d/%d proportional, worst mismatch %.2e"
        % (summary.passes, summary.trials, summary.worst_mismatch),
    )
    if summary.counterexamples:
        spec, _ = summary.counterexamples[0]
        u = build_unitary(spec)
        artifact = serialize.spec_to_obj(spec)
        artifact["p"] = serialize.poly_to_records(u.P)
        artifact["q"] = serialize.poly_to_records(u.Q)
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(artifact, indent=2))
        pytest.fail("counterexample dumped to %s" % path)
    assert summary.worst_mismatch < 1e-8


def _on_circle(p, n):
    # p at the n points theta_r = 2 pi r / n, p on axis a
    ((_, values),) = p.unit_grid_blocks((n, 1), n)
    return values[:, 0]


def _random_positive_trig(rng):
    degree = int(rng.integers(0, 17))
    coeffs = {0: float(rng.normal())}
    for j in range(1, degree + 1):
        c = complex(rng.normal(), rng.normal()) / (1 + j)
        coeffs[j] = c
        coeffs[-j] = c.conjugate()
    h = LaurentPoly1(coeffs)
    values = _on_circle(h, 1024).real
    floor = 0.05 * (values.max() - values.min() + 1.0)
    return h + LaurentPoly1({0: floor - values.min()})


def test_04_fejer_riesz_1d():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    worst_root = math.inf
    worst_rerun = 0.0
    for _ in range(200):
        f = _random_positive_trig(rng)
        sup_f = float(np.abs(_on_circle(f, 1024)).max())
        fac = fejer_riesz(f)
        worst_rel = max(worst_rel, fac.residual / sup_f)
        exponents = sorted(j for (j, _), _ in fac.p.items())
        top = exponents[-1] if exponents else 0
        if top > 0:
            vec = np.zeros(top + 1, dtype=complex)
            for (j, _), c in fac.p.items():
                vec[top - j] = c
            roots = np.roots(vec)
            worst_root = min(worst_root, float(np.abs(roots).min()))
        worst_rerun = max(worst_rerun, fejer_riesz(f).p.distance(fac.p))
    ok = worst_rel < 1e-8 and worst_root >= 1.0 - 1e-12 and worst_rerun < 1e-8
    _report(
        4,
        "1d factorization",
        ok,
        "max rel residual %.2e, min |root| %.6f, rerun drift %.2e"
        % (worst_rel, worst_root, worst_rerun),
    )
    assert worst_rel < 1e-8
    assert worst_root >= 1.0 - 1e-12  # no root inside the open unit disk
    assert worst_rerun < 1e-8


def test_05_chebyshev_completion():
    worst = 0.0
    for n in range(1, 9):
        p_tilde = LaurentPoly1({n: 0.5, -n: 0.5})
        result = complete_unitary_1d(p_tilde, LaurentPoly1.zero(), n)
        report = verify_structure(result.unitary, n, n)
        assert report.overall, "structure check failed at n=%d" % n
        worst = max(worst, build_unitary(result.spec).distance(result.unitary))
    ok = worst < 1e-9
    _report(5, "chebyshev completion", ok, "n=1..8, max rebuild residual %.2e" % worst)
    assert worst < 1e-9


def test_06_forward_2d_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_match = 0.0
    worst_rel = 0.0
    unsatisfied = 0
    for trial in range(100):
        deg_a = int(rng.integers(0, 3))
        deg_b = int(rng.integers(0, 3))
        generator = generate_stable(deg_a, deg_b, seed=1000 + trial)
        f = generator * generator.conj_reciprocal()
        deg_f = f.degrees()
        n = 0 if deg_f.is_zero else deg_f.deg_a
        m = 0 if deg_f.is_zero else deg_f.deg_b
        table = fourier_of_reciprocal(f, (n, m))
        gamma = build_gamma(table, n, m)
        report = rank_condition(gamma, n, m)
        if not report.satisfied:
            unsatisfied += 1
            continue
        fac = extract_stable_factor(gamma, f, n, m)
        sup_f = float(np.abs(f.eval_unit_grid(128)).max())
        worst_match = max(worst_match, fac.p.distance(generator))
        worst_rel = max(worst_rel, fac.residual / sup_f)
    elapsed = time.perf_counter() - start
    ok = unsatisfied == 0 and worst_match < 1e-6 and worst_rel < 1e-6 and elapsed < 300
    _report(
        6,
        "2d forward pipeline",
        ok,
        "%d/100 rank-satisfied, max generator distance %.2e, max rel residual %.2e, %.1f s"
        % (100 - unsatisfied, worst_match, worst_rel, elapsed),
    )
    assert unsatisfied == 0
    assert worst_match < 1e-6
    assert worst_rel < 1e-6
    assert elapsed < 300


def test_07_diagonal_negative_control():
    # Expected to fail: a strictly positive density supported on the (ab)
    # diagonal always factors through a stable univariate polynomial in the
    # joint variable, so the rank condition is provably satisfied, never
    # refuted. Kept as stated so the gap stays visible; the derivation and
    # numerics are recorded in /root/notes/decisions.md.
    rng = np.random.default_rng(23)
    rejected = 0
    for _ in range(20):
        c1 = complex(rng.normal(), rng.normal())
        c2 = complex(rng.normal(), rng.normal())
        scale = 0.7 / (abs(c1) + abs(c2))
        q = (
            LaurentPoly2.one()
            + LaurentPoly2.monomial(1, 1) * (c1 * scale)
            + LaurentPoly2.monomial(2, 2) * (c2 * scale)
        )
        f = q * q.conj_reciprocal()
        table = fourier_of_reciprocal(f, (2, 2))
        report = rank_condition(build_gamma(table, 2, 2), 2, 2)
        rejected += not report.satisfied
    ok = rejected == 20
    _report(
        7,
        "diagonal control",
        ok,
        "rank condition rejected %d/20 diagonal densities; a stable factor in"
        " the joint variable exists for all of them, so rejection is"
        " impossible -- see /root/notes/decisions.md" % rejected,
    )
    assert rejected == 20, (
        "rank condition rejected %d/20 strictly positive (ab)-diagonal"
        " densities; every such density has a stable univariate factor in the"
        " joint variable, so the condition is provably satisfied instead;"
        " analysis in /root/notes/decisions.md" % rejected
    )


def test_08_six_query_discrimination():
    protocol = families.xyz_protocol(3)
    assert len(protocol.spec.s) == 6
    worst_two = 0.0
    for inst in families.case_two_samples(50):
        result = families.discriminate(inst)
        assert result.decision == "two" and result.queries == 6
        worst_two = max(worst_two, abs(result.transition_prob - 1.0))
    worst_one = 0.0
    instances = list(families.case_one_instances())
    assert len(instances) == 4
    for inst in instances:
        result = families.discriminate(inst)
        assert result.decision == "one" and result.queries == 6
        worst_one = max(worst_one, result.transition_prob)
    ok = worst_two < 1e-9 and worst_one < 1e-9
    _report(
        8,
        "6-query discrimination",
        ok,
        "|prob-1| <= %.2e on 50 case-two samples, prob <= %.2e at 4 case-one points"
        % (worst_two, worst_one),
    )
    assert worst_two < 1e-9
    assert worst_one < 1e-9


def test_09_closed_forms():
    worst = 0.0
    worst_bound = 0.0
    for n in range(1, 7):
        for maker in (families.trivial_protocol, families.xyz_protocol):
            protocol = maker(n)
            built = build_unitary(protocol.spec)
            worst = max(worst, built.distance(protocol.closed_form))
            if maker is families.trivial_protocol:
                for poly in (built.P, built.Q):
                    assert all(j == k for (j, k), _ in poly.items())
            values = np.abs(built.P.eval_unit_grid(64)) ** 2
            worst_bound = max(worst_bound, float(values.max()))
    ok = worst < 1e-10 and worst_bound <= 1 + 1e-10
    _report(
        9,
        "closed forms",
        ok,
        "n=1..6 both families, max coefficient distance %.2e, max grid |P|^2 %.12f"
        % (worst, worst_bound),
    )
    assert worst < 1e-10
    assert worst_bound <= 1 + 1e-10


def _emitted_grid(spec, n_theta, tmp_path, name):
    grid = serialize.grid_from_poly(build_unitary(spec).P, n_theta)
    path = tmp_path / name
    serialize.write_grid_csv(grid, path)
    _, _, values = serialize.read_grid_csv(path)
    return values


def test_10_grid_symmetries(tmp_path):
    # Per-axis theta -> theta + pi follows from negation parity and joint
    # theta -> -theta from inversion parity, for every protocol; the
    # alternating family is additionally symmetric per axis under negation.
    # The diagonal family is not (cos^2(ta + tb) breaks it), so the joint
    # form is the one checked for both.
    trivial = _emitted_grid(families.trivial_protocol(1).spec, 64, tmp_path, "t.csv")
    xyz = _emitted_grid(families.xyz_protocol(3).spec, 128, tmp_path, "x.csv")
    worst = 0.0
    for values in (trivial, xyz):
        size = values.shape[0]
        flip = (-np.arange(size)) % size
        worst = max(worst, float(np.abs(values - values[flip][:, flip]).max()))
        worst = max(worst, float(np.abs(values - np.roll(values, size // 2, 0)).max()))
        worst = max(worst, float(np.abs(values - np.roll(values, size // 2, 1)).max()))
    flip = (-np.arange(128)) % 128
    worst = max(worst, float(np.abs(xyz - xyz[flip, :]).max()))
    worst = max(worst, float(np.abs(xyz - xyz[:, flip]).max()))
    # constant along anti-diagonals: a pure function of theta_a + theta_b
    drift = float(np.abs(trivial - np.roll(np.roll(trivial, -1, 0), 1, 1)).max())
    ok = worst < 1e-9 and drift < 1e-9
    _report(
        10,
        "grid symmetries",
        ok,
        "max symmetry defect %.2e, anti-diagonal drift %.2e" % (worst, drift),
    )
    assert worst < 1e-9
    assert drift < 1e-9
