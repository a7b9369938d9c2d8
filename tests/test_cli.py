"""End-to-end CLI runs: exit codes, JSON round trips, grid files."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mqsp
from mqsp import families, laurent, serialize
from mqsp.cli import build_parser, main
from mqsp.protocol import ProtocolSpec, build_unitary, verify_structure
from mqsp.readoff import ScanSummary, check_leading_slices, readoff_tolerance
from support import read_grid_csv, trivial_closed_form, xyz_closed_form

TRIVIAL1 = {"s": [0, 1], "phases": [0.0, 0.0, 0.0]}
IDENTITY = {"s": [], "phases": [0.0]}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def targets_of(spec):
    u = build_unitary(spec)
    return {
        "p": serialize.poly_to_records(u.P.hermitian_part()),
        "q": serialize.poly_to_records(u.Q.hermitian_part()),
    }


# -- build ------------------------------------------------------------------------


def test_build_trivial_exit_zero(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", write_json(tmp_path / "p.json", TRIVIAL1)])
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["overall"] is True
    assert obj["n"] == 2 and obj["weight"] == 1
    closed = trivial_closed_form(1)
    assert serialize.poly_from_records(obj["p"]).distance(closed.P) < 1e-15


def test_build_malformed_phases_exit_two(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"s": [0, 1], "phases": [0.1]})
    code, _, err = run(capsys, ["build", path])
    assert code == 2
    assert "invalid input" in err
    path = write_json(tmp_path / "u.json", {"n": "2", "weight": 1, "p": [], "q": []})
    code, out, err = run(capsys, ["build", path])
    assert (code, out, err) == (2, "", "invalid input: unitary file needs integer 'n'\n")


@pytest.mark.parametrize("n, weight", [(1, 2), (-1, 0), (2, -1)])
def test_build_weight_out_of_range_exit_two(tmp_path, capsys, n, weight):
    # refused as complete refuses it, before any report is printed
    path = write_json(tmp_path / "u.json", {"n": n, "weight": weight, "p": [], "q": []})
    code, out, err = run(capsys, ["build", path])
    assert (code, out, err) == (2, "", "invalid input: weight must satisfy 0 <= m <= n\n")


@pytest.mark.parametrize("phase", ["Infinity", "1e400", "NaN"])
def test_build_non_finite_phase_exit_two(tmp_path, capsys, phase):
    path = tmp_path / "p.json"
    path.write_text('{"s":[1,0],"phases":[0,%s,0]}' % phase)
    code, out, err = run(capsys, ["build", str(path)])
    assert (code, out, err) == (2, "", "invalid input: phases must be finite\n")


def test_build_unparsable_file_exit_two(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    assert run(capsys, ["build", str(path)])[0] == 2
    assert run(capsys, ["build", str(tmp_path / "missing.json")])[0] == 2


def test_protocol_box_over_max_cells_exits_two(tmp_path, capsys, monkeypatch):
    # n = 10, m = 5 spans an 11 x 11 coefficient box
    monkeypatch.setattr(laurent, "MAX_CELLS", 100)
    spec = ProtocolSpec((1, 0) * 5, (0.1,) * 11)
    with pytest.raises(ValueError, match="MAX_CELLS"):
        build_unitary(spec)
    proto = write_json(tmp_path / "p.json", serialize.spec_to_obj(spec))
    half = {"re": 0.5, "im": 0.0}
    # a serialized unitary whose 19 x 19 box is met by the inversion check
    unitary = write_json(
        tmp_path / "u.json",
        {"n": 18, "weight": 9, "p": [dict(j=0, k=0, **half), dict(j=9, k=9, **half)], "q": []},
    )
    # P and Q boxes that align into 11 x 11 only when read off
    far = write_json(
        tmp_path / "far.json",
        {"p": [dict(j=0, k=0, **half), dict(j=10, k=0, **half)], "q": [dict(j=0, k=10, **half)]},
    )
    for argv in (
        ["build", proto],
        ["build", unitary],
        ["readoff", far],
        ["plot", proto, "--out", str(tmp_path / "grid.csv")],
        ["scan", "--n-max", "12", "--trials", "20"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("invalid input: ") and "MAX_CELLS" in err, argv


def test_build_reverifies_serialized_unitary(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"s": [1, 0, 1], "phases": [0.3, -1.1, 0.7, 2.0]})
    _, out, _ = run(capsys, ["build", path])
    again = write_json(tmp_path / "u.json", json.loads(out))
    code, out, _ = run(capsys, ["build", again])
    assert code == 0
    assert json.loads(out)["report"]["overall"] is True


def test_build_hand_edited_violation_exit_one(tmp_path, capsys):
    _, out, _ = run(capsys, ["build", write_json(tmp_path / "p.json", TRIVIAL1)])
    obj = json.loads(out)
    obj["p"].append({"j": 9, "k": 9, "re": 0.1, "im": 0.0})  # breaks degree + det
    code, out, _ = run(capsys, ["build", write_json(tmp_path / "bad.json", obj)])
    assert code == 1
    report = json.loads(out)["report"]
    assert report["overall"] is False and report["degreeOk"] is False


def compact(text):
    return json.dumps(json.loads(text), separators=(",", ":"))


def test_build_prints_one_compact_line(tmp_path, capsys):
    # n = 64 with small phases, so read-off also succeeds at this length
    rng = np.random.default_rng(0)
    spec = ProtocolSpec(
        tuple(int(b) for b in rng.integers(0, 2, 64)),
        tuple(float(x) for x in rng.uniform(-0.3, 0.3, 65)),
    )
    code, out, _ = run(capsys, ["build", write_json(tmp_path / "p.json", serialize.spec_to_obj(spec))])
    assert code == 0
    assert out.count("\n") == 1 and out == compact(out) + "\n"
    unitary = tmp_path / "u.json"
    unitary.write_text(out)
    obj = json.loads(out)
    u = build_unitary(spec)
    for key, poly in (("p", u.P), ("q", u.Q)):
        assert dict(serialize.poly_from_records(obj[key]).items()) == dict(poly.items())
    # read-off answers the same whatever the input layout
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(obj, indent=2))
    answers = [run(capsys, ["readoff", str(path)]) for path in (unitary, indented)]
    assert answers[0] == answers[1]
    code, out, _ = answers[0]
    assert code == 0 and out == compact(out) + "\n"
    assert tuple(json.loads(out)["s"]) == spec.s


def test_out_of_range_record_numbers_exit_two(tmp_path, capsys):
    good = {"j": 0, "k": 0, "re": 0.5, "im": 0.0}
    for bad, message in (
        ({"j": 10**30, "k": 0, "re": 0.5, "im": 0.0}, "record 1: exponent out of int64 range"),
        ({"j": 2, "k": 0, "re": 10**400, "im": 0.0}, "record 1: coefficient part out of float range"),
    ):
        path = write_json(tmp_path / "u.json", {"p": [good, bad], "q": []})
        for argv in (["readoff", path], ["complete", path, "--vars", "1", "--deg", "2"]):
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (2, "", "invalid input: %s\n" % message), argv
    protocol = write_json(tmp_path / "p.json", {"s": [0, 1], "phases": [0.0, 10**400, 0.0]})
    for argv in (["build", protocol], ["plot", protocol, "--out", str(tmp_path / "g.csv")]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "invalid input: phase out of float range\n"), argv


# -- readoff ----------------------------------------------------------------------


def test_readoff_round_trip(tmp_path, capsys):
    spec = ProtocolSpec((1, 0, 1), (0.3, -1.1, 0.7, 2.0))
    _, out, _ = run(capsys, ["build", write_json(tmp_path / "p.json", serialize.spec_to_obj(spec))])
    code, out, _ = run(capsys, ["readoff", write_json(tmp_path / "u.json", json.loads(out))])
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] < 1e-9
    rebuilt = build_unitary(ProtocolSpec(tuple(obj["s"]), tuple(obj["phases"])))
    assert rebuilt.distance(build_unitary(spec)) < 1e-9


def test_readoff_identity_polynomials(tmp_path, capsys):
    path = write_json(
        tmp_path / "u.json",
        {"p": [{"j": 0, "k": 0, "re": 1.0, "im": 0.0}], "q": []},
    )
    code, out, _ = run(capsys, ["readoff", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["s"] == [] and obj["phases"] == [0.0]


def test_readoff_non_protocol_exit_one(tmp_path, capsys):
    path = write_json(
        tmp_path / "u.json",
        {
            "p": [{"j": 1, "k": 0, "re": 0.7, "im": 0.0}],
            "q": [{"j": 0, "k": 1, "re": 0.9, "im": 0.0}],
        },
    )
    code, _, err = run(capsys, ["readoff", path])
    assert code == 1
    assert "read-off failed" in err


def test_readoff_missing_keys_exit_two(tmp_path, capsys):
    assert run(capsys, ["readoff", write_json(tmp_path / "u.json", {"p": []})])[0] == 2


def test_readoff_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # generic phases leave rounding residue ~1e-16, detectable at tol 1e-30
    proto = write_json(tmp_path / "p.json", {"s": [1, 0], "phases": [0.3, -1.1, 0.7]})
    _, out, _ = run(capsys, ["build", proto])
    path = write_json(tmp_path / "u.json", json.loads(out))
    monkeypatch.setenv("MQSP_TOLERANCE", "1e-30")
    assert run(capsys, ["readoff", path])[0] == 1
    monkeypatch.delenv("MQSP_TOLERANCE")
    assert run(capsys, ["readoff", path])[0] == 0


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-8"])
def test_invalid_env_tolerance_exit_two(tmp_path, capsys, monkeypatch, value):
    proto = write_json(tmp_path / "p.json", {"s": [1, 0], "phases": [0.3, -1.1, 0.7]})
    unitary = json.loads(run(capsys, ["build", proto])[1])
    # a corrupted unitary, which an unchecked nan tolerance would accept
    unitary["p"][0]["re"] += 0.3
    path = write_json(tmp_path / "u.json", unitary)
    target = write_json(tmp_path / "t.json", {"p": []})
    monkeypatch.setenv("MQSP_TOLERANCE", value)
    with pytest.raises(ValueError, match="MQSP_TOLERANCE"):
        readoff_tolerance()
    for argv in (
        ["readoff", path],
        ["complete", target, "--vars", "1", "--deg", "2"],
        ["scan", "--trials", "5"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "MQSP_TOLERANCE" in err


# -- complete ---------------------------------------------------------------------


def test_complete_1d_chebyshev(tmp_path, capsys):
    path = write_json(
        tmp_path / "t.json",
        {"p": [{"j": 2, "k": 0, "re": 0.5, "im": 0.0}, {"j": -2, "k": 0, "re": 0.5, "im": 0.0}]},
    )
    code, out, _ = run(capsys, ["complete", path, "--vars", "1", "--deg", "2"])
    assert code == 0
    assert out.count("\n") == 1 and out == compact(out) + "\n"
    obj = json.loads(out)
    assert obj["satisfied"] is True
    assert obj["residual"] < 1e-10
    assert obj["protocol"]["s"] == [1, 1]
    assert max(abs(p) for p in obj["protocol"]["phases"]) < 1e-9


def test_complete_valid_but_not_peelable_exit_three(tmp_path, capsys, monkeypatch):
    # both completions factor, but no read-off passes at tolerance 1e-30;
    # either prints its unitary with protocol null
    monkeypatch.setenv("MQSP_TOLERANCE", "1e-30")
    path = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((1, 1), (0.1, 2.8, -2.2))))
    code, out, err = run(capsys, ["complete", path, "--vars", "1", "--deg", "2"])
    assert (code, err) == (3, "")
    assert out.count("\n") == 1 and out == compact(out) + "\n"
    obj = json.loads(out)
    assert obj["protocol"] is None
    assert (obj["unitary"]["n"], obj["unitary"]["weight"]) == (2, 2)
    assert obj["unitary"]["p"] and obj["unitary"]["q"]
    path = write_json(tmp_path / "t2.json", targets_of(ProtocolSpec((0, 1), (0.1, 2.8, -2.2))))
    code, out, err = run(capsys, ["complete", path, "--vars", "2", "--deg", "2,1"])
    assert (code, err) == (3, "")
    assert out.count("\n") == 1 and out == compact(out) + "\n"
    obj = json.loads(out)
    assert obj["protocol"] is None
    assert (obj["unitary"]["n"], obj["unitary"]["weight"]) == (2, 1)
    assert obj["unitary"]["p"] and obj["unitary"]["q"]


def test_complete_2d_determinantal(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (0.1, 2.8, -2.2))))
    code, out, _ = run(capsys, ["complete", path, "--vars", "2", "--deg", "2,1"])
    assert code == 0
    assert out.count("\n") == 1 and out == compact(out) + "\n"
    obj = json.loads(out)
    assert obj["satisfied"] is True
    assert obj["residual"] < 1e-8
    assert obj["convergenceResidual"] < 1e-10
    assert len(obj["singularValues"]) >= 1
    assert obj["protocol"] is not None
    # the printed unitary really is unitary: P P~ + Q Q~ = 1
    p = serialize.poly_from_records(obj["unitary"]["p"])
    q = serialize.poly_from_records(obj["unitary"]["q"])
    det = p * p.conj_reciprocal() + q * q.conj_reciprocal()
    from mqsp.laurent import LaurentPoly2

    assert det.distance(LaurentPoly2.one()) < 1e-9


def test_complete_2d_diagonal_targets_exit_one(tmp_path, capsys):
    # trivial-family targets: f = 1 - Ptilde^2 vanishes on the torus
    path = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (0.0, 0.0, 0.0))))
    code, _, err = run(capsys, ["complete", path, "--vars", "2", "--deg", "2,1"])
    assert code == 1
    assert "not strictly positive" in err


def test_complete_2d_rank_failure_exit_one(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (2.45, -1.71, 0.77))))
    code, _, err = run(capsys, ["complete", path, "--vars", "2", "--deg", "2,1"])
    assert code == 1
    assert "rank condition not satisfied" in err


@pytest.mark.parametrize("p_tilde, n", [({1: 0.5, -1: 0.5}, 1), ({0: 1.0}, 0)])
def test_complete_newton_route_answers_alike_in_one_and_two_variables(tmp_path, capsys, p_tilde, n):
    # Ptilde = cos t leaves f = sin^2 t, zeros on the circle, and Ptilde = 1
    # leaves f = 0: the Gamma route refuses both, and since f lies on axis a
    # --vars 2 falls back to the Newton factor as --vars 1 does
    records = [{"j": j, "k": 0, "re": c, "im": 0.0} for j, c in p_tilde.items()]
    path = write_json(tmp_path / "t.json", {"p": records})
    answers = []
    for nvars, deg in (("1", str(n)), ("2", "%d,%d" % (n, n))):
        code, out, err = run(capsys, ["complete", path, "--vars", nvars, "--deg", deg])
        assert (code, err) == (0, ""), nvars
        answers.append(json.loads(out))
    one, two = answers
    for key in ("p", "residual", "unitary", "protocol"):
        assert one[key] == two[key], key
    assert (two["singularValues"], two["satisfied"], two["convergenceResidual"]) == (None, True, None)
    assert "rootClass" in one and "rootClass" not in two


def _swapped(records):
    """The records of p(b, a), in the order the CLI writes them."""
    return sorted(({**r, "j": r["k"], "k": r["j"]} for r in records), key=lambda r: (r["j"], r["k"]))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_complete_on_axis_b_answers_as_its_axis_a_twin_transposed(tmp_path, capsys, n):
    # Ptilde = cos n theta_b leaves f = sin^2 n theta_b, zeros on the
    # circle along b alone: --deg n,0 completes it as --deg n,n completes
    # cos n theta_a, with the factor and the unitary transposed and the
    # protocol of bits 1 - s and the same phases
    on_a = [{"j": j, "k": 0, "re": 0.5, "im": 0.0} for j in (-n, n)]
    answers = []
    for records, deg in ((on_a, "%d,%d" % (n, n)), (_swapped(on_a), "%d,0" % n)):
        path = write_json(tmp_path / "t.json", {"p": records})
        code, out, err = run(capsys, ["complete", path, "--vars", "2", "--deg", deg])
        assert (code, err) == (0, ""), deg
        answers.append(json.loads(out))
    a, b = answers
    assert b["p"] == _swapped(a["p"])
    assert b["unitary"] == dict(a["unitary"], weight=0, p=_swapped(a["unitary"]["p"]), q=_swapped(a["unitary"]["q"]))
    assert b["protocol"] == {"s": [1 - bit for bit in a["protocol"]["s"]], "phases": a["protocol"]["phases"]}
    for key in ("residual", "singularValues", "satisfied", "convergenceResidual"):
        assert b[key] == a[key], key


def eval_records(records, theta):
    """Value of a record list at the torus points theta = [(theta_a, theta_b)]."""
    if not records:
        return np.zeros(len(theta), dtype=complex)
    jk = np.array([(r["j"], r["k"]) for r in records], dtype=float)
    c = np.array([complex(r["re"], r["im"]) for r in records])
    return np.exp(1j * theta @ jk.T) @ c


def test_complete_1d_long_targets_exit_zero_with_protocol(tmp_path, capsys):
    # single-oracle targets at n = 256, past the sampled lengths: both
    # complete to a unitary whose real parts are the targets, and read off
    theta = np.column_stack([np.linspace(-3.0, 3.0, 16), np.zeros(16)])
    rng = np.random.default_rng(8)
    for _ in range(2):
        spec = ProtocolSpec((1,) * 256, tuple(rng.uniform(-math.pi, math.pi, 257)))
        targets = targets_of(spec)
        path = write_json(tmp_path / "t.json", targets)
        code, out, err = run(capsys, ["complete", path, "--vars", "1", "--deg", "256"])
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["protocol"]["s"] == [1] * 256
        p = eval_records(obj["unitary"]["p"], theta)
        q = eval_records(obj["unitary"]["q"], theta)
        assert np.abs(np.abs(p) ** 2 + np.abs(q) ** 2 - 1.0).max() < 1e-5
        assert np.abs(p.real - eval_records(targets["p"], theta).real).max() < 1e-8
        assert np.abs(q.real - eval_records(targets["q"], theta).real).max() < 1e-8


@pytest.mark.parametrize("seed", [9, 16])
def test_complete_1d_targets_near_the_circle_exit_zero_with_protocol(tmp_path, capsys, seed):
    # n = 256 single-oracle targets whose f = 1 - Ptilde^2 - Qtilde^2 comes
    # too close to zero for the Toeplitz route: the Newton factor completes
    # them, and the completion reads off
    rng = np.random.default_rng(seed)
    spec = ProtocolSpec((1,) * 256, tuple(rng.uniform(-math.pi, math.pi, 257)))
    path = write_json(tmp_path / "t.json", targets_of(spec))
    code, out, err = run(capsys, ["complete", path, "--vars", "1", "--deg", "256"])
    assert (code, err) == (0, "")
    assert json.loads(out)["protocol"]["s"] == [1] * 256


def test_complete_bad_inputs_exit_two(tmp_path, capsys):
    good = write_json(tmp_path / "t.json", {"p": []})
    assert run(capsys, ["complete", good, "--vars", "1", "--deg", "1,2"])[0] == 2
    assert run(capsys, ["complete", good, "--vars", "1", "--deg", "-1"])[0] == 2
    assert run(capsys, ["complete", good, "--vars", "2", "--deg", "2"])[0] == 2
    assert run(capsys, ["complete", good, "--vars", "2", "--deg", "x,y"])[0] == 2
    missing = write_json(tmp_path / "m.json", {"q": []})
    assert run(capsys, ["complete", missing, "--vars", "1", "--deg", "1"])[0] == 2
    # lone imaginary coefficient: not real on the torus
    complex_p = write_json(
        tmp_path / "c.json", {"p": [{"j": 1, "k": 1, "re": 0.0, "im": 0.4}]}
    )
    assert run(capsys, ["complete", complex_p, "--vars", "2", "--deg", "1,1"])[0] == 2


def _records(coeffs):
    return serialize.poly_to_records(laurent.LaurentPoly2(coeffs))


HUGE = 1.5e308
OVERFLOWING = {
    # det_residual's refusal of sums that overflow
    "build": (
        ["build"],
        {
            "p": _records({(0, 0): HUGE, (1, 1): HUGE}),
            "q": _records({(0, 0): HUGE}),
            "n": 2,
            "weight": 1,
        },
        2,
        "invalid input: non-finite coefficient",
    ),
    # P = HUGE (a + 1/a), Q = HUGE (a - 1/a): refused before any peel
    "readoff": (
        ["readoff"],
        {
            "p": _records({(1, 0): HUGE, (-1, 0): HUGE}),
            "q": _records({(1, 0): HUGE, (-1, 0): -HUGE}),
        },
        1,
        "read-off failed: not an M-QSP unitary",
    ),
    # p = HUGE (a - 1/a), whose Hermitian test overflows
    "complete": (
        ["complete", "--vars", "1", "--deg", "1"],
        {"p": _records({(1, 0): HUGE, (-1, 0): -HUGE})},
        2,
        "invalid input: inputs must be real on the unit torus",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_coefficients_print_one_stderr_line(tmp_path, name):
    # a subprocess, since pytest records warnings raised in-process where a
    # shell would print them on stderr
    command, obj, code, message = OVERFLOWING[name]
    path = write_json(tmp_path / "in.json", obj)
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    done = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command[0], path] + command[1:],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, "", message + "\n")


# -- scan -------------------------------------------------------------------------


def test_scan_small_run(capsys):
    code, out, _ = run(capsys, ["scan", "--n-max", "3", "--trials", "50", "--seed", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passes"] == 50 and obj["counterexamples"] == 0
    assert obj["worstMismatch"] < 1e-8


def test_scan_zero_trials(capsys):
    code, out, _ = run(capsys, ["scan", "--trials", "0"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "nMax": 6,
        "trials": 0,
        "seed": 0,
        "passes": 0,
        "worstMismatch": 0.0,
        "counterexamples": 0,
    }


def test_scan_negative_exit_two(capsys):
    assert run(capsys, ["scan", "--trials", "-5"])[0] == 2


def test_scan_negative_seed_names_its_flag_before_the_dump_check(tmp_path, capsys):
    dump = tmp_path / "no-such-dir" / "ce.json"
    code, out, err = run(capsys, ["scan", "--seed", "-1", "--dump", str(dump)])
    assert (code, out, err) == (2, "", "--seed must be nonnegative\n")


def test_scan_refuses_n_max_past_int64_by_name(tmp_path, capsys, monkeypatch):
    # lengths are drawn below n_max + 1, which must stay within 2^63; the
    # largest n_max that does reaches the scan and its first draw
    def no_scan(*args):
        raise AssertionError("scanned")

    dump = str(tmp_path / "no-such-dir" / "ce.json")
    with monkeypatch.context() as patch:
        patch.setattr("mqsp.cli.scan_leading_slices", no_scan)
        for n_max in (2**63, 2**64 + 5):
            argv = ["scan", "--n-max", str(n_max), "--trials", "1", "--dump", dump]
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (2, "", "--n-max must be at most 9223372036854775807\n")
    code, out, err = run(capsys, ["scan", "--n-max", str(2**63 - 1), "--trials", "1"])
    assert (code, out) == (2, "")
    assert err == (
        "invalid input: exponent box of 1 x 11749869230777074271 coefficients exceeds MAX_CELLS\n"
    )


def test_scan_refuses_a_huge_box_by_its_own_size(capsys):
    code, out, err = run(capsys, ["scan", "--n-max", "6000", "--trials", "3", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "invalid input: exponent box of 2871 x 2809 coefficients exceeds MAX_CELLS\n"


def test_scan_refuses_a_huge_length_before_drawing_it():
    # seed 0 draws n = 85,062,423 first, whose bits and phases alone take
    # gigabytes: the run is capped at 1 GiB of address space, under which
    # only a refusal made before the draws exits cleanly
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from mqsp.cli import main\n"
        "sys.exit(main(['scan', '--n-max', '100000000', '--trials', '1', '--seed', '0']))\n"
    )
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == (
        "invalid input: exponent box of 1 x 170124847 coefficients exceeds MAX_CELLS\n"
    )


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, ["scan", "--no-such-flag"])[0] == 2
    code, out, _ = run(capsys, ["scan", "--trials", "0", "--seed", "7"])
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out, _ = run(capsys, ["scan", "--trials", "0"])
    assert code == 0 and json.loads(out)["seed"] == 0
    code, out, _ = run(capsys, ["scan", "--n-max", "2", "--trials", "3"])
    assert code == 0 and json.loads(out)["nMax"] == 2
    assert json.loads(run(capsys, ["scan", "--trials", "0"])[1])["nMax"] == 6


def test_scan_counterexample_dump(tmp_path, capsys, monkeypatch):
    spec = ProtocolSpec((1,), (0.1, 0.2))
    fake = ScanSummary(
        trials=1,
        passes=0,
        worst_mismatch=0.5,
        counterexamples=(spec,),
        n_max=1,
        seed=0,
    )
    monkeypatch.setattr("mqsp.cli.scan_leading_slices", lambda *a, **k: fake)
    dump = tmp_path / "ce.json"
    code, out, _ = run(capsys, ["scan", "--dump", str(dump)])
    assert code == 4
    assert json.loads(out)["dumpPath"] == str(dump)
    text = dump.read_text()
    assert text == compact(text)
    dumped = json.loads(text)
    assert dumped["s"] == [1]
    u = build_unitary(spec)
    assert (dumped["p"], dumped["q"]) == tuple(map(serialize.poly_to_records, (u.P, u.Q)))


def test_scan_exit_four_on_a_rounding_counterexample(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MQSP_TOLERANCE", raising=False)
    argv = ["scan", "--trials", "200", "--seed", "0"]
    code, out, _ = run(capsys, argv + ["--n-max", "40"])
    assert code == 0 and json.loads(out)["passes"] == 200
    dump = tmp_path / "ce.json"
    code, out, _ = run(capsys, argv + ["--n-max", "50", "--dump", str(dump)])
    obj = json.loads(out)
    assert code == 4
    assert (obj["passes"], obj["counterexamples"], obj["dumpPath"]) == (199, 1, str(dump))
    dumped = json.loads(dump.read_text())
    spec = serialize.spec_from_obj(dumped)
    assert len(spec.s) == 48 and sum(spec.s) == 20
    u = build_unitary(spec)
    assert (dumped["p"], dumped["q"]) == tuple(map(serialize.poly_to_records, (u.P, u.Q)))
    # rounding, not a failure of the property: the unitary passes the
    # structure checks, but neither leading slice pair reads as proportional
    assert verify_structure(u, len(spec.s), sum(spec.s)).overall
    rep = check_leading_slices(u)
    assert not (rep.holds_a or rep.holds_b)


def test_scan_unwritable_dump_exit_two_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before checking --dump")

    monkeypatch.setattr("mqsp.cli.scan_leading_slices", no_scan)
    for dump in (tmp_path / "no-such-dir" / "ce.json", tmp_path):
        code, out, err = run(capsys, ["scan", "--trials", "5", "--dump", str(dump)])
        assert (code, out) == (2, "")
        assert err.startswith("cannot write %s: " % dump)
    # the empty path names no file: refused as such, not after the scan
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--n-max", "50", "--trials", "200", "--seed", "0", "--dump", ""]
    assert run(capsys, argv) == (2, "", "cannot write : No such file or directory\n")
    assert not any(tmp_path.iterdir())
    monkeypatch.undo()
    # a writable path is not created unless a counterexample turns up
    dump = tmp_path / "ce.json"
    assert run(capsys, ["scan", "--trials", "5", "--dump", str(dump)])[0] == 0
    assert not dump.exists()


# -- plot -------------------------------------------------------------------------


def grid_values(path):
    _, _, values = read_grid_csv(path)
    return values


def test_plot_identity_all_ones(tmp_path, capsys):
    proto = write_json(tmp_path / "id.json", IDENTITY)
    out_path = tmp_path / "id.csv"
    code, out, _ = run(capsys, ["plot", proto, "--grid", "16", "--out", str(out_path)])
    assert code == 0
    assert out.strip() == str(out_path)
    values = grid_values(out_path)
    assert values.shape == (16, 16)
    assert np.allclose(values, 1.0, atol=1e-12)


def test_plot_trivial_one_antidiagonal_constant(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(
        capsys, ["plot", "--named", "trivial:1", "--grid", "64", "--out", str(out_path)]
    )
    assert code == 0
    v = grid_values(out_path)
    rolled = np.roll(np.roll(v, -1, axis=0), 1, axis=1)  # theta_a + step, theta_b - step
    assert np.abs(v - rolled).max() < 1e-9
    assert v.max() <= 1.0 + 1e-10 and v.min() >= -1e-12


@pytest.mark.parametrize("named", ["trivial:2", "xyz:3"])
def test_plot_shift_and_joint_negation_symmetries(tmp_path, capsys, named):
    out_path = tmp_path / "g.csv"
    code, _, _ = run(capsys, ["plot", "--named", named, "--grid", "32", "--out", str(out_path)])
    assert code == 0
    v = grid_values(out_path)
    n = v.shape[0]
    assert np.abs(v - np.roll(v, n // 2, axis=0)).max() < 1e-9  # theta_a -> theta_a + pi
    assert np.abs(v - np.roll(v, n // 2, axis=1)).max() < 1e-9  # theta_b -> theta_b + pi
    negated = v[(-np.arange(n)) % n][:, (-np.arange(n)) % n]  # joint theta -> -theta
    assert np.abs(v - negated).max() < 1e-9


def test_plot_xyz_axis_negation_and_case_two(tmp_path, capsys):
    out_path = tmp_path / "xyz.csv"
    code, _, _ = run(
        capsys, ["plot", "--named", "xyz:3", "--grid", "128", "--out", str(out_path)]
    )
    assert code == 0
    v = grid_values(out_path)
    n = v.shape[0]
    assert np.abs(v - v[(-np.arange(n)) % n, :]).max() < 1e-9  # theta_a -> -theta_a
    assert np.abs(v - v[:, (-np.arange(n)) % n]).max() < 1e-9  # theta_b -> -theta_b
    assert v.max() <= 1.0 + 1e-10
    # the curve 4 cos^2 a cos^2 b = 1 is off-grid; check the same polynomial
    p = xyz_closed_form(3).P
    for inst in families.case_two_samples(50):
        value = p.eval_grid(np.exp(1j * inst.theta_a), np.exp(1j * inst.theta_b))[0, 0]
        assert abs(value) ** 2 >= 1 - 1e-9


def test_plot_pgm(tmp_path, capsys):
    out_path = tmp_path / "g.pgm"
    code, _, _ = run(
        capsys,
        ["plot", "--named", "trivial:1", "--grid", "16", "--format", "pgm", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[:3] == ["P2", "16 16", "255"]
    pixels = [int(x) for line in lines[3:] for x in line.split()]
    assert len(pixels) == 256
    assert 0 <= min(pixels) and max(pixels) <= 255


def test_plot_bad_flags_exit_two(tmp_path, capsys):
    proto = write_json(tmp_path / "id.json", IDENTITY)
    assert run(capsys, ["plot", "--named", "trivial:1", "--grid", "8"])[0] == 2
    assert run(capsys, ["plot", "--named", "trivial:1", "--grid", "100000"])[0] == 2
    assert run(capsys, ["plot"])[0] == 2
    assert run(capsys, ["plot", proto, "--named", "trivial:1"])[0] == 2
    assert run(capsys, ["plot", "--named", "cubic:1"])[0] == 2
    assert run(capsys, ["plot", "--named", "xyz:0"])[0] == 2
    assert run(capsys, ["plot", "--named", "xyz:nine"])[0] == 2
    # protocol-file errors read as in build
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, ["plot", missing])
    assert code == 2 and err.startswith("cannot read %s: " % missing)
    short = write_json(tmp_path / "short.json", {"s": [0, 1], "phases": [0.1]})
    code, _, err = run(capsys, ["plot", short])
    assert code == 2 and err.startswith("invalid input: ")
    out = str(tmp_path / "no-such-dir" / "grid.csv")
    code, _, err = run(capsys, ["plot", "--named", "trivial:1", "--out", out])
    assert code == 2 and err.startswith("cannot write %s" % out)


# -- parser-level behavior ----------------------------------------------------------


def test_pipelines_import_no_scipy(tmp_path):
    # numpy is the only declared dependency: build, readoff, a two-variable
    # complete and a one-variable one on cos 2t (zeros on the circle, so
    # the Newton factor) must run without scipy in a fresh interpreter
    protocol = write_json(tmp_path / "p.json", {"s": [0, 1], "phases": [0.1, 2.8, -2.2]})
    targets = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (0.1, 2.8, -2.2))))
    cosine = write_json(
        tmp_path / "c.json",
        {"p": [{"j": 2, "k": 0, "re": 0.5, "im": 0.0}, {"j": -2, "k": 0, "re": 0.5, "im": 0.0}]},
    )
    unitary = tmp_path / "u.json"
    script = (
        "import contextlib, io, sys\n"
        "from mqsp.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(['build', %r]) == 0\n"
        "open(%r, 'w').write(out.getvalue())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['readoff', %r]) == 0\n"
        "    assert main(['complete', %r, '--vars', '2', '--deg', '2,1']) == 0\n"
        "    assert main(['complete', %r, '--vars', '1', '--deg', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ) % (protocol, str(unitary), str(unitary), targets, cosine)
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_unknown_command_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_command_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "MQSP_TOLERANCE" in capsys.readouterr().out


def test_sweep_script_quick_lines_and_checks():
    # the schema of every class line and mirror line, and every answer that
    # printed a unitary passed its checks; the counts themselves are not
    # pinned
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "sweep.py")
    done = subprocess.run(
        [sys.executable, script, "--quick", "--src", src],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    mirrors = [line for line in lines if line["class"] == "mirror"]
    lines = [line for line in lines if line["class"] != "mirror"]
    classes = {"build + readoff", "complete --vars 1", "complete --vars 1 on T_N", "complete --vars 2"}
    assert {line["class"] for line in lines} == classes
    # one mirror line per mirrored class, pairing each of its inputs
    assert [line["of"] for line in mirrors] == ["complete --vars 2", "build + readoff"]
    for line in mirrors:
        assert set(line) == {"class", "of", "pairs", "exitDiffers"}
        assert line["pairs"] == sum(x["targets"] for x in lines if x["class"] == line["of"])
        assert 0 <= line["exitDiffers"] <= line["pairs"]
    assert {(line["protocols"], line["n"]) for line in lines if line["class"] == "build + readoff"} == {
        (kind, n) for kind in ("random bits", "single oracle") for n in (16, 32)
    }
    assert [line["n"] for line in lines if line["class"] == "complete --vars 1 on T_N"] == [8]
    for line in lines:
        head = {
            "build + readoff": {"protocols", "n"},
            "complete --vars 1": {"n"},
            "complete --vars 1 on T_N": {"n"},
            "complete --vars 2": {"margin"},
        }
        keys = {"class", "targets", "exit", "failures", "worstDet", "worstRebuild", "badAnswers"}
        assert set(line) == keys | head[line["class"]]
        assert line["badAnswers"] == 0
        if line["class"] == "build + readoff":
            # every protocol builds and verifies, and each printed unitary is read off
            build, read = line["exit"]["build"], line["exit"]["readoff"]
            assert set(line["exit"]) == {"build", "readoff"} and set(read) <= {"0", "1"}
            assert build == {"0": line["targets"]} and sum(read.values()) == line["targets"] > 0
            assert sum(line["failures"].values()) == read.get("1", 0)
            assert line["worstDet"] is not None
            assert (line["worstRebuild"] is None) == ("0" not in read)
        else:
            assert line["targets"] == sum(line["exit"].values()) > 0
            assert set(line["exit"]) <= {"0", "1", "3"}
            assert sum(line["failures"].values()) == line["exit"].get("1", 0)
            answered = line["targets"] - line["exit"].get("1", 0)
            assert (line["worstDet"] is None) == (answered == 0)
            assert (line["worstRebuild"] is None) == ("0" not in line["exit"])
        for worst in (line["worstDet"], line["worstRebuild"]):
            assert worst is None or 0.0 <= worst <= 1e-8


@pytest.mark.parametrize("workload, calls", [("scan", 10), ("roundtrip", 58)])
def test_cli_replay_script_one_line_per_call_and_repeatable(workload, calls):
    # one pass: 10 scan ops of one call each, or one build and one readoff
    # call for each of the 29 roundtrip lengths 8, 10, ..., 64
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "cli_replay.py")
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run(
            [sys.executable, script, "--workload", workload, "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        for _ in range(2)
    ]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert len(lines) == calls
    tally = {}
    for argv, code, sha, err in lines:
        assert all(isinstance(arg, str) for arg in argv)
        assert isinstance(code, int) and isinstance(err, str)
        assert len(sha) == 40 and int(sha, 16) >= 0
        nvars = argv[argv.index("--vars") + 1] if "--vars" in argv else "-"
        key = "%s --vars %s exit %d" % (argv[0], nvars, code)
        tally[key] = tally.get(key, 0) + 1
    counts = dict(line.rsplit(": ", 1) for line in runs[0].stderr.splitlines())
    assert {key: int(count) for key, count in counts.items()} == tally
    assert runs[0].stderr == runs[1].stderr


def test_ab_pairs_script_one_line_per_end_to_end_metric():
    # one tiny pair per workload, the same tree on both sides
    src = os.path.dirname(os.path.dirname(mqsp.__file__))
    root = os.path.dirname(src)
    done = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "ab_pairs.py"), root, root,
         "--workload", "scan", "--workload", "roundtrip", "--seed", "1", "--pairs", "1",
         "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    assert [(line["workload"], line["metric"], line["better"]) for line in lines] == [
        (workload, metric["name"], metric["better"])
        for workload in ("scan", "roundtrip")
        for metric in metrics
    ]
    bounds = {metric["name"]: metric["bound"] for metric in metrics}
    for line in lines:
        assert line["pairs"] == 1 and line["parentIqr"] == 0.0
        assert [line["parent"]] == line["parentRuns"] and [line["change"]] == line["changeRuns"]
        # one pair has no spread: the change clears the bar exactly when it wins
        assert line["clears"] == (line["wins"] == 1)
        # and regresses when it is worse by more than the bound, relative
        # to the parent's value
        worse = line["change"] - line["parent"]
        if line["better"] == "higher":
            worse = -worse
        assert line["regresses"] is (worse > bounds[line["metric"]] * abs(line["parent"]))
    scan = {line["metric"]: line["change"] for line in lines if line["workload"] == "scan"}
    assert scan["ok_frac"] == 1.0
