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
from mqsp.cli import main
from mqsp.protocol import ProtocolSpec, build_unitary
from mqsp.readoff import ScanSummary, readoff_tolerance

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
    closed = families.trivial_protocol(1).closed_form
    assert serialize.poly_from_records(obj["p"]).distance(closed.P) < 1e-15


def test_build_malformed_phases_exit_two(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"s": [0, 1], "phases": [0.1]})
    code, _, err = run(capsys, ["build", path])
    assert code == 2
    assert "invalid input" in err


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
    for argv in (
        ["build", proto],
        ["plot", proto, "--out", str(tmp_path / "grid.csv")],
        ["scan", "--n-max", "12", "--trials", "20"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "MAX_CELLS" in err, argv


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
    obj = json.loads(out)
    assert obj["satisfied"] is True
    assert obj["residual"] < 1e-10
    assert obj["protocol"]["s"] == [1, 1]
    assert max(abs(p) for p in obj["protocol"]["phases"]) < 1e-9


def test_complete_2d_determinantal(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (0.1, 2.8, -2.2))))
    code, out, _ = run(capsys, ["complete", path, "--vars", "2", "--deg", "2,1"])
    assert code == 0
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


def test_scan_counterexample_dump(tmp_path, capsys, monkeypatch):
    spec = ProtocolSpec((1,), (0.1, 0.2))
    fake = ScanSummary(
        trials=1,
        passes=0,
        worst_mismatch=0.5,
        counterexamples=((spec, None),),
        n_max=1,
        seed=0,
    )
    monkeypatch.setattr("mqsp.cli.scan_leading_slices", lambda *a, **k: fake)
    dump = tmp_path / "ce.json"
    code, out, _ = run(capsys, ["scan", "--dump", str(dump)])
    assert code == 4
    assert json.loads(out)["dumpPath"] == str(dump)
    dumped = json.loads(dump.read_text())
    assert dumped["s"] == [1]
    u = build_unitary(spec)
    assert serialize.poly_from_records(dumped["p"]).distance(u.P) == 0.0
    assert serialize.poly_from_records(dumped["q"]).distance(u.Q) == 0.0


# -- plot -------------------------------------------------------------------------


def grid_values(path):
    _, _, values = serialize.read_grid_csv(path)
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
    p = families.xyz_protocol(3).closed_form.P
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
    assert run(capsys, ["plot", str(tmp_path / "missing.json")])[0] == 2
    out = str(tmp_path / "no-such-dir" / "grid.csv")
    code, _, err = run(capsys, ["plot", "--named", "trivial:1", "--out", out])
    assert code == 2 and err.startswith("cannot write %s" % out)


# -- parser-level behavior ----------------------------------------------------------


def test_pipelines_import_no_scipy(tmp_path):
    # numpy is the only declared dependency: build, readoff and a
    # two-variable complete must run without scipy in a fresh interpreter
    protocol = write_json(tmp_path / "p.json", {"s": [0, 1], "phases": [0.1, 2.8, -2.2]})
    targets = write_json(tmp_path / "t.json", targets_of(ProtocolSpec((0, 1), (0.1, 2.8, -2.2))))
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
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ) % (protocol, str(unitary), str(unitary), targets)
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
