"""Smoke test of the benchmark itself, at tiny sizes.

Runs each workload untraced and traced on a few small ops, and checks that
every metric BENCHMARK.json names is reported with its unit, that exact
counts repeat for a fixed seed, that the answer checker rejects corrupted
answers, and that the entry refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongAnswer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

TINY = {
    "roundtrip": dict(seconds=1, lengths=(2, 4, 6)),
    "scan": dict(seconds=0.2, trials=5),
    "complete": dict(seconds=1, near_per_pass=0, one_var_lengths=(4, 6)),
}


def tiny_run(name, trace, tmp_path, seed=0):
    kwargs = dict(TINY[name])
    seconds = kwargs.pop("seconds")
    result, lines = run.run_workload(name, seed, seconds, trace, workdir=str(tmp_path), **kwargs)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)


def test_exact_counts_repeat_for_a_seed(tmp_path):
    first = tiny_run("roundtrip", 1, tmp_path, seed=5)
    second = tiny_run("roundtrip", 1, tmp_path, seed=5)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["failed"] == second["failed"]
    assert first["metrics"]["laurent.mul.term_pairs"]["value"] > 0


@pytest.fixture
def program():
    with harness.restored_modules():
        yield harness.Program(harness.fresh_import(os.path.join(ROOT, "src")))


def flip_first_phase(out):
    obj = json.loads(out)
    obj["phases"][1] += 0.5
    return json.dumps(obj)


def test_checker_rejects_a_flipped_phase_in_a_recovered_protocol(program, tmp_path):
    op = ([1, 0, 1, 1], [0.3, -1.2, 2.0, 0.7, -0.4])
    assert workloads.Roundtrip().run_op(op, program, str(tmp_path)).ok

    def corrupting(argv):
        call = program(argv)
        if argv[0] == "readoff":
            return harness.Call(call.code, flip_first_phase(call.out), call.err, call.seconds)
        return call

    with pytest.raises(WrongAnswer, match="readoff"):
        workloads.Roundtrip().run_op(op, corrupting, str(tmp_path))


def test_checker_rejects_a_corrupted_completion(program, tmp_path):
    target, _ = workloads.Complete()._target(1, ([1] * 4, [0.3, -1.2, 2.0, 0.7, -0.4]))
    path = os.path.join(str(tmp_path), "target.json")
    with open(path, "w") as handle:
        json.dump(target, handle)
    out = json.loads(program(["complete", path, "--vars", "1", "--deg", "4"]).out)
    workloads.check_completion(out, target)

    flipped = json.loads(json.dumps(out))
    flipped["protocol"]["phases"][2] *= -1
    with pytest.raises(WrongAnswer, match="protocol"):
        workloads.check_completion(flipped, target)
    shifted = json.loads(json.dumps(out))
    shifted["unitary"]["p"][0]["re"] += 1e-3
    with pytest.raises(WrongAnswer):
        workloads.check_completion(shifted, target)


def test_entry_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
