"""Benchmark of the mqsp forward, scan and completion pipelines.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip|scan|complete \
        --seed N --seconds S --trace 0|1

One process runs one workload: a fixed op list made from --seed (its size
from --seconds, never from a clock), each op one or two calls of the
public `mqsp` command, answers checked independently. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the op list runs untraced and then traced, and the metrics are
per-layer self times and counts plus the tracing overhead. The exit code
is 1 when any answer fails its check, 2 when the library is not found.
See bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, and the library's default read-off
# tolerance, before numpy or mqsp is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MQSP_TOLERANCE", None)

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(BENCH_DIR, "reference.json")) as _handle:
    REFERENCE = json.load(_handle)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_workload(name, seed, seconds, trace, workdir=ROOT, **make_ops_kwargs):
    """Run one workload and return (result dict, report lines). Raises
    WrongAnswer if the program answered wrongly behind a success code."""
    workload = WORKLOADS[name]
    probe_ref = REFERENCE["probe_ref_ms"]
    src_dir = os.path.join(ROOT, "src")
    ops = workload.make_ops(np.random.default_rng(seed), seconds, **make_ops_kwargs)
    with harness.restored_modules(), tempfile.TemporaryDirectory(prefix=".benchwork-", dir=workdir) as tmp:
        setup_s, cli = harness.measure_setup(workload, src_dir, tmp, REFERENCE["setup_probe_ref_ms"])
        program = harness.Program(cli)
        plain = harness.run_ops(workload, ops, program, tmp, probe_ref)
        metrics = harness.end_to_end(plain, setup_s)
        diagnostics = harness.machine(plain)
        if trace:
            tracer = spans.Tracer()

            def tag(i):
                tracer.current_op = i

            with spans.Instrumented(tracer):
                traced = harness.run_ops(workload, ops, program, tmp, probe_ref, on_op=tag)
            if traced.ok != plain.ok:
                raise WrongAnswer("traced run gave other outcomes than the untraced run")
            out_dir = os.path.join(workdir, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, "spans-%s-seed%d.npz" % (name, seed)))
            metrics = layer_metrics(tracer, traced, plain)
            metrics.update(diagnostics)
    _, pct = harness.tail(plain.corrected_s * 1e3)
    kinds = collections.Counter(plain.kinds)
    lines = [
        "workload %s seed %d: %d ops, %d ok, setup %.3f s" % (name, seed, len(ops), sum(plain.ok), setup_s),
        "op_tail_ms is p%.1f of N=%d ops" % (pct, len(ops)),
        "outcomes: %s" % json.dumps(kinds, sort_keys=True),
        "drift: %s" % json.dumps({k: round(v, 4) for k, v in diagnostics.items()}),
    ]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics %s differ from BENCHMARK.json" % sorted(set(units) ^ set(metrics)))
    result = {
        "correct": True,
        "attempted": len(ops),
        "failed": len(ops) - sum(plain.ok),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, lines


def layer_metrics(tracer, traced, plain):
    per_span = tracer.span_ms(traced.factor)
    out = {"%s.self_ms" % n: own for n, (own, _) in per_span.items()}
    out.update({"%s.total_ms" % n: per_span[n][1] for n in spans.TOTALS})
    out.update(tracer.counts)
    untraced = float(plain.corrected_s.sum())
    out["trace.overhead_pct"] = 100.0 * (float(traced.corrected_s.sum()) - untraced) / untraced
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mqsp", "cli.py")):
        print("bench: no mqsp sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WrongAnswer as exc:
        print("bench: wrong answer: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": 1, "metrics": {}}))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
