#!/usr/bin/env python3
"""Replay one benchmark op list through `mqsp.cli.main`, one line per call.

The ops come from `bench/workloads.py` exactly as `bench/run.py` makes
them (same seed, same --seconds), and each runs in-process through the
workload's own `run_op`, so a call sees the same files and flags as in the
benchmark. Every CLI call prints one JSON line

    [argv, exit code, sha1 of stdout, stderr]

so two source trees can be compared byte for byte with `diff`, which then
also shows which calls (`--vars 1` or `--vars 2`, say) changed:

    python3 scripts/cli_replay.py --workload complete --seed 1 --seconds 30 > new.txt
    python3 scripts/cli_replay.py --workload complete --seed 1 --seconds 30 --src OLD/src > old.txt
    diff old.txt new.txt

The benchmark makes its op lists with `--seconds 30`: 390 `complete`
calls, 174 `roundtrip` calls and 150 `scan` calls, where the default
single pass gives 78, 58 and 10. A claim that a change leaves the CLI
byte-identical quotes the `--seconds 30` list.

After the call lines, stderr gets one count per (command, --vars, exit
code), as `complete --vars 1 exit 0: 371`, then one per (command, --vars,
exit code, stderr message), the message JSON-quoted without its final
newline, as `complete --vars 2 exit 1 "completion failed: no convergence": 5`,
so the exit codes and messages of two trees compare without reading the
lines.

Files are written to a temporary directory that is also the working
directory, with relative paths, so no output depends on where it lies.
The exit code is 1 when a workload check finds a wrong answer (reported
on stderr; the replay goes on), else 0.
"""

from __future__ import annotations

import os

# the benchmark's single-threaded BLAS, before numpy or mqsp is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

# --seconds giving one pass of each workload's op list (scan has no passes: 10 ops)
ONE_PASS_S = {
    "roundtrip": workloads.ROUNDTRIP_PASS_S,
    "scan": 2.0,
    "complete": workloads.COMPLETE_PASS_S,
}


# what a workload op reads of a call (bench/harness.py `Call`); no timing
Call = collections.namedtuple("Call", "code out err seconds")


class Recorder:
    """The `program` a workload op calls: runs `main` in-process, prints the
    call's line, and hands the captured outcome back to the op."""

    def __init__(self, main):
        self.main = main
        self.counts = collections.Counter()
        self.messages = collections.Counter()

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(argv)
            except Exception:
                # as bench/harness.py records it: a traceback is an outcome too
                code = -1
                err.write("uncaught: %s\n" % traceback.format_exc().splitlines()[-1])
        sha = hashlib.sha1(out.getvalue().encode()).hexdigest()
        print(json.dumps([argv, code, sha, err.getvalue()]), flush=True)
        nvars = argv[argv.index("--vars") + 1] if "--vars" in argv else "-"
        self.counts[argv[0], nvars, code] += 1
        self.messages[argv[0], nvars, code, err.getvalue().rstrip("\n")] += 1
        return Call(code, out.getvalue(), err.getvalue(), 0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="op-list size as bench/run.py --seconds; the benchmark uses 30 (default: one pass)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to import mqsp from")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from mqsp.cli import main as cli_main

    workload = workloads.WORKLOADS[args.workload]
    seconds = ONE_PASS_S[args.workload] if args.seconds is None else args.seconds
    ops = workload.make_ops(np.random.default_rng(args.seed), seconds)
    program = Recorder(cli_main)
    wrong = 0
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for op in ops:
                try:
                    workload.run_op(op, program, ".")
                except workloads.WrongAnswer as exc:
                    wrong += 1
                    print("wrong answer: %s" % exc, file=sys.stderr)
        finally:
            os.chdir(start)
    for (command, nvars, code), count in sorted(program.counts.items()):
        print("%s --vars %s exit %d: %d" % (command, nvars, code, count), file=sys.stderr)
    for (command, nvars, code, message), count in sorted(program.messages.items()):
        print("%s --vars %s exit %d %s: %d" % (command, nvars, code, json.dumps(message), count), file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
