#!/usr/bin/env python3
"""Correctness sweep of the `mqsp` CLI, one JSON line per class of inputs.

Inputs are random protocols and the Hermitian parts of their unitaries,
drawn from a fixed seed and built with the library (`mqsp.protocol`); each
goes through `mqsp.cli.main` in-process, as `scripts/cli_replay.py` runs
the benchmark's calls. Every answer that prints a unitary is checked with
the library:

- `verify_structure` holds, determinant residual at most 1e-10 included;
- `build`: the printed unitary equals the circuit (`eval_unitary`, an
  independent numeric route) within CIRCUIT_TOL at CIRCUIT_POINTS;
- `complete` (exit 0, and exit 3, which prints a unitary with protocol
  null): its real parts equal the targets within TARGET_TOL;
- a printed protocol (`readoff` and `complete` on exit 0) rebuilds the
  unitary within the read-off tolerance
  (`build_unitary(spec).distance(unitary)`).

The classes:

- `build + readoff`: `mqsp build` on a protocol, then `mqsp readoff` on
  the unitary it printed, for random bits and for a single oracle (all
  bits 1), one line per kind and length n;
- `complete --vars 2` on protocols of random bits and length 2..4, one line
  per band of the positivity margin, min f of f = 1 - Re(P)^2 - Re(Q)^2 on
  a 256 x 256 torus grid;
- `complete --vars 1` on random single-oracle protocols, one line per
  length n;
- `complete --vars 1 on T_N`: the Chebyshev target T_N (the real part of
  the zero-phase single-oracle protocol of length N), one line per N. Its
  f = 1 - T_N^2 has double zeros on the circle, so it takes the Newton
  route;
- `mirror`: each `build + readoff` protocol and each `complete --vars 2`
  target run again with oracles a and b swapped (bits 1 - s; transposed
  targets with `--deg n,n-m`), one line per mirrored class.

A line holds the class, its kind and length or its band, the input count,
the count of each exit code (per command for `build + readoff`), the count
of each failure message, the worst determinant and rebuild residuals (null
when no answer had one) and `badAnswers`, the answers that failed their
check. A `mirror` line holds the mirrored class, the pair count and
`exitDiffers`, the pairs whose exit codes differ:

    python3 scripts/sweep.py            # n up to 512, 700 two-variable targets
    python3 scripts/sweep.py --quick    # a subset that runs in about a second

`--seed` draws other inputs and `--src` imports mqsp from another source
tree, so two trees compare line by line with `diff`. The exit code is 1
when any answer failed its check, else 0.
"""

from __future__ import annotations

import os

# single-threaded BLAS, as the benchmark runs, before numpy or mqsp is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# real parts of a completion equal the targets up to parity-projection dust
TARGET_TOL = 1e-9
# torus points (theta_a, theta_b) where a built unitary meets its circuit
CIRCUIT_POINTS = ((0.3, -1.1), (2.0, 0.7), (-2.9, 1.6))
CIRCUIT_TOL = 1e-9
MARGIN_GRID = 256
MARGIN_EDGES = (1e-6, 1e-4, 1e-2)
TWO_VAR_LENGTHS = (2, 3, 4)
# (build + readoff lengths, two-variable targets, one-variable lengths,
# inputs per kind and length, Chebyshev degrees)
FULL = ((16, 32, 64, 128, 256, 512), 700, (8, 16, 32, 64, 128, 256), 10, (8, 16, 32, 64, 128))
QUICK = ((16, 32), 60, (8, 16, 32), 5, (8,))


def _band(margin):
    """(index, text) of the margin band [lo, hi) holding `margin`."""
    edges = (-np.inf,) + MARGIN_EDGES + (np.inf,)
    i = int(np.searchsorted(MARGIN_EDGES, margin, side="right"))
    return i, "[%g, %g)" % (edges[i], edges[i + 1])


def _worst(old, new):
    return new if old is None else max(old, new)


def _sorted(counts):
    """A plain dict of `counts` (Counters, nested or not) in key order."""
    return {key: _sorted(value) if isinstance(value, dict) else value for key, value in sorted(counts.items())}


class Sweep:
    """Runs targets through the CLI and tallies them per class line."""

    def __init__(self, cli_main, workdir):
        self.cli_main = cli_main
        self.workdir = workdir
        self.lines = {}
        self.mirrors = []

    def _line(self, head):
        """The line that starts with `head`, its input count raised by one."""
        line = self.lines.setdefault(tuple(head.items()), dict(
            head, targets=0, exit=collections.Counter(), failures=collections.Counter(),
            worstDet=None, worstRebuild=None, badAnswers=0,
        ))
        line["targets"] += 1
        return line

    def _call(self, argv):
        """(exit code, stdout, stderr) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli_main(argv)
        return code, out.getvalue(), err.getvalue().strip()

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def call_build_readoff(self, spec):
        """(build, readoff): (exit code, stdout, stderr) of `mqsp build` on a
        protocol and of `mqsp readoff` on the unitary it printed (None when
        it printed none)."""
        from mqsp import serialize

        build = self._call(["build", self._write("protocol.json", json.dumps(serialize.spec_to_obj(spec)))])
        if not build[1]:
            return build, None
        return build, self._call(["readoff", self._write("unitary.json", build[1])])

    def call_complete(self, p_tilde, q_tilde, nvars, deg):
        """(exit code, stdout, stderr) of `mqsp complete` on the targets."""
        from mqsp import serialize

        path = self._write("target.json", json.dumps(
            {"p": serialize.poly_to_records(p_tilde), "q": serialize.poly_to_records(q_tilde)}
        ))
        return self._call(["complete", path, "--vars", str(nvars), "--deg", deg])

    def _rebuild_ok(self, line, protocol, unitary):
        """Tally how closely a printed protocol rebuilds `unitary`."""
        from mqsp import serialize
        from mqsp.protocol import build_unitary
        from mqsp.readoff import READOFF_TOL

        rebuilt = build_unitary(serialize.spec_from_obj(protocol)).distance(unitary)
        line["worstRebuild"] = _worst(line["worstRebuild"], rebuilt)
        return rebuilt <= READOFF_TOL

    def roundtrip(self, head, spec):
        """One protocol: `mqsp build`, then `mqsp readoff` on the printed
        unitary, tallied on the line that starts with `head`. Returns the
        two exit codes (the second None when build printed nothing)."""
        from mqsp import serialize
        from mqsp.protocol import Su2LaurentUnitary, eval_unitary, verify_structure

        line = self._line(head)
        line["exit"].setdefault("build", collections.Counter())
        line["exit"].setdefault("readoff", collections.Counter())
        (code, out, err), read = self.call_build_readoff(spec)
        line["exit"]["build"][str(code)] += 1
        if not out:
            line["failures"][err] += 1
            return code, None
        printed = json.loads(out)
        unitary = Su2LaurentUnitary(
            serialize.poly_from_records(printed["p"]), serialize.poly_from_records(printed["q"])
        )
        report = verify_structure(unitary, spec.n, spec.weight)
        line["worstDet"] = _worst(line["worstDet"], report.determinant_residual)
        off_circuit = max(
            np.abs(eval_unitary(spec, ta, tb) - unitary.matrix_at(ta, tb)).max() for ta, tb in CIRCUIT_POINTS
        )
        ok = report.overall and off_circuit <= CIRCUIT_TOL

        read_code, out, err = read
        line["exit"]["readoff"][str(read_code)] += 1
        if read_code == 0:
            ok = self._rebuild_ok(line, json.loads(out), unitary) and ok
        else:
            line["failures"][err] += 1
        line["badAnswers"] += not ok
        return code, read_code

    def run(self, head, spec, nvars):
        """One target: the Hermitian parts of spec's unitary, completed with
        --vars nvars and tallied on the line that starts with `head`.
        Returns the exit code."""
        from mqsp import serialize
        from mqsp.protocol import Su2LaurentUnitary, build_unitary, verify_structure

        u = build_unitary(spec)
        p_tilde, q_tilde = u.P.hermitian_part(), u.Q.hermitian_part()
        deg = str(spec.n) if nvars == 1 else "%d,%d" % (spec.n, spec.weight)
        code, out, err = self.call_complete(p_tilde, q_tilde, nvars, deg)

        line = self._line(head)
        line["exit"][str(code)] += 1
        if not out:
            line["failures"][err] += 1
            return code
        answer = json.loads(out)
        printed = answer["unitary"]
        unitary = Su2LaurentUnitary(
            serialize.poly_from_records(printed["p"]), serialize.poly_from_records(printed["q"])
        )
        report = verify_structure(unitary, spec.n, spec.weight)
        off_target = max(unitary.P.hermitian_part().distance(p_tilde), unitary.Q.hermitian_part().distance(q_tilde))
        ok = report.overall and off_target <= TARGET_TOL
        line["worstDet"] = _worst(line["worstDet"], report.determinant_residual)
        if code == 0:
            ok = self._rebuild_ok(line, answer["protocol"], unitary) and ok
        line["badAnswers"] += not ok
        return code

    def mirror(self, of, pairs):
        """The `mirror` line of class `of` from (exit codes, exit codes of
        the mirrored input) pairs."""
        differ = sum(codes != mirrored for codes, mirrored in pairs)
        self.mirrors.append({"class": "mirror", "of": of, "pairs": len(pairs), "exitDiffers": differ})


def build_readoff(sweep, rng, lengths, per_length):
    """`per_length` protocols of random bits and of a single oracle per
    length, each then mirrored."""
    from mqsp.protocol import ProtocolSpec, random_spec

    pairs = []
    for n in lengths:
        for kind, weight in (("random bits", None), ("single oracle", n)):
            for _ in range(per_length):
                spec = random_spec(rng, n, weight)
                codes = sweep.roundtrip({"class": "build + readoff", "protocols": kind, "n": n}, spec)
                (build, _, _), read = sweep.call_build_readoff(ProtocolSpec(tuple(1 - b for b in spec.s), spec.phases))
                pairs.append((codes, (build, None if read is None else read[0])))
    sweep.mirror("build + readoff", pairs)


def two_var(sweep, rng, count):
    """`count` targets of random bits, completed in band order."""
    from mqsp.laurent import LaurentPoly2
    from mqsp.protocol import build_unitary, random_spec

    banded = []
    for _ in range(count):
        spec = random_spec(rng, int(rng.choice(TWO_VAR_LENGTHS)))
        u = build_unitary(spec)
        p_tilde, q_tilde = u.P.hermitian_part(), u.Q.hermitian_part()
        f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
        ((_, values),) = f.real_grid_blocks((MARGIN_GRID, MARGIN_GRID), MARGIN_GRID**2)
        banded.append((_band(float(values.min())), spec))
    banded.sort(key=lambda item: item[0][0])
    pairs = []
    for (_, band), spec in banded:
        code = sweep.run({"class": "complete --vars 2", "margin": band}, spec, 2)
        u = build_unitary(spec)
        p_tilde, q_tilde = (x.hermitian_part().transposed() for x in (u.P, u.Q))
        mirrored = sweep.call_complete(p_tilde, q_tilde, 2, "%d,%d" % (spec.n, spec.n - spec.weight))[0]
        pairs.append((code, mirrored))
    sweep.mirror("complete --vars 2", pairs)


def one_var(sweep, rng, lengths, per_length):
    """`per_length` single-oracle targets of each length."""
    from mqsp.protocol import ProtocolSpec

    for n in lengths:
        for _ in range(per_length):
            phases = rng.uniform(-np.pi, np.pi, size=n + 1)
            sweep.run({"class": "complete --vars 1", "n": n}, ProtocolSpec((1,) * n, tuple(phases)), 1)


def chebyshev(sweep, degrees):
    """The target T_N of each degree N."""
    from mqsp.protocol import ProtocolSpec

    for n in degrees:
        sweep.run({"class": "complete --vars 1 on T_N", "n": n}, ProtocolSpec((1,) * n, (0.0,) * (n + 1)), 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="a small subset of each class")
    parser.add_argument("--seed", type=int, default=0, help="seed of the targets (default 0)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to import mqsp from")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from mqsp.cli import main as cli_main

    build_lengths, two_var_count, lengths, per_length, degrees = QUICK if args.quick else FULL
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sweep = Sweep(cli_main, tmp)
        two_var(sweep, rng, two_var_count)
        one_var(sweep, rng, lengths, per_length)
        chebyshev(sweep, degrees)
        build_readoff(sweep, rng, build_lengths, per_length)
    for line in sweep.lines.values():
        line.update(exit=_sorted(line["exit"]), failures=_sorted(line["failures"]))
        print(json.dumps(line), flush=True)
    for line in sweep.mirrors:
        print(json.dumps(line), flush=True)
    return 1 if any(line["badAnswers"] for line in sweep.lines.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
