"""Command-line surface: build/verify protocols, read phases back off,
complete real targets into unitaries, scan the slice-proportionality
property, and export torus grids of |P|^2.

Exit codes are stable: 0 success; 1 a structural, positivity, or rank
check failed; 2 unusable input (flags or JSON); 3 completion produced a
valid unitary whose phases could not be read off (printed with protocol
null, for one variable as for two); 4 the scan found a
counterexample (dump path printed). They are decided in `main` alone:
handlers raise, and `main` turns a handler's `_Exit` or any ValueError
(exit 2, "invalid input: ...") into the exit code and one stderr line.

The environment variable MQSP_TOLERANCE overrides the read-off tolerance
(default 1e-8); a value that is not a finite positive number is unusable
input for the commands that read it (readoff, complete, scan).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from mqsp import families, serialize
from mqsp.errors import FactorizationError, MqspError
from mqsp.factor1d import complete_unitary_1d
from mqsp.factor2d import complete_unitary_2d
from mqsp.protocol import Su2LaurentUnitary, build_unitary, verify_structure
from mqsp.readoff import readoff, readoff_tolerance, scan_leading_slices

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_PEELABLE = 3
EXIT_COUNTEREXAMPLE = 4

# --grid bounds. MAX_GRID is the largest Fourier grid; a CSV export at that
# size takes ~11 s and ~0.18 GB peak memory on a 2-vCPU VM.
MIN_GRID = 16
MAX_GRID = 4096


class _Exit(Exception):
    """A command's outcome as (exit code, stderr line); `main` reports it."""


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, "cannot read %s: %s" % (path, exc))


def _dumps(obj):
    # compact separators keep json on its C encoder; indent would not
    return json.dumps(obj, separators=(",", ":"))


def _emit(obj):
    print(_dumps(obj))


def _check_writable(path):
    """Exit 2 unless `path` can be opened for writing; creates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _Exit(EXIT_USAGE, "cannot write %s: %s" % (path, os.strerror(code)))


def _report_obj(report):
    return {
        "degreeOk": report.degree_ok,
        "inversionParityOk": report.inversion_parity_ok,
        "negationParityOk": report.negation_parity_ok,
        "determinantResidual": float(report.determinant_residual),
        "overall": report.overall,
    }


def _unitary_obj(u, n, m):
    return {
        "n": int(n),
        "weight": int(m),
        "p": serialize.poly_to_records(u.P),
        "q": serialize.poly_to_records(u.Q),
    }


def _length_and_weight(obj):
    for key in ("n", "weight"):
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("unitary file needs integer %r" % key)
    return obj["n"], obj["weight"]


def _cmd_build(args):
    obj = _load_json(args.protocol_file)
    if isinstance(obj, dict) and "p" in obj and "q" in obj:
        # verify path: a serialized unitary (possibly hand-edited) is
        # checked as-is instead of being rebuilt from phases
        u = Su2LaurentUnitary(
            serialize.poly_from_records(obj["p"]),
            serialize.poly_from_records(obj["q"]),
        )
        n, m = _length_and_weight(obj)
    else:
        spec = serialize.spec_from_obj(obj)
        u = build_unitary(spec)
        n, m = spec.n, spec.weight
    report = verify_structure(u, n, m)
    out = _unitary_obj(u, n, m)
    out["report"] = _report_obj(report)
    _emit(out)
    return EXIT_OK if report.overall else EXIT_FAIL


def _cmd_readoff(args):
    obj = _load_json(args.poly_file)
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise ValueError("unitary file needs keys p and q")
    p = serialize.poly_from_records(obj["p"])
    q = serialize.poly_from_records(obj["q"])
    try:
        result = readoff(p, q)
    except MqspError as exc:
        raise _Exit(EXIT_FAIL, "read-off failed: %s" % exc)
    out = serialize.spec_to_obj(result.spec)
    out["residual"] = float(result.residual)
    _emit(out)
    return EXIT_OK


def _parse_degrees(text, nvars):
    """(n, m) from --deg; one variable is weight m = n."""
    parts = text.split(",")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        raise ValueError("--deg expects integers, got %r" % text)
    if nvars == 1 and len(values) == 1:
        return values[0], values[0]
    if nvars == 2 and len(values) == 2:
        return values[0], values[1]
    raise ValueError(
        "--deg needs %s for --vars %d" % ("n" if nvars == 1 else "n,m", nvars)
    )


def _cmd_complete(args):
    obj = _load_json(args.poly_file)
    n, m = _parse_degrees(args.deg, args.vars)
    if not isinstance(obj, dict) or "p" not in obj:
        raise ValueError("completion file needs key p (and optionally q)")
    one_var = args.vars == 1
    read = serialize.poly1_from_records if one_var else serialize.poly_from_records
    p_tilde, q_tilde = read(obj["p"]), read(obj.get("q", []))
    try:
        if one_var:
            result = complete_unitary_1d(p_tilde, q_tilde, n)
        else:
            result = complete_unitary_2d(p_tilde, q_tilde, n, m)
    except FactorizationError as exc:
        raise _Exit(EXIT_FAIL, "completion failed: %s" % exc)
    fac = result.factorization
    # --vars 1 prints no rank report, nor does a Newton-route answer; only
    # --vars 1 names the root class, so each key set stays fixed
    rank = None if one_var else result.rank_report
    out = {
        "p": serialize.poly_to_records(fac.p),
        "residual": float(fac.residual),
        "singularValues": None if rank is None else [float(s) for s in rank.singular_values],
        "satisfied": rank is None or rank.satisfied,
        "convergenceResidual": None if rank is None else float(result.convergence_residual),
    }
    if one_var:
        out["rootClass"] = fac.root_class
    out["unitary"] = _unitary_obj(result.unitary, n, m)
    out["protocol"] = None if result.spec is None else serialize.spec_to_obj(result.spec)
    _emit(out)
    return EXIT_OK if result.spec is not None else EXIT_NOT_PEELABLE


def _cmd_scan(args):
    if args.n_max < 0 or args.trials < 0:
        raise _Exit(EXIT_USAGE, "--n-max and --trials must be nonnegative")
    if args.seed < 0:
        raise _Exit(EXIT_USAGE, "--seed must be nonnegative")
    _check_writable(args.dump)  # before the scan, not after it
    summary = scan_leading_slices(args.n_max, args.trials, args.seed)
    out = {
        "nMax": summary.n_max,
        "trials": summary.trials,
        "seed": summary.seed,
        "passes": summary.passes,
        "worstMismatch": float(summary.worst_mismatch),
        "counterexamples": len(summary.counterexamples),
    }
    if summary.counterexamples:
        spec, _ = summary.counterexamples[0]
        u = build_unitary(spec)
        dump = serialize.spec_to_obj(spec)
        dump["p"] = serialize.poly_to_records(u.P)
        dump["q"] = serialize.poly_to_records(u.Q)
        with open(args.dump, "w") as handle:
            handle.write(_dumps(dump))
        out["dumpPath"] = args.dump
        _emit(out)
        return EXIT_COUNTEREXAMPLE
    _emit(out)
    return EXIT_OK


def _parse_named(text):
    family, _, degree = text.partition(":")
    if family not in ("trivial", "xyz") or not degree:
        raise ValueError("--named expects trivial:n or xyz:n, got %r" % text)
    try:
        n = int(degree)
    except ValueError:
        raise ValueError("--named expects an integer length, got %r" % degree)
    maker = families.trivial_protocol if family == "trivial" else families.xyz_protocol
    return maker(n)


def _cmd_plot(args):
    if (args.protocol_file is None) == (args.named is None):
        raise _Exit(EXIT_USAGE, "provide exactly one of a protocol file or --named")
    if args.grid < MIN_GRID:
        raise _Exit(EXIT_USAGE, "grid size must be at least %d" % MIN_GRID)
    if args.grid > MAX_GRID:
        raise _Exit(EXIT_USAGE, "grid size must be at most %d" % MAX_GRID)
    if args.named is not None:
        spec = _parse_named(args.named).spec
    else:
        spec = serialize.spec_from_obj(_load_json(args.protocol_file))
    u = build_unitary(spec)
    out = args.out or ("grid.%s" % args.format)
    _check_writable(out)  # before the grid is evaluated
    grid = serialize.grid_from_poly(u.P, args.grid)
    if args.format == "csv":
        serialize.write_grid_csv(grid, out)
    else:
        serialize.write_grid_pgm(grid, out)
    print(out)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: each add_argument makes a
    help formatter, which asks for the terminal size, so a fresh tree per
    call would cost more than a small command."""
    parser = argparse.ArgumentParser(
        prog="mqsp",
        description="Multivariable quantum signal processing toolkit.",
        epilog="Set MQSP_TOLERANCE to a finite positive number to override the read-off tolerance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a protocol unitary and verify it")
    build.add_argument("protocol_file", help="protocol JSON ({s, phases}) or a serialized unitary to re-verify")
    build.set_defaults(handler=_cmd_build)

    read = sub.add_parser("readoff", help="recover phases from a serialized unitary")
    read.add_argument("poly_file", help="unitary JSON with keys p, q")
    read.set_defaults(handler=_cmd_readoff)

    comp = sub.add_parser("complete", help="complete real targets to a unitary")
    comp.add_argument("poly_file", help="JSON with key p and optionally q")
    comp.add_argument("--vars", type=int, choices=(1, 2), required=True)
    comp.add_argument("--deg", required=True, help="n for --vars 1, n,m for --vars 2")
    comp.set_defaults(handler=_cmd_complete)

    scan = sub.add_parser("scan", help="randomized scan of slice proportionality")
    scan.add_argument("--n-max", type=int, default=6)
    scan.add_argument("--trials", type=int, default=1000)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--dump", default="counterexample.json",
                      help="where to write a counterexample, if one appears")
    scan.set_defaults(handler=_cmd_scan)

    plot = sub.add_parser("plot", help="export |P|^2 on a torus grid")
    plot.add_argument("protocol_file", nargs="?", help="protocol JSON ({s, phases})")
    plot.add_argument("--named", help="trivial:n or xyz:n instead of a file")
    plot.add_argument("--grid", type=int, default=64, help="samples per axis (16..4096)")
    plot.add_argument("--format", choices=("csv", "pgm"), default="csv")
    plot.add_argument("--out", help="output path (default grid.<format>)")
    plot.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None):
    """Run one command; the only place an exception becomes an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command in ("readoff", "complete", "scan"):
            readoff_tolerance()
        return args.handler(args)
    except _Exit as exc:
        code, message = exc.args
    except ValueError as exc:
        code, message = EXIT_USAGE, "invalid input: %s" % exc
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
