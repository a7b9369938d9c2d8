"""Command-line surface: build/verify protocols, read phases back off,
complete real targets into unitaries, scan the slice-proportionality
property, and export torus grids of |P|^2.

Exit codes are stable: 0 success; 1 a structural, positivity, or rank
check failed; 2 unusable input (flags or JSON); 3 completion produced a
valid unitary whose phases could not be read off; 4 the scan found a
counterexample (dump path printed). The environment variable
MQSP_TOLERANCE overrides the read-off tolerance (default 1e-8); a value
that is not a finite positive number is unusable input for the commands
that read it (readoff, complete, scan).
"""

from __future__ import annotations

import argparse
import json
import sys

from mqsp import families, serialize
from mqsp.errors import (
    FactorizationError,
    MqspError,
    ReadoffError,
    VerificationError,
)
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


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _emit(obj):
    print(json.dumps(obj, indent=2))


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
    try:
        obj = _load_json(args.protocol_file)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, "cannot read %s: %s" % (args.protocol_file, exc))
    try:
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
    except ValueError as exc:
        return _fail(EXIT_USAGE, "invalid input: %s" % exc)
    report = verify_structure(u, n, m)
    out = _unitary_obj(u, n, m)
    out["report"] = _report_obj(report)
    _emit(out)
    return EXIT_OK if report.overall else EXIT_FAIL


def _cmd_readoff(args):
    try:
        obj = _load_json(args.poly_file)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, "cannot read %s: %s" % (args.poly_file, exc))
    try:
        if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
            raise ValueError("unitary file needs keys p and q")
        p = serialize.poly_from_records(obj["p"])
        q = serialize.poly_from_records(obj["q"])
    except ValueError as exc:
        return _fail(EXIT_USAGE, "invalid input: %s" % exc)
    try:
        result = readoff(p, q)
    except MqspError as exc:
        return _fail(EXIT_FAIL, "read-off failed: %s" % exc)
    out = serialize.spec_to_obj(result.spec)
    out["residual"] = float(result.residual)
    _emit(out)
    return EXIT_OK


def _parse_degrees(text, nvars):
    parts = text.split(",")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        raise ValueError("--deg expects integers, got %r" % text)
    if nvars == 1 and len(values) == 1:
        return values[0], None
    if nvars == 2 and len(values) == 2:
        return values[0], values[1]
    raise ValueError(
        "--deg needs %s for --vars %d" % ("n" if nvars == 1 else "n,m", nvars)
    )


def _complete_1d(obj, n):
    p_tilde = serialize.poly1_from_records(obj.get("p", []), var="a")
    q_tilde = serialize.poly1_from_records(obj.get("q", []), var="a")
    try:
        result = complete_unitary_1d(p_tilde, q_tilde, n)
    except FactorizationError as exc:
        return _fail(EXIT_FAIL, "completion failed: %s" % exc)
    except (ReadoffError, VerificationError) as exc:
        return _fail(EXIT_NOT_PEELABLE, "completion valid but not peelable: %s" % exc)
    fac = result.factorization
    _emit(
        {
            "p": serialize.poly_to_records(fac.g.embed("a")),
            "residual": float(fac.residual),
            "singularValues": None,
            "satisfied": True,
            "convergenceResidual": None,
            "rootClass": fac.root_class,
            "unitary": _unitary_obj(result.unitary, n, n),
            "protocol": serialize.spec_to_obj(result.spec),
        }
    )
    return EXIT_OK


def _complete_2d(obj, n, m):
    p_tilde = serialize.poly_from_records(obj.get("p", []))
    q_tilde = serialize.poly_from_records(obj.get("q", []))
    try:
        result = complete_unitary_2d(p_tilde, q_tilde, n, m)
    except FactorizationError as exc:
        return _fail(EXIT_FAIL, "completion failed: %s" % exc)
    fac, rank = result.factorization, result.rank_report
    _emit(
        {
            "p": serialize.poly_to_records(fac.p),
            "residual": float(fac.residual),
            "singularValues": [float(s) for s in rank.singular_values],
            "satisfied": rank.satisfied,
            "convergenceResidual": float(fac.convergence_residual),
            "unitary": _unitary_obj(result.unitary, n, m),
            "protocol": serialize.spec_to_obj(result.spec) if result.spec else None,
        }
    )
    return EXIT_OK if result.spec is not None else EXIT_NOT_PEELABLE


def _cmd_complete(args):
    try:
        obj = _load_json(args.poly_file)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, "cannot read %s: %s" % (args.poly_file, exc))
    try:
        n, m = _parse_degrees(args.deg, args.vars)
        if not isinstance(obj, dict) or "p" not in obj:
            raise ValueError("completion file needs key p (and optionally q)")
        if args.vars == 1:
            return _complete_1d(obj, n)
        return _complete_2d(obj, n, m)
    except ValueError as exc:
        return _fail(EXIT_USAGE, "invalid input: %s" % exc)


def _cmd_scan(args):
    if args.n_max < 0 or args.trials < 0:
        return _fail(EXIT_USAGE, "--n-max and --trials must be nonnegative")
    try:
        summary = scan_leading_slices(args.n_max, args.trials, args.seed)
    except ValueError as exc:
        return _fail(EXIT_USAGE, "invalid input: %s" % exc)
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
            json.dump(dump, handle, indent=2)
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
        return _fail(EXIT_USAGE, "provide exactly one of a protocol file or --named")
    if args.grid < MIN_GRID:
        return _fail(EXIT_USAGE, "grid size must be at least %d" % MIN_GRID)
    if args.grid > MAX_GRID:
        return _fail(EXIT_USAGE, "grid size must be at most %d" % MAX_GRID)
    if args.named is not None:
        try:
            spec = _parse_named(args.named).spec
        except ValueError as exc:
            return _fail(EXIT_USAGE, "invalid input: %s" % exc)
    else:
        try:
            spec = serialize.spec_from_obj(_load_json(args.protocol_file))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            return _fail(EXIT_USAGE, "cannot read protocol: %s" % exc)
    try:
        u = build_unitary(spec)
    except ValueError as exc:
        return _fail(EXIT_USAGE, "invalid input: %s" % exc)
    out = args.out or ("grid.%s" % args.format)
    try:  # fail on an unwritable path before the grid is evaluated
        open(out, "w").close()
    except OSError as exc:
        return _fail(EXIT_USAGE, "cannot write %s: %s" % (out, exc))
    grid = serialize.grid_from_poly(u.P, args.grid)
    if args.format == "csv":
        serialize.write_grid_csv(grid, out)
    else:
        serialize.write_grid_pgm(grid, out)
    print(out)
    return EXIT_OK


def build_parser():
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command in ("readoff", "complete", "scan"):
        try:
            readoff_tolerance()
        except ValueError as exc:
            return _fail(EXIT_USAGE, "invalid input: %s" % exc)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
