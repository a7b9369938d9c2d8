"""Traced run: spans and exact counts around each layer's public functions.

The library has no tracing of its own, so this module wraps its public
functions from outside, at every name a caller looks them up by (`cli`,
`readoff` and the factor modules import `build_unitary`/`readoff` by
name). Spans (name, start, end, parent, op) are kept in memory and
written when the run ends; a layer's self time is its spans' duration
minus the time their child spans cover.

Deliberately unmeasured: `families` and the grid writers in `serialize`
(no workload spends measurable time in them).
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path). Every span name below yields a
# `<name>.self_ms` metric.
SPANS = (
    ("cli", "mqsp.cli", "main"),
    ("laurent.mul", "mqsp.laurent", "LaurentPoly2.__mul__"),
    ("laurent.mul", "mqsp.laurent", "LaurentPoly1.__mul__"),
    ("laurent.add", "mqsp.laurent", "LaurentPoly2.__add__"),
    ("laurent.add", "mqsp.laurent", "LaurentPoly1.__add__"),
    ("laurent.conj_reciprocal", "mqsp.laurent", "LaurentPoly2.conj_reciprocal"),
    ("laurent.conj_reciprocal", "mqsp.laurent", "LaurentPoly1.conj_reciprocal"),
    ("protocol.build_unitary", "mqsp.protocol", "build_unitary"),
    ("protocol.verify_structure", "mqsp.protocol", "verify_structure"),
    ("protocol.det_residual", "mqsp.protocol", "Su2LaurentUnitary.det_residual"),
    ("readoff", "mqsp.readoff", "readoff"),
    ("readoff.check_leading_slices", "mqsp.readoff", "check_leading_slices"),
    ("readoff.scan", "mqsp.readoff", "scan_leading_slices"),
    ("serialize", "mqsp.serialize", "poly_to_records"),
    ("serialize", "mqsp.serialize", "poly_from_records"),
    ("serialize", "mqsp.serialize", "poly1_from_records"),
    ("serialize", "mqsp.serialize", "spec_to_obj"),
    ("serialize", "mqsp.serialize", "spec_from_obj"),
    ("factor1d.fejer_riesz", "mqsp.factor1d", "fejer_riesz"),
    ("factor1d.complete", "mqsp.factor1d", "complete_unitary_1d"),
    ("factor2d.fourier", "mqsp.factor2d", "fourier_of_reciprocal"),
    ("factor2d.gamma", "mqsp.factor2d", "build_gamma"),
    ("factor2d.rank", "mqsp.factor2d", "rank_condition"),
    ("factor2d.extract", "mqsp.factor2d", "extract_stable_factor"),
    ("factor2d.complete", "mqsp.factor2d", "complete_unitary_2d"),
)
# Spans whose inclusive time is reported too, as `<name>.total_ms`.
TOTALS = ("cli", "protocol.build_unitary", "protocol.verify_structure", "protocol.det_residual", "readoff")
COUNTS = (
    "laurent.mul.calls",
    "laurent.mul.term_pairs",
    "readoff.calls",
    "readoff.peel_steps",
    "readoff.fail.not_mqsp",
    "readoff.fail.rebuild_mismatch",
    "serialize.records",
    "factor1d.roots",
    "factor2d.fourier.grid_cells",
    "factor2d.fourier.no_convergence",
    "factor2d.rank.unsatisfied",
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = -1
        self.counts = dict.fromkeys(COUNTS, 0)

    def open(self, name_id, now):
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.stack.append(len(self.name) - 1)

    def close(self, now):
        self.end[self.stack.pop()] = now

    def innermost(self):
        return self.name[self.stack[-1]] if self.stack else -1

    def span_ms(self, op_factor):
        """{span name: (self ms, inclusive ms)}, each span scaled by its
        op's drift factor."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        dur = dur * np.asarray(op_factor)[np.frombuffer(self.op, dtype=np.int32)]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=len(SPAN_NAMES))
        total = np.bincount(name, weights=dur, minlength=len(SPAN_NAMES))
        return {n: (float(own[i]), float(total[i])) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _counting_hooks(tracer):
    """Exact work counts, keyed by (module, attribute path): each hook gets
    the call's args and either its result or the exception it raised."""
    counts = tracer.counts
    laurent = sys.modules["mqsp.laurent"]
    polys = (laurent.LaurentPoly1, laurent.LaurentPoly2)
    fourier_id = SPAN_NAMES.index("factor2d.fourier")

    def mul(args, result, exc):
        a, b = args
        counts["laurent.mul.calls"] += 1
        counts["laurent.mul.term_pairs"] += len(a.items()) * (len(b.items()) if isinstance(b, polys) else 1)

    def readoff(args, result, exc):
        counts["readoff.calls"] += 1
        message = str(exc) if exc is not None else ""
        if "not an M-QSP unitary" in message:
            counts["readoff.fail.not_mqsp"] += 1
        elif "rebuild mismatch" in message:
            counts["readoff.fail.rebuild_mismatch"] += 1

    def peel(args, result, exc):
        counts["readoff.peel_steps"] += 1

    def to_records(args, result, exc):
        counts["serialize.records"] += len(result) if result is not None else 0

    def from_records(args, result, exc):
        counts["serialize.records"] += len(args[0]) if isinstance(args[0], list) else 0

    def roots(args, result, exc):
        # np.roots runs on z^d f(z), degree 2d, once f passed the sign check
        if exc is None or "root pairing" in str(exc):
            f = args[0]
            counts["factor1d.roots"] += 0 if f.is_zero() else 2 * f.max_exp()

    def grid(args, result, exc):
        if tracer.innermost() == fourier_id:
            counts["factor2d.fourier.grid_cells"] += args[1] ** 2

    def fourier(args, result, exc):
        if exc is not None and "no convergence" in str(exc):
            counts["factor2d.fourier.no_convergence"] += 1

    def rank(args, result, exc):
        if result is not None and not result.satisfied:
            counts["factor2d.rank.unsatisfied"] += 1

    return {
        ("mqsp.laurent", "LaurentPoly2.__mul__"): mul,
        ("mqsp.laurent", "LaurentPoly1.__mul__"): mul,
        ("mqsp.readoff", "readoff"): readoff,
        ("mqsp.readoff", "peel_once"): peel,
        ("mqsp.serialize", "poly_to_records"): to_records,
        ("mqsp.serialize", "poly_from_records"): from_records,
        ("mqsp.factor1d", "fejer_riesz"): roots,
        ("mqsp.laurent", "LaurentPoly2.eval_unit_grid"): grid,
        ("mqsp.factor2d", "fourier_of_reciprocal"): fourier,
        ("mqsp.factor2d", "rank_condition"): rank,
    }


def _wrap(fn, tracer, name_id, hook):
    """fn inside a span (unless name_id is -1), then hook(args, result, exc)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name_id >= 0:
            tracer.open(name_id, perf_counter())
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            if name_id >= 0:
                tracer.close(perf_counter())
            if hook is not None:
                hook(args, result, error)

    return wrapper


class Instrumented:
    """Context manager: wrap the loaded `mqsp` modules for `tracer`, and put
    every original back on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.patched = []

    def __enter__(self):
        hooks = _counting_hooks(self.tracer)
        targets = {(module, path): SPAN_NAMES.index(name) for name, module, path in SPANS}
        for key in hooks:
            targets.setdefault(key, -1)
        modules = [m for n, m in sys.modules.items() if n == "mqsp" or n.startswith("mqsp.")]
        for (module, path), name_id in targets.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = _wrap(original, self.tracer, name_id, hooks.get((module, path)))
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            # every module that imported the function by name
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
        return False
