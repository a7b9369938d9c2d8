"""Timing loop: fresh-import set-up, drift-corrected op timing, metrics.

A shared 2-vCPU VM changes speed under a run (there the probe
below read 4.7 to 8.7 ms as medians of whole runs, and flips between two
states within runs) and exposes no hardware counters. So a fixed
reference probe runs between every two ops, and each op's time is scaled
to a reference machine speed:

    corrected = raw * PROBE_REF_MS / mean(probes around the op)

where the probes around an op are the two next to it plus any taken
within half its duration of it (see drift_factors).

The probe is program-independent dict/complex work, close to what the
library's Laurent arithmetic does, and never imports `mqsp`. Raw figures
are kept as `machine.*` diagnostics. Set-up, which is mostly importing
(code generation and compilation for dataclasses), is scaled by the sum of
that probe and a class-creation probe instead (see measure_setup).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from workloads import WrongAnswer

PROBE_ITERATIONS = 20000
# Untimed lead-in, so the timed part sees the machine rather than the
# cache and allocator state the previous op left behind.
PROBE_WARMUP = 2000
_PROBE_STEP = complex(math.cos(0.7), math.sin(0.7))
CLASS_PROBE_CLASSES = 12
SETUP_REPS = 9
# The warm-up op of set-up is made from this seed, not the run's, so every
# run sets up on the same input.
WARMUP_SEED = 20220512
TAIL_BEYOND = 10


def probe_ms():
    """Time of a fixed dict/complex accumulate, in ms."""
    acc = {}
    z = 1.0 + 0.0j
    start = 0.0
    for i in range(PROBE_WARMUP + PROBE_ITERATIONS):
        if i == PROBE_WARMUP:
            start = time.perf_counter()
        key = (i & 63, (i >> 6) & 7)
        z = z * _PROBE_STEP
        acc[key] = acc.get(key, 0.0) + z
    return (time.perf_counter() - start) * 1e3


def class_probe_ms():
    """Time to create fixed frozen dataclasses, in ms: the code generation
    and compilation that dominate importing a module of dataclasses."""
    start = time.perf_counter()
    for i in range(CLASS_PROBE_CLASSES):
        dataclasses.make_dataclass(
            "Probe%d" % i, [("a", int), ("b", float), ("c", complex), ("d", tuple)], frozen=True
        )
    return (time.perf_counter() - start) * 1e3


def setup_probe_ms():
    return probe_ms() + class_probe_ms()


@dataclass(frozen=True)
class Call:
    code: int
    out: str
    err: str
    seconds: float


class Program:
    """In-process `mqsp` command; each call is timed on its own. `main` is
    looked up per call, so a traced run sees the wrapped entry."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = -1
                err.write("uncaught: %s\n" % traceback.format_exc().splitlines()[-1])
            seconds = time.perf_counter() - start
        return Call(code, out.getvalue(), err.getvalue(), seconds)


def fresh_import(src_dir):
    """Import `mqsp.cli` from src_dir as if for the first time."""
    for name in [m for m in sys.modules if m == "mqsp" or m.startswith("mqsp.")]:
        del sys.modules[name]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    cli = importlib.import_module("mqsp.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src_dir:
        raise RuntimeError("mqsp imported from %s, not %s" % (cli.__file__, src_dir))
    return cli


@contextlib.contextmanager
def restored_modules():
    """Put back whatever `mqsp` modules were loaded before (for callers that
    run the benchmark inside a process that already imported the library)."""
    saved = {m: mod for m, mod in sys.modules.items() if m == "mqsp" or m.startswith("mqsp.")}
    try:
        yield
    finally:
        for name in [m for m in sys.modules if m == "mqsp" or m.startswith("mqsp.")]:
            del sys.modules[name]
        sys.modules.update(saved)


@dataclass
class Measured:
    ok: list
    kinds: list
    raw_s: np.ndarray
    factor: np.ndarray
    probes: list

    @property
    def corrected_s(self):
        return self.raw_s * self.factor


def run_ops(workload, ops, program, workdir, probe_ref, on_op=None):
    """Run ops in order with one probe between neighbours; on_op(i) is told
    which op is about to run (the tracer tags its spans with it)."""
    probes, stamps, windows = [probe_ms()], [time.perf_counter()], []
    ok, kinds, raw = [], [], []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        start = time.perf_counter()
        try:
            outcome = workload.run_op(op, program, workdir)
        except (KeyError, TypeError, ValueError) as exc:
            raise WrongAnswer("malformed answer to op %d: %r" % (i, exc), attempted=i + 1)
        except WrongAnswer as exc:
            exc.attempted = i + 1
            raise
        end = time.perf_counter()
        windows.append((start - (end - start) / 2, end + (end - start) / 2))
        ok.append(outcome.ok)
        kinds.append(outcome.kind)
        raw.append(outcome.seconds)
        stamps.append(time.perf_counter())
        probes.append(probe_ms())
    return Measured(ok, kinds, np.array(raw), drift_factors(probes, stamps, windows, probe_ref), probes)


def drift_factors(probes, stamps, windows, probe_ref):
    """probe_ref / mean of the probes taken within half an op's duration of
    it, and at least the two next to it. For short ops that is the two
    neighbours; a long op gets the average speed of a stretch as long as
    itself, which cut the spread of repeated 2.4 s ops from 17% (two
    probes) to 10.5%."""
    probes, stamps = np.array(probes), np.array(stamps)
    factors = []
    for i, (lo, hi) in enumerate(windows):
        near = (stamps >= lo) & (stamps <= hi)
        near[i] = near[i + 1] = True
        factors.append(probe_ref / probes[near].mean())
    return np.array(factors)


def measure_setup(workload, src_dir, workdir, setup_probe_ref):
    """Median over SETUP_REPS of: fresh import of `mqsp`, then one warm-up
    op (not counted among the run's ops) on a fixed input. Each repetition is scaled by
    setup_probe_ref / mean(set-up probes on either side); a probe of both
    kinds of work tracked a shared 2-vCPU VM better than either alone
    (spread of the median over 16 processes 0.065 on `roundtrip`, 0.038 on
    `scan`, against 0.098 and 0.045 with the op probe alone, 0.19 raw).
    Returns (setup_s, cli module)."""
    times, probes = [], [setup_probe_ms()]
    for _ in range(SETUP_REPS):
        gc.collect()  # each repetition starts from the same heap
        start = time.perf_counter()
        cli = fresh_import(src_dir)
        workload.run_op(workload.warmup_op(np.random.default_rng(WARMUP_SEED)), Program(cli), workdir)
        times.append(time.perf_counter() - start)
        probes.append(setup_probe_ms())
    corrected = [t * setup_probe_ref / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
    return statistics.median(corrected), cli


def tail(values_ms):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND ops beyond it, or the maximum for short runs."""
    ordered = sorted(values_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured, setup_s):
    corrected_ms = measured.corrected_s * 1e3
    ok = sum(measured.ok)
    tail_ms, _ = tail(corrected_ms)
    return {
        "setup_s": setup_s,
        "ok_per_s": ok / float(measured.corrected_s.sum()),
        "op_p50_ms": float(np.median(corrected_ms)),
        "op_tail_ms": float(tail_ms),
        "ok_frac": ok / len(measured.ok),
        "peak_rss_mb": peak_rss_mb(),
    }


def machine(measured):
    q1, _, q3 = statistics.quantiles(measured.probes, n=4)
    return {
        "machine.probe_ms": statistics.median(measured.probes),
        "machine.probe_iqr_ms": q3 - q1,
        "machine.raw_ok_per_s": sum(measured.ok) / float(measured.raw_s.sum()),
    }
