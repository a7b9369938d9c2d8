"""The three benchmark workloads: seeded inputs, one op each, answer checks.

Every op goes through the public `mqsp` command (`mqsp.cli.main`) on files
written here, and only the calls into it are timed. Inputs are made and
answers are checked with this module's own numpy code: a dense coefficient
builder for the targets and a 2x2 circuit product at fixed torus points for
the checks. Neither touches `mqsp.laurent` or `mqsp.protocol`, so a wrong
answer from the library cannot also corrupt the reference it is checked
against.

An op is ok when its answer verified or it ended in a documented rejection;
a wrong answer behind a success exit code raises WrongAnswer, which fails
the whole run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Torus points (theta_a, theta_b) used by every answer check; generic, so a
# wrong phase or coefficient cannot vanish at all of them.
CHECK_POINTS = np.array(
    [(0.3, 1.1), (2.0, -0.7), (-1.3, 2.9), (0.77, 0.123), (-2.5, -1.9), (1.6, 0.4)]
)

# Largest pointwise error of a freshly built unitary against the circuit
# (exact product up to rounding).
BUILD_TOL = 1e-9
# Per-coefficient rebuild residual the library guarantees for a read-off
# (its default MQSP_TOLERANCE); summed over the records it bounds the
# pointwise error of a recovered protocol.
REBUILD_TOL = 1e-8
# |P|^2 + |Q|^2 - 1 allowed for a completion: the factor is verified to
# 1e-6 relative on a torus grid, checked here off-grid with 10x margin.
UNITARY_TOL = 1e-5
# Re P must equal the target up to the parity-projection dust.
TARGET_TOL = 1e-8

# --seconds sets each op list's size through these, never through a clock:
# round(s / ROUNDTRIP_PASS_S) passes, round(s * SCAN_OPS_PER_S) scan ops,
# round(s / COMPLETE_PASS_S) passes. A roundtrip pass is ~10 s of corrected
# op time; scan and complete run shorter than s, which they are steady at.
ROUNDTRIP_LENGTHS = tuple(range(8, 65, 2))
ROUNDTRIP_PASS_S = 10.0
SCAN_N_MAX = 6
SCAN_TRIALS = 100
SCAN_OPS_PER_S = 5
COMPLETE_PASS_S = 6.0
COMPLETE_ONE_VAR_LENGTHS = tuple(range(4, 33, 2))
# Single-oracle targets per length per pass. They make the near-singular
# op about half of a pass's time rather than 85%, since its 2.4 s of FFT
# work tracks the drift probe least well.
COMPLETE_ONE_VAR_REPEATS = 5
COMPLETE_TWO_VAR_LENGTHS = (2, 3, 4)
# Positivity margin min f of f = 1 - Re(P)^2 - Re(Q)^2 on a 256^2 torus
# grid (it classified 300 random targets as a 1024^2 grid did). Measured on
# 60 random targets: all 23 below 1e-4 took the slow Fourier path (2.0-2.8 s,
# ~1 GB, 21 "no convergence"); all 37 above 6.9e-4 ended within 0.5 s; in
# between, outcomes flip between 0.5 s and 2.5 s. Of 2000 random targets
# 25% fall below NEAR_SINGULAR_MARGIN and 9.5% in the flipping band up to
# CLEAR_MARGIN, which is left out. Each pass holds one near-singular target
# and two clear ones, so a run's cost, and whether its tail percentile lands
# on a slow target, does not depend on what its seed draws.
NEAR_SINGULAR_MARGIN = 1e-4
CLEAR_MARGIN = 3e-4
MARGIN_GRID = 256
# The warm-up target is well inside the positive region, so set-up warms
# up on a quick completion rather than a slow Fourier path.
WARMUP_MARGIN = 0.1

DOCUMENTED_REJECTIONS = ("rank condition not satisfied", "f not strictly positive")


class WrongAnswer(Exception):
    """The program reported success but its answer does not check out."""

    def __init__(self, message, attempted=1):
        super().__init__(message)
        self.attempted = attempted


@dataclass(frozen=True)
class Outcome:
    ok: bool
    kind: str
    seconds: float


# -- independent reference ---------------------------------------------------


def circuit(s, phases, points=CHECK_POINTS):
    """Top row (P, Q) of the protocol circuit at torus points: Z(phi_0), then
    per bit the oracle iterate [[cos, i sin], [i sin, cos]] of theta_a
    (bit 1) or theta_b (bit 0) followed by Z(phi_k)."""
    ta, tb = points[:, 0], points[:, 1]
    u = np.zeros((len(points), 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(1j * phases[0])
    u[:, 1, 1] = np.exp(-1j * phases[0])
    for bit, phi in zip(s, phases[1:]):
        theta = ta if bit else tb
        w = np.empty_like(u)
        w[:, 0, 0] = w[:, 1, 1] = np.cos(theta)
        w[:, 0, 1] = w[:, 1, 0] = 1j * np.sin(theta)
        u = u @ w
        u[:, :, 0] *= np.exp(1j * phi)
        u[:, :, 1] *= np.exp(-1j * phi)
    return u[:, 0, 0], u[:, 0, 1]


def eval_records(records, points=CHECK_POINTS):
    """Value at torus points of a {j, k, re, im} record list."""
    if not records:
        return np.zeros(len(points), dtype=complex)
    j = np.array([r["j"] for r in records], dtype=float)
    k = np.array([r["k"] for r in records], dtype=float)
    c = np.array([complex(r["re"], r["im"]) for r in records])
    phase = np.outer(points[:, 0], j) + np.outer(points[:, 1], k)
    return np.exp(1j * phase) @ c


def coefficient_arrays(s, phases):
    """Laurent coefficients of P and Q by the same left-to-right product as
    the circuit; index [m + j, (n - m) + k] holds a^j b^k, m = sum(s)."""
    m, r = sum(s), len(s) - sum(s)
    p = np.zeros((2 * m + 1, 2 * r + 1), dtype=complex)
    q = np.zeros_like(p)
    p[m, r] = np.exp(1j * phases[0])
    for bit, phi in zip(s, phases[1:]):
        # the degree in a variable never exceeds its query count, so the
        # shifts below never wrap around
        axis = 0 if bit else 1
        up_p, dn_p = np.roll(p, 1, axis), np.roll(p, -1, axis)
        up_q, dn_q = np.roll(q, 1, axis), np.roll(q, -1, axis)
        # right-multiplying by the iterate: x = (a + 1/a)/2, y = (a - 1/a)/2
        p, q = (up_p + dn_p + up_q - dn_q) / 2, (up_p - dn_p + up_q + dn_q) / 2
        p *= np.exp(1j * phi)
        q *= np.exp(-1j * phi)
    return p, q


def real_part_records(coeffs):
    """Records of the Hermitian part (the real part on the torus)."""
    m, r = coeffs.shape[0] // 2, coeffs.shape[1] // 2
    herm = (coeffs + coeffs[::-1, ::-1].conj()) / 2
    return [
        {"j": int(a - m), "k": int(b - r), "re": float(herm[a, b].real), "im": float(herm[a, b].imag)}
        for a, b in zip(*np.nonzero(herm))
    ]


def torus_values(coeffs, grid):
    """Values on the grid theta = 2 pi r / grid of a coefficient array
    from coefficient_arrays, by zero-padded inverse FFT."""
    m, r = coeffs.shape[0] // 2, coeffs.shape[1] // 2
    table = np.zeros((grid, grid), dtype=complex)
    table[np.ix_(np.arange(-m, m + 1) % grid, np.arange(-r, r + 1) % grid)] = coeffs
    return grid * grid * np.fft.ifft2(table)


def positivity_margin(p, q, grid=MARGIN_GRID):
    """min over a torus grid of f = 1 - Re(P)^2 - Re(Q)^2."""
    return float(np.min(1.0 - torus_values(p, grid).real ** 2 - torus_values(q, grid).real ** 2))


def _random_protocol(rng, n, single_oracle=False):
    if single_oracle:
        s = [1] * n
    else:
        s = [int(b) for b in rng.integers(0, 2, size=n)]
    phases = [float(x) for x in rng.uniform(-math.pi, math.pi, size=n + 1)]
    return s, phases


# -- checks --------------------------------------------------------------------


def _max_err(a, b):
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def check_unitary_matches(unitary, s, phases, tol, what):
    """The serialized unitary's P, Q agree with the circuit of (s, phases)."""
    p_ref, q_ref = circuit(s, phases)
    err = max(
        _max_err(eval_records(unitary["p"]), p_ref),
        _max_err(eval_records(unitary["q"]), q_ref),
    )
    if not err <= tol:
        raise WrongAnswer("%s: |U - circuit| = %.3e > %.1e" % (what, err, tol))


def rebuild_tol(unitary):
    return REBUILD_TOL * (len(unitary["p"]) + len(unitary["q"])) + 1e-12


def check_protocol_reproduces(protocol, unitary, what):
    """A returned protocol's circuit reproduces the unitary it came from."""
    s, phases = protocol["s"], protocol["phases"]
    if len(phases) != len(s) + 1:
        raise WrongAnswer("%s: %d phases for %d bits" % (what, len(phases), len(s)))
    check_unitary_matches(unitary, s, phases, rebuild_tol(unitary), what)


def check_completion(out, target):
    """Unitarity, real parts equal to the targets, and protocol (if any)."""
    unitary = out["unitary"]
    p = eval_records(unitary["p"])
    q = eval_records(unitary["q"])
    unit_err = _max_err(np.abs(p) ** 2 + np.abs(q) ** 2, np.ones(len(p)))
    if not unit_err <= UNITARY_TOL:
        raise WrongAnswer("completion: |P|^2+|Q|^2-1 = %.3e" % unit_err)
    real_err = max(
        _max_err(p.real, eval_records(target["p"]).real),
        _max_err(q.real, eval_records(target["q"]).real),
    )
    if not real_err <= TARGET_TOL:
        raise WrongAnswer("completion: real part off target by %.3e" % real_err)
    if out.get("protocol") is not None:
        check_protocol_reproduces(out["protocol"], unitary, "completion protocol")


# -- ops -----------------------------------------------------------------------


def _parse(call, what):
    try:
        return json.loads(call.out)
    except ValueError:
        raise WrongAnswer("%s: exit %d without a JSON answer" % (what, call.code))


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return path


def _failure_kind(prefix, call):
    message = call.err.strip().splitlines()[-1] if call.err.strip() else ""
    reason = message.split(": ", 1)[-1] if message else "exit %d" % call.code
    return "%s: %s" % (prefix, reason)


class Roundtrip:
    """`mqsp build p.json` then `mqsp readoff u.json` on a random protocol.

    Lengths are every even n in 8..64, shuffled, once per pass: the
    large-polynomial regime, where build and verify cost grows fastest and
    read-off fails on valid input from n ~ 24 up.
    """

    name = "roundtrip"

    def make_ops(self, rng, seconds, lengths=ROUNDTRIP_LENGTHS):
        passes = max(1, round(seconds / ROUNDTRIP_PASS_S))
        ops = []
        for _ in range(passes):
            for n in rng.permutation(lengths):
                ops.append(_random_protocol(rng, int(n)))
        return ops

    def warmup_op(self, rng):
        return _random_protocol(rng, 16)

    def run_op(self, op, program, workdir):
        s, phases = op
        build = program(["build", _write(workdir, "protocol.json", {"s": s, "phases": phases})])
        if build.code != 0:
            return Outcome(False, _failure_kind("build", build), build.seconds)
        unitary = _parse(build, "build")
        if (unitary["n"], unitary["weight"]) != (len(s), sum(s)) or not unitary["report"]["overall"]:
            raise WrongAnswer("build: exit 0 with header %r" % {k: unitary[k] for k in ("n", "weight", "report")})
        check_unitary_matches(unitary, s, phases, BUILD_TOL, "build")
        path = os.path.join(workdir, "unitary.json")
        with open(path, "w") as handle:
            handle.write(build.out)
        read = program(["readoff", path])
        seconds = build.seconds + read.seconds
        if read.code != 0:
            return Outcome(False, _failure_kind("readoff", read), seconds)
        recovered = _parse(read, "readoff")
        if not recovered["residual"] <= REBUILD_TOL:
            raise WrongAnswer("readoff: exit 0 with residual %r" % recovered["residual"])
        check_protocol_reproduces(recovered, unitary, "readoff")
        return Outcome(True, "ok", seconds)


class Scan:
    """`mqsp scan --n-max 6 --trials 100 --seed k`, k from the run's seed.

    Tiny polynomials and thousands of small multiplies per op: guards
    against a backend that speeds up large inputs while per-call overhead
    slows small ones. Never enters read-off peeling or factorization.
    """

    name = "scan"

    def make_ops(self, rng, seconds, trials=SCAN_TRIALS):
        count = max(1, round(seconds * SCAN_OPS_PER_S))
        return [(int(k), trials) for k in rng.integers(0, 2**31, size=count)]

    def warmup_op(self, rng):
        return (int(rng.integers(0, 2**31)), SCAN_TRIALS)

    def run_op(self, op, program, workdir):
        seed, trials = op
        argv = ["scan", "--n-max", str(SCAN_N_MAX), "--trials", str(trials), "--seed", str(seed),
                "--dump", os.path.join(workdir, "counterexample.json")]
        call = program(argv)
        if call.code != 0:
            return Outcome(False, _failure_kind("scan", call), call.seconds)
        out = _parse(call, "scan")
        expect = {"nMax": SCAN_N_MAX, "trials": trials, "seed": seed, "passes": trials, "counterexamples": 0}
        got = {key: out[key] for key in expect}
        if got != expect:
            raise WrongAnswer("scan: exit 0 with %r" % got)
        return Outcome(True, "ok", call.seconds)


class Complete:
    """`mqsp complete` on the real parts of protocol unitaries.

    Per pass: five single-oracle targets (`--vars 1`) for every even n in
    4..32, and three two-variable targets (`--vars 2`, n in 2..4): one with
    positivity margin below NEAR_SINGULAR_MARGIN, two above CLEAR_MARGIN.
    The only workload that reaches the Fejer-Riesz and Gamma-rank
    factorizations.
    """

    name = "complete"

    def make_ops(self, rng, seconds, near_per_pass=1, one_var_lengths=COMPLETE_ONE_VAR_LENGTHS):
        passes = max(1, round(seconds / COMPLETE_PASS_S))
        ops = [self._target(1, _random_protocol(rng, n, single_oracle=True))[0]
               for n in one_var_lengths for _ in range(passes * COMPLETE_ONE_VAR_REPEATS)]
        ops += self._two_var(rng, near=near_per_pass * passes, clear=2 * passes)
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup_op(self, rng):
        while True:
            target, margin = self._two_var_target(rng)
            if margin >= WARMUP_MARGIN:
                return target

    def _two_var(self, rng, near, clear):
        picked = {True: [], False: []}
        want = {True: near, False: clear}
        while len(picked[True]) < near or len(picked[False]) < clear:
            target, margin = self._two_var_target(rng)
            is_near = margin < NEAR_SINGULAR_MARGIN
            if (is_near or margin >= CLEAR_MARGIN) and len(picked[is_near]) < want[is_near]:
                picked[is_near].append(target)
        return picked[True] + picked[False]

    def _two_var_target(self, rng):
        protocol = _random_protocol(rng, int(rng.choice(COMPLETE_TWO_VAR_LENGTHS)))
        target, coeffs = self._target(2, protocol)
        return target, positivity_margin(*coeffs)

    def _target(self, nvars, protocol):
        s, phases = protocol
        p, q = coefficient_arrays(s, phases)
        deg = str(len(s)) if nvars == 1 else "%d,%d" % (len(s), sum(s))
        return {"vars": nvars, "deg": deg, "p": real_part_records(p), "q": real_part_records(q)}, (p, q)

    def run_op(self, op, program, workdir):
        path = _write(workdir, "target.json", {"p": op["p"], "q": op["q"]})
        call = program(["complete", path, "--vars", str(op["vars"]), "--deg", op["deg"]])
        if call.code == 0 or (call.code == 3 and call.out):
            check_completion(_parse(call, "complete"), op)
            return Outcome(True, "ok" if call.code == 0 else "ok: valid but not peelable", call.seconds)
        kind = _failure_kind("complete", call)
        return Outcome(kind.endswith(DOCUMENTED_REJECTIONS), kind, call.seconds)


WORKLOADS = {w.name: w for w in (Roundtrip(), Scan(), Complete())}
