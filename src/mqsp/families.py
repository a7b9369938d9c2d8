"""Named protocol families with closed-form polynomials, and the two-angle
discrimination demonstration they enable.

The trivial family alternates the two oracles with all phases zero; its
polynomials are Chebyshev combinations supported on the diagonal (functions
of the product ab). The xyz family alternates phases +-pi/4, which conjugates
the X-rotations into Y-rotations and produces transforms of the product
cos(theta_a)cos(theta_b). With three repetitions the xyz transition
probability separates two promise classes of angle pairs deterministically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from mqsp.laurent import LaurentPoly2
from mqsp.protocol import (
    X_A,
    X_B,
    Y_A,
    Y_B,
    ProtocolSpec,
    Su2LaurentUnitary,
    eval_unitary,
)

MAX_HALF_LENGTH = 8  # protocols have length 2n
PROMISE_TOL = 1e-12
DISCRIMINATION_REPS = 3

CASE_ONE_POINTS = (
    (0.0, math.pi / 2),
    (0.0, -math.pi / 2),
    (math.pi / 2, 0.0),
    (-math.pi / 2, 0.0),
)


def _chebyshev(degree, x, first):
    """Iterate c_{k+1} = 2 x c_k - c_{k-1} from c_0 = 1 and c_1 = `first`."""
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    previous = LaurentPoly2.one() if isinstance(x, LaurentPoly2) else 1.0
    if degree == 0:
        return previous
    current = first
    for _ in range(degree - 1):
        previous, current = current, 2 * x * current - previous
    return current


def chebyshev_t(degree, x):
    """First-kind Chebyshev polynomial of `x` (scalar or LaurentPoly2)."""
    return _chebyshev(degree, x, x)


def chebyshev_u(degree, x):
    """Second-kind Chebyshev polynomial of `x` (scalar or LaurentPoly2)."""
    return _chebyshev(degree, x, 2 * x)


@dataclass(frozen=True)
class NamedProtocol:
    """A protocol spec together with its independently built closed form."""

    spec: ProtocolSpec
    closed_form: Su2LaurentUnitary


def _check_half_length(n):
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_HALF_LENGTH:
        raise ValueError("protocol length 2n exceeds %d" % (2 * MAX_HALF_LENGTH))
    return n


def trivial_protocol(n):
    """Alternating-oracle protocol of length 2n with all phases zero.

    Closed form: P = T_n(x_a) T_n(x_b) + y_a y_b U_{n-1}(x_a) U_{n-1}(x_b),
    Q = x_a y_b T_n(x_a)... built from Chebyshev recurrences; both P and Q
    are functions of the product ab alone (diagonal support).
    """
    n = _check_half_length(n)
    spec = ProtocolSpec(s=(0, 1) * n, phases=(0.0,) * (2 * n + 1))
    t_a, t_b = chebyshev_t(n, X_A), chebyshev_t(n, X_B)
    u_a, u_b = chebyshev_u(n - 1, X_A), chebyshev_u(n - 1, X_B)
    p = t_a * t_b + Y_A * Y_B * u_a * u_b
    q = Y_B * t_a * u_b + Y_A * t_b * u_a
    return NamedProtocol(spec=spec, closed_form=Su2LaurentUnitary(p, q))


def xyz_protocol(n):
    """Length-2n protocol with alternating phases +pi/4, -pi/4, ..., +pi/4.

    The phase sandwich turns each X-rotation into a Y-rotation, so the
    polynomials are Chebyshev transforms of the product x_a x_b, up to the
    overall phase e^{i pi/4} left by the unpaired final phase:
    P = e^{i pi/4} (T_n(x_a x_b) + i y_a y_b U_{n-1}(x_a x_b)) and
    Q = e^{i pi/4} (y_a x_b - i x_a y_b) U_{n-1}(x_a x_b).
    """
    n = _check_half_length(n)
    phases = tuple(math.pi / 4 * (-1) ** k for k in range(2 * n + 1))
    spec = ProtocolSpec(s=(1, 0) * n, phases=phases)
    prefactor = cmath.exp(1j * math.pi / 4)
    x_ab = X_A * X_B
    t_n = chebyshev_t(n, x_ab)
    u_prev = chebyshev_u(n - 1, x_ab)
    p = (t_n + 1j * Y_A * Y_B * u_prev) * prefactor
    q = (Y_A * X_B + (-1j) * X_A * Y_B) * u_prev * prefactor
    return NamedProtocol(spec=spec, closed_form=Su2LaurentUnitary(p, q))


@dataclass(frozen=True)
class DiscriminationInstance:
    """A promised angle pair: case "one" means (theta_a, theta_b) is one of
    the four axis points, case "two" means 4 cos^2(theta_a) cos^2(theta_b)
    equals 1."""

    case: str
    theta_a: float
    theta_b: float

    def in_promise(self):
        if self.case == "one":
            return any(
                abs(self.theta_a - a) <= PROMISE_TOL and abs(self.theta_b - b) <= PROMISE_TOL
                for a, b in CASE_ONE_POINTS
            )
        if self.case == "two":
            value = 4 * math.cos(self.theta_a) ** 2 * math.cos(self.theta_b) ** 2
            return abs(value - 1.0) <= PROMISE_TOL
        return False


@dataclass(frozen=True)
class DiscriminationResult:
    decision: str
    queries: int
    transition_prob: float


def discriminate(instance):
    """Decide the promise case from a single run of the length-6 protocol.

    The transition probability |P|^2 of xyz_protocol(3) is exactly 0 on the
    four case-one points and exactly 1 on the case-two curve, so the
    threshold 1/2 decides deterministically with 6 oracle queries.
    """
    if not isinstance(instance, DiscriminationInstance) or not instance.in_promise():
        raise ValueError("instance violates promise")
    named = xyz_protocol(DISCRIMINATION_REPS)
    matrix = eval_unitary(named.spec, instance.theta_a, instance.theta_b)
    prob = float(abs(matrix[0, 0]) ** 2)
    decision = "two" if prob > 0.5 else "one"
    return DiscriminationResult(
        decision=decision,
        queries=2 * DISCRIMINATION_REPS,
        transition_prob=prob,
    )


def case_one_instances():
    return tuple(
        DiscriminationInstance(case="one", theta_a=a, theta_b=b)
        for a, b in CASE_ONE_POINTS
    )


def case_two_samples(count, seed=0):
    """Random points on the case-two curve 4 cos^2 a cos^2 b = 1.

    theta_a is drawn uniformly from the region |2 cos(theta_a)| >= 1 (an
    interval around 0, shifted by pi for the mirror branch), and theta_b
    solves the constraint with a random sign and orientation.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(int(count)):
        theta_a = rng.uniform(-math.pi / 3, math.pi / 3)
        if rng.random() < 0.5:
            theta_a += math.pi
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta_b = math.acos(sign / (2 * math.cos(theta_a)))
        if rng.random() < 0.5:
            theta_b = -theta_b
        samples.append(
            DiscriminationInstance(case="two", theta_a=theta_a, theta_b=theta_b)
        )
    return samples
