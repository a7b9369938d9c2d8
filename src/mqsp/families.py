"""Named protocol families, as protocol specs, and the two-angle
discrimination demonstration they enable.

The trivial family alternates the two oracles with all phases zero; its
polynomials are Chebyshev combinations supported on the diagonal (functions
of the product ab). The xyz family alternates phases +-pi/4, which conjugates
the X-rotations into Y-rotations and produces transforms of the product
cos(theta_a)cos(theta_b). With three repetitions the xyz transition
probability separates two promise classes of angle pairs deterministically.
The Chebyshev closed forms themselves are built only in tests/support.py,
as the references that build_unitary is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp.protocol import ProtocolSpec, eval_unitary

MAX_HALF_LENGTH = 8  # protocols have length 2n
PROMISE_TOL = 1e-12
DISCRIMINATION_REPS = 3

CASE_ONE_POINTS = (
    (0.0, math.pi / 2),
    (0.0, -math.pi / 2),
    (math.pi / 2, 0.0),
    (-math.pi / 2, 0.0),
)


def _check_half_length(n):
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_HALF_LENGTH:
        raise ValueError("protocol length 2n exceeds %d" % (2 * MAX_HALF_LENGTH))
    return n


def trivial_protocol(n):
    """Alternating-oracle protocol of length 2n with all phases zero; its
    polynomials are functions of the product ab alone (diagonal support)."""
    n = _check_half_length(n)
    return ProtocolSpec(s=(0, 1) * n, phases=(0.0,) * (2 * n + 1))


def xyz_protocol(n):
    """Length-2n protocol with alternating phases +pi/4, -pi/4, ..., +pi/4.

    The phase sandwich turns each X-rotation into a Y-rotation, so the
    polynomials are Chebyshev transforms of the product x_a x_b.
    """
    n = _check_half_length(n)
    phases = tuple(math.pi / 4 * (-1) ** k for k in range(2 * n + 1))
    return ProtocolSpec(s=(1, 0) * n, phases=phases)


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
    spec = xyz_protocol(DISCRIMINATION_REPS)
    matrix = eval_unitary(spec, instance.theta_a, instance.theta_b)
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
