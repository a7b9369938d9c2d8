"""Protocol unitaries over two commuting SU(2) oracles.

A protocol is a bit string s (1 = query oracle A, 0 = oracle B) threaded
with n+1 Z-phases. Its unitary is represented exactly as a 2x2 matrix
[[P, Q], [-Q~, P~]] of bivariate Laurent polynomials, where ~ is
conj_reciprocal; the bottom row is derived, never stored. This module
builds that representation, evaluates the same circuit numerically as an
independent route, checks the structural conditions (degree bound, parity
under joint inversion, negation parity, determinant identity),
cross-checks against the x-picture component form by parity projection,
and assembles the completed unitary from a spectral factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mqsp.errors import VerificationError
from mqsp.laurent import DegreePair, LaurentPoly2, _zeros

# Determinant identity P·P~ + Q·Q~ = 1 must hold to this max-coefficient
# residual for a unitary to count as structurally valid.
DET_RESIDUAL_TOL = 1e-10

# x-picture cross-check: interior samples per axis, and the relative size
# below which the mixed-parity components count as vanished.
XPICTURE_GRID = 17
XPICTURE_TOL = 1e-8

X_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
Y_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): -0.5})
X_B = LaurentPoly2({(0, 1): 0.5, (0, -1): 0.5})
Y_B = LaurentPoly2({(0, 1): 0.5, (0, -1): -0.5})


def principal_phase(phi):
    """Map a phase to (-pi, pi]."""
    out = math.remainder(float(phi), 2.0 * math.pi)
    if out <= -math.pi:  # remainder() can land exactly on -pi
        out = math.pi
    return out


@dataclass(frozen=True)
class ProtocolSpec:
    """Bit string s and phases (phi_0, ..., phi_n); phases normalized to
    (-pi, pi] on construction."""

    s: tuple
    phases: tuple

    def __post_init__(self):
        s = tuple(int(b) for b in self.s)
        if any(b not in (0, 1) for b in s):
            raise ValueError("s entries must be bits (0 or 1)")
        phases = tuple(principal_phase(p) for p in self.phases)
        if len(phases) != len(s) + 1:
            raise ValueError(
                "need %d phases for %d iterates, got %d"
                % (len(s) + 1, len(s), len(phases))
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phases", phases)

    @property
    def n(self):
        return len(self.s)

    @property
    def weight(self):
        return sum(self.s)


def random_spec(rng, n, weight=None):
    """Uniform random protocol: bits i.i.d. (or fixed Hamming weight) and
    phases uniform on (-pi, pi]."""
    if weight is None:
        s = rng.integers(0, 2, size=n).tolist()
    else:
        s = [1] * weight + [0] * (n - weight)
        rng.shuffle(s)
    phases = rng.uniform(-math.pi, math.pi, size=n + 1).tolist()
    return ProtocolSpec(tuple(s), tuple(phases))


@dataclass(frozen=True)
class Su2LaurentUnitary:
    """[[P, Q], [-Q~, P~]] with ~ = conj_reciprocal; P, Q bivariate Laurent."""

    P: LaurentPoly2
    Q: LaurentPoly2

    def __matmul__(self, other):
        if not isinstance(other, Su2LaurentUnitary):
            return NotImplemented
        # [[P1,Q1],[-Q1~,P1~]] @ [[P2,Q2],[-Q2~,P2~]]: the product is again
        # of the same form, which pins the top row formulas below.
        p = self.P * other.P - self.Q * other.Q.conj_reciprocal()
        q = self.P * other.Q + self.Q * other.P.conj_reciprocal()
        return Su2LaurentUnitary(p, q)

    def det_residual(self):
        """Max coefficient distance of P·P~ + Q·Q~ from the constant 1."""
        det = self.P * self.P.conj_reciprocal() + self.Q * self.Q.conj_reciprocal()
        return det.distance(LaurentPoly2.one())

    def matrix_at(self, theta_a, theta_b):
        a, b = np.exp(1j * theta_a), np.exp(1j * theta_b)
        p = complex(self.P.eval_grid(a, b)[0, 0])
        q = complex(self.Q.eval_grid(a, b)[0, 0])
        # conj_reciprocal evaluates to the plain conjugate on the torus
        return np.array([[p, q], [-q.conjugate(), p.conjugate()]])

    def distance(self, other):
        return max(self.P.distance(other.P), self.Q.distance(other.Q))


def build_unitary(spec):
    """Exact symbolic product, left to right: Z(phi_0), then for each k the
    oracle iterate followed by Z(phi_k).

    P and Q live in one preallocated coefficient box spanning the exponents
    [-m, m] x [-(n-m), n-m]. With z the oracle's variable, its iterate is
    [[x, y], [y, x]] for x = (z + 1/z)/2 and y = (z - 1/z)/2, so a step
    sets P' = (S z + D/z)/2 and Q' = (S z - D/z)/2 from S = P + Q and
    D = P - Q: four slice shifts along that variable's axis. Each Z-phase
    is one scalar multiply, and the result is pruned once at the end. A box
    above MAX_CELLS raises ValueError before anything is allocated.
    """
    n, m = spec.n, spec.weight
    p = _zeros(2 * m + 1, 2 * (n - m) + 1)
    q = np.zeros_like(p)
    p[m, n - m] = complex(math.cos(spec.phases[0]), math.sin(spec.phases[0]))
    for bit, phi in zip(spec.s, spec.phases[1:]):
        # view the oracle's variable as the first axis
        pv, qv = (p, q) if bit else (p.T, q.T)
        # S z moves exponent e to e + 1 and D/z to e - 1; nothing leaves the
        # box, since after k iterates in a variable its exponents lie in [-k, k]
        s = pv[:-1] + qv[:-1]
        d = pv[1:] - qv[1:]
        pv[0] = qv[0] = 0.0
        pv[1:] = s
        qv[1:] = s
        pv[:-1] += d
        qv[:-1] -= d
        w = 0.5 * complex(math.cos(phi), math.sin(phi))
        p *= w
        q *= w.conjugate()
    lo_a, lo_b = -m, -(n - m)
    return Su2LaurentUnitary(
        LaurentPoly2.from_array(p, lo_a, lo_b), LaurentPoly2.from_array(q, lo_a, lo_b)
    )


def assemble_completion(p_tilde, q_tilde, factor, n, m):
    """[[Ptilde + iR, Qtilde + iS], ...] for a protocol of length n, weight m.

    `factor` is g with g * conj_reciprocal(g) = f = 1 - Ptilde^2 - Qtilde^2
    and exponents in {0..2m} x {0..2(n-m)}. Shifted by a^{-m} b^{-(n-m)},
    its Hermitian part R and anti-Hermitian part iS satisfy R^2 + S^2 = f,
    so the assembled matrix is unitary up to the factorization residual.
    The factor of a per-variable even-supported f is even-supported, so
    the shift forces negation parity (m, n-m) mod 2 on R and S; the
    projection drops only solver dust, which the read-off gate bounds.
    """
    t = LaurentPoly2(
        {(j - m, k - (n - m)): c for (j, k), c in factor.items() if j % 2 == k % 2 == 0}
    )
    r = t.hermitian_part()
    s = (t - t.conj_reciprocal()) * (-0.5j)
    return Su2LaurentUnitary(p_tilde + 1j * r, q_tilde + 1j * s)


def eval_unitary(spec, theta_a, theta_b):
    """Numeric 2x2 product of the same circuit; independent of the Laurent
    route (used to cross-validate build_unitary)."""

    def z_rot(phi):
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])

    def iterate(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, 1j * s], [1j * s, c]])

    mat = z_rot(spec.phases[0])
    for bit, phi in zip(spec.s, spec.phases[1:]):
        theta = theta_a if bit else theta_b
        mat = mat @ iterate(theta) @ z_rot(phi)
    return mat


# -- structural verification ---------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the four structural checks for a protocol unitary of
    length n and weight m.

    degree_ok: deg(P), deg(Q) within (m, n-m) componentwise (max |exponent|).
    inversion_parity_ok: P even and Q odd under (a, b) -> (1/a, 1/b) jointly.
    negation_parity_ok: every a-exponent of P and Q is congruent to m and
        every b-exponent to n-m (mod 2).
    determinant_residual: max coefficient distance of P·P~ + Q·Q~ from 1.
    """

    degree_ok: bool
    inversion_parity_ok: bool
    negation_parity_ok: bool
    determinant_residual: float
    overall: bool
    bound: tuple
    p_degrees: DegreePair
    q_degrees: DegreePair


def _within_bound(deg, bound_a, bound_b):
    if deg.is_zero:
        return True
    return deg.deg_a <= bound_a and deg.deg_b <= bound_b


def _negation_ok(poly, bit_a, bit_b):
    if poly.is_zero():
        return True
    got_a, got_b = poly.negation_bits()  # None here means mixed residues
    return got_a == bit_a and got_b == bit_b


def verify_structure(u, length, weight):
    """Check the structural conditions for a protocol of the given length n
    and Hamming weight m. All four must hold for unitaries produced by
    build_unitary; the report records which fail for arbitrary inputs."""
    n, m = int(length), int(weight)
    pd, qd = u.P.degrees(), u.Q.degrees()
    degree_ok = _within_bound(pd, m, n - m) and _within_bound(qd, m, n - m)
    inversion_ok = u.P.has_inversion_sign(+1) and u.Q.has_inversion_sign(-1)
    negation_ok = _negation_ok(u.P, m % 2, (n - m) % 2) and _negation_ok(
        u.Q, m % 2, (n - m) % 2
    )
    det_res = u.det_residual()
    overall = degree_ok and inversion_ok and negation_ok and det_res <= DET_RESIDUAL_TOL
    return StructureReport(
        degree_ok=degree_ok,
        inversion_parity_ok=inversion_ok,
        negation_parity_ok=negation_ok,
        determinant_residual=det_res,
        overall=overall,
        bound=(m, n - m),
        p_degrees=pd,
        q_degrees=qd,
    )


# -- x-picture cross-check ------------------------------------------------------


@dataclass(frozen=True)
class XPictureReport:
    """Grid extraction of the x-picture components.

    On theta in (0, pi)^2 the two stored entries split by theta-parity:
        P(theta) = p_hat(x_a, x_b) + q_hat(x_a, x_b) sin(t_a) sin(t_b)
        Q(theta) = r_hat(x_a, x_b) sin(t_a) + s_hat(x_a, x_b) sin(t_b)
    with x = cos(theta). Components are sampled values on the grid, not
    polynomials; no square-root sign convention is asserted beyond the
    positive branch on (0, pi).
    """

    thetas: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray
    r_hat: np.ndarray
    s_hat: np.ndarray
    decomposition_residual: float
    det_relation_residual: float


def x_picture_cross_check(u):
    """Extract x-picture components by parity projection and verify the
    pointwise determinant relation.

    Raises VerificationError("decomposition residual exceeded") when the
    mixed-parity components (odd/even and even/odd parts of P, even/even
    and odd/odd parts of Q) do not vanish to XPICTURE_TOL (relative).
    """
    # interior grid avoids sin(theta) = 0 so component division is stable
    thetas = np.pi * (np.arange(XPICTURE_GRID) + 1.0) / (XPICTURE_GRID + 1.0)
    z, zbar = np.exp(1j * thetas), np.exp(-1j * thetas)

    def quadrants(poly):
        pp = poly.eval_grid(z, z)
        mp = poly.eval_grid(zbar, z)
        pm = poly.eval_grid(z, zbar)
        mm = poly.eval_grid(zbar, zbar)
        ee = (pp + mp + pm + mm) / 4.0
        oe = (pp - mp + pm - mm) / 4.0
        eo = (pp + mp - pm - mm) / 4.0
        oo = (pp - mp - pm + mm) / 4.0
        return ee, oe, eo, oo

    p_ee, p_oe, p_eo, p_oo = quadrants(u.P)
    q_ee, q_oe, q_eo, q_oo = quadrants(u.Q)

    scale = max(
        1.0,
        float(np.max(np.abs(p_ee + p_oo))),
        float(np.max(np.abs(q_oe + q_eo))),
    )
    decomp = max(
        float(np.max(np.abs(p_oe))),
        float(np.max(np.abs(p_eo))),
        float(np.max(np.abs(q_ee))),
        float(np.max(np.abs(q_oo))),
    )
    if decomp > XPICTURE_TOL * scale:
        raise VerificationError("decomposition residual exceeded")

    sa = np.sin(thetas)[:, None]
    sb = np.sin(thetas)[None, :]
    p_hat = p_ee
    q_hat = p_oo / (sa * sb)
    r_hat = q_oe / sa
    s_hat = q_eo / sb

    # pointwise determinant relation in the x picture; cross terms carry
    # conjugates on the second factor (the plain-product form does not
    # close under unitarity)
    relation = (
        np.abs(p_hat) ** 2
        + (sa * sb) ** 2 * np.abs(q_hat) ** 2
        + sa**2 * np.abs(r_hat) ** 2
        + sb**2 * np.abs(s_hat) ** 2
        + 2.0
        * sa
        * sb
        * (p_hat * q_hat.conjugate() + r_hat * s_hat.conjugate()).real
    )
    det_rel = float(np.max(np.abs(relation - 1.0)))
    return XPictureReport(
        thetas=thetas,
        p_hat=p_hat,
        q_hat=q_hat,
        r_hat=r_hat,
        s_hat=s_hat,
        decomposition_residual=decomp,
        det_relation_residual=det_rel,
    )
