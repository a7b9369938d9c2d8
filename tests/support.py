"""Checks and fixtures that only the tests use.

- `X_A`, `Y_A`, `X_B`, `Y_B`: the oracle entries cos(theta) and
  i sin(theta) of each variable as Laurent polynomials.
- `chebyshev_t`, `chebyshev_u` and the closed forms `trivial_closed_form`
  and `xyz_closed_form`: the named families' unitaries built from
  Chebyshev recurrences, independently of `build_unitary`.
- `compose`: the product of two protocol unitaries, kept in the
  [[P, Q], [-Q~, P~]] form.
- `x_picture_cross_check`: the paper's x-picture component form
  P = p_hat + q_hat sin(t_a) sin(t_b), Q = r_hat sin(t_a) + s_hat sin(t_b),
  extracted on a grid by parity projection, with its determinant relation.
- `stable_from_contraction` and `generate_stable`: stable polynomials
  det(I - KZ), the fixtures of the two-variable factorization tests.
- `read_grid_csv`: reads back what `serialize.write_grid_csv` writes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mqsp.errors import VerificationError
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import Su2LaurentUnitary

# x-picture cross-check: interior samples per axis, and the relative size
# below which the mixed-parity components count as vanished.
XPICTURE_GRID = 17
XPICTURE_TOL = 1e-8

X_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
Y_A = LaurentPoly2({(1, 0): 0.5, (-1, 0): -0.5})
X_B = LaurentPoly2({(0, 1): 0.5, (0, -1): 0.5})
Y_B = LaurentPoly2({(0, 1): 0.5, (0, -1): -0.5})


def compose(u, v):
    """u @ v for two Su2LaurentUnitary values."""
    # [[P1,Q1],[-Q1~,P1~]] @ [[P2,Q2],[-Q2~,P2~]]: the product is again
    # of the same form, which pins the top row formulas below.
    p = u.P * v.P - u.Q * v.Q.conj_reciprocal()
    q = u.P * v.Q + u.Q * v.P.conj_reciprocal()
    return Su2LaurentUnitary(p, q)


# -- named-family closed forms -----------------------------------------------------


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


def trivial_closed_form(n):
    """The unitary of families.trivial_protocol(n):
    P = T_n(x_a) T_n(x_b) + y_a y_b U_{n-1}(x_a) U_{n-1}(x_b) and
    Q = y_b T_n(x_a) U_{n-1}(x_b) + y_a T_n(x_b) U_{n-1}(x_a); both are
    functions of the product ab alone (diagonal support)."""
    t_a, t_b = chebyshev_t(n, X_A), chebyshev_t(n, X_B)
    u_a, u_b = chebyshev_u(n - 1, X_A), chebyshev_u(n - 1, X_B)
    p = t_a * t_b + Y_A * Y_B * u_a * u_b
    q = Y_B * t_a * u_b + Y_A * t_b * u_a
    return Su2LaurentUnitary(p, q)


def xyz_closed_form(n):
    """The unitary of families.xyz_protocol(n), with the overall phase
    e^{i pi/4} that its unpaired final phase leaves:
    P = e^{i pi/4} (T_n(x_a x_b) + i y_a y_b U_{n-1}(x_a x_b)) and
    Q = e^{i pi/4} (y_a x_b - i x_a y_b) U_{n-1}(x_a x_b)."""
    prefactor = cmath.exp(1j * math.pi / 4)
    x_ab = X_A * X_B
    t_n = chebyshev_t(n, x_ab)
    u_prev = chebyshev_u(n - 1, x_ab)
    p = (t_n + 1j * Y_A * Y_B * u_prev) * prefactor
    q = (Y_A * X_B + (-1j) * X_A * Y_B) * u_prev * prefactor
    return Su2LaurentUnitary(p, q)


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


# -- det(I - KZ) stable generators ------------------------------------------------


def stable_from_contraction(K, slots):
    """det(I - K Z) for Z = diag of the variable named in each slot.

    Expanded over principal minors: the coefficient of a^j b^k is
    sum over subsets S with j 'a'-slots and k 'b'-slots of
    (-1)^{|S|} det(K[S, S]). A strict contraction K makes the result
    stable, since KZ then has spectral radius below one on the bidisk.
    """
    slots = tuple(slots)
    if any(s not in ("a", "b") for s in slots):
        raise ValueError("slots must be 'a' or 'b'")
    size = len(slots)
    K = np.atleast_2d(np.asarray(K, dtype=complex))
    if K.shape != (size, size):
        raise ValueError("K must be %d x %d" % (size, size))
    if size and np.linalg.norm(K, 2) >= 1.0:
        raise ValueError("K must be a strict contraction")

    coeffs = {(0, 0): 1.0 + 0.0j}
    for count in range(1, size + 1):
        for subset in combinations(range(size), count):
            minor = np.linalg.det(K[np.ix_(subset, subset)])
            j = sum(1 for i in subset if slots[i] == "a")
            k = count - j
            coeffs[(j, k)] = coeffs.get((j, k), 0.0) + (-1) ** count * minor
    return LaurentPoly2(coeffs)


def generate_stable(deg_a, deg_b, seed):
    """Random stable polynomial of degree (deg_a, deg_b) with p(0,0) = 1,
    built as det(I - KZ) from a random contraction rescaled to norm 0.8."""
    deg_a, deg_b = int(deg_a), int(deg_b)
    if deg_a < 0 or deg_b < 0:
        raise ValueError("degrees must be nonnegative")
    if deg_a + deg_b > 8:
        raise ValueError("degree sum too large for determinant expansion")
    size = deg_a + deg_b
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    if size:
        K *= 0.8 / np.linalg.norm(K, 2)
    return stable_from_contraction(K, ("a",) * deg_a + ("b",) * deg_b)


# -- grid CSV ---------------------------------------------------------------------


def read_grid_csv(path):
    """Inverse of write_grid_csv: (thetas_a, thetas_b, values) with values
    in the GridExport orientation (first index theta_a)."""
    with open(path) as handle:
        rows = [line.split(",") for line in handle.read().splitlines() if line]
    thetas_a = np.array([float(x) for x in rows[0][1:]])
    thetas_b = np.array([float(row[0]) for row in rows[1:]])
    body = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return thetas_a, thetas_b, body.T
