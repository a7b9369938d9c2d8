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
- `min_on_bidisk_net`: the smallest |p| on a radial-angular net of the
  closed bidisk, positive for a factor stable on the net.
- `read_grid_csv`: reads back what `serialize.write_grid_csv` writes.
- `spy_on_samples`: records the grid of every sampling of f in the
  factor routes.
- `GAMMA_SINGLE_ORACLE_DIGESTS` and `GAMMA_TWO_AXIS_DIGESTS`: per-target
  digests of `gamma_factor`'s outputs, the reference its tests pin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mqsp import factor2d
from mqsp.errors import VerificationError
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import Su2LaurentUnitary

# x-picture cross-check: interior samples per axis, and the relative size
# below which the mixed-parity components count as vanished.
XPICTURE_GRID = 17
XPICTURE_TOL = 1e-8
# min_on_bidisk_net: the net's radii, and its angles per radius
NET_RADII = (0.2, 0.4, 0.6, 0.8, 1.0)
NET_ANGLES = 64

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


def _bidisk_net():
    angles = np.exp(2j * np.pi * np.arange(NET_ANGLES) / NET_ANGLES)
    return np.concatenate([r * angles for r in NET_RADII])


def min_on_bidisk_net(p):
    """min |p| on the net in both variables; along an axis where p has
    degree 0 (p constant along it) one net point gives the same minimum."""
    net = _bidisk_net()
    za, zb = (net if d else net[:1] for d in p.degrees())
    return float(np.abs(p.eval_grid(za, zb)).min())


# -- sampling spy -----------------------------------------------------------------


def spy_on_samples(monkeypatch):
    """Wrap the two places the factor routes sample f: the returned list
    gets the grid shape of each call, (na, nb) of
    LaurentPoly2.real_grid_blocks and (na, 1) of factor2d._axis_table,
    which samples f on one point along b."""
    calls = []
    blocks, axis_table = LaurentPoly2.real_grid_blocks, factor2d._axis_table

    def blocks_spy(self, shape, block_cells):
        calls.append(shape)
        return blocks(self, shape, block_cells)

    def axis_spy(f_half, js, na):
        calls.append((na, 1))
        return axis_table(f_half, js, na)

    monkeypatch.setattr(LaurentPoly2, "real_grid_blocks", blocks_spy)
    monkeypatch.setattr(factor2d, "_axis_table", axis_spy)
    return calls


# -- gamma_factor reference digests ------------------------------------------------

# Per target, the first 16 hex digits of the sha256 of gamma_factor's output:
# repr of [(j, k, re.hex(), im.hex()) per factor coefficient, residual.hex(),
# root_class, convergence_residual.hex()], or the message where it raises.
# Made with numpy 2.4.6 on x86-64, before the one-axis route took f's half
# spectrum once per call. The values come from FFTs, so another numpy or
# pocketfft build (or another SIMD path) may move their last bits with no
# defect in this code: then remake them from that build's parent tree.
GAMMA_SINGLE_ORACLE_DIGESTS = (  # test_factor2d._single_oracle_fs(), in order
    "0f10281d82c8ddcb", "d15d2948f87b34f4", "0b5fb5bd0f725ba3", "eed4b4ce7c71d402",
    "a67d119e6a6f1437", "94da92c12cb64f79", "de9843b03ab25e89", "75f88f9e97491724",
    "d4e3e37d219447df", "c935a5aa8dee7000", "c9bd80fe20f3feba", "c1912534e3b64be2",
    "d2d032bd88e6ba12", "435aef9a1d436f85", "fc63819b6c5ac3a0", "743a9b24ad0b5f77",
    "a4c52cf52101984c", "1238377e10a7e460", "00c6fef66d70222b", "36e0c4e0d6a456fd",
    "a19b11175f113198", "5b3b93f107a6a532", "c6c05ec2ec8c3694", "59d2a1891278c795",
    "dfd74529944f1eb2", "c1a3a39c21cacea9", "4d8a215ecbf70f1f", "9b2de6e08d53cc87",
    "c27c769368e7dd37", "c1f4e05d4271d70e", "b62df737134cb316", "57c6737c789340d6",
    "027145bfe5721fd1", "0f6b20f068690a51", "b0328f7a0321045f", "bb29cd34924bfdfe",
    "eedfff2c104f0e2a", "3b11f20400fa3a3f", "be1895123abfb901", "53a1ef2d9c450e6b",
    "5ad787e2b366c400", "32dd8cbce782204d", "93f8ee023f3d5374", "4474d3af7eb9c647",
    "f271af695829229f", "76b74e1c2aa2b8ce", "862885cd2a89b1ed", "97fd35a27ea87879",
    "5b7058f8e6c6a155", "cfcd5e1bdbca9639", "327a850a9e4f957a", "2e934126e52cb4e1",
    "d072c5a041e21269", "fbb1cb53afcc0f35", "98d9c4b6b85715ad", "ea208f8beba7e1e6",
    "80a7d6d71fe5f538", "c0ec19aee771a766", "accd7c85fc2cd050", "a177cc8b5ce32673",
    "4448710dfa2a5183", "a01bee6c6161d651", "0ac052c932d39dcc", "288bd3b5d49f79d3",
    "0728f1a687671195", "405cdae65551692b", "8ff9f01a7b1c5add", "f71874587e0fbe23",
    "4fe8c0cbcfb5704e", "b693e8405b96af1b", "c1ed53dc724e9208", "71b11fbfa2183c0a",
    "0412548032e9fe44", "4f254c620fc0efba", "ebd9d1a17ae54cbf",
)
GAMMA_TWO_AXIS_DIGESTS = (  # test_factor2d._two_axis_fs(), in order
    "72ade2f4d84cdc22", "2c30d2402a0d6de0", "a3cdf79a539b78e9", "36cabb7ca0a84b73",
    "db7b9e1e5d09fe34",
)


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
