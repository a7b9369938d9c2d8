"""Shared file formats: polynomial and protocol JSON, torus grids as CSV/PGM.

A polynomial is a list of records {"j": int, "k": int, "re": float,
"im": float}; json emits the shortest round-tripping repr for floats, so a
dump/load cycle is bit-exact. A protocol is {"s": [bits], "phases":
[radians]}. Grids hold |P|^2 on the per-axis angles theta_k = -pi +
2*pi*k/N (so -pi is included, +pi is not): the CSV first row lists the
theta_a column coordinates, the first column the theta_b row coordinates
(corner cell empty), body values with 12 significant digits; the PGM
variant is plain (P2) 8-bit grayscale in the same row layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mqsp.laurent import LaurentPoly1, LaurentPoly2
from mqsp.protocol import ProtocolSpec

GRID_FORMAT = "%.12g"
PGM_MAX_GRAY = 255
# grid_from_poly evaluates this many theta_a rows at a time, and
# write_grid_pgm quantizes this many image rows at a time, so only one block
# of samples or gray levels is alive beside the float grid.
GRID_BLOCK_ROWS = 256


def _as_exponent(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s: exponent must be an integer" % where)
    return value


def _as_real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("%s: coefficient part must be a real number" % where)
    return float(value)


def poly_to_records(p):
    """Sorted list of {j, k, re, im} records (deterministic order)."""
    return [
        {"j": int(j), "k": int(k), "re": float(c.real), "im": float(c.imag)}
        for (j, k), c in p.items()
    ]


def poly_from_records(records):
    if not isinstance(records, list):
        raise ValueError("polynomial must be a list of records")
    coeffs = {}
    for i, rec in enumerate(records):
        where = "record %d" % i
        if not isinstance(rec, dict) or set(rec) != {"j", "k", "re", "im"}:
            raise ValueError("%s: expected keys j, k, re, im" % where)
        key = (_as_exponent(rec["j"], where), _as_exponent(rec["k"], where))
        if key in coeffs:
            raise ValueError("%s: duplicate exponent %r" % (where, key))
        coeffs[key] = complex(_as_real(rec["re"], where), _as_real(rec["im"], where))
    return LaurentPoly2(coeffs)


def poly1_from_records(records):
    """Single-variable (oracle A) read of the shared record format; the
    exponent k of b must be zero throughout."""
    p = poly_from_records(records)
    coeffs = {}
    for (j, k), c in p.items():
        if k != 0:
            raise ValueError("record with k=%d: single-variable polynomial" % k)
        coeffs[j] = c
    return LaurentPoly1(coeffs)


def spec_to_obj(spec):
    return {"s": list(spec.s), "phases": list(spec.phases)}


def spec_from_obj(obj):
    if not isinstance(obj, dict) or "s" not in obj or "phases" not in obj:
        raise ValueError("protocol must be an object with keys s and phases")
    s, phases = obj["s"], obj["phases"]
    if not isinstance(s, list) or not isinstance(phases, list):
        raise ValueError("s and phases must be arrays")
    for bit in s:
        if isinstance(bit, bool) or not isinstance(bit, int):
            raise ValueError("s entries must be integers")
    for phi in phases:
        if isinstance(phi, bool) or not isinstance(phi, (int, float)):
            raise ValueError("phases must be real numbers")
    return ProtocolSpec(tuple(s), tuple(float(p) for p in phases))


# -- torus grids ------------------------------------------------------------------


@dataclass(frozen=True)
class GridExport:
    """|P|^2 on the N x N product grid; values[i, j] is the sample at
    (theta_a = thetas[i], theta_b = thetas[j])."""

    n_theta: int
    values: np.ndarray

    @property
    def thetas(self):
        k = np.arange(self.n_theta)
        return -np.pi + 2.0 * np.pi * k / self.n_theta


def grid_from_poly(p, n_theta):
    n_theta = int(n_theta)
    thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = np.exp(1j * thetas)
    values = np.empty((n_theta, n_theta))
    for start in range(0, n_theta, GRID_BLOCK_ROWS):
        rows = slice(start, start + GRID_BLOCK_ROWS)
        values[rows] = np.abs(p.eval_grid(z[rows], z)) ** 2
    return GridExport(n_theta=n_theta, values=values)


def write_grid_csv(grid, path):
    """Rows run over theta_b, columns over theta_a; body cell (r, c) is
    values[c, r]. Written row by row, so memory stays that of the grid."""
    labels = [GRID_FORMAT % t for t in grid.thetas]
    with open(path, "w") as handle:
        handle.write("," + ",".join(labels) + "\n")
        for r, label in enumerate(labels):
            cells = ",".join(GRID_FORMAT % v for v in grid.values[:, r].tolist())
            handle.write(label + "," + cells + "\n")


def read_grid_csv(path):
    """Inverse of write_grid_csv: (thetas_a, thetas_b, values) with values
    in the GridExport orientation (first index theta_a)."""
    with open(path) as handle:
        rows = [line.split(",") for line in handle.read().splitlines() if line]
    thetas_a = np.array([float(x) for x in rows[0][1:]])
    thetas_b = np.array([float(row[0]) for row in rows[1:]])
    body = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return thetas_a, thetas_b, body.T


def write_grid_pgm(grid, path):
    """Plain PGM (P2), one image row per theta_b, clipped to [0, 1] and
    quantized to 8 bits. Quantized and written GRID_BLOCK_ROWS image rows
    at a time, so memory stays that of the grid."""
    with open(path, "w") as handle:
        handle.write("P2\n%d %d\n%d\n" % (grid.n_theta, grid.n_theta, PGM_MAX_GRAY))
        for start in range(0, grid.n_theta, GRID_BLOCK_ROWS):
            # image row r is the column values[:, r]
            columns = grid.values[:, start : start + GRID_BLOCK_ROWS]
            quantized = np.rint(np.clip(columns, 0.0, 1.0) * PGM_MAX_GRAY).astype(int)
            handle.writelines(" ".join(map(str, row)) + "\n" for row in quantized.T.tolist())
