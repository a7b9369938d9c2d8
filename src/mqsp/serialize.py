"""Shared file formats: polynomial and protocol JSON, torus grids as CSV/PGM.

A polynomial is a list of records {"j": int, "k": int, "re": float,
"im": float}, sorted by (j, k); json emits the shortest round-tripping
repr for floats, so a dump/load cycle is bit-exact (a -0.0 part reads back
as 0.0). Both directions work on whole arrays: `poly_to_json`, the CLI's
writer, formats the records straight from the nonzero cells of the
coefficient box, in the bytes compact json.dumps writes for
`poly_to_records`, and `poly_from_records` checks and converts every
record at once, scattering them into one box; only when that check fails
does it go through the records one at a time, to name the first bad one.
A protocol is {"s": [bits], "phases": [radians]}. Grids hold |P|^2 on the
per-axis angles theta_k = -pi + 2*pi*k/N (so -pi is included, +pi is
not): the CSV first row lists the theta_a column coordinates, the first
column the theta_b row coordinates (corner cell empty), body values with
12 significant digits; the PGM variant is plain (P2) 8-bit grayscale in
the same row layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from mqsp.laurent import LaurentPoly1, LaurentPoly2, _zeros, aligned
from mqsp.protocol import ProtocolSpec

RECORD_KEYS = ("j", "k", "re", "im")
# Exponents are read into int64 arrays.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

GRID_FORMAT = "%.12g"
PGM_MAX_GRAY = 255
# grid_from_poly evaluates this many theta_a rows at a time, and
# write_grid_pgm quantizes this many image rows at a time, so only one block
# of samples or gray levels is alive beside the float grid.
GRID_BLOCK_ROWS = 256


def _as_exponent(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s: exponent must be an integer" % where)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("%s: exponent out of int64 range" % where)
    return value


def _as_real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("%s: coefficient part must be a real number" % where)
    try:
        return float(value)
    except OverflowError:
        raise ValueError("%s: coefficient part out of float range" % where)


def _all_of(values, kinds):
    """isinstance(v, kinds) and not a bool, for every v, by type."""
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, kinds) for t in types)


def _cells(p):
    """(lo_a, lo_b, cells): p's nonzero coefficients as sorted (i, l, re, im)
    at exponent (lo_a + i, lo_b + l), the one box read of both writers."""
    box, _, (lo_a, lo_b) = aligned(p, p)  # p's own coefficient box
    rows, cols = np.nonzero(box)
    values = box[rows, cols]
    return lo_a, lo_b, zip(rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist())


def poly_to_records(p):
    """Sorted list of {j, k, re, im} records (deterministic order)."""
    lo_a, lo_b, cells = _cells(p)
    return [{"j": lo_a + i, "k": lo_b + l, "re": re, "im": im} for i, l, re, im in cells]


def poly_to_json(p):
    """json.dumps(poly_to_records(p), separators=(",", ":")), byte for byte,
    formatted straight from the box: float.__repr__ is what json's encoder
    writes for a finite float, and a LaurentPoly2 never holds a non-finite
    coefficient, so no NaN or Infinity can arise."""
    lo_a, lo_b, cells = _cells(p)
    return "[%s]" % ",".join(
        [f'{{"j":{lo_a + i},"k":{lo_b + l},"re":{re!r},"im":{im!r}}}' for i, l, re, im in cells]
    )


def _columns(records):
    """The (j, k, re, im) arrays of a nonempty record list, or None when a
    record is malformed or an exponent repeats."""
    if not all(map(isinstance, records, repeat(dict))) or set(map(len, records)) != {4}:
        return None
    try:
        js, ks, res, ims = ([rec[key] for rec in records] for key in RECORD_KEYS)
    except KeyError:
        return None
    if not (_all_of(js + ks, int) and _all_of(res + ims, (int, float))):
        return None
    try:
        js, ks = np.array(js, dtype=np.int64), np.array(ks, dtype=np.int64)
        # float() per value, as the record-by-record check converts
        res, ims = np.array(list(map(float, res))), np.array(list(map(float, ims)))
    except OverflowError:
        return None
    order = np.lexsort((ks, js))
    if ((np.diff(js[order]) == 0) & (np.diff(ks[order]) == 0)).any():
        return None
    return js, ks, res, ims


def _reject(records):
    """Raise the ValueError naming the first record that `_columns` refuses,
    checking one record at a time."""
    seen = set()
    for i, rec in enumerate(records):
        where = "record %d" % i
        if not isinstance(rec, dict) or set(rec) != set(RECORD_KEYS):
            raise ValueError("%s: expected keys j, k, re, im" % where)
        key = (_as_exponent(rec["j"], where), _as_exponent(rec["k"], where))
        if key in seen:
            raise ValueError("%s: duplicate exponent %r" % (where, key))
        seen.add(key)
        _as_real(rec["re"], where)
        _as_real(rec["im"], where)
    raise AssertionError("every record passed")


def poly_from_records(records):
    """Inverse of poly_to_records. Refuses (ValueError) a malformed record,
    a repeated exponent, a non-finite coefficient, and an exponent box
    above MAX_CELLS before allocating it."""
    if not isinstance(records, list):
        raise ValueError("polynomial must be a list of records")
    if not records:
        return LaurentPoly2.zero()
    columns = _columns(records)
    if columns is None:
        _reject(records)
    js, ks, res, ims = columns
    bad = ~(np.isfinite(res) & np.isfinite(ims))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError("non-finite coefficient %r" % (complex(res[i], ims[i]),))
    lo_a, lo_b = int(js.min()), int(ks.min())
    box = _zeros(int(js.max()) - lo_a + 1, int(ks.max()) - lo_b + 1)
    cells = (js - lo_a, ks - lo_b)
    # + 0.0 turns a -0.0 part into 0.0, as adding terms onto zeros does
    box.real[cells] = res + 0.0
    box.imag[cells] = ims + 0.0
    return LaurentPoly2.from_array(box, lo_a, lo_b)


def poly1_from_records(records):
    """Single-variable (oracle A) read of the shared record format; the
    exponent k of b must be zero in every record, zero coefficients
    included (the first other k is named)."""
    p = poly_from_records(records)
    k = next((rec["k"] for rec in records if rec["k"]), 0)
    if k:
        raise ValueError("record with k=%d: single-variable polynomial" % k)
    return LaurentPoly1.from_poly2(p)


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
    try:
        phases = tuple(map(float, phases))
    except OverflowError:
        raise ValueError("phase out of float range")
    return ProtocolSpec(tuple(s), phases)


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
    grid = GridExport(n_theta=n_theta, values=np.empty((n_theta, n_theta)))
    z = np.exp(1j * grid.thetas)
    for start in range(0, n_theta, GRID_BLOCK_ROWS):
        rows = slice(start, start + GRID_BLOCK_ROWS)
        grid.values[rows] = np.abs(p.eval_grid(z[rows], z)) ** 2
    return grid


def write_grid_csv(grid, path):
    """Rows run over theta_b, columns over theta_a; body cell (r, c) is
    values[c, r]. Written row by row, so memory stays that of the grid."""
    labels = [GRID_FORMAT % t for t in grid.thetas]
    with open(path, "w") as handle:
        handle.write("," + ",".join(labels) + "\n")
        for r, label in enumerate(labels):
            cells = ",".join(GRID_FORMAT % v for v in grid.values[:, r].tolist())
            handle.write(label + "," + cells + "\n")


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
