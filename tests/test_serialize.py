"""JSON and grid formats: bit-exact polynomial round trips, CSV/PGM layout."""

import json
import math

import numpy as np
import pytest

from mqsp.laurent import LaurentPoly1, LaurentPoly2
from mqsp.protocol import ProtocolSpec
from mqsp import serialize

AWKWARD = LaurentPoly2(
    {
        (0, 0): 0.1 + 0.2,  # 0.30000000000000004
        (3, -2): complex(1.0 / 3.0, -2.0 / 7.0),
        (-5, 4): complex(1e-300, 1e308),
        (1, 1): complex(-0.0, 5e-324),  # subnormal and signed zero
    }
)


# -- polynomial records -----------------------------------------------------------


def test_poly_round_trip_bit_exact():
    records = serialize.poly_to_records(AWKWARD)
    wired = json.loads(json.dumps(records))
    back = serialize.poly_from_records(wired)
    assert dict(back.items()) == dict(AWKWARD.items())


def test_poly_records_sorted_and_typed():
    records = serialize.poly_to_records(AWKWARD)
    keys = [(r["j"], r["k"]) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert type(r["j"]) is int and type(r["k"]) is int
        assert type(r["re"]) is float and type(r["im"]) is float


def test_poly_empty_and_zero():
    assert serialize.poly_to_records(LaurentPoly2.zero()) == []
    assert serialize.poly_from_records([]).is_zero()


@pytest.mark.parametrize(
    "records",
    [
        {"j": 0},  # not a list
        [{"j": 0, "k": 0, "re": 1.0}],  # missing im
        [{"j": 0, "k": 0, "re": 1.0, "im": 0.0, "x": 1}],  # extra key
        [{"j": 0.5, "k": 0, "re": 1.0, "im": 0.0}],  # fractional exponent
        [{"j": True, "k": 0, "re": 1.0, "im": 0.0}],  # bool exponent
        [{"j": 0, "k": 0, "re": "1", "im": 0.0}],  # string coefficient
        [
            {"j": 1, "k": 2, "re": 1.0, "im": 0.0},
            {"j": 1, "k": 2, "re": 2.0, "im": 0.0},
        ],  # duplicate exponent
        [
            {"j": 0, "k": 0, "re": 1.0, "im": 0.0},
            {"j": 10**9, "k": 10**9, "re": 1.0, "im": 0.0},
        ],  # exponent box far above MAX_CELLS: refused, not allocated
    ],
)
def test_poly_from_records_rejects(records):
    with pytest.raises(ValueError):
        serialize.poly_from_records(records)


def test_poly1_reads_shared_format():
    records = [
        {"j": 2, "k": 0, "re": 0.5, "im": 0.0},
        {"j": -2, "k": 0, "re": 0.5, "im": 0.0},
    ]
    p = serialize.poly1_from_records(records, var="a")
    assert p.var == "a"
    assert p.distance(LaurentPoly1({2: 0.5, -2: 0.5}, var="a")) == 0.0
    with pytest.raises(ValueError, match="single-variable"):
        serialize.poly1_from_records([{"j": 0, "k": 1, "re": 1.0, "im": 0.0}])


# -- protocol objects -------------------------------------------------------------


def test_spec_round_trip():
    spec = ProtocolSpec((1, 0, 1), (0.25, -1.5, math.pi, 0.0))
    again = serialize.spec_from_obj(json.loads(json.dumps(serialize.spec_to_obj(spec))))
    assert again == spec


@pytest.mark.parametrize(
    "obj",
    [
        [],  # not an object
        {"s": [0, 1]},  # phases missing
        {"s": [0, 1], "phases": [0.0, 0.0]},  # length mismatch
        {"s": [0, 2], "phases": [0.0, 0.0, 0.0]},  # bad bit
        {"s": [0, 1.0], "phases": [0.0, 0.0, 0.0]},  # non-integer bit
        {"s": [0, 1], "phases": [0.0, "x", 0.0]},  # non-numeric phase
        {"s": [0, 1], "phases": [0.0, True, 0.0]},  # bool phase
    ],
)
def test_spec_from_obj_rejects(obj):
    with pytest.raises(ValueError):
        serialize.spec_from_obj(obj)


# -- grids ------------------------------------------------------------------------


def test_grid_theta_axis():
    grid = serialize.grid_from_poly(LaurentPoly2.one(), 8)
    assert grid.thetas[0] == -np.pi
    assert grid.thetas[-1] == pytest.approx(np.pi - 2 * np.pi / 8)
    assert np.all(grid.thetas < np.pi)


def test_grid_orientation():
    # |e^{i theta_a} + 2|^2 depends on the first index only; the larger
    # grid spans three row blocks, the last one partial
    p = LaurentPoly2.monomial(1, 0) + LaurentPoly2.constant(2.0)
    for n_theta in (16, 2 * serialize.GRID_BLOCK_ROWS + 3):
        grid = serialize.grid_from_poly(p, n_theta)
        expect = np.abs(np.exp(1j * grid.thetas) + 2.0) ** 2
        assert np.allclose(grid.values, expect[:, None])
        assert np.ptp(grid.values, axis=1).max() < 1e-12


def test_csv_layout_and_round_trip(tmp_path):
    p = LaurentPoly2({(1, 0): 1.0, (0, 1): 0.5j, (0, 0): 0.25})
    grid = serialize.grid_from_poly(p, 16)
    path = tmp_path / "grid.csv"
    serialize.write_grid_csv(grid, path)

    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0][0] == ""  # empty corner cell
    assert len(rows) == 17 and all(len(r) == 17 for r in rows)
    # first row theta_a, first column theta_b, body cell (r, c) = values[c, r]
    assert float(rows[0][1]) == pytest.approx(-math.pi, abs=1e-11)
    assert float(rows[3][5]) == pytest.approx(grid.values[4, 2], rel=1e-11)

    ta, tb, values = serialize.read_grid_csv(path)
    assert np.allclose(ta, grid.thetas, atol=1e-11)
    assert np.allclose(tb, grid.thetas, atol=1e-11)
    assert np.allclose(values, grid.values, rtol=1e-11)


def test_csv_twelve_significant_digits(tmp_path):
    grid = serialize.GridExport(n_theta=16, values=np.full((16, 16), 1.0 / 3.0))
    path = tmp_path / "grid.csv"
    serialize.write_grid_csv(grid, path)
    body = path.read_text().splitlines()[1].split(",")[1]
    assert body == "0.333333333333"


def _csv_in_one_string(grid, path):
    """The writer as it was before streaming: every line joined in memory."""
    thetas = grid.thetas
    lines = ["," + ",".join(serialize.GRID_FORMAT % t for t in thetas)]
    for r in range(grid.n_theta):
        row = [serialize.GRID_FORMAT % thetas[r]]
        row += [serialize.GRID_FORMAT % grid.values[c, r] for c in range(grid.n_theta)]
        lines.append(",".join(row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_csv_streaming_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    p = LaurentPoly2({(2, -1): 0.5 + 0.25j, (0, 0): 0.75, (-1, 3): -0.3j})
    grids = [serialize.grid_from_poly(p, n) for n in (1, 2, 16, 33)]
    grids.append(serialize.GridExport(n_theta=9, values=rng.uniform(0, 1, (9, 9)) ** 7))
    for grid in grids:
        serialize.write_grid_csv(grid, tmp_path / "streamed.csv")
        _csv_in_one_string(grid, tmp_path / "joined.csv")
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "joined.csv").read_bytes()


def test_pgm_format(tmp_path):
    values = np.zeros((16, 16))
    values[2, 5] = 1.0  # theta_a index 2, theta_b index 5
    values[3, 7] = 0.5
    grid = serialize.GridExport(n_theta=16, values=values)
    path = tmp_path / "grid.pgm"
    serialize.write_grid_pgm(grid, path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "16 16", "255"]
    pixels = np.array([[int(x) for x in line.split()] for line in lines[3:]])
    assert pixels.shape == (16, 16)
    assert pixels[5, 2] == 255  # row = theta_b index, column = theta_a index
    assert pixels[7, 3] == 128
    assert pixels.sum() == 255 + 128
