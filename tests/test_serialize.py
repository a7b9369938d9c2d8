"""JSON and grid formats: bit-exact polynomial round trips, CSV/PGM layout."""

import json
import math
import re

import numpy as np
import pytest

from mqsp.laurent import LaurentPoly1, LaurentPoly2, aligned
from mqsp.protocol import ProtocolSpec, build_unitary
from mqsp import serialize
from support import read_grid_csv

# Every term survives the prune (PRUNE_REL times the largest magnitude), so
# each advertised value reaches the records.
EXTREME_TERMS = {
    (-5, 4): complex(1e-300, 1e308),  # a tiny part beside a huge one
    (2, -3): -1.7976931348623157e308,  # the largest finite float
    (0, 1): complex(3e295, -2.2250738585072014e-308),  # the smallest normal
}
EXTREME = LaurentPoly2(EXTREME_TERMS)
# Negated, so the zero parts are -0.0; the subnormal rides on a unit part.
SUBNORMAL_TERMS = {
    (0, 0): 0.1 + 0.2,  # -0.30000000000000004 after negation
    (3, -2): complex(1.0 / 3.0, -2.0 / 7.0),
    (1, 1): complex(1.0, 5e-324),  # subnormal
    (-2, 5): 2.0j,  # a -0.0 real part after negation
}
SUBNORMAL = -LaurentPoly2(SUBNORMAL_TERMS)
FIXTURES = ((EXTREME, EXTREME_TERMS), (SUBNORMAL, SUBNORMAL_TERMS))


def compact(records):
    return json.dumps(records, separators=(",", ":"))


# -- polynomial records -----------------------------------------------------------


def test_fixtures_keep_every_term():
    for p, terms in FIXTURES:
        records = serialize.poly_to_records(p)
        assert len(records) == len(terms)
    records = serialize.poly_to_records(SUBNORMAL)
    assert {"j": 0, "k": 0, "re": -0.30000000000000004, "im": -0.0} in records
    assert {"j": 1, "k": 1, "re": -1.0, "im": -5e-324} in records
    assert records[0] == {"j": -2, "k": 5, "re": -0.0, "im": -2.0}
    assert math.copysign(1.0, records[0]["re"]) < 0


def test_poly_round_trip_bit_exact():
    for p, _ in FIXTURES:
        records = serialize.poly_to_records(p)
        wired = json.loads(json.dumps(records))
        back = serialize.poly_from_records(wired)
        # bit-exact but for the sign of a zero part
        unsigned = [(e, (c.real + 0.0).hex(), (c.imag + 0.0).hex()) for e, c in p.items()]
        assert bits(back) == unsigned


def test_poly_records_sorted_and_typed():
    for p, terms in FIXTURES:
        records = serialize.poly_to_records(p)
        keys = [(r["j"], r["k"]) for r in records]
        assert keys == sorted(terms)
        for r in records:
            assert type(r["j"]) is int and type(r["k"]) is int
            assert type(r["re"]) is float and type(r["im"]) is float


def test_poly_empty_and_zero():
    assert serialize.poly_to_records(LaurentPoly2.zero()) == []
    assert serialize.poly_from_records([]).is_zero()


GOOD = {"j": 0, "k": 0, "re": 1.0, "im": 0.0}

REJECTED_RECORDS = [
    ({"j": 0}, "polynomial must be a list of records"),
    ([{"j": 0, "k": 0, "re": 1.0}], "record 0: expected keys j, k, re, im"),
    ([{"j": 0, "k": 0, "re": 1.0, "im": 0.0, "x": 1}], "record 0: expected keys j, k, re, im"),
    ([{"j": 0.5, "k": 0, "re": 1.0, "im": 0.0}], "record 0: exponent must be an integer"),
    ([{"j": True, "k": 0, "re": 1.0, "im": 0.0}], "record 0: exponent must be an integer"),
    ([{"j": 0, "k": 0, "re": "1", "im": 0.0}], "record 0: coefficient part must be a real number"),
    (
        [
            {"j": 1, "k": 2, "re": 1.0, "im": 0.0},
            {"j": 1, "k": 2, "re": 2.0, "im": 0.0},
        ],
        "record 1: duplicate exponent (1, 2)",
    ),
    (
        [
            {"j": 0, "k": 0, "re": 1.0, "im": 0.0},
            {"j": 10**9, "k": 10**9, "re": 1.0, "im": 0.0},
        ],  # exponent box far above MAX_CELLS: refused, not allocated
        "exponent box of 1000000001 x 1000000001 coefficients exceeds MAX_CELLS",
    ),
    ([GOOD, [0, 1, 1.0, 0.0]], "record 1: expected keys j, k, re, im"),
    ([{"j": 0, "k": 0, "re": 1.0, "im": False}], "record 0: coefficient part must be a real number"),
    # exponents outside int64 and integers too large for a float
    ([{"j": 10**30, "k": 0, "re": 1.0, "im": 0.0}], "record 0: exponent out of int64 range"),
    ([GOOD, {"j": 0, "k": -(2**63) - 1, "re": 1.0, "im": 0.0}], "record 1: exponent out of int64 range"),
    ([GOOD, {"j": 1, "k": 0, "re": 10**400, "im": 0.0}], "record 1: coefficient part out of float range"),
    # the first bad record in record order, whatever the kind of fault
    (
        [GOOD, {"j": 0, "k": 0, "re": 2.0, "im": 0.0}, {"j": 1, "k": 0, "re": "x", "im": 0.0}],
        "record 1: duplicate exponent (0, 0)",
    ),
    (
        [GOOD, {"j": 1, "k": 0, "re": "x", "im": 0.0}, {"j": 0, "k": 0, "re": 2.0, "im": 0.0}],
        "record 1: coefficient part must be a real number",
    ),
    # NaN and Infinity tokens parse; a non-finite coefficient is refused
    # after every record passed its own checks
    (
        json.loads('[{"j": 0, "k": 0, "re": 1.0, "im": 0.0}, {"j": 1, "k": 0, "re": NaN, "im": 0.0}]'),
        "non-finite coefficient (nan+0j)",
    ),
    (
        json.loads('[{"j": 0, "k": 0, "re": 1.0, "im": -Infinity}, {"j": 1, "k": 0, "re": 0, "im": 0}]'),
        "non-finite coefficient (1-infj)",
    ),
    (
        json.loads('[{"j": 0, "k": 0, "re": NaN, "im": 0.0}, {"j": 1, "k": 0, "re": "x", "im": 0}]'),
        "record 1: coefficient part must be a real number",
    ),
    # four keys of the wrong names: the fast path's lookup fails first
    ([{"a": 0, "b": 0, "c": 1.0, "d": 0.0}], "record 0: expected keys j, k, re, im"),
]


@pytest.mark.parametrize(
    "records, message",
    REJECTED_RECORDS,
    ids=["records%d" % i for i in range(len(REJECTED_RECORDS))],
)
def test_poly_from_records_rejects(records, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        serialize.poly_from_records(records)


def bits(p):
    return [(e, c.real.hex(), c.imag.hex()) for e, c in p.items()]


def test_poly_from_records_matches_dict_constructor():
    # the records' scatter gives the polynomial, and the float bits, of
    # LaurentPoly2({...}): the same prune, and a -0.0 part reads as 0.0
    rng = np.random.default_rng(5)
    for size in (1, 3, 40):
        keys = {(int(j), int(k)) for j, k in rng.integers(-6, 7, size=(size, 2))}
        parts = rng.standard_normal((len(keys), 2)) * 10.0 ** rng.integers(-20, 3, (len(keys), 2))
        parts[rng.random(parts.shape) < 0.2] = -0.0
        coeffs = {key: complex(re, im) for key, (re, im) in zip(keys, parts.tolist())}
        records = [
            {"j": j, "k": k, "re": c.real, "im": c.imag} for (j, k), c in coeffs.items()
        ]
        back = serialize.poly_from_records(records)
        assert bits(back) == bits(LaurentPoly2(coeffs))
        assert all(math.copysign(1.0, c.imag) > 0 for e, c in back.items() if c.imag == 0.0)


def test_poly_to_records_keeps_box_bits():
    # negation leaves -0.0 parts in the box; the records carry them as they
    # are, subnormal parts too, and read back equal
    p = -LaurentPoly2(
        {(0, 0): 0.1 + 0.2, (3, -2): complex(1.0 / 3.0, -2.0 / 7.0), (1, 1): complex(1.0, 5e-324)}
    )
    records = serialize.poly_to_records(p)
    assert [(r["j"], r["k"], r["re"].hex(), r["im"].hex()) for r in records] == [
        (j, k, re, im) for (j, k), re, im in bits(p)
    ]
    assert records[0] == {"j": 0, "k": 0, "re": -0.30000000000000004, "im": -0.0}
    assert records[1]["im"] == -5e-324
    assert serialize.poly_from_records(json.loads(compact(records))) == p


def test_poly_to_json_is_compact_dumps_of_the_records():
    assert serialize.poly_to_json(LaurentPoly2.zero()) == "[]"
    polys = [LaurentPoly2.zero(), LaurentPoly1({2: 0.5, -2: -0.5j})]
    for p, _ in FIXTURES:
        polys += [p, -p]  # -0.0 parts where the other has 0.0
    for lo in (2**40 - 3, -(2**40)):  # exponents near +-2^40
        polys.append(LaurentPoly2({(lo, -lo): 0.5 - 0.25j, (lo + 2, 1 - lo): -1e-3}))
    for p in polys:
        assert serialize.poly_to_json(p) == compact(serialize.poly_to_records(p))


def test_poly_to_json_is_compact_dumps_on_protocol_unitaries():
    rng = np.random.default_rng(27)
    for n in range(65):
        s = tuple(int(b) for b in rng.integers(0, 2, n))
        u = build_unitary(ProtocolSpec(s, tuple(rng.uniform(-np.pi, np.pi, n + 1).tolist())))
        for p in (u.P, u.Q):
            assert serialize.poly_to_json(p) == compact(serialize.poly_to_records(p))


def test_poly1_reads_shared_format():
    records = [
        {"j": 2, "k": 0, "re": 0.5, "im": 0.0},
        {"j": -2, "k": 0, "re": 0.5, "im": 0.0},
    ]
    p = serialize.poly1_from_records(records)
    assert p.distance(LaurentPoly1({2: 0.5, -2: 0.5})) == 0.0
    with pytest.raises(ValueError, match="single-variable"):
        serialize.poly1_from_records([{"j": 0, "k": 1, "re": 1.0, "im": 0.0}])


def test_poly1_shares_poly_from_records_box(monkeypatch):
    records = [
        {"j": -3, "k": 0, "re": 0.25, "im": -0.0},
        {"j": 1, "k": 0, "re": -1.5, "im": 2.0},
    ]
    read, shared = serialize.poly_from_records, []

    def spy(records):
        shared.append(read(records))
        return shared[-1]

    monkeypatch.setattr(serialize, "poly_from_records", spy)
    p = serialize.poly1_from_records(records)
    (q,) = shared
    assert type(p) is LaurentPoly1 and p == q == read(records)
    assert aligned(p, p)[0] is aligned(q, q)[0]
    with pytest.raises(ValueError, match="record with k=-2: single-variable"):
        serialize.poly1_from_records(records + [{"j": 0, "k": -2, "re": 1.0, "im": 0.0}])


@pytest.mark.parametrize("re_part", [0.0, 1e-20, 1e-3])
def test_poly1_refuses_every_record_with_k(re_part):
    # k is tested on the records, before the prune: a zero or negligible
    # record off the axis is refused as a larger one is
    records = [
        {"j": 1, "k": 0, "re": 1.0, "im": 0.0},
        {"j": 0, "k": 5, "re": re_part, "im": 0.0},
        {"j": 2, "k": -1, "re": 0.0, "im": 0.0},
    ]
    with pytest.raises(ValueError, match=re.escape("record with k=5: single-variable polynomial")):
        serialize.poly1_from_records(records)
    assert serialize.poly1_from_records(records[:1]) == LaurentPoly1({1: 1.0})


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
        {"s": [0, 1], "phases": [0.0, 10**400, 0.0]},  # too large for a float
    ],
)
def test_spec_from_obj_rejects(obj):
    with pytest.raises(ValueError):
        serialize.spec_from_obj(obj)


def test_spec_from_obj_names_non_array_fields():
    with pytest.raises(ValueError, match="^s and phases must be arrays$"):
        serialize.spec_from_obj({"s": 1, "phases": []})


# -- grids ------------------------------------------------------------------------


def test_grid_theta_axis():
    grid = serialize.grid_from_poly(LaurentPoly2.one(), 8)
    assert grid.thetas[0] == -np.pi
    assert grid.thetas[-1] == pytest.approx(np.pi - 2 * np.pi / 8)
    assert np.all(grid.thetas < np.pi)


def test_grid_orientation():
    # |e^{i theta_a} + 2|^2 depends on the first index only; the larger
    # grid spans three row blocks, the last one partial
    p = LaurentPoly2({(1, 0): 1.0}) + LaurentPoly2({(0, 0): 2.0})
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

    ta, tb, values = read_grid_csv(path)
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
