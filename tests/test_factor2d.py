"""Tests for the two-variable factorization pipeline and completion."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mqsp import factor2d, laurent
from mqsp.errors import FactorizationError
from mqsp.factor2d import (
    CompletionResult,
    build_gamma,
    complete_unitary_2d,
    extract_stable_factor,
    fourier_of_reciprocal,
    gamma_factor,
    rank_condition,
    spectral_factor,
)
from mqsp.laurent import LaurentPoly2
from mqsp.protocol import (
    DET_RESIDUAL_TOL,
    ProtocolSpec,
    Su2LaurentUnitary,
    assemble_completion,
    build_unitary,
    random_spec,
    verify_structure,
)
from support import (
    GAMMA_SINGLE_ORACLE_DIGESTS,
    GAMMA_TWO_AXIS_DIGESTS,
    TORUS_ZERO,
    coeff_at,
    generate_stable,
    min_on_bidisk_net,
    spy_on_samples,
    stable_from_contraction,
)

W = LaurentPoly2({(1, 1): 1.0})  # the product variable ab
GEOMETRIC = LaurentPoly2({(0, 0): 1.0, (1, 1): 0.5})  # 1 + ab/2


def _abs_square(p):
    return p * p.conj_reciprocal()


def _pipeline(f):
    n, m = f.degrees()
    table = fourier_of_reciprocal(f, (n, m))
    gamma = build_gamma(table, n, m)
    return gamma, rank_condition(gamma, n, m), n, m


# ---------------------------------------------------------------- fourier


def test_fourier_constant_reciprocal():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    assert table.coeffs.shape == (3, 3)
    assert abs(table.coeffs[1, 1] - 1.0) < 1e-14
    others = [
        abs(table.coeffs[1 + j, 1 + k])
        for j in (-1, 0, 1)
        for k in (-1, 0, 1)
        if (j, k) != (0, 0)
    ]
    assert max(others) < 1e-12
    assert table.convergence_residual < 1e-10


def test_fourier_geometric_series_on_diagonal():
    # 1/|1 + z/2|^2 has Fourier coefficients (4/3)(-1/2)^|k| (geometric
    # series from partial fractions); in two variables the table is the
    # same sequence supported on the diagonal j = k.
    f = _abs_square(GEOMETRIC)
    table = fourier_of_reciprocal(f, (2, 2))
    for j in range(-2, 3):
        for k in range(-2, 3):
            expected = (4.0 / 3.0) * (-0.5) ** abs(j) if j == k else 0.0
            assert abs(table.coeffs[2 + j, 2 + k] - expected) < 1e-10


def test_fourier_table_hermitian_symmetry():
    f = _abs_square(generate_stable(2, 1, seed=3))
    table = fourier_of_reciprocal(f, (2, 2))
    for j in range(-2, 3):
        for k in range(-2, 3):
            delta = table.coeffs[2 - j, 2 - k] - table.coeffs[2 + j, 2 + k].conjugate()
            assert abs(delta) < 1e-12


def test_fourier_rejects_torus_zero():
    # 1 - cos(theta_a + theta_b) touches zero
    f = LaurentPoly2({(0, 0): 1.0, (1, 1): -0.5, (-1, -1): -0.5})
    with pytest.raises(FactorizationError, match="not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


def test_fourier_rejects_dip_between_coarse_samples():
    # 0.9995 - cos(31 theta_a + 2 pi/128) stays above 1e-3 on a 64-point
    # axis but reaches -5e-4 on the 128-point one the Fourier step samples
    w = 0.5 * np.exp(1j * np.pi / 64)
    f = LaurentPoly2({(0, 0): 0.9995, (31, 0): -w, (-31, 0): -np.conj(w)})
    assert f.eval_unit_grid(64).real.min() > 0.0
    with pytest.raises(FactorizationError, match="f not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


def test_fourier_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        fourier_of_reciprocal(LaurentPoly2({(1, 0): 1.0}), (1, 1))
    with pytest.raises(ValueError, match="^window must be nonnegative$"):
        fourier_of_reciprocal(LaurentPoly2.one(), (-1, 0))


def test_fourier_no_convergence_near_singular():
    # roots at distance 1e-3 from the torus: aliasing decays like
    # (1 - 1e-3)^N, still order 0.1 at the largest admissible grid; every
    # grid up to FOURIER_CELLS_MAX is sampled, one block of rows at a time,
    # so the peak stays far below one 4096^2 complex grid (256 MB); real
    # samples keep it near 8 MB, where complex blocks reach about 18 MB
    near = LaurentPoly2({(0, 0): 1.0, (1, 1): 1.0 - 1e-3})
    f = _abs_square(near)
    tracemalloc.start()
    try:
        with pytest.raises(FactorizationError, match="no convergence"):
            fourier_of_reciprocal(f, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("swap", [False, True])
def test_fourier_sizes_each_axis_by_its_degree(swap):
    # |1 + 0.3a + 0.5b^900|^2 and its a <-> b swap: the degree-900 axis
    # needs 2048 samples and more, the degree-1 axis 128, so the grid that
    # converges is 4096 x 256, not 4096^2 (a square grid peaks at 169 MB
    # with degree 900 in b, its box transformed along a held whole)
    terms = {(0, 0): 1.0, (1, 0): 0.3, (0, 900): 0.5}
    if swap:
        terms = {(k, j): c for (j, k), c in terms.items()}
    f = _abs_square(LaurentPoly2(terms))
    tracemalloc.start()
    try:
        table = fourier_of_reciprocal(f, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.grid_size == ((4096, 256) if swap else (256, 4096))
    assert table.convergence_residual < factor2d.FOURIER_TOL
    assert peak < 32 * 2**20


def test_fourier_no_convergence_before_any_grid(monkeypatch):
    # convergence compares two successive grids, so when the second would
    # exceed FOURIER_CELLS_MAX or FOURIER_AXIS_MAX the answer is known
    # before sampling anything (at degree >= 2048 the positivity grid alone
    # would be 8192^2)
    calls = spy_on_samples(monkeypatch)
    monkeypatch.setattr(factor2d, "FOURIER_CELLS_MAX", factor2d.FOURIER_START**2)
    with pytest.raises(FactorizationError, match="no convergence"):
        fourier_of_reciprocal(_abs_square(generate_stable(2, 1, seed=3)), (2, 2))
    assert calls == []
    # f in a alone: with one sample along b it stays within that cells
    # bound, but not within an axis bound its first doubling exceeds
    one_var = _abs_square(LaurentPoly2({(0, 0): 1.0, (2, 0): 0.5}))
    assert fourier_of_reciprocal(one_var, (2, 0)).grid_size[1] == 1
    assert calls  # the spy sees every sample of f
    monkeypatch.setattr(factor2d, "FOURIER_AXIS_MAX", factor2d.FOURIER_START)
    del calls[:]
    with pytest.raises(FactorizationError, match="no convergence"):
        fourier_of_reciprocal(one_var, (2, 0))
    assert calls == []


def _diagonal(rho):
    """|1 + rho ab|^2: 1/f has c_jj = (-rho)^|j| / (1 - rho^2), so the
    aliasing of an N-point grid decays like rho^N."""
    return _abs_square(LaurentPoly2({(0, 0): 1.0, (1, 1): rho}))


# phases of a single-oracle protocol on axis b at n = 16: the 1/f table
# moves by 58, 14 and 17 (its largest entry ~95) from the 512, 1024 and
# 2048 sample grids on, then decays and converges on 2^15 samples
LATE_DECAY_PHASES = (
    -0.7351975144523601, 0.22195514569114705, -2.5290338440111393,
    -1.3478915057787713, -1.7419564334931958, -1.202858225102859,
    -1.102999547262451, 0.47126698222486896, -1.0507370331492187,
    -1.0878634241342349, 2.081520491597013, -3.0652957293785232,
    -3.1085450891785875, -2.7827182588168795, 2.296788256083163,
    0.8403135326522335, 1.4323350866183784,
)


def _f_of(s, phases):
    """f = 1 - Ptilde^2 - Qtilde^2 of a protocol's real parts, and the
    window gamma_factor takes for it (its degrees)."""
    u = build_unitary(ProtocolSpec(s, phases))
    p_tilde, q_tilde = u.P.hermitian_part(), u.Q.hermitian_part()
    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    return f, f.degrees()


GIVE_UP_SPARES = {
    # (f, window): converged grid
    "rho 0.9": ((_diagonal(0.9), (1, 1)), (512, 512)),
    "rho 0.95": ((_diagonal(0.95), (1, 1)), (1024, 1024)),
    "rho 0.97": ((_diagonal(0.97), (1, 1)), (2048, 2048)),
    "rho 0.98": ((_diagonal(0.98), (1, 1)), (4096, 4096)),
    "rho 0.985": ((_diagonal(0.985), (1, 1)), (4096, 4096)),
    "late decay on axis b": (_f_of((0,) * 16, LATE_DECAY_PHASES), (1, 2**15)),
    # its 256^2 residual is 0.7 of the table's largest entry (22 of 31),
    # yet it falls to 6e-11 in four doublings: its aliases along both axes
    # add up to more than twice the table's scale
    "both axes": (
        _f_of((0, 1, 1), (1.3644839334537862, -2.9613061580143927, 1.1073485511789887, 2.7016177407846946)),
        (4096, 4096),
    ),
}


@pytest.mark.parametrize("case", sorted(GIVE_UP_SPARES))
def test_fourier_give_up_spares_every_converging_grid(case, monkeypatch):
    # the give-up bounds from below the residual the grids left can reach;
    # where the tolerance is reached it never fires, so the grid and the
    # table are those of the tolerance alone. A residual that rises on
    # grids still too coarse for 1/f does not stop the doubling by itself
    (f, window), grid = GIVE_UP_SPARES[case]
    table = fourier_of_reciprocal(f, window)
    monkeypatch.setattr(factor2d, "_may_converge", lambda *args: True)
    alone = fourier_of_reciprocal(f, window)
    assert table.grid_size == alone.grid_size == grid
    assert np.array_equal(table.coeffs, alone.coeffs)


@pytest.mark.parametrize("rho, largest", [(0.99, 2048), (0.999, 512)])
def test_fourier_gives_up_before_the_largest_grids(rho, largest, monkeypatch):
    # aliasing ~rho^4096 is still above the tolerance on the 4096^2 grid
    # (by 24 times for rho = 0.99), and an earlier residual already shows
    # it: 0.0034 on 2048^2 against a table of ~50 for rho = 0.99, 1.9e3
    # on 512^2 against ~2e3 for rho = 0.999
    calls = spy_on_samples(monkeypatch)
    with pytest.raises(FactorizationError, match="^no convergence$"):
        fourier_of_reciprocal(_diagonal(rho), (1, 1))
    assert max(calls) == (largest, largest)
    monkeypatch.setattr(factor2d, "_may_converge", lambda *args: True)
    with pytest.raises(FactorizationError, match="^no convergence$"):
        fourier_of_reciprocal(_diagonal(rho), (1, 1))
    assert max(calls) == (4096, 4096)


def _spy_on_search(monkeypatch, miss=False):
    """Wrap factor2d._torus_zero: the returned list gets the witness (or
    None) of each search; with `miss`, every search misses."""
    seen, search = [], factor2d._torus_zero

    def spy(f, point, cells, floor):
        seen.append(None if miss else search(f, point, cells, floor))
        return seen[-1]

    monkeypatch.setattr(factor2d, "_torus_zero", spy)
    return seen


def test_gamma_factor_stops_at_a_torus_zero_with_its_witness(monkeypatch):
    # f = R^2 + S^2 vanishes on the torus: the search from the smallest
    # sample of the 256^2 grid meets it, so no third grid is sampled
    f, _ = _f_of(TORUS_ZERO.s, TORUS_ZERO.phases)
    calls = spy_on_samples(monkeypatch)
    searches = _spy_on_search(monkeypatch)
    with pytest.raises(FactorizationError, match="^f not strictly positive$"):
        gamma_factor(f)
    assert calls == [(128, 128), (256, 256)]
    ((theta_a, theta_b),) = searches
    value = f.eval_grid(np.exp(1j * theta_a), np.exp(1j * theta_b))[0, 0].real
    assert value <= factor2d.SIGN_FLOOR_REL * max(1.0, f.unit_grid((256, 256)).real.max())
    # |1 + 0.999ab|^2 is strictly positive (min f = 1e-6): the search
    # misses and the doubling goes on as before
    del calls[:], searches[:]
    with pytest.raises(FactorizationError, match="^no convergence$"):
        fourier_of_reciprocal(_diagonal(0.999), (1, 1))
    assert searches == [None] and max(calls) == (512, 512)


# sweep-style targets (scripts/sweep.py's draw at seed 0: random bits of
# length 2..4) whose Gamma route samples a third grid, 512^2, and ends as
# named; no search finds a zero of their f
THIRD_GRID = {
    "ok": ((0, 1), (-2.434020124877728, -0.5846642118238572, -3.139703361927961)),
    "rank condition not satisfied": (
        (0, 0, 1),
        (0.8562954499048785, 1.8148676379348148, 0.6703687907383853, -1.9378022314730543),
    ),
    "no convergence": (
        (1, 1, 1, 0),
        (-0.9908790197452912, 0.9761000669272661, 2.7348761706367606, 1.1611957474222274, -0.8337698796506223),
    ),
}


def test_torus_zero_search_runs_at_most_once_and_only_on_two_axes(monkeypatch):
    calls = spy_on_samples(monkeypatch)
    searches = _spy_on_search(monkeypatch)
    # one-axis grids never search, though residuals miss on many of them
    longest = 0
    for f in _single_oracle_fs():
        del calls[:]
        fourier_of_reciprocal(f, f.degrees())
        longest = max(longest, len(calls))
    assert longest >= 4 and searches == []
    # nor does a first grid pair that converges
    for f in _two_axis_fs():
        del calls[:]
        fourier_of_reciprocal(f, f.degrees())
        assert len(calls) == 2
    assert searches == []
    # a third grid or more: one search per call, at the first residual
    for outcome, (s, phases) in THIRD_GRID.items():
        f, window = _f_of(s, phases)
        del calls[:], searches[:]
        try:
            fourier_of_reciprocal(f, window)
        except FactorizationError as error:
            assert str(error) == outcome
        assert calls[2] == (512, 512) and searches == [None], outcome


def test_a_missed_search_leaves_every_output_as_it_was(monkeypatch):
    # the pinned two-axis corpus and THIRD_GRID's targets give gamma_factor
    # outputs bit for bit equal with every search forced to miss
    fs = list(_two_axis_fs()) + [_f_of(s, phases)[0] for s, phases in THIRD_GRID.values()]
    outcomes = [_gamma_outcome(f)[0] for f in fs]
    assert outcomes[:5] == list(GAMMA_TWO_AXIS_DIGESTS)
    for outcome, f in zip(THIRD_GRID, fs[5:]):
        if outcome == "ok":
            assert gamma_factor(f).convergence_residual < factor2d.FOURIER_TOL
        else:
            with pytest.raises(FactorizationError, match="^%s$" % outcome):
                gamma_factor(f)
    searches = _spy_on_search(monkeypatch, miss=True)
    assert [_gamma_outcome(f)[0] for f in fs] == outcomes
    assert searches == [None] * 3


def _reciprocal_fft2(f, na, nb):
    """Reference: fft2 of 1/f on the whole na x nb grid, f summed term by
    term at the roots of unity (exponents reduced mod each axis)."""
    ra, rb = np.arange(na), np.arange(nb)
    roots_a, roots_b = np.exp(2j * np.pi * ra / na), np.exp(2j * np.pi * rb / nb)
    values = np.zeros((na, nb))
    for (j, k), c in f.items():
        values += (c * np.outer(roots_a[j * ra % na], roots_b[k * rb % nb])).real
    return np.fft.fft2(1.0 / values) / (na * nb)


def _reference_table(f, window, full):
    """The grid rule of fourier_of_reciprocal on full-grid fft2 tables
    (cached per grid in `full`): (table, (na, nb)). An axis of one sample
    makes the table the 1-D FFT of sampled 1/f along the other."""
    wa, wb = window
    na, nb = (
        1 if d == w == 0 else factor2d._pow2_grid(factor2d.FOURIER_START, d)
        for d, w in zip(f.degrees(), (wa, wb))
    )
    previous = None
    while True:
        if (na, nb) not in full:
            full[na, nb] = _reciprocal_fft2(f, na, nb)
        table = full[na, nb][np.ix_(np.arange(-wa, wa + 1) % na, np.arange(-wb, wb + 1) % nb)]
        tol = factor2d.FOURIER_TOL * max(1.0, np.abs(table).max())
        if previous is not None and np.abs(table - previous).max() < tol:
            return table, (na, nb)
        previous = table
        na, nb = (2 * na if na > 1 else 1), (2 * nb if nb > 1 else 1)


FFT2_CASES = {
    # (f, FOURIER_START): converged grid 256^2 (grids of one partial
    # block, from 64^2 or 128^2), 512^2 (one whole block), a narrow box
    # (degree 1 per axis) that needs 1024^2 (four blocks of rows, sampled
    # and analysed along b by direct sums), degree 120 in one variable
    # (1024 x 512 and 512 x 1024, two blocks of rows), and f in a alone
    # (one sample along b for the windows (0, 0) and (8, 0))
    "low degree, start 64": (_abs_square(generate_stable(2, 1, seed=3)), 64),
    "low degree": (_abs_square(generate_stable(2, 1, seed=3)), 128),
    "slow decay": (_abs_square(LaurentPoly2({(0, 0): 1.0, (1, 1): 0.9})), 128),
    "narrow box": (_abs_square(LaurentPoly2({(0, 0): 1.0, (1, 1): 0.92})), 128),
    "degree 120 in a": (_abs_square(LaurentPoly2({(0, 0): 1.0, (120, 0): 0.5, (1, 1): 0.2})), 128),
    "degree 120 in b": (_abs_square(LaurentPoly2({(0, 0): 1.0, (0, 120): 0.5, (1, 1): 0.2})), 128),
    "a alone": (_abs_square(LaurentPoly2({(0, 0): 1.0, (1, 0): 0.7, (3, 0): 0.2j})), 128),
}


def _spy_on_tables(monkeypatch, module, name):
    """Wrap the direct-sum kernel module.name: the returned list gets the
    (2 count, n) shape of the cos_sin_rows table of each call."""
    seen, kernel = [], getattr(module, name)

    def spy(values, rows):
        seen.append(rows.shape)
        return kernel(values, rows)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("case", sorted(FFT2_CASES))
def test_fourier_matches_full_grid_fft2(case, monkeypatch):
    f, start = FFT2_CASES[case]
    monkeypatch.setattr(factor2d, "FOURIER_START", start)
    synthesized = _spy_on_tables(monkeypatch, laurent, "harmonic_synthesis")
    analysed = _spy_on_tables(monkeypatch, factor2d, "harmonic_analysis")
    full = {}
    for window in [(0, 0)] + [(w, 8 - w) for w in range(9)] + [(8, 8)]:
        want, shape = _reference_table(f, window, full)
        table = fourier_of_reciprocal(f, window)
        assert table.grid_size == shape, window
        assert np.abs(table.coeffs - want).max() <= 1e-14 * np.abs(want).max(), window
    if case == "narrow box":
        # on the converged 1024 samples along b: f's harmonics k = 0, 1 and
        # the widest window's k = 0..8
        assert (4, 1024) in synthesized and (18, 1024) in analysed
    if case == "degree 120 in b":
        # 121 harmonics along b exceed log2(nb): f is sampled by irfft
        assert synthesized == [] and analysed


def test_fourier_rejects_dip_in_a_later_row_block():
    # 0.999 - cos(theta_a - 3 pi/2) + 1e-4 cos(1100 theta_b): degree 1100
    # makes the first grid 128 x 4096, two blocks of FOURIER_BLOCK_CELLS
    # samples; the first block (theta_a in [0, pi)) stays above 0.998, the
    # dip below zero lies in the second
    f = LaurentPoly2(
        {(0, 0): 0.999, (1, 0): -0.5j, (-1, 0): 0.5j, (0, 1100): 5e-5, (0, -1100): 5e-5}
    )
    na = factor2d._pow2_grid(factor2d.FOURIER_START, 1)
    nb = factor2d._pow2_grid(factor2d.FOURIER_START, 1100)
    assert na * nb == 2 * factor2d.FOURIER_BLOCK_CELLS
    values = f.unit_grid((na, nb))
    rows = factor2d.FOURIER_BLOCK_CELLS // nb
    assert values[:rows].real.min() > 0.998 and values.real.min() < 0.0
    with pytest.raises(FactorizationError, match="f not strictly positive"):
        fourier_of_reciprocal(f, (1, 1))


def _single_oracle_fs(seed=1):
    """f = 1 - Ptilde^2 - Qtilde^2 of 75 random single-oracle protocols,
    five at each even n = 4..32: one-axis f as `complete --vars 1` makes
    them."""
    rng = np.random.default_rng(seed)
    for n in range(4, 33, 2):
        for _ in range(5):
            spec = ProtocolSpec((1,) * n, tuple(rng.uniform(-math.pi, math.pi, size=n + 1)))
            u = build_unitary(spec)
            pt, qt = u.P.hermitian_part(), u.Q.hermitian_part()
            yield LaurentPoly2.one() - pt * pt - qt * qt


def _two_axis_fs():
    """Five two-variable |p|^2 of generate_stable."""
    for degrees, seed in (((1, 1), 3), ((2, 1), 3), ((2, 2), 5), ((3, 1), 7), ((0, 2), 2)):
        yield _abs_square(generate_stable(*degrees, seed=seed))


def _gamma_outcome(f):
    """(support.GAMMA_*_DIGESTS' digest of gamma_factor(f), its factor or
    None where it raises)."""
    try:
        fac = gamma_factor(f)
    except FactorizationError as error:
        fac, record = None, str(error).encode()
    else:
        fields = [(j, k, c.real.hex(), c.imag.hex()) for (j, k), c in fac.p.items()]
        fields += [fac.residual.hex(), fac.root_class, fac.convergence_residual.hex()]
        record = repr(fields).encode()
    return hashlib.sha256(record).hexdigest()[:16], fac


@pytest.mark.parametrize(
    "fs, digests",
    [(_single_oracle_fs, GAMMA_SINGLE_ORACLE_DIGESTS), (_two_axis_fs, GAMMA_TWO_AXIS_DIGESTS)],
    ids=["single_oracle", "two_axis"],
)
def test_gamma_factor_outputs_are_pinned_bit_for_bit(fs, digests):
    # factor, residual, root class and convergence residual by hex, as
    # the Gamma route gave them before f's half spectrum was made once per
    # call (the reference and the numpy build it holds for are in support);
    # each factor has no zero on the closed-bidisk net
    got = [_gamma_outcome(f) for f in fs()]
    assert len(got) == len(digests)
    for index, (f, (have, fac), want) in enumerate(zip(fs(), got, digests)):
        assert have == want, (index, f.degrees())
        if fac is not None:
            assert min_on_bidisk_net(fac.p) > 0.0, (index, f.degrees())


def test_one_axis_route_makes_f_half_spectrum_once_per_call(monkeypatch):
    # every grid of one call samples f from one half spectrum along a
    calls, half_spectrum = [], LaurentPoly2.half_spectrum

    def spy(self):
        calls.append(self.degrees())
        return half_spectrum(self)

    monkeypatch.setattr(LaurentPoly2, "half_spectrum", spy)
    longest = 0
    for f in _single_oracle_fs():
        del calls[:]
        table = fourier_of_reciprocal(f, f.degrees())
        assert calls == [f.degrees()]
        first = factor2d._pow2_grid(factor2d.FOURIER_START, f.degrees()[0])
        longest = max(longest, table.grid_size[0] // first)
    # some call visits at least four grids
    assert longest >= 8


# ---------------------------------------------------------------- gamma


def test_gamma_identity_for_constant():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    gamma = build_gamma(table, 1, 1)
    assert np.abs(gamma - np.eye(4)).max() < 1e-12


def test_gamma_hand_indexed_layout():
    f = _abs_square(GEOMETRIC)
    table = fourier_of_reciprocal(f, (1, 1))
    gamma = build_gamma(table, 1, 1)
    # ordinals: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)
    assert gamma[0, 0] == table.coeffs[1, 1]
    assert gamma[0, 1] == table.coeffs[1, 0]
    assert gamma[2, 0] == table.coeffs[2, 1]
    assert gamma[3, 0] == table.coeffs[2, 2]
    assert gamma[1, 2] == table.coeffs[0, 2]
    assert gamma[3, 2] == table.coeffs[1, 2]


def test_gamma_difference_structure():
    f = _abs_square(generate_stable(1, 1, seed=5))
    table = fourier_of_reciprocal(f, (2, 2))
    gamma = build_gamma(table, 2, 2)
    lattice = [(j, k) for j in range(3) for k in range(3)]
    for row, u in enumerate(lattice):
        for col, v in enumerate(lattice):
            want = table.coeffs[2 + u[0] - v[0], 2 + u[1] - v[1]]
            assert gamma[row, col] == want
    assert np.abs(gamma - gamma.conj().T).max() < 1e-12


def test_gamma_window_insufficient():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    with pytest.raises(FactorizationError, match="window insufficient"):
        build_gamma(table, 2, 1)


# ---------------------------------------------------------------- rank


def test_rank_constant_f():
    table = fourier_of_reciprocal(LaurentPoly2.one(), (1, 1))
    report = rank_condition(build_gamma(table, 1, 1), 1, 1)
    assert report.satisfied
    assert report.submatrix_rank == 1 == report.target_rank


def test_rank_forward_determinantal():
    # spectral_factor's factorization carries the very report of the route
    for seed, (da, db) in [(7, (1, 1)), (8, (2, 1)), (9, (2, 2))]:
        f = _abs_square(generate_stable(da, db, seed=seed))
        _, report, n, m = _pipeline(f)
        assert report.satisfied, (seed, report)
        assert report.submatrix_rank == n * m
        carried = spectral_factor(f).rank_report
        assert np.array_equal(carried.singular_values, report.singular_values)
        assert carried.submatrix_rank == report.submatrix_rank


def test_rank_rejects_generic_positive_f():
    # a strictly positive trig polynomial in general position admits no
    # stable factor at its own bidegree, so the rank condition must say no
    f = LaurentPoly2(
        {
            (0, 0): 3.0,
            (1, 0): 0.5,
            (-1, 0): 0.5,
            (0, 1): 0.5,
            (0, -1): 0.5,
            (1, 1): 0.25,
            (-1, -1): 0.25,
            (1, -1): 0.15,
            (-1, 1): 0.15,
        }
    )
    _, report, _, _ = _pipeline(f)
    assert not report.satisfied
    assert report.submatrix_rank == 2 > report.target_rank == 1


def test_rank_diagonal_f_is_satisfied_exactly():
    # f = |q(ab)|^2 with stable univariate q *is* factorable by the stable
    # bivariate polynomial q(ab), so the condition holds.
    q = LaurentPoly2.one() + 0.5 * W + 0.2 * W * W
    f = _abs_square(q)
    gamma, report, n, m = _pipeline(f)
    assert (n, m) == (2, 2)
    assert report.satisfied
    assert report.submatrix_rank == 4
    factorization = extract_stable_factor(gamma, f, n, m)
    assert factorization.p.distance(q) < 1e-9


def test_rank_univariate_f_trivial_target():
    # f depending on one variable only: the target rank n*m is zero and
    # the condition holds vacuously (1D strictly positive f always has a
    # stable factor)
    f = LaurentPoly2({(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
    _, report, n, m = _pipeline(f)
    assert (n, m) == (1, 0)
    assert report.satisfied
    assert report.target_rank == 0


# ---------------------------------------------------------------- extract


def test_extract_constant():
    f = LaurentPoly2({(0, 0): 4.0})
    table = fourier_of_reciprocal(f, (0, 0))
    # a 1 x 1 grid is exact: it is sampled twice and the tables agree
    assert table.grid_size == (1, 1) and table.convergence_residual == 0.0
    gamma = build_gamma(table, 0, 0)
    fac = extract_stable_factor(gamma, f, 0, 0)
    assert fac.p.distance(LaurentPoly2({(0, 0): 2.0})) < 1e-12
    assert min_on_bidisk_net(fac.p) > 0.0


def test_extract_geometric_pinned_phase():
    # normalization (constant coefficient real positive) pins the phase,
    # so the constructing polynomial is recovered exactly, not just up to
    # a unimodular factor
    f = _abs_square(GEOMETRIC)
    gamma, report, n, m = _pipeline(f)
    assert report.satisfied
    fac = extract_stable_factor(gamma, f, n, m)
    assert fac.p.distance(GEOMETRIC) < 1e-9
    assert fac.residual < 1e-12
    assert min_on_bidisk_net(fac.p) > 0.4


def test_extract_matches_generator():
    for seed, (da, db) in [(11, (1, 1)), (12, (2, 1)), (13, (2, 2))]:
        p = generate_stable(da, db, seed=seed)
        f = _abs_square(p)
        gamma, report, n, m = _pipeline(f)
        assert report.satisfied
        fac = extract_stable_factor(gamma, f, n, m)
        assert fac.p.distance(p) < 1e-6
        assert fac.residual < 1e-6 * f.max_abs()
        assert min_on_bidisk_net(fac.p) > 0.0


def test_extract_without_polish_on_near_unit_contractions():
    # ||K|| = 0.95 puts the factor's zeros close to the closed bidisk; the
    # single linear solve must still factor f to well inside the 1e-6 gate
    worst = 0.0
    for da in range(9):
        for db in range(9 - da):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                size = da + db
                K = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
                if size:
                    K *= 0.95 / np.linalg.norm(K, 2)
                f = _abs_square(stable_from_contraction(K, ("a",) * da + ("b",) * db))
                gamma, report, n, m = _pipeline(f)
                assert report.satisfied
                worst = max(worst, extract_stable_factor(gamma, f, n, m).residual)
    assert worst < 1e-11


def test_extract_deterministic_across_rebuild():
    p = generate_stable(2, 2, seed=21)
    f = _abs_square(p)
    gamma, _, n, m = _pipeline(f)
    first = extract_stable_factor(gamma, f, n, m)
    rebuilt = _abs_square(first.p)
    gamma2, _, n2, m2 = _pipeline(rebuilt)
    second = extract_stable_factor(gamma2, rebuilt, n2, m2)
    assert first.p.distance(second.p) < 1e-8


def test_extract_verification_gate():
    # feeding a gamma whose rank condition fails must trip the
    # a-posteriori residual check rather than return garbage
    f = LaurentPoly2(
        {
            (0, 0): 3.0,
            (1, 0): 0.5,
            (-1, 0): 0.5,
            (0, 1): 0.5,
            (0, -1): 0.5,
            (1, 1): 0.25,
            (-1, -1): 0.25,
            (1, -1): 0.15,
            (-1, 1): 0.15,
        }
    )
    table = fourier_of_reciprocal(f, (1, 1))
    gamma = build_gamma(table, 1, 1)
    with pytest.raises(FactorizationError, match="verification failed"):
        extract_stable_factor(gamma, f, 1, 1)


def test_extract_rejects_non_hermitian():
    # real_grid_blocks trusts its caller: extract_stable_factor is the one
    # public caller that reaches it past neither fourier_of_reciprocal's
    # nor fejer_riesz's check
    gamma, _, n, m = _pipeline(_abs_square(GEOMETRIC))
    with pytest.raises(ValueError, match=r"^f must be Hermitian \(real on the unit torus\)$"):
        extract_stable_factor(gamma, LaurentPoly2({(0, 0): 1.0, (1, 2): 0.5}), n, m)


def test_extract_refuses_nonpositive_solve():
    # -Gamma solves to -q, whose constant coefficient is negative
    f = _abs_square(GEOMETRIC)
    gamma, _, n, m = _pipeline(f)
    with pytest.raises(
        FactorizationError,
        match="^verification failed: constant coefficient of the solve is not positive$",
    ):
        extract_stable_factor(-gamma, f, n, m)


# ---------------------------------------------------------------- generator


def test_contraction_scalar_and_empty():
    p = stable_from_contraction(0.5, ("a",))
    assert p.distance(LaurentPoly2({(0, 0): 1.0, (1, 0): -0.5})) < 1e-15
    zero_k = np.zeros((2, 2))
    assert stable_from_contraction(zero_k, ("a", "b")) == LaurentPoly2.one()


def test_contraction_two_by_two_formula():
    K = np.array([[0.3, 0.2], [-0.1, 0.4]])
    p = stable_from_contraction(K, ("a", "b"))
    expected = LaurentPoly2(
        {
            (0, 0): 1.0,
            (1, 0): -0.3,
            (0, 1): -0.4,
            (1, 1): float(np.linalg.det(K)),
        }
    )
    assert p.distance(expected) < 1e-12


def test_contraction_rejects_expansive_K():
    with pytest.raises(ValueError, match="contraction"):
        stable_from_contraction(1.0, ("a",))
    with pytest.raises(ValueError, match="^slots must be 'a' or 'b'$"):
        stable_from_contraction(0.5, ("c",))
    with pytest.raises(ValueError, match="^K must be 2 x 2$"):
        stable_from_contraction(0.5, ("a", "b"))


def test_generate_stable_properties():
    p = generate_stable(2, 2, seed=17)
    assert abs(coeff_at(p, 0, 0) - 1.0) < 1e-12
    deg_a, deg_b = p.degrees()
    assert deg_a <= 2 and deg_b <= 2
    assert min(e for e, _ in p.items()) >= (0, 0)
    assert p == generate_stable(2, 2, seed=17)
    assert generate_stable(0, 0, seed=1) == LaurentPoly2.one()
    # ||K|| = 0.8 keeps |det(I - KZ)| >= 0.2^(deg_a + deg_b) on the closed bidisk
    for deg_a, deg_b, seed in ((2, 2, 17), (4, 4, 3), (1, 0, 5), (0, 3, 9)):
        p = generate_stable(deg_a, deg_b, seed)
        assert min_on_bidisk_net(p) >= 0.2 ** (deg_a + deg_b)


def test_generate_stable_degree_cap():
    with pytest.raises(ValueError, match="degree sum"):
        generate_stable(5, 4, seed=0)
    with pytest.raises(ValueError, match="^degrees must be nonnegative$"):
        generate_stable(-1, 0, 0)


# ---------------------------------------------------------------- completion


def _real_targets(s, phases):
    u = build_unitary(ProtocolSpec(s=s, phases=phases))
    return u.P.hermitian_part(), u.Q.hermitian_part()


def test_complete_protocol_targets_pinned():
    # real parts of an actual protocol with a healthy positivity margin;
    # the completion is a different unitary with the same real parts and
    # is itself protocol-realizable
    p_tilde, q_tilde = _real_targets((0, 1), (0.1, 2.8, -2.2))
    result = complete_unitary_2d(p_tilde, q_tilde, 2, 1)
    assert isinstance(result, CompletionResult)
    report = verify_structure(result.unitary, 2, 1)
    assert report.overall
    assert report.determinant_residual < 1e-9
    assert result.spec is not None
    assert result.spec.n == 2 and result.spec.weight == 1
    rebuilt = build_unitary(result.spec)
    assert rebuilt.distance(result.unitary) < 1e-8
    assert result.unitary.P.hermitian_part().distance(p_tilde) < 1e-9
    assert result.unitary.Q.hermitian_part().distance(q_tilde) < 1e-9


def test_complete_on_axis_b_past_the_rounding_floor():
    # f on axis b alone: its 1/f table (max ~4e2) moves by 7.3e-10 from the
    # 2^15 to the 2^16 grid, rounding in the sampled 1/f, which an absolute
    # tolerance of 1e-10 took for "no convergence". The Gamma route
    # converges on f along b and on its transpose along a alike, and
    # spectral_factor takes the transpose's factor transposed back
    p_tilde, q_tilde = _real_targets(
        (0, 0), (1.5624715763364785, 2.995043565473665, -0.005802432206793995)
    )
    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    on_b, on_a = gamma_factor(f), gamma_factor(f.transposed())
    assert on_b.convergence_residual == on_a.convergence_residual > factor2d.FOURIER_TOL
    assert on_b.p.distance(on_a.p.transposed()) < 1e-14
    result = complete_unitary_2d(p_tilde, q_tilde, 2, 0)
    assert result.factorization == replace(on_a, p=on_a.p.transposed())
    assert result.factorization.residual < 1e-12
    assert result.spec is not None
    assert build_unitary(result.spec).distance(result.unitary) < 1e-8


def test_complete_constant_targets():
    result = complete_unitary_2d(
        LaurentPoly2({(0, 0): 0.9}), LaurentPoly2.zero(), 0, 0
    )
    p = result.unitary.P
    assert abs(coeff_at(p, 0, 0) - (0.9 + 1j * math.sqrt(0.19))) < 1e-12
    assert result.unitary.Q.is_zero()
    assert result.spec is not None
    assert result.spec.s == ()
    assert abs(result.spec.phases[0] - math.atan2(math.sqrt(0.19), 0.9)) < 1e-9


def test_complete_univariate_target_with_shift_parity():
    # degenerate f (constant in b): the shift by the protocol parameters,
    # not by f's own degrees, is what makes R and S land on the right
    # negation parity
    x_a = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    result = complete_unitary_2d(0.9 * x_a, LaurentPoly2.zero(), 1, 1)
    report = verify_structure(result.unitary, 1, 1)
    assert report.overall
    assert report.determinant_residual < 1e-9
    assert result.spec is not None
    assert result.spec.s == (1,)


def test_complete_rejects_trivial_family_targets():
    # zero-phase alternating protocols embed functions of ab alone; their
    # completion target 1 - P^2 - Q^2 vanishes on the torus and is
    # rejected at the positivity gate
    p_tilde, q_tilde = _real_targets((0, 1), (0.0, 0.0, 0.0))
    with pytest.raises(FactorizationError, match="not strictly positive"):
        complete_unitary_2d(p_tilde, q_tilde, 2, 1)


def test_complete_rank_failure_is_clean():
    # strictly positive targets whose f admits no stable factor at its
    # bidegree: the rank condition fails and the error says so
    p_tilde, q_tilde = _real_targets((0, 1), (2.45, -1.71, 0.77))
    with pytest.raises(FactorizationError, match="rank condition not satisfied"):
        complete_unitary_2d(p_tilde, q_tilde, 2, 1)


def test_rank_one_too_many_marks_a_factor_the_completion_cannot_use():
    # a scripts/sweep.py two-variable target (seed 1000) where the submatrix
    # of Gamma has one singular value above RANK_REL_TOL too many. The
    # solve's factor still passes the factor gate and is stable on the net,
    # but its completion misses the determinant tolerance, so the rank test
    # is right to refuse it
    s = (0, 1, 1, 1)
    phases = (0.42763150945178063, -0.09102113342859885, 0.3176769254340921,
              -1.6011014106079304, -0.7522219411083415)
    p_tilde, q_tilde = _real_targets(s, phases)
    f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
    gamma, report, n, m = _pipeline(f)
    assert (report.submatrix_rank, report.target_rank) == (13, 12)
    assert not report.satisfied
    fac = extract_stable_factor(gamma, f, n, m)
    assert 1e-8 < fac.residual < 1e-7
    assert min_on_bidisk_net(fac.p) > 0.0
    assert assemble_completion(p_tilde, q_tilde, fac.p, 4, 3).det_residual() > DET_RESIDUAL_TOL
    with pytest.raises(FactorizationError, match="rank condition not satisfied"):
        complete_unitary_2d(p_tilde, q_tilde, 4, 3)


def test_rank_condition_agrees_with_the_completion_contract():
    # random-bit protocol targets with f of positive degree in both
    # variables and a converged Fourier table: the rank condition holds
    # exactly when the solve's factor passes the factor gate and completes
    # to a unitary within the determinant tolerance
    rng = np.random.default_rng(0)
    decided = set()
    for _ in range(250):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        p_tilde, q_tilde = _real_targets(spec.s, spec.phases)
        f = LaurentPoly2.one() - p_tilde * p_tilde - q_tilde * q_tilde
        if not all(f.degrees()):
            continue
        try:
            gamma, report, n, m = _pipeline(f)
        except FactorizationError:
            continue
        try:
            fac = extract_stable_factor(gamma, f, n, m)
        except FactorizationError:
            completes = False
        else:
            unitary = assemble_completion(p_tilde, q_tilde, fac.p, spec.n, spec.weight)
            completes = unitary.det_residual() <= DET_RESIDUAL_TOL
        assert report.satisfied == completes, (spec, report.submatrix_rank, report.target_rank)
        decided.add(completes)
    assert decided == {True, False}


def test_complete_validation_errors():
    x_a = LaurentPoly2({(1, 0): 0.5, (-1, 0): 0.5})
    iy_a = LaurentPoly2({(1, 0): 0.5j, (-1, 0): -0.5j})
    with pytest.raises(ValueError, match="real on the unit torus"):
        complete_unitary_2d(LaurentPoly2({(1, 0): 1.0}), LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="parity mismatch"):
        complete_unitary_2d(LaurentPoly2({(0, 0): 0.5}), LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="parity mismatch"):
        complete_unitary_2d(iy_a, LaurentPoly2.zero(), 1, 1)
    with pytest.raises(FactorizationError, match="degree exceeds bound"):
        complete_unitary_2d(
            LaurentPoly2({(3, 1): 0.25, (-3, -1): 0.25}), LaurentPoly2.zero(), 2, 1
        )
    with pytest.raises(ValueError, match="weight"):
        complete_unitary_2d(x_a, LaurentPoly2.zero(), 1, 2)


def test_check_targets_raises_exactly_where_verify_structure_fails():
    # Hermitian pairs: the real parts of protocol unitaries, some with one
    # term pair c a^j b^k + conj(c) a^-j b^-k added to Ptilde or Qtilde,
    # which can break degree, negation or inversion parity. verify_structure
    # on each entry alone (the zero polynomial conforms) fixes the message
    # check_targets must raise: per entry negation, then degree; inversion
    # only after both entries pass
    rng = np.random.default_rng(11)
    zero = LaurentPoly2.zero()
    raised = set()
    for trial in range(300):
        n = int(rng.integers(1, 5))
        spec = ProtocolSpec(rng.integers(0, 2, n).tolist(), rng.uniform(-3, 3, n + 1).tolist())
        m = spec.weight
        u = build_unitary(spec)
        targets = [u.P.hermitian_part(), u.Q.hermitian_part()]
        for entry in (0, 1):
            if trial % 4 in (entry + 1, 3):  # perturb none, P, Q or both
                j, k = (int(rng.integers(-d - 2, d + 3)) for d in (m, n - m))
                c = 0.1 * rng.choice([1.0, 1j, 1.0 + 1j])
                extra = LaurentPoly2({(j, k): c}) + LaurentPoly2({(-j, -k): np.conj(c)})
                targets[entry] = targets[entry] + extra
        p_tilde, q_tilde = targets
        p_rep = verify_structure(Su2LaurentUnitary(p_tilde, zero), n, m)
        q_rep = verify_structure(Su2LaurentUnitary(zero, q_tilde), n, m)
        both = verify_structure(Su2LaurentUnitary(p_tilde, q_tilde), n, m)
        want = None
        for rep in (p_rep, q_rep):
            if want is None and not rep.negation_parity_ok:
                want = "parity mismatch"
            if want is None and not rep.degree_ok:
                want = "degree exceeds bound"
        if want is None and not (p_rep.inversion_parity_ok and q_rep.inversion_parity_ok):
            want = "parity mismatch"
        flags = (both.degree_ok, both.inversion_parity_ok, both.negation_parity_ok)
        assert (want is None) == all(flags)
        if want is None:
            factor2d.check_targets(p_tilde, q_tilde, n, m)
            continue
        with pytest.raises(FactorizationError, match="^%s$" % want):
            factor2d.check_targets(p_tilde, q_tilde, n, m)
        raised.add(want)
    assert raised == {"parity mismatch", "degree exceeds bound"}
