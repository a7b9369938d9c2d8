"""Laurent polynomials in one and two circle variables.

`LaurentPoly2` stores the coefficients of sum c_{jk} a^j b^k as a dense
complex array over the smallest exponent box holding them, plus the
exponent (lo_a, lo_b) of its first cell; the zero polynomial is an empty
array. Ring operations are numpy work on these arrays: sums add aligned
boxes, a product is one direct (not FFT) 1-D convolution of the
flattened boxes, the conjugate-reciprocal and the inversion flip the box,
the transpose swaps the variables, and degrees and parity read it
directly. `aligned` puts the boxes of two polynomials on one exponent
range; read-off takes its leading slices from there. Every result is
pruned once, dropping coefficients at or below PRUNE_REL times its
largest magnitude, and a non-finite coefficient raises ValueError.
`LaurentPoly1` is the single-variable polynomial in oracle A's variable
(a single-oracle protocol has weight m = n): the LaurentPoly2 subclass
whose b exponents are all 0, built from a {k: c} dict; every query and
operation is LaurentPoly2's. Everything downstream -- protocol unitaries,
peeling, spectral factorization -- is built on LaurentPoly2.
"""

from __future__ import annotations

import math

import numpy as np

# Relative prune threshold: every result drops the coefficients at or
# below PRUNE_REL times its largest magnitude as numerical dust.
PRUNE_REL = 1e-14

# Relative tolerance for declaring a coefficient symmetry (parity) exact.
PARITY_REL = 1e-10

# Largest exponent box (cells) a LaurentPoly2 may span: 2^22 complex cells
# are 64 MB, far above any protocol here (n = 64 spans 65 x 65). Sparse
# input with far-apart exponents raises ValueError instead of allocating.
MAX_CELLS = 1 << 22


def _clean(value):
    c = complex(value)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("non-finite coefficient %r" % (value,))
    return c


def check_box(rows, cols):
    """Raise ValueError when a rows x cols exponent box exceeds MAX_CELLS."""
    if rows * cols > MAX_CELLS:
        raise ValueError(
            "exponent box of %d x %d coefficients exceeds MAX_CELLS" % (rows, cols)
        )


def _zeros(rows, cols):
    check_box(rows, cols)
    return np.zeros((rows, cols), dtype=complex)


def parity_steps(x, y):
    """(step_a, step_b) for two coefficient boxes: 2 along an axis where
    both keep their nonzeros on every other cell from their first, so that
    their exponents there have one parity each, else 1. A product or a
    correlation of the two then has its nonzeros on every other cell along
    such an axis."""
    step_a = 1 if x[1::2].any() or y[1::2].any() else 2
    step_b = 1 if x[:, 1::2].any() or y[:, 1::2].any() else 2
    return step_a, step_b


def kept(boxes):
    """(keep, top) for a coefficient box, or a stack of them along leading
    axes: top is each box's largest magnitude (a scalar for one box, the
    leading shape then (1, 1) for a stack), and keep marks the entries a
    pruned result keeps, those above PRUNE_REL * top."""
    mag = np.abs(boxes)
    # for one box a reduction over all axes is the cheapest numpy call
    axis = (-2, -1) if mag.ndim > 2 else None
    top = np.maximum.reduce(mag, axis=axis, keepdims=axis is not None)
    return mag > PRUNE_REL * top, top


def _prune(boxes):
    """Prune the caller's fresh coefficient box, or stack of them along a
    first axis, in place: each box that drops a nonzero (kept) gets +0 in
    every dropped cell. Returns (keep, top, full): kept's pair, and whether
    every box keeps a cell on each edge row and column, so needs no trim.
    Raises ValueError for a non-finite coefficient."""
    keep, top = kept(boxes)
    layers = zip(boxes, keep, top.ravel().tolist()) if boxes.ndim > 2 else [(boxes, keep, float(top))]
    row_step, col_step = (max(size - 1, 1) for size in boxes.shape[-2:])
    edges = []
    for box, box_keep, box_top in layers:
        if not box_top < math.inf:
            raise ValueError("non-finite coefficient")
        if np.count_nonzero(box) != np.count_nonzero(box_keep):
            np.putmask(box, ~box_keep, 0.0)
        edges += box_keep[::row_step].tolist() + box_keep[:, ::col_step].T.tolist()
    return keep, top, all(map(any, edges))


_EMPTY = np.zeros((0, 0), dtype=complex)


class LaurentPoly2:
    """Bivariate Laurent polynomial sum_{(j,k)} c_{jk} a^j b^k.

    `_box[i, l]` is the coefficient of a^(lo_a + i) b^(lo_b + l) with
    `_lo = (lo_a, lo_b)`; the box is trimmed (its edge rows and columns
    hold a nonzero), every nonzero in it is above PRUNE_REL times `_top`,
    its largest magnitude, and it is never written after construction.
    """

    __slots__ = ("_box", "_lo", "_top")
    # numpy scalars defer to __rmul__ instead of treating p as an array
    __array_ufunc__ = None

    def __init__(self, coeffs=None):
        """From a dict {(j, k): coefficient}; repeated exponents add up."""
        if not coeffs:
            self._set(_EMPTY, 0, 0, 0.0)
            return
        try:
            js = np.array([int(j) for j, _ in coeffs], dtype=np.int64)
            ks = np.array([int(k) for _, k in coeffs], dtype=np.int64)
        except OverflowError:
            raise ValueError("exponent out of int64 range") from None
        values = np.array([_clean(v) for v in coeffs.values()])
        lo_a, lo_b = int(js.min()), int(ks.min())
        box = _zeros(int(js.max()) - lo_a + 1, int(ks.max()) - lo_b + 1)
        np.add.at(box, (js - lo_a, ks - lo_b), values)
        self._prune_into(box, lo_a, lo_b)

    def _set(self, box, lo_a, lo_b, top):
        self._box = box
        self._lo = (lo_a, lo_b)
        self._top = top
        return self

    def _prune_into(self, box, lo_a, lo_b):
        """Store the fresh `box` (first cell at (lo_a, lo_b)) pruned in place and trimmed."""
        if box.size == 0:
            return self._set(_EMPTY, 0, 0, 0.0)
        keep, top, full = _prune(box)
        top = float(top)
        if top == 0.0:
            return self._set(_EMPTY, 0, 0, 0.0)
        if not full:
            rows, cols = np.nonzero(keep)
            r0, r1 = int(rows[0]), int(rows[-1]) + 1
            c0, c1 = int(np.minimum.reduce(cols)), int(np.maximum.reduce(cols)) + 1
            box, lo_a, lo_b = box[r0:r1, c0:c1], lo_a + r0, lo_b + c0
        return self._set(box, lo_a, lo_b, top)

    @classmethod
    def _from_box(cls, box, lo_a, lo_b):
        return object.__new__(cls)._prune_into(box, lo_a, lo_b)

    def _like(self, box, lo_a, lo_b):
        # same magnitudes as self (flips, negation): no prune needed
        return object.__new__(LaurentPoly2)._set(box, lo_a, lo_b, self._top)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return object.__new__(cls)._set(_EMPTY, 0, 0, 0.0)

    @classmethod
    def one(cls):
        return object.__new__(cls)._set(np.ones((1, 1), dtype=complex), 0, 0, 1.0)

    @classmethod
    def from_array(cls, coeffs, lo_a, lo_b):
        """From a 2-D array whose cell [i, l] is the coefficient of
        a^(lo_a + i) b^(lo_b + l); the array is copied."""
        box = np.array(coeffs, dtype=complex, ndmin=2)
        if box.ndim != 2:
            raise ValueError("coefficients must be a 2-D array")
        return cls._from_box(box, int(lo_a), int(lo_b))

    # -- basic queries -----------------------------------------------------

    def items(self):
        """List of ((j, k), coefficient) over the nonzero terms, sorted."""
        lo_a, lo_b = self._lo
        rows, cols = np.nonzero(self._box)
        values = self._box[rows, cols].tolist()
        return [
            ((lo_a + i, lo_b + l), c)
            for i, l, c in zip(rows.tolist(), cols.tolist(), values)
        ]

    def is_zero(self):
        return self._box.size == 0

    def max_abs(self):
        return self._top

    def __len__(self):
        return int(np.count_nonzero(self._box))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._lo == other._lo and np.array_equal(self._box, other._box)

    __hash__ = None

    def __repr__(self):
        terms = ", ".join(
            "(%d,%d): %.6g%+.6gj" % (j, k, c.real, c.imag) for (j, k), c in self.items()
        )
        return "%s({%s})" % (type(self).__name__, terms)

    def distance(self, other):
        """Max coefficient difference; the metric for all exactness checks
        (inf where the difference overflows, which fails every `<=`)."""
        x, y, _ = aligned(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.abs(x - y).max()) if x.size else 0.0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        x, y, (lo_a, lo_b) = aligned(self, other)
        return LaurentPoly2._from_box(x + y, lo_a, lo_b)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        x, y, (lo_a, lo_b) = aligned(self, other)
        return LaurentPoly2._from_box(x - y, lo_a, lo_b)

    def __neg__(self):
        return self._like(-self._box, *self._lo)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly2):
            return LaurentPoly2._from_box(self._box * complex(other), *self._lo)
        if self.is_zero() or other.is_zero():
            return LaurentPoly2.zero()
        out = _zeros(
            self._box.shape[0] + other._box.shape[0] - 1,
            self._box.shape[1] + other._box.shape[1] - 1,
        )
        # when both factors' exponents keep one parity along an axis (every
        # protocol entry does), the product lives on every other cell there
        step_a, step_b = parity_steps(self._box, other._box)
        target = out[::step_a, ::step_b]
        # a 2-D convolution is the 1-D one of the row-major flattened boxes
        # once every row is zero-padded to the output width: a term's column
        # offset stays below that width, so no term wraps into the next row.
        # The padding costs at most 4x the direct sum for equal widths (as in
        # P * P~). Each coefficient stays a direct sum of products, so small
        # ones keep their relative precision; an FFT would spread the
        # rounding of the largest over all of them
        rows, width = target.shape
        flat = []
        for box in (self._box[::step_a, ::step_b], other._box[::step_a, ::step_b]):
            padded = np.zeros((box.shape[0], width), dtype=complex)
            padded[:, : box.shape[1]] = box
            flat.append(padded.ravel())
        target[...] = np.convolve(*flat)[: rows * width].reshape(rows, width)
        return LaurentPoly2._from_box(
            out, self._lo[0] + other._lo[0], self._lo[1] + other._lo[1]
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- structural maps ---------------------------------------------------

    def _flipped_lo(self):
        rows, cols = self._box.shape
        return -(self._lo[0] + rows - 1), -(self._lo[1] + cols - 1)

    def conj_reciprocal(self):
        """Coefficient at (j,k) becomes conj of the input at (-j,-k).

        On the torus this is pointwise complex conjugation; it is an
        involution and multiplicative.
        """
        if self.is_zero():
            return self
        return self._like(self._box[::-1, ::-1].conj(), *self._flipped_lo())

    def inversion(self):
        """p(1/a, 1/b): exponents flip, coefficients untouched."""
        if self.is_zero():
            return self
        return self._like(self._box[::-1, ::-1], *self._flipped_lo())

    def transposed(self):
        """p(b, a): coefficient at (j,k) becomes the input's at (k,j)."""
        return self._like(self._box.T, self._lo[1], self._lo[0])

    def hermitian_part(self):
        """(p + conj_reciprocal(p))/2, the real part of p on the torus."""
        return (self + self.conj_reciprocal()) * 0.5

    def is_hermitian(self):
        """True when p is real-valued on the torus (coeff at -e is conj of e)."""
        return self.distance(self.conj_reciprocal()) <= PARITY_REL * self.max_abs()

    # -- evaluation --------------------------------------------------------

    def eval_grid(self, za, zb):
        """Values on a product of nonzero points: out[i, j] = p(za[i], zb[j]).

        Computed as V(za) C V(zb)^T, with C the coefficient box and V the
        Vandermonde matrix of its exponents.
        """
        za = np.atleast_1d(np.asarray(za, dtype=complex))
        zb = np.atleast_1d(np.asarray(zb, dtype=complex))
        (lo_a, lo_b), (rows, cols) = self._lo, self._box.shape
        va = za[:, None] ** np.arange(lo_a, lo_a + rows)
        vb = zb[:, None] ** np.arange(lo_b, lo_b + cols)
        return va @ self._box @ vb.T

    def eval_unit_grid(self, n):
        """Values at theta_r = 2*pi*r/n per axis: out[r, s] = p(2*pi*r/n,
        2*pi*s/n), `unit_grid` on the n x n grid."""
        return self.unit_grid((n, n))

    def unit_grid(self, shape):
        """Values on the na x nb grid of `shape`:
        out[r, s] = p(2*pi*r/na, 2*pi*s/nb).

        One zero-padded inverse FFT along a of the coefficient box (na x box
        width), then one along b of the whole grid; an axis of length 1 (p
        constant along it) takes no FFT. Exact (up to rounding) provided
        each axis exceeds the exponent spread in its variable.
        """
        na, nb = shape
        along_a = self._along_a(na, nb)
        grid = np.zeros((na, nb), dtype=complex)
        grid[:, np.arange(self._lo[1], self._lo[1] + along_a.shape[1]) % nb] = along_a
        if nb > 1:
            np.fft.ifft(grid, axis=1, out=grid, norm="forward")
        return grid

    def real_grid_blocks(self, shape, block_cells):
        """Yield (start, values) over the na x nb grid of `shape` for a
        Hermitian p, in whole theta_a rows of at most block_cells samples (at
        least one row): values[i] is row start + i of `unit_grid`'s real
        parts, as float64 samples (up to rounding and to the departure from
        exact symmetry that is_hermitian allows).

        p must be Hermitian, which is not checked here: the factor routes
        check f once, where it enters them. For any other p the samples are
        not those real parts.

        p's coefficients d_k(theta_a) in b satisfy d_-k = conj(d_k), so only
        the box's columns of b exponent k >= 0 take the inverse FFT along a
        (na x (deg_b + 1) complex values), and they are every row's half
        spectrum. Each block then sums its deg_b + 1 harmonics along b as
        direct sums, one matrix product with a cos_sin_rows table of
        2 (deg_b + 1) nb values, when harmonic_sums_pay(deg_b + 1, nb,
        block_cells); else it takes one inverse real FFT along b of its
        half spectrum zero-padded to nb/2 + 1 values a row. Either way a
        block holds at most max(block_cells, nb) real samples. With nb = 1
        (p on axis a alone) its half_spectrum takes one inverse real FFT
        along a.
        """
        na, nb = shape
        block_rows = max(1, block_cells // nb)
        if nb == 1:
            self._check_grid(na, nb)
            values = np.fft.irfft(self.half_spectrum(), n=na, norm="forward")[:, None]
            for start in range(0, na, block_rows):
                yield start, values[start : start + block_rows]
            return
        # a nonzero Hermitian box has lo_b <= 0 <= its top b exponent, so
        # its columns from -lo_b on hold k = 0, 1, ..., top
        half = self._along_a(na, nb, first=max(0, -self._lo[1]))
        count = half.shape[1]
        rows = cos_sin_rows(count, nb) if harmonic_sums_pay(count, nb, block_cells) else None
        for start in range(0, na, block_rows):
            block = half[start : start + block_rows]
            if rows is None:
                yield start, np.fft.irfft(block, n=nb, axis=1, norm="forward")
            else:
                yield start, harmonic_synthesis(block, rows)

    def half_spectrum(self):
        """h_k = (c_k + conj(c_-k))/2, k = 0..deg_a, for p on axis a alone
        (b exponents all 0, not checked): the rfft-layout spectrum of p's
        real part, so np.fft.irfft(h, n, norm="forward") samples it at
        theta_r = 2*pi*r/n for any n > 2 deg_a (numpy zero-pads h)."""
        h = np.zeros(self.degrees()[0] + 1, dtype=complex)
        exps, coeffs = np.arange(self._lo[0], self._lo[0] + len(self._box)), self._box.ravel()
        up, down = exps >= 0, exps <= 0
        h[exps[up]] = 0.5 * coeffs[up]
        h[-exps[down]] += 0.5 * coeffs[down].conj()
        return h

    def _check_grid(self, na, nb):
        deg_a, deg_b = self.degrees()
        if 2 * deg_a >= na or 2 * deg_b >= nb:
            raise ValueError("grid %d x %d too small for exponent spread" % (na, nb))

    def _along_a(self, na, nb, first=0):
        """The coefficient box from its column `first` on (b exponent
        lo_b + first), zero-padded to na rows and inverse-transformed along
        a, unscaled (an axis of length 1 takes no FFT), for a grid of na x nb
        samples. Raises ValueError when the grid does not exceed the
        exponent spread, which keeps the residues mod na and nb distinct."""
        self._check_grid(na, nb)
        lo_a, rows = self._lo[0], len(self._box)
        along_a = np.zeros((na, self._box.shape[1] - first), dtype=complex)
        along_a[np.arange(lo_a, lo_a + rows) % na] = self._box[:, first:]
        if na > 1:
            np.fft.ifft(along_a, axis=0, out=along_a, norm="forward")
        return along_a

    # -- degrees and parity ------------------------------------------------

    def degrees(self):
        """(deg_a, deg_b): the largest |exponent| per variable, (0, 0) for
        the zero polynomial."""
        if self.is_zero():
            return (0, 0)
        (lo_a, lo_b), (rows, cols) = self._lo, self._box.shape
        return (max(-lo_a, lo_a + rows - 1), max(-lo_b, lo_b + cols - 1))

    def has_inversion_sign(self, sign):
        """True when p(1/a, 1/b) == sign * p within PARITY_REL (zero poly: True)."""
        return self.inversion().distance(self * sign) <= PARITY_REL * self.max_abs()

    def negation_bits(self):
        """Exponent residues mod 2 per variable: (bit or None, bit or None).
        Coefficients below PARITY_REL of the largest are ignored."""
        if self.is_zero():
            return (None, None)
        rows, cols = np.nonzero(np.abs(self._box) > PARITY_REL * self._top)
        bits = []
        for lo, idx in zip(self._lo, (rows, cols)):
            parity = (idx + lo) % 2
            bits.append(int(parity[0]) if (parity == parity[0]).all() else None)
        return tuple(bits)


def harmonic_sums_pay(count, n, block_cells):
    """True when the harmonics k = 0..count-1 along an axis of n samples
    are cheaper as direct sums, one matrix product with a cos_sin_rows
    table, than as one real FFT of the whole axis: count <= log2(n) (the
    product costs ~2 count n flops per row, the FFT ~n log2 n), and the
    table's 2 count n values fit in block_cells, the caller's samples per
    block."""
    return count <= math.log2(n) and 2 * count * n <= block_cells


def cos_sin_rows(count, n):
    """The 2 count x n table whose row k is cos(2 pi k s / n) and row
    count + k is sin(2 pi k s / n), k = 0..count-1, s = 0..n-1. Every entry
    is read from one row of n-th roots of unity at the exact residue
    (k s) mod n, so large k s cost no accuracy."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    powers = roots[np.multiply.outer(np.arange(count), np.arange(n)) % n]
    return np.concatenate([powers.real, powers.imag])


def harmonic_synthesis(half, rows):
    """x_s = sum_k w_k Re(half[..., k] e^(2 pi i k s / n)), w = 1, 2, 2, ...,
    as one matrix product with rows = cos_sin_rows(count, n), where count
    (<= n/2) is half's last axis: np.fft.irfft(half, n, norm="forward") of
    the half spectrum zero-padded past its count entries."""
    weights = np.full(half.shape[-1], 2.0)
    weights[:1] = 1.0
    return np.concatenate([weights * half.real, -weights * half.imag], axis=-1) @ rows


def harmonic_analysis(x, rows):
    """X_k = sum_s x[..., s] e^(-2 pi i k s / n), k = 0..count-1, as one
    matrix product with rows = cos_sin_rows(count, n):
    np.fft.rfft(x)[..., :count] for real x of n samples."""
    both = x @ rows.T
    count = len(rows) // 2
    return both[..., :count] - 1j * both[..., count:]


def aligned(p, q):
    """(x, y, (lo_a, lo_b)): the coefficients of p and q on the smallest box
    holding both, whose first cell is the exponent (lo_a, lo_b). Read-only:
    either array may be the polynomial's own storage."""
    if p._lo == q._lo and p._box.shape == q._box.shape:
        return p._box, q._box, p._lo
    if q.is_zero():
        return p._box, np.zeros_like(p._box), p._lo
    if p.is_zero():
        return np.zeros_like(q._box), q._box, q._lo
    (pa, pb), (qa, qb) = p._lo, q._lo
    lo_a, lo_b = min(pa, qa), min(pb, qb)
    hi_a = max(pa + p._box.shape[0], qa + q._box.shape[0])
    hi_b = max(pb + p._box.shape[1], qb + q._box.shape[1])
    x, y = _zeros(hi_a - lo_a, hi_b - lo_b), _zeros(hi_a - lo_a, hi_b - lo_b)
    for out, (a, b), box in ((x, (pa, pb), p._box), (y, (qa, qb), q._box)):
        out[a - lo_a : a - lo_a + box.shape[0], b - lo_b : b - lo_b + box.shape[1]] = box
    return x, y, (lo_a, lo_b)


class LaurentPoly1(LaurentPoly2):
    """Single-variable Laurent polynomial sum_k c_k a^k in oracle A's
    variable: a LaurentPoly2 whose b exponents are all 0. Arithmetic on it
    returns LaurentPoly2s."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        """From a dict {k: coefficient}."""
        super().__init__({(k, 0): c for k, c in (coeffs or {}).items()})

    @classmethod
    def from_poly2(cls, p):
        """The LaurentPoly1 on p's box, a LaurentPoly2 whose b exponents are
        all 0 (not checked); no copy is made."""
        return object.__new__(cls)._set(p._box, *p._lo, p._top)

    def max_exp(self):
        """Largest exponent; None for the zero polynomial."""
        return None if self.is_zero() else self._lo[0] + len(self._box) - 1

    # own entries, so that wrapping these names on either class from
    # outside wraps that class alone
    __mul__ = LaurentPoly2.__mul__
    __add__ = LaurentPoly2.__add__
    conj_reciprocal = LaurentPoly2.conj_reciprocal
