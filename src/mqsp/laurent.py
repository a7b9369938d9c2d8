"""Laurent polynomials in one and two circle variables.

`LaurentPoly2` stores the coefficients of sum c_{jk} a^j b^k as a dense
complex array over the smallest exponent box holding them, plus the
exponent (lo_a, lo_b) of its first cell; the zero polynomial is an empty
array. Ring operations are numpy work on these arrays: sums add aligned
boxes, a product is one direct (not FFT) 1-D convolution of the
flattened boxes, the conjugate-reciprocal and the inversion flip the box,
and degrees and parity read it directly. `aligned` puts the boxes of two
polynomials on one exponent range; read-off takes its leading slices from
there. Every result is pruned once, dropping coefficients at or below
PRUNE_REL times its largest magnitude, and a non-finite coefficient
raises ValueError.
`LaurentPoly1` keeps a dict of integer exponents. Everything downstream
-- protocol unitaries, peeling, spectral factorization -- is built on
these two classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _prune(coeffs):
    # Drops entries below the relative threshold; empty dict is the zero poly.
    if not coeffs:
        return {}
    top = max(abs(c) for c in coeffs.values())
    if top == 0.0:
        return {}
    cut = PRUNE_REL * top
    return {e: c for e, c in coeffs.items() if abs(c) > cut}


def _zeros(rows, cols):
    if rows * cols > MAX_CELLS:
        raise ValueError(
            "exponent box of %d x %d coefficients exceeds MAX_CELLS" % (rows, cols)
        )
    return np.zeros((rows, cols), dtype=complex)


_EMPTY = np.zeros((0, 0), dtype=complex)


@dataclass(frozen=True)
class DegreePair:
    """Degrees of a bivariate Laurent polynomial: deg_a/deg_b are the max
    |exponent| per variable, both None for the zero polynomial (sentinel).
    """

    deg_a: int | None
    deg_b: int | None

    @property
    def is_zero(self):
        return self.deg_a is None


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
        js = np.array([int(j) for j, _ in coeffs])
        ks = np.array([int(k) for _, k in coeffs])
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
        """Store `box` (first cell at exponent (lo_a, lo_b)) pruned and trimmed."""
        if box.size == 0:
            return self._set(_EMPTY, 0, 0, 0.0)
        mag = np.abs(box)
        top = float(mag.max())
        if not top < math.inf:
            raise ValueError("non-finite coefficient")
        if top == 0.0:
            return self._set(_EMPTY, 0, 0, 0.0)
        keep = mag > PRUNE_REL * top
        rows, cols = np.nonzero(keep)
        if rows.size != np.count_nonzero(box):
            box = np.where(keep, box, 0.0)
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols.min()), int(cols.max()) + 1
        return self._set(box[r0:r1, c0:c1], lo_a + r0, lo_b + c0, top)

    @classmethod
    def _from_box(cls, box, lo_a, lo_b):
        return object.__new__(cls)._prune_into(box, lo_a, lo_b)

    def _like(self, box, lo_a, lo_b):
        # same magnitudes as self (flips, negation): no prune needed
        return object.__new__(LaurentPoly2)._set(box, lo_a, lo_b, self._top)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1.0})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, j, k, c=1.0):
        return cls({(j, k): c})

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

    def coeff(self, j, k):
        i, l = j - self._lo[0], k - self._lo[1]
        rows, cols = self._box.shape
        if 0 <= i < rows and 0 <= l < cols:
            return complex(self._box[i, l])
        return 0.0 + 0.0j

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
        return "LaurentPoly2({%s})" % terms

    def distance(self, other):
        """Max coefficient difference; the metric for all exactness checks."""
        x, y, _ = aligned(self, other)
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
        step_a = 1 if self._box[1::2].any() or other._box[1::2].any() else 2
        step_b = 1 if self._box[:, 1::2].any() or other._box[:, 1::2].any() else 2
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
        if self.is_zero():
            return np.zeros((za.size, zb.size), dtype=complex)
        (lo_a, lo_b), (rows, cols) = self._lo, self._box.shape
        va = za[:, None] ** np.arange(lo_a, lo_a + rows)
        vb = zb[:, None] ** np.arange(lo_b, lo_b + cols)
        return va @ self._box @ vb.T

    def eval_unit_grid(self, n):
        """Values at theta_r = 2*pi*r/n per axis: out[r, s] = p(2*pi*r/n,
        2*pi*s/n), the whole grid as one block of `unit_grid_blocks`."""
        ((_, values),) = self.unit_grid_blocks(n, n)
        return values

    def unit_grid_blocks(self, n, block_rows):
        """Yield (start, values) over the n x n grid of `eval_unit_grid`,
        block_rows theta_a rows at a time: values[i, s] = p(2*pi*(start +
        i)/n, 2*pi*s/n).

        One zero-padded inverse FFT along a of the coefficient box (n x box
        width) serves every block; each block then takes one inverse FFT
        along b, so it costs O(block_rows * n log n) and holds block_rows x
        n samples whatever the box width. Exact (up to rounding) provided n
        exceeds the exponent spread in both variables.
        """
        deg = self.degrees()
        if not deg.is_zero and (2 * deg.deg_a >= n or 2 * deg.deg_b >= n):
            raise ValueError("grid size %d too small for exponent spread" % n)
        (lo_a, lo_b), (rows, cols) = self._lo, self._box.shape
        # the spread check keeps the residues mod n distinct: no collisions
        at_b = np.arange(lo_b, lo_b + cols) % n
        along_a = np.zeros((n, cols), dtype=complex)
        along_a[np.arange(lo_a, lo_a + rows) % n] = self._box
        np.fft.ifft(along_a, axis=0, out=along_a)
        for start in range(0, n, block_rows):
            block = np.zeros((min(block_rows, n - start), n), dtype=complex)
            block[:, at_b] = along_a[start : start + block_rows]
            np.fft.ifft(block, axis=1, out=block)
            block *= n * n
            yield start, block

    # -- degrees and parity ------------------------------------------------

    def degrees(self):
        if self.is_zero():
            return DegreePair(None, None)
        (lo_a, lo_b), (rows, cols) = self._lo, self._box.shape
        return DegreePair(max(-lo_a, lo_a + rows - 1), max(-lo_b, lo_b + cols - 1))

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


class LaurentPoly1:
    """Univariate Laurent polynomial with a variable tag ('a', 'b' or 'z')."""

    __slots__ = ("_c", "var")

    def __init__(self, coeffs=None, var="z"):
        if var not in ("a", "b", "z"):
            raise ValueError("var must be one of 'a', 'b', 'z'")
        if coeffs is None:
            coeffs = {}
        cleaned = {}
        for k, v in coeffs.items():
            c = _clean(v)
            if c != 0:
                cleaned[int(k)] = cleaned.get(int(k), 0.0) + c
        object.__setattr__(self, "_c", _prune(cleaned))
        object.__setattr__(self, "var", var)

    @classmethod
    def zero(cls, var="z"):
        return cls({}, var=var)

    @classmethod
    def one(cls, var="z"):
        return cls({0: 1.0}, var=var)

    @classmethod
    def from_coeff_array(cls, coeffs, lowest_exp=0, var="z"):
        """Dense coefficient array, index i holding the exponent lowest_exp+i."""
        return cls({lowest_exp + i: c for i, c in enumerate(coeffs)}, var=var)

    # -- queries -----------------------------------------------------------

    def items(self):
        return self._c.items()

    def coeff(self, k):
        return self._c.get(k, 0.0 + 0.0j)

    def is_zero(self):
        return not self._c

    def max_abs(self):
        return max((abs(c) for c in self._c.values()), default=0.0)

    def max_exp(self):
        return max(self._c) if self._c else None

    def degree(self):
        """Max |exponent|; None for the zero polynomial."""
        return max((abs(k) for k in self._c), default=None) if self._c else None

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        return self.var == other.var and self._c == other._c

    __hash__ = None

    def __repr__(self):
        terms = ", ".join(
            "%d: %.6g%+.6gj" % (k, c.real, c.imag) for k, c in sorted(self._c.items())
        )
        return "LaurentPoly1({%s}, var=%r)" % (terms, self.var)

    def distance(self, other):
        keys = set(self._c) | set(other._c)
        return max((abs(self.coeff(k) - other.coeff(k)) for k in keys), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(
                "variable mismatch: %r vs %r" % (self.var, other.var)
            )

    def __add__(self, other):
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        self._check_var(other)
        out = dict(self._c)
        for k, c in other._c.items():
            out[k] = out.get(k, 0.0) + c
        return LaurentPoly1(out, var=self.var)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly1({k: -c for k, c in self._c.items()}, var=self.var)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly1):
            self._check_var(other)
            out = {}
            for k1, c1 in self._c.items():
                for k2, c2 in other._c.items():
                    out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
            return LaurentPoly1(out, var=self.var)
        return LaurentPoly1(
            {k: c * complex(other) for k, c in self._c.items()}, var=self.var
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def conj_reciprocal(self):
        return LaurentPoly1(
            {-k: c.conjugate() for k, c in self._c.items()}, var=self.var
        )

    def is_hermitian(self):
        """c_{-k} == conj(c_k), i.e. real-valued on the unit circle."""
        return self.distance(self.conj_reciprocal()) <= PARITY_REL * self.max_abs()

    def negation_bit(self):
        if not self._c:
            return None
        cut = PARITY_REL * self.max_abs()
        bits = {k % 2 for k, c in self._c.items() if abs(c) > cut}
        return bits.pop() if len(bits) == 1 else None

    # -- evaluation ---------------------------------------------------------

    def eval_circle_grid(self, n):
        """Values at theta_r = 2*pi*r/n, via zero-padded inverse FFT."""
        deg = self.degree()
        if deg is not None and 2 * deg >= n:
            raise ValueError("grid size %d too small for exponent spread" % n)
        table = np.zeros(n, dtype=complex)
        for k, c in self._c.items():
            table[k % n] += c
        return n * np.fft.ifft(table)

    # -- embedding into two variables ----------------------------------------

    def embed(self, var):
        """Lift into LaurentPoly2 with the exponent living on `var`."""
        if var == "a":
            return LaurentPoly2({(k, 0): c for k, c in self._c.items()})
        if var == "b":
            return LaurentPoly2({(0, k): c for k, c in self._c.items()})
        raise ValueError("var must be 'a' or 'b'")
