"""Sparse Laurent polynomials in one and two circle variables.

Coefficients are complex doubles keyed by integer exponents (pairs of
integers in the bivariate case). Everything downstream -- protocol
unitaries, peeling, spectral factorization -- is built on these two
classes, so the arithmetic here is deliberately boring: dict convolution,
pruning of numerical dust, and structural queries (parity, degree,
exponent windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative prune threshold: after every arithmetic op, coefficients below
# PRUNE_REL times the largest magnitude are numerical dust and dropped.
PRUNE_REL = 1e-14

# Relative tolerance for declaring a coefficient symmetry (parity) exact.
PARITY_REL = 1e-10


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


@dataclass(frozen=True)
class DegreePair:
    """Degrees of a bivariate Laurent polynomial.

    deg_a/deg_b are max |exponent| per variable; pos_a/pos_b are the maximal
    (signed) exponents, which drive leading slices and peeling. All fields
    are None for the zero polynomial (sentinel).
    """

    deg_a: int | None
    deg_b: int | None
    pos_a: int | None
    pos_b: int | None

    @property
    def is_zero(self):
        return self.deg_a is None


class LaurentPoly2:
    """Bivariate Laurent polynomial sum_{(j,k)} c_{jk} a^j b^k, sparse."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        cleaned = {}
        for (j, k), v in coeffs.items():
            c = _clean(v)
            if c != 0:
                cleaned[(int(j), int(k))] = cleaned.get((int(j), int(k)), 0.0) + c
        object.__setattr__(self, "_c", _prune(cleaned))

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

    # -- basic queries -----------------------------------------------------

    def items(self):
        return self._c.items()

    def support(self):
        return sorted(self._c.keys())

    def coeff(self, j, k):
        return self._c.get((j, k), 0.0 + 0.0j)

    def is_zero(self):
        return not self._c

    def max_abs(self):
        return max((abs(c) for c in self._c.values()), default=0.0)

    def __len__(self):
        return len(self._c)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    def __repr__(self):
        terms = ", ".join(
            "(%d,%d): %.6g%+.6gj" % (j, k, c.real, c.imag)
            for (j, k), c in sorted(self._c.items())
        )
        return "LaurentPoly2({%s})" % terms

    def distance(self, other):
        """Max coefficient difference; the metric for all exactness checks."""
        keys = set(self._c) | set(other._c)
        return max(
            (abs(self.coeff(*e) - other.coeff(*e)) for e in keys), default=0.0
        )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0.0) + c
        return LaurentPoly2(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly2({e: -c for e, c in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly2):
            out = {}
            for (j1, k1), c1 in self._c.items():
                for (j2, k2), c2 in other._c.items():
                    e = (j1 + j2, k1 + k2)
                    out[e] = out.get(e, 0.0) + c1 * c2
            return LaurentPoly2(out)
        return LaurentPoly2({e: c * complex(other) for e, c in self._c.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- structural maps ---------------------------------------------------

    def conj_reciprocal(self):
        """Coefficient at (j,k) becomes conj of the input at (-j,-k).

        On the torus this is pointwise complex conjugation; it is an
        involution and multiplicative.
        """
        return LaurentPoly2({(-j, -k): c.conjugate() for (j, k), c in self._c.items()})

    def inversion(self):
        """p(1/a, 1/b): exponents flip, coefficients untouched."""
        return LaurentPoly2({(-j, -k): c for (j, k), c in self._c.items()})

    def hermitian_part(self):
        """(p + conj_reciprocal(p))/2, the real part of p on the torus."""
        return (self + self.conj_reciprocal()) * 0.5

    def is_hermitian(self):
        """True when p is real-valued on the torus (coeff at -e is conj of e)."""
        return self.distance(self.conj_reciprocal()) <= PARITY_REL * self.max_abs()

    def shift(self, shift_a, shift_b):
        """Multiply by a^shift_a * b^shift_b."""
        return LaurentPoly2(
            {(j + shift_a, k + shift_b): c for (j, k), c in self._c.items()}
        )

    def parity_project(self, bit_a, bit_b):
        """Keep terms with exponents congruent to (bit_a, bit_b) mod 2."""
        return LaurentPoly2(
            {
                (j, k): c
                for (j, k), c in self._c.items()
                if j % 2 == bit_a % 2 and k % 2 == bit_b % 2
            }
        )

    # -- evaluation --------------------------------------------------------

    def eval_grid(self, za, zb):
        """Values on a product of nonzero points: out[i, j] = p(za[i], zb[j]).

        Computed as V(za) C V(zb)^T, with C the coefficients on the dense
        exponent box and V the Vandermonde matrix of those exponents.
        """
        za = np.atleast_1d(np.asarray(za, dtype=complex))
        zb = np.atleast_1d(np.asarray(zb, dtype=complex))
        if not self._c:
            return np.zeros((za.size, zb.size), dtype=complex)
        js = np.array([j for j, _ in self._c])
        ks = np.array([k for _, k in self._c])
        lo_a, lo_b = js.min(), ks.min()
        box = np.zeros((js.max() - lo_a + 1, ks.max() - lo_b + 1), dtype=complex)
        box[js - lo_a, ks - lo_b] = list(self._c.values())
        va = za[:, None] ** np.arange(lo_a, lo_a + box.shape[0])
        vb = zb[:, None] ** np.arange(lo_b, lo_b + box.shape[1])
        return va @ box @ vb.T

    def eval_unit_grid(self, n):
        """Values at theta_r = 2*pi*r/n per axis, via zero-padded inverse FFT.

        out[r, s] = p(2*pi*r/n, 2*pi*s/n). Exact (up to rounding) provided n
        exceeds the exponent spread in both variables.
        """
        deg = self.degrees()
        if not deg.is_zero and (2 * deg.deg_a >= n or 2 * deg.deg_b >= n):
            raise ValueError("grid size %d too small for exponent spread" % n)
        table = np.zeros((n, n), dtype=complex)
        for (j, k), c in self._c.items():
            table[j % n, k % n] += c
        return n * n * np.fft.ifft2(table)

    # -- degrees, parity, exponent windows ----------------------------------

    def degrees(self):
        if not self._c:
            return DegreePair(None, None, None, None)
        js = [j for j, _ in self._c]
        ks = [k for _, k in self._c]
        return DegreePair(
            deg_a=max(abs(j) for j in js),
            deg_b=max(abs(k) for k in ks),
            pos_a=max(js),
            pos_b=max(ks),
        )

    def has_inversion_sign(self, sign):
        """True when p(1/a, 1/b) == sign * p within PARITY_REL (zero poly: True)."""
        return self.inversion().distance(self * sign) <= PARITY_REL * self.max_abs()

    def negation_bits(self):
        """Exponent residues mod 2 per variable: (bit or None, bit or None).
        Coefficients below PARITY_REL of the largest are ignored."""
        if not self._c:
            return (None, None)
        cut = PARITY_REL * self.max_abs()
        live = [e for e, c in self._c.items() if abs(c) > cut]
        ja = {j % 2 for j, _ in live}
        kb = {k % 2 for _, k in live}
        bit_a = ja.pop() if len(ja) == 1 else None
        bit_b = kb.pop() if len(kb) == 1 else None
        return (bit_a, bit_b)

    def restrict(self, var, lo, hi):
        """Terms whose exponent of `var` lies in [lo, hi] (zero when lo > hi)."""
        if var not in ("a", "b"):
            raise ValueError("var must be 'a' or 'b'")
        axis = 0 if var == "a" else 1
        return LaurentPoly2({e: c for e, c in self._c.items() if lo <= e[axis] <= hi})


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

    def eval_at(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape, dtype=complex)
        for k, c in self._c.items():
            total = total + c * z**k
        if total.shape == ():
            return complex(total)
        return total

    # -- embedding into two variables ----------------------------------------

    def embed(self, var):
        """Lift into LaurentPoly2 with the exponent living on `var`."""
        if var == "a":
            return LaurentPoly2({(k, 0): c for k, c in self._c.items()})
        if var == "b":
            return LaurentPoly2({(0, k): c for k, c in self._c.items()})
        raise ValueError("var must be 'a' or 'b'")
