"""Dimensional constants, equation parameters, and interval-valued bounds.

Everything downstream is built from two numbers per dimension: the
volume of the round unit sphere S^N and the sharp constant of the
critical embedding H^1 -> L^{2N/(N-2)} in the normalization

    K_N = 4 / (N (N - 2) omega_N^{2/N}).

Both are evaluated from the Gamma-function closed form, never
tabulated.  Constants that are only known up to two-sided estimates
are carried around as ConstantBound intervals [lo, hi]; hi may be
+inf when no upper estimate is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError

__all__ = [
    "ConstantBound",
    "EquationParams",
    "sphere_volume",
    "sobolev_constant",
]


def sphere_volume(dim):
    """Volume of the unit round sphere S^dim.

    omega_N = 2 pi^{(N+1)/2} / Gamma((N+1)/2), dim = N >= 1.
    """
    if int(dim) != dim or dim < 1:
        raise PreconditionError("sphere dimension must be an integer >= 1, got %r" % (dim,))
    n = int(dim)
    return 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1))


def sobolev_constant(dim):
    """Sharp constant K_N of the critical Sobolev embedding, dim = N >= 3."""
    if int(dim) != dim or dim < 3:
        raise PreconditionError(
            "the critical embedding constant needs an integer dimension >= 3, got %r" % (dim,)
        )
    n = int(dim)
    return 4.0 / (n * (n - 2) * sphere_volume(n) ** (2.0 / n))


def _concentration_threshold(orbit_volume, dim, f_max):
    """A^{2/N} / (K_N f_max^{2/two_sharp}); callers validate the inputs."""
    two_sharp = 2.0 * dim / (dim - 2.0)
    return orbit_volume ** (2.0 / dim) / (sobolev_constant(dim) * f_max ** (2.0 / two_sharp))


@dataclass(frozen=True)
class ConstantBound:
    """Closed interval [lo, hi] certified to contain an unknown constant."""

    lo: float
    hi: float = math.inf

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise PreconditionError("bound endpoints must not be NaN")
        if not math.isfinite(lo):
            raise PreconditionError("lower endpoint must be finite, got %r" % (lo,))
        if hi < lo:
            raise PreconditionError("bound endpoints out of order: lo=%r > hi=%r" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value):
        return cls(value, value)

    @property
    def is_exact(self):
        return self.lo == self.hi

    def contains(self, x):
        return self.lo <= x <= self.hi

    def max_with(self, other):
        """Interval guaranteed to contain max(x, y) for x in self, y in other."""
        return ConstantBound(max(self.lo, other.lo), max(self.hi, other.hi))

    def min_with(self, other):
        """Interval guaranteed to contain min(x, y) for x in self, y in other."""
        return ConstantBound(min(self.lo, other.lo), min(self.hi, other.hi))

    def scale(self, factor):
        """Interval for factor * x; the factor must be positive and finite."""
        c = float(factor)
        if not (math.isfinite(c) and c > 0.0):
            raise PreconditionError("scaling factor must be positive and finite, got %r" % (factor,))
        return ConstantBound(self.lo * c, self.hi * c)

    def shift(self, offset):
        """Interval for x + offset; the offset must be finite."""
        s = float(offset)
        if not math.isfinite(s):
            raise PreconditionError("shift offset must be finite, got %r" % (offset,))
        return ConstantBound(self.lo + s, self.hi + s)

    def to_json(self):
        return {"lo": self.lo, "hi": None if math.isinf(self.hi) else self.hi}

    def __repr__(self):
        hi = "inf" if math.isinf(self.hi) else repr(self.hi)
        return "ConstantBound(%r, %s)" % (self.lo, hi)


@dataclass(frozen=True)
class EquationParams:
    """Parameters of  Delta u + alpha u = f u^p  on an n-manifold.

    The exponent is determined by the dimension drop k of the invariance:
    p = two_sharp - 1 with two_sharp = 2 (n - k) / (n - 2 - k).  k = 0 is
    the plain critical case; k > 0 is overcritical for the ambient
    dimension but critical for the reduced one, reduced_dim = n - k.
    alpha is optional because interval computations quantify over it.
    """

    n: int
    k: int = 0
    alpha: float | None = None

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise PreconditionError("ambient dimension n must be an integer >= 3, got %r" % (self.n,))
        if int(self.k) != self.k or self.k < 0:
            raise PreconditionError("dimension drop k must be an integer >= 0, got %r" % (self.k,))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        if self.n - self.k <= 2:
            raise PreconditionError(
                "need n - k > 2 for a finite exponent, got n=%d k=%d" % (self.n, self.k)
            )
        if self.alpha is not None:
            a = float(self.alpha)
            if not (math.isfinite(a) and a > 0.0):
                raise PreconditionError("alpha must be positive and finite, got %r" % (self.alpha,))
            object.__setattr__(self, "alpha", a)

    @property
    def reduced_dim(self):
        return self.n - self.k

    @property
    def two_sharp(self):
        m = self.reduced_dim
        return 2.0 * m / (m - 2)

    @property
    def exponent(self):
        """Nonlinearity power p = two_sharp - 1."""
        return self.two_sharp - 1.0
