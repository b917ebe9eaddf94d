"""Dimensional constants, equation parameters, and interval-valued bounds.

Everything downstream is built from two numbers per dimension: the
volume of the round unit sphere S^N and the sharp constant of the
critical embedding H^1 -> L^{2N/(N-2)} in the normalization

    K_N = 4 / (N (N - 2) omega_N^{2/N}).

Both are evaluated from the Gamma-function closed form once per
dimension and memoized, for N up to MAX_SPHERE_DIM, past which
Gamma((N+1)/2) overflows a float.  Constants that are only known up to
two-sided estimates are carried around as ConstantBound intervals
[lo, hi]; hi may be +inf when no upper estimate is available.

The input checks every record of the package shares (_finite, _above,
_integer, and _real_array for arrays) sit here, in the module the others
build on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from ._lazy import lazy_import
from .errors import PreconditionError

__all__ = [
    "ConstantBound",
    "EquationParams",
    "sphere_volume",
    "sobolev_constant",
]


# Gamma((N + 1) / 2) overflows a float from N = 343 on
MAX_SPHERE_DIM = 342

# Integer inputs (dimensions, group orders) stop at MAX_INTEGER_INPUT, so
# that each converts to a float and a product of two of them, such as the
# group order's square in best_constants._b0_quotient_sphere, stays a finite one.
MAX_INTEGER_INPUT = 10**150

np = lazy_import("numpy")


def _real(x, what):
    """x if it is a real number, numpy's included; a bool, str or None is not one.  what names it."""
    # int and float first: an isinstance check against numbers.Real is several times slower
    if type(x) in (int, float) or isinstance(x, numbers.Real) and not isinstance(x, bool):
        return x
    raise PreconditionError("%s must be a real number, got %r" % (what, x))


def _finite(x, what):
    """x as a finite float; what names it."""
    if type(x) is not float:  # a float needs neither check nor conversion
        x = float(_real(x, what))
    if not math.isfinite(x):
        raise PreconditionError("%s must be finite, got %r" % (what, x))
    return x


def _above(x, what, floor):
    """x as a finite float above floor (_finite); what names it."""
    x = _finite(x, what)
    if not x > floor:
        raise PreconditionError("%s must be > %r, got %r" % (what, floor, x))
    return x


def _integer(x, what, least=1):
    """x as an int, checked against [least, MAX_INTEGER_INPUT] before any conversion; what names it."""
    if type(x) is int and least <= x <= MAX_INTEGER_INPUT:  # an int in range needs no conversion
        return x
    if not (least <= _real(x, what) <= MAX_INTEGER_INPUT and int(x) == x):
        raise PreconditionError(
            "%s must be an integer in [%d, %.0e], got %r" % (what, least, MAX_INTEGER_INPUT, x)
        )
    return int(x)


def _real_array(x):
    """x as a float ndarray if numpy reads it as an array of real numbers, else None.

    Real means numpy's signed, unsigned or floating dtypes: an array of
    bools, complex numbers, text or objects is none, so "1.0" is not
    parsed as a number.  A ragged x gives None too.
    """
    try:
        a = np.asarray(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return np.asarray(a, dtype=float) if a.dtype.kind in "iuf" else None


def sphere_volume(dim):
    """Volume of the unit round sphere S^dim.

    omega_N = 2 pi^{(N+1)/2} / Gamma((N+1)/2), 1 <= dim = N <= MAX_SPHERE_DIM.
    """
    if not (1 <= dim <= MAX_SPHERE_DIM and int(dim) == dim):
        raise PreconditionError(
            "sphere dimension N must be an integer in [1, %d], past which Gamma((N+1)/2) "
            "overflows a float; got N=%r" % (MAX_SPHERE_DIM, dim)
        )
    return _sphere_volume(int(dim))


@lru_cache(maxsize=128)
def _sphere_volume(n):
    return 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1))


def sobolev_constant(dim):
    """Sharp constant K_N of the critical Sobolev embedding, 3 <= dim = N <= MAX_SPHERE_DIM."""
    if not (3 <= dim <= MAX_SPHERE_DIM and int(dim) == dim):
        raise PreconditionError(
            "the critical embedding constant needs an integer dimension N in [3, %d], got N=%r"
            % (MAX_SPHERE_DIM, dim)
        )
    return _sobolev_constant(int(dim))


@lru_cache(maxsize=128)
def _sobolev_constant(n):
    return 4.0 / (n * (n - 2) * _sphere_volume(n) ** (2.0 / n))


def _concentration_threshold(orbit_volume, dim, f_max):
    """A^{2/N} / (K_N f_max^{2/two_sharp}); callers validate the inputs."""
    two_sharp = 2.0 * dim / (dim - 2.0)
    return orbit_volume ** (2.0 / dim) / (sobolev_constant(dim) * f_max ** (2.0 / two_sharp))


@dataclass(frozen=True, slots=True)
class ConstantBound:
    """Closed interval [lo, hi] certified to contain an unknown constant."""

    lo: float
    hi: float = math.inf

    def __post_init__(self):
        lo = _finite(self.lo, "lower endpoint lo")
        hi = self.hi if type(self.hi) is float else float(_real(self.hi, "upper endpoint hi"))
        if not hi >= lo:
            raise PreconditionError("upper endpoint hi must be >= lo=%r, got %r" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value):
        return cls(value, value)

    def contains(self, x):
        return self.lo <= x <= self.hi

    def __repr__(self):
        hi = "inf" if math.isinf(self.hi) else repr(self.hi)
        return "ConstantBound(%r, %s)" % (self.lo, hi)


@dataclass(frozen=True, slots=True)
class EquationParams:
    """Parameters of  Delta u + alpha u = f u^p  on an n-manifold.

    The exponent is determined by the dimension drop k of the invariance:
    p = two_sharp - 1 with two_sharp = 2 (n - k) / (n - 2 - k).  k = 0 is
    the plain critical case; k > 0 is overcritical for the ambient
    dimension but critical for the reduced one, reduced_dim = n - k.
    alpha is left out: interval computations quantify over it.
    """

    n: int
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "ambient dimension n", least=3))
        object.__setattr__(self, "k", _integer(self.k, "dimension drop k", least=0))
        if self.n - self.k <= 2:
            raise PreconditionError(
                "need n - k > 2 for a finite exponent, got n=%d k=%d" % (self.n, self.k)
            )

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
