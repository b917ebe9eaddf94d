"""Two-sided estimates for the zero-order constant of the invariant
sharp Sobolev inequality.

For a compact n-manifold and an isometry group G with k-dimensional
minimal orbits, the invariant functions satisfy

    ||u||_{2#}^2  <=  (K_N / A^{2/N}) ( ||grad u||_2^2 + B ||u||_2^2 ),

with N = n - k, A the minimal orbit volume, and the optimal B is the
constant all interval computations revolve around.  This module
returns certified ConstantBound windows for it on the model spaces,
plus the general curvature lower bound and the transfer along
principal constant-volume quotients.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .constants import ConstantBound, _above, _integer, sobolev_constant
from .errors import PreconditionError

__all__ = [
    "b0_sphere",
    "b0_circle_sphere",
    "b0_quotient_sphere",
    "b0_lower_general",
    "b0_transfer_principal",
]

def b0_sphere(n):
    """On the round unit sphere the optimal constant is exactly n(n-2)/4."""
    return _b0_sphere(_integer(n, "the round-sphere constant's dimension n", 3))


@lru_cache(maxsize=128)
def _b0_sphere(n):
    return ConstantBound.exact(n * (n - 2) / 4.0)


def b0_circle_sphere(t, n):
    """Window for S^1(t) x S^{n-1} (trivial group).

    [ (n-2)^2/4 ,  (n-2)^2/4 + 1/(4 t^2) ].
    """
    return ConstantBound(*_circle_sphere_window(t, n))


def _circle_sphere_window(t, n):
    """b0_circle_sphere's window as its two ends (lo, hi), with no record built.

    Below a radius t of about 3.7e-155, 1/(4 t^2) overflows a float (below
    about 1e-162 the square itself is 0), so no finite window exists.
    """
    n = _integer(n, "the product constant's dimension n", 3)
    t = _above(t, "the product constant's circle radius t", 0.0)
    base = (n - 2) ** 2 / 4.0
    quarter = 4.0 * t * t
    hi = base + 1.0 / quarter if quarter else math.inf
    if hi == math.inf:
        raise PreconditionError(
            "the product constant's circle radius t must keep 1/(4 t^2) a finite float, got %r" % (t,)
        )
    return base, hi


def b0_quotient_sphere(n, order):
    """Window for a free finite quotient of S^n with the given group order.

    [ A^{2/n} n(n-2)/4 ,  (1 + A^2/4)(n+1)/2 - 1 + n(n-2)/4 ],  A = order.
    """
    n = _integer(n, "the quotient-sphere constant's dimension n", 3)
    return _b0_quotient_sphere(n, _integer(order, "the group order"))


@lru_cache(maxsize=256)
def _b0_quotient_sphere(n, order):
    a = float(order)
    lo = a ** (2.0 / n) * n * (n - 2) / 4.0
    hi = (1.0 + a * a / 4.0) * (n + 1) / 2.0 - 1.0 + n * (n - 2) / 4.0
    return ConstantBound(lo, hi)


def _volume_term(N, orbit_volume, volume):
    """A^{2/N} / (K_N V^{2/N}): the volume part of the curvature lower bound."""
    return orbit_volume ** (2.0 / N) / (sobolev_constant(N) * volume ** (2.0 / N))


def _concentration_ceiling(N, scal, q):
    """(N-2)/(4 (N-1)) (scal + 3 q): the alpha below which test functions
    concentrating on a minimal orbit push the quotient under its threshold.

    scal is the quotient's scalar curvature at the orbit and q the
    Laplacian of the orbit-volume function there over the orbit volume.
    """
    return (N - 2) / (4.0 * (N - 1)) * (scal + 3.0 * q)


def _curvature_term(N, orbit_volume, scal, laplacian):
    """The concentration ceiling from an action's orbit volume and certified
    lower bounds of S_quotient and lap(v_H)."""
    return _concentration_ceiling(N, scal, laplacian / orbit_volume)


def b0_lower_general(params, volume, action):
    """Curvature lower bound, valid with no upper companion.

    B >= max{ A^{2/N} / (V^{2/N} K_N),
              (n-2-k)/(4 (n-1-k)) ( S_quotient + 3 lap(v_H)/A ) }

    using certified lower bounds for the quotient scalar curvature and
    for the orbit-volume Laplacian.  Needs N = n - k >= 3.
    """
    lo = _lower_general(
        params, volume, action.k, action.orbit_volume, action.quotient_scal_lower, action.vh_laplacian_lower
    )
    return ConstantBound(lo, math.inf)


def _lower_general(params, volume, k, orbit_volume, scal, laplacian):
    """b0_lower_general's lower end from an action's numbers: its orbit
    dimension k, orbit volume and the two curvature lower bounds."""
    N = params.reduced_dim
    if N < 3:
        raise PreconditionError("curvature lower bound needs n - k >= 3, got %d" % N)
    if params.k != k:
        raise PreconditionError("action orbit dimension %d does not match k=%d" % (k, params.k))
    volume = _above(volume, "the curvature bound's manifold volume", 0.0)
    vol_term = _volume_term(N, orbit_volume, volume)
    return max(vol_term, _curvature_term(N, orbit_volume, scal, laplacian))


def b0_transfer_principal(action, quotient_bound):
    """Transfer a window from the quotient back to the total space.

    When all orbits are principal with constant volume, the invariant
    constant upstairs equals the plain constant of the quotient, so the
    window passes through unchanged: the same record comes back.
    """
    if not action.principal_constant_volume:
        raise PreconditionError(
            "transfer requires principal orbits of constant volume (action %r)" % (action.name,)
        )
    return quotient_bound
