"""Concentration laboratory: radial test functions on the reduced space.

Evaluates the quotient

    I(u_eps) = ( int (u' ^2 + alpha u^2) rho dr ) /
               ( int f u^{two_sharp} rho dr )^{2/two_sharp}

for the truncated bubbles u_eps(r) = (eps + r^2)^{1-N/2} - (eps + delta^2)^{1-N/2}
supported in [0, delta], against the second-order model

    I(eps) = limit (1 + c1 eps + o(eps)),          N >= 5,
    I(eps) = limit (1 + coeff eps ln eps + ...),   N = 4,

with limit = A^{2/N} / (K_N f_peak^{2/two_sharp}).  The density

    rho(r) = A (1 - q r^2 / (2N)) sigma(r)

carries the orbit volume A, the relative quadratic decay q of the
orbit-volume function at its peak, and the area element sigma of a
space form (Euclidean for curvature None, round of curvature c > 0
otherwise).  The weight is expanded as f_peak - f_laplacian r^2/(2N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._lazy import lazy_import
from .constants import _concentration_threshold, sphere_volume
from .errors import PreconditionError

__all__ = [
    "ExpansionConfig",
    "ExpansionReport",
    "LogBranchReport",
    "test_function",
    "density",
    "rayleigh_quotient",
    "fit_and_compare",
    "log_branch_sign",
]

np = lazy_import("numpy")

_GAUSS_NODES = 20  # Gauss-Legendre points per panel
_GRADING = 3.0  # width ratio of neighbouring panels
_RIGHT_PANELS = 8  # panels shrinking toward the upper endpoint


def test_function(eps, delta, dim, r):
    """Truncated bubble, zero outside [0, delta]."""
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    power = 1.0 - dim / 2.0
    r = np.asarray(r, dtype=float)
    val = (eps + r * r) ** power - (eps + delta * delta) ** power
    return np.where(r <= delta, np.maximum(val, 0.0), 0.0)


@dataclass(frozen=True)
class ExpansionConfig:
    dim: int
    delta: float
    alpha: float
    orbit_volume: float
    vh_quadratic_coeff: float = 0.0
    curvature: float | None = None
    f_peak: float = 1.0
    f_laplacian: float = 0.0
    epsilons: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 4):
            raise PreconditionError("reduced dimension must be an integer >= 4")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise PreconditionError("support radius delta must be positive")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise PreconditionError("alpha must be positive")
        if not (math.isfinite(self.orbit_volume) and self.orbit_volume > 0.0):
            raise PreconditionError("orbit volume must be positive and finite")
        if not (math.isfinite(self.f_peak) and self.f_peak > 0.0):
            raise PreconditionError("peak value of f must be positive and finite")
        if not math.isfinite(self.vh_quadratic_coeff):
            raise PreconditionError("orbit-volume decay q must be finite")
        if not math.isfinite(self.f_laplacian):
            raise PreconditionError("Laplacian of f at the peak must be finite")
        d2 = self.delta * self.delta
        if self.vh_quadratic_coeff * d2 >= 2.0 * self.dim:
            raise PreconditionError("density not positive on [0, delta]: shrink delta")
        if self.f_peak - self.f_laplacian * d2 / (2.0 * self.dim) <= 0.0:
            raise PreconditionError("weight not positive on [0, delta]: shrink delta")
        if self.curvature is not None:
            if not (math.isfinite(self.curvature) and self.curvature > 0.0):
                raise PreconditionError(
                    "curvature must be positive and finite when given (None = flat)"
                )
            if math.sqrt(self.curvature) * self.delta >= math.pi:
                raise PreconditionError("delta exceeds the injectivity scale of the curvature")
        if not self.epsilons:
            eps = tuple(np.geomspace(1e-3 * d2, 1e-6 * d2, 7))
            object.__setattr__(self, "epsilons", eps)
        eps = tuple(float(e) for e in self.epsilons)
        if any(not (math.isfinite(e) and e > 0.0) for e in eps):
            raise PreconditionError("all eps must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise PreconditionError("epsilons must be strictly decreasing")
        if eps[0] > d2 / 4.0:
            raise PreconditionError("largest eps must not exceed delta^2 / 4")
        object.__setattr__(self, "epsilons", eps)

    @property
    def two_sharp(self):
        return 2.0 * self.dim / (self.dim - 2.0)

    @property
    def scal(self):
        """Scalar curvature of the model space."""
        if self.curvature is None:
            return 0.0
        return self.dim * (self.dim - 1.0) * self.curvature

    @property
    def predicted_limit(self):
        return _concentration_threshold(self.orbit_volume, self.dim, self.f_peak)

    @property
    def predicted_c1(self):
        """First-order coefficient of the eps-expansion; needs dim >= 5."""
        N = self.dim
        if N == 4:
            raise PreconditionError("dim 4 has a logarithmic branch; use log_branch_sign")
        return (
            4.0 * (N - 1.0) * self.alpha / (N - 2.0)
            + (N - 4.0) * self.f_laplacian / (2.0 * self.f_peak)
            - 3.0 * self.vh_quadratic_coeff
            - self.scal
        ) / (N * (N - 4.0))


def density(config, r):
    """rho(r): orbit volume times quadratic correction times area element."""
    N = config.dim
    r = np.asarray(r, dtype=float)
    if config.curvature is None:
        sigma = sphere_volume(N - 1) * r ** (N - 1.0)
    else:
        rc = math.sqrt(config.curvature)
        sigma = sphere_volume(N - 1) * (np.sin(rc * r) / rc) ** (N - 1.0)
    return config.orbit_volume * (1.0 - config.vh_quadratic_coeff * r * r / (2.0 * N)) * sigma


def _weight(config, r):
    return config.f_peak - config.f_laplacian * r * r / (2.0 * config.dim)


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(_GAUSS_NODES)


def quad(fn, a, b, scale):
    """int_a^b fn by Gauss-Legendre on panels graded geometrically at both ends.

    Toward a the edges are a + scale _GRADING^j, which resolves a peak of width
    scale at a; toward b, where u^{two_sharp} has an algebraic singularity,
    _RIGHT_PANELS panels shrink by _GRADING.  fn is called once, on all nodes;
    perfbench/tracing.py wraps this function by name.
    """
    half = 0.5 * (b - a)
    inner = np.arange(max(0, math.ceil(math.log(half / scale, _GRADING))))
    outer = np.arange(_RIGHT_PANELS)
    edges = np.concatenate(([a], a + scale * _GRADING**inner, b - half * _GRADING**-outer, [b]))
    x, w = _gauss_legendre()
    mid, rad = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return float(rad @ (w @ fn(mid + rad * x[:, None])))


def rayleigh_quotient(config, eps):
    """I(u_eps) by graded Gauss-Legendre quadrature."""
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    N = config.dim
    delta = config.delta
    power = 1.0 - N / 2.0
    tail = (eps + delta * delta) ** power
    root = math.sqrt(eps)

    def u(r):
        return (eps + r * r) ** power - tail

    def du(r):
        return 2.0 * power * r * (eps + r * r) ** (power - 1.0)

    def num_int(r):
        return (du(r) ** 2 + config.alpha * u(r) ** 2) * density(config, r)

    def den_int(r):
        return _weight(config, r) * u(r) ** config.two_sharp * density(config, r)

    num = quad(num_int, 0.0, delta, root)
    den = quad(den_int, 0.0, delta, root)
    if not den > 0.0:
        raise PreconditionError("degenerate test function: zero denominator")
    return num / den ** (2.0 / config.two_sharp)


@dataclass(frozen=True)
class ExpansionReport:
    config: ExpansionConfig
    samples: tuple  # ((eps, value), ...) in decreasing eps
    predicted_limit: float
    predicted_c1: float
    fitted_limit: float
    fitted_c1: float
    pair_slopes: tuple

    def to_json(self):
        return {
            "samples": [{"eps": e, "value": v} for e, v in self.samples],
            "predicted_limit": self.predicted_limit,
            "predicted_c1": self.predicted_c1,
            "fitted_limit": self.fitted_limit,
            "fitted_c1": self.fitted_c1,
            "pair_slopes": list(self.pair_slopes),
        }


def fit_and_compare(config):
    """Sample I(u_eps) along config.epsilons and fit the linear model.

    The fitted limit and slope come from the secant through the two
    smallest eps; pair_slopes lists all consecutive secant slopes so a
    caller can judge whether the linear regime was reached.
    """
    if config.dim < 5:
        raise PreconditionError("the linear model needs dim >= 5")
    if len(config.epsilons) < 2:
        raise PreconditionError("need at least two eps samples to fit")
    samples = tuple((e, rayleigh_quotient(config, e)) for e in config.epsilons)
    slopes = tuple(
        (v1 - v2) / (e1 - e2)
        for (e1, v1), (e2, v2) in zip(samples, samples[1:])
    )
    e2, v2 = samples[-1]
    slope = slopes[-1]
    fitted_limit = v2 - slope * e2
    return ExpansionReport(
        config=config,
        samples=samples,
        predicted_limit=config.predicted_limit,
        predicted_c1=config.predicted_c1,
        fitted_limit=fitted_limit,
        fitted_c1=slope / fitted_limit,
        pair_slopes=slopes,
    )


@dataclass(frozen=True)
class LogBranchReport:
    config: ExpansionConfig
    coeff: float
    samples: tuple
    consistent: bool

    def to_json(self):
        return {
            "coeff": self.coeff,
            "samples": [{"eps": e, "value": v} for e, v in self.samples],
            "consistent": self.consistent,
        }


def log_branch_sign(config):
    """Dim-4 check: sign of I - limit matches the eps ln(eps) model.

    coeff = (scal + 3 q - 6 alpha) / 8; since ln(eps) < 0 for small eps,
    I - limit and coeff must have opposite signs near zero.
    """
    if config.dim != 4:
        raise PreconditionError("the logarithmic branch exists only in dimension 4")
    coeff = (config.scal + 3.0 * config.vh_quadratic_coeff - 6.0 * config.alpha) / 8.0
    samples = tuple((e, rayleigh_quotient(config, e)) for e in config.epsilons)
    limit = config.predicted_limit
    ok = True
    for e, v in samples[-2:]:
        model = coeff * e * math.log(e)
        if model != 0.0 and (v - limit) * model <= 0.0:
            ok = False
    return LogBranchReport(config=config, coeff=coeff, samples=samples, consistent=ok)
